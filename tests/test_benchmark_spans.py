"""The benchmark's traced run finds every public function it wraps.

``perfbench/run.py::install_spans`` looks each function up by name, so a
rename or deletion in revgraph breaks the traced benchmark run.  This test
installs the spans on a fresh tracer, drives small ``revgraph validate``,
``spatial``, ``ensemble`` and ``dissect`` runs through them, and removes them
again; it only reads ``perfbench/``.  The ``ensemble`` and ``dissect`` CSV
files must be written in this process, where a traced run sees them, at any
worker count.  Grid-driven sampling must reach the ``graph.block_samples``
span with an argument whose size is the grid's M, so that the span counts M
edge samples per edge.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import revgraph.cli
from revgraph.scenario import ScenarioConfig, generate_realization
from revgraph.synthesis import FrequencyGrid, ensemble_spectra, hann_window, sample_transfer

ROOT = Path(__file__).resolve().parents[1]


def _revgraph_callables() -> dict:
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "revgraph"
        for key, value in vars(module).items()
        if callable(value)
    }


def _traced(monkeypatch, call):
    """Run ``call()`` with the benchmark's spans installed; its result and the tracer."""
    monkeypatch.syspath_prepend(str(ROOT))
    install_spans = importlib.import_module("perfbench.run").install_spans
    tracer = importlib.import_module("perfbench.tracing").Tracer()
    # The CSV writers import this module on first use; import it now, so that
    # a first write inside ``call`` adds no callables to the comparison.
    importlib.import_module("revgraph._csvtext")
    before = _revgraph_callables()
    try:
        install_spans(tracer)
        result = call()
    finally:
        tracer.uninstall()
    assert _revgraph_callables() == before
    return result, tracer


def _traced_main(monkeypatch, argv):
    """Run ``revgraph.cli.main(argv)`` with the benchmark's spans installed; the exit status and tracer."""
    return _traced(monkeypatch, lambda: revgraph.cli.main(argv))


def test_benchmark_spans_wrap_existing_functions(monkeypatch, capsys):
    status, tracer = _traced_main(monkeypatch, ["validate", "--grid", "2e9,3e9,16"])
    assert status == 0, capsys.readouterr()
    for span in ("cli.main", "scenario.generate_realization", "graph.block_samples",
                 "transfer", "graph.walk_sum", "synthesis.impulse_response"):
        assert tracer.calls(span), f"no call went through the {span} span"


def test_benchmark_spans_see_the_spatial_sweep(monkeypatch, capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"spatial_points": 2}))
    status, tracer = _traced_main(monkeypatch, [
        "spatial", "--config", str(config), "--out", str(tmp_path / "out"),
        "--grid", "2e9,3e9,16",
    ])
    assert status == 0, capsys.readouterr()
    for span in ("synthesis.spatial_spectrum", "scenario.relocate_receiver"):
        assert tracer.calls(span), f"no call went through the {span} span"


@pytest.mark.parametrize("argv, spans", [
    (["ensemble", "--runs", "2"], ("synthesis.ensemble_spectra",)),
    (["dissect", "--kmax", "2"], ("synthesis.sample_transfer_slices",)),
])
def test_benchmark_spans_see_ensemble_and_dissect(monkeypatch, capsys, tmp_path, argv, spans):
    # One worker keeps every run in this process, where the spans are.
    monkeypatch.setenv("REVGRAPH_THREADS", "1")
    status, tracer = _traced_main(monkeypatch, argv + [
        "--out", str(tmp_path / "out"), "--grid", "2e9,3e9,16",
    ])
    assert status == 0, capsys.readouterr()
    for span in ("graph.block_samples", "synthesis.write_csv") + spans:
        assert tracer.calls(span), f"no call went through the {span} span"
    # The benchmark times every CSV write in this process even where a pool may run.
    monkeypatch.setenv("REVGRAPH_THREADS", "2")
    monkeypatch.setattr(revgraph.cli.os, "cpu_count", lambda: 2)
    pooled = tmp_path / "pooled"
    grids = ["--grid", "2e9,3e9,16"] + (["--grid", "1e9,11e9,16"] if argv[0] == "ensemble" else [])
    status, tracer = _traced_main(monkeypatch, argv + ["--out", str(pooled)] + grids)
    assert status == 0, capsys.readouterr()
    assert tracer.calls("synthesis.write_csv") == len(list(pooled.glob("*.csv"))) > 1


@pytest.mark.parametrize("entry", ["sample_transfer", "ensemble_spectra"])
def test_grid_sampling_counts_m_samples_per_edge(monkeypatch, entry):
    grid = FrequencyGrid(2e9, 3e9, 64)
    config = ScenarioConfig(seed=4)
    seeds = (4,) if entry == "sample_transfer" else (4, 5)
    graphs = [generate_realization(ScenarioConfig(seed=seed), grid).graph for seed in seeds]
    if entry == "sample_transfer":
        call = lambda: sample_transfer(graphs[0], grid)
    else:
        call = lambda: ensemble_spectra(config, grid, len(seeds), hann_window(grid))
    _, tracer = _traced(monkeypatch, call)
    assert tracer.calls("graph.block_samples") == len(seeds)
    expected = sum(len(graph.edges) for graph in graphs) * grid.n_samples
    assert tracer.counters["graph.block_samples.edge_samples"] == expected
