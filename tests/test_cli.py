"""Config parsing, validation messages, experiment modes, and exit codes.

File-producing modes run on deliberately tiny grids so the whole module
stays fast; outputs are re-parsed with the csv/json stdlib modules and, for
the determinism claim, compared byte for byte across reruns.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import pytest

from revgraph.cli import (
    DEFAULT_GRIDS,
    DEFAULT_KMAX,
    DEFAULT_RUNS,
    ExperimentSpec,
    Mode,
    ParseError,
    ValidationError,
    config_schema,
    default_spec,
    dump_config,
    load_config,
    main,
    spec_to_document,
    _KNOWN_FIELDS,
    _SPEC_FIELDS,
    _dissection_ranges,
)
from revgraph.graph import ConstantGain, EdgeClass
from revgraph.scenario import _SCENARIO_FIELDS, ScenarioConfig, generate_realization
from revgraph.synthesis import FrequencyGrid


def _write(tmp_path, name, doc) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _rows(path) -> list[dict]:
    with Path(path).open() as fh:
        return list(csv.DictReader(fh))


# -- config loading ------------------------------------------------------------


def test_empty_config_is_the_documented_default(tmp_path):
    path = _write(tmp_path, "empty.json", {})
    spec = load_config(path)
    assert spec == default_spec()
    assert spec.scenario == ScenarioConfig()
    assert spec.grids == DEFAULT_GRIDS
    assert spec.mode is Mode.RESPONSE
    assert spec.out_dir is None
    assert spec.n_runs == DEFAULT_RUNS and spec.k_max == DEFAULT_KMAX


def test_default_grids_cover_narrow_and_wide_bands():
    narrow, wide = DEFAULT_GRIDS
    assert (narrow.f_min_hz, narrow.f_max_hz, narrow.n_samples) == (2e9, 3e9, 8192)
    assert (wide.f_min_hz, wide.f_max_hz, wide.n_samples) == (1e9, 11e9, 8192)


def test_unknown_field_is_a_parse_error_with_location(tmp_path):
    path = _write(tmp_path, "bad.json", {"n_scat": 3})
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert info.value.field == "n_scat"
    assert info.value.line == 2  # first line after the opening brace
    assert "unknown field" in str(info.value)


def test_malformed_json_reports_its_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 3,\n}\n')
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert info.value.line == 3


def test_probability_out_of_range(tmp_path):
    path = _write(tmp_path, "p.json", {"p_vis": 1.3})
    with pytest.raises(ValidationError) as info:
        load_config(path)
    assert info.value.field == "p_vis"
    assert str(info.value) == "p_vis: not in [0,1]"


@pytest.mark.parametrize(
    "doc",
    [
        {"seed": True},
        {"fit_window_ns": [True, 120]},
        {"fit_window_ns": ["a", 120]},
        {"fit_window_ns": [None, 120]},
        {"room": [[0, 5], [0, 5], [True, 2.6]]},
        {"room": [[0, "x"], [0, 5], [0, 2.6]]},
        {"room": [[0, 5], [None, 5], [0, 2.6]]},
        {"speed_of_light": math.inf},
        {"tail_slope_db_per_ns": -math.inf},
        {"fit_window_ns": [40, math.inf]},
        {"spatial_mesh_m": math.nan},
        {"grids": [[1e9, math.inf, 8]]},
    ],
    ids=["seed-true", "fit_window-true", "fit_window-string", "fit_window-null",
         "room-true", "room-string", "room-null", "speed_of_light-inf",
         "tail_slope-minus-inf", "fit_window-inf", "spatial_mesh-nan", "grids-inf"],
)
def test_booleans_are_not_numbers(tmp_path, doc):
    path = _write(tmp_path, "b.json", doc)
    with pytest.raises(ValidationError) as info:
        load_config(path)
    assert info.value.field == next(iter(doc))


def test_every_config_attribute_has_exactly_one_table_entry():
    scenario_attrs = sorted(f.attr for f in _SCENARIO_FIELDS)
    spec_attrs = sorted(["scenario"] + [f.attr for f in _SPEC_FIELDS])
    assert scenario_attrs == sorted(f.name for f in fields(ScenarioConfig))
    assert spec_attrs == sorted(f.name for f in fields(ExperimentSpec))
    assert len(_KNOWN_FIELDS) == len(_SCENARIO_FIELDS) + len(_SPEC_FIELDS)


@pytest.mark.parametrize(
    "owner, attr, key, value",
    [
        (ScenarioConfig, "n_scatterers", "n_scatterers", 2.5),
        (ScenarioConfig, "max_rejections", "max_rejections", 2.5),
        (ScenarioConfig, "seed", "seed", 1.5),
        (ScenarioConfig, "p_visibility", "p_vis", True),
        (ExperimentSpec, "n_runs", "runs", 2.5),
        (ExperimentSpec, "k_max", "kmax", 1.5),
        (ExperimentSpec, "spatial_points", "spatial_points", True),
        (ScenarioConfig, "inter_scatterer_gain", "inter_scatterer_gain", 1.5),
        (ScenarioConfig, "tx_positions", "tx", [[9.0, 1.0, 1.0]]),
    ],
    ids=["n_scatterers", "max_rejections", "seed", "p_vis", "runs", "kmax", "spatial_points",
         "gain-out-of-range", "tx-outside-room"],
)
def test_constructors_reject_what_config_files_reject(tmp_path, owner, attr, key, value):
    with pytest.raises(ValidationError) as built:
        owner(**{attr: value})
    with pytest.raises(ValidationError) as loaded:
        load_config(_write(tmp_path, "c.json", {key: value}))
    assert built.value.field == loaded.value.field == key
    assert str(built.value) == str(loaded.value)


def test_two_calibrations_rejected(tmp_path):
    path = _write(tmp_path, "t.json",
                  {"tail_slope_db_per_ns": -0.4, "inter_scatterer_gain": 0.6})
    with pytest.raises(ValidationError) as info:
        load_config(path)
    assert info.value.field == "inter_scatterer_gain"


def test_null_slope_needs_a_gain(tmp_path):
    path = _write(tmp_path, "n.json", {"tail_slope_db_per_ns": None})
    with pytest.raises(ValidationError):
        load_config(path)
    ok = _write(tmp_path, "ok.json",
                {"tail_slope_db_per_ns": None, "inter_scatterer_gain": 0.5})
    spec = load_config(ok)
    assert spec.scenario.inter_scatterer_gain == 0.5
    assert spec.scenario.tail_slope_db_per_ns is None


def test_grid_entries_are_validated(tmp_path):
    path = _write(tmp_path, "g.json", {"grids": [[2e9, 3e9, 64]]})
    spec = load_config(path)
    assert spec.grids == (FrequencyGrid(2e9, 3e9, 64),)
    bad = _write(tmp_path, "gbad.json", {"grids": [[3e9, 2e9, 64]]})
    with pytest.raises(ValidationError):
        load_config(bad)
    empty = _write(tmp_path, "gempty.json", {"grids": []})
    with pytest.raises(ValidationError):
        load_config(empty)


def test_mode_names_are_checked(tmp_path):
    path = _write(tmp_path, "m.json", {"mode": "dissect"})
    assert load_config(path).mode is Mode.DISSECT
    bad = _write(tmp_path, "mbad.json", {"mode": "plot"})
    with pytest.raises(ValidationError) as info:
        load_config(bad)
    assert "response" in str(info.value)  # the message lists the valid names


def test_config_round_trips_through_dump(tmp_path):
    doc = {
        "room": [[0.0, 6.0], [0.0, 4.0], [0.0, 3.0]],
        "tx": [[1.0, 1.0, 1.0]],
        "rx": [[5.0, 3.0, 1.5]],
        "n_scatterers": 7,
        "p_vis": 0.6,
        "p_dir": 0.5,
        "inter_scatterer_gain": 0.55,
        "tail_slope_db_per_ns": None,
        "speed_of_light": 2.9e8,
        "seed": 11,
        "max_rejections": 50,
        "grids": [[2e9, 3e9, 128]],
        "runs": 12,
        "kmax": 2,
        "spatial_points": 5,
        "spatial_mesh_m": 0.02,
        "fit_window_ns": [30.0, 90.0],
        "mode": "ensemble",
        "out": "results",
    }
    defaults = spec_to_document(default_spec())
    assert set(doc) == _KNOWN_FIELDS
    assert all(doc[key] != defaults[key] for key in doc)  # every field is exercised
    first = load_config(_write(tmp_path, "a.json", doc))
    assert spec_to_document(first) == doc
    dump_config(first, tmp_path / "b.json")
    second = load_config(tmp_path / "b.json")
    assert first == second


def test_committed_schema_is_generated_from_the_field_table():
    committed = Path(__file__).resolve().parents[1] / "docs" / "config.schema.json"
    assert committed.read_text() == json.dumps(config_schema(), indent=2) + "\n", (
        "docs/config.schema.json is stale; regenerate it with: PYTHONPATH=src python -c "
        "'import json; from revgraph.cli import config_schema; "
        "print(json.dumps(config_schema(), indent=2))' > docs/config.schema.json"
    )


def test_document_fields_match_the_accepted_set():
    assert set(spec_to_document(default_spec())) == _KNOWN_FIELDS


# -- experiment modes ------------------------------------------------------------


def test_response_mode_writes_parseable_sweep(tmp_path):
    cfg = _write(tmp_path, "c.json", {})
    out = tmp_path / "r"
    status = main(["response", "--config", str(cfg), "--out", str(out),
                   "--grid", "2e9,3e9,64", "--seed", "5"])
    assert status == 0
    response = _rows(out / "response_2to3GHz_M64.csv")
    impulse = _rows(out / "impulse_2to3GHz_M64.csv")
    assert len(response) == 64 and len(impulse) == 64
    assert float(response[0]["freq_hz"]) == 2e9
    meta = json.loads((out / "response_2to3GHz_M64.meta.json").read_text())
    assert meta["seeds"] == [5]
    assert meta["window"] == "hann-unit-power"
    assert (out / "plots.txt").exists()


def test_sidecar_config_reloads_as_the_run_spec(tmp_path):
    cfg = _write(tmp_path, "c.json", {"n_scatterers": 4, "kmax": 2})
    out = tmp_path / "r"
    assert main(["response", "--config", str(cfg), "--out", str(out),
                 "--grid", "2e9,3e9,16", "--seed", "9"]) == 0
    meta = json.loads((out / "response_2to3GHz_M16.meta.json").read_text())
    reloaded = load_config(_write(tmp_path, "again.json", meta["config"]))
    expected = replace(load_config(cfg), mode=Mode.RESPONSE, out_dir=out,
                       grids=(FrequencyGrid(2e9, 3e9, 16),),
                       scenario=ScenarioConfig(n_scatterers=4, seed=9))
    assert reloaded == expected


def test_response_mode_sweeps_every_grid(tmp_path):
    cfg = _write(tmp_path, "c.json", {"grids": [[2e9, 3e9, 16], [1e9, 11e9, 32]]})
    out = tmp_path / "r"
    assert main(["response", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_rows(out / "response_2to3GHz_M16.csv")) == 16
    assert len(_rows(out / "response_1to11GHz_M32.csv")) == 32


def test_dissection_covers_triangle_plus_tails():
    labels = {f"{r.first}to{'inf' if r.unbounded else int(r.last)}"
              for r in _dissection_ranges(2)}
    assert labels == {"0to0", "0to1", "0to2", "1to1", "1to2", "2to2",
                      "0toinf", "1toinf", "2toinf"}


def test_dissect_mode_writes_one_file_per_range(tmp_path):
    cfg = _write(tmp_path, "c.json", {})
    out = tmp_path / "d"
    status = main(["dissect", "--config", str(cfg), "--out", str(out),
                   "--grid", "2e9,3e9,32", "--kmax", "2"])
    assert status == 0
    names = sorted(p.name for p in out.glob("dissect_*.csv"))
    assert names == [
        "dissect_0to0.csv", "dissect_0to1.csv", "dissect_0to2.csv",
        "dissect_0toinf.csv", "dissect_1to1.csv", "dissect_1to2.csv",
        "dissect_1toinf.csv", "dissect_2to2.csv", "dissect_2toinf.csv",
    ]
    assert all(len(_rows(out / n)) == 32 for n in names)
    assert (out / "dissect.meta.json").exists()


def test_ensemble_mode_reports_tail_slope(tmp_path):
    cfg = _write(tmp_path, "c.json", {"runs": 3})
    out = tmp_path / "e"
    status = main(["ensemble", "--config", str(cfg), "--out", str(out),
                   "--grid", "2e9,3e9,256"])
    assert status == 0
    rows = _rows(out / "spectrum_ensemble_2to3GHz_M256.csv")
    assert len(rows) == 256
    assert {"delay_s", "power_linear", "power_db"} == set(rows[0])
    meta = json.loads((out / "spectrum_ensemble_2to3GHz_M256.meta.json").read_text())
    assert meta["seeds"] == [0, 1, 2]
    report = (out / "tail_slopes.txt").read_text()
    assert "slope" in report and "dB/ns" in report


def test_spatial_mode_averages_over_mesh(tmp_path):
    cfg = _write(tmp_path, "c.json", {"spatial_points": 4})
    out = tmp_path / "s"
    status = main(["spatial", "--config", str(cfg), "--out", str(out),
                   "--grid", "2e9,3e9,128"])
    assert status == 0
    assert len(_rows(out / "spectrum_spatial_2to3GHz_M128.csv")) == 128
    meta = json.loads((out / "spectrum_spatial_2to3GHz_M128.meta.json").read_text())
    assert meta["n_positions"] == 16  # spatial_points counts mesh points per side


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.json", {"runs": 2})
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["ensemble", "--config", str(cfg), "--out", str(out),
                     "--grid", "2e9,3e9,64"]) == 0
        outs.append(out)
    for name in ("spectrum_ensemble_2to3GHz_M64.csv", "tail_slopes.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # The digest identifies the experiment, wherever it was written.
    metas = [json.loads((out / "spectrum_ensemble_2to3GHz_M64.meta.json").read_text())
             for out in outs]
    assert metas[0]["config"]["out"] != metas[1]["config"]["out"]
    assert metas[0]["config_sha1"] == metas[1]["config_sha1"]


def test_validate_mode_passes_on_defaults(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {})
    status = main(["validate", "--config", str(cfg), "--grid", "2e9,3e9,64"])
    captured = capsys.readouterr()
    assert status == 0
    assert "9/9 checks passed" in captured.out
    assert "FAIL" not in captured.out


def test_validate_catches_an_edge_off_its_gain_law(monkeypatch, tmp_path, capsys):
    import revgraph.cli as cli

    honest = cli.generate_realization

    def tampered(config, band):
        realization = honest(config, band)
        graph = realization.graph
        feed = graph.edges_in_class(EdgeClass.TX_SCATTER)[0]
        bumped = ConstantGain(1.5 * float(feed.gain.amplitude(band.f_min_hz, feed.delay_s)))
        edges = tuple(replace(e, gain=bumped) if e is feed else e for e in graph.edges)
        return replace(realization, graph=replace(graph, edges=edges))

    monkeypatch.setattr(cli, "generate_realization", tampered)
    cfg = _write(tmp_path, "c.json", {})
    status = main(["validate", "--config", str(cfg), "--grid", "2e9,3e9,32"])
    out = capsys.readouterr().out
    assert status == 1
    assert "FAIL every edge carries the gain its class law gives" in out
    assert "8/9 checks passed" in out


def test_validate_catches_a_transposed_loop_block(monkeypatch, tmp_path, capsys):
    import revgraph.cli as cli

    honest = cli.block_samples

    def transposed(graph, freqs):
        samples = honest(graph, freqs)
        return replace(samples, loop=samples.loop.transpose(0, 2, 1))

    monkeypatch.setattr(cli, "block_samples", transposed)
    cfg = _write(tmp_path, "c.json", {})
    status = main(["validate", "--config", str(cfg), "--grid", "2e9,3e9,32"])
    out = capsys.readouterr().out
    assert status == 1
    assert "FAIL every edge sits at [dst, src] of its class block, and nothing else" in out
    # transposing keeps the spectral radius, so only the placement check fails
    assert "ok   scatterer loop contracts on every configured grid" in out
    assert "8/9 checks passed" in out


def test_validate_reports_a_failed_generation_once(monkeypatch, tmp_path, capsys):
    import revgraph.scenario

    monkeypatch.setattr(revgraph.scenario, "_loop_is_contractive", lambda graph, freqs: False)
    cfg = _write(tmp_path, "c.json", {"max_rejections": 1})
    status = main(["validate", "--config", str(cfg), "--grid", "2e9,3e9,32"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert lines[0].startswith("FAIL realization generated within the rejection budget: "
                               "no acceptable graph after 1 attempts")
    assert [line[:5] for line in lines[1:-1]] == ["skip "] * 6 + ["ok   ", "skip "]
    assert lines[7] == "ok   windows carry unit power on every configured grid"
    assert lines[-1] == "1/9 checks passed"
    assert not any("FAIL" in line for line in lines[1:])


_TAMPERED_VALIDATE = textwrap.dedent("""
    import sys
    from dataclasses import replace

    import revgraph.cli as cli
    from revgraph.graph import ConstantGain, EdgeClass

    honest = cli.generate_realization

    def tampered(config, band):
        realization = honest(config, band)
        graph = realization.graph
        feed = graph.edges_in_class(EdgeClass.TX_SCATTER)[0]
        bumped = ConstantGain(1.5 * float(feed.gain.amplitude(band.f_min_hz, feed.delay_s)))
        edges = tuple(replace(e, gain=bumped) if e is feed else e for e in graph.edges)
        return replace(realization, graph=replace(graph, edges=edges))

    cli.generate_realization = tampered
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_validate_catches_an_edge_off_its_gain_law_under_python_O(tmp_path):
    # python -O strips assert statements; the validate checks must fail regardless
    import revgraph

    src = str(Path(revgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cfg = _write(tmp_path, "c.json", {})
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_VALIDATE,
         "validate", "--config", str(cfg), "--grid", "2e9,3e9,32"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert "FAIL every edge carries the gain its class law gives" in proc.stdout
    assert "8/9 checks passed" in proc.stdout


def test_validate_mode_handles_empty_scatterer_field(tmp_path):
    cfg = _write(tmp_path, "c.json", {"n_scatterers": 0})
    status = main(["validate", "--config", str(cfg), "--grid", "2e9,3e9,32"])
    assert status == 0


def test_validate_mode_writes_report_when_asked(tmp_path):
    cfg = _write(tmp_path, "c.json", {})
    out = tmp_path / "v"
    status = main(["validate", "--config", str(cfg), "--out", str(out),
                   "--grid", "2e9,3e9,32"])
    assert status == 0
    report = (out / "validate_report.txt").read_text()
    assert report.count("ok   ") == 9


# -- exit codes -------------------------------------------------------------------


def test_missing_config_file_exits_two(tmp_path, capsys):
    status = main(["response", "--config", str(tmp_path / "absent.json")])
    assert status == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_errors_exit_two(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"p_vis": 2.0})
    assert main(["response", "--config", str(bad)]) == 2
    assert "p_vis" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{nope}")
    assert main(["response", "--config", str(broken)]) == 2
    capsys.readouterr()
    wordy = _write(tmp_path, "wordy.json", {"fit_window_ns": ["a", 120]})
    assert main(["response", "--config", str(wordy)]) == 2
    assert "config error" in capsys.readouterr().err
    endless = _write(tmp_path, "endless.json", {"room": [[0, math.inf], [0, 5], [0, 2.6]]})
    assert main(["response", "--config", str(endless)]) == 2
    assert "config error: room:" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("flags", "doc"),
    [
        (["--runs", "0"], {"runs": 0}),
        (["--kmax", "x"], {"kmax": "x"}),
        (["--seed", "1.5"], {"seed": 1.5}),
        (["--grid", "1e9,inf,8"], {"grids": [[1e9, math.inf, 8]]}),
        (["--grid", "3e9,2e9,8"], {"grids": [[3e9, 2e9, 8]]}),
        (["--grid", "2e9,3e9"], {"grids": [[2e9, 3e9]]}),
    ],
    ids=["runs-zero", "kmax-text", "seed-fraction", "grid-inf", "grid-reversed", "grid-pair"],
)
def test_flag_values_are_judged_like_file_values(tmp_path, capsys, flags, doc):
    out = str(tmp_path / "o")
    assert main(["response", "--out", out] + flags) == 2
    from_flag = capsys.readouterr().err
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["response", "--config", str(cfg), "--out", out]) == 2
    assert from_flag == capsys.readouterr().err
    assert from_flag.startswith(f"config error: {next(iter(doc))}: ")


@pytest.mark.parametrize("doc", [{"runs": 0}, {"mode": "plot"}, {"out": 3}],
                         ids=["runs", "mode", "out"])
def test_file_values_are_checked_even_when_a_flag_replaces_them(tmp_path, capsys, doc):
    cfg = _write(tmp_path, "c.json", doc)
    status = main(["response", "--config", str(cfg), "--runs", "2",
                   "--out", str(tmp_path / "o"), "--grid", "2e9,3e9,8"])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"config error: {next(iter(doc))}: ")


def test_missing_out_dir_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {})
    assert main(["response", "--config", str(cfg)]) == 2
    assert "out" in capsys.readouterr().err


def test_engine_errors_exit_one(monkeypatch, tmp_path, capsys):
    import revgraph.cli as cli

    def blow_up(spec):
        raise RuntimeError("engine fault")

    monkeypatch.setitem(cli._RUNNERS, Mode.RESPONSE, blow_up)
    cfg = _write(tmp_path, "c.json", {})
    status = main(["response", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 1
    assert "engine fault" in capsys.readouterr().err


def test_threads_override_is_validated(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REVGRAPH_THREADS", "many")
    cfg = _write(tmp_path, "c.json", {"runs": 2})
    status = main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "ensemble"),
                   "--grid", "2e9,3e9,16"])
    assert status == 2
    assert capsys.readouterr().err.startswith("config error: REVGRAPH_THREADS: ")


def _spy_on_pool(monkeypatch) -> list:
    """Record (max_workers, chunksize) of every pool map; the real pool still runs."""
    import revgraph.synthesis as synthesis

    calls = []

    class SpyPool(synthesis.ProcessPoolExecutor):
        def __init__(self, max_workers=None):
            super().__init__(max_workers=max_workers)
            self.max_workers = max_workers

        def map(self, fn, *iterables, chunksize=1):
            calls.append((self.max_workers, chunksize))
            return super().map(fn, *iterables, chunksize=chunksize)

    monkeypatch.setattr(synthesis, "ProcessPoolExecutor", SpyPool)
    return calls


def _use_workers(monkeypatch, n: int) -> None:
    import revgraph.cli as cli

    if n == 1:
        monkeypatch.setenv("REVGRAPH_THREADS", "1")
    else:
        monkeypatch.delenv("REVGRAPH_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: n)


def _wrap_writers(monkeypatch) -> None:
    # As a tracer does: the writers become closures, which cannot be pickled.
    import revgraph.cli as cli
    import revgraph.synthesis as synthesis

    for name in ("write_response_csv", "write_impulse_csv", "write_spectrum_csv"):
        original = getattr(synthesis, name)

        def wrapper(*args, _original=original, **kwargs):
            return _original(*args, **kwargs)

        for module in (cli, synthesis):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)


def test_csv_writes_start_no_pool(monkeypatch, tmp_path):
    out = tmp_path / "o"
    argvs = [
        ["response", "--out", str(out / "r"), "--grid", "2e9,3e9,64", "--grid", "1e9,11e9,32"],
        ["dissect", "--out", str(out / "d"), "--grid", "2e9,3e9,64", "--kmax", "3"],
    ]

    def run_all() -> dict:
        shutil.rmtree(out, ignore_errors=True)
        for argv in argvs:
            assert main(argv) == 0
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    pools = _spy_on_pool(monkeypatch)
    _use_workers(monkeypatch, 2)
    written = run_all()
    assert len([p for p in written if p.suffix == ".csv"]) == 4 + 14
    _wrap_writers(monkeypatch)
    assert run_all() == written
    # Two cores and no REVGRAPH_THREADS: every file is still written here.
    assert pools == []


@pytest.mark.parametrize("workers", [1, 2])
def test_write_errors_name_the_file(monkeypatch, tmp_path, capsys, workers):
    pools = _spy_on_pool(monkeypatch)
    _use_workers(monkeypatch, workers)
    cases = [
        (["dissect", "--kmax", "1"], "dissect_1toinf.csv"),  # the last of 5 files
        (["ensemble", "--runs", "2"], "spectrum_ensemble_2to3GHz_M16.csv"),
    ]
    for argv, name in cases:
        out = tmp_path / argv[0]
        blocked = out / name
        blocked.mkdir(parents=True)
        status = main(argv + ["--out", str(out), "--grid", "2e9,3e9,16"])
        assert status == 1
        assert f"while writing {blocked}" in capsys.readouterr().err
    # Only the ensemble's runs are pooled, one per task.
    assert pools == ([] if workers == 1 else [(2, 1)])


_TWO_GRID_FLAGS = ["--grid", "2e9,3e9,16", "--grid", "1e9,11e9,32"]


def _files(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_ensemble_runs_every_grid_in_one_pool(monkeypatch, tmp_path):
    pools = _spy_on_pool(monkeypatch)
    outputs = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        out = tmp_path / str(workers)
        assert main(["ensemble", "--runs", "3", "--out", str(out)] + _TWO_GRID_FLAGS) == 0
        outputs.append({name: data for name, data in _files(out).items()
                        if not name.name.endswith(".meta.json")})
    # One task per seed samples both grids: one pool, one run per task.
    assert pools == [(2, 1)]
    assert outputs[1] == outputs[0]
    assert len(outputs[0]) == 2 + 2  # two spectra, plots.txt and tail_slopes.txt


@pytest.mark.parametrize("doc, draws_per_seed", [({}, 1), ({"inter_scatterer_gain": 0.9999995}, 2)],
                         ids=["flat-certified", "band-checked"])
@pytest.mark.parametrize("mode", ["ensemble", "response", "spatial"])
def test_two_grids_draw_a_seed_again_only_where_the_band_mattered(
    monkeypatch, tmp_path, mode, doc, draws_per_seed
):
    # A given gain this close to one is past SPECTRAL_RADIUS_LIMIT: the flat
    # bound certifies no loop, so acceptance samples each grid's band.
    import revgraph.cli as cli
    import revgraph.synthesis as synthesis

    _use_workers(monkeypatch, 1)
    seeds = []
    for module in (cli, synthesis):
        def counted(config, band, _honest=module.generate_realization):
            seeds.append(config.seed)
            return _honest(config, band)

        monkeypatch.setattr(module, "generate_realization", counted)
    cfg = _write(tmp_path, "c.json", {**doc, "runs": 2, "spatial_points": 2, "n_scatterers": 4})
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)] + _TWO_GRID_FLAGS) == 0
    runs = 2 if mode == "ensemble" else 1
    assert seeds == [seed for seed in range(runs) for _ in range(draws_per_seed)]
    scenario = load_config(cfg).scenario
    for meta in out.glob("*.meta.json"):
        sidecar = json.loads(meta.read_text())
        if "attempts" in sidecar:
            band = (sidecar["grid"]["f_min_hz"], sidecar["grid"]["f_max_hz"])
            assert sidecar["attempts"] == generate_realization(scenario, band).attempts


_RESPONSE_AXES = "x = freq_hz / 1e9 (GHz), y = 20*log10(hypot(h_rx0_tx0_re, h_rx0_tx0_im)) (dB)"
_IMPULSE_AXES = "x = delay_s * 1e9 (ns), y = 20*log10(hypot(h_re, h_im)) (dB)"
_SPECTRUM_AXES = "x = delay_s * 1e9 (ns), y = power_db (dB)"


@pytest.mark.parametrize("argv, lines", [
    (["response"], [
        f"response_2to3GHz_M16.csv: {_RESPONSE_AXES}",
        f"impulse_2to3GHz_M16.csv: {_IMPULSE_AXES}",
        f"response_1to11GHz_M32.csv: {_RESPONSE_AXES}",
        f"impulse_1to11GHz_M32.csv: {_IMPULSE_AXES}",
    ]),
    (["dissect", "--kmax", "1"], [
        f"dissect_{tag}.csv: {_IMPULSE_AXES}, bounce orders {label}"
        for tag, label in [("0to0", "0:0"), ("0to1", "0:1"), ("1to1", "1:1"),
                           ("0toinf", "0:inf"), ("1toinf", "1:inf")]
    ]),
    (["ensemble", "--runs", "1"], [
        f"spectrum_ensemble_2to3GHz_M16.csv: {_SPECTRUM_AXES}",
        f"spectrum_ensemble_1to11GHz_M32.csv: {_SPECTRUM_AXES}",
    ]),
    (["spatial"], [
        f"spectrum_spatial_2to3GHz_M16.csv: {_SPECTRUM_AXES}",
        f"spectrum_spatial_1to11GHz_M32.csv: {_SPECTRUM_AXES}",
    ]),
], ids=["response", "dissect", "ensemble", "spatial"])
def test_plots_txt_describes_every_csv(tmp_path, argv, lines):
    cfg = _write(tmp_path, "c.json", {"spatial_points": 2})
    out = tmp_path / "o"
    assert main(argv + ["--config", str(cfg), "--out", str(out),
                        "--grid", "2e9,3e9,16", "--grid", "1e9,11e9,32"]) == 0
    assert (out / "plots.txt").read_text() == "\n".join(lines) + "\n"


def test_spec_validation_catches_bad_knobs():
    base = default_spec()
    with pytest.raises(ValidationError) as info:
        ExperimentSpec(scenario=None, mode=Mode.VALIDATE)
    assert info.value.field == "scenario"
    with pytest.raises(ValidationError):
        ExperimentSpec(scenario=base.scenario, grids=(), mode=Mode.RESPONSE,
                       out_dir=None)
    with pytest.raises(ValidationError):
        ExperimentSpec(scenario=base.scenario, grids=base.grids,
                       mode=Mode.ENSEMBLE, out_dir=None, n_runs=0)
    with pytest.raises(ValidationError):
        ExperimentSpec(scenario=base.scenario, grids=base.grids,
                       mode=Mode.ENSEMBLE, out_dir=None, fit_window_ns=(50.0, 40.0))
