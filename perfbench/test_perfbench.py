"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench -q

Every workload runs at smoke size, traced and untraced, and every output
check is fed a corrupted output to show that it fails.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, run, workloads
from perfbench.tracing import Tracer
from revgraph import synthesis

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    mapped = [name for entry in run.load_layer_map() for name in entry["metrics"]]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == mapped
    for entry in run.load_layer_map():
        assert set(entry["workloads"]) <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=0, smoke=True)
    assert result["correct"], result["details"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_covers_its_spans(name, tmp_path):
    result = run.run_traced(workloads.WORKLOADS[name](workloads.SMOKE), 3, tmp_path)
    assert result["correct"], result["details"]["failures"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_span_guard_fails_when_a_mapped_span_is_not_called(monkeypatch, tmp_path):
    layers = run.load_layer_map() + [
        {"metrics": [], "span": "graph.walk_sum", "workloads": ["ensemble-cli"], "moves": ""}
    ]
    monkeypatch.setattr(run, "load_layer_map", lambda: layers)
    result = run.run_traced(workloads.EnsembleCli(workloads.SMOKE), 3, tmp_path)
    assert not result["correct"]
    assert "graph.walk_sum" in result["details"]["failures"][0]


def test_process_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "inspect", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inspect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_latency([float(i) for i in range(39)]) == (38.0, 100.0)
    value, level = run.tail_latency([float(i) for i in range(40)])
    assert (value, level) == (29.0, 75.0)


def test_tracer_self_time_excludes_children_and_folds_same_name():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(10000)), "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    again = tracer.wrap(lambda: outer(), "outer")
    again()
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner"), abs=1e-12
    )


# -- Every check catches a corrupted output ------------------------------------------


@pytest.fixture
def spectrum_csv(tmp_path):
    grid = synthesis.FrequencyGrid(2e9, 3e9, 16)
    spectrum = synthesis.DelayPowerSpectrum(
        np.linspace(1.0, 2.0, 16), grid, synthesis.SpectrumKind.ENSEMBLE, 1
    )
    path = tmp_path / "spectrum_ensemble_x.csv"
    synthesis.write_spectrum_csv(path, spectrum)
    return path


def _replace_line(path, index, transform):
    lines = path.read_text().splitlines()
    lines[index] = transform(lines[index])
    path.write_text("\n".join(lines) + "\n")


def test_spectrum_csv_check(spectrum_csv):
    assert checks.check_spectrum_csv(spectrum_csv, 16) == []
    assert checks.check_spectrum_csv(spectrum_csv, 15)
    assert checks.check_spectrum_dir(spectrum_csv.parent, "spectrum_ensemble", 2, 16)


@pytest.mark.parametrize("power", ["nan", "-1.0", "inf"])
def test_spectrum_csv_check_catches_bad_power(spectrum_csv, power):
    _replace_line(spectrum_csv, 5, lambda line: ",".join([line.split(",")[0], power, "0.0"]))
    assert checks.check_spectrum_csv(spectrum_csv, 16)


def test_spectrum_csv_check_catches_a_dropped_row(spectrum_csv):
    lines = spectrum_csv.read_text().splitlines()
    spectrum_csv.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_spectrum_csv(spectrum_csv, 16)


def test_validate_report_check():
    assert checks.check_validate_report("ok   a\n9/9 checks passed\n") == []
    assert checks.check_validate_report("FAIL a: x\n8/9 checks passed\n")
    assert checks.check_validate_report("")


def test_dissect_check_catches_a_changed_slice(tmp_path):
    status, _ = workloads.run_cli(
        ["dissect", "--out", tmp_path, "--seed", 4, "--kmax", workloads.DISSECT_KMAX,
         "--grid", "2e9,3e9,64"]
    )
    assert status == 0
    assert checks.check_dissect_additivity(tmp_path, workloads.DISSECT_KMAX) == []
    _replace_line(tmp_path / "dissect_2toinf.csv", 10,
                  lambda line: ",".join([line.split(",")[0], "1e-3", line.split(",")[2]]))
    assert checks.check_dissect_additivity(tmp_path, workloads.DISSECT_KMAX)


def test_exit_status_and_close_checks():
    assert checks.check_exit_status("x", 0) == []
    assert checks.check_exit_status("x", 1)
    a = np.linspace(1.0, 2.0, 8)
    assert checks.check_close("x", a, a.copy(), 1e-12) == []
    assert checks.check_close("x", a * (1 + 1e-9), a, 1e-12)
    assert checks.check_close("x", a[:-1], a, 1e-12)


def test_ensemble_op_check_catches_a_missing_range(tmp_path):
    wl = workloads.EnsembleSliced(workloads.SMOKE)
    _, spectra = wl.op(5, tmp_path)
    assert wl.check_op(spectra) == []
    assert wl.check_op(spectra[:-1])


def test_cli_op_check_catches_a_failed_exit(tmp_path):
    wl = workloads.EnsembleCli(workloads.SMOKE)
    _, (status, out_dir) = wl.op(5, tmp_path)
    assert wl.check_op((status, out_dir)) == []
    assert wl.check_op((1, out_dir))
    next(out_dir.glob("spectrum_ensemble_*.csv")).unlink()
    assert wl.check_op((status, out_dir))


def test_pooled_check_catches_a_corrupted_ensemble(monkeypatch):
    wl = workloads.EnsembleSliced(workloads.SMOKE)
    assert wl.final_checks(7) == []
    real = synthesis.ensemble_spectra

    def corrupted(*args, **kwargs):
        spectra = real(*args, **kwargs)
        return spectra[:1] + tuple(
            synthesis.DelayPowerSpectrum(s.power * (1 + 1e-9), s.grid, s.kind, s.count)
            for s in spectra[1:]
        )

    monkeypatch.setattr(synthesis, "ensemble_spectra", corrupted)
    assert len(wl.final_checks(7)) == len(workloads.SLICED_RANGES) - 1


def test_sub_mesh_check_catches_a_corrupted_spatial_spectrum(monkeypatch):
    wl = workloads.Inspect(workloads.SMOKE)
    assert wl.final_checks(7) == []
    real = synthesis.spatial_spectrum

    def corrupted(*args, **kwargs):
        s = real(*args, **kwargs)
        power = s.power.copy()
        power[np.argmax(power)] *= 1 + 1e-9
        return synthesis.DelayPowerSpectrum(power, s.grid, s.kind, s.count)

    monkeypatch.setattr(synthesis, "spatial_spectrum", corrupted)
    assert wl.final_checks(7)


def test_inspect_op_check_catches_a_failed_validation(tmp_path):
    wl = workloads.Inspect(workloads.SMOKE)
    _, (statuses, text, out_dir) = wl.op(5, tmp_path)
    assert wl.check_op((statuses, text, out_dir)) == []
    assert wl.check_op((statuses, text.replace("9/9", "8/9"), out_dir))
    assert wl.check_op(([("dissect", 1)], text, out_dir))
    next((out_dir / "spatial").glob("spectrum_spatial_*.csv")).unlink()
    assert wl.check_op((statuses, text, out_dir))
