"""revgraph benchmark: one workload per run, or every workload with ``all``.

    python3 perfbench/run.py --workload ensemble-sliced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the run is a closed loop from this one process: it issues
the workload's operations back to back for ``--seconds`` seconds, then checks
every output and prints the end-to-end metrics.  With ``--trace 1`` it runs a
fixed, seed-determined shape of the workload once untraced and once with
spans around revgraph's public functions, and prints the per-layer metrics.
``all`` runs every workload both ways, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``perfbench/results/<workload>_seed<seed>_trace<trace>.json`` with the
details and the provenance of the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 7


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def load_layer_map() -> list[dict]:
    return json.loads((BENCH / "layer_map.json").read_text())["layers"]


# -- Statistics --------------------------------------------------------------------


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its level.

    Below 40 samples that percentile would fall under p75, too low to call a
    tail, so the maximum is reported instead, at level 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# -- Provenance -----------------------------------------------------------------------


def provenance(seeds: dict, workers) -> dict:
    import numpy as np
    import scipy

    def blas(module) -> str | None:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return f"{info.get('name')} {info.get('version')}"

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "REVGRAPH_THREADS": os.environ.get("REVGRAPH_THREADS"),
        "workers": workers,
        "git_commit": _git_commit(),
        "source_sha1": _source_digest(),
        "seeds": seeds,
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the repository rooted at this checkout, if it is one."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-1 over the package sources, for checkouts that are not repositories."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src" / "revgraph").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- One workload ---------------------------------------------------------------------


def measure_setup() -> float:
    """Median set-up seconds over fresh processes."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def run_end_to_end(wl, seed: int, seconds: float, work: Path, smoke_wl) -> dict:
    rng = random.Random(seed)
    setup_s = measure_setup()
    smoke_wl.op(rng.randrange(10**9), work / "warmup")  # load lazy imports and caches
    latencies, op_seeds, messages = [], [], []
    items = failed = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        op_seed = rng.randrange(10**9)
        out = work / f"op{len(latencies)}"
        op_seeds.append(op_seed)
        t0 = time.perf_counter()
        try:
            done, outputs = wl.op(op_seed, out)
        except Exception:
            latencies.append(time.perf_counter() - t0)
            failed += 1
            messages.append(f"op seed {op_seed}: {traceback.format_exc()}")
            continue
        latencies.append(time.perf_counter() - t0)
        problems = wl.check_op(outputs)
        del outputs
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            failed += 1
            messages += problems
        else:
            items += done
    rss = peak_rss_mib()
    attempted = len(latencies) + 1
    try:
        problems = wl.final_checks(seed)
    except Exception:
        problems = [f"final checks: {traceback.format_exc()}"]
    if problems:
        failed += 1
        messages += problems
    tail, tail_level = tail_latency(latencies)
    units = metric_units()
    values = {
        "setup_s": setup_s,
        "throughput_per_s": items / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mib": rss,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "details": {
            "items": items,
            "operations": len(latencies),
            "latencies_s": latencies,
            "latency_tail_level_pct": tail_level,
            "latency_samples": len(latencies),
            "failures": messages,
        },
        "seeds": {"workload": seed, "operations": op_seeds},
    }


def run_traced(wl, seed: int, work: Path) -> dict:
    from perfbench.tracing import Tracer

    op_seed = random.Random(seed).randrange(10**9)
    messages = []
    t0 = time.perf_counter()
    wl.serial(op_seed, work / "serial")
    serial_s = time.perf_counter() - t0
    efficiency = worker_rss = 0.0
    if wl.workers():
        t0 = time.perf_counter()
        workers = wl.parallel(op_seed, work / "parallel") or 1
        efficiency = serial_s / (workers * (time.perf_counter() - t0))
        worker_rss = peak_rss_mib(resource.RUSAGE_CHILDREN)

    tracer = Tracer()
    install_spans(tracer)
    try:
        t0 = time.perf_counter()
        wl.serial(op_seed, work / "traced")
        traced_s = time.perf_counter() - t0
        probed = wl.probe(op_seed)
    finally:
        tracer.uninstall()

    calls = tracer.calls
    self_s = tracer.self_s
    attempts = tracer.counters["scenario.attempts"]
    values = {
        "graph.block_samples.calls": calls("graph.block_samples"),
        "graph.block_samples.self_s": self_s("graph.block_samples"),
        "graph.block_samples.edge_samples": tracer.counters["graph.block_samples.edge_samples"],
        "synthesis.sample_transfer.self_s": self_s("synthesis.sample_transfer"),
        "synthesis.slices_marginal_s": probed.get("synthesis.slices_marginal_s", 0.0),
        "synthesis.ensemble_spectra.self_s": self_s("synthesis.ensemble_spectra"),
        "synthesis.reduction_bytes_computed": wl.reduction_bytes(),
        "synthesis.ensemble.worker_peak_rss_mib": worker_rss,
        "synthesis.ensemble.scaling_efficiency": efficiency,
        "synthesis.impulse_response.self_s": self_s("synthesis.impulse_response"),
        "synthesis.fit_tail_slope.self_s": self_s("synthesis.fit_tail_slope"),
        "synthesis.spatial_spectrum.self_s": self_s("synthesis.spatial_spectrum"),
        "scenario.relocate_receiver.self_s": self_s("scenario.relocate_receiver"),
        "scenario.generate_realization.calls": calls("scenario.generate_realization"),
        "scenario.generate_realization.self_s": self_s("scenario.generate_realization"),
        "scenario.accept_ratio": calls("scenario.generate_realization") / attempts if attempts else 0.0,
        "transfer.calls": calls("transfer"),
        "transfer.self_s": self_s("transfer"),
        "graph.walk_sum.self_s": self_s("graph.walk_sum"),
        "synthesis.write_csv.self_s": self_s("synthesis.write_csv"),
        "synthesis.write_csv.bytes": tracer.counters["synthesis.write_csv.bytes"],
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": traced_s / serial_s,
    }
    for entry in load_layer_map():
        if entry["span"] and wl.name in entry["workloads"] and not calls(entry["span"]):
            messages.append(f"span {entry['span']} recorded no calls on {wl.name}")
    units = metric_units()
    spans = sorted({s.name for s in tracer.spans})
    return {
        "correct": not messages,
        "attempted": 1,
        "failed": 1 if messages else 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "details": {
            "serial_s": serial_s,
            "traced_s": traced_s,
            "spans": {
                name: {"calls": calls(name), "self_s": self_s(name), "total_s": tracer.total_s(name)}
                for name in spans
            },
            "counters": dict(tracer.counters),
            "failures": messages,
        },
        "seeds": {"workload": seed, "operations": [op_seed]},
    }


def install_spans(tracer) -> None:
    """Wrap the public functions each per-layer metric is measured at."""
    import numpy as np
    from revgraph import cli, graph, scenario, synthesis, transfer

    def edge_samples(args, kwargs, result):
        return {"graph.block_samples.edge_samples": len(args[0].edges) * np.size(args[1])}

    def attempts(args, kwargs, result):
        return {"scenario.attempts": result.attempts}

    def csv_bytes(args, kwargs, result):
        return {"synthesis.write_csv.bytes": Path(args[0]).stat().st_size}

    tracer.install(graph, "block_samples", "graph.block_samples", edge_samples)
    tracer.install(graph, "walk_sum", "graph.walk_sum")
    tracer.install(scenario, "generate_realization", "scenario.generate_realization", attempts)
    tracer.install(scenario, "relocate_receiver", "scenario.relocate_receiver")
    for name in ("transfer_matrix", "partial_transfer_matrix", "k_bounce_matrix",
                 "truncation_error", "scatterer_signal", "make_kernel"):
        tracer.install(transfer, name, "transfer")
    for name in ("sample_transfer", "sample_transfer_slices", "spatial_spectrum",
                 "impulse_response", "fit_tail_slope"):
        tracer.install(synthesis, name, f"synthesis.{name}")
    for name in ("ensemble_spectra", "ensemble_spectrum"):
        tracer.install(synthesis, name, "synthesis.ensemble_spectra")
    for name in ("write_response_csv", "write_impulse_csv", "write_spectrum_csv"):
        tracer.install(synthesis, name, "synthesis.write_csv", csv_bytes)
    tracer.install(cli, "main", "cli.main")


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    from perfbench import workloads

    scale = workloads.SMOKE if smoke else workloads.FULL
    wl = workloads.WORKLOADS[name](scale)
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = run_traced(wl, seed, work)
        else:
            result = run_end_to_end(wl, seed, seconds, work, workloads.WORKLOADS[name](workloads.SMOKE))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    seeds = result.pop("seeds")
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "scale": "smoke" if smoke else "full",
        **result,
        "provenance": provenance(seeds, wl.workers()),
    }
    RESULTS.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (RESULTS / f"{name}_seed{seed}_trace{trace}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return result


def summary_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


# -- Every workload, fresh processes ---------------------------------------------------


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    from perfbench import workloads

    scale = workloads.SMOKE if smoke else workloads.FULL
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if smoke else []),
                                  capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                combined["correct"] = False
                combined["failed"] += 1
                combined["attempted"] += 1
                print(f"{name} trace={trace}: exit status {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            runs[f"{name}/trace{trace}"] = result
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
                print(f"{name:16s} {metric:42s} {entry['value']:.6g} {entry['unit']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"all_seed{seed}{'_smoke' if smoke else ''}.json").write_text(json.dumps({
        "seconds": seconds,
        "scale": "smoke" if smoke else "full",
        "runs": runs,
        "provenance": provenance({"workload": seed}, {
            name: cls(scale).workers() for name, cls in workloads.WORKLOADS.items()
        }),
    }, indent=2) + "\n")
    print(summary_line(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ensemble-sliced, ensemble-cli, inspect or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"cannot load revgraph from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.smoke)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    for failure in result["details"]["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
