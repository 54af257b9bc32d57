"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload inspect --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --traced --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/baseline.json

Each run is a fresh ``run.py`` process.  For every end-to-end metric the
table gives the median over the seeds and the spread, the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.  A
spread above a third of the bound is flagged, and so is, with ``--compare``,
a median worse than the earlier file's by more than the bound.
``--traced`` adds one traced run per workload, on the first seed, for the
per-layer figures.  ``--out`` updates the workloads run and keeps the others
already in the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path,
                        help="earlier --out file; flag medians worse than it by more than the bound")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            steady &= not flag or metric == "setup_s"
            if workload in earlier:
                before = earlier[workload]["end_to_end"][metric]["median"]
                change = stats["median"] / before - 1.0
                worse = change if lower_is_better[metric] else -change
                flag += f"  vs earlier {change:+.4f}" + ("  <-- WORSE THAN BOUND" if worse > bound else "")
            print(f"{workload:16s} {metric:18s} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bound}{flag}", flush=True)
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        results = BENCH / "results"
        first = json.loads(next(results.glob("*_trace0.json")).read_text())
        summary["provenance"] = first["provenance"]
        if args.out.exists():  # keep the workloads this invocation did not run
            earlier = json.loads(args.out.read_text())["workloads"]
            summary["workloads"] = {**earlier, **summary["workloads"]}
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
