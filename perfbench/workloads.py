"""The benchmark's workloads, driven through revgraph's public functions.

Each workload runs one *operation* per call of :meth:`op`: an
``ensemble_spectra`` call, a ``revgraph ensemble`` invocation, or one seed's
single-realization CLI calls.  ``op`` returns the items it completed and
the outputs to check; :meth:`check_op` checks them after the timer stops.
:meth:`final_checks` runs the workload's independent cross-checks once per
run, and :meth:`probe` replays the run through the public single-step
functions so the traced run can attribute time to them.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import revgraph  # noqa: E402

if SRC.resolve() not in Path(revgraph.__file__).resolve().parents:
    raise ImportError(f"revgraph was imported from {revgraph.__file__}, not from {SRC}")

from revgraph import cli, scenario, synthesis  # noqa: E402
from revgraph.transfer import BounceRange  # noqa: E402

from . import checks  # noqa: E402

NARROW_BAND = (2e9, 3e9)
WIDE_BAND = (1e9, 11e9)
# Criterion 8's set: the full range plus exactly k = 1..5 bounces.
SLICED_RANGES = (BounceRange.full(),) + tuple(BounceRange.exactly(k) for k in range(1, 6))
DISSECT_KMAX = 4
MESH_STEP_M = 0.01


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark run."""

    grid_m: int            # samples per frequency grid
    sliced_runs: int       # runs per ensemble_spectra call
    cli_runs: int          # runs per grid per `revgraph ensemble` call
    mesh_points: int       # inspect's `revgraph spatial` mesh is mesh_points x mesh_points
    traced_sliced_runs: int
    traced_cli_runs: int
    traced_items: int      # inspection seeds in the traced run
    check_m: int           # grid size of the cross-checks
    check_runs: int        # runs in the pooled-versus-serial check


# FULL passes the CLI's default grids (M = 8192).
FULL = Scale(8192, 16, 12, 5, 16, 8, 2, 1024, 4)
SMOKE = Scale(256, 3, 2, 3, 2, 2, 1, 256, 2)


def ensemble_workers(n_runs: int) -> int | None:
    """The worker count `revgraph ensemble` picks for ``n_runs`` runs."""
    limit = os.cpu_count() or 1
    env = os.environ.get("REVGRAPH_THREADS")
    if env is not None:
        limit = min(limit, max(1, int(env)))
    workers = min(limit, n_runs)
    return workers if workers > 1 else None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``revgraph <argv>`` in this process; returns exit status and stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main([str(a) for a in argv])
    return status, buffer.getvalue()


@contextlib.contextmanager
def one_worker():
    """Make `revgraph ensemble` keep every run in this process."""
    old = os.environ.get("REVGRAPH_THREADS")
    os.environ["REVGRAPH_THREADS"] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REVGRAPH_THREADS", None)
        else:
            os.environ["REVGRAPH_THREADS"] = old


class Workload:
    name = ""

    def __init__(self, scale: Scale):
        self.scale = scale
        self.narrow = synthesis.FrequencyGrid(*NARROW_BAND, scale.grid_m)
        self.grids = (self.narrow, synthesis.FrequencyGrid(*WIDE_BAND, scale.grid_m))

    def grid_flags(self, grids) -> list[str]:
        return [f for g in grids for f in ("--grid", f"{g.f_min_hz:g},{g.f_max_hz:g},{g.n_samples}")]

    def op(self, op_seed: int, out_dir: Path, traced: bool = False):
        raise NotImplementedError

    def check_op(self, outputs) -> list[str]:
        return []

    def final_checks(self, seed: int) -> list[str]:
        return []

    def serial(self, op_seed: int, out_dir: Path) -> None:
        """The traced run's operation with every run in this process."""
        self.op(op_seed, out_dir, traced=True)

    def parallel(self, op_seed: int, out_dir: Path) -> int | None:
        """The traced run's operation with the default worker count; returns it."""
        raise NotImplementedError

    def workers(self) -> int | None:
        """Worker processes per timed operation; ``None`` runs in this process."""
        return None

    def probe(self, op_seed: int) -> dict[str, float]:
        """Replay the traced operation through the single-step public functions.

        Returns per-layer values only the replay can measure.
        """
        return {}

    def reduction_bytes(self) -> int:
        """Bytes of per-run power arrays the traced operation reduces."""
        return 0


class EnsembleSliced(Workload):
    name = "ensemble-sliced"

    def __init__(self, scale: Scale):
        super().__init__(scale)
        self.window = synthesis.hann_window(self.narrow)

    def _ensemble(self, op_seed, runs, workers, grid=None, window=None):
        return synthesis.ensemble_spectra(
            scenario.ScenarioConfig(seed=op_seed), grid or self.narrow, runs,
            window or self.window, bounce_ranges=SLICED_RANGES, workers=workers,
        )

    def op(self, op_seed, out_dir, traced=False):
        runs = self.scale.traced_sliced_runs if traced else self.scale.sliced_runs
        workers = None if traced else ensemble_workers(runs)
        return runs, self._ensemble(op_seed, runs, workers)

    def parallel(self, op_seed, out_dir):
        workers = ensemble_workers(self.scale.traced_sliced_runs)
        self._ensemble(op_seed, self.scale.traced_sliced_runs, workers)
        return workers

    def workers(self):
        return ensemble_workers(self.scale.sliced_runs)

    def check_op(self, spectra):
        failures = []
        if len(spectra) != len(SLICED_RANGES):
            failures.append(f"{len(spectra)} spectra for {len(SLICED_RANGES)} ranges")
        for s in spectra:
            failures += checks.check_power(f"ensemble {s.count} runs", s.power, self.narrow.n_samples)
        return failures

    def final_checks(self, seed):
        """A small pooled ensemble equals the mean of serially computed powers."""
        grid = synthesis.FrequencyGrid(*NARROW_BAND, self.scale.check_m)
        window = synthesis.hann_window(grid)
        runs = self.scale.check_runs
        pooled = self._ensemble(seed, runs, ensemble_workers(runs), grid, window)
        serial = [
            serial_powers(scenario.ScenarioConfig(seed=seed + i), grid, window)
            for i in range(runs)
        ]
        failures = []
        for k, spectrum in enumerate(pooled):
            expected = np.mean([powers[k] for powers in serial], axis=0)
            failures += checks.check_close(
                f"pooled ensemble, range {SLICED_RANGES[k].label}", spectrum.power, expected, 1e-12
            )
        return failures

    def probe(self, op_seed):
        """Also measures what the five extra ranges cost over the full one."""
        marginal = 0.0
        for i in range(self.scale.traced_sliced_runs):
            graph = scenario.generate_realization(
                scenario.ScenarioConfig(seed=op_seed + i), self.narrow
            ).graph
            t0 = time.perf_counter()
            pieces = synthesis.sample_transfer_slices(graph, self.narrow, SLICED_RANGES)
            t1 = time.perf_counter()
            synthesis.sample_transfer(graph, self.narrow)
            marginal += (t1 - t0) - (time.perf_counter() - t1)
            for piece in pieces:
                synthesis.impulse_response(piece, self.window)
        return {"synthesis.slices_marginal_s": marginal}

    def reduction_bytes(self):
        return self.scale.traced_sliced_runs * len(SLICED_RANGES) * self.scale.grid_m * 8


def serial_powers(config, grid, window) -> list[np.ndarray]:
    """Per-range |y|^2 of one run, computed with the single-run functions."""
    graph = scenario.generate_realization(config, grid).graph
    return [
        synthesis.impulse_response(piece, window).power()
        for piece in synthesis.sample_transfer_slices(graph, grid, SLICED_RANGES)
    ]


class EnsembleCli(Workload):
    name = "ensemble-cli"

    def _run(self, op_seed, out_dir, runs):
        argv = ["ensemble", "--out", out_dir, "--seed", op_seed, "--runs", runs]
        status, _ = run_cli(argv + self.grid_flags(self.grids))
        return runs * len(self.grids), (status, out_dir)

    def op(self, op_seed, out_dir, traced=False):
        if traced:
            with one_worker():
                return self._run(op_seed, out_dir, self.scale.traced_cli_runs)
        return self._run(op_seed, out_dir, self.scale.cli_runs)

    def parallel(self, op_seed, out_dir):
        self._run(op_seed, out_dir, self.scale.traced_cli_runs)
        return ensemble_workers(self.scale.traced_cli_runs)

    def workers(self):
        return ensemble_workers(self.scale.cli_runs)

    def check_op(self, outputs):
        status, out_dir = outputs
        return checks.check_exit_status("revgraph ensemble", status) + checks.check_spectrum_dir(
            out_dir, "spectrum_ensemble", len(self.grids), self.scale.grid_m
        )

    def probe(self, op_seed):
        for grid in self.grids:
            window = synthesis.hann_window(grid)
            for i in range(self.scale.traced_cli_runs):
                config = scenario.ScenarioConfig(seed=op_seed + i)
                graph = scenario.generate_realization(config, grid).graph
                synthesis.impulse_response(synthesis.sample_transfer(graph, grid), window)
        return {}

    def reduction_bytes(self):
        return self.scale.traced_cli_runs * len(self.grids) * self.scale.grid_m * 8


class Inspect(Workload):
    name = "inspect"

    def op(self, op_seed, out_dir, traced=False):
        out_dir.mkdir(parents=True, exist_ok=True)
        mesh = out_dir / "mesh.json"
        mesh.write_text(f'{{"spatial_points": {self.scale.mesh_points}}}\n')
        calls = (
            ("response", self.grids, []),
            ("dissect", self.grids, ["--kmax", DISSECT_KMAX]),
            ("spatial", (self.narrow,), ["--config", mesh]),
            ("validate", self.grids, []),
        )
        statuses = []
        for mode, grids, extra in calls:
            argv = [mode, "--out", out_dir / mode, "--seed", op_seed, *extra, *self.grid_flags(grids)]
            status, text = run_cli(argv)
            statuses.append((mode, status))
        return 1, (statuses, text, out_dir)

    def check_op(self, outputs):
        statuses, validate_text, out_dir = outputs
        failures = []
        for mode, status in statuses:
            failures += checks.check_exit_status(f"revgraph {mode}", status)
        failures += checks.check_validate_report(validate_text)
        failures += checks.check_dissect_additivity(out_dir / "dissect", DISSECT_KMAX)
        failures += checks.check_spectrum_dir(
            out_dir / "spatial", "spectrum_spatial", 1, self.scale.grid_m
        )
        return failures

    def final_checks(self, seed):
        """A 3 x 3 sub-mesh matches naive relocation plus resampling."""
        grid = synthesis.FrequencyGrid(*NARROW_BAND, self.scale.check_m)
        window = synthesis.hann_window(grid)
        realization = scenario.generate_realization(scenario.ScenarioConfig(seed=seed), grid)
        base = np.asarray(realization.graph.position(revgraph.rx(0)))
        steps = (-MESH_STEP_M, 0.0, MESH_STEP_M)
        positions = [tuple(base + (dx, dy, 0.0)) for dy in steps for dx in steps]
        shared = synthesis.spatial_spectrum(realization, positions, grid, window)
        naive = [
            synthesis.impulse_response(
                synthesis.sample_transfer(scenario.relocate_receiver(realization.graph, 0, p), grid),
                window,
            ).power()
            for p in positions
        ]
        return checks.check_close("3x3 sub-mesh", shared.power, np.mean(naive, axis=0), 1e-12)

    def serial(self, op_seed, out_dir):
        for i in range(self.scale.traced_items):
            self.op(op_seed + i, out_dir / str(i))


WORKLOADS = {w.name: w for w in (EnsembleSliced, EnsembleCli, Inspect)}
