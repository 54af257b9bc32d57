"""Command-line front end for the simulator.

Five modes cover the stock experiments:

- ``response``: one realization, transfer-function and impulse CSV per grid.
- ``dissect``: one realization split into bounce-order slices, the
  triangular (K <= L) set up to K_max plus the K:inf remainders.
- ``ensemble``: Monte Carlo average of |h|^2 over independent runs, with a
  fitted tail slope per grid.
- ``spatial``: average of |h|^2 over a square horizontal mesh of receiver
  positions for a single realization.
- ``validate``: internal consistency checks on the configured scenario;
  exit status 0 only if every check passes.

Configuration is a flat JSON object; an empty file (``{}``) yields the
reference-office defaults.  Unknown keys are rejected.  Outputs are plain
CSV plus a JSON sidecar with the grid, window, seeds, and a config digest;
floats are written with ``repr`` so reruns are byte-identical.  The
``REVGRAPH_THREADS`` environment variable caps ensemble parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .graph import EdgeClass, block_samples, reverse_graph, walk_sum
from .scenario import Box, ScenarioConfig, edge_gain, generate_realization
from .synthesis import (
    DelayPowerSpectrum,
    FrequencyGrid,
    InsufficientBins,
    NonpositivePower,
    config_digest,
    ensemble_spectrum,
    fit_tail_slope,
    hann_window,
    impulse_response,
    sample_transfer,
    sample_transfer_slices,
    spatial_spectrum,
    write_impulse_csv,
    write_response_csv,
    write_sidecar,
    write_spectrum_csv,
)
from .transfer import BounceRange, partial_transfer_matrix, transfer_matrix, verify_contraction

__all__ = [
    "ParseError",
    "ValidationError",
    "Mode",
    "ExperimentSpec",
    "load_config",
    "dump_config",
    "default_spec",
    "run",
    "main",
]

WINDOW_LABEL = "hann-unit-power"

DEFAULT_GRIDS = (
    FrequencyGrid(2e9, 3e9, 8192),
    FrequencyGrid(1e9, 11e9, 8192),
)
DEFAULT_RUNS = 1000
DEFAULT_KMAX = 4
DEFAULT_SPATIAL_POINTS = 30
DEFAULT_SPATIAL_MESH_M = 0.01
DEFAULT_FIT_WINDOW_NS = (40.0, 120.0)


class ParseError(ValueError):
    """Config file could not be read as the documented schema."""

    def __init__(self, line: int, field: str, message: str):
        self.line = int(line)
        self.field = field
        super().__init__(f"line {line}, field {field or '<document>'}: {message}")


class ValidationError(ValueError):
    """A config field parsed fine but holds an unusable value."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class Mode(Enum):
    RESPONSE = "response"
    DISSECT = "dissect"
    ENSEMBLE = "ensemble"
    SPATIAL = "spatial"
    VALIDATE = "validate"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one invocation needs: scenario, grids, mode, and knobs."""

    scenario: ScenarioConfig
    grids: tuple[FrequencyGrid, ...]
    mode: Mode
    out_dir: Path | None
    n_runs: int = DEFAULT_RUNS
    k_max: int = DEFAULT_KMAX
    spatial_points: int = DEFAULT_SPATIAL_POINTS
    spatial_mesh_m: float = DEFAULT_SPATIAL_MESH_M
    fit_window_ns: tuple[float, float] = DEFAULT_FIT_WINDOW_NS

    def __post_init__(self) -> None:
        if not self.grids:
            raise ValidationError("grids", "need at least one frequency grid")
        if self.n_runs < 1:
            raise ValidationError("runs", "must be >= 1")
        if self.k_max < 0:
            raise ValidationError("kmax", "must be >= 0")
        if self.spatial_points < 1:
            raise ValidationError("spatial_points", "must be >= 1")
        if self.spatial_mesh_m <= 0:
            raise ValidationError("spatial_mesh_m", "must be > 0")
        lo, hi = self.fit_window_ns
        if not lo < hi:
            raise ValidationError("fit_window_ns", "must be an increasing pair")


# -- Config documents ---------------------------------------------------------------

_KNOWN_FIELDS = {
    "room",
    "tx",
    "rx",
    "n_scatterers",
    "p_vis",
    "p_dir",
    "tail_slope_db_per_ns",
    "inter_scatterer_gain",
    "speed_of_light",
    "seed",
    "max_rejections",
    "grids",
    "runs",
    "kmax",
    "spatial_points",
    "spatial_mesh_m",
    "fit_window_ns",
    "mode",
    "out",
}


def _find_line(text: str, key: str) -> int:
    needle = f'"{key}"'
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    return 1


def _require_number(doc: dict, key: str):
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(key, f"expected a number, got {value!r}")
    return value


def _require_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(key, f"expected an integer, got {value!r}")
    return value


def _require_probability(doc: dict, key: str) -> float:
    value = float(_require_number(doc, key))
    if not 0.0 <= value <= 1.0:
        raise ValidationError(key, "not in [0,1]")
    return value


def _numbers(key: str, values) -> tuple[float, ...]:
    for c in values:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ValidationError(key, f"entry {c!r} is not a number")
    return tuple(float(c) for c in values)


def _parse_point(key: str, value) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValidationError(key, f"expected [x, y, z], got {value!r}")
    return _numbers(key, value)


def _parse_points(doc: dict, key: str) -> tuple[tuple[float, float, float], ...]:
    value = doc[key]
    if not isinstance(value, list) or not value:
        raise ValidationError(key, "expected a nonempty list of [x, y, z] points")
    return tuple(_parse_point(key, p) for p in value)


def _parse_room(doc: dict) -> Box:
    value = doc["room"]
    if not isinstance(value, list) or len(value) != 3:
        raise ValidationError("room", "expected three [low, high] pairs")
    bounds = []
    for pair in value:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError("room", f"expected [low, high], got {pair!r}")
        lo, hi = _numbers("room", pair)
        if not lo < hi:
            raise ValidationError("room", f"degenerate extent [{lo}, {hi}]")
        bounds.append((lo, hi))
    return Box(tuple(bounds))


def _parse_grid(entry) -> FrequencyGrid:
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise ValidationError("grids", f"expected [f_min, f_max, M], got {entry!r}")
    f_min, f_max, m = entry
    for v in (f_min, f_max):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError("grids", f"frequency {v!r} is not a number")
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValidationError("grids", f"sample count {m!r} is not an integer")
    try:
        return FrequencyGrid(float(f_min), float(f_max), m)
    except ValueError as exc:
        raise ValidationError("grids", str(exc)) from exc


def load_config(path) -> ExperimentSpec:
    """Parse and validate a JSON config file; missing fields take defaults."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, "", exc.msg) from exc
    if not isinstance(doc, dict):
        raise ParseError(1, "", "top-level value must be an object")
    for key in doc:
        if key not in _KNOWN_FIELDS:
            raise ParseError(_find_line(text, key), key, "unknown field")
    return _spec_from_document(doc)


def _spec_from_document(doc: dict) -> ExperimentSpec:
    defaults = ScenarioConfig()
    kwargs: dict = {}
    if "room" in doc:
        kwargs["region"] = _parse_room(doc)
    if "tx" in doc:
        kwargs["tx_positions"] = _parse_points(doc, "tx")
    if "rx" in doc:
        kwargs["rx_positions"] = _parse_points(doc, "rx")
    if "n_scatterers" in doc:
        n = _require_int(doc, "n_scatterers")
        if n < 0:
            raise ValidationError("n_scatterers", "must be >= 0")
        kwargs["n_scatterers"] = n
    if "p_vis" in doc:
        kwargs["p_visibility"] = _require_probability(doc, "p_vis")
    if "p_dir" in doc:
        kwargs["p_direct"] = _require_probability(doc, "p_dir")

    slope = doc.get("tail_slope_db_per_ns")
    gain = doc.get("inter_scatterer_gain")
    if slope is not None and gain is not None:
        raise ValidationError(
            "inter_scatterer_gain",
            "give either tail_slope_db_per_ns or inter_scatterer_gain, not both",
        )
    if "tail_slope_db_per_ns" in doc and slope is not None:
        if isinstance(slope, bool) or not isinstance(slope, (int, float)):
            raise ValidationError("tail_slope_db_per_ns", f"expected a number, got {slope!r}")
        if not slope < 0:
            raise ValidationError("tail_slope_db_per_ns", "must be negative")
        kwargs["tail_slope_db_per_ns"] = float(slope)
        kwargs["inter_scatterer_gain"] = None
    if gain is not None:
        if isinstance(gain, bool) or not isinstance(gain, (int, float)):
            raise ValidationError("inter_scatterer_gain", f"expected a number, got {gain!r}")
        if not 0.0 < gain < 1.0:
            raise ValidationError("inter_scatterer_gain", "not in (0,1)")
        kwargs["inter_scatterer_gain"] = float(gain)
        kwargs["tail_slope_db_per_ns"] = None
    if "tail_slope_db_per_ns" in doc and slope is None and gain is None:
        raise ValidationError(
            "tail_slope_db_per_ns",
            "cannot be null unless inter_scatterer_gain is given",
        )

    if "speed_of_light" in doc:
        c = float(_require_number(doc, "speed_of_light"))
        if c <= 0:
            raise ValidationError("speed_of_light", "must be > 0")
        kwargs["speed_of_light"] = c
    if "seed" in doc:
        kwargs["seed"] = _require_int(doc, "seed")
    if "max_rejections" in doc:
        limit = _require_int(doc, "max_rejections")
        if limit < 1:
            raise ValidationError("max_rejections", "must be >= 1")
        kwargs["max_rejections"] = limit

    try:
        scenario = replace(defaults, **kwargs)
    except ValueError as exc:
        raise ValidationError("scenario", str(exc)) from exc

    if "grids" in doc:
        raw = doc["grids"]
        if not isinstance(raw, list) or not raw:
            raise ValidationError("grids", "expected a nonempty list of [f_min, f_max, M]")
        grids = tuple(_parse_grid(entry) for entry in raw)
    else:
        grids = DEFAULT_GRIDS

    mode = Mode.RESPONSE
    if "mode" in doc:
        try:
            mode = Mode(doc["mode"])
        except ValueError:
            names = ", ".join(m.value for m in Mode)
            raise ValidationError("mode", f"expected one of: {names}") from None

    out_dir = None
    if "out" in doc and doc["out"] is not None:
        if not isinstance(doc["out"], str):
            raise ValidationError("out", f"expected a path string, got {doc['out']!r}")
        out_dir = Path(doc["out"])

    n_runs = _require_int(doc, "runs") if "runs" in doc else DEFAULT_RUNS
    k_max = _require_int(doc, "kmax") if "kmax" in doc else DEFAULT_KMAX
    points = _require_int(doc, "spatial_points") if "spatial_points" in doc else DEFAULT_SPATIAL_POINTS
    mesh = float(_require_number(doc, "spatial_mesh_m")) if "spatial_mesh_m" in doc else DEFAULT_SPATIAL_MESH_M
    if "fit_window_ns" in doc:
        pair = doc["fit_window_ns"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError("fit_window_ns", f"expected [start, stop], got {pair!r}")
        fit_window = _numbers("fit_window_ns", pair)
    else:
        fit_window = DEFAULT_FIT_WINDOW_NS

    return ExperimentSpec(
        scenario=scenario,
        grids=grids,
        mode=mode,
        out_dir=out_dir,
        n_runs=n_runs,
        k_max=k_max,
        spatial_points=points,
        spatial_mesh_m=mesh,
        fit_window_ns=fit_window,
    )


def default_spec() -> ExperimentSpec:
    """The spec an empty config file produces."""
    return _spec_from_document({})


def spec_to_document(spec: ExperimentSpec) -> dict:
    """Full JSON document for a spec; load_config inverts it exactly."""
    s = spec.scenario
    return {
        "room": [list(pair) for pair in s.region.bounds],
        "tx": [list(p) for p in s.tx_positions],
        "rx": [list(p) for p in s.rx_positions],
        "n_scatterers": s.n_scatterers,
        "p_vis": s.p_visibility,
        "p_dir": s.p_direct,
        "tail_slope_db_per_ns": s.tail_slope_db_per_ns,
        "inter_scatterer_gain": s.inter_scatterer_gain,
        "speed_of_light": s.speed_of_light,
        "seed": s.seed,
        "max_rejections": s.max_rejections,
        "grids": [[g.f_min_hz, g.f_max_hz, g.n_samples] for g in spec.grids],
        "runs": spec.n_runs,
        "kmax": spec.k_max,
        "spatial_points": spec.spatial_points,
        "spatial_mesh_m": spec.spatial_mesh_m,
        "fit_window_ns": list(spec.fit_window_ns),
        "mode": spec.mode.value,
        "out": None if spec.out_dir is None else str(spec.out_dir),
    }


def dump_config(spec: ExperimentSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_document(spec), indent=2) + "\n")


# -- Experiment execution ---------------------------------------------------------------


def _grid_tag(grid: FrequencyGrid) -> str:
    return f"{grid.f_min_hz / 1e9:g}to{grid.f_max_hz / 1e9:g}GHz_M{grid.n_samples}"


def _range_tag(bounce_range: BounceRange) -> str:
    last = "inf" if bounce_range.unbounded else str(int(bounce_range.last))
    return f"{bounce_range.first}to{last}"


def _worker_count(n_runs: int) -> int | None:
    limit = os.cpu_count() or 1
    env = os.environ.get("REVGRAPH_THREADS")
    if env is not None:
        try:
            limit = min(limit, max(1, int(env)))
        except ValueError:
            raise ValidationError("REVGRAPH_THREADS", f"not an integer: {env!r}") from None
    workers = min(limit, n_runs)
    return workers if workers > 1 else None


def _require_out_dir(spec: ExperimentSpec) -> Path:
    if spec.out_dir is None:
        raise ValidationError("out", "output directory required for this mode")
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    return spec.out_dir


def _sidecar(spec: ExperimentSpec, grid: FrequencyGrid, seeds, extra: dict) -> dict:
    return dict(
        grid=grid,
        window_label=WINDOW_LABEL,
        seeds=seeds,
        config_doc=spec_to_document(spec),
        extra=extra,
    )


def _run_response(spec: ExperimentSpec) -> int:
    out = _require_out_dir(spec)
    plots = []
    for grid in spec.grids:
        realization = generate_realization(spec.scenario, grid)
        samples = sample_transfer(realization.graph, grid)
        window = hann_window(grid)
        pulse = impulse_response(samples, window)
        tag = _grid_tag(grid)
        write_response_csv(out / f"response_{tag}.csv", samples)
        write_impulse_csv(out / f"impulse_{tag}.csv", pulse)
        write_sidecar(
            out / f"response_{tag}.meta.json",
            **_sidecar(spec, grid, [spec.scenario.seed], {
                "mode": Mode.RESPONSE.value,
                "attempts": realization.attempts,
            }),
        )
        plots.append(
            f"response_{tag}.csv: x = freq_hz / 1e9 (GHz), "
            "y = 20*log10(hypot(h_rx0_tx0_re, h_rx0_tx0_im)) (dB)"
        )
        plots.append(
            f"impulse_{tag}.csv: x = delay_s * 1e9 (ns), "
            "y = 20*log10(hypot(h_re, h_im)) (dB)"
        )
    (out / "plots.txt").write_text("\n".join(plots) + "\n")
    return 0


def _dissection_ranges(k_max: int) -> list[BounceRange]:
    ranges = [
        BounceRange(first, last)
        for first in range(k_max + 1)
        for last in range(first, k_max + 1)
    ]
    ranges += [BounceRange.tail(first) for first in range(k_max + 1)]
    return ranges


def _run_dissect(spec: ExperimentSpec) -> int:
    out = _require_out_dir(spec)
    grid = spec.grids[0]
    realization = generate_realization(spec.scenario, grid)
    ranges = _dissection_ranges(spec.k_max)
    slices = sample_transfer_slices(realization.graph, grid, ranges)
    window = hann_window(grid)
    plots = []
    for piece in slices:
        pulse = impulse_response(piece, window)
        name = f"dissect_{_range_tag(piece.bounce_range)}.csv"
        write_impulse_csv(out / name, pulse)
        plots.append(
            f"{name}: x = delay_s * 1e9 (ns), y = 20*log10(hypot(h_re, h_im)) (dB), "
            f"bounce orders {piece.bounce_range.label}"
        )
    write_sidecar(
        out / "dissect.meta.json",
        **_sidecar(spec, grid, [spec.scenario.seed], {
            "mode": Mode.DISSECT.value,
            "k_max": spec.k_max,
            "ranges": [r.label for r in ranges],
            "attempts": realization.attempts,
        }),
    )
    (out / "plots.txt").write_text("\n".join(plots) + "\n")
    return 0


def _fit_window_s(spec: ExperimentSpec) -> tuple[float, float]:
    return spec.fit_window_ns[0] * 1e-9, spec.fit_window_ns[1] * 1e-9


def _slope_report_line(tag: str, spectrum: DelayPowerSpectrum, spec: ExperimentSpec) -> str:
    lo, hi = spec.fit_window_ns
    try:
        fit = fit_tail_slope(spectrum, _fit_window_s(spec))
    except (InsufficientBins, NonpositivePower) as exc:
        return f"{tag}: tail fit failed over [{lo:g}, {hi:g}] ns: {exc}"
    return (
        f"{tag}: slope {fit.slope_db_per_ns:+.4f} dB/ns, "
        f"intercept {fit.intercept_db:+.2f} dB, "
        f"residual rms {fit.residual_rms_db:.3f} dB, "
        f"{fit.n_bins} bins over [{lo:g}, {hi:g}] ns"
    )


def _run_ensemble(spec: ExperimentSpec) -> int:
    out = _require_out_dir(spec)
    workers = _worker_count(spec.n_runs)
    seeds = [spec.scenario.seed + i for i in range(spec.n_runs)]
    report = []
    plots = []
    for grid in spec.grids:
        window = hann_window(grid)
        spectrum = ensemble_spectrum(
            spec.scenario, grid, spec.n_runs, window, workers=workers
        )
        tag = _grid_tag(grid)
        name = f"spectrum_ensemble_{tag}.csv"
        write_spectrum_csv(out / name, spectrum)
        write_sidecar(
            out / f"spectrum_ensemble_{tag}.meta.json",
            **_sidecar(spec, grid, seeds, {
                "mode": Mode.ENSEMBLE.value,
                "n_runs": spec.n_runs,
            }),
        )
        report.append(_slope_report_line(tag, spectrum, spec))
        plots.append(f"{name}: x = delay_s * 1e9 (ns), y = power_db (dB)")
    (out / "tail_slopes.txt").write_text("\n".join(report) + "\n")
    (out / "plots.txt").write_text("\n".join(plots) + "\n")
    for line in report:
        print(line)
    return 0


def _spatial_positions(spec: ExperimentSpec) -> list[tuple[float, float, float]]:
    cx, cy, cz = spec.scenario.rx_positions[0]
    n = spec.spatial_points
    offsets = (np.arange(n) - (n - 1) / 2.0) * spec.spatial_mesh_m
    positions = [(cx + dx, cy + dy, cz) for dy in offsets for dx in offsets]
    for p in positions:
        if not spec.scenario.region.contains(p):
            raise ValidationError(
                "spatial_mesh_m", f"receiver mesh position {p} leaves the room"
            )
    return positions


def _run_spatial(spec: ExperimentSpec) -> int:
    out = _require_out_dir(spec)
    positions = _spatial_positions(spec)
    report = []
    plots = []
    for grid in spec.grids:
        realization = generate_realization(spec.scenario, grid)
        window = hann_window(grid)
        spectrum = spatial_spectrum(realization, positions, grid, window)
        tag = _grid_tag(grid)
        name = f"spectrum_spatial_{tag}.csv"
        write_spectrum_csv(out / name, spectrum)
        write_sidecar(
            out / f"spectrum_spatial_{tag}.meta.json",
            **_sidecar(spec, grid, [spec.scenario.seed], {
                "mode": Mode.SPATIAL.value,
                "n_positions": len(positions),
                "mesh_m": spec.spatial_mesh_m,
                "attempts": realization.attempts,
            }),
        )
        report.append(_slope_report_line(tag, spectrum, spec))
        plots.append(f"{name}: x = delay_s * 1e9 (ns), y = power_db (dB)")
    (out / "tail_slopes.txt").write_text("\n".join(report) + "\n")
    (out / "plots.txt").write_text("\n".join(plots) + "\n")
    for line in report:
        print(line)
    return 0


# -- Validation mode -------------------------------------------------------------------


def _expect(condition, message: str) -> None:
    """Fail a validation check; unlike ``assert``, this survives ``python -O``."""
    if not condition:
        raise AssertionError(message)


# Kept apart from the engine's own table so that a misplaced block shows.
_BLOCK_CLASSES = (
    ("direct", EdgeClass.DIRECT),
    ("feed", EdgeClass.TX_SCATTER),
    ("loop", EdgeClass.INTER_SCATTER),
    ("collect", EdgeClass.SCATTER_RX),
)


def _validation_checks(spec: ExperimentSpec):
    """Yield (name, callable) pairs; each callable raises on failure."""
    scenario = spec.scenario
    probe_grid = FrequencyGrid(
        spec.grids[0].f_min_hz,
        spec.grids[0].f_max_hz,
        min(spec.grids[0].n_samples, 257),
    )
    state: dict = {}

    def generation():
        state["realization"] = generate_realization(scenario, probe_grid)

    def gain_laws():
        realization = state["realization"]
        graph = realization.graph
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            for edge in graph.edges:
                baked = float(edge.gain.amplitude(f, edge.delay_s))
                law = edge_gain(edge, f, graph, realization.resolved_g)
                _expect(math.isclose(baked, law, rel_tol=1e-12),
                        f"{edge.src}->{edge.dst} carries {baked!r}, its law gives {law!r} at {f:g} Hz")

    def block_placement():
        graph = state["realization"].graph
        freqs = np.array([probe_grid.f_min_hz, probe_grid.f_max_hz])
        samples = block_samples(graph, freqs)
        for name, edge_class in _BLOCK_CLASSES:
            block = getattr(samples, name)
            covered = np.zeros(block.shape[1:], dtype=bool)
            for edge in graph.edges_in_class(edge_class):
                covered[edge.dst.index, edge.src.index] = True
                placed = block[:, edge.dst.index, edge.src.index]
                _expect(np.allclose(placed, edge.transfer_value(freqs), rtol=1e-12, atol=0.0),
                        f"{edge.src}->{edge.dst} is not at [dst, src] of the {name} block")
            _expect(not block[:, ~covered].any(), f"the {name} block has entries no edge accounts for")

    def contraction():
        graph = state["realization"].graph
        for grid in spec.grids:
            freqs = grid.frequencies()
            verify_contraction(block_samples(graph, freqs).loop, freqs)

    def resolvent_split():
        graph = state["realization"].graph
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            whole = transfer_matrix(graph, f).matrix
            scale = max(np.abs(whole).max(), 1e-30)
            for k in (0, 3):
                head = partial_transfer_matrix(graph, f, BounceRange(0, k)).matrix
                tail = partial_transfer_matrix(graph, f, BounceRange.tail(k + 1)).matrix
                gap = np.abs(head + tail - whole).max()
                _expect(gap <= 1e-11 * scale, f"resolvent split off by {gap:g} at K={k}")

    def walk_oracle():
        graph = state["realization"].graph
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            closed = partial_transfer_matrix(graph, f, BounceRange(0, 4)).matrix
            brute = walk_sum(graph, f, 0, 4)
            scale = max(np.abs(brute).max(), 1e-30)
            _expect(np.abs(closed - brute).max() <= 1e-9 * scale, "walk-sum mismatch")

    def reciprocity():
        graph = state["realization"].graph
        mirrored = reverse_graph(graph)
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            forward = transfer_matrix(graph, f).matrix
            backward = transfer_matrix(mirrored, f).matrix
            _expect(np.abs(backward - forward.T).max() <= 1e-12, "reciprocity violated")

    def window_power():
        for grid in spec.grids:
            window = hann_window(grid)
            power = np.sum(np.abs(window.samples) ** 2) * grid.delta_f
            _expect(abs(power - 1.0) <= 1e-12, f"window power {power!r}")

    def additivity():
        graph = state["realization"].graph
        window = hann_window(probe_grid)
        full = impulse_response(sample_transfer(graph, probe_grid), window)
        ranges = [BounceRange.exactly(k) for k in range(0, 7)] + [BounceRange.tail(7)]
        total = np.zeros(probe_grid.n_samples, dtype=complex)
        for piece in sample_transfer_slices(graph, probe_grid, ranges):
            total = total + impulse_response(piece, window).samples
        scale = max(np.abs(full.samples).max(), 1e-30)
        _expect(np.abs(total - full.samples).max() <= 1e-9 * scale, "bounce slices do not add up")

    return [
        ("realization generated within the rejection budget", generation),
        ("every edge carries the gain its class law gives", gain_laws),
        ("every edge sits at [dst, src] of its class block, and nothing else", block_placement),
        ("scatterer loop contracts on every configured grid", contraction),
        ("head plus tail reproduces the full transfer matrix", resolvent_split),
        ("closed form matches the walk enumeration to 4 bounces", walk_oracle),
        ("reversing the graph transposes the transfer matrix", reciprocity),
        ("windows carry unit power on every configured grid", window_power),
        ("bounce-order slices add up to the full impulse response", additivity),
    ]


def _run_validate(spec: ExperimentSpec) -> int:
    lines = []
    failures = 0
    for name, check in _validation_checks(spec):
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            lines.append(f"FAIL {name}: {exc}")
        else:
            lines.append(f"ok   {name}")
    total = len(lines)
    lines.append(f"{total - failures}/{total} checks passed")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if spec.out_dir is not None:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        (spec.out_dir / "validate_report.txt").write_text(text)
    return 1 if failures else 0


_RUNNERS = {
    Mode.RESPONSE: _run_response,
    Mode.DISSECT: _run_dissect,
    Mode.ENSEMBLE: _run_ensemble,
    Mode.SPATIAL: _run_spatial,
    Mode.VALIDATE: _run_validate,
}


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment; returns the process exit status."""
    return _RUNNERS[spec.mode](spec)


# -- Argument handling ---------------------------------------------------------------


def _parse_grid_flag(value: str) -> FrequencyGrid:
    parts = value.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected fmin,fmax,M, got {value!r}")
    try:
        return FrequencyGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revgraph",
        description="Reverberant radio channels simulated on propagation graphs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in Mode:
        p = sub.add_parser(mode.value, help=f"{mode.value} experiment")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--runs", type=int, default=None, help="override the ensemble run count")
        p.add_argument(
            "--grid",
            type=_parse_grid_flag,
            action="append",
            default=None,
            metavar="FMIN,FMAX,M",
            help="override the frequency grids (repeatable)",
        )
        p.add_argument("--kmax", type=int, default=None, help="override the dissection depth")
    return parser


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    changes: dict = {"mode": Mode(args.mode)}
    if args.out is not None:
        changes["out_dir"] = args.out
    if args.seed is not None:
        changes["scenario"] = replace(spec.scenario, seed=args.seed)
    if args.runs is not None:
        changes["n_runs"] = args.runs
    if args.grid:
        changes["grids"] = tuple(args.grid)
    if args.kmax is not None:
        changes["k_max"] = args.kmax
    return replace(spec, **changes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_config(args.config) if args.config is not None else default_spec()
        spec = _apply_overrides(spec, args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return run(spec)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        notes = "\n".join(getattr(exc, "__notes__", []) or [])
        message = f"error: {exc}" + (f"\n{notes}" if notes else "")
        print(message, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
