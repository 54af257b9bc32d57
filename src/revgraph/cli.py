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
reference-office defaults.  Unknown keys are rejected.  The file-producing
modes simulate first, then write through one routine, ``_write_run``: JSON
sidecars with the grid, window, seeds, and the config and its digest; plain
CSV files, whose writer and ``plots.txt`` axes follow from their data's type;
each float is the shortest text that reads back to it, as ``repr`` prints it,
so reruns are byte-identical.  Every file is written by the invoking
process.  The ``REVGRAPH_THREADS`` environment variable caps the worker
processes of the ensemble runs, the only mode that starts any; output is
byte-identical at any worker count.  ``ensemble`` starts one pool per
invocation, with one task per seed that samples every grid.  A seed's room is
drawn once for all grids unless its draw depended on the band (see
:func:`revgraph.synthesis.ensemble_spectra`); ``response`` and ``spatial``
follow the same rule.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._fields import (
    _INTEGER, _NUMBER, _PAIR, ValidationError, _array, _array_schema, _check_fields, _Field,
    _instance_of, _Kind,
)
from .graph import EdgeClass, block_samples, reverse_graph, walk_sum
from .scenario import (
    _SCENARIO_FIELDS, ScenarioConfig, _realizations, edge_gain, generate_realization,
)
from .synthesis import (
    DelayPowerSpectrum,
    FrequencyGrid,
    ImpulseResponse,
    InsufficientBins,
    NonpositivePower,
    ResponseSamples,
    ensemble_spectra,
    fit_tail_slope,
    hann_window,
    impulse_response,
    sample_transfer,
    sample_transfer_slices,
    spatial_spectrum,
    write_csv_files,
    write_sidecar,
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
    "config_schema",
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


class Mode(Enum):
    RESPONSE = "response"
    DISSECT = "dissect"
    ENSEMBLE = "ensemble"
    SPATIAL = "spatial"
    VALIDATE = "validate"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one invocation needs; the defaults are what an empty config file gives."""

    scenario: ScenarioConfig = ScenarioConfig()
    grids: tuple[FrequencyGrid, ...] = DEFAULT_GRIDS
    mode: Mode = Mode.RESPONSE
    out_dir: Path | None = None
    n_runs: int = DEFAULT_RUNS
    k_max: int = DEFAULT_KMAX
    spatial_points: int = DEFAULT_SPATIAL_POINTS
    spatial_mesh_m: float = DEFAULT_SPATIAL_MESH_M
    fit_window_ns: tuple[float, float] = DEFAULT_FIT_WINDOW_NS

    def __post_init__(self) -> None:
        # The scenario's fields sit at the top level of a config document, so it has no table entry.
        try:
            _instance_of(ScenarioConfig)(self.scenario)
        except ValueError as exc:
            raise ValidationError("scenario", str(exc)) from exc
        _check_fields(self, _SPEC_FIELDS)


# -- Config documents ---------------------------------------------------------------
#
# The field tables (_SCENARIO_FIELDS in scenario.py, _SPEC_FIELDS here) drive
# load_config, the command-line flags, spec_to_document, the checks of ScenarioConfig
# and ExperimentSpec, and config_schema().


def _grids(value) -> tuple[FrequencyGrid, ...]:
    return tuple(
        FrequencyGrid(*_array(entry, "[f_min, f_max, M]", 3))
        for entry in _array(value, "a list of [f_min, f_max, M]")
    )


def _mode(value) -> Mode:
    names = [m.value for m in Mode]
    if value not in names:
        raise ValueError(f"expected one of: {', '.join(names)}")
    return Mode(value)


def _path(value) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"expected a path string, got {value!r}")
    return Path(value)


_GRIDS = _Kind(
    _array_schema(_array_schema(
        [{"type": "number", "exclusiveMinimum": 0}] * 2 + [{"type": "integer", "minimum": 2}], 3
    )),
    lambda grids: tuple(map(_instance_of(FrequencyGrid), _array(grids, "at least one frequency grid"))),
    parse=_grids,
    dump=lambda grids: [[g.f_min_hz, g.f_max_hz, g.n_samples] for g in grids],
)
_MODE = _Kind({"type": "string", "enum": [m.value for m in Mode]}, _instance_of(Mode), parse=_mode,
              dump=lambda m: m.value)
_PATH = _Kind({"type": "string"}, _instance_of(Path), parse=_path, dump=str)

# In spec_to_document key order, after the ScenarioConfig fields.
_SPEC_FIELDS = (
    _Field("grids", _GRIDS, "grids",
           "Frequency grids as [f_min_hz, f_max_hz, n_samples] triples, band edges inclusive."),
    _Field("runs", _INTEGER, "n_runs", "Ensemble size for the ensemble mode.", {"minimum": 1}),
    _Field("kmax", _INTEGER, "k_max",
           "Largest bounce order dissected by the dissect mode.", {"minimum": 0}),
    _Field("spatial_points", _INTEGER, "spatial_points",
           "Receiver mesh points per side for the spatial mode (the mesh has "
           "spatial_points^2 positions).", {"minimum": 1}),
    _Field("spatial_mesh_m", _NUMBER, "spatial_mesh_m",
           "Receiver mesh spacing in meters.", {"exclusiveMinimum": 0}),
    _Field("fit_window_ns", _PAIR, "fit_window_ns",
           "Increasing delay window [start, stop] in nanoseconds for tail-slope fits."),
    _Field("mode", _MODE, "mode",
           "Experiment to run; the command-line subcommand replaces it."),
    _Field("out", _PATH, "out_dir",
           "Output directory; required by the file-producing modes.", nullable=True),
)
_FIELDS = _SCENARIO_FIELDS + _SPEC_FIELDS
_KNOWN_FIELDS = frozenset(f.name for f in _FIELDS)


def _find_line(text: str, key: str) -> int:
    needle = f'"{key}"'
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    return 1


def _parse_document(text: str) -> dict:
    """The JSON object in a config file's text; every key must be a known field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, "", exc.msg) from exc
    if not isinstance(doc, dict):
        raise ParseError(1, "", "top-level value must be an object")
    for key in doc:
        if key not in _KNOWN_FIELDS:
            raise ParseError(_find_line(text, key), key, "unknown field")
    return doc


def load_config(path) -> ExperimentSpec:
    """Parse and validate a JSON config file; missing fields take defaults."""
    return _spec_from_document(_parse_document(Path(path).read_text()))


def _parse_fields(fields, doc: dict) -> dict:
    return {f.attr: f.parse(doc[f.name]) for f in fields if f.name in doc}


def _spec_from_document(doc: dict) -> ExperimentSpec:
    scenario = _parse_fields(_SCENARIO_FIELDS, doc)
    if scenario.get("inter_scatterer_gain") is not None:
        scenario.setdefault("tail_slope_db_per_ns", None)  # a given gain replaces the default slope
    return ExperimentSpec(ScenarioConfig(**scenario), **_parse_fields(_SPEC_FIELDS, doc))


def default_spec() -> ExperimentSpec:
    """The spec an empty config file produces."""
    return ExperimentSpec()


def spec_to_document(spec: ExperimentSpec) -> dict:
    """Full JSON document for a spec; load_config inverts it exactly."""
    doc = {f.name: f.dump(getattr(spec.scenario, f.attr)) for f in _SCENARIO_FIELDS}
    doc.update((f.name, f.dump(getattr(spec, f.attr))) for f in _SPEC_FIELDS)
    return doc


def dump_config(spec: ExperimentSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_document(spec), indent=2) + "\n")


def config_schema() -> dict:
    """JSON schema of a config document; docs/config.schema.json holds its dump."""
    defaults = spec_to_document(ExperimentSpec())
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "$id": "https://example.invalid/revgraph/config.schema.json",
        "title": "revgraph experiment configuration",
        "description": (
            "Every field is optional; omitted fields take the documented defaults (an "
            "empty object {} is the reference office scenario). Give exactly one of "
            "tail_slope_db_per_ns and inter_scatterer_gain: a non-null slope requires a "
            "null/omitted gain and vice versa."
        ),
        "type": "object",
        "additionalProperties": False,
        "properties": {f.name: f.schema(defaults[f.name]) for f in _FIELDS},
    }


# -- Experiment execution ---------------------------------------------------------------


def _grid_tag(grid: FrequencyGrid) -> str:
    return f"{grid.f_min_hz / 1e9:g}to{grid.f_max_hz / 1e9:g}GHz_M{grid.n_samples}"


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


# What plots.txt says to draw from a CSV file, by the type of the data written to it.
_PLOT_AXES = {
    ResponseSamples: "x = freq_hz / 1e9 (GHz), y = 20*log10(hypot(h_rx0_tx0_re, h_rx0_tx0_im)) (dB)",
    ImpulseResponse: "x = delay_s * 1e9 (ns), y = 20*log10(hypot(h_re, h_im)) (dB)",
    DelayPowerSpectrum: "x = delay_s * 1e9 (ns), y = power_db (dB)",
}


def _write_run(spec: ExperimentSpec, out: Path, sidecars, files) -> None:
    """Write a run's sidecars, its CSV files and the plots.txt that describes them.

    ``sidecars`` holds (file name, grid, seeds, entries after ``mode``) and ``files``
    holds (file name, data).
    """
    config_doc = spec_to_document(spec)
    for name, grid, seeds, extra in sidecars:
        write_sidecar(out / name, grid=grid, window_label=WINDOW_LABEL, seeds=seeds,
                      config_doc=config_doc, extra={"mode": spec.mode.value, **extra})
    write_csv_files([(out / name, data) for name, data in files])
    plots = []
    for name, data in files:
        line = f"{name}: {_PLOT_AXES[type(data)]}"
        if spec.mode is Mode.DISSECT:
            line += f", bounce orders {data.bounce_range.label}"
        plots.append(line)
    (out / "plots.txt").write_text("\n".join(plots) + "\n")


def _run_response(spec: ExperimentSpec) -> int:
    out = _require_out_dir(spec)
    sidecars = []
    files = []
    realizations = _realizations(generate_realization, spec.scenario, spec.grids)
    for grid, realization in zip(spec.grids, realizations):
        samples = sample_transfer(realization.graph, grid)
        tag = _grid_tag(grid)
        files += [(f"response_{tag}.csv", samples),
                  (f"impulse_{tag}.csv", impulse_response(samples, hann_window(grid)))]
        sidecars.append((f"response_{tag}.meta.json", grid, [spec.scenario.seed],
                         {"attempts": realization.attempts}))
    _write_run(spec, out, sidecars, files)
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
    ranges = _dissection_ranges(spec.k_max)
    realization = generate_realization(spec.scenario, grid)
    slices = sample_transfer_slices(realization.graph, grid, ranges)
    window = hann_window(grid)
    files = [
        (f"dissect_{piece.bounce_range.label.replace(':', 'to')}.csv", impulse_response(piece, window))
        for piece in slices
    ]
    sidecar = ("dissect.meta.json", grid, [spec.scenario.seed], {
        "k_max": spec.k_max,
        "ranges": [r.label for r in ranges],
        "attempts": realization.attempts,
    })
    _write_run(spec, out, [sidecar], files)
    return 0


def _slope_report_line(tag: str, spectrum: DelayPowerSpectrum, spec: ExperimentSpec) -> str:
    lo, hi = spec.fit_window_ns
    try:
        fit = fit_tail_slope(spectrum, (lo * 1e-9, hi * 1e-9))
    except (InsufficientBins, NonpositivePower) as exc:
        return f"{tag}: tail fit failed over [{lo:g}, {hi:g}] ns: {exc}"
    return (
        f"{tag}: slope {fit.slope_db_per_ns:+.4f} dB/ns, "
        f"intercept {fit.intercept_db:+.2f} dB, "
        f"residual rms {fit.residual_rms_db:.3f} dB, "
        f"{fit.n_bins} bins over [{lo:g}, {hi:g}] ns"
    )


def _run_spectra(spec: ExperimentSpec, out: Path, results) -> int:
    """Write a spectrum per grid and the run's files, and report a tail fit per grid.

    ``results`` holds, for each grid of ``spec.grids`` in order, the spectrum,
    its seeds and the sidecar entries after ``mode``.
    """
    sidecars = []
    files = []
    report = []
    for grid, (spectrum, seeds, extra) in zip(spec.grids, results):
        tag = _grid_tag(grid)
        stem = f"spectrum_{spec.mode.value}_{tag}"
        sidecars.append((f"{stem}.meta.json", grid, seeds, extra))
        files.append((f"{stem}.csv", spectrum))
        report.append(_slope_report_line(tag, spectrum, spec))
    _write_run(spec, out, sidecars, files)
    (out / "tail_slopes.txt").write_text("\n".join(report) + "\n")
    for line in report:
        print(line)
    return 0


def _run_ensemble(spec: ExperimentSpec) -> int:
    out = _require_out_dir(spec)
    workers = _worker_count(spec.n_runs)
    seeds = [spec.scenario.seed + i for i in range(spec.n_runs)]
    windows = [hann_window(grid) for grid in spec.grids]
    spectra = ensemble_spectra(spec.scenario, spec.grids, spec.n_runs, windows, workers=workers)
    return _run_spectra(spec, out, [(spectrum, seeds, {"n_runs": spec.n_runs})
                                    for (spectrum,) in spectra])


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
    realizations = _realizations(generate_realization, spec.scenario, spec.grids)
    results = (
        (spatial_spectrum(realization, positions, grid, hann_window(grid)), [spec.scenario.seed], {
            "n_positions": len(positions),
            "mesh_m": spec.spatial_mesh_m,
            "attempts": realization.attempts,
        })
        for grid, realization in zip(spec.grids, realizations)
    )
    return _run_spectra(spec, out, results)


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


_GENERATION = "realization generated within the rejection budget"


def _validation_checks(spec: ExperimentSpec, probe_grid: FrequencyGrid, realization):
    """(name, callable) pairs of the checks after generation, in report order.

    Each callable raises on failure.  Without a ``realization`` (generation
    failed) the callable of every check that needs one is None.
    """
    graph = None if realization is None else realization.graph

    def gain_laws():
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            for edge in graph.edges:
                baked = float(edge.gain.amplitude(f, edge.delay_s))
                law = edge_gain(edge, f, graph, realization.resolved_g)
                _expect(math.isclose(baked, law, rel_tol=1e-12),
                        f"{edge.src}->{edge.dst} carries {baked!r}, its law gives {law!r} at {f:g} Hz")

    def block_placement():
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
        for grid in spec.grids:
            verify_contraction(block_samples(graph, grid).loop, grid)

    def resolvent_split():
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            whole = transfer_matrix(graph, f).matrix
            scale = max(np.abs(whole).max(), 1e-30)
            for k in (0, 3):
                head = partial_transfer_matrix(graph, f, BounceRange(0, k)).matrix
                tail = partial_transfer_matrix(graph, f, BounceRange.tail(k + 1)).matrix
                gap = np.abs(head + tail - whole).max()
                _expect(gap <= 1e-11 * scale, f"resolvent split off by {gap:g} at K={k}")

    def walk_oracle():
        for f in (probe_grid.f_min_hz, probe_grid.f_max_hz):
            closed = partial_transfer_matrix(graph, f, BounceRange(0, 4)).matrix
            brute = walk_sum(graph, f, 0, 4)
            scale = max(np.abs(brute).max(), 1e-30)
            _expect(np.abs(closed - brute).max() <= 1e-9 * scale, "walk-sum mismatch")

    def reciprocity():
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
        window = hann_window(probe_grid)
        full = impulse_response(sample_transfer(graph, probe_grid), window)
        ranges = [BounceRange.exactly(k) for k in range(0, 7)] + [BounceRange.tail(7)]
        total = np.zeros(probe_grid.n_samples, dtype=complex)
        for piece in sample_transfer_slices(graph, probe_grid, ranges):
            total = total + impulse_response(piece, window).samples
        scale = max(np.abs(full.samples).max(), 1e-30)
        _expect(np.abs(total - full.samples).max() <= 1e-9 * scale, "bounce slices do not add up")

    checks = [
        ("every edge carries the gain its class law gives", gain_laws),
        ("every edge sits at [dst, src] of its class block, and nothing else", block_placement),
        ("scatterer loop contracts on every configured grid", contraction),
        ("head plus tail reproduces the full transfer matrix", resolvent_split),
        ("closed form matches the walk enumeration to 4 bounces", walk_oracle),
        ("reversing the graph transposes the transfer matrix", reciprocity),
        ("windows carry unit power on every configured grid", window_power),
        ("bounce-order slices add up to the full impulse response", additivity),
    ]
    if realization is None:
        return [(name, check if check is window_power else None) for name, check in checks]
    return checks


def _run_validate(spec: ExperimentSpec) -> int:
    grid = spec.grids[0]
    probe_grid = FrequencyGrid(grid.f_min_hz, grid.f_max_hz, min(grid.n_samples, 257))
    try:
        realization = generate_realization(spec.scenario, probe_grid)
    except Exception as exc:  # report it once; the checks that need it are skipped
        realization = None
        lines = [f"FAIL {_GENERATION}: {exc}"]
    else:
        lines = [f"ok   {_GENERATION}"]
    for name, check in _validation_checks(spec, probe_grid, realization):
        if check is None:
            lines.append(f"skip {name}: no realization")
            continue
        try:
            check()
        except Exception as exc:  # report and keep going
            lines.append(f"FAIL {name}: {exc}")
        else:
            lines.append(f"ok   {name}")
    passed = sum(line.startswith("ok ") for line in lines)
    lines.append(f"{passed}/{len(lines)} checks passed")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if spec.out_dir is not None:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        (spec.out_dir / "validate_report.txt").write_text(text)
    return 0 if passed == len(lines) - 1 else 1


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


def _flag_value(text: str):
    """The number a flag value spells, else the text, for the field table to judge."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def _grid_flag(text: str) -> list:
    return [_flag_value(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revgraph",
        description="Reverberant radio channels simulated on propagation graphs.",
    )
    # Every dest except config is a config field; main merges them into the document.
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in Mode:
        p = sub.add_parser(mode.value, help=f"{mode.value} experiment")
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=_flag_value, help="override the scenario seed")
        p.add_argument("--runs", type=_flag_value, help="override the ensemble run count")
        p.add_argument(
            "--grid",
            dest="grids",
            type=_grid_flag,
            action="append",
            metavar="FMIN,FMAX,M",
            help="override the frequency grids (repeatable)",
        )
        p.add_argument("--kmax", type=_flag_value, help="override the dissection depth")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in _KNOWN_FIELDS and v is not None}
    try:
        text = None if args.config is None else args.config.read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        doc = {} if text is None else _parse_document(text)
        _spec_from_document(doc)  # the file must be valid before flags replace its values
        return run(_spec_from_document({**doc, **flags}))
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
