"""Frequency sampling, impulse-response synthesis, and delay-power spectra.

Transfer matrices are sampled on a uniform frequency grid, shaped by a
unit-power window, and carried to the delay domain with the inverse DFT

    y(i * dtau) = df * sum_m H[m] X[m] exp(j 2 pi i m / M),   i = 0..M-1,

where df = (f_max - f_min)/(M - 1) and dtau = 1/(f_max - f_min).  Delay
bins run from 0 to (M-1)*dtau with no shift; anything later aliases and is
out of modeled range.  Ensemble and spatial averages of |y|^2 produce
delay-power spectra whose tail slope can be extracted by a least-squares
line fit in dB.

Averages are running sums taken in run order as results arrive, so results
do not depend on the worker count and memory does not grow with the runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from ._fields import _check_band, _integer, _named, _number
from .graph import PropagationGraph
from .scenario import (
    ScenarioConfig,
    ScenarioRealization,
    _realizations,
    generate_realization,
    relocate_receiver,
)
from .transfer import (
    BounceRange,
    SpectralRadiusExceededAt,
    TransferSample,
    _bounce_ranges,
    _SampledSystem,
)

__all__ = [
    "SpectralRadiusExceededAt",
    "LengthMismatch",
    "InsufficientBins",
    "NonpositivePower",
    "FrequencyGrid",
    "WindowSpectrum",
    "ResponseSamples",
    "ImpulseResponse",
    "SpectrumKind",
    "DelayPowerSpectrum",
    "TailSlopeFit",
    "hann_window",
    "sample_transfer",
    "sample_transfer_slices",
    "impulse_response",
    "ensemble_spectrum",
    "ensemble_spectra",
    "spatial_spectrum",
    "fit_tail_slope",
    "write_response_csv",
    "write_impulse_csv",
    "write_spectrum_csv",
    "write_csv_files",
    "write_sidecar",
]


class LengthMismatch(ValueError):
    """Sample array and window are defined on different grids."""


class InsufficientBins(ValueError):
    """Too few delay bins fall inside the requested fit window."""


class NonpositivePower(ValueError):
    """A dB-domain fit was asked for over bins with nonpositive power."""


# -- Grids and windows -----------------------------------------------------------


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of M samples spanning [f_min, f_max] inclusive."""

    f_min_hz: float
    f_max_hz: float
    n_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_min_hz", _number(self.f_min_hz))
        object.__setattr__(self, "f_max_hz", _number(self.f_max_hz))
        object.__setattr__(self, "n_samples", _integer(self.n_samples))
        _check_band(self.f_min_hz, self.f_max_hz)
        if self.n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_samples}")

    @property
    def delta_f(self) -> float:
        return (self.f_max_hz - self.f_min_hz) / (self.n_samples - 1)

    @property
    def delta_tau(self) -> float:
        return 1.0 / (self.f_max_hz - self.f_min_hz)

    def frequencies(self) -> np.ndarray:
        return self.f_min_hz + self.delta_f * np.arange(self.n_samples)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # np.asarray and np.size see the grid's M frequencies
        return self.frequencies().astype(dtype or float, copy=False)

    def delays(self) -> np.ndarray:
        return self.delta_tau * np.arange(self.n_samples)


@dataclass(frozen=True)
class WindowSpectrum:
    """Frequency-domain pulse spectrum with unit power: sum |X|^2 df = 1."""

    samples: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=complex)
        if x.shape != (self.grid.n_samples,):
            raise LengthMismatch(
                f"window has {x.shape} samples for a grid of {self.grid.n_samples}"
            )
        power = float(np.sum(np.abs(x) ** 2) * self.grid.delta_f)
        if abs(power - 1.0) > 1e-12:
            raise ValueError(f"window power is {power!r}, expected 1 within 1e-12")
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)


def hann_window(grid: FrequencyGrid) -> WindowSpectrum:
    """Raised-cosine window over samples 0..M-1, normalized to unit power.

    The raised cosine vanishes at both endpoints; for M = 2, where that
    would zero the whole window, a flat window is normalized instead.
    """
    m = grid.n_samples
    shape = 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(m) / (m - 1)))
    if not np.any(shape):
        shape = np.ones(m)
    power = float(np.sum(shape * shape) * grid.delta_f)
    return WindowSpectrum(shape / math.sqrt(power), grid)


# -- Transfer-function sampling ----------------------------------------------------


@dataclass(frozen=True)
class ResponseSamples:
    """Transfer matrices sampled on a frequency grid.

    Stored as a dense tensor indexed [sample, receiver, transmitter];
    iteration and indexing present the per-frequency view.
    """

    grid: FrequencyGrid
    bounce_range: BounceRange
    tensor: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.tensor, dtype=complex)
        if t.ndim != 3 or t.shape[0] != self.grid.n_samples:
            raise ValueError(f"tensor shape {t.shape} does not match the grid")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    def __len__(self) -> int:
        return self.grid.n_samples

    def __getitem__(self, m: int) -> TransferSample:
        m = range(len(self))[m]  # negative indices count from the end
        freq = self.grid.f_min_hz + self.grid.delta_f * m
        return TransferSample(freq, self.tensor[m], self.bounce_range)

    def pair(self, rx_index: int = 0, tx_index: int = 0) -> np.ndarray:
        """Scalar response of one transmitter-receiver pair, shape (M,).

        The indices must be integers below the receiver and transmitter counts.
        """
        _, n_rx, n_tx = self.tensor.shape
        rx_index, tx_index = _pair_indices(rx_index, tx_index, n_rx, n_tx)
        return self.tensor[:, rx_index, tx_index]


def sample_transfer(
    graph: PropagationGraph,
    grid: FrequencyGrid,
    bounce_range: BounceRange = BounceRange.full(),
) -> ResponseSamples:
    """Sample the (partial) transfer matrix at every grid frequency.

    One batched solve against (I - loop) serves all transmitter/receiver
    pairs.  For an unbounded range, the full one among them, the loop's
    contraction is checked first: by one n x n norm bound when every loop
    gain is frequency-flat and that bound certifies it, sample by sample
    otherwise.  A bounded range is a finite sum of k-bounce terms and needs
    neither the check nor the solve.
    """
    ranges = _bounce_ranges((bounce_range,), "bounce_range")
    (tensor,) = _SampledSystem.of(graph, grid).slices(ranges)
    return ResponseSamples(grid=grid, bounce_range=bounce_range, tensor=tensor)


def _nonempty(bounce_ranges) -> tuple[BounceRange, ...]:
    """``bounce_ranges`` as a tuple of BounceRange values, refused when empty, before any work."""
    bounce_ranges = _bounce_ranges(bounce_ranges, "bounce_ranges")
    if not bounce_ranges:
        raise ValueError("need at least one bounce range")
    return bounce_ranges


def _pair_indices(rx_index, tx_index, n_rx: int, n_tx: int) -> tuple[int, int]:
    """``rx_index`` and ``tx_index`` checked as indices below ``n_rx`` and ``n_tx``."""
    pair = []
    for name, index, count in (("rx_index", rx_index, n_rx), ("tx_index", tx_index, n_tx)):
        index = _named(_integer, index, name)
        if not 0 <= index < count:
            raise ValueError(f"{name} must lie in [0, {count}), got {index}")
        pair.append(index)
    return tuple(pair)


def sample_transfer_slices(
    graph: PropagationGraph, grid: FrequencyGrid, bounce_ranges
) -> tuple[ResponseSamples, ...]:
    """Sample several bounce-order slices while sharing the frequency solves.

    The bounce-order products are shared as well: u_j = collect @ loop^j is
    formed once, one step per bounce order up to the largest power any
    requested range needs.  A bounded range K:L sums the k-bounce terms
    u_(k-1) @ feed, each formed once, so exactly k bounces needs powers up
    to u_(k-1) and no solve; the solve runs only when some range is
    unbounded, and each unbounded range K:inf takes one product
    u_(max(K,1)-1) @ Z with the solved feed Z.  See
    :func:`revgraph.transfer.bounce_slices`.
    """
    bounce_ranges = _nonempty(bounce_ranges)
    tensors = _SampledSystem.of(graph, grid).slices(bounce_ranges)
    return tuple(
        ResponseSamples(grid=grid, bounce_range=r, tensor=t)
        for r, t in zip(bounce_ranges, tensors)
    )


# -- Impulse responses --------------------------------------------------------------


@dataclass(frozen=True)
class ImpulseResponse:
    """Delay-domain response on the grid's delay axis (spacing dtau, no shift)."""

    samples: np.ndarray
    grid: FrequencyGrid
    bounce_range: BounceRange | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.samples, dtype=complex)
        if y.shape != (self.grid.n_samples,):
            raise LengthMismatch(
                f"{y.shape[0]} samples on a grid of {self.grid.n_samples}"
            )
        y.setflags(write=False)
        object.__setattr__(self, "samples", y)

    @property
    def delay_axis(self) -> np.ndarray:
        return self.grid.delays()

    def power(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


def impulse_response(
    samples,
    window: WindowSpectrum,
    *,
    rx_index: int = 0,
    tx_index: int = 0,
    bounce_range: BounceRange | None = None,
) -> ImpulseResponse:
    """Window the sampled response of one Tx/Rx pair and inverse-transform it.

    ``samples`` is either a :class:`ResponseSamples` (a pair is selected)
    or a one-dimensional complex array on the window's grid.
    """
    if isinstance(samples, ResponseSamples):
        if samples.grid != window.grid:
            raise LengthMismatch(
                f"samples on {samples.grid}, window on {window.grid}"
            )
        values = samples.pair(rx_index, tx_index)
        bounce_range = samples.bounce_range if bounce_range is None else bounce_range
    else:
        values = np.asarray(samples, dtype=complex)
        if values.shape != (window.grid.n_samples,):
            raise LengthMismatch(
                f"{values.shape} samples against a window of {window.grid.n_samples}"
            )
    # y_i = df * sum_m v[m] w[m] exp(j 2 pi i m / M), evaluated as M * df * ifft(v w).
    grid = window.grid
    y = grid.n_samples * grid.delta_f * np.fft.ifft(values * window.samples)
    return ImpulseResponse(samples=y, grid=grid, bounce_range=bounce_range)


# -- Delay-power spectra --------------------------------------------------------------


class SpectrumKind(Enum):
    ENSEMBLE = "ensemble"
    SPATIAL = "spatial"


@dataclass(frozen=True)
class DelayPowerSpectrum:
    """Average of |y(i dtau)|^2 over an ensemble of runs or receiver positions."""

    power: np.ndarray
    grid: FrequencyGrid
    kind: SpectrumKind
    count: int

    def __post_init__(self) -> None:
        p = np.asarray(self.power, dtype=float)
        if p.shape != (self.grid.n_samples,):
            raise ValueError(f"power shape {p.shape} does not match the grid")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("power bins must be finite and nonnegative")
        object.__setattr__(self, "count", _named(_integer, self.count, "count"))
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        p.setflags(write=False)
        object.__setattr__(self, "power", p)

    @property
    def delay_axis(self) -> np.ndarray:
        return self.grid.delays()


def _add_note(exc: BaseException, note: str) -> None:
    # What BaseException.add_note does on 3.11 and later, on every interpreter.
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def _annotate(exc: BaseException, run_index: int, seed: int) -> None:
    _add_note(exc, f"while simulating run {run_index} (seed {seed})")


def _release_freed_heap() -> None:
    """Return freed heap to the OS where the C library offers ``malloc_trim`` (glibc).

    glibc gives freed heap back only once it exceeds twice the largest block
    it has unmapped, so after a sampled solve it can keep about one loop
    block of freed memory; without this, every process forked afterwards
    starts with it resident.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    trim(0)


def _ordered_map(fn, items, workers: int | None):
    """Yield ``fn(item)`` for each item, in input order.

    With ``workers`` > 1 and at least two items, the calls run in a pool of at
    most ``workers`` processes, one item per task; otherwise they run here,
    one at a time.  ``fn`` and the items must pickle.
    """
    items = list(items)
    if workers is None or workers < 2 or len(items) < 2:
        yield from map(fn, items)
        return
    _release_freed_heap()
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        yield from pool.map(fn, items)


def _ensemble_run_powers(config, grids, windows, bounce_ranges, rx_index, tx_index):
    """One run's |y|^2 per grid and bounce range, from one draw where the band cannot matter."""
    realizations = _realizations(generate_realization, config, grids)
    return [
        [impulse_response(t[:, rx_index, tx_index], window).power()
         for t in _SampledSystem.of(realization.graph, grid).slices(bounce_ranges)]
        for grid, window, realization in zip(grids, windows, realizations)
    ]


def ensemble_spectra(
    config: ScenarioConfig,
    grid,
    n_runs: int,
    window,
    *,
    bounce_ranges=(BounceRange.full(),),
    rx_index: int = 0,
    tx_index: int = 0,
    workers: int | None = None,
) -> tuple:
    """Monte Carlo delay-power spectra, one per requested bounce range.

    Run ``i`` simulates an independent realization seeded ``config.seed + i``;
    all requested bounce-order slices share that run's frequency solves.
    ``workers`` > 1 distributes runs over at most ``n_runs`` processes, and a
    single run stays in this process.  Each run's powers are
    added to a running total per range as results arrive, in run-index order
    either way, so pooled results match the serial ones bit for bit and
    memory stays independent of ``n_runs``.  Every argument, the pair
    indices among them, is checked before the first run is drawn.

    ``grid`` may also be a sequence of grids, with ``window`` a sequence of
    one window per grid; the result is then one tuple of spectra per grid,
    each bit for bit what a call on that grid alone returns.  A run is then
    one task that samples every grid.  Its room is drawn once and sampled on
    each grid when the draw did not depend on the band, that is when the
    first attempt was accepted by the loop's flat norm bound; otherwise it
    is drawn again for the next grid.
    """
    n_runs = _integer(n_runs)
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    single = isinstance(grid, FrequencyGrid)
    if single != isinstance(window, WindowSpectrum):
        raise LengthMismatch("one grid takes one window, a sequence of grids one window per grid")
    grids, windows = ((grid,), (window,)) if single else (tuple(grid), tuple(window))
    if not grids:
        raise ValueError("need at least one frequency grid")
    if len(windows) != len(grids):
        raise LengthMismatch(f"{len(windows)} windows for {len(grids)} grids")
    if any(w.grid != g for g, w in zip(grids, windows)):
        raise LengthMismatch("window grid differs from the sampling grid")
    bounce_ranges = _nonempty(bounce_ranges)
    rx_index, tx_index = _pair_indices(rx_index, tx_index, config.n_rx, config.n_tx)
    run = partial(_ensemble_run_powers, grids=grids, windows=windows,
                  bounce_ranges=bounce_ranges, rx_index=rx_index, tx_index=tx_index)
    seeds = range(config.seed, config.seed + n_runs)
    configs = (replace(config, seed=seed) for seed in seeds)
    totals = [[np.zeros(g.n_samples) for _ in bounce_ranges] for g in grids]
    with closing(_ordered_map(run, configs, workers)) as results:
        for i, seed in enumerate(seeds):
            try:
                powers = next(results)
            except Exception as exc:
                _annotate(exc, i, seed)
                raise
            for grid_totals, grid_powers in zip(totals, powers):
                for total, p in zip(grid_totals, grid_powers):
                    total += p
    spectra = tuple(
        tuple(
            DelayPowerSpectrum(power=total / n_runs, grid=g, kind=SpectrumKind.ENSEMBLE, count=n_runs)
            for total in grid_totals
        )
        for g, grid_totals in zip(grids, totals)
    )
    return spectra[0] if single else spectra


def ensemble_spectrum(
    config: ScenarioConfig,
    grid: FrequencyGrid,
    n_runs: int,
    window: WindowSpectrum,
    *,
    rx_index: int = 0,
    tx_index: int = 0,
    workers: int | None = None,
) -> DelayPowerSpectrum:
    """Ensemble average of |y|^2 over independent full-range realizations."""
    (spectrum,) = ensemble_spectra(
        config,
        grid,
        n_runs,
        window,
        rx_index=rx_index,
        tx_index=tx_index,
        workers=workers,
    )
    return spectrum


def spatial_spectrum(
    realization,
    rx_positions,
    grid: FrequencyGrid,
    window: WindowSpectrum,
    *,
    rx_index: int = 0,
    tx_index: int = 0,
) -> DelayPowerSpectrum:
    """Average |y|^2 over receiver placements of a single realization.

    Each placement moves receiver ``rx_index`` with :func:`relocate_receiver`.
    The placements share one per-frequency solve Z = (I - loop)^-1 feed of
    the unmoved graph, and each samples only its receiver-side blocks
    (direct and scatterer-to-receiver edges), because a move changes
    nothing else.  That sharing is guarded by value: a moved graph must
    keep the block shapes and the feed and loop edges (indices, delays,
    phases and gains), or :class:`RuntimeError` is raised.  ``rx_index``
    and ``tx_index`` are checked against the graph's counts, and each
    position is checked to be a finite 3-vector, before the solve.
    """
    graph = realization.graph if isinstance(realization, ScenarioRealization) else realization
    positions = [tuple(float(c) for c in p) for p in rx_positions]
    if not positions:
        raise ValueError("need at least one receiver position")
    for i, p in enumerate(positions):
        if len(p) != 3 or not all(map(math.isfinite, p)):
            raise ValueError(f"receiver position {i} must be a finite 3-vector, got {p}")
    if window.grid != grid:
        raise LengthMismatch("window grid differs from the sampling grid")
    rx_index, tx_index = _pair_indices(rx_index, tx_index, graph.n_rx, graph.n_tx)
    placements = (relocate_receiver(graph, rx_index, p) for p in positions)
    total = np.zeros(grid.n_samples)
    for response in _SampledSystem.of(graph, grid).placements(placements):
        total += impulse_response(response[:, rx_index, tx_index], window).power()
    return DelayPowerSpectrum(
        power=total / len(positions),
        grid=grid,
        kind=SpectrumKind.SPATIAL,
        count=len(positions),
    )


# -- Tail-slope fitting ----------------------------------------------------------------


@dataclass(frozen=True)
class TailSlopeFit:
    """Least-squares line through 10 log10(power) versus delay in ns."""

    slope_db_per_ns: float
    intercept_db: float
    residual_rms_db: float
    n_bins: int


def fit_tail_slope(
    spectrum: DelayPowerSpectrum, delay_window: tuple[float, float]
) -> TailSlopeFit:
    """Fit the dB-domain tail of a delay-power spectrum over a delay window.

    ``delay_window`` is (start, stop) in seconds; the slope is reported in
    dB per nanosecond.  All bins inside the window must hold positive
    power, and at least 10 bins are required.
    """
    start, stop = float(delay_window[0]), float(delay_window[1])
    if not start < stop:
        raise ValueError(f"empty delay window ({start}, {stop})")
    delays = spectrum.delay_axis
    mask = (delays >= start) & (delays <= stop)
    n_bins = int(np.count_nonzero(mask))
    if n_bins < 10:
        raise InsufficientBins(
            f"only {n_bins} bins inside [{start:g}, {stop:g}] s, need at least 10"
        )
    power = spectrum.power[mask]
    if np.any(power <= 0.0):
        raise NonpositivePower("tail fit needs strictly positive power in the window")
    x_ns = delays[mask] * 1e9
    y_db = 10.0 * np.log10(power)
    slope, intercept = np.polyfit(x_ns, y_db, 1)
    residual = y_db - (slope * x_ns + intercept)
    rms = float(np.sqrt(np.mean(residual ** 2)))
    return TailSlopeFit(
        slope_db_per_ns=float(slope),
        intercept_db=float(intercept),
        residual_rms_db=rms,
        n_bins=n_bins,
    )


# -- CSV / metadata emission --------------------------------------------------------


def write_response_csv(path, samples: ResponseSamples) -> None:
    """Frequency-domain CSV: freq_hz plus re/im columns per Tx/Rx pair."""
    from ._csvtext import write_csv  # compiled on the first write, not at import
    n_samples, n_rx, n_tx = samples.tensor.shape
    header = ["freq_hz"]
    for r in range(n_rx):
        for t in range(n_tx):
            header += [f"h_rx{r}_tx{t}_re", f"h_rx{r}_tx{t}_im"]
    pairs = samples.tensor.reshape(n_samples, n_rx * n_tx)
    table = np.empty((n_samples, len(header)))
    table[:, 0] = samples.grid.frequencies()
    table[:, 1::2] = pairs.real
    table[:, 2::2] = pairs.imag
    write_csv(path, ",".join(header), table)


def write_impulse_csv(path, impulse: ImpulseResponse) -> None:
    """Delay-domain CSV with columns delay_s, h_re, h_im."""
    from ._csvtext import write_csv
    y = impulse.samples
    write_csv(path, "delay_s,h_re,h_im", np.column_stack([impulse.delay_axis, y.real, y.imag]))


def write_spectrum_csv(path, spectrum: DelayPowerSpectrum) -> None:
    """Delay-power CSV with linear and dB columns (dB is -inf on empty bins).

    The dB column is ``10 * math.log10(p)``: numpy's ``log10`` differs from
    the C library's in the last bit for a few percent of powers.
    """
    from ._csvtext import write_csv
    power = spectrum.power
    positive = power > 0.0
    db = np.full(power.shape, -math.inf)
    db[positive] = 10.0 * np.fromiter(map(math.log10, power[positive].tolist()), float)
    write_csv(path, "delay_s,power_linear,power_db",
              np.column_stack([spectrum.delay_axis, power, db]))


# Each job's writer is chosen by the type of its data and looked up by name in
# this module when the job runs, so a writer replaced by a wrapper (a
# profiler's timing span, say) is the one that runs.
_CSV_WRITERS = {
    ResponseSamples: "write_response_csv",
    ImpulseResponse: "write_impulse_csv",
    DelayPowerSpectrum: "write_spectrum_csv",
}


def write_csv_files(jobs) -> None:
    """Write ``(path, data)`` jobs in order with the writer for each data's type.

    ``write_response_csv``, ``write_impulse_csv`` and ``write_spectrum_csv`` write
    :class:`ResponseSamples`, :class:`ImpulseResponse` and :class:`DelayPowerSpectrum`.
    Every float is written as ``repr`` prints it (see :mod:`revgraph._csvtext`).  An
    error names the file being written.
    """
    for path, data in jobs:
        try:
            globals()[_CSV_WRITERS[type(data)]](path, data)
        except Exception as exc:
            _add_note(exc, f"while writing {path}")
            raise


def config_digest(config_doc: dict) -> str:
    """SHA-1 of the canonical JSON form of a config document.

    The ``out`` entry is left out: where an artifact was written does not
    change how it was made.
    """
    doc = {k: v for k, v in config_doc.items() if k != "out"}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()


def write_sidecar(
    path,
    *,
    grid: FrequencyGrid,
    window_label: str,
    seeds,
    config_doc: dict,
    extra: dict | None = None,
) -> None:
    """JSON sidecar recording grid, window, seeds, the config and its digest."""
    doc = {
        "grid": {
            "f_min_hz": grid.f_min_hz,
            "f_max_hz": grid.f_max_hz,
            "n_samples": grid.n_samples,
        },
        "window": window_label,
        "seeds": list(seeds),
        "config": config_doc,
        "config_sha1": config_digest(config_doc),
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
