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

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .graph import PropagationGraph, VertexKind, _receiver_side_samples, block_samples
from .scenario import ScenarioConfig, ScenarioRealization, generate_realization, relocate_receiver
from .transfer import (
    BounceRange,
    SpectralRadiusExceededAt,
    TransferSample,
    _graph_kernel,
    bounce_slices,
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
        if not 0.0 < self.f_min_hz < self.f_max_hz:
            raise ValueError(
                f"need 0 < f_min < f_max, got ({self.f_min_hz}, {self.f_max_hz})"
            )
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

    def delays(self) -> np.ndarray:
        return self.delta_tau * np.arange(self.n_samples)

    # The CSV writers' axis columns, formatted once per grid object and shared
    # by every file written on it.  They live in the instance dict, so they go
    # with the grid; pickles carry the three fields only.

    @cached_property
    def _frequency_text(self) -> list[str]:
        return _text(self.frequencies())

    @cached_property
    def _delay_text(self) -> list[str]:
        return _text(self.delays())

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
        """Scalar response of one transmitter-receiver pair, shape (M,)."""
        return self.tensor[:, rx_index, tx_index]


def _sampled_slices(
    graph: PropagationGraph, grid: FrequencyGrid, bounce_ranges
) -> list[np.ndarray]:
    samples = block_samples(graph, grid.frequencies())
    zt = _graph_kernel(graph, samples.loop, samples.freqs).solve(samples.feed)
    return bounce_slices(samples.direct, samples.loop, samples.collect, zt, bounce_ranges)


def sample_transfer(
    graph: PropagationGraph,
    grid: FrequencyGrid,
    bounce_range: BounceRange = BounceRange.full(),
) -> ResponseSamples:
    """Sample the (partial) transfer matrix at every grid frequency.

    One batched solve against (I - loop) serves all transmitter/receiver
    pairs; the loop block's contraction is re-verified sample by sample.
    """
    (tensor,) = _sampled_slices(graph, grid, (bounce_range,))
    return ResponseSamples(grid=grid, bounce_range=bounce_range, tensor=tensor)


def sample_transfer_slices(
    graph: PropagationGraph, grid: FrequencyGrid, bounce_ranges
) -> tuple[ResponseSamples, ...]:
    """Sample several bounce-order slices while sharing the frequency solves.

    The loop products loop^j @ Z are shared as well: they are formed once,
    one matrix-vector step per bounce order, up to the largest order any
    requested range needs.
    """
    bounce_ranges = tuple(bounce_ranges)
    tensors = _sampled_slices(graph, grid, bounce_ranges)
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


def _idft(weighted: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    # y_i = df * sum_m v[m] exp(j 2 pi i m / M), evaluated as M * df * ifft(v).
    return grid.n_samples * grid.delta_f * np.fft.ifft(weighted)


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
    y = _idft(values * window.samples, window.grid)
    return ImpulseResponse(samples=y, grid=window.grid, bounce_range=bounce_range)


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
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        p.setflags(write=False)
        object.__setattr__(self, "power", p)

    @property
    def delay_axis(self) -> np.ndarray:
        return self.grid.delays()


def _annotate(exc: BaseException, run_index: int, seed: int) -> None:
    note = f"while simulating run {run_index} (seed {seed})"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)
    else:  # pre-3.11 interpreters: carry the context in the args tuple
        exc.args = exc.args + (note,)


def _ensemble_run_powers(config, grid, bounce_ranges, window, rx_index, tx_index):
    realization = generate_realization(config, grid)
    tensors = _sampled_slices(realization.graph, grid, bounce_ranges)
    return [np.abs(_idft(t[:, rx_index, tx_index] * window.samples, grid)) ** 2 for t in tensors]


def ensemble_spectra(
    config: ScenarioConfig,
    grid: FrequencyGrid,
    n_runs: int,
    window: WindowSpectrum,
    *,
    bounce_ranges=(BounceRange.full(),),
    rx_index: int = 0,
    tx_index: int = 0,
    workers: int | None = None,
) -> tuple[DelayPowerSpectrum, ...]:
    """Monte Carlo delay-power spectra, one per requested bounce range.

    Run ``i`` simulates an independent realization seeded ``config.seed + i``;
    all requested bounce-order slices share that run's frequency solves.
    ``workers`` > 1 distributes runs over at most ``n_runs`` processes, and a
    single run stays in this process.  Each run's powers are
    added to a running total per range as results arrive, in run-index order
    either way, so pooled results match the serial ones bit for bit and
    memory stays independent of ``n_runs``.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if window.grid != grid:
        raise LengthMismatch("window grid differs from the sampling grid")
    bounce_ranges = tuple(bounce_ranges)
    run = partial(_ensemble_run_powers, grid=grid, bounce_ranges=bounce_ranges,
                  window=window, rx_index=rx_index, tx_index=tx_index)
    seeds = range(config.seed, config.seed + n_runs)
    configs = (replace(config, seed=seed) for seed in seeds)
    totals = [np.zeros(grid.n_samples) for _ in bounce_ranges]
    if workers is not None:
        workers = min(workers, n_runs)
    pooled = workers is not None and workers > 1
    with ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
        results = pool.map(run, configs) if pooled else map(run, configs)
        for i, seed in enumerate(seeds):
            try:
                powers = next(results)
            except Exception as exc:
                _annotate(exc, i, seed)
                raise
            for total, p in zip(totals, powers):
                total += p
    return tuple(
        DelayPowerSpectrum(
            power=total / n_runs, grid=grid, kind=SpectrumKind.ENSEMBLE, count=n_runs
        )
        for total in totals
    )


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
        bounce_ranges=(BounceRange.full(),),
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

    Each placement refreshes only the receiver-side edges (delays and gain
    laws of direct and scatterer-to-receiver edges); the scatterer-side
    blocks and the per-frequency solves are computed once and shared.  A move
    that alters the scatterer-side edges or the feed and loop blocks raises
    :class:`RuntimeError`.
    """
    graph = realization.graph if isinstance(realization, ScenarioRealization) else realization
    positions = [tuple(float(c) for c in p) for p in rx_positions]
    if not positions:
        raise ValueError("need at least one receiver position")
    if window.grid != grid:
        raise LengthMismatch("window grid differs from the sampling grid")
    freqs = grid.frequencies()
    base = block_samples(graph, freqs)
    zt = _graph_kernel(graph, base.loop, freqs).solve(base.feed)
    scatter_side = tuple(
        e for e in graph.edges if e.dst.kind is not VertexKind.RX
    )
    total = np.zeros(grid.n_samples)
    for k, position in enumerate(positions):
        moved = relocate_receiver(graph, rx_index, position)
        moved_scatter_side = tuple(
            e for e in moved.edges if e.dst.kind is not VertexKind.RX
        )
        if len(scatter_side) != len(moved_scatter_side) or not all(
            a is b for a, b in zip(scatter_side, moved_scatter_side)
        ):
            raise RuntimeError("receiver move altered scatterer-side edges")
        if k == 0:
            check = block_samples(moved, freqs)
            if not np.array_equal(check.loop, base.loop) or not np.array_equal(
                check.feed, base.feed
            ):
                raise RuntimeError("receiver move altered the loop or feed block")
        direct, collect = _receiver_side_samples(moved, freqs)
        (tensor,) = bounce_slices(direct, base.loop, collect, zt, (BounceRange.full(),))
        y = _idft(tensor[:, rx_index, tx_index] * window.samples, grid)
        total += np.abs(y) ** 2
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


def _text(values: np.ndarray) -> list[str]:
    """repr of every value: shortest round-trip text, '-0.0', 'inf', 'nan'."""
    return list(map(repr, values.tolist()))


def _write_columns(path, header: str, columns) -> None:
    rows = map(",".join, zip(*columns))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def write_response_csv(path, samples: ResponseSamples) -> None:
    """Frequency-domain CSV: freq_hz plus re/im columns per Tx/Rx pair.

    Columns are formatted whole, one ``repr`` per float; the frequency column
    is formatted once per grid object and reused by every file on that grid.
    """
    _, n_rx, n_tx = samples.tensor.shape
    header = ["freq_hz"]
    columns = [samples.grid._frequency_text]
    for r in range(n_rx):
        for t in range(n_tx):
            header += [f"h_rx{r}_tx{t}_re", f"h_rx{r}_tx{t}_im"]
            pair = samples.pair(r, t)
            columns += [_text(pair.real), _text(pair.imag)]
    _write_columns(path, ",".join(header), columns)


def write_impulse_csv(path, impulse: ImpulseResponse) -> None:
    """Delay-domain CSV with columns delay_s, h_re, h_im.

    The delay column is formatted once per grid object and shared by every
    impulse and spectrum file written on that grid.
    """
    y = impulse.samples
    _write_columns(path, "delay_s,h_re,h_im",
                   [impulse.grid._delay_text, _text(y.real), _text(y.imag)])


def write_spectrum_csv(path, spectrum: DelayPowerSpectrum) -> None:
    """Delay-power CSV with linear and dB columns (dB is -inf on empty bins).

    The delay column is shared per grid object, as in :func:`write_impulse_csv`.
    """
    power = spectrum.power.tolist()
    db = [10.0 * math.log10(p) if p > 0.0 else -math.inf for p in power]
    _write_columns(path, "delay_s,power_linear,power_db",
                   [spectrum.grid._delay_text, map(repr, power), map(repr, db)])


def config_digest(config_doc: dict) -> str:
    """SHA-1 of the canonical JSON form of a config document."""
    canonical = json.dumps(config_doc, sort_keys=True, separators=(",", ":"))
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
