"""Closed-form transfer matrices for propagation graphs.

The recirculating scatterer field turns the channel into a Neumann series
over bounce orders; as long as the spectral radius of the scatterer loop
block stays below one, the full series and any bounce-order slice of it
collapse to closed forms built around solves against (I - loop).  This
module provides those closed forms plus a reusable factorization kernel so
that sweeps over transmitter/receiver placements or input signals pay for
one factorization per frequency.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import PropagationGraph, adjacency_blocks

__all__ = [
    "SPECTRAL_RADIUS_LIMIT",
    "CONDITION_WARN_THRESHOLD",
    "SpectralRadiusExceeded",
    "SingularSystem",
    "NumericalFailure",
    "BounceRange",
    "TransferSample",
    "PrecomputedKernel",
    "bounce_slices",
    "spectral_radius",
    "make_kernel",
    "transfer_matrix",
    "k_bounce_matrix",
    "partial_transfer_matrix",
    "truncation_error",
    "scatterer_signal",
]

logger = logging.getLogger(__name__)

# Loop blocks with spectral radius in (1 - 1e-6, 1) converge in theory but
# leave the resolvent too ill-conditioned to trust, so they are refused.
SPECTRAL_RADIUS_LIMIT = 1.0 - 1e-6

# Solves against (I - loop) with an estimated condition number beyond this
# are flagged in the log but still returned.
CONDITION_WARN_THRESHOLD = 1e10


class SpectralRadiusExceeded(ValueError):
    """The scatterer loop block does not contract (spectral radius too large)."""

    def __init__(self, value: float, message: str | None = None):
        self.value = float(value)
        super().__init__(message or f"spectral radius {self.value:.6g} exceeds {SPECTRAL_RADIUS_LIMIT}")


class SingularSystem(ArithmeticError):
    """Factorization of (I - loop) broke down despite an admissible spectral radius."""


class NumericalFailure(ArithmeticError):
    """An underlying dense eigensolver failed to converge."""


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix (0 for the empty matrix)."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    try:
        return float(np.max(np.abs(np.linalg.eigvals(a))))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc


@dataclass(frozen=True)
class BounceRange:
    """Inclusive range of bounce orders, ``last`` may be ``math.inf``."""

    first: int
    last: int | float = math.inf

    def __post_init__(self) -> None:
        if self.first < 0 or int(self.first) != self.first:
            raise ValueError(f"first must be a nonnegative integer, got {self.first}")
        object.__setattr__(self, "first", int(self.first))
        if not (isinstance(self.last, int) or math.isinf(self.last)):
            if float(self.last) != int(self.last):
                raise ValueError(f"last must be an integer or infinity, got {self.last}")
            object.__setattr__(self, "last", int(self.last))
        if not math.isinf(self.last) and self.last < self.first:
            raise ValueError(f"need first <= last, got {self.first}:{self.last}")

    @classmethod
    def full(cls) -> "BounceRange":
        return cls(0, math.inf)

    @classmethod
    def exactly(cls, k: int) -> "BounceRange":
        return cls(k, k)

    @classmethod
    def up_to(cls, last: int) -> "BounceRange":
        return cls(0, last)

    @classmethod
    def tail(cls, first: int) -> "BounceRange":
        return cls(first, math.inf)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.last)

    @property
    def label(self) -> str:
        return f"{self.first}:{'inf' if self.unbounded else self.last}"


@dataclass(frozen=True)
class TransferSample:
    """Transfer matrix (receivers x transmitters) at one frequency."""

    frequency_hz: float
    matrix: np.ndarray
    bounce_range: BounceRange

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"transfer matrix must be 2-d, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PrecomputedKernel:
    """LU factorization of (I - loop) at one frequency, reusable across solves.

    Construction validates the spectral radius and estimates the condition
    number; anything above :data:`CONDITION_WARN_THRESHOLD` is logged as a
    diagnostic but does not fail.  The kernel depends only on the scatterer
    loop block, so it can be shared across transmitter/receiver placements
    and right-hand sides.
    """

    frequency_hz: float
    spectral_radius: float
    condition_estimate: float
    _lu: np.ndarray
    _piv: np.ndarray

    @classmethod
    def from_loop_block(cls, loop: np.ndarray, frequency_hz: float) -> "PrecomputedKernel":
        loop = np.asarray(loop, dtype=complex)
        rho = spectral_radius(loop)
        if rho > SPECTRAL_RADIUS_LIMIT:
            raise SpectralRadiusExceeded(rho)
        n = loop.shape[0]
        if n == 0:
            return cls(float(frequency_hz), rho, 1.0,
                       np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=np.int32))
        system = np.eye(n, dtype=complex) - loop
        anorm = np.linalg.norm(system, 1)
        lu, piv = scipy.linalg.lu_factor(system, check_finite=False)
        if np.any(np.diag(lu) == 0.0):
            raise SingularSystem(
                f"(I - loop) factorization has a zero pivot at f={frequency_hz:g} Hz"
            )
        gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
        rcond, info = gecon(lu, anorm)
        if info != 0 or rcond == 0.0:
            raise SingularSystem(
                f"(I - loop) is numerically singular at f={frequency_hz:g} Hz"
            )
        cond = 1.0 / float(rcond)
        if cond > CONDITION_WARN_THRESHOLD:
            logger.warning(
                "ill-conditioned (I - loop) solve at f=%g Hz: condition estimate %.3g",
                frequency_hz, cond,
            )
        return cls(float(frequency_hz), rho, cond, lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - loop) @ z = rhs for one or more right-hand-side columns."""
        rhs = np.asarray(rhs, dtype=complex)
        if self._lu.shape[0] == 0:
            return rhs.copy()
        return scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)


def make_kernel(graph: PropagationGraph, freq_hz: float) -> PrecomputedKernel:
    """Factor (I - loop) for ``graph`` at one frequency."""
    return PrecomputedKernel.from_loop_block(
        adjacency_blocks(graph, freq_hz).loop, freq_hz
    )


def _loop_steps(loop: np.ndarray, start: np.ndarray, steps: int) -> list[np.ndarray]:
    """[start, loop @ start, ..., loop^steps @ start] by repeated matrix-vector steps."""
    out = [start]
    for _ in range(steps):
        out.append(loop @ out[-1])
    return out


def bounce_slices(direct, loop, collect, zt, bounce_ranges) -> list[np.ndarray]:
    """Closed-form bounce-order slices from one solved feed Z = (I - loop)^-1 feed.

    Blocks may carry leading axes (one frequency or a stack of them).  With
    W_j = loop^j @ Z, the slice K:L is collect @ (W_(max(K,1)-1) - W_L),
    dropping W_L for unbounded L and adding the direct block when K = 0.
    The W_j are formed once, up to the largest power any range needs, and
    shared by all ranges.
    """
    bounce_ranges = tuple(bounce_ranges)
    leads = [max(r.first, 1) - 1 for r in bounce_ranges]
    top = max(leads + [int(r.last) for r in bounce_ranges if not r.unbounded], default=0)
    powers = _loop_steps(loop, zt, top)
    slices = []
    for r, lead in zip(bounce_ranges, leads):
        w = powers[lead] if r.unbounded else powers[lead] - powers[int(r.last)]
        matrix = collect @ w
        slices.append(direct + matrix if r.first == 0 else matrix)
    return slices


def transfer_matrix(graph: PropagationGraph, freq_hz: float) -> TransferSample:
    """Full transfer matrix: direct block plus the resolvent-collapsed series."""
    return partial_transfer_matrix(graph, freq_hz, BounceRange.full())


def k_bounce_matrix(graph: PropagationGraph, freq_hz: float, k: int) -> TransferSample:
    """Contribution of exactly-k-bounce paths (finite product, no convergence needed)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    blocks = adjacency_blocks(graph, freq_hz)
    if k == 0:
        matrix = blocks.direct.copy()
    else:
        matrix = blocks.collect @ _loop_steps(blocks.loop, blocks.feed, k - 1)[-1]
    return TransferSample(float(freq_hz), matrix, BounceRange.exactly(k))


def partial_transfer_matrix(
    graph: PropagationGraph, freq_hz: float, bounce_range: BounceRange
) -> TransferSample:
    """Transfer matrix restricted to bounce orders in ``bounce_range``."""
    blocks = adjacency_blocks(graph, freq_hz)
    kernel = PrecomputedKernel.from_loop_block(blocks.loop, freq_hz)
    (matrix,) = bounce_slices(
        blocks.direct, blocks.loop, blocks.collect, kernel.solve(blocks.feed), (bounce_range,)
    )
    return TransferSample(float(freq_hz), matrix, bounce_range)


def truncation_error(
    graph: PropagationGraph, freq_hz: float, truncation_order: int
) -> tuple[TransferSample, float]:
    """Tail beyond a bounce-order truncation and its Frobenius norm."""
    if truncation_order < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation_order}")
    tail = partial_transfer_matrix(graph, freq_hz, BounceRange.tail(truncation_order + 1))
    return tail, float(np.linalg.norm(tail.matrix, "fro"))


def scatterer_signal(graph: PropagationGraph, freq_hz: float, x: np.ndarray) -> np.ndarray:
    """Steady-state scatterer output Z solving Z = feed @ X + loop @ Z."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (graph.n_tx,):
        raise ValueError(f"input vector must have shape ({graph.n_tx},), got {x.shape}")
    blocks = adjacency_blocks(graph, freq_hz)
    kernel = PrecomputedKernel.from_loop_block(blocks.loop, freq_hz)
    return kernel.solve(blocks.feed @ x)
