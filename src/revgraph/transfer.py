"""Closed-form transfer matrices for propagation graphs.

The recirculating scatterer field turns the channel into a Neumann series
over bounce orders; as long as the spectral radius of the scatterer loop
block stays below one, the full series and any bounce-order slice of it
collapse to closed forms built around solves against (I - loop).  This
module is the one home of that engine: :func:`verify_contraction` checks
the precondition, :class:`PrecomputedKernel` solves against (I - loop),
and :func:`bounce_slices` forms the slices.  Each takes one frequency or a
stack of them, so the batched sampling in ``synthesis`` and the
single-frequency functions below run the same code.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import PropagationGraph, adjacency_blocks

__all__ = [
    "SPECTRAL_RADIUS_LIMIT",
    "CONDITION_WARN_THRESHOLD",
    "SpectralRadiusExceeded",
    "SpectralRadiusExceededAt",
    "SingularSystem",
    "NumericalFailure",
    "BounceRange",
    "TransferSample",
    "PrecomputedKernel",
    "bounce_slices",
    "spectral_radius",
    "verify_contraction",
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


class SpectralRadiusExceededAt(SpectralRadiusExceeded):
    """The scatterer loop fails to contract at a specific sample."""

    def __init__(self, sample_index: int, value: float, frequency_hz: float):
        self.sample_index = int(sample_index)
        self.frequency_hz = float(frequency_hz)
        super().__init__(
            value,
            f"spectral radius {value:.6g} at sample {sample_index} "
            f"(f = {frequency_hz:g} Hz) exceeds {SPECTRAL_RADIUS_LIMIT}",
        )


class SingularSystem(ArithmeticError):
    """The solve against (I - loop) broke down despite an admissible spectral radius."""


class NumericalFailure(ArithmeticError):
    """An underlying dense eigensolver failed to converge."""


def spectral_radius(matrix: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue magnitude of a square matrix (0 for the empty matrix).

    A stack (..., n, n) gives an array of radii over its leading axes.
    """
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        radii = np.zeros(a.shape[:-2])
    else:
        try:
            radii = np.max(np.abs(np.linalg.eigvals(a)), axis=-1)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return float(radii) if a.ndim == 2 else radii


def verify_contraction(loop: np.ndarray, freqs) -> None:
    """Raise unless the loop block contracts at every sample.

    ``loop`` is one (n, n) block or a stack (..., n, n) sampled at ``freqs``.
    The smaller of the max column and row sums of |loop| certifies most
    samples; eigenvalues decide the rest, and the first sample past
    :data:`SPECTRAL_RADIUS_LIMIT` is raised.  Only undecided samples get a
    condition estimate, logged past :data:`CONDITION_WARN_THRESHOLD`: a
    certified bound b keeps cond_1(I - loop) <= n(1 + nb)/(1 - b), below
    the threshold for n <= 99.
    """
    loop = np.asarray(loop)
    n = loop.shape[-1]
    if n == 0:
        return
    stack = loop.reshape(-1, n, n)
    freqs = np.broadcast_to(freqs, loop.shape[:-2]).ravel()
    magnitude = np.abs(stack)
    bound = np.minimum(magnitude.sum(axis=1).max(axis=1), magnitude.sum(axis=2).max(axis=1))
    # NaN bounds are undecided too, so the eigensolver reports them
    suspects = np.nonzero(~(bound <= SPECTRAL_RADIUS_LIMIT))[0]
    if suspects.size == 0:
        return
    radii = spectral_radius(stack[suspects])
    bad = np.nonzero(radii > SPECTRAL_RADIUS_LIMIT)[0]
    if bad.size:
        first = int(suspects[bad[0]])
        raise SpectralRadiusExceededAt(first, float(radii[bad[0]]), float(freqs[first]))
    conds = np.linalg.cond(np.eye(n) - stack[suspects], 1)
    for m, cond in zip(suspects, conds):
        if cond > CONDITION_WARN_THRESHOLD:
            logger.warning(
                "ill-conditioned (I - loop) solve at f=%g Hz: condition estimate %.3g",
                freqs[m], cond,
            )


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
    """(I - loop) at one frequency or a stack of them, checked to contract.

    Construction runs :func:`verify_contraction`; :meth:`solve` then solves
    all samples at once.  The kernel depends only on the scatterer loop
    block, so it can be shared across transmitter/receiver placements and
    right-hand sides.
    """

    frequency_hz: float | np.ndarray
    _system: np.ndarray

    @classmethod
    def from_loop_block(cls, loop: np.ndarray, frequency_hz) -> "PrecomputedKernel":
        loop = np.asarray(loop, dtype=complex)
        verify_contraction(loop, frequency_hz)
        return cls(frequency_hz, np.eye(loop.shape[-1]) - loop)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - loop) @ z = rhs for one or more right-hand-side columns."""
        rhs = np.asarray(rhs, dtype=complex)
        if self._system.shape[-1] == 0:
            return rhs.copy()
        try:
            return np.linalg.solve(self._system, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"(I - loop) solve failed: {exc}") from exc


def make_kernel(graph: PropagationGraph, freq_hz: float) -> PrecomputedKernel:
    """Contraction-checked (I - loop) for ``graph`` at one frequency."""
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
