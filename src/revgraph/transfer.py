"""Closed-form transfer matrices for propagation graphs.

The recirculating scatterer field turns the channel into a Neumann series
over bounce orders; as long as the spectral radius of the scatterer loop
block stays below one, the full series and any bounce-order slice of it
collapse to closed forms built around solves against (I - loop).  This
module is the one home of that engine: :func:`verify_contraction` checks
the precondition, :class:`PrecomputedKernel` solves against (I - loop),
and :func:`bounce_slices` forms the slices.  Each takes one frequency or a
stack of them, so the batched sampling in ``synthesis`` and the
single-frequency functions below run the same code; one frequency is the
m = 1 case of a stack.

Internally every stack is frequency-minor, (rows, cols, m), so the work is
elementwise numpy arithmetic on contiguous rows of m samples:

* The certificate is the smaller of the max column and row sums of |loop|.
  For a graph whose loop gains are all frequency-flat, one n x n amplitude
  matrix bounds every sample at once; otherwise it is taken per sample.
  Eigenvalues decide the samples the norm bound leaves open.
* A norm bound b < 1 makes I - loop strictly diagonally dominant, by
  columns or by rows.  Those samples are factored by LU without pivoting
  along the frequency axis: under column dominance partial pivoting would
  make no interchanges, and under either dominance the growth factor is at
  most 2.  Samples certified only by eigenvalues carry no such guarantee
  and are solved by ``np.linalg.solve``, which pivots.
* Products multiply whole rows of equal shape, never in place, so one
  sample and a stack agree bit for bit.
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


def _stack(a) -> np.ndarray:
    """Contiguous frequency-minor form (rows, cols, m) of one block or a stack (..., rows, cols).

    Views of :func:`block_samples` storage come back without a copy.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 2:
        return np.ascontiguousarray(a[..., None])
    lead = math.prod(a.shape[:-2])
    return np.ascontiguousarray(np.moveaxis(a.reshape((lead,) + a.shape[-2:]), 0, -1))


def _unstack(a: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_stack` for leading shape ``lead``; a view."""
    if lead == ():
        return a[..., 0]
    return np.moveaxis(a, -1, 0).reshape(lead + a.shape[:2])


def _certify(loop: np.ndarray, freqs: np.ndarray, bound: float | None) -> np.ndarray:
    """Raise unless the frequency-minor loop stack contracts at every sample.

    Returns the samples that only eigenvalues certify.  ``bound`` is a
    frequency-flat norm bound valid at every sample, or None.
    """
    n = loop.shape[0]
    if n == 0 or (bound is not None and bound <= SPECTRAL_RADIUS_LIMIT):
        return np.empty(0, dtype=np.intp)
    magnitude = np.abs(loop)
    # Sums in index order, so that one sample and a stack add alike.
    columns, rows = magnitude[0].copy(), magnitude[:, 0].copy()
    for i in range(1, n):
        columns += magnitude[i]
        rows += magnitude[:, i]
    bounds = np.minimum(columns.max(axis=0), rows.max(axis=0))
    # NaN bounds are undecided too, so the eigensolver reports them
    suspects = np.nonzero(~(bounds <= SPECTRAL_RADIUS_LIMIT))[0]
    if suspects.size == 0:
        return suspects
    undecided = np.moveaxis(loop[:, :, suspects], -1, 0)
    radii = spectral_radius(undecided)
    bad = np.nonzero(radii > SPECTRAL_RADIUS_LIMIT)[0]
    if bad.size:
        first = int(suspects[bad[0]])
        raise SpectralRadiusExceededAt(first, float(radii[bad[0]]), float(freqs[first]))
    conds = np.linalg.cond(np.eye(n) - undecided, 1)
    for k, cond in zip(suspects, conds):
        if cond > CONDITION_WARN_THRESHOLD:
            logger.warning(
                "ill-conditioned (I - loop) solve at f=%g Hz: condition estimate %.3g",
                freqs[k], cond,
            )
    return suspects


def verify_contraction(loop: np.ndarray, freqs) -> None:
    """Raise unless the loop block contracts at every sample.

    ``loop`` is one (n, n) block or a stack (..., n, n) sampled at ``freqs``.
    The smaller of the max column and row sums of |loop| certifies most
    samples; eigenvalues decide the rest, and the first sample past
    :data:`SPECTRAL_RADIUS_LIMIT` is raised.  Only undecided samples get a
    condition estimate, logged past :data:`CONDITION_WARN_THRESHOLD`: a
    certified bound b keeps cond_1(I - loop) <= n(1 + nb)/(1 - b), below
    the threshold for n <= 99.

    Samples the norm bound certifies are those :class:`PrecomputedKernel`
    eliminates without pivoting; samples certified only by eigenvalues are
    solved by ``np.linalg.solve``.  The engine's own checks go one step
    further for graphs whose loop gains are all frequency-flat: the norms of
    the amplitude matrix bound every sample at once, so one n x n
    computation replaces the per-sample sums (see :func:`_graph_kernel`).
    Raw arrays, as here, always get the per-sample check.
    """
    loop = np.asarray(loop)
    _certify(_stack(loop), np.broadcast_to(freqs, loop.shape[:-2]).ravel(), None)


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


# The elimination and the products below multiply only whole frequency rows of
# equal shape, (m,) by (m,), and never into one of their own operands.  numpy
# may round a complex product differently (fused multiply-add) when it is
# broadcast to a single element or written in place, and then one sample and
# a stack would no longer agree bit for bit.


def _factor(a: np.ndarray) -> None:
    """LU factors of a frequency-minor stack (n, n, m) in place, without pivoting.

    The multipliers go below the diagonal, U above it, and the reciprocal
    pivots on it.  Temporaries are single rows.
    """
    n = a.shape[0]
    for k in range(n):
        a[k, k] = 1.0 / a[k, k]
        for i in range(k + 1, n):
            a[i, k] = a[i, k] * a[k, k]
            for j in range(k + 1, n):
                a[i, j] -= a[i, k] * a[k, j]


def _substitute(lu: np.ndarray, b: np.ndarray) -> None:
    """Solve with the factors of :func:`_factor`; ``b`` is (n, cols, m), in place."""
    n = lu.shape[0]
    for col in range(b.shape[1]):
        z = b[:, col]
        for k in range(n):
            for i in range(k + 1, n):
                z[i] -= lu[i, k] * z[k]
        for k in range(n - 1, -1, -1):
            z[k] = z[k] * lu[k, k]
            for i in range(k):
                z[i] -= lu[i, k] * z[k]


@dataclass(frozen=True)
class PrecomputedKernel:
    """(I - loop) at one frequency or a stack of them, checked and factored.

    Construction checks contraction (see :func:`verify_contraction`) and
    factors every sample once; :meth:`solve` then serves any number of
    right-hand sides.  The kernel depends only on the scatterer loop block,
    so it can be shared across transmitter/receiver placements.

    Samples are stored frequency-minor, (n, n, m), and eliminated along the
    frequency axis by LU without pivoting wherever a norm bound b < 1
    certified them.  That bound makes I - loop strictly diagonally dominant
    by columns (b is the max column sum) or by rows (the max row sum).
    Under column dominance partial pivoting would make no interchanges, and
    under either dominance the growth factor is at most 2, so skipping the
    pivot search costs no stability.  Samples that only eigenvalues certify
    have no such guarantee; they keep their dense systems and go to
    ``np.linalg.solve``, which pivots.
    """

    frequency_hz: float | np.ndarray
    _system: np.ndarray  # frequency-minor LU factors
    _pivoted: tuple[np.ndarray, np.ndarray] | None = None  # samples and (I - loop) for np.linalg.solve

    @classmethod
    def from_loop_block(cls, loop: np.ndarray, frequency_hz) -> "PrecomputedKernel":
        return cls._checked(loop, frequency_hz, None)

    @classmethod
    def _checked(cls, loop, frequency_hz, bound: float | None) -> "PrecomputedKernel":
        loop = np.asarray(loop)
        stack = _stack(loop)
        freqs = np.broadcast_to(frequency_hz, loop.shape[:-2]).ravel()
        pivoted = _certify(stack, freqs, bound)
        n = stack.shape[0]
        system = np.subtract(np.eye(n)[..., None], stack, order="C")
        dense = None
        if pivoted.size:
            dense = (pivoted, np.moveaxis(system[:, :, pivoted], -1, 0))
            system[:, :, pivoted] = np.eye(n)[..., None]  # eliminated harmlessly, then replaced
        _factor(system)
        return cls(frequency_hz, system, dense)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - loop) @ z = rhs for one or more right-hand-side columns.

        ``rhs`` is (n,) or (n, cols) for a one-frequency kernel and
        (m, n, cols) for a stack.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if self._system.shape[0] == 0:
            return rhs.copy()
        vector = rhs.ndim == 1
        columns = rhs[:, None] if vector else rhs
        b = _stack(columns).copy()
        _substitute(self._system, b)
        if self._pivoted is not None:
            samples, systems = self._pivoted
            try:
                z = np.linalg.solve(systems, np.moveaxis(_stack(columns)[:, :, samples], -1, 0))
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(f"(I - loop) solve failed: {exc}") from exc
            b[:, :, samples] = np.moveaxis(z, 0, -1)
        out = _unstack(b, columns.shape[:-2])
        return out[:, 0] if vector else out


def _graph_kernel(graph: PropagationGraph, loop: np.ndarray, frequency_hz) -> PrecomputedKernel:
    """:meth:`PrecomputedKernel.from_loop_block` for a loop block of ``graph``.

    When every loop edge of ``graph`` has a frequency-flat gain, the norm
    bound of its amplitude matrix certifies all samples at once.
    """
    return PrecomputedKernel._checked(loop, frequency_hz, graph._edge_table.loop_bound)


def _flat_loop_contracts(graph: PropagationGraph) -> bool:
    """Whether the flat-gain norm bound alone certifies the loop at every frequency."""
    bound = graph._edge_table.loop_bound
    return bound is not None and bound <= SPECTRAL_RADIUS_LIMIT


def make_kernel(graph: PropagationGraph, freq_hz: float) -> PrecomputedKernel:
    """Contraction-checked (I - loop) for ``graph`` at one frequency."""
    return _graph_kernel(graph, adjacency_blocks(graph, freq_hz).loop, freq_hz)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per sample for frequency-minor stacks (rows, n, m) and (n, cols, m).

    Terms are added in index order, one frequency row at a time.
    """
    rows, n, m = a.shape
    out = np.zeros((rows, b.shape[1], m), dtype=complex)
    for i in range(rows):
        for col in range(b.shape[1]):
            acc = out[i, col]
            for j in range(n):
                acc += a[i, j] * b[j, col]
    return out


def _loop_steps(loop: np.ndarray, start: np.ndarray, steps: int) -> list[np.ndarray]:
    """[start, loop @ start, ..., loop^steps @ start] on frequency-minor stacks."""
    out = [start]
    for _ in range(steps):
        out.append(_matmul(loop, out[-1]))
    return out


def bounce_slices(direct, loop, collect, zt, bounce_ranges) -> list[np.ndarray]:
    """Closed-form bounce-order slices from one solved feed Z = (I - loop)^-1 feed.

    Blocks may carry leading axes (one frequency or a stack of them).  With
    W_j = loop^j @ Z, the slice K:L is collect @ (W_(max(K,1)-1) - W_L),
    dropping W_L for unbounded L and adding the direct block when K = 0.
    The W_j are formed once, up to the largest power any range needs, and
    shared by all ranges.  The work runs on frequency-minor stacks; each
    slice comes back with the leading axes of ``direct``.
    """
    bounce_ranges = tuple(bounce_ranges)
    lead = np.shape(direct)[:-2]
    direct, loop, collect, zt = (_stack(a) for a in (direct, loop, collect, zt))
    leads = [max(r.first, 1) - 1 for r in bounce_ranges]
    top = max(leads + [int(r.last) for r in bounce_ranges if not r.unbounded], default=0)
    powers = _loop_steps(loop, zt, top)
    slices = []
    for r, first in zip(bounce_ranges, leads):
        w = powers[first] if r.unbounded else powers[first] - powers[int(r.last)]
        matrix = _matmul(collect, w)
        if r.first == 0:
            matrix += direct
        slices.append(_unstack(matrix, lead))
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
        w = _loop_steps(_stack(blocks.loop), _stack(blocks.feed), k - 1)[-1]
        matrix = _unstack(_matmul(_stack(blocks.collect), w), ())
    return TransferSample(float(freq_hz), matrix, BounceRange.exactly(k))


def partial_transfer_matrix(
    graph: PropagationGraph, freq_hz: float, bounce_range: BounceRange
) -> TransferSample:
    """Transfer matrix restricted to bounce orders in ``bounce_range``."""
    blocks = adjacency_blocks(graph, freq_hz)
    kernel = _graph_kernel(graph, blocks.loop, freq_hz)
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
    return _graph_kernel(graph, blocks.loop, freq_hz).solve(blocks.feed @ x)
