"""Closed-form transfer matrices for propagation graphs.

The recirculating scatterer field turns the channel into a Neumann series
over bounce orders; as long as the spectral radius of the scatterer loop
block stays below one, the full series and any bounce-order slice of it
collapse to closed forms built around solves against (I - loop).  This
module is the one home of that engine: :func:`verify_contraction` checks
the precondition, :class:`PrecomputedKernel` solves against (I - loop),
and :func:`bounce_slices` forms the slices.  One private object,
:class:`_SampledSystem`, owns a sampled system (its blocks, their
structures, the frequency axis and the loop's flat bound), whether a graph
sampled once on a frequency grid or array or raw blocks.  Its methods check
and factor the loop, solve the feed, form the slices, and share one solve
among receiver placements.  ``synthesis`` builds it on a
:class:`~revgraph.synthesis.FrequencyGrid`, each single-frequency function
below on ``[freq_hz]``: one frequency is the m = 1 case of a stack.

Parity.  The same arithmetic runs on every stack, so what a solve returns
depends only on the blocks it is given:

* An edge is sampled by one factored formula,
  :func:`revgraph.graph._edge_samples`: a coarse table on every B-th
  frequency times a fine table.  B = 1 on arrays, ``[freq_hz]`` among them,
  so one frequency and an array of them agree bit for bit, with each other
  and with :meth:`~revgraph.graph.Edge.transfer_value`.
* A grid takes B = ceil(sqrt(M)), about 2 sqrt(M) cos and sin evaluations
  per edge instead of M.  Its edge samples agree with the B = 1 ones within
  16 eps (1 + 2 pi delay f) of the amplitude, and grid transfer matrices
  with single-frequency calls within 1e-12 of the largest |H| on the grid
  (measured: 6e-14 on the default rooms).  Reruns stay bit for bit.
* Terms whose factor is zero by the graph's structure are skipped, and the
  rest run in the order of the dense loops, so the skip changes no value.
  A bounded range K:L is the sum of its k-bounce terms, formed from the
  feed without a solve; this sum differs from the difference of two
  resolvent products, u_(K-1) Z - u_L Z, by rounding only (measured: within
  1.4e-15 of each column's largest magnitude on the default rooms).
  Unbounded ranges, the full one among them, keep that product form.

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
* A sampled solve holds one n x n x m buffer: the kernel factors
  loop - I in the loop block's own storage, one subtraction per diagonal
  entry away from the samples.  Its factors are those of I - loop with U
  and the pivots negated, exactly, and the slice formulas carry the sign.
  Bounce-order slices need the loop after the solve only through products
  collect @ loop^j, so those are formed on the receiver side before the
  factorization, and the bounded ranges before the solve overwrites the
  feed.
* The structure of each block (where its edges sit) goes into the LU, the
  substitution and every product, which skip the terms of absent entries
  and track the fill-in.  Raw arrays are taken as dense.
* Products multiply whole rows of equal shape, never in place, so one
  sample and a stack of the same blocks agree bit for bit.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._fields import _integer, _named
from .graph import PropagationGraph, block_samples

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
    lead = math.prod(a.shape[:-2])
    return np.ascontiguousarray(np.moveaxis(a.reshape((lead,) + a.shape[-2:]), 0, -1))


def _unstack(a: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_stack` for leading shape ``lead``; a view."""
    return np.moveaxis(a, -1, 0).reshape(lead + a.shape[:2])


def _certify(loop: np.ndarray, freqs: np.ndarray, bound: float | None) -> np.ndarray:
    """Raise unless the frequency-minor loop stack contracts at every sample.

    Returns the samples that only eigenvalues certify.  ``bound`` is a
    frequency-flat norm bound valid at every sample, or None.
    """
    n = loop.shape[0]
    if n == 0 or (bound is not None and bound <= SPECTRAL_RADIUS_LIMIT):
        return np.empty(0, dtype=np.intp)
    # Sums in index order, so that one sample and a stack add alike; |loop|
    # is taken one row at a time.
    columns, rows = np.zeros(loop.shape[1:]), np.zeros(loop.shape[1:])
    for i in range(n):
        magnitude = np.abs(loop[i])
        columns += magnitude
        for j in range(n):
            rows[i] += magnitude[j]
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
    computation replaces the per-sample sums (see :meth:`_SampledSystem.of`).
    Raw arrays, as here, always get the per-sample check.
    """
    _certify(_stack(loop), np.broadcast_to(freqs, np.shape(loop)[:-2]).ravel(), None)


def _bounce_order(value, end: str) -> int | float:
    """An end of a bounce range as an int; ``last`` may also be ``math.inf``.

    Integer-valued reals are accepted; bools are not.
    """
    if end == "last" and isinstance(value, float) and value == math.inf:
        return math.inf
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and value >= 0 and int(value) == value)
    ):
        kind = "a nonnegative integer or infinity" if end == "last" else "a nonnegative integer"
        raise ValueError(f"{end} must be {kind}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BounceRange:
    """Inclusive range of bounce orders, ``last`` may be ``math.inf``."""

    first: int
    last: int | float = math.inf

    def __post_init__(self) -> None:
        for end in ("first", "last"):
            object.__setattr__(self, end, _bounce_order(getattr(self, end), end))
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


def _bounce_ranges(values, name: str) -> tuple[BounceRange, ...]:
    """``values`` as a tuple of bounce ranges, checked before any work; a TypeError names ``name``."""
    values = tuple(values)
    for value in values:
        if not isinstance(value, BounceRange):
            raise TypeError(f"{name}: expected a BounceRange, got {value!r}")
    return values


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
# a stack of the same blocks would no longer agree bit for bit.  Blocks
# sampled on a grid are not those of single-frequency calls: they agree with
# them to rounding only (see the module docstring).
#
# Each also takes the structure of its operands, (rows, cols) booleans that
# are False where an entry is zero at every sample, and skips every term with
# a structurally zero factor.  The terms it keeps run in the order of the
# dense loops, so no entry it computes changes value: a skipped term would
# have added a zero.  A sampled graph's structure is where its edges sit (see
# ``_EdgeTable.patterns``); raw arrays are taken as dense.


def _dense(a: np.ndarray) -> np.ndarray:
    """The structure of a frequency-minor stack with no known zeros: all True."""
    return np.ones(a.shape[:2], dtype=bool)


def _rows(a: np.ndarray) -> list[list[np.ndarray]]:
    """The frequency rows a[i, j] of a stack (rows, cols, m) as views, by row."""
    return [list(row) for row in a]


def _factor(a: np.ndarray, pattern: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """LU factors of a frequency-minor stack (n, n, m) in place, without pivoting.

    The multipliers go below the diagonal, U above it, and the reciprocal
    pivots on it.  ``pattern`` is the structure of ``a`` with its diagonal.
    Rows are eliminated in turn (i, then k, then j), the fill-in is tracked
    as it arises, and terms with a structurally zero multiplier or U entry
    are skipped; each computed entry gets the updates of the dense k-i-j
    elimination in the same order.  Returns the columns of each row of the
    factors' structure, ascending.  Temporaries are single rows.
    """
    rows = _rows(a)
    filled, upper = [], []
    for i, row in enumerate(rows):
        columns = set(np.flatnonzero(pattern[i]).tolist())
        for k in range(i):
            if k in columns:
                pivot_row = rows[k]
                multiplier = row[k]
                multiplier[...] = multiplier * pivot_row[k]
                for j in upper[k]:
                    row[j] -= multiplier * pivot_row[j]
                columns.update(upper[k])
        row[i][...] = 1.0 / row[i]
        filled.append(tuple(sorted(columns)))
        upper.append([j for j in filled[i] if j > i])
    return tuple(filled)


def _substitute(lu: np.ndarray, filled, b: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Solve with the factors of :func:`_factor` and their structure ``filled``, in place.

    ``b`` is (n, cols, m) with structure ``pattern``.  Each entry gets the
    updates of the dense column sweeps in the same order, less those from
    structurally zero factors or solution entries.  Returns the structure
    of the solution.
    """
    n = lu.shape[0]
    lu = _rows(lu)
    lower = [[k for k in row if k < i] for i, row in enumerate(filled)]
    upper = [[k for k in reversed(row) if k > i] for i, row in enumerate(filled)]
    solved = pattern.copy()
    for z, present in zip(zip(*_rows(b)), solved.T):
        z = list(z)
        for i in range(n):
            for k in lower[i]:
                if present[k]:
                    z[i] -= lu[i][k] * z[k]
                    present[i] = True
        for i in range(n - 1, -1, -1):
            for k in upper[i]:
                if present[k]:
                    z[i] -= lu[i][k] * z[k]
                    present[i] = True
            if present[i]:
                z[i][...] = z[i] * lu[i][i]
    return solved


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

    What is factored is loop - I, formed in the loop samples' own storage
    by one subtraction per diagonal entry.  Its factors are exactly those of
    I - loop with U and the pivots negated, so :meth:`solve` negates the
    right-hand side and returns (I - loop)^-1 rhs with the values of a
    factorization of I - loop.  The engine hands over the loop block's own
    storage and its structure, so a sampled solve holds one n x n x m buffer
    and skips the terms of absent edges; :meth:`from_loop_block` factors a
    dense copy and leaves its input unchanged.
    """

    frequency_hz: float | np.ndarray
    _system: np.ndarray  # frequency-minor LU factors of loop - I
    _filled: tuple[tuple[int, ...], ...]  # the factors' structure, by row (see _factor)
    _pivoted: tuple[np.ndarray, np.ndarray] | None = None  # samples and loop - I, for LAPACK

    @classmethod
    def from_loop_block(cls, loop: np.ndarray, frequency_hz) -> "PrecomputedKernel":
        """Check and factor a copy of one loop block (n, n) or a stack (..., n, n)."""
        kernel = _SampledSystem.of_blocks(frequency_hz, loop=loop).factor()
        return replace(kernel, frequency_hz=frequency_hz)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - loop) @ z = rhs for one or more right-hand-side columns.

        ``rhs`` is (n,) or (n, cols) for a one-frequency kernel and
        (m, n, cols) for a stack of m; any other shape raises ValueError.
        """
        rhs = np.asarray(rhs, dtype=complex)
        n, _, m = self._system.shape
        vector = rhs.ndim == 1
        columns = rhs[:, None] if vector else rhs
        rows_ok = columns.ndim >= 2 and columns.shape[-2] == n
        if not (rows_ok and math.prod(columns.shape[:-2]) == m):
            expected = f"({n},) or ({n}, cols)" if m == 1 else f"({m}, {n}, cols)"
            raise ValueError(f"right-hand side must have shape {expected}, got {rhs.shape}")
        if n == 0:
            return rhs.copy()
        b = np.negative(_stack(columns))  # (loop - I) z = -rhs
        self._solve_stack(b, _dense(b))
        out = _unstack(b, columns.shape[:-2])
        return out[:, 0] if vector else out

    def _solve_stack(self, b: np.ndarray, pattern: np.ndarray) -> np.ndarray:
        """Overwrite ``b`` (n, cols, m) with (loop - I)^-1 b.

        ``pattern`` is the structure of ``b``; the structure of the solution
        is returned.
        """
        dense = None
        if self._pivoted is not None:
            samples, systems = self._pivoted
            try:
                dense = np.linalg.solve(systems, np.moveaxis(b[:, :, samples], -1, 0))
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(f"(I - loop) solve failed: {exc}") from exc
        solved = _substitute(self._system, self._filled, b, pattern)
        if dense is not None:
            b[:, :, samples] = np.moveaxis(dense, 0, -1)
        return solved


def _flat_certified(graph: PropagationGraph) -> bool:
    """Whether the flat bound of ``graph`` certifies its loop at every frequency, unsampled."""
    bound = graph._edge_table.loop_bound
    return bound is not None and bound <= SPECTRAL_RADIUS_LIMIT


def _loop_is_contractive(graph: PropagationGraph, freqs) -> bool:
    """Whether the scatterer loop of ``graph`` contracts at every frequency in ``freqs``.

    A flat bound that certifies the loop decides without sampling (see
    :func:`_flat_certified`); any other loop is sampled at ``freqs`` and
    checked sample by sample.
    """
    if _flat_certified(graph):
        return True
    try:
        verify_contraction(block_samples(graph, freqs).loop, freqs)
    except SpectralRadiusExceeded:
        return False
    return True


def _matmul(a: np.ndarray, pa, b: np.ndarray, pb) -> tuple[np.ndarray, np.ndarray]:
    """a @ b per sample for frequency-minor stacks (rows, n, m) and (n, cols, m), and its structure.

    ``pa`` and ``pb`` are the structures of ``a`` and ``b``.  Terms are added
    in index order, one frequency row at a time.
    """
    out = np.zeros((a.shape[0], b.shape[1], a.shape[2]), dtype=complex)
    b_rows = _rows(b)
    columns = [np.flatnonzero(c).tolist() for c in pb.T]
    for a_row, present, out_row in zip(_rows(a), pa.tolist(), _rows(out)):
        for col, (acc, terms) in enumerate(zip(out_row, columns)):
            for j in terms:
                if present[j]:
                    acc += a_row[j] * b_rows[j][col]
    return out, np.matmul(pa, pb)


def _tail(direct, product: np.ndarray, first: int) -> np.ndarray:
    """The range first:inf from its product u_(max(first,1)-1) @ W, W = -Z."""
    return direct - product if first == 0 else np.negative(product)


def _orders(bounce_range: BounceRange) -> range:
    """The bounce orders k >= 1 of a bounded range, each a term u_(k-1) @ feed."""
    return range(max(bounce_range.first, 1), int(bounce_range.last) + 1)


class _SampledSystem:
    """One system sampled on a frequency axis, and the engine's steps on it.

    ``blocks`` holds the frequency-minor direct, feed, loop and collect
    stacks (rows, cols, m), which the system owns, and ``patterns`` their
    structures; ``freqs`` holds the m frequencies in the leading shape of
    the results, and ``bound`` is a flat norm bound of the loop or None.  A
    sampled graph's system also keeps its edge table and the grid or array
    it was sampled on.  Factoring uses up the loop and solving overwrites
    the feed, so each runs at most once.
    """

    def __init__(self, blocks, patterns, freqs, bound, table=None, axis=None):
        self.blocks, self.patterns, self.freqs, self.bound = blocks, patterns, freqs, bound
        self.table, self.axis = table, axis

    @classmethod
    def of(cls, graph: PropagationGraph, freqs) -> "_SampledSystem":
        """The four blocks of ``graph`` sampled once on ``freqs``, a grid or an array.

        The loop's bound is the graph's flat bound: when every loop edge has
        a frequency-flat gain, the norm bound of the loop's amplitude matrix
        certifies all samples at once.
        """
        samples = block_samples(graph, freqs)
        table = graph._edge_table
        # the read-only blocks are views of storage that this call alone
        # holds; the system works in that storage
        blocks = {name: getattr(samples, name).base for name in ("direct", "feed", "loop", "collect")}
        return cls(blocks, table.patterns, samples.freqs, table.loop_bound, table, freqs)

    @classmethod
    def of_blocks(cls, frequency_hz=math.nan, **blocks) -> "_SampledSystem":
        """A system of raw blocks, each one block or a stack (..., rows, cols) on the first one's leading axes.

        Raw arrays are taken as dense, and the loop and feed, which the steps
        overwrite, are copied, so the inputs are only read.  ``frequency_hz``
        labels the samples; NaN when no frequencies are known.
        """
        freqs = np.broadcast_to(frequency_hz, np.shape(next(iter(blocks.values())))[:-2])
        stacks = {name: _stack(b).copy() if name in ("feed", "loop") else _stack(b)
                  for name, b in blocks.items()}
        patterns = {name: _dense(stack) for name, stack in stacks.items()}
        return cls(stacks, patterns, freqs, None)

    def factor(self) -> PrecomputedKernel:
        """Check the loop, then factor loop - I in its own storage, which the kernel takes over."""
        stack = self.blocks.pop("loop")
        freqs = self.freqs.ravel()
        pivoted = _certify(stack, freqs, self.bound)
        n = stack.shape[0]
        for i in range(n):
            diagonal = stack[i, i]
            diagonal -= 1.0
        dense = None
        if pivoted.size:
            dense = (pivoted, np.moveaxis(stack[:, :, pivoted], -1, 0))
            stack[:, :, pivoted] = np.eye(n)[..., None]  # eliminated harmlessly, then replaced
        filled = _factor(stack, self.patterns["loop"] | np.eye(n, dtype=bool))
        return PrecomputedKernel(freqs, stack, filled, dense)

    def solve(self) -> np.ndarray:
        """Factor, overwrite the feed with W = -Z, and release the loop; W's structure."""
        return self.factor()._solve_stack(self.blocks["feed"], self.patterns["feed"])

    def slices(self, bounce_ranges) -> list[np.ndarray]:
        """The slices of :func:`bounce_slices`, one stack (..., rows, cols) per range, led like ``freqs``.

        The powers and k-bounce terms come first, then the solve if a range
        is unbounded; the loop is released before any slice is formed.
        """
        blocks, patterns = self.blocks, self.patterns
        bounded = [(i, r) for i, r in enumerate(bounce_ranges) if not r.unbounded]
        tails = [(i, r) for i, r in enumerate(bounce_ranges) if r.unbounded]
        top = max([r.last - 1 for _, r in bounded] + [max(r.first, 1) - 1 for _, r in tails],
                  default=0)
        powers = [(blocks["collect"], patterns["collect"])]  # u_j = collect @ loop^j and its structure
        for _ in range(top):
            powers.append(_matmul(*powers[-1], blocks["loop"], patterns["loop"]))
        orders = sorted({k for _, r in bounded for k in _orders(r)})
        terms = {k: _matmul(*powers[k - 1], blocks["feed"], patterns["feed"])[0] for k in orders}
        if tails:
            solved = self.solve()
        blocks.pop("loop", None)
        direct, feed = blocks["direct"], blocks["feed"]
        slices = {}
        for i, r in bounded:
            slices[i] = direct.copy() if r.first == 0 else np.zeros_like(direct)
            for k in _orders(r):
                slices[i] += terms[k]
        products = {}
        for i, r in tails:
            j = max(r.first, 1) - 1
            if j not in products:
                products[j], _ = _matmul(*powers[j], feed, solved)
            slices[i] = _tail(direct, products[j], r.first)
        return [_unstack(slices[i], self.freqs.shape) for i in range(len(bounce_ranges))]

    def placements(self, graphs):
        """The full-range response (m, n_rx, n_tx) of each graph in ``graphs``, taken lazily.

        Each is the sampled graph with a receiver moved.  A move changes only
        the direct and collect blocks, so Z = (I - loop)^-1 feed serves every
        placement, which samples those two blocks alone.  Its table must hold
        the block shapes and the feed and loop rows (indices, delays, phases,
        gains) of the sampled graph's, or RuntimeError is raised.
        """
        solved = self.solve()
        w, self.blocks = self.blocks["feed"], {}  # w is -Z; direct and collect are released
        base = self.table
        scatterer_side = (base.shapes, base.rows["feed"], base.rows["loop"])
        for table in (graph._edge_table for graph in graphs):
            if (table.shapes, table.rows["feed"], table.rows["loop"]) != scatterer_side:
                raise RuntimeError("receiver move altered scatterer-side edges")
            _, placed = table.stacks(self.axis, ("direct", "collect"))
            product, _ = _matmul(placed["collect"], table.patterns["collect"], w, solved)
            yield _unstack(_tail(placed["direct"], product, 0), self.freqs.shape)


def make_kernel(graph: PropagationGraph, freq_hz: float) -> PrecomputedKernel:
    """Contraction-checked (I - loop) for ``graph`` at one frequency."""
    return replace(_SampledSystem.of(graph, [freq_hz]).factor(), frequency_hz=freq_hz)


def bounce_slices(direct, loop, collect, feed, bounce_ranges) -> list[np.ndarray]:
    """Closed-form bounce-order slices of one system's blocks.

    Blocks may carry leading axes (one frequency or a stack of them).  The
    slices are evaluated from the receiver side, with u_0 = collect and
    u_(j+1) = u_j @ loop formed once up to the largest power any range
    needs:

    * a bounded range K:L sums the k-bounce terms u_(k-1) @ feed for
      k = max(K, 1)..L, plus the direct block when K = 0.  It needs no
      solve, so the loop need not contract;
    * an unbounded range K:inf is u_(max(K,1)-1) @ Z, plus the direct block
      when K = 0, with Z = (I - loop)^-1 feed.  Only such a range checks
      the loop's contraction (raising :class:`SpectralRadiusExceededAt`,
      whose ``frequency_hz`` is NaN: no frequencies are given here) and
      solves for Z.

    Each product is formed once and shared by all ranges; the inputs are
    only read.  The work runs on frequency-minor stacks; each slice comes
    back with the leading axes of ``direct``.
    """
    bounce_ranges = _bounce_ranges(bounce_ranges, "bounce_ranges")
    system = _SampledSystem.of_blocks(direct=direct, feed=feed, loop=loop, collect=collect)
    return system.slices(bounce_ranges)


def transfer_matrix(graph: PropagationGraph, freq_hz: float) -> TransferSample:
    """Full transfer matrix: direct block plus the resolvent-collapsed series."""
    return partial_transfer_matrix(graph, freq_hz, BounceRange.full())


def k_bounce_matrix(graph: PropagationGraph, freq_hz: float, k: int) -> TransferSample:
    """Contribution of exactly-k-bounce paths (finite product, no convergence needed)."""
    k = _named(_integer, k, "k")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return partial_transfer_matrix(graph, freq_hz, BounceRange.exactly(k))


def partial_transfer_matrix(
    graph: PropagationGraph, freq_hz: float, bounce_range: BounceRange
) -> TransferSample:
    """Transfer matrix restricted to bounce orders in ``bounce_range``."""
    ranges = _bounce_ranges((bounce_range,), "bounce_range")
    (matrix,) = _SampledSystem.of(graph, [freq_hz]).slices(ranges)
    return TransferSample(float(freq_hz), matrix[0], bounce_range)


def truncation_error(
    graph: PropagationGraph, freq_hz: float, truncation_order: int
) -> tuple[TransferSample, float]:
    """Tail beyond a bounce-order truncation and its Frobenius norm."""
    truncation_order = _named(_integer, truncation_order, "truncation_order")
    if truncation_order < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation_order}")
    tail = partial_transfer_matrix(graph, freq_hz, BounceRange.tail(truncation_order + 1))
    return tail, float(np.linalg.norm(tail.matrix, "fro"))


def scatterer_signal(graph: PropagationGraph, freq_hz: float, x: np.ndarray) -> np.ndarray:
    """Steady-state scatterer output Z solving Z = feed @ X + loop @ Z."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (graph.n_tx,):
        raise ValueError(f"input vector must have shape ({graph.n_tx},), got {x.shape}")
    system = _SampledSystem.of(graph, [freq_hz])
    return system.factor().solve(system.blocks["feed"][:, :, 0] @ x)
