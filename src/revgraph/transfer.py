"""Closed-form transfer matrices for propagation graphs.

The recirculating scatterer field turns the channel into a Neumann series
over bounce orders; as long as the spectral radius of the scatterer loop
block stays below one, the full series and any bounce-order slice of it
collapse to closed forms built around solves against (I - loop).  This
module is the one home of that engine: :func:`verify_contraction` checks
the precondition, :class:`PrecomputedKernel` solves against (I - loop),
and :func:`bounce_slices` forms the slices.  Every graph is sampled at one
entry, :func:`_sample_blocks`, on a frequency grid or array.
:func:`_sample_slices` forms the slices from those blocks,
:func:`_sample_system` returns them with their checked, factored kernel,
and :func:`_sample_placements` shares one solve among receiver placements.
The grid sampling and spatial sweeps in ``synthesis`` call them with a
:class:`~revgraph.synthesis.FrequencyGrid`, and each single-frequency
function below with ``[freq_hz]``: one frequency is the m = 1 case of a
stack.  :func:`_slices` alone forms the closed form.

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
from .graph import PropagationGraph, adjacency_blocks, block_samples

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
    computation replaces the per-sample sums (see :func:`_sample_system`).
    Raw arrays, as here, always get the per-sample check.
    """
    loop = np.asarray(loop)
    _certify(_stack(loop), np.broadcast_to(freqs, loop.shape[:-2]).ravel(), None)


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
        loop = np.asarray(loop)
        freqs = np.broadcast_to(frequency_hz, loop.shape[:-2]).ravel()
        stack = _stack(loop).copy()
        kernel = cls._checked(stack, freqs, None, _dense(stack))
        return replace(kernel, frequency_hz=frequency_hz)

    @classmethod
    def _checked(
        cls, stack: np.ndarray, freqs, bound: float | None, pattern: np.ndarray
    ) -> "PrecomputedKernel":
        """Check the frequency-minor loop stack (n, n, m), then factor loop - I over it in place.

        ``pattern`` is the loop's structure.
        """
        pivoted = _certify(stack, freqs, bound)
        n = stack.shape[0]
        for i in range(n):
            diagonal = stack[i, i]
            diagonal -= 1.0
        dense = None
        if pivoted.size:
            dense = (pivoted, np.moveaxis(stack[:, :, pivoted], -1, 0))
            stack[:, :, pivoted] = np.eye(n)[..., None]  # eliminated harmlessly, then replaced
        filled = _factor(stack, pattern | np.eye(n, dtype=bool))
        return cls(freqs, stack, filled, dense)

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


def _sample_blocks(graph: PropagationGraph, freqs) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The four frequency-minor blocks of ``graph`` sampled once on ``freqs``, and the axis.

    ``freqs`` is a frequency grid or an array, as :func:`block_samples`
    takes.  The caller owns the blocks.
    """
    samples = block_samples(graph, freqs)
    # the read-only blocks are views of storage that this call alone holds;
    # the engine works in that storage
    names = ("direct", "feed", "loop", "collect")
    return {name: getattr(samples, name).base for name in names}, samples.freqs


def _sample_system(
    graph: PropagationGraph, freqs
) -> tuple[dict[str, np.ndarray], PrecomputedKernel]:
    """The blocks of ``graph`` sampled once on ``freqs``, and their checked, factored kernel.

    Returns the frequency-minor ``direct``, ``feed`` and ``collect`` blocks,
    which the caller owns, and the kernel, which factors loop - I in the loop
    block's own storage and skips the terms of absent loop edges.  The
    kernel is built with the graph's flat bound: when every loop edge has a
    frequency-flat gain, the norm bound of the loop's amplitude matrix
    certifies all samples at once.
    """
    blocks, freqs = _sample_blocks(graph, freqs)
    table = graph._edge_table
    loop = blocks.pop("loop")
    kernel = PrecomputedKernel._checked(loop, freqs, table.loop_bound, table.patterns["loop"])
    return blocks, kernel


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


def make_kernel(graph: PropagationGraph, freq_hz: float) -> PrecomputedKernel:
    """Contraction-checked (I - loop) for ``graph`` at one frequency."""
    _, kernel = _sample_system(graph, [freq_hz])
    return replace(kernel, frequency_hz=freq_hz)


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


def _slices(blocks, patterns, freqs, bound, bounce_ranges) -> list[np.ndarray]:
    """The slices of :func:`bounce_slices`, frequency-minor, from one system's blocks.

    ``blocks`` and ``patterns`` hold the frequency-minor direct, feed, loop
    and collect blocks and their structures; ``freqs`` and ``bound`` are
    passed to :meth:`PrecomputedKernel._checked`.  The loop and feed are
    taken out of ``blocks``: the powers and the k-bounce terms are formed
    first, then, when a range is unbounded, the loop is factored and the
    feed solved in place, and the loop is released before any slice is
    formed.
    """
    direct, collect = blocks["direct"], blocks["collect"]
    feed, loop = blocks.pop("feed"), blocks.pop("loop")
    bounded = [(i, r) for i, r in enumerate(bounce_ranges) if not r.unbounded]
    tails = [(i, r) for i, r in enumerate(bounce_ranges) if r.unbounded]
    top = max([r.last - 1 for _, r in bounded] + [max(r.first, 1) - 1 for _, r in tails],
              default=0)
    powers = [(collect, patterns["collect"])]  # u_j = collect @ loop^j and its structure
    for _ in range(top):
        powers.append(_matmul(*powers[-1], loop, patterns["loop"]))
    orders = sorted({k for _, r in bounded for k in _orders(r)})
    terms = {k: _matmul(*powers[k - 1], feed, patterns["feed"])[0] for k in orders}
    if tails:
        kernel = PrecomputedKernel._checked(loop, freqs, bound, patterns["loop"])
        solved = kernel._solve_stack(feed, patterns["feed"])  # feed now holds W = -Z
        del kernel
    del loop
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
    return [slices[i] for i in range(len(bounce_ranges))]


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
    lead = np.shape(direct)[:-2]
    blocks = {"direct": _stack(direct), "feed": _stack(feed).copy(),
              "loop": _stack(loop).copy(), "collect": _stack(collect)}
    patterns = {name: _dense(block) for name, block in blocks.items()}
    m = blocks["direct"].shape[-1]
    slices = _slices(blocks, patterns, np.full(m, np.nan), None, tuple(bounce_ranges))
    return [_unstack(s, lead) for s in slices]


def _sample_slices(graph: PropagationGraph, freqs, bounce_ranges) -> list[np.ndarray]:
    """Bounce-order slices of ``graph`` on ``freqs``, one (m, n_rx, n_tx) stack per range."""
    blocks, freqs = _sample_blocks(graph, freqs)
    table = graph._edge_table
    slices = _slices(blocks, table.patterns, freqs, table.loop_bound, tuple(bounce_ranges))
    return [_unstack(s, freqs.shape) for s in slices]


def _sample_placements(graph: PropagationGraph, freqs, placements):
    """The full-range response (m, n_rx, n_tx) of each graph in ``placements``, taken lazily.

    Each is ``graph`` with a receiver moved.  A move changes only the direct
    and collect blocks, so Z = (I - loop)^-1 feed of ``graph`` serves every
    placement, which samples those two blocks alone.  Its table must hold
    the block shapes and the feed and loop rows (indices, delays, phases,
    gains) of ``graph``'s, or RuntimeError is raised.
    """
    blocks, kernel = _sample_system(graph, freqs)
    base = graph._edge_table
    w = blocks["feed"]
    solved = kernel._solve_stack(w, base.patterns["feed"])  # w now holds -Z
    del blocks, kernel
    scatterer_side = (base.shapes, base.rows["feed"], base.rows["loop"])
    for table in (placement._edge_table for placement in placements):
        if (table.shapes, table.rows["feed"], table.rows["loop"]) != scatterer_side:
            raise RuntimeError("receiver move altered scatterer-side edges")
        _, placed = table.stacks(freqs, ("direct", "collect"))
        product, _ = _matmul(placed["collect"], table.patterns["collect"], w, solved)
        yield _unstack(_tail(placed["direct"], product, 0), w.shape[-1:])


def transfer_matrix(graph: PropagationGraph, freq_hz: float) -> TransferSample:
    """Full transfer matrix: direct block plus the resolvent-collapsed series."""
    return partial_transfer_matrix(graph, freq_hz, BounceRange.full())


def k_bounce_matrix(graph: PropagationGraph, freq_hz: float, k: int) -> TransferSample:
    """Contribution of exactly-k-bounce paths (finite product, no convergence needed)."""
    k = _named(_integer, k, "k")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    blocks = adjacency_blocks(graph, freq_hz)
    bounce_range = BounceRange.exactly(k)
    (matrix,) = bounce_slices(
        blocks.direct, blocks.loop, blocks.collect, blocks.feed, (bounce_range,)
    )
    return TransferSample(float(freq_hz), matrix, bounce_range)


def partial_transfer_matrix(
    graph: PropagationGraph, freq_hz: float, bounce_range: BounceRange
) -> TransferSample:
    """Transfer matrix restricted to bounce orders in ``bounce_range``."""
    (matrix,) = _sample_slices(graph, [freq_hz], (bounce_range,))
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
    blocks, kernel = _sample_system(graph, [freq_hz])
    return kernel.solve(blocks["feed"][:, :, 0] @ x)
