"""Directed propagation graphs for reverberant radio channels.

A channel is modelled as a directed graph whose vertices are transmitters,
receivers, and scatterers.  Each edge carries a complex transfer function
built from an amplitude law, a fixed phase, and a propagation delay.  This
module owns the graph data model, the frequency-domain adjacency blocks,
graph reversal, JSON round-tripping, and a brute-force path enumerator that
serves as the reference oracle for the closed-form engine.

Block index convention: entry ``[row, col]`` weights the edge from source
vertex ``col`` to destination vertex ``row``, so a signal column vector is
propagated by left-multiplication.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Mapping, NamedTuple, Union

import numpy as np

from ._fields import _integer, _named, _number

__all__ = [
    "StructuralViolation",
    "MissingPositions",
    "ExplosionGuard",
    "InvalidWalk",
    "VertexKind",
    "VertexId",
    "tx",
    "rx",
    "scatterer",
    "EdgeClass",
    "ConstantGain",
    "FrequencyLawGain",
    "EdgeGainSpec",
    "Edge",
    "PropagationGraph",
    "AdjacencyBlocks",
    "BlockSamples",
    "adjacency_blocks",
    "block_samples",
    "reverse_graph",
    "enumerate_paths",
    "path_transfer",
    "walk_sum",
    "graph_to_json",
    "graph_from_json",
]

TWO_PI = 2.0 * math.pi


# -- Errors -------------------------------------------------------------------


class StructuralViolation(ValueError):
    """An edge set breaks the propagation-graph wiring rules."""


class MissingPositions(ValueError):
    """An operation needs vertex coordinates that were not supplied."""


class ExplosionGuard(RuntimeError):
    """Path enumeration exceeded its configured budget."""


class InvalidWalk(ValueError):
    """A vertex sequence is not a valid propagation path."""


_count = partial(_named, _integer)  # an int; bools are not integers
_real = partial(_named, _number)  # a finite float


# -- Vertices -----------------------------------------------------------------


class VertexKind(enum.Enum):
    TX = "tx"
    RX = "rx"
    SCATTERER = "s"


@dataclass(frozen=True)
class VertexId:
    """A vertex, identified by its role and its index within that role."""

    kind: VertexKind
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _count(self.index, "index"))
        if self.index < 0:
            raise ValueError(f"vertex index must be nonnegative, got {self.index}")

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"


def tx(index: int) -> VertexId:
    return VertexId(VertexKind.TX, index)


def rx(index: int) -> VertexId:
    return VertexId(VertexKind.RX, index)


def scatterer(index: int) -> VertexId:
    return VertexId(VertexKind.SCATTERER, index)


def _vertices(n_tx: int, n_rx: int, n_scatterers: int) -> Iterator[VertexId]:
    for i in range(n_tx):
        yield tx(i)
    for i in range(n_rx):
        yield rx(i)
    for i in range(n_scatterers):
        yield scatterer(i)


# -- Edge gains ---------------------------------------------------------------


class EdgeClass(enum.Enum):
    """Edge classes induced by the endpoint roles."""

    DIRECT = "direct"                # transmitter -> receiver
    TX_SCATTER = "tx_scatter"        # transmitter -> scatterer
    SCATTER_RX = "scatter_rx"        # scatterer -> receiver
    INTER_SCATTER = "inter_scatter"  # scatterer -> scatterer


# The edge class of each (source kind, destination kind) pair an edge may join.
_CLASS_OF_ENDPOINTS = {
    (VertexKind.TX, VertexKind.RX): EdgeClass.DIRECT,
    (VertexKind.TX, VertexKind.SCATTERER): EdgeClass.TX_SCATTER,
    (VertexKind.SCATTERER, VertexKind.RX): EdgeClass.SCATTER_RX,
    (VertexKind.SCATTERER, VertexKind.SCATTERER): EdgeClass.INTER_SCATTER,
}


@dataclass(frozen=True)
class ConstantGain:
    """Frequency-flat amplitude gain."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"constant gain must be finite and >= 0, got {self.value}")

    @property
    def flat_amplitude(self) -> float:
        return float(self.value)

    def amplitude(self, freq_hz, delay_s: float) -> np.ndarray:
        return np.full(np.shape(freq_hz), self.value, dtype=float)


@dataclass(frozen=True)
class FrequencyLawGain:
    """Amplitude law of the in-room scattering model.

    Class-level statistics (mean delay, summed inverse-square delays,
    shared inter-scatterer gain, out-degree) are baked in when a
    realization is drawn, so the edge can later be evaluated at any
    frequency without access to the rest of the graph.

    Squared amplitudes by law, for an edge with delay ``tau``:

    * ``DIRECT``:        1 / (4 pi f tau)^2
    * ``TX_SCATTER``:    1 / (4 pi f mu) * tau^-2 / s_inv
    * ``SCATTER_RX``:    1 / (4 pi f mu) * tau^-2 / s_inv
    * ``INTER_SCATTER``: (base_gain / out_degree)^2, flat in frequency
    """

    law: EdgeClass
    mean_delay_s: float | None = None
    inv_sq_delay_sum: float | None = None
    base_gain: float | None = None
    out_degree: int | None = None

    def __post_init__(self) -> None:
        if self.law in (EdgeClass.TX_SCATTER, EdgeClass.SCATTER_RX):
            if self.mean_delay_s is None or self.inv_sq_delay_sum is None:
                raise ValueError(f"{self.law.value} law needs class delay statistics")
            if self.mean_delay_s <= 0.0 or self.inv_sq_delay_sum <= 0.0:
                raise ValueError("class delay statistics must be positive")
        elif self.law is EdgeClass.INTER_SCATTER:
            if self.base_gain is None or self.out_degree is None:
                raise ValueError("inter_scatter law needs base_gain and out_degree")
            object.__setattr__(self, "out_degree", _count(self.out_degree, "out_degree"))
            if not 0.0 <= self.base_gain or not math.isfinite(self.base_gain):
                raise ValueError(f"base_gain must be finite and >= 0, got {self.base_gain}")
            if self.out_degree < 1:
                raise ValueError(f"out_degree must be >= 1, got {self.out_degree}")

    @property
    def flat_amplitude(self) -> float | None:
        """The amplitude of the frequency-flat law, None for the others."""
        return self.base_gain / self.out_degree if self.law is EdgeClass.INTER_SCATTER else None

    def amplitude(self, freq_hz, delay_s: float) -> np.ndarray:
        f = np.asarray(freq_hz, dtype=float)
        if self.law is EdgeClass.DIRECT:
            return 1.0 / (4.0 * math.pi * f * delay_s)
        if self.law in (EdgeClass.TX_SCATTER, EdgeClass.SCATTER_RX):
            sq = 1.0 / (4.0 * math.pi * f * self.mean_delay_s)
            sq = sq / (delay_s * delay_s * self.inv_sq_delay_sum)
            return np.sqrt(sq)
        return np.full(f.shape, self.flat_amplitude, dtype=float)


EdgeGainSpec = Union[ConstantGain, FrequencyLawGain]

_LAWS_NEEDING_DELAY = (EdgeClass.DIRECT, EdgeClass.TX_SCATTER, EdgeClass.SCATTER_RX)


# -- Edges --------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """A directed edge with transfer function gain * exp(j(phase - 2 pi f delay))."""

    src: VertexId
    dst: VertexId
    gain: EdgeGainSpec
    phase_rad: float = 0.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        # Scatterer self-loops are legal here; the stochastic scenario layer
        # is what rules them out.
        if self.src.kind is VertexKind.RX:
            raise StructuralViolation(f"edge {self.src}->{self.dst} leaves a receiver")
        if self.dst.kind is VertexKind.TX:
            raise StructuralViolation(f"edge {self.src}->{self.dst} enters a transmitter")
        if not math.isfinite(self.delay_s) or self.delay_s < 0.0:
            raise ValueError(f"delay must be finite and >= 0, got {self.delay_s}")
        if not 0.0 <= self.phase_rad < TWO_PI:
            raise ValueError(f"phase must lie in [0, 2 pi), got {self.phase_rad}")
        if isinstance(self.gain, FrequencyLawGain) and self.gain.law in _LAWS_NEEDING_DELAY:
            if self.delay_s <= 0.0:
                raise ValueError(f"{self.gain.law.value} gain law needs a positive delay")

    @property
    def edge_class(self) -> EdgeClass:
        return _CLASS_OF_ENDPOINTS[self.src.kind, self.dst.kind]

    def transfer_value(self, freq_hz):
        """Complex transfer function of this edge at one or more frequencies (see :func:`_edge_samples`)."""
        f = np.asarray(freq_hz, dtype=float)
        value = np.empty(f.shape, dtype=complex)
        _edge_samples((_EdgeRow.of(self),), f.ravel(), None, (value.reshape(-1),))
        return complex(value) if np.isscalar(freq_hz) else value


def _phasors(x: np.ndarray) -> np.ndarray:
    """cos x + j sin x, as a fresh complex array."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _edge_samples(rows, f: np.ndarray, df: float | None, out) -> None:
    """Write the samples of edge ``rows`` on the axis ``f`` into ``out``, one array per row.

    This is the one formula for an edge sample.  Writing m = bB + r, an
    edge's phasor factors as

        e^(j(phase - 2 pi delay f_bB)) * e^(-j 2 pi delay r df),

    a coarse table on f[::B] times a fine table, taken for all rows at once.
    A uniform grid (spacing ``df``) takes B = ceil(sqrt(M)), so a row costs
    about 2 sqrt(M) cos and sin evaluations and one outer product of the two
    tables instead of M evaluations.  Any other axis (``df`` None) takes
    B = 1: every frequency is a coarse point and the fine table is exactly
    1 - 0j, so a sample is the amplitude times cos and sin of
    phase - 2 pi delay f whatever the rounding (up to the sign of a zero
    part, which takes a zero gain), and one frequency and an array of them
    agree bit for bit.  A flat amplitude scales the coarse table; any other
    multiplies the row, amplitude first.  Frequencies must be finite, and
    strictly positive when a row's amplitude is a law of frequency.

    On a grid the factored form differs from the B = 1 one by rounding only:
    each rounds an argument near 2 pi delay f, and the factored form adds
    the roundings of a product of unit phasors.  The tolerance is
    16 eps (1 + 2 pi delay f) of the amplitude; the default grids use at
    most 3.1 of the 16, and there the factored form lies no further from a
    long-double phasor than B = 1.
    """
    if not np.isfinite(f).all():
        raise ValueError("frequencies must be finite")
    if any(row.flat is None for row in rows) and not (f > 0.0).all():
        raise ValueError("frequency-law gains require strictly positive frequencies")
    m = f.size
    width = 1 if df is None else math.isqrt(m - 1) + 1  # B
    whole, rest = divmod(m, width)
    two_pi_delay = np.array([row.two_pi_delay for row in rows])[:, None]
    phase = np.array([row.phase for row in rows])[:, None]
    coarse = _phasors(phase - two_pi_delay * f[::width])
    fine = _phasors(two_pi_delay * (-(df or 0.0) * np.arange(width)))
    for row, c, r, o in zip(rows, coarse, fine, out):
        if row.flat is not None:
            c = row.flat * c
        np.multiply(c[:whole, None], r, out=o[:whole * width].reshape(whole, width))
        if rest:
            np.multiply(c[whole:], r[:rest], out=o[whole * width:])
        if row.flat is None:
            np.multiply(row.gain.amplitude(f, row.delay_s), o, out=o)


# -- Graph --------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationGraph:
    """Immutable propagation graph.

    Transmitters have no inbound edges, receivers no outbound edges, and
    parallel edges are rejected.  Scatterer self-loops are accepted and sit
    on the diagonal of the loop block.  ``positions`` is optional; when
    given it must cover every vertex (geometric operations fail with
    :class:`MissingPositions` otherwise).
    """

    n_tx: int
    n_rx: int
    n_scatterers: int
    edges: tuple[Edge, ...]
    positions: Mapping[VertexId, tuple[float, float, float]] | None = None

    def __post_init__(self) -> None:
        for name in ("n_tx", "n_rx", "n_scatterers"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.n_tx < 1 or self.n_rx < 1 or self.n_scatterers < 0:
            raise StructuralViolation(
                f"need n_tx >= 1, n_rx >= 1, n_scatterers >= 0; got "
                f"({self.n_tx}, {self.n_rx}, {self.n_scatterers})"
            )
        object.__setattr__(self, "edges", tuple(self.edges))
        counts = {
            VertexKind.TX: self.n_tx,
            VertexKind.RX: self.n_rx,
            VertexKind.SCATTERER: self.n_scatterers,
        }
        edge_map: dict[tuple[VertexId, VertexId], Edge] = {}
        for edge in self.edges:
            for end in (edge.src, edge.dst):
                if end.index >= counts[end.kind]:
                    raise StructuralViolation(f"vertex {end} out of range")
            key = (edge.src, edge.dst)
            if key in edge_map:
                raise StructuralViolation(f"parallel edge {edge.src}->{edge.dst}")
            edge_map[key] = edge
        object.__setattr__(self, "_edge_map", edge_map)
        if self.positions is not None:
            coords = {v: tuple(float(c) for c in self.positions[v])
                      for v in self.positions}
            missing = [str(v) for v in self.vertices() if v not in coords]
            if missing:
                raise MissingPositions(f"positions missing for {', '.join(missing)}")
            for v, p in coords.items():
                if len(p) != 3:
                    raise ValueError(f"position of {v} must be a 3-vector")
            object.__setattr__(self, "positions", coords)
        # Outbound adjacency, receivers before scatterers, each ascending.
        out_rx: dict[VertexId, list[Edge]] = {}
        out_sc: dict[VertexId, list[Edge]] = {}
        for edge in self.edges:
            bucket = out_rx if edge.dst.kind is VertexKind.RX else out_sc
            bucket.setdefault(edge.src, []).append(edge)
        for bucket in (out_rx, out_sc):
            for lst in bucket.values():
                lst.sort(key=lambda e: e.dst.index)
        object.__setattr__(self, "_out_rx", out_rx)
        object.__setattr__(self, "_out_sc", out_sc)

    # Built on first use and kept in the instance dict; the graph is
    # immutable, so they never go stale.

    @cached_property
    def _edge_table(self) -> "_EdgeTable":
        return _EdgeTable.of(self)

    @cached_property
    def _edges_by_class(self) -> dict[EdgeClass, tuple[Edge, ...]]:
        members: dict[EdgeClass, list[Edge]] = {}
        for edge in self.edges:
            members.setdefault(edge.edge_class, []).append(edge)
        return {cls: tuple(edges) for cls, edges in members.items()}

    # - accessors -

    @property
    def n_vertices(self) -> int:
        return self.n_tx + self.n_rx + self.n_scatterers

    def vertices(self) -> Iterator[VertexId]:
        """All vertices in canonical order: transmitters, receivers, scatterers."""
        return _vertices(self.n_tx, self.n_rx, self.n_scatterers)

    def edge_between(self, src: VertexId, dst: VertexId) -> Edge | None:
        return self._edge_map.get((src, dst))

    def edges_in_class(self, edge_class: EdgeClass) -> tuple[Edge, ...]:
        return self._edges_by_class.get(edge_class, ())

    def position(self, vertex: VertexId) -> np.ndarray:
        if self.positions is None:
            raise MissingPositions(f"graph carries no positions (asked for {vertex})")
        return np.asarray(self.positions[vertex], dtype=float)


# -- Adjacency blocks ----------------------------------------------------------


@dataclass(frozen=True)
class AdjacencyBlocks:
    """Adjacency blocks of a graph at a single frequency.

    ``direct`` maps transmitters to receivers, ``feed`` transmitters to
    scatterers, ``loop`` scatterers to scatterers, and ``collect``
    scatterers to receivers.  All blocks are indexed ``[destination, source]``.
    """

    frequency_hz: float
    direct: np.ndarray   # (n_rx, n_tx)
    feed: np.ndarray     # (n_sc, n_tx)
    loop: np.ndarray     # (n_sc, n_sc)
    collect: np.ndarray  # (n_rx, n_sc)

    def full_matrix(self) -> np.ndarray:
        """Assemble the dense weighted adjacency matrix over all vertices.

        Vertex order is transmitters, receivers, scatterers.  Rows index
        destinations, so transmitter rows and receiver columns are zero.
        """
        n_rx_, n_tx_ = self.direct.shape
        n_sc = self.loop.shape[0]
        n = n_tx_ + n_rx_ + n_sc
        full = np.zeros((n, n), dtype=complex)
        rx_rows = slice(n_tx_, n_tx_ + n_rx_)
        sc_rows = slice(n_tx_ + n_rx_, n)
        full[rx_rows, :n_tx_] = self.direct
        full[rx_rows, sc_rows] = self.collect
        full[sc_rows, :n_tx_] = self.feed
        full[sc_rows, sc_rows] = self.loop
        return full


@dataclass(frozen=True)
class BlockSamples:
    """Adjacency blocks evaluated on a frequency axis (leading dimension).

    The blocks returned by :func:`block_samples` are views of
    frequency-minor storage, (rows, cols, m), so each edge's samples are one
    contiguous row and ``np.moveaxis(block, 0, -1)`` gives that storage back
    without a copy.  The views are read-only; the storage behind each, its
    ``base``, is fresh from that call and held by nothing else, so the
    caller may reuse it.
    """

    freqs: np.ndarray    # (m,)
    direct: np.ndarray   # (m, n_rx, n_tx)
    feed: np.ndarray     # (m, n_sc, n_tx)
    loop: np.ndarray     # (m, n_sc, n_sc)
    collect: np.ndarray  # (m, n_rx, n_sc)

    def at(self, m: int) -> AdjacencyBlocks:
        return AdjacencyBlocks(
            frequency_hz=float(self.freqs[m]),
            direct=self.direct[m],
            feed=self.feed[m],
            loop=self.loop[m],
            collect=self.collect[m],
        )


_BLOCK_OF_CLASS = {
    EdgeClass.DIRECT: "direct",
    EdgeClass.TX_SCATTER: "feed",
    EdgeClass.INTER_SCATTER: "loop",
    EdgeClass.SCATTER_RX: "collect",
}


class _EdgeRow(NamedTuple):
    """One edge as the block assembly needs it."""

    dst: int
    src: int
    two_pi_delay: float
    phase: float
    gain: EdgeGainSpec
    delay_s: float
    flat: float | None  # the amplitude of a frequency-flat gain

    @classmethod
    def of(cls, e: Edge) -> "_EdgeRow":
        return cls(e.dst.index, e.src.index, TWO_PI * e.delay_s, e.phase_rad, e.gain, e.delay_s,
                   e.gain.flat_amplitude)


@dataclass(frozen=True)
class _EdgeTable:
    """A graph's edges grouped by block, with the loop's flat-gain norm bound.

    A table always holds all four blocks; :meth:`stacks` samples any of
    them, and :attr:`patterns` tells where their edges sit.  ``loop_bound``
    is None unless every loop edge has a frequency-flat gain.  It is then
    the smaller of the max column and row sums of the loop's amplitude
    matrix, inflated so that it bounds those sums of the moduli of the
    stored samples at every frequency.  An edge is sampled by one factored
    formula (:func:`_edge_samples`; B = 1 on arrays, so one frequency and an
    array of them agree bit for bit): a sample is the amplitude times a
    rounded coarse phasor, rounded, times a rounded fine phasor, rounded
    once more.  Its modulus exceeds the amplitude by at most 4 eps relative,
    and the float sums of n amplitudes fall short of the exact ones by at
    most (n - 1) eps / 2; (n + 4) eps covers both.
    """

    shapes: dict[str, tuple[int, int]]
    rows: dict[str, tuple[_EdgeRow, ...]]

    @classmethod
    def of(cls, graph: "PropagationGraph") -> "_EdgeTable":
        """The table of the edges of ``graph``."""
        n_sc = graph.n_scatterers
        shapes = {
            "direct": (graph.n_rx, graph.n_tx),
            "feed": (n_sc, graph.n_tx),
            "loop": (n_sc, n_sc),
            "collect": (graph.n_rx, n_sc),
        }
        rows: dict[str, list[_EdgeRow]] = {name: [] for name in shapes}
        for e in graph.edges:
            rows[_BLOCK_OF_CLASS[e.edge_class]].append(_EdgeRow.of(e))
        return cls(shapes=shapes, rows={name: tuple(r) for name, r in rows.items()})

    @cached_property
    def loop_bound(self) -> float | None:
        loop = self.rows["loop"]
        if any(row.flat is None for row in loop):
            return None
        amplitude = np.zeros(self.shapes["loop"])
        for row in loop:
            amplitude[row.dst, row.src] = row.flat
        sums = (amplitude.sum(axis=0).max(initial=0.0), amplitude.sum(axis=1).max(initial=0.0))
        return float(min(sums)) * (1.0 + (len(amplitude) + 4) * math.ulp(1.0))

    @cached_property
    def patterns(self) -> dict[str, np.ndarray]:
        """Each block's structure, (rows, cols) booleans: True where an edge sits."""
        patterns = {name: np.zeros(shape, dtype=bool) for name, shape in self.shapes.items()}
        for name, rows in self.rows.items():
            for row in rows:
                patterns[name][row.dst, row.src] = True
        for pattern in patterns.values():
            pattern.setflags(write=False)
        return patterns

    def stacks(self, freqs, names=tuple(_BLOCK_OF_CLASS.values())) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The axis of ``freqs`` and the frequency-minor blocks (rows, cols, m) named in ``names`` on it.

        ``freqs`` is an array of frequencies or a uniform grid.  A grid is
        recognised by duck type, by its ``f_min_hz``, ``delta_f`` and
        ``n_samples`` (this module cannot import the grid class); its axis is
        its frequencies, and its spacing ``delta_f`` is passed on to
        :func:`_edge_samples`.  The storage is fresh and writable; the caller
        owns it.  It is allocated empty: the edges fill their entries, and
        only the entries without an edge (see :attr:`patterns`) are zeroed.
        """
        df = None
        if all(hasattr(freqs, name) for name in ("f_min_hz", "delta_f", "n_samples")):
            df = float(freqs.delta_f)
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        if f.ndim != 1:
            raise ValueError("freqs must be one-dimensional")
        out = {name: np.empty(self.shapes[name] + f.shape, dtype=complex) for name in names}
        for name in names:
            out[name][~self.patterns[name]] = 0.0
        rows = [row for name in names for row in self.rows[name]]
        _edge_samples(rows, f, df, [out[name][row.dst, row.src] for name in names for row in self.rows[name]])
        return f, out


def block_samples(graph: PropagationGraph, freqs) -> BlockSamples:
    """Evaluate all adjacency blocks of ``graph`` on a frequency axis.

    ``freqs`` is an array of frequencies or a uniform frequency grid (see
    :meth:`_EdgeTable.stacks`).  Frequencies must be finite, and strictly
    positive whenever any edge carries a frequency-dependent gain law.  An
    edge is sampled by one factored formula, :func:`_edge_samples`; B = 1 on
    arrays, so one frequency and an array of them agree bit for bit, with
    each other and with :meth:`Edge.transfer_value`.  The blocks are
    read-only views of fresh storage (see :class:`BlockSamples`).
    """
    f, stacks = graph._edge_table.stacks(freqs)
    blocks = {}
    for name, stack in stacks.items():
        blocks[name] = np.moveaxis(stack, -1, 0)
        blocks[name].setflags(write=False)
    return BlockSamples(freqs=f, **blocks)


def adjacency_blocks(graph: PropagationGraph, freq_hz: float) -> AdjacencyBlocks:
    """Adjacency blocks of ``graph`` at a single frequency."""
    return block_samples(graph, [float(freq_hz)]).at(0)


# -- Reversal -----------------------------------------------------------------


_REVERSED_KIND = {
    VertexKind.TX: VertexKind.RX,
    VertexKind.RX: VertexKind.TX,
    VertexKind.SCATTERER: VertexKind.SCATTERER,
}


def _reversed_vertex(v: VertexId) -> VertexId:
    return VertexId(_REVERSED_KIND[v.kind], v.index)


def reverse_graph(graph: PropagationGraph) -> PropagationGraph:
    """Flip every edge and swap transmitter/receiver roles.

    Edge transfer functions (gain law, phase, delay) are kept, which makes
    the reversed graph's transfer matrix the transpose of the original's.
    """
    edges = tuple(
        Edge(
            src=_reversed_vertex(e.dst),
            dst=_reversed_vertex(e.src),
            gain=e.gain,
            phase_rad=e.phase_rad,
            delay_s=e.delay_s,
        )
        for e in graph.edges
    )
    positions = None
    if graph.positions is not None:
        positions = {_reversed_vertex(v): p for v, p in graph.positions.items()}
    return PropagationGraph(
        n_tx=graph.n_rx,
        n_rx=graph.n_tx,
        n_scatterers=graph.n_scatterers,
        edges=edges,
        positions=positions,
    )


# -- Path enumeration (reference oracle) ---------------------------------------


def enumerate_paths(
    graph: PropagationGraph,
    max_bounces: int,
    *,
    max_paths: int = 10_000_000,
) -> Iterator[tuple[VertexId, ...]]:
    """Yield every propagation path with at most ``max_bounces`` scatterer visits.

    A path starts at a transmitter, ends at a receiver, and may revisit
    scatterers.  Enumeration is depth-first from each transmitter in index
    order; at every vertex, receiver terminations are emitted (ascending
    receiver index) before descending into scatterers (ascending scatterer
    index).  Raises :class:`ExplosionGuard` once more than ``max_paths``
    paths have been produced.  ``max_bounces`` is checked on call, before the
    first path is asked for.
    """
    max_bounces = _count(max_bounces, "max_bounces")
    if max_bounces < 0:
        raise ValueError(f"max_bounces must be >= 0, got {max_bounces}")
    out_rx = graph._out_rx
    out_sc = graph._out_sc
    produced = 0

    def walk_from(prefix: list[VertexId], bounces_left: int):
        nonlocal produced
        head = prefix[-1]
        for edge in out_rx.get(head, ()):
            produced += 1
            if produced > max_paths:
                raise ExplosionGuard(f"more than {max_paths} paths enumerated")
            yield tuple(prefix) + (edge.dst,)
        if bounces_left == 0:
            return
        for edge in out_sc.get(head, ()):
            prefix.append(edge.dst)
            yield from walk_from(prefix, bounces_left - 1)
            prefix.pop()

    # A generator expression, so that the checks above run on call.
    return (path for t in range(graph.n_tx) for path in walk_from([tx(t)], max_bounces))


def path_transfer(graph: PropagationGraph, walk, freq_hz: float) -> complex:
    """Product of edge transfer functions along a propagation path."""
    walk = tuple(walk)
    if len(walk) < 2:
        raise InvalidWalk(f"walk needs at least two vertices, got {len(walk)}")
    if walk[0].kind is not VertexKind.TX:
        raise InvalidWalk(f"walk must start at a transmitter, starts at {walk[0]}")
    if walk[-1].kind is not VertexKind.RX:
        raise InvalidWalk(f"walk must end at a receiver, ends at {walk[-1]}")
    for v in walk[1:-1]:
        if v.kind is not VertexKind.SCATTERER:
            raise InvalidWalk(f"inner vertex {v} is not a scatterer")
    value = 1.0 + 0.0j
    for a, b in zip(walk, walk[1:]):
        edge = graph.edge_between(a, b)
        if edge is None:
            raise InvalidWalk(f"no edge {a}->{b}")
        value *= edge.transfer_value(float(freq_hz))
    return value


def walk_sum(
    graph: PropagationGraph,
    freq_hz: float,
    min_bounces: int,
    max_bounces: int,
    *,
    max_paths: int = 10_000_000,
) -> np.ndarray:
    """Sum path transfers over all paths with a bounce count in the given range.

    Returns an (n_rx, n_tx) matrix; this is the brute-force counterpart of
    the closed-form partial transfer matrix and is meant for small graphs.

    The result equals summing :func:`path_transfer` over
    :func:`enumerate_paths` bit for bit, without building the walks: the
    edges' transfer values are sampled once, as :func:`block_samples` samples
    them (frequency checks included), outbound edges are kept as
    integer-indexed (next vertex, value) lists in the enumeration's order,
    and the depth-first search carries each walk's left-to-right product.
    Every path counts towards ``max_paths``, including those below
    ``min_bounces``, so :class:`ExplosionGuard` fires where the enumeration
    would.
    """
    min_bounces = _count(min_bounces, "min_bounces")
    max_bounces = _count(max_bounces, "max_bounces")
    if not 0 <= min_bounces <= max_bounces:
        raise ValueError(f"need 0 <= min_bounces <= max_bounces, got ({min_bounces}, {max_bounces})")
    _, stacks = graph._edge_table.stacks([float(freq_hz)])
    values = {name: stack[..., 0].tolist() for name, stack in stacks.items()}
    n_sc = graph.n_scatterers
    # Scatterers are sources 0..n_sc-1, transmitters follow them.
    out_rx: list[list[tuple[int, complex]]] = [[] for _ in range(n_sc + graph.n_tx)]
    out_sc: list[list[tuple[int, complex]]] = [[] for _ in range(n_sc + graph.n_tx)]
    for buckets, out in ((graph._out_rx, out_rx), (graph._out_sc, out_sc)):
        for src, edges in buckets.items():
            source = src.index if src.kind is VertexKind.SCATTERER else n_sc + src.index
            out[source] = [(e.dst.index, values[_BLOCK_OF_CLASS[e.edge_class]][e.dst.index][src.index])
                           for e in edges]
    produced = 0

    def descend(source: int, acc: complex, bounces: int, column: list[complex]) -> None:
        nonlocal produced
        for r, value in out_rx[source]:
            produced += 1
            if produced > max_paths:
                raise ExplosionGuard(f"more than {max_paths} paths enumerated")
            if bounces >= min_bounces:
                column[r] += acc * value
        if bounces < max_bounces:
            for s, value in out_sc[source]:
                descend(s, acc * value, bounces + 1, column)

    total = np.zeros((graph.n_rx, graph.n_tx), dtype=complex)
    for t in range(graph.n_tx):
        column = [0j] * graph.n_rx
        descend(n_sc + t, 1.0 + 0.0j, 0, column)
        total[:, t] = column
    return total


# -- JSON round-trip ------------------------------------------------------------


def _vertex_to_dict(v: VertexId) -> dict:
    return {"kind": v.kind.value, "index": v.index}


def _vertex_from_dict(data: dict) -> VertexId:
    return VertexId(VertexKind(data["kind"]), data["index"])


def _gain_to_dict(gain: EdgeGainSpec) -> dict:
    if isinstance(gain, ConstantGain):
        return {"type": "constant", "value": gain.value}
    out: dict = {"type": "law", "law": gain.law.value}
    for key in ("mean_delay_s", "inv_sq_delay_sum", "base_gain", "out_degree"):
        value = getattr(gain, key)
        if value is not None:
            out[key] = value
    return out


def _gain_from_dict(data: dict) -> EdgeGainSpec:
    kind = data.get("type")
    if kind == "constant":
        return ConstantGain(_real(data["value"], "value"))
    if kind == "law":
        stats = {key: _real(data[key], key) for key in ("mean_delay_s", "inv_sq_delay_sum", "base_gain")
                 if data.get(key) is not None}
        return FrequencyLawGain(law=EdgeClass(data["law"]), out_degree=data.get("out_degree"), **stats)
    raise ValueError(f"unknown gain type {kind!r}")


def graph_to_json(graph: PropagationGraph, *, indent: int | None = None) -> str:
    """Serialize a graph to JSON; positions are listed in canonical vertex order."""
    positions = None
    if graph.positions is not None:
        positions = [list(graph.positions[v]) for v in graph.vertices()]
    doc = {
        "n_t": graph.n_tx,
        "n_r": graph.n_rx,
        "n_s": graph.n_scatterers,
        "positions": positions,
        "edges": [
            {
                "init": _vertex_to_dict(e.src),
                "term": _vertex_to_dict(e.dst),
                "gain": _gain_to_dict(e.gain),
                "phase_rad": e.phase_rad,
                "delay_s": e.delay_s,
            }
            for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=indent)


def graph_from_json(text: str) -> PropagationGraph:
    """Rebuild a graph serialized by :func:`graph_to_json`."""
    doc = json.loads(text)
    edges = tuple(
        Edge(
            src=_vertex_from_dict(item["init"]),
            dst=_vertex_from_dict(item["term"]),
            gain=_gain_from_dict(item["gain"]),
            phase_rad=_real(item["phase_rad"], "phase_rad"),
            delay_s=_real(item["delay_s"], "delay_s"),
        )
        for item in doc["edges"]
    )
    counts = tuple(_count(doc[key], key) for key in ("n_t", "n_r", "n_s"))
    positions = None
    if doc.get("positions") is not None:
        positions = {v: tuple(p) for v, p in zip(_vertices(*counts), doc["positions"])}
    return PropagationGraph(*counts, edges=edges, positions=positions)
