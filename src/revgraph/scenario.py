"""Stochastic in-room channel scenarios.

A scenario places transmitters and receivers at fixed points of a box-shaped
room, scatters point interactors uniformly inside it, draws edge visibility
by coin flips, and assigns each edge a frequency-dependent amplitude law, a
uniform random phase, and the geometric propagation delay.  Inter-scatterer
edges share one gain ``g``, split across each scatterer's outgoing edges;
``g`` is either given directly or calibrated from a target tail slope of the
delay-power spectrum using the mean inter-scatterer delay.

Randomness is organized for reproducibility: generation attempt ``a`` of a
scenario seeded with ``s`` derives three independent child streams from
``SeedSequence((s, a))`` in this fixed order: scatterer positions, edge
coin flips, edge phases.  Edge candidates are enumerated in a documented
canonical order (direct pairs, transmitter-to-scatterer, ordered
scatterer-to-scatterer, scatterer-to-receiver; each lexicographic), one
uniform draw per candidate, so identical seeds reproduce identical graphs
bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .graph import (
    Edge,
    EdgeClass,
    FrequencyLawGain,
    MissingPositions,
    PropagationGraph,
    VertexId,
    VertexKind,
    block_samples,
    graph_from_json,
    graph_to_json,
    rx,
    scatterer,
    tx,
)
from .transfer import SpectralRadiusExceeded, _flat_loop_contracts, verify_contraction

if TYPE_CHECKING:
    from .synthesis import FrequencyGrid

__all__ = [
    "EmptyEdgeClass",
    "RejectionLimitExceeded",
    "Box",
    "ScenarioConfig",
    "ScenarioRealization",
    "draw_positions",
    "draw_edges",
    "edge_gain",
    "gain_from_slope",
    "generate_realization",
    "relocate_receiver",
    "realization_to_json",
    "realization_from_json",
]

DEFAULT_SPEED_OF_LIGHT = 3.0e8  # m/s

# Number of uniformly spaced frequencies checked for contraction of the
# scatterer loop before a realization is accepted, when the norm bound of a
# frequency-flat loop does not settle it alone.  Sampling re-verifies every
# grid frequency later, so this is a cheap first gate.
VALIDATION_FREQUENCIES = 64


class EmptyEdgeClass(ValueError):
    """Class statistics were requested over an edge class with no members."""


class RejectionLimitExceeded(RuntimeError):
    """Scenario generation hit the rejection cap without an accepted graph."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given as ((x0,x1), (y0,y1), (z0,z1)) in meters."""

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        bounds = tuple(
            (float(lo), float(hi)) for lo, hi in self.bounds
        )
        if len(bounds) != 3:
            raise ValueError("box needs exactly three axis ranges")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
                raise ValueError(f"invalid axis range ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)

    @property
    def lows(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    @property
    def highs(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])

    @property
    def volume(self) -> float:
        return float(np.prod(self.highs - self.lows))

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lows) and np.all(p <= self.highs))


_DEFAULT_ROOM = Box(((0.0, 5.0), (0.0, 5.0), (0.0, 2.6)))


def _as_points(value) -> tuple[tuple[float, float, float], ...]:
    points = []
    for p in value:
        q = tuple(float(c) for c in p)
        if len(q) != 3:
            raise ValueError(f"position must be a 3-vector, got {p!r}")
        points.append(q)
    return tuple(points)


@dataclass(frozen=True)
class ScenarioConfig:
    """In-room scenario parameters.

    Defaults describe the reference office scenario: a 5 x 5 x 2.6 m room,
    one transmitter and one receiver 3.84 m apart at desk height, ten
    scatterers, visibility 0.8, certain direct path, and inter-scatterer
    gain derived from a -0.4 dB/ns target slope as g = 10^(slope * mu_es / 20)
    (see :func:`gain_from_slope`); the realised default ensemble tail slope
    is about -0.95 dB/ns (acceptance criterion 5).  Exactly one of
    ``tail_slope_db_per_ns`` and ``inter_scatterer_gain`` must be set.
    """

    region: Box = _DEFAULT_ROOM
    tx_positions: tuple[tuple[float, float, float], ...] = ((1.78, 1.0, 1.5),)
    rx_positions: tuple[tuple[float, float, float], ...] = ((4.18, 4.0, 1.5),)
    n_scatterers: int = 10
    p_visibility: float = 0.8
    p_direct: float = 1.0
    tail_slope_db_per_ns: float | None = -0.4
    inter_scatterer_gain: float | None = None
    speed_of_light: float = DEFAULT_SPEED_OF_LIGHT
    seed: int = 0
    max_rejections: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "tx_positions", _as_points(self.tx_positions))
        object.__setattr__(self, "rx_positions", _as_points(self.rx_positions))
        if not self.tx_positions or not self.rx_positions:
            raise ValueError("need at least one transmitter and one receiver position")
        for p in self.tx_positions + self.rx_positions:
            if not self.region.contains(p):
                raise ValueError(f"position {p} lies outside the room")
        if self.n_scatterers < 0:
            raise ValueError(f"n_scatterers must be >= 0, got {self.n_scatterers}")
        for name in ("p_visibility", "p_direct"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        has_slope = self.tail_slope_db_per_ns is not None
        has_gain = self.inter_scatterer_gain is not None
        if has_slope == has_gain:
            raise ValueError(
                "exactly one of tail_slope_db_per_ns and inter_scatterer_gain must be set"
            )
        if has_slope and self.tail_slope_db_per_ns >= 0.0:
            raise ValueError("tail slope must be negative (a decaying tail)")
        if has_gain and not 0.0 < self.inter_scatterer_gain < 1.0:
            raise ValueError("inter_scatterer_gain must lie in (0, 1)")
        if self.speed_of_light <= 0.0:
            raise ValueError("speed_of_light must be positive")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be >= 1")

    @property
    def n_tx(self) -> int:
        return len(self.tx_positions)

    @property
    def n_rx(self) -> int:
        return len(self.rx_positions)


@dataclass(frozen=True)
class ScenarioRealization:
    """One accepted draw of a scenario.

    ``mu_es`` and ``resolved_g`` are ``None`` when the realization has no
    inter-scatterer edges (nothing to calibrate).
    """

    graph: PropagationGraph
    attempts: int
    mu_es: float | None
    resolved_g: float | None


# -- Random draws ---------------------------------------------------------------


def _attempt_rngs(seed: int, attempt: int):
    """Positions, edges, and phases streams for one generation attempt."""
    root = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, attempt))
    children = root.spawn(3)
    return tuple(np.random.default_rng(child) for child in children)


def draw_positions(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Scatterer positions, i.i.d. uniform over the room; shape (n_scatterers, 3)."""
    box = config.region
    if box.volume <= 0.0:
        raise ValueError("room must have positive volume to place scatterers")
    return rng.uniform(box.lows, box.highs, size=(config.n_scatterers, 3))


def _candidate_pairs(config: ScenarioConfig):
    """Edge candidates and their inclusion probabilities, in canonical order."""
    n_t, n_r, n_s = config.n_tx, config.n_rx, config.n_scatterers
    for i in range(n_t):
        for j in range(n_r):
            yield tx(i), rx(j), config.p_direct
    for i in range(n_t):
        for k in range(n_s):
            yield tx(i), scatterer(k), config.p_visibility
    for a in range(n_s):
        for b in range(n_s):
            if a != b:
                yield scatterer(a), scatterer(b), config.p_visibility
    for k in range(n_s):
        for j in range(n_r):
            yield scatterer(k), rx(j), config.p_visibility


def draw_edges(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[tuple[VertexId, VertexId], ...]:
    """Independent coin flips over all admissible vertex pairs.

    Direct transmitter-receiver pairs are kept with probability
    ``p_direct``, every other admissible pair with ``p_visibility``.
    Edges into transmitters, out of receivers, and loops never appear.
    One uniform draw is consumed per candidate regardless of the outcome,
    so the stream alignment depends only on the vertex counts.
    """
    pairs = []
    for src, dst, p in _candidate_pairs(config):
        if rng.uniform() < p:
            pairs.append((src, dst))
    return tuple(pairs)


# -- Gain laws -------------------------------------------------------------------


def gain_from_slope(slope_db_per_ns: float, mu_es_s: float) -> float:
    """Inter-scatterer gain derived from a target delay-power tail slope.

    Returns ``g = 10^(slope * mu_es / 20)`` with the slope converted to
    dB/s, which assumes the tail loses 20*log10(g) dB per mean
    inter-scatterer delay, i.e. a per-bounce power of g^2.  Split per edge
    as g / out_degree, the per-bounce power is g^2 / out_degree, so the
    realised default tail slope is about -0.95 dB/ns for a -0.4 dB/ns
    target (acceptance criterion 5).
    """
    if slope_db_per_ns >= 0.0:
        raise ValueError(f"slope must be negative, got {slope_db_per_ns}")
    if mu_es_s <= 0.0:
        raise ValueError(f"mean inter-scatterer delay must be positive, got {mu_es_s}")
    return 10.0 ** (slope_db_per_ns * 1e9 * mu_es_s / 20.0)


def _delay_stats(delays: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(delays, dtype=float)
    return float(arr.mean()), float(np.sum(arr ** -2.0))


def edge_gain(
    edge: Edge,
    freq_hz: float,
    graph: PropagationGraph,
    resolved_g: float | None = None,
) -> float:
    """Amplitude gain an edge should carry under the in-room law.

    Recomputes class statistics from ``graph``; used as a cross-check
    against the parameters baked into generated edges.  Inter-scatterer
    edges need the realization's ``resolved_g``.
    """
    if freq_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    cls = edge.edge_class
    if cls is EdgeClass.DIRECT:
        return 1.0 / (4.0 * math.pi * freq_hz * edge.delay_s)
    if cls in (EdgeClass.TX_SCATTER, EdgeClass.SCATTER_RX):
        members = graph.edges_in_class(cls)
        if not members:
            raise EmptyEdgeClass(f"no {cls.value} edges to average over")
        mu, inv_sq = _delay_stats([e.delay_s for e in members])
        squared = 1.0 / (4.0 * math.pi * freq_hz * mu)
        squared /= edge.delay_s ** 2 * inv_sq
        return math.sqrt(squared)
    if resolved_g is None:
        raise ValueError("inter-scatterer gain needs the realization's resolved_g")
    out_degree = sum(
        1
        for e in graph.edges_in_class(EdgeClass.INTER_SCATTER)
        if e.src == edge.src
    )
    if out_degree == 0:
        raise EmptyEdgeClass(f"scatterer {edge.src} has no outgoing scatterer edges")
    return resolved_g / out_degree


# -- Realization assembly ---------------------------------------------------------


def _position_table(config: ScenarioConfig, scatterer_points: np.ndarray):
    table: dict[VertexId, tuple[float, float, float]] = {}
    for i, p in enumerate(config.tx_positions):
        table[tx(i)] = p
    for j, p in enumerate(config.rx_positions):
        table[rx(j)] = p
    for k in range(scatterer_points.shape[0]):
        table[scatterer(k)] = tuple(float(c) for c in scatterer_points[k])
    return table


def _build_edges(
    pairs: Sequence[tuple[VertexId, VertexId]],
    phases: np.ndarray,
    positions: dict[VertexId, tuple[float, float, float]],
    speed_of_light: float,
    inter_scatterer_gain: float | None,
    tail_slope_db_per_ns: float | None,
) -> tuple[tuple[Edge, ...], float | None, float | None]:
    """Attach delays and gain laws to drawn pairs.

    Returns the edges plus the realization's mean inter-scatterer delay and
    resolved shared gain (both ``None`` when no inter-scatterer edge exists).
    """
    delays = {}
    for src, dst in pairs:
        d = float(
            np.linalg.norm(np.subtract(positions[dst], positions[src]))
        )
        delays[(src, dst)] = d / speed_of_light

    def classify(src: VertexId, dst: VertexId) -> EdgeClass:
        if src.kind is VertexKind.TX:
            return EdgeClass.DIRECT if dst.kind is VertexKind.RX else EdgeClass.TX_SCATTER
        return EdgeClass.SCATTER_RX if dst.kind is VertexKind.RX else EdgeClass.INTER_SCATTER

    by_class: dict[EdgeClass, list[tuple[VertexId, VertexId]]] = {cls: [] for cls in EdgeClass}
    for pair in pairs:
        by_class[classify(*pair)].append(pair)

    stats: dict[EdgeClass, tuple[float, float]] = {}
    for cls in (EdgeClass.TX_SCATTER, EdgeClass.SCATTER_RX):
        if by_class[cls]:
            stats[cls] = _delay_stats([delays[p] for p in by_class[cls]])

    mu_es: float | None = None
    resolved_g: float | None = None
    if by_class[EdgeClass.INTER_SCATTER]:
        mu_es = float(
            np.mean([delays[p] for p in by_class[EdgeClass.INTER_SCATTER]])
        )
        if inter_scatterer_gain is not None:
            resolved_g = float(inter_scatterer_gain)
        else:
            resolved_g = gain_from_slope(tail_slope_db_per_ns, mu_es)
    out_degree: dict[VertexId, int] = {}
    for src, _dst in by_class[EdgeClass.INTER_SCATTER]:
        out_degree[src] = out_degree.get(src, 0) + 1

    def gain_for(src: VertexId, dst: VertexId):
        cls = classify(src, dst)
        if cls is EdgeClass.DIRECT:
            return FrequencyLawGain(EdgeClass.DIRECT)
        if cls in stats:
            mu, inv_sq = stats[cls]
            return FrequencyLawGain(cls, mean_delay_s=mu, inv_sq_delay_sum=inv_sq)
        if cls is EdgeClass.INTER_SCATTER:
            return FrequencyLawGain(
                EdgeClass.INTER_SCATTER,
                base_gain=resolved_g,
                out_degree=out_degree[src],
            )
        raise EmptyEdgeClass(f"no {cls.value} edges to average over")

    edges = tuple(
        Edge(
            src=src,
            dst=dst,
            gain=gain_for(src, dst),
            phase_rad=float(phases[i]),
            delay_s=delays[(src, dst)],
        )
        for i, (src, dst) in enumerate(pairs)
    )
    return edges, mu_es, resolved_g


def _loop_is_contractive(graph: PropagationGraph, freqs: np.ndarray) -> bool:
    """Whether the scatterer loop block contracts at every frequency in ``freqs``.

    A loop of frequency-flat gains (every generated loop) whose amplitude
    norms certify it needs no block stack; any other loop is checked on
    the blocks sampled at ``freqs``.
    """
    if _flat_loop_contracts(graph):
        return True
    try:
        verify_contraction(block_samples(graph, freqs).loop, freqs)
    except SpectralRadiusExceeded:
        return False
    return True


def _band_edges(frequency_band) -> tuple[float, float]:
    if hasattr(frequency_band, "f_min_hz"):
        return float(frequency_band.f_min_hz), float(frequency_band.f_max_hz)
    lo, hi = frequency_band
    return float(lo), float(hi)


def generate_realization(
    config: ScenarioConfig, frequency_band
) -> ScenarioRealization:
    """Draw scenario graphs until one passes the contraction check.

    ``frequency_band`` is a frequency grid or a (f_min, f_max) pair.  A
    loop of frequency-flat gains is accepted on its amplitude norms alone
    when they certify it; any other loop is validated on a uniform subgrid
    of that band.  Sampling the graph later re-verifies its loop.  Each
    attempt redraws positions, edges, and phases from fresh streams.
    Raises :class:`RejectionLimitExceeded` once ``config.max_rejections``
    attempts have been rejected.
    """
    f_lo, f_hi = _band_edges(frequency_band)
    if not 0.0 < f_lo < f_hi:
        raise ValueError(f"need 0 < f_min < f_max, got ({f_lo}, {f_hi})")
    validation_freqs = np.linspace(f_lo, f_hi, VALIDATION_FREQUENCIES)
    for attempt in range(config.max_rejections):
        pos_rng, edge_rng, phase_rng = _attempt_rngs(config.seed, attempt)
        points = draw_positions(config, pos_rng)
        pairs = draw_edges(config, edge_rng)
        phases = phase_rng.uniform(0.0, 2.0 * math.pi, size=len(pairs))
        positions = _position_table(config, points)
        try:
            edges, mu_es, resolved_g = _build_edges(
                pairs,
                phases,
                positions,
                config.speed_of_light,
                config.inter_scatterer_gain,
                config.tail_slope_db_per_ns,
            )
        except EmptyEdgeClass:
            continue
        graph = PropagationGraph(
            n_tx=config.n_tx,
            n_rx=config.n_rx,
            n_scatterers=config.n_scatterers,
            edges=edges,
            positions=positions,
        )
        if not _loop_is_contractive(graph, validation_freqs):
            continue
        return ScenarioRealization(
            graph=graph,
            attempts=attempt + 1,
            mu_es=mu_es,
            resolved_g=resolved_g,
        )
    raise RejectionLimitExceeded(
        f"no acceptable graph after {config.max_rejections} attempts (seed {config.seed})"
    )


# -- Receiver relocation (spatial sweeps) -----------------------------------------


def relocate_receiver(
    graph: PropagationGraph, rx_index: int, new_position
) -> PropagationGraph:
    """Move one receiver and refresh the position-dependent edge parameters.

    Keeps the edge set and every random phase.  Delays of edges into the
    moved receiver are recomputed from geometry, and the gain laws of all
    direct and scatterer-to-receiver edges are refreshed because their
    class statistics depend on those delays.  Feed and loop edges are
    untouched, so the scatterer-side blocks are bitwise identical across
    moves.  Only graphs whose receiver-side edges carry in-room gain laws
    can be relocated.
    """
    if graph.positions is None:
        raise MissingPositions("relocation needs vertex positions")
    if not 0 <= rx_index < graph.n_rx:
        raise ValueError(f"receiver index {rx_index} out of range")
    moved = rx(rx_index)
    new_position = tuple(float(c) for c in new_position)
    if len(new_position) != 3:
        raise ValueError("new position must be a 3-vector")
    positions = dict(graph.positions)
    positions[moved] = new_position

    for e in graph.edges:
        if e.dst.kind is VertexKind.RX and not (
            isinstance(e.gain, FrequencyLawGain)
            and e.gain.law in (EdgeClass.DIRECT, EdgeClass.SCATTER_RX)
        ):
            raise ValueError(
                "relocation expects in-room gain laws on receiver-side edges"
            )

    def distance(a: VertexId, b: VertexId) -> float:
        return float(np.linalg.norm(np.subtract(positions[b], positions[a])))

    # Delay of any receiver-side edge, after the move.
    new_delay = {}
    speed = {}
    for e in graph.edges:
        if e.dst.kind is VertexKind.RX:
            if e.dst == moved:
                # Recover the propagation speed from the stored delay so the
                # config is not needed here.
                old_dist = float(
                    np.linalg.norm(np.subtract(graph.positions[e.dst], graph.positions[e.src]))
                )
                speed[e] = old_dist / e.delay_s
                new_delay[e] = distance(e.src, e.dst) / speed[e]
            else:
                new_delay[e] = e.delay_s

    scatter_rx_delays = [
        new_delay[e] for e in graph.edges if e.edge_class is EdgeClass.SCATTER_RX
    ]
    stats = _delay_stats(scatter_rx_delays) if scatter_rx_delays else None

    rebuilt = []
    for e in graph.edges:
        if e.dst.kind is not VertexKind.RX:
            rebuilt.append(e)
            continue
        if e.edge_class is EdgeClass.DIRECT:
            gain = FrequencyLawGain(EdgeClass.DIRECT)
        else:
            mu, inv_sq = stats
            gain = FrequencyLawGain(
                EdgeClass.SCATTER_RX, mean_delay_s=mu, inv_sq_delay_sum=inv_sq
            )
        rebuilt.append(
            Edge(
                src=e.src,
                dst=e.dst,
                gain=gain,
                phase_rad=e.phase_rad,
                delay_s=new_delay[e],
            )
        )
    return PropagationGraph(
        n_tx=graph.n_tx,
        n_rx=graph.n_rx,
        n_scatterers=graph.n_scatterers,
        edges=tuple(rebuilt),
        positions=positions,
    )


# -- Serialization ----------------------------------------------------------------


def realization_to_json(realization: ScenarioRealization, *, indent: int | None = None) -> str:
    doc = {
        "graph": json.loads(graph_to_json(realization.graph)),
        "attempts": realization.attempts,
        "mu_es": realization.mu_es,
        "resolved_g": realization.resolved_g,
    }
    return json.dumps(doc, indent=indent)


def realization_from_json(text: str) -> ScenarioRealization:
    doc = json.loads(text)
    return ScenarioRealization(
        graph=graph_from_json(json.dumps(doc["graph"])),
        attempts=int(doc["attempts"]),
        mu_es=doc["mu_es"],
        resolved_g=doc["resolved_g"],
    )
