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
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .graph import (
    _CLASS_OF_ENDPOINTS,
    Edge,
    EdgeClass,
    FrequencyLawGain,
    MissingPositions,
    PropagationGraph,
    VertexId,
    VertexKind,
    graph_from_json,
    graph_to_json,
    rx,
    scatterer,
    tx,
)
from ._fields import (
    _INTEGER, _NUMBER, _PAIR, _POINTS, _UNIT_INTERVAL, ValidationError, _array, _array_schema,
    _check_band, _check_fields, _Field, _instance_of, _interval, _Kind, _lists, _pair,
)
from .transfer import _flat_certified, _loop_is_contractive

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
        bounds = tuple(_pair(pair) for pair in _array(self.bounds, "three [low, high] pairs", 3))
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


_ROOM = _Kind(
    _array_schema(_PAIR.schema, 3),
    _instance_of(Box),
    parse=Box,
    dump=lambda box: _lists(box.bounds),
)

_GAIN_BOUNDS = {"exclusiveMinimum": 0, "exclusiveMaximum": 1}

# Every ScenarioConfig attribute, in config-document key order.
_SCENARIO_FIELDS = (
    _Field("room", _ROOM, "region",
           "Axis-aligned room as [[x_lo, x_hi], [y_lo, y_hi], [z_lo, z_hi]] in meters."),
    _Field("tx", _POINTS, "tx_positions",
           "Transmitter positions, list of [x, y, z] in meters inside the room."),
    _Field("rx", _POINTS, "rx_positions", "Receiver positions, same shape as tx."),
    _Field("n_scatterers", _INTEGER, "n_scatterers",
           "Number of point scatterers placed uniformly in the room.", {"minimum": 0}),
    _Field("p_vis", _NUMBER, "p_visibility",
           "Visibility probability for every non-direct vertex pair.", _UNIT_INTERVAL),
    _Field("p_dir", _NUMBER, "p_direct",
           "Probability of each direct transmitter-receiver link.", _UNIT_INTERVAL),
    _Field("tail_slope_db_per_ns", _NUMBER, "tail_slope_db_per_ns",
           "Target tail slope of the delay-power spectrum; the shared inter-scatterer gain "
           "is derived from it per realization as g = 10^(slope * mean_delay / 20). With "
           "the g / out_degree split the realised tail slope is steeper: about -0.95 dB/ns "
           "for the default target (acceptance criterion 5). Negative, or null when "
           "inter_scatterer_gain is given.",
           {"exclusiveMaximum": 0}, nullable=True),
    _Field("inter_scatterer_gain", _NUMBER, "inter_scatterer_gain",
           f"Fixed shared inter-scatterer gain g in {_interval(_GAIN_BOUNDS)}, split per edge as "
           "g / out_degree. Mutually exclusive with tail_slope_db_per_ns.",
           _GAIN_BOUNDS, nullable=True),
    _Field("speed_of_light", _NUMBER, "speed_of_light",
           "Propagation speed in m/s used to turn distances into delays.",
           {"exclusiveMinimum": 0}),
    _Field("seed", _INTEGER, "seed", "Base seed; run i of an ensemble uses seed + i."),
    _Field("max_rejections", _INTEGER, "max_rejections",
           "Attempt budget for the draw/reject loop.", {"minimum": 1}),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """In-room scenario parameters.

    Defaults describe the reference office scenario: a 5 x 5 x 2.6 m room,
    one transmitter and one receiver 3.84 m apart at desk height, ten
    scatterers, visibility 0.8, certain direct path, and inter-scatterer
    gain derived from a -0.4 dB/ns target slope as g = 10^(slope * mu_es / 20)
    (see :func:`gain_from_slope`); the realised default ensemble tail slope
    is about -0.95 dB/ns (acceptance criterion 5).

    Construction checks every attribute through ``_SCENARIO_FIELDS``, the
    table config files are read with, and stores its normalised value; then
    exactly one of ``tail_slope_db_per_ns`` and ``inter_scatterer_gain`` must
    be set and every position must lie inside the room.  Failures raise
    :class:`ValidationError` naming the config-file field.
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
        _check_fields(self, _SCENARIO_FIELDS)
        if self.tail_slope_db_per_ns is not None and self.inter_scatterer_gain is not None:
            raise ValidationError("inter_scatterer_gain",
                                  "give either tail_slope_db_per_ns or inter_scatterer_gain, not both")
        if self.tail_slope_db_per_ns is None and self.inter_scatterer_gain is None:
            raise ValidationError("tail_slope_db_per_ns",
                                  "cannot be null unless inter_scatterer_gain is given")
        for name, points in (("tx", self.tx_positions), ("rx", self.rx_positions)):
            for p in points:
                if not self.region.contains(p):
                    raise ValidationError(name, f"position {p} lies outside the room")

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

    def __post_init__(self) -> None:
        _check_fields(self, _REALIZATION_FIELDS)


_REALIZATION_FIELDS = (
    _Field("attempts", _INTEGER, "attempts", "Generation attempts used.", {"minimum": 1}),
    _Field("mu_es", _NUMBER, "mu_es", "Mean inter-scatterer delay in seconds.",
           {"exclusiveMinimum": 0}, nullable=True),
    _Field("resolved_g", _NUMBER, "resolved_g", "Shared inter-scatterer gain.",
           {"minimum": 0}, nullable=True),
)


# -- Random draws ---------------------------------------------------------------


def _attempt_rngs(seed: int, attempt: int):
    """Positions, edges, and phases streams for one generation attempt."""
    root = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, attempt))
    children = root.spawn(3)
    return tuple(np.random.default_rng(child) for child in children)


def draw_positions(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Scatterer positions, i.i.d. uniform over the room; shape (n_scatterers, 3)."""
    box = config.region
    return rng.uniform(box.lows, box.highs, size=(config.n_scatterers, 3))


@cache
def _candidates(n_tx: int, n_rx: int, n_scatterers: int) -> tuple:
    """Edge candidates in canonical order, with what a draw needs of each.

    Returns the (src, dst) pairs, their edge classes, whether each is a
    direct pair, and the rows of src and dst in the vertex positions stacked
    as transmitters, receivers, scatterers.
    """
    stacked = (
        [tx(i) for i in range(n_tx)]
        + [rx(j) for j in range(n_rx)]
        + [scatterer(k) for k in range(n_scatterers)]
    )
    row = {vertex: i for i, vertex in enumerate(stacked)}
    transmitters, receivers = stacked[:n_tx], stacked[n_tx:n_tx + n_rx]
    scatterers = stacked[n_tx + n_rx:]
    pairs = (
        [(t, r) for t in transmitters for r in receivers]
        + [(t, s) for t in transmitters for s in scatterers]
        + [(a, b) for a in scatterers for b in scatterers if a != b]
        + [(s, r) for s in scatterers for r in receivers]
    )
    classes = [_CLASS_OF_ENDPOINTS[src.kind, dst.kind] for src, dst in pairs]
    direct = np.array([cls is EdgeClass.DIRECT for cls in classes], dtype=bool)
    rows = np.array([[row[src], row[dst]] for src, dst in pairs], dtype=np.intp).reshape(-1, 2)
    return tuple(pairs), tuple(classes), direct, rows


def _draw_candidates(config: ScenarioConfig, rng: np.random.Generator) -> list[int]:
    """Indices of the candidates of :func:`_candidates` kept by one draw."""
    _, _, direct, _ = _candidates(config.n_tx, config.n_rx, config.n_scatterers)
    p = np.where(direct, config.p_direct, config.p_visibility)
    return np.flatnonzero(rng.uniform(size=p.size) < p).tolist()


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
    pairs = _candidates(config.n_tx, config.n_rx, config.n_scatterers)[0]
    return tuple(pairs[i] for i in _draw_candidates(config, rng))


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


def _class_laws(
    classes: Sequence[EdgeClass], delays: Sequence[float]
) -> dict[EdgeClass, FrequencyLawGain]:
    """The gain law of every direct, feed and collect class in ``classes``.

    ``classes`` and ``delays`` run in parallel over the edges.  Feed and
    collect laws carry their class's delay statistics, taken over its edges
    in that order.
    """
    laws = {}
    for cls in set(classes) - {EdgeClass.INTER_SCATTER}:
        if cls is EdgeClass.DIRECT:
            laws[cls] = FrequencyLawGain(cls)
        else:
            mu, inv_sq = _delay_stats([d for c, d in zip(classes, delays) if c is cls])
            laws[cls] = FrequencyLawGain(cls, mean_delay_s=mu, inv_sq_delay_sum=inv_sq)
    return laws


def _build_edges(
    pairs: Sequence[tuple[VertexId, VertexId]],
    classes: Sequence[EdgeClass],
    delays: Sequence[float],
    phases: np.ndarray,
    inter_scatterer_gain: float | None,
    tail_slope_db_per_ns: float | None,
) -> tuple[tuple[Edge, ...], float | None, float | None]:
    """Attach gain laws to drawn pairs, given their classes and delays.

    Returns the edges plus the realization's mean inter-scatterer delay and
    resolved shared gain (both ``None`` when no inter-scatterer edge exists).
    """
    laws = _class_laws(classes, delays)

    mu_es: float | None = None
    resolved_g: float | None = None
    inter = [d for c, d in zip(classes, delays) if c is EdgeClass.INTER_SCATTER]
    if inter:
        mu_es = float(np.mean(inter))
        if inter_scatterer_gain is not None:
            resolved_g = float(inter_scatterer_gain)
        else:
            resolved_g = gain_from_slope(tail_slope_db_per_ns, mu_es)
    out_degree = Counter(
        src for (src, _dst), cls in zip(pairs, classes) if cls is EdgeClass.INTER_SCATTER
    )

    def gain_for(src: VertexId, cls: EdgeClass) -> FrequencyLawGain:
        if cls is EdgeClass.INTER_SCATTER:
            return FrequencyLawGain(cls, base_gain=resolved_g, out_degree=out_degree[src])
        return laws[cls]

    edges = tuple(
        Edge(src=src, dst=dst, gain=gain_for(src, cls), phase_rad=float(phase), delay_s=delay)
        for (src, dst), cls, phase, delay in zip(pairs, classes, phases, delays)
    )
    return edges, mu_es, resolved_g


def _band_edges(frequency_band) -> tuple[float, float]:
    if hasattr(frequency_band, "f_min_hz"):
        frequency_band = frequency_band.f_min_hz, frequency_band.f_max_hz
    lo, hi = (float(f) for f in frequency_band)
    _check_band(lo, hi)
    return lo, hi


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
    validation_freqs = np.linspace(f_lo, f_hi, VALIDATION_FREQUENCIES)
    pairs, classes, _, rows = _candidates(config.n_tx, config.n_rx, config.n_scatterers)
    for attempt in range(config.max_rejections):
        pos_rng, edge_rng, phase_rng = _attempt_rngs(config.seed, attempt)
        points = draw_positions(config, pos_rng)
        kept = _draw_candidates(config, edge_rng)
        phases = phase_rng.uniform(0.0, 2.0 * math.pi, size=len(kept))
        # Each delay's squared length is a vector-vector matmul, the same dot
        # product np.linalg.norm takes of one vector, so it rounds alike.
        ends = np.concatenate([config.tx_positions, config.rx_positions, points])[rows[kept]]
        span = ends[:, 1] - ends[:, 0]
        lengths = np.sqrt(np.matmul(span[:, None, :], span[:, :, None])).ravel()
        edges, mu_es, resolved_g = _build_edges(
            [pairs[i] for i in kept],
            [classes[i] for i in kept],
            (lengths / config.speed_of_light).tolist(),
            phases,
            config.inter_scatterer_gain,
            config.tail_slope_db_per_ns,
        )
        graph = PropagationGraph(
            n_tx=config.n_tx,
            n_rx=config.n_rx,
            n_scatterers=config.n_scatterers,
            edges=edges,
            positions=_position_table(config, points),
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


def _realizations(draw, config: ScenarioConfig, bands):
    """Yield ``draw(config, band)`` for each band, drawing again only where the band mattered.

    ``draw`` is :func:`generate_realization` under the name the caller looks
    it up by.  That function samples the band only for a loop that the flat
    bound does not certify (:func:`~revgraph.transfer._flat_certified`), so a
    realization that this bound accepted on the first attempt is the one its
    seed draws on any band; it is yielded again for every later band.
    """
    realization = None
    for band in bands:
        if realization is None or realization.attempts > 1 or not _flat_certified(realization.graph):
            realization = draw(config, band)
        yield realization


# -- Receiver relocation (spatial sweeps) -----------------------------------------


def relocate_receiver(
    graph: PropagationGraph, rx_index: int, new_position
) -> PropagationGraph:
    """Move one receiver and rebuild the receiver-side edges.

    Keeps the edge set, the edge order and every random phase.  Each edge
    into the moved receiver gets the delay ``new_dist / (old_dist / delay)``,
    which recovers the propagation speed from its stored delay, so the
    config is not needed here.  Every direct and scatterer-to-receiver edge
    then gets its class's gain law rebuilt from the new delays, because the
    scatterer-to-receiver statistics depend on them.  Feed and loop edges
    are the very ``Edge`` objects of ``graph``, in the same order, so the
    scatterer-side blocks cannot change (a spatial sweep checks their rows
    by value).  Only graphs whose receiver-side edges carry in-room gain
    laws can be relocated.
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

    receiver_side = [e for e in graph.edges if e.dst.kind is VertexKind.RX]
    for e in receiver_side:
        if not (
            isinstance(e.gain, FrequencyLawGain)
            and e.gain.law in (EdgeClass.DIRECT, EdgeClass.SCATTER_RX)
        ):
            raise ValueError(
                "relocation expects in-room gain laws on receiver-side edges"
            )

    def delay(e: Edge) -> float:
        if e.dst != moved:
            return e.delay_s
        old_dist = float(np.linalg.norm(np.subtract(graph.positions[e.dst], graph.positions[e.src])))
        new_dist = float(np.linalg.norm(np.subtract(positions[e.dst], positions[e.src])))
        return new_dist / (old_dist / e.delay_s)

    delays = [delay(e) for e in receiver_side]
    laws = _class_laws([e.edge_class for e in receiver_side], delays)
    rebuilt = (
        replace(e, gain=laws[e.edge_class], delay_s=d) for e, d in zip(receiver_side, delays)
    )
    edges = tuple(next(rebuilt) if e.dst.kind is VertexKind.RX else e for e in graph.edges)
    return replace(graph, edges=edges, positions=positions)


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
        attempts=doc["attempts"],
        mu_es=doc["mu_es"],
        resolved_g=doc["resolved_g"],
    )
