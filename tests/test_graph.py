"""Structural and algebraic checks on the propagation-graph data model.

Covers:
- construction rules: legal example graph, role violations, parallel-edge
  rejection, scatterer self-loops allowed at this layer, position coverage
- block evaluation: sparsity pattern matches the edge set, assembled full
  matrix keeps transmitter rows and receiver columns empty, Friis gain hits
  magnitude one at 4*pi*f*tau = 1, phase changes only the argument,
  sampled blocks stay read-only and unchanged through engine calls, and
  grid samples (factored phasors) agree with the edge formula within the
  stated tolerance and are no less accurate against a long-double phasor;
  array samples (B = 1) equal that formula, written out here, bit for bit;
  every edge sample checks its frequencies as block_samples does
- reversal: involution, block transposition, role swap of a feed edge
- walk enumeration: documented example paths, counts on small topologies,
  the explosion guard, and path-product consistency with the blocks
- walk sums: bitwise equal to path_transfer summed over enumerate_paths,
  with every enumerated path counted by the explosion guard
- JSON round trip is value-identical
"""

import json
import math

import numpy as np
import pytest

from revgraph.graph import (
    ConstantGain,
    Edge,
    EdgeClass,
    ExplosionGuard,
    FrequencyLawGain,
    InvalidWalk,
    MissingPositions,
    PropagationGraph,
    StructuralViolation,
    VertexId,
    VertexKind,
    adjacency_blocks,
    block_samples,
    enumerate_paths,
    graph_from_json,
    graph_to_json,
    path_transfer,
    reverse_graph,
    rx,
    scatterer,
    tx,
    walk_sum,
)
from revgraph.scenario import ScenarioConfig, generate_realization
from revgraph.synthesis import FrequencyGrid, sample_transfer, sample_transfer_slices
from revgraph.transfer import (
    BounceRange,
    PrecomputedKernel,
    _SampledSystem,
    make_kernel,
    scatterer_signal,
    transfer_matrix,
)

TWO_PI = 2.0 * math.pi


def _edge(src, dst, gain=0.5, phase=0.0, delay=1e-9):
    return Edge(src=src, dst=dst, gain=ConstantGain(gain), phase_rad=phase, delay_s=delay)


def _example_mimo_graph():
    """Four transmitters, three receivers, six scatterers; 16 edges.

    The edge list exercises every class: three direct links into the first
    receiver, four feeds, three collects, and six scatterer-to-scatterer
    edges including the S1<->S2 cycle used by the walk tests.
    """
    pairs = [
        (tx(0), rx(0)), (tx(1), rx(0)), (tx(2), rx(0)),            # direct
        (tx(1), scatterer(2)), (tx(2), scatterer(2)),              # feed
        (tx(3), scatterer(5)), (tx(3), scatterer(0)),
        (scatterer(0), rx(2)), (scatterer(2), rx(2)),              # collect
        (scatterer(5), rx(1)),
        (scatterer(0), scatterer(1)), (scatterer(1), scatterer(0)),  # loop
        (scatterer(2), scatterer(0)), (scatterer(1), scatterer(3)),
        (scatterer(3), scatterer(2)), (scatterer(3), scatterer(4)),
    ]
    rng = np.random.default_rng(7)
    edges = [
        _edge(a, b, gain=float(rng.uniform(0.1, 0.9)),
              phase=float(rng.uniform(0.0, TWO_PI)),
              delay=float(rng.uniform(1e-9, 3e-8)))
        for a, b in pairs
    ]
    return PropagationGraph(n_tx=4, n_rx=3, n_scatterers=6, edges=tuple(edges))


def _random_graph(rng, n_tx=1, n_rx=1, n_sc=3, p_edge=0.7, p_direct=1.0):
    """Random constant-gain graph over all admissible vertex pairs."""
    edges = []
    for t in range(n_tx):
        for r in range(n_rx):
            if rng.uniform() < p_direct:
                edges.append(_edge(tx(t), rx(r), gain=float(rng.uniform(0.1, 1.0)),
                                   phase=float(rng.uniform(0, TWO_PI)),
                                   delay=float(rng.uniform(1e-9, 2e-8))))
    for t in range(n_tx):
        for s in range(n_sc):
            if rng.uniform() < p_edge:
                edges.append(_edge(tx(t), scatterer(s), gain=float(rng.uniform(0.1, 1.0)),
                                   phase=float(rng.uniform(0, TWO_PI)),
                                   delay=float(rng.uniform(1e-9, 2e-8))))
    for a in range(n_sc):
        for b in range(n_sc):
            if a != b and rng.uniform() < p_edge:
                edges.append(_edge(scatterer(a), scatterer(b), gain=float(rng.uniform(0.1, 0.5)),
                                   phase=float(rng.uniform(0, TWO_PI)),
                                   delay=float(rng.uniform(1e-9, 2e-8))))
    for s in range(n_sc):
        for r in range(n_rx):
            if rng.uniform() < p_edge:
                edges.append(_edge(scatterer(s), rx(r), gain=float(rng.uniform(0.1, 1.0)),
                                   phase=float(rng.uniform(0, TWO_PI)),
                                   delay=float(rng.uniform(1e-9, 2e-8))))
    return PropagationGraph(n_tx=n_tx, n_rx=n_rx, n_scatterers=n_sc, edges=tuple(edges))


# -- construction -------------------------------------------------------------


def test_example_graph_partitions_into_four_classes():
    graph = _example_mimo_graph()
    assert len(graph.edges_in_class(EdgeClass.DIRECT)) == 3
    assert len(graph.edges_in_class(EdgeClass.TX_SCATTER)) == 4
    assert len(graph.edges_in_class(EdgeClass.SCATTER_RX)) == 3
    assert len(graph.edges_in_class(EdgeClass.INTER_SCATTER)) == 6


def test_edge_out_of_receiver_rejected():
    with pytest.raises(StructuralViolation):
        _edge(rx(0), scatterer(0))


def test_edge_into_transmitter_rejected():
    with pytest.raises(StructuralViolation):
        _edge(scatterer(0), tx(0))


def test_parallel_edges_rejected():
    duplicated = (_edge(tx(0), rx(0)), _edge(tx(0), rx(0), gain=0.1))
    with pytest.raises(StructuralViolation):
        PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0, edges=duplicated)


def test_scatterer_self_loop_is_legal_here():
    loop = _edge(scatterer(0), scatterer(0))
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=1,
                             edges=(_edge(tx(0), rx(0)), loop))
    blocks = adjacency_blocks(graph, 1e9)
    assert blocks.loop[0, 0] != 0.0


def test_direct_only_graph_is_valid():
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0,
                             edges=(_edge(tx(0), rx(0)),))
    assert graph.n_vertices == 2
    assert len(graph.edges_in_class(EdgeClass.DIRECT)) == 1


def test_incomplete_position_map_rejected():
    friis = FrequencyLawGain(law=EdgeClass.DIRECT)
    edge = Edge(src=tx(0), dst=rx(0), gain=friis, phase_rad=0.0, delay_s=1e-8)
    with pytest.raises(MissingPositions):
        PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0, edges=(edge,),
                         positions={tx(0): (0.0, 0.0, 0.0)})


def test_out_of_range_vertex_index_rejected():
    with pytest.raises(StructuralViolation):
        PropagationGraph(n_tx=1, n_rx=1, n_scatterers=1,
                         edges=(_edge(tx(0), scatterer(4)),))


@pytest.mark.parametrize("index", [0.5, True, "1"])
def test_vertex_index_must_be_an_integer(index):
    with pytest.raises(ValueError, match="index"):
        VertexId(VertexKind.SCATTERER, index)


def test_vertex_index_normalises_numpy_integers():
    vertex = scatterer(np.int64(2))
    assert type(vertex.index) is int
    assert vertex == scatterer(2) and str(vertex) == "s2"


@pytest.mark.parametrize("field", ["n_tx", "n_rx", "n_scatterers"])
def test_vertex_counts_must_be_integers(field):
    counts = {"n_tx": 1, "n_rx": 1, "n_scatterers": 0, field: 1.5}
    with pytest.raises(ValueError, match=field):
        PropagationGraph(**counts, edges=())
    graph = PropagationGraph(**{**counts, field: np.int64(1)}, edges=())
    assert type(getattr(graph, field)) is int
    assert len(list(graph.vertices())) == graph.n_vertices


# -- block evaluation -----------------------------------------------------------


def test_block_sparsity_matches_edge_set():
    graph = _example_mimo_graph()
    blocks = adjacency_blocks(graph, 2.4e9)
    by_block = {
        EdgeClass.DIRECT: blocks.direct,
        EdgeClass.TX_SCATTER: blocks.feed,
        EdgeClass.INTER_SCATTER: blocks.loop,
        EdgeClass.SCATTER_RX: blocks.collect,
    }
    for cls, matrix in by_block.items():
        expected = {(e.dst.index, e.src.index) for e in graph.edges_in_class(cls)}
        actual = set(zip(*np.nonzero(matrix)))
        assert actual == expected, cls


def test_loop_block_nonzeros_at_documented_positions():
    graph = _example_mimo_graph()
    loop = adjacency_blocks(graph, 2.4e9).loop
    # edges S1->S2, S2->S1, S3->S1, S2->S4, S4->S3, S4->S5 in 1-based labels,
    # indexed [destination, source]
    expected = {(1, 0), (0, 1), (0, 2), (3, 1), (2, 3), (4, 3)}
    assert set(zip(*np.nonzero(loop))) == expected


def test_full_matrix_keeps_tx_rows_and_rx_columns_empty():
    graph = _example_mimo_graph()
    full = adjacency_blocks(graph, 2.4e9).full_matrix()
    n = graph.n_vertices
    assert full.shape == (n, n)
    assert not full[: graph.n_tx, :].any()
    assert not full[:, graph.n_tx : graph.n_tx + graph.n_rx].any()


def test_friis_direct_gain_is_unity_at_unit_denominator():
    # pick f and tau with 4*pi*f*tau = 1
    f = 1e9
    tau = 1.0 / (4.0 * math.pi * f)
    edge = Edge(src=tx(0), dst=rx(0), gain=FrequencyLawGain(law=EdgeClass.DIRECT),
                phase_rad=0.0, delay_s=tau)
    graph = PropagationGraph(
        n_tx=1, n_rx=1, n_scatterers=0, edges=(edge,),
        positions={tx(0): (0.0, 0.0, 0.0), rx(0): (1.0, 0.0, 0.0)},
    )
    blocks = adjacency_blocks(graph, f)
    assert abs(blocks.direct[0, 0]) == pytest.approx(1.0, rel=1e-12)


def test_phase_changes_argument_only():
    f = 2.2e9
    base = _edge(tx(0), rx(0), gain=0.37, phase=0.0, delay=4e-9)
    shifted = _edge(tx(0), rx(0), gain=0.37, phase=1.234, delay=4e-9)
    assert abs(base.transfer_value(f)) == pytest.approx(abs(shifted.transfer_value(f)), rel=1e-15)
    arg_gap = np.angle(shifted.transfer_value(f) / base.transfer_value(f))
    assert arg_gap == pytest.approx(1.234, abs=1e-12)


def test_block_samples_match_per_frequency_blocks():
    graph = _example_mimo_graph()
    freqs = np.linspace(1e9, 3e9, 5)
    batch = block_samples(graph, freqs)
    for m, f in enumerate(freqs):
        single = adjacency_blocks(graph, float(f))
        np.testing.assert_array_equal(batch.at(m).direct, single.direct)
        np.testing.assert_array_equal(batch.at(m).loop, single.loop)
        np.testing.assert_array_equal(batch.at(m).feed, single.feed)
        np.testing.assert_array_equal(batch.at(m).collect, single.collect)


def test_block_samples_are_views_of_frequency_minor_storage():
    # each edge's samples form one contiguous row of (rows, cols, m) storage
    samples = block_samples(_example_mimo_graph(), np.linspace(1e9, 3e9, 7))
    for name in ("direct", "feed", "loop", "collect"):
        block = getattr(samples, name)
        assert block.shape[0] == 7
        assert np.moveaxis(block, 0, -1).flags.c_contiguous
        assert not block.flags.writeable


def test_block_samples_stay_read_only_after_engine_calls():
    # the engine factors and solves in storage of its own sampling, never in
    # blocks handed out by block_samples
    graph = _example_mimo_graph()
    grid = FrequencyGrid(1e9, 3e9, 7)
    freqs = grid.frequencies()
    samples = block_samples(graph, freqs)
    names = ("direct", "feed", "loop", "collect")
    before = {name: getattr(samples, name).copy() for name in names}
    sample_transfer(graph, grid)
    sample_transfer_slices(graph, grid, [BounceRange.exactly(2), BounceRange.tail(1)])
    transfer_matrix(graph, freqs[3])
    make_kernel(graph, freqs[3])
    scatterer_signal(graph, freqs[3], np.ones(graph.n_tx))
    for name in names:
        block = getattr(samples, name)
        assert not block.flags.writeable
        np.testing.assert_array_equal(block, before[name])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_block_samples_reject_nonfinite_frequencies(bad):
    flat_only = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0,
                                 edges=(_edge(tx(0), rx(0), gain=0.5, delay=4e-9),))
    for graph in (flat_only, _example_mimo_graph()):
        with pytest.raises(ValueError, match="finite"):
            block_samples(graph, [2e9, bad])
        with pytest.raises(ValueError, match="finite"):
            adjacency_blocks(graph, bad)


def test_self_loop_sits_on_the_diagonal_and_counts_towards_the_flat_bound():
    edges = (
        _edge(tx(0), scatterer(0), gain=0.4, delay=2e-9),
        _edge(scatterer(0), scatterer(0), gain=0.7, phase=0.3, delay=1e-9),
        _edge(scatterer(1), scatterer(0), gain=0.2, phase=1.1, delay=3e-9),
        _edge(scatterer(0), rx(0), gain=0.5, delay=2e-9),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)
    f = 2.4e9
    loop = adjacency_blocks(graph, f).loop
    assert loop[0, 0] == edges[1].transfer_value(f)
    assert loop[0, 1] == edges[2].transfer_value(f)
    assert not loop[1].any()
    # column sums 0.7 and 0.2, row sums 0.9 and 0: the self-loop sets the bound
    bound = graph._edge_table.loop_bound
    assert 0.7 <= bound <= 0.7 * (1.0 + 1e-14)
    for freqs in (np.linspace(1e9, 3e9, 64), FrequencyGrid(1e9, 3e9, 300)):
        moduli = np.abs(np.moveaxis(block_samples(graph, freqs).loop, 0, -1))
        assert moduli.sum(axis=0).max() <= bound


def test_frequency_laws_leave_no_flat_bound():
    # scatterer-to-scatterer edges under a frequency law have no frequency-free norm
    graph = generate_realization(ScenarioConfig(seed=3), (2e9, 3e9)).graph
    assert graph._edge_table.loop_bound is not None
    law = FrequencyLawGain(EdgeClass.TX_SCATTER, mean_delay_s=1e-8, inv_sq_delay_sum=1e16)
    edges = tuple(
        Edge(e.src, e.dst, law, e.phase_rad, e.delay_s) if e.edge_class is EdgeClass.INTER_SCATTER
        else e for e in graph.edges[:40]
    )
    mixed = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=graph.n_scatterers, edges=edges)
    assert any(e.edge_class is EdgeClass.INTER_SCATTER for e in edges)
    assert mixed._edge_table.loop_bound is None


_BLOCK_OF = {EdgeClass.DIRECT: "direct", EdgeClass.TX_SCATTER: "feed",
             EdgeClass.INTER_SCATTER: "loop", EdgeClass.SCATTER_RX: "collect"}


def _grid_and_direct_samples(grid, seeds):
    """Per edge of generated rooms: the edge, its grid samples, its transfer values, its amplitude."""
    f = grid.frequencies()
    for seed in seeds:
        graph = generate_realization(ScenarioConfig(seed=seed), grid).graph
        samples = block_samples(graph, grid)
        for e in graph.edges:
            on_grid = getattr(samples, _BLOCK_OF[e.edge_class])[:, e.dst.index, e.src.index]
            yield e, on_grid, e.transfer_value(f), e.gain.amplitude(f, e.delay_s)


@pytest.mark.parametrize("grid", [FrequencyGrid(2e9, 3e9, 8192), FrequencyGrid(1e9, 11e9, 8192),
                                  FrequencyGrid(2e9, 3e9, 257)])
def test_grid_samples_agree_with_edge_transfer_values(grid):
    # the factored form's stated tolerance: 16 eps (1 + 2 pi delay f) of the amplitude
    f = grid.frequencies()
    eps = np.finfo(float).eps
    for e, on_grid, direct, amplitude in _grid_and_direct_samples(grid, range(3)):
        tolerance = 16 * eps * (1.0 + TWO_PI * e.delay_s * f) * amplitude
        assert np.all(np.abs(on_grid - direct) <= tolerance), f"{e.src}->{e.dst}"
    # an array of the same frequencies is the B = 1 case: the direct formula, bit for bit
    graph = generate_realization(ScenarioConfig(seed=0), grid).graph
    on_array = block_samples(graph, f)
    for e in graph.edges:
        block = getattr(on_array, _BLOCK_OF[e.edge_class])
        np.testing.assert_array_equal(_bits(block[:, e.dst.index, e.src.index]), _bits(_direct_formula(e, f)))


def _direct_formula(e, f):
    """amplitude (cos x + j sin x) with x = phase - (2 pi delay) f, written out."""
    x = e.phase_rad - (TWO_PI * e.delay_s) * f
    return e.gain.amplitude(f, e.delay_s) * (np.cos(x) + 1j * np.sin(x))


def _bits(samples):
    """The bit patterns of complex samples, so that signs of zeros count."""
    return np.ascontiguousarray(samples, dtype=complex).view(np.uint64)


def _hand_built_graph():
    """Every block, with a zero-delay direct edge and a zero-gain feed edge."""
    edges = (
        _edge(tx(0), rx(0), gain=0.8, phase=1.1, delay=0.0),
        _edge(tx(0), scatterer(0), gain=0.0, phase=0.4, delay=3e-9),
        _edge(tx(0), scatterer(1), gain=0.6, phase=2.0, delay=5e-9),
        _edge(scatterer(0), scatterer(1), gain=0.3, phase=0.7, delay=2e-9),
        _edge(scatterer(1), scatterer(0), gain=0.2, phase=5.9, delay=2e-9),
        Edge(scatterer(1), rx(0), FrequencyLawGain(EdgeClass.SCATTER_RX, mean_delay_s=1e-8,
                                                   inv_sq_delay_sum=1e16), 3.3, 7e-9),
    )
    return PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)


def test_array_samples_are_the_direct_formula_bit_for_bit():
    graph = _hand_built_graph()
    f = np.linspace(1e9, 3e9, 64)
    samples = block_samples(graph, f)
    for e in graph.edges:
        placed = getattr(samples, _BLOCK_OF[e.edge_class])[:, e.dst.index, e.src.index]
        if e.gain.flat_amplitude == 0.0:
            # a zero gain gives zero samples; the signs of their zero parts are not part of the contract
            np.testing.assert_array_equal(placed, _direct_formula(e, f))
        else:
            np.testing.assert_array_equal(_bits(placed), _bits(_direct_formula(e, f)))
        np.testing.assert_array_equal(_bits(e.transfer_value(f)), _bits(placed))


def test_edge_samples_on_empty_and_shaped_axes():
    graph = _hand_built_graph()
    empty = block_samples(graph, [])
    assert empty.freqs.shape == (0,)
    assert empty.loop.shape == (0, 2, 2) and empty.collect.shape == (0, 1, 2)
    law = graph.edges[-1]
    assert law.transfer_value(np.array([])).shape == (0,)
    f = np.linspace(1e9, 3e9, 6)
    value = law.transfer_value(2e9)
    assert type(value) is complex
    np.testing.assert_array_equal(_bits([value]), _bits(_direct_formula(law, np.array([2e9]))))
    assert law.transfer_value(f).shape == (6,)
    square = law.transfer_value(f.reshape(2, 3))
    assert square.shape == (2, 3)
    np.testing.assert_array_equal(_bits(square.ravel()), _bits(_direct_formula(law, f)))


@pytest.mark.parametrize("m", [2, 3, 257])
def test_grid_samples_hold_the_tolerance_when_m_is_not_a_multiple_of_b(m):
    # B = ceil(sqrt(M)) leaves a partial last block at M = 3 and 257
    grid = FrequencyGrid(1e9, 11e9, m)
    f = grid.frequencies()
    eps = np.finfo(float).eps
    for graph in (_hand_built_graph(), generate_realization(ScenarioConfig(seed=2), grid).graph):
        samples = block_samples(graph, grid)
        for e in graph.edges:
            placed = getattr(samples, _BLOCK_OF[e.edge_class])[:, e.dst.index, e.src.index]
            amplitude = e.gain.amplitude(f, e.delay_s)
            tolerance = 16 * eps * (1.0 + TWO_PI * e.delay_s * f) * amplitude
            assert np.all(np.abs(placed - _direct_formula(e, f)) <= tolerance), f"{e.src}->{e.dst}"


@pytest.mark.parametrize("bad", [0.0, -1e9, math.nan, math.inf])
def test_every_edge_sample_checks_its_frequency(bad):
    # the direct edge's law needs f > 0; block_samples, transfer_value and walk_sum share one check
    graph = generate_realization(ScenarioConfig(seed=1), (2e9, 3e9)).graph
    (direct,) = graph.edges_in_class(EdgeClass.DIRECT)
    with pytest.raises(ValueError, match="finite|positive"):
        block_samples(graph, [bad])
    with pytest.raises(ValueError, match="finite|positive"):
        direct.transfer_value(bad)
    with pytest.raises(ValueError, match="finite|positive"):
        direct.transfer_value(np.array([[2e9, bad]]))
    with pytest.raises(ValueError, match="finite|positive"):
        walk_sum(graph, bad, 0, 1)


@pytest.mark.parametrize("f", [0.0, -1e9])
def test_flat_gains_may_be_sampled_at_nonpositive_frequencies(f):
    graph = _example_mimo_graph()
    blocks = adjacency_blocks(graph, f)
    for e in graph.edges:
        assert e.transfer_value(f) == getattr(blocks, _BLOCK_OF[e.edge_class])[e.dst.index, e.src.index]
    assert np.array_equal(walk_sum(graph, f, 0, 0), blocks.direct)
    with pytest.raises(ValueError, match="finite"):
        graph.edges[0].transfer_value(math.nan)
    with pytest.raises(ValueError, match="finite"):
        walk_sum(graph, math.inf, 0, 0)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double has no extra precision here")
@pytest.mark.parametrize("grid", [FrequencyGrid(2e9, 3e9, 8192), FrequencyGrid(1e9, 11e9, 8192)])
def test_grid_samples_are_no_less_accurate_than_the_direct_formula(grid):
    # against a phasor evaluated in long double on the grid's exact frequencies
    pi = 4 * np.arctan(np.longdouble(1))
    f = np.longdouble(grid.f_min_hz) + np.longdouble(grid.delta_f) * np.arange(grid.n_samples)
    worst_grid = worst_direct = 0.0
    for e, on_grid, direct, amplitude in _grid_and_direct_samples(grid, range(2)):
        x = np.longdouble(e.phase_rad) - 2 * pi * np.longdouble(e.delay_s) * f
        exact = np.cos(x) + 1j * np.sin(x)
        worst_grid = max(worst_grid, float(np.max(np.abs(on_grid / amplitude - exact))))
        worst_direct = max(worst_direct, float(np.max(np.abs(direct / amplitude - exact))))
    assert 0.0 < worst_grid <= worst_direct < 1e-12


def test_stack_solves_equal_single_frequency_solves_bitwise():
    grid = FrequencyGrid(2e9, 3e9, 64)
    generated = generate_realization(ScenarioConfig(seed=5), grid).graph
    for graph in (_example_mimo_graph(), generated):
        freqs = grid.frequencies()
        samples = block_samples(graph, freqs)
        stacked = PrecomputedKernel.from_loop_block(samples.loop, freqs).solve(samples.feed)
        certified = _SampledSystem.of(graph, freqs).factor().solve(samples.feed)
        np.testing.assert_array_equal(certified, stacked)
        tensor = sample_transfer(graph, grid).tensor
        scale = np.abs(tensor).max()
        for m in range(grid.n_samples):
            single = PrecomputedKernel.from_loop_block(samples.loop[m], freqs[m])
            np.testing.assert_array_equal(stacked[m], single.solve(samples.feed[m]))
            # a grid is sampled in factored form: equal to single-frequency calls to rounding
            np.testing.assert_allclose(tensor[m], transfer_matrix(graph, freqs[m]).matrix,
                                       rtol=0, atol=1e-12 * scale)


# -- reversal ---------------------------------------------------------------------


def test_reversal_transposes_blocks():
    graph = _example_mimo_graph()
    f = 1.7e9
    fwd = adjacency_blocks(graph, f)
    rev = adjacency_blocks(reverse_graph(graph), f)
    np.testing.assert_array_equal(rev.direct, fwd.direct.T)
    np.testing.assert_array_equal(rev.loop, fwd.loop.T)
    np.testing.assert_array_equal(rev.feed, fwd.collect.T)
    np.testing.assert_array_equal(rev.collect, fwd.feed.T)


def test_reversal_is_an_involution():
    graph = _example_mimo_graph()
    double = reverse_graph(reverse_graph(graph))
    f = 2.9e9
    a, b = adjacency_blocks(graph, f), adjacency_blocks(double, f)
    np.testing.assert_array_equal(a.direct, b.direct)
    np.testing.assert_array_equal(a.feed, b.feed)
    np.testing.assert_array_equal(a.loop, b.loop)
    np.testing.assert_array_equal(a.collect, b.collect)


def test_reversal_turns_feed_edge_into_collect_edge():
    graph = _example_mimo_graph()
    reversed_graph = reverse_graph(graph)
    # (Tx4 -> S6) forward becomes (S6 -> Rx4) backward
    flipped = reversed_graph.edge_between(scatterer(5), rx(3))
    assert flipped is not None
    assert flipped.edge_class is EdgeClass.SCATTER_RX


# -- walk enumeration ---------------------------------------------------------------


def test_documented_three_bounce_path_is_enumerated():
    graph = _example_mimo_graph()
    walks = set(enumerate_paths(graph, 3))
    assert (tx(3), scatterer(0), scatterer(1), scatterer(0), rx(2)) in walks


def test_direct_only_graph_has_one_path():
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0,
                             edges=(_edge(tx(0), rx(0)),))
    assert list(enumerate_paths(graph, 5)) == [(tx(0), rx(0))]


def test_two_scatterer_cycle_path_counts():
    # Tx -> {S1, S2}, S1 <-> S2, {S1, S2} -> Rx: two k-bounce paths per k
    edges = (
        _edge(tx(0), scatterer(0)), _edge(tx(0), scatterer(1)),
        _edge(scatterer(0), scatterer(1)), _edge(scatterer(1), scatterer(0)),
        _edge(scatterer(0), rx(0)), _edge(scatterer(1), rx(0)),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)
    walks = list(enumerate_paths(graph, 3))
    by_bounce = {}
    for walk in walks:
        by_bounce.setdefault(len(walk) - 2, []).append(walk)
    assert {k: len(v) for k, v in by_bounce.items()} == {1: 2, 2: 2, 3: 2}
    assert len(walks) == 6


def test_explosion_guard_fires_on_tiny_cap():
    graph = _example_mimo_graph()
    with pytest.raises(ExplosionGuard):
        list(enumerate_paths(graph, 6, max_paths=5))


@pytest.mark.parametrize("bounces", [1.5, True, -1])
def test_enumeration_depth_must_be_an_integer(bounces):
    graph = generate_realization(ScenarioConfig(seed=1, n_scatterers=3), (2e9, 3e9)).graph
    with pytest.raises(ValueError, match="max_bounces"):
        enumerate_paths(graph, bounces)  # checked on call, before any path is asked for


def test_enumeration_order_is_deterministic():
    graph = _example_mimo_graph()
    first = list(enumerate_paths(graph, 4))
    second = list(enumerate_paths(graph, 4))
    assert first == second


# -- path transfer -------------------------------------------------------------------


def test_direct_path_transfer_is_unit_phasor():
    f = 1e9
    tau = 1.0 / (4.0 * math.pi * f)
    edge = Edge(src=tx(0), dst=rx(0), gain=FrequencyLawGain(law=EdgeClass.DIRECT),
                phase_rad=0.0, delay_s=tau)
    graph = PropagationGraph(
        n_tx=1, n_rx=1, n_scatterers=0, edges=(edge,),
        positions={tx(0): (0.0, 0.0, 0.0), rx(0): (1.0, 0.0, 0.0)},
    )
    value = path_transfer(graph, (tx(0), rx(0)), f)
    assert value == pytest.approx(np.exp(-2j * math.pi * f * tau), rel=1e-12)


def test_single_bounce_path_is_edge_product():
    edges = (_edge(tx(0), scatterer(0), gain=0.4, phase=0.3, delay=2e-9),
             _edge(scatterer(0), rx(0), gain=0.7, phase=1.1, delay=5e-9))
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=1, edges=edges)
    f = 3.3e9
    expected = edges[0].transfer_value(f) * edges[1].transfer_value(f)
    assert path_transfer(graph, (tx(0), scatterer(0), rx(0)), f) == pytest.approx(expected)


def test_path_transfer_rejects_missing_edge():
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=1,
                             edges=(_edge(tx(0), rx(0)),))
    with pytest.raises(InvalidWalk):
        path_transfer(graph, (tx(0), scatterer(0), rx(0)), 1e9)


def test_walk_sums_match_block_products():
    """Per-bounce path sums equal collect @ loop^(k-1) @ feed for small graphs."""
    rng = np.random.default_rng(42)
    f = 2.5e9
    for _ in range(20):
        graph = _random_graph(rng, n_sc=int(rng.integers(1, 5)))
        blocks = adjacency_blocks(graph, f)
        expected = blocks.direct.copy()
        np.testing.assert_allclose(walk_sum(graph, f, 0, 0), expected,
                                   rtol=1e-10, atol=1e-14)
        power = np.eye(graph.n_scatterers, dtype=complex)
        for k in range(1, 5):
            term = blocks.collect @ power @ blocks.feed
            np.testing.assert_allclose(walk_sum(graph, f, k, k), term,
                                       rtol=1e-10, atol=1e-14)
            power = power @ blocks.loop


def _enumerated_sum(graph, f, lo, hi):
    """walk_sum's definition: path_transfer summed over enumerate_paths."""
    total = np.zeros((graph.n_rx, graph.n_tx), dtype=complex)
    for walk in enumerate_paths(graph, hi):
        if len(walk) - 2 >= lo:
            total[walk[-1].index, walk[0].index] += path_transfer(graph, walk, f)
    return total


@pytest.mark.parametrize("bounds", [(0, 4), (2, 3), (0, 0), (1, 5)])
def test_walk_sum_equals_the_enumerated_path_sum_bitwise(bounds):
    generated = generate_realization(ScenarioConfig(seed=3, n_scatterers=5), (2e9, 3e9)).graph
    for graph in (_example_mimo_graph(), generated):
        for f in (2e9, 2.7e9):
            np.testing.assert_array_equal(walk_sum(graph, f, *bounds),
                                          _enumerated_sum(graph, f, *bounds))


def test_walk_sum_guard_counts_paths_below_min_bounces():
    graph = _example_mimo_graph()
    with pytest.raises(ExplosionGuard):
        walk_sum(graph, 2.5e9, 0, 6, max_paths=5)
    n_paths = sum(1 for _ in enumerate_paths(graph, 4))
    walk_sum(graph, 2.5e9, 4, 4, max_paths=n_paths)
    with pytest.raises(ExplosionGuard):
        walk_sum(graph, 2.5e9, 4, 4, max_paths=n_paths - 1)


@pytest.mark.parametrize("bounds, name", [((0, 1.5), "max_bounces"), ((0.5, 1), "min_bounces"),
                                          ((False, 1), "min_bounces")])
def test_walk_sum_bounds_must_be_integers(bounds, name):
    with pytest.raises(ValueError, match=name):
        walk_sum(_example_mimo_graph(), 2.5e9, *bounds)


# -- serialization ------------------------------------------------------------------


def test_json_round_trip_is_value_identical():
    graph = _example_mimo_graph()
    text = graph_to_json(graph)
    rebuilt = graph_from_json(text)
    assert graph_to_json(rebuilt) == text


def test_json_document_shape():
    graph = _example_mimo_graph()
    doc = json.loads(graph_to_json(graph))
    assert set(doc) == {"n_t", "n_r", "n_s", "positions", "edges"}
    assert doc["n_t"] == 4 and doc["n_r"] == 3 and doc["n_s"] == 6
    entry = doc["edges"][0]
    assert set(entry) == {"init", "term", "gain", "phase_rad", "delay_s"}
    assert set(entry["init"]) == {"kind", "index"}


@pytest.mark.parametrize("path, name", [(("n_t",), "n_t"), (("n_s",), "n_s"),
                                        (("edges", 0, "init", "index"), "index")])
def test_json_counts_and_indices_must_be_integers(path, name):
    doc = json.loads(graph_to_json(_example_mimo_graph()))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = target[key] + 0.5
    with pytest.raises(ValueError, match=name):
        graph_from_json(json.dumps(doc))


def test_json_builds_the_graph_once(monkeypatch):
    graph = generate_realization(ScenarioConfig(seed=3), (2e9, 3e9)).graph
    text = graph_to_json(graph)
    checked = PropagationGraph.__post_init__
    calls = []

    def counting(self):
        calls.append(self)
        checked(self)

    monkeypatch.setattr(PropagationGraph, "__post_init__", counting)
    rebuilt = graph_from_json(text)
    assert calls == [rebuilt]
    assert rebuilt.positions == graph.positions


def test_json_preserves_positions_and_laws():
    f = 1e9
    tau = 1.0 / (4.0 * math.pi * f)
    edge = Edge(src=tx(0), dst=rx(0), gain=FrequencyLawGain(law=EdgeClass.DIRECT),
                phase_rad=0.25, delay_s=tau)
    graph = PropagationGraph(
        n_tx=1, n_rx=1, n_scatterers=0, edges=(edge,),
        positions={tx(0): (0.1, 0.2, 0.3), rx(0): (1.0, 2.0, 3.0)},
    )
    rebuilt = graph_from_json(graph_to_json(graph))
    np.testing.assert_array_equal(rebuilt.position(rx(0)), [1.0, 2.0, 3.0])
    value = adjacency_blocks(rebuilt, f).direct[0, 0]
    assert abs(value) == pytest.approx(1.0, rel=1e-12)
