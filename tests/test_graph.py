"""Structural and algebraic checks on the propagation-graph data model.

Covers:
- construction rules: legal example graph, role violations, parallel-edge
  rejection, scatterer self-loops allowed at this layer, position coverage
- block evaluation: sparsity pattern matches the edge set, assembled full
  matrix keeps transmitter rows and receiver columns empty, Friis gain hits
  magnitude one at 4*pi*f*tau = 1, phase changes only the argument
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
from revgraph.synthesis import FrequencyGrid, sample_transfer
from revgraph.transfer import PrecomputedKernel, _graph_kernel, transfer_matrix

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
    samples = block_samples(graph, np.linspace(1e9, 3e9, 64))
    moduli = np.abs(np.moveaxis(samples.loop, 0, -1))
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


def test_stack_solves_equal_single_frequency_solves_bitwise():
    grid = FrequencyGrid(2e9, 3e9, 64)
    generated = generate_realization(ScenarioConfig(seed=5), grid).graph
    for graph in (_example_mimo_graph(), generated):
        freqs = grid.frequencies()
        samples = block_samples(graph, freqs)
        stacked = PrecomputedKernel.from_loop_block(samples.loop, freqs).solve(samples.feed)
        certified = _graph_kernel(graph, samples.loop, freqs).solve(samples.feed)
        np.testing.assert_array_equal(certified, stacked)
        tensor = sample_transfer(graph, grid).tensor
        for m in range(grid.n_samples):
            single = PrecomputedKernel.from_loop_block(samples.loop[m], freqs[m])
            np.testing.assert_array_equal(stacked[m], single.solve(samples.feed[m]))
            np.testing.assert_array_equal(tensor[m], transfer_matrix(graph, freqs[m]).matrix)


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
