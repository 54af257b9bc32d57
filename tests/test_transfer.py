"""Transfer-matrix engine checks against brute-force series and path sums.

The fixtures are small constant-gain graphs whose loop block is rescaled to
hit a chosen spectral radius at the probe frequency, so Neumann-series
truncations converge at a known rate and closed-form slices can be compared
against explicit matrix powers and path enumerations.

Claims covered:
- spectral radius helper on hand-solvable matrices
- kernel: identity loop behaviour, backward error of the factored solve,
  spectral-radius rejection with the offending value attached, reuse across
  right-hand sides, inputs left unchanged by the in-place factorization
- full/partial/k-bounce closed forms versus Neumann sums and walk sums
- truncation tail: closed form, additivity with the kept part, decay to zero
- scatterer signal: fixed-point residual, degenerate inputs, consistency of
  direct-plus-collected output with the transfer matrix
- scaling the feed block scales the indirect part exactly
- kernel solves check the right-hand side's rows and samples
- skipping the terms of absent edges changes no value: the factorization,
  substitution and products equal dense reference loops bit for bit
- bounded ranges are finite sums needing no solve, so they exist for a loop
  that does not contract, and need powers only up to u_(L-1)
"""

import dataclasses
import math

import numpy as np
import pytest

import revgraph.transfer
from revgraph.graph import (
    ConstantGain,
    Edge,
    EdgeClass,
    PropagationGraph,
    adjacency_blocks,
    block_samples,
    rx,
    scatterer,
    tx,
    walk_sum,
)
from revgraph.scenario import ScenarioConfig, _loop_is_contractive, generate_realization
from revgraph.cli import _dissection_ranges
from revgraph.synthesis import FrequencyGrid, sample_transfer, sample_transfer_slices
from revgraph.transfer import (
    BounceRange,
    NumericalFailure,
    PrecomputedKernel,
    SPECTRAL_RADIUS_LIMIT,
    SingularSystem,
    SpectralRadiusExceeded,
    SpectralRadiusExceededAt,
    _SampledSystem,
    bounce_slices,
    k_bounce_matrix,
    make_kernel,
    partial_transfer_matrix,
    scatterer_signal,
    spectral_radius,
    transfer_matrix,
    truncation_error,
    verify_contraction,
)

PROBE_HZ = 2.4e9
TWO_PI = 2.0 * math.pi


def _edge(src, dst, gain, phase, delay):
    return Edge(src=src, dst=dst, gain=ConstantGain(gain), phase_rad=phase, delay_s=delay)


def _dense_graph(rng, n_tx=2, n_rx=2, n_sc=4):
    """Fully connected constant-gain graph with random phases and delays."""
    def draw(src, dst):
        return _edge(src, dst, float(rng.uniform(0.2, 0.9)),
                     float(rng.uniform(0.0, TWO_PI)),
                     float(rng.uniform(1e-9, 2e-8)))

    edges = [draw(tx(t), rx(r)) for t in range(n_tx) for r in range(n_rx)]
    edges += [draw(tx(t), scatterer(s)) for t in range(n_tx) for s in range(n_sc)]
    edges += [draw(scatterer(a), scatterer(b))
              for a in range(n_sc) for b in range(n_sc) if a != b]
    edges += [draw(scatterer(s), rx(r)) for s in range(n_sc) for r in range(n_rx)]
    return PropagationGraph(n_tx=n_tx, n_rx=n_rx, n_scatterers=n_sc, edges=tuple(edges))


def _with_loop_radius(graph, rho_target, freq_hz=PROBE_HZ):
    """Rescale inter-scatterer gains so the loop block has the given radius."""
    rho_now = spectral_radius(adjacency_blocks(graph, freq_hz).loop)
    scale = rho_target / rho_now
    edges = tuple(
        dataclasses.replace(e, gain=ConstantGain(e.gain.value * scale))
        if e.edge_class is EdgeClass.INTER_SCATTER else e
        for e in graph.edges
    )
    return PropagationGraph(n_tx=graph.n_tx, n_rx=graph.n_rx,
                            n_scatterers=graph.n_scatterers, edges=edges)


def _toy(seed, rho=0.5, n_sc=4):
    rng = np.random.default_rng(seed)
    return _with_loop_radius(_dense_graph(rng, n_sc=n_sc), rho)


# -- spectral radius ----------------------------------------------------------


def test_spectral_radius_of_zero_matrix():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_of_offdiagonal_pair():
    b = 0.37
    matrix = np.array([[0.0, b], [b, 0.0]])
    assert spectral_radius(matrix) == pytest.approx(b, rel=1e-12)


def test_spectral_radius_of_empty_matrix():
    assert spectral_radius(np.zeros((0, 0))) == 0.0


# -- kernel -------------------------------------------------------------------


def test_kernel_with_zero_loop_solves_to_identity():
    kernel = PrecomputedKernel.from_loop_block(np.zeros((3, 3)), PROBE_HZ)
    rhs = np.arange(6, dtype=complex).reshape(3, 2)
    np.testing.assert_array_equal(kernel.solve(rhs), rhs)


def test_kernel_backward_error_is_tiny():
    graph = _toy(0, rho=0.9)
    loop = adjacency_blocks(graph, PROBE_HZ).loop
    kernel = PrecomputedKernel.from_loop_block(loop, PROBE_HZ)
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=(loop.shape[0], 3)) + 1j * rng.normal(size=(loop.shape[0], 3))
    z = kernel.solve(rhs)
    system = np.eye(loop.shape[0]) - loop
    residual = np.linalg.norm(system @ z - rhs) / np.linalg.norm(rhs)
    assert residual < 1e-12


def test_kernel_rejects_expanding_loop():
    graph = _toy(2, rho=1.05)
    with pytest.raises(SpectralRadiusExceeded) as info:
        make_kernel(graph, PROBE_HZ)
    assert info.value.value == pytest.approx(1.05, rel=1e-9)


def test_kernel_limit_is_strictly_below_one():
    assert 0.999 < SPECTRAL_RADIUS_LIMIT < 1.0
    graph = _toy(3, rho=(1.0 + SPECTRAL_RADIUS_LIMIT) / 2.0)
    with pytest.raises(SpectralRadiusExceeded):
        make_kernel(graph, PROBE_HZ)


def test_kernel_reuse_matches_fresh_solves():
    graph = _toy(4, rho=0.7)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    kernel = make_kernel(graph, PROBE_HZ)
    system = np.eye(graph.n_scatterers) - blocks.loop
    for cols in (blocks.feed, blocks.feed[:, :1], np.eye(graph.n_scatterers)):
        np.testing.assert_allclose(kernel.solve(cols), np.linalg.solve(system, cols),
                                   rtol=1e-11, atol=1e-14)


def test_kernel_on_scattererless_graph_is_trivial():
    kernel = PrecomputedKernel.from_loop_block(np.zeros((0, 0)), PROBE_HZ)
    out = kernel.solve(np.zeros((0, 2)))
    assert out.shape == (0, 2)


def test_kernel_reports_a_nan_loop_as_numerical_failure():
    # a NaN loop passes no norm bound and fails none, so the eigensolver must see it
    with pytest.raises(NumericalFailure):
        PrecomputedKernel.from_loop_block(np.full((2, 2), np.nan), PROBE_HZ)


def _count_lapack_solves(monkeypatch) -> list:
    calls = []
    honest = np.linalg.solve

    def spy(a, b):
        calls.append(np.shape(a))
        return honest(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return calls


def test_loop_certified_only_by_eigenvalues_goes_to_the_pivoted_solve(monkeypatch):
    # norms of 3 certify nothing, yet the eigenvalues are +-0.17
    loop = np.array([[0.0, 3.0], [0.01, 0.0]])
    calls = _count_lapack_solves(monkeypatch)
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    z = PrecomputedKernel.from_loop_block(loop, PROBE_HZ).solve(rhs)
    assert len(calls) == 1
    residual = np.linalg.norm((np.eye(2) - loop) @ z - rhs) / np.linalg.norm(rhs)
    assert residual < 1e-12
    # in a stack only that sample takes the pivoted route
    stack = np.stack([0.1 * loop.T, loop, np.zeros((2, 2))])
    rhs3 = np.broadcast_to(rhs, (3, 2, 3))
    z3 = PrecomputedKernel.from_loop_block(stack, [1e9, 2e9, 3e9]).solve(rhs3)
    assert calls[1] == (1, 2, 2)
    for m in range(3):
        residual = np.linalg.norm((np.eye(2) - stack[m]) @ z3[m] - rhs) / np.linalg.norm(rhs)
        assert residual < 1e-12


def test_from_loop_block_leaves_its_input_unchanged():
    # the kernel factors in place, so it must factor a copy of what it is
    # given, including inputs that _stack hands back without copying: one
    # block, and a frequency-minor stack seen through np.moveaxis
    rng = np.random.default_rng(8)
    storage = 0.1 * (rng.normal(size=(3, 3, 4)) + 1j * rng.normal(size=(3, 3, 4)))
    freqs = [1e9, 2e9, 3e9, 4e9]
    for loop, f in ((storage[:, :, 0].copy(), PROBE_HZ),
                    (np.moveaxis(storage, -1, 0), freqs),
                    (np.ascontiguousarray(np.moveaxis(storage, -1, 0)), freqs)):
        before = loop.copy()
        PrecomputedKernel.from_loop_block(loop, f)
        np.testing.assert_array_equal(loop, before)


def _eigenvalue_certified_graph():
    # the flat loop [[0, 3], [0.01, 0]]: norm bound 3, eigenvalues about +-0.17
    edges = (_edge(tx(0), scatterer(0), 0.5, 0.1, 2e-9),
             _edge(tx(0), scatterer(1), 0.4, 0.9, 3e-9),
             _edge(scatterer(1), scatterer(0), 3.0, 0.7, 1e-9),
             _edge(scatterer(0), scatterer(1), 0.01, 0.4, 2e-9),
             _edge(scatterer(0), rx(0), 0.5, 0.2, 3e-9))
    return PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)


def test_acceptance_samples_a_loop_its_flat_bound_leaves_open(monkeypatch):
    graph = _eigenvalue_certified_graph()
    assert graph._edge_table.loop_bound == pytest.approx(3.0)
    sampled = []
    honest = revgraph.transfer.block_samples

    def counting(graph, freqs):
        sampled.append(graph)
        return honest(graph, freqs)

    monkeypatch.setattr(revgraph.transfer, "block_samples", counting)
    assert _loop_is_contractive(graph, np.linspace(2e9, 3e9, 64))
    assert len(sampled) == 1 and sampled[0] is graph


def test_a_failed_pivoted_solve_raises_singular_system(monkeypatch):
    def broken(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", broken)
    with pytest.raises(SingularSystem):
        transfer_matrix(_eigenvalue_certified_graph(), PROBE_HZ)


def test_default_realization_needs_no_lapack_solve(monkeypatch):
    grid = FrequencyGrid(2e9, 3e9, 256)
    graph = generate_realization(ScenarioConfig(seed=4), grid).graph
    calls = _count_lapack_solves(monkeypatch)
    sample_transfer(graph, grid)
    transfer_matrix(graph, 2.5e9)
    assert calls == []


@pytest.mark.parametrize("side", [-1, 1])
def test_flat_and_per_sample_certificates_agree_at_the_limit(side):
    # a lone self-loop has spectral radius equal to its gain
    gain = SPECTRAL_RADIUS_LIMIT + side * 1e-12
    edges = (_edge(tx(0), scatterer(0), 0.5, 0.1, 2e-9),
             _edge(scatterer(0), scatterer(0), gain, 0.7, 1e-9),
             _edge(scatterer(0), rx(0), 0.5, 0.2, 3e-9))
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=1, edges=edges)
    freqs = np.linspace(2e9, 3e9, 64)
    loop = np.array(block_samples(graph, freqs).loop)
    contracts = side < 0
    assert (graph._edge_table.loop_bound <= SPECTRAL_RADIUS_LIMIT) is contracts
    assert _loop_is_contractive(graph, freqs) is contracts
    if contracts:
        verify_contraction(loop, freqs)
        _SampledSystem.of(graph, freqs).factor()
    else:
        for check in (lambda: verify_contraction(loop, freqs),
                      lambda: _SampledSystem.of(graph, freqs).factor()):
            with pytest.raises(SpectralRadiusExceededAt) as info:
                check()
            assert info.value.sample_index == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_frequencies_are_rejected(bad):
    direct_only = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0,
                                   edges=(_edge(tx(0), rx(0), 0.5, 0.3, 4e-9),))
    for graph in (direct_only, _toy(1)):
        with pytest.raises(ValueError, match="finite"):
            transfer_matrix(graph, bad)


# -- closed forms -------------------------------------------------------------


def test_transfer_without_scatterers_is_direct_block():
    edges = (_edge(tx(0), rx(0), 0.5, 0.3, 4e-9),
             _edge(tx(1), rx(0), 0.2, 2.0, 6e-9))
    graph = PropagationGraph(n_tx=2, n_rx=1, n_scatterers=0, edges=edges)
    sample = transfer_matrix(graph, PROBE_HZ)
    np.testing.assert_array_equal(sample.matrix,
                                  adjacency_blocks(graph, PROBE_HZ).direct)


def test_transfer_with_silent_scatterers_adds_single_bounce():
    # feed and collect present, loop empty: H = D + R T
    edges = (
        _edge(tx(0), rx(0), 0.5, 0.1, 5e-9),
        _edge(tx(0), scatterer(0), 0.4, 0.2, 3e-9),
        _edge(tx(0), scatterer(1), 0.3, 0.3, 4e-9),
        _edge(scatterer(0), rx(0), 0.6, 0.4, 2e-9),
        _edge(scatterer(1), rx(0), 0.7, 0.5, 6e-9),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    expected = blocks.direct + blocks.collect @ blocks.feed
    np.testing.assert_allclose(transfer_matrix(graph, PROBE_HZ).matrix, expected,
                               rtol=1e-12, atol=0)


def test_transfer_matches_neumann_series():
    graph = _toy(5, rho=0.5)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    total = blocks.direct.copy()
    power = np.eye(graph.n_scatterers, dtype=complex)
    for _ in range(1, 31):
        total = total + blocks.collect @ power @ blocks.feed
        power = power @ blocks.loop
    closed = transfer_matrix(graph, PROBE_HZ).matrix
    # rho^31 < 5e-10, so 30 terms pin the series to well under 1e-9
    assert np.linalg.norm(closed - total) / np.linalg.norm(closed) < 1e-9


def test_k_bounce_terms():
    graph = _toy(6, rho=0.6)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    np.testing.assert_array_equal(k_bounce_matrix(graph, PROBE_HZ, 0).matrix,
                                  blocks.direct)
    np.testing.assert_allclose(k_bounce_matrix(graph, PROBE_HZ, 1).matrix,
                               blocks.collect @ blocks.feed, rtol=1e-13)
    expected3 = blocks.collect @ blocks.loop @ blocks.loop @ blocks.feed
    np.testing.assert_allclose(k_bounce_matrix(graph, PROBE_HZ, 3).matrix,
                               expected3, rtol=1e-12)
    # On default rooms the engine's exact range equals the recurrence on the
    # dense single-frequency blocks bit for bit.
    for seed in range(20):
        room = generate_realization(ScenarioConfig(seed=seed), (2e9, 3e9)).graph
        for freq in (2e9, 2.5e9, 3e9):
            blocks = adjacency_blocks(room, freq)
            for k in range(7):
                (dense,) = bounce_slices(blocks.direct, blocks.loop, blocks.collect,
                                         blocks.feed, (BounceRange.exactly(k),))
                np.testing.assert_array_equal(k_bounce_matrix(room, freq, k).matrix, dense)


def test_k_bounce_needs_no_contraction():
    graph = _toy(7, rho=1.4)
    sample = k_bounce_matrix(graph, PROBE_HZ, 2)
    assert np.isfinite(sample.matrix).all()
    with pytest.raises(ValueError):
        k_bounce_matrix(graph, PROBE_HZ, -1)


@pytest.mark.parametrize("call, name", [
    (k_bounce_matrix, "k"),
    (truncation_error, "truncation_order"),
])
@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_bounce_order_arguments_are_named_integers(call, name, bad):
    # each function names its own argument, not an end of the range it builds
    with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
        call(_toy(7), PROBE_HZ, bad)
    assert call(_toy(7), PROBE_HZ, np.int64(2)) is not None


def test_k_bounce_matches_walk_sum_on_small_graph():
    rng = np.random.default_rng(8)
    graph = _with_loop_radius(_dense_graph(rng, n_tx=1, n_rx=1, n_sc=3), 0.6)
    for k in range(4):
        closed = k_bounce_matrix(graph, PROBE_HZ, k).matrix
        brute = walk_sum(graph, PROBE_HZ, k, k)
        np.testing.assert_allclose(closed, brute, rtol=1e-12, atol=1e-16)


def test_partial_range_zero_zero_is_direct():
    graph = _toy(9)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    sample = partial_transfer_matrix(graph, PROBE_HZ, BounceRange.exactly(0))
    np.testing.assert_allclose(sample.matrix, blocks.direct, rtol=1e-12, atol=1e-18)


def test_partial_range_up_to_two():
    graph = _toy(10, rho=0.6)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    expected = (blocks.direct + blocks.collect @ blocks.feed
                + blocks.collect @ blocks.loop @ blocks.feed)
    sample = partial_transfer_matrix(graph, PROBE_HZ, BounceRange.up_to(2))
    np.testing.assert_allclose(sample.matrix, expected, rtol=1e-11, atol=1e-16)


def test_partial_mid_range_matches_term_sum():
    graph = _toy(11, rho=0.6)
    total = sum(k_bounce_matrix(graph, PROBE_HZ, k).matrix for k in range(4, 8))
    sample = partial_transfer_matrix(graph, PROBE_HZ, BounceRange(4, 7))
    scale = np.linalg.norm(total)
    assert np.linalg.norm(sample.matrix - total) / scale < 1e-11


def test_partials_add_up_to_full_transfer():
    graph = _toy(12, rho=0.8)
    whole = transfer_matrix(graph, PROBE_HZ).matrix
    pieces = sum(k_bounce_matrix(graph, PROBE_HZ, k).matrix for k in range(6))
    pieces = pieces + partial_transfer_matrix(graph, PROBE_HZ, BounceRange.tail(6)).matrix
    np.testing.assert_allclose(pieces, whole,
                               rtol=1e-10, atol=1e-16 * np.linalg.norm(whole))


def test_bounce_range_validation_and_labels():
    assert BounceRange.full().label == "0:inf"
    assert BounceRange.exactly(3).label == "3:3"
    assert BounceRange.tail(2).unbounded
    with pytest.raises(ValueError):
        BounceRange(3, 1)
    with pytest.raises(ValueError):
        BounceRange(-1)
    for last in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="last"):
            BounceRange(0, last)
    assert BounceRange(0, 3.0).last == 3
    assert isinstance(BounceRange(0, 3.0).last, int)
    for first in (math.nan, math.inf, -math.inf, True, "1", 1.5):
        with pytest.raises(ValueError, match="first"):
            BounceRange(first)
    for first in (2.0, np.int64(2), np.float64(2.0)):
        assert type(BounceRange(first).first) is int and BounceRange(first).first == 2
    for last in (True, "3", 1.5, -1, np.int64(-1)):
        with pytest.raises(ValueError, match="^last must be"):
            BounceRange(0, last)
    for last in (3.0, np.int64(3), np.float64(3.0)):
        assert type(BounceRange(0, last).last) is int and BounceRange(0, last).label == "0:3"
    assert BounceRange(0, np.float64(math.inf)).last is math.inf


# -- truncation tail ----------------------------------------------------------


def test_truncation_tail_is_remainder_of_full_transfer():
    graph = _toy(13, rho=0.7)
    whole = transfer_matrix(graph, PROBE_HZ).matrix
    for order in (0, 2, 5):
        kept = partial_transfer_matrix(graph, PROBE_HZ, BounceRange.up_to(order)).matrix
        tail, norm = truncation_error(graph, PROBE_HZ, order)
        np.testing.assert_allclose(kept + tail.matrix, whole,
                                   rtol=1e-11, atol=1e-15 * np.linalg.norm(whole))
        assert norm == pytest.approx(np.linalg.norm(tail.matrix, "fro"))


def test_truncation_tail_at_order_zero_is_whole_indirect_part():
    graph = _toy(14, rho=0.7)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    kernel = make_kernel(graph, PROBE_HZ)
    expected = blocks.collect @ kernel.solve(blocks.feed)
    tail, _ = truncation_error(graph, PROBE_HZ, 0)
    np.testing.assert_allclose(tail.matrix, expected, rtol=1e-11, atol=1e-16)


def test_truncation_tail_vanishes_without_loop_edges():
    edges = (
        _edge(tx(0), scatterer(0), 0.4, 0.2, 3e-9),
        _edge(scatterer(0), rx(0), 0.6, 0.4, 2e-9),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=1, edges=edges)
    _, norm1 = truncation_error(graph, PROBE_HZ, 1)
    assert norm1 == 0.0


def test_truncation_norm_decays_to_zero():
    graph = _toy(15, rho=0.8)
    norms = [truncation_error(graph, PROBE_HZ, k)[1] for k in (0, 5, 10, 20, 40)]
    assert norms[-1] < 1e-3 * norms[0]
    assert norms[-1] < 1e-9 or norms[-1] < norms[-2]


# -- scatterer signal ----------------------------------------------------------


def test_scatterer_signal_satisfies_fixed_point():
    graph = _toy(16, rho=0.75)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    x = np.array([1.0 + 0.5j, -0.25 + 2.0j])
    z = scatterer_signal(graph, PROBE_HZ, x)
    residual = np.linalg.norm(z - (blocks.feed @ x + blocks.loop @ z))
    assert residual / np.linalg.norm(z) < 1e-11


def test_scatterer_signal_without_loop_is_feed_times_input():
    edges = (
        _edge(tx(0), scatterer(0), 0.4, 0.2, 3e-9),
        _edge(tx(0), scatterer(1), 0.5, 0.9, 4e-9),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    x = np.array([0.3 - 0.7j])
    np.testing.assert_allclose(scatterer_signal(graph, PROBE_HZ, x),
                               blocks.feed @ x, rtol=1e-13)


def test_scatterer_signal_of_zero_input_is_zero():
    graph = _toy(17)
    z = scatterer_signal(graph, PROBE_HZ, np.zeros(2, dtype=complex))
    np.testing.assert_array_equal(z, np.zeros(graph.n_scatterers, dtype=complex))


def test_scatterer_signal_rejects_wrong_shape():
    graph = _toy(18)
    with pytest.raises(ValueError):
        scatterer_signal(graph, PROBE_HZ, np.zeros(5, dtype=complex))


def test_received_signal_consistent_with_transfer_matrix():
    graph = _toy(19, rho=0.6)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    x = np.array([0.8 + 0.1j, -1.1 + 0.4j])
    z = scatterer_signal(graph, PROBE_HZ, x)
    via_blocks = blocks.direct @ x + blocks.collect @ z
    via_transfer = transfer_matrix(graph, PROBE_HZ).matrix @ x
    np.testing.assert_allclose(via_blocks, via_transfer, rtol=1e-11, atol=1e-15)


# -- linearity in the feed block ----------------------------------------------


def test_doubling_feed_gains_doubles_indirect_part_exactly():
    graph = _toy(20, rho=0.7)
    doubled = PropagationGraph(
        n_tx=graph.n_tx, n_rx=graph.n_rx, n_scatterers=graph.n_scatterers,
        edges=tuple(
            dataclasses.replace(e, gain=ConstantGain(2.0 * e.gain.value))
            if e.edge_class is EdgeClass.TX_SCATTER else e
            for e in graph.edges
        ),
    )
    tail = BounceRange.tail(1)  # indirect part, no direct-block rounding
    base = partial_transfer_matrix(graph, PROBE_HZ, tail).matrix
    scaled = partial_transfer_matrix(doubled, PROBE_HZ, tail).matrix
    # scaling by a power of two is exact in floating point at every step
    np.testing.assert_array_equal(scaled, 2.0 * base)


def test_complex_feed_scale_factors_out():
    graph = _toy(21, rho=0.7)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    kernel = make_kernel(graph, PROBE_HZ)
    c = 0.7 - 1.3j
    base = blocks.collect @ kernel.solve(blocks.feed)
    scaled = blocks.collect @ kernel.solve(c * blocks.feed)
    np.testing.assert_allclose(scaled, c * base, rtol=1e-14)


# -- solve shapes ---------------------------------------------------------------


def test_solve_accepts_the_documented_shapes():
    loop = 0.1 * np.arange(9).reshape(3, 3) / 9
    one = PrecomputedKernel.from_loop_block(loop, PROBE_HZ)
    rhs = np.arange(6, dtype=complex).reshape(3, 2)
    assert one.solve(rhs[:, 0]).shape == (3,)
    assert one.solve(rhs).shape == (3, 2)
    stack = PrecomputedKernel.from_loop_block(np.stack([loop, 0.5 * loop, loop.T]), [1e9, 2e9, 3e9])
    z = stack.solve(np.stack([rhs] * 3))
    assert z.shape == (3, 3, 2)
    np.testing.assert_array_equal(z[0], one.solve(rhs))


@pytest.mark.parametrize("shape, expected", [
    ((4,), r"\(3,\) or \(3, cols\)"),      # one row too many: used to return a (4,) "solution"
    ((2, 3), r"\(3,\) or \(3, cols\)"),    # rows and columns swapped: used to raise IndexError
    ((), r"\(3,\) or \(3, cols\)"),
])
def test_one_frequency_solve_checks_its_rows(shape, expected):
    kernel = PrecomputedKernel.from_loop_block(np.zeros((3, 3)), PROBE_HZ)
    with pytest.raises(ValueError, match=expected):
        kernel.solve(np.ones(shape))


@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 2, 1), (3, 3), (3,)])
def test_stack_solve_checks_its_samples_and_rows(shape):
    # a 3-sample kernel given 2 samples used to fail with a bare broadcast error
    kernel = PrecomputedKernel.from_loop_block(np.zeros((3, 3, 3)), [1e9, 2e9, 3e9])
    with pytest.raises(ValueError, match=r"\(3, 3, cols\)"):
        kernel.solve(np.ones(shape))


def test_scattererless_kernel_checks_its_rows_too():
    kernel = PrecomputedKernel.from_loop_block(np.zeros((0, 0)), PROBE_HZ)
    with pytest.raises(ValueError, match=r"\(0,\) or \(0, cols\)"):
        kernel.solve(np.ones(2))


# -- structure: skipped terms change no value ------------------------------------
#
# The engine skips every term whose factor is zero by the graph's structure.
# These oracles are the dense frequency-minor loops it replaced: every term,
# in k-i-j order for the factorization of I - loop, column sweeps for the
# substitution, index order for the products.


def _oracle_factor(a):
    n = a.shape[0]
    for k in range(n):
        a[k, k] = 1.0 / a[k, k]
        for i in range(k + 1, n):
            a[i, k] = a[i, k] * a[k, k]
            for j in range(k + 1, n):
                a[i, j] -= a[i, k] * a[k, j]


def _oracle_substitute(lu, b):
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


def _oracle_matmul(a, b):
    rows, n, m = a.shape
    out = np.zeros((rows, b.shape[1], m), dtype=complex)
    for i in range(rows):
        for col in range(b.shape[1]):
            acc = out[i, col]
            for j in range(n):
                acc += a[i, j] * b[j, col]
    return out


def _minor(block):
    return np.moveaxis(block, 0, -1).copy()


def _with_edges(graph, edges):
    return PropagationGraph(n_tx=graph.n_tx, n_rx=graph.n_rx,
                            n_scatterers=graph.n_scatterers, edges=tuple(edges))


STRUCTURE_GRID = FrequencyGrid(2e9, 3e9, 64)


def _structure_cases():
    room = generate_realization(ScenarioConfig(seed=5), STRUCTURE_GRID).graph
    isolated = scatterer(0)  # keeps its feed and collect edges, loses every loop edge
    loopless_row = [e for e in room.edges
                    if not (e.edge_class is EdgeClass.INTER_SCATTER and isolated in (e.src, e.dst))]
    self_loops = list(room.edges) + [_edge(scatterer(s), scatterer(s), 0.1, 0.3 * s, 1e-9)
                                     for s in (0, 3, 7)]
    zeroed = set()
    silenced = []
    for e in room.edges:  # the first edge of each class keeps its entry, at zero gain
        if e.edge_class not in zeroed:
            zeroed.add(e.edge_class)
            e = dataclasses.replace(e, gain=ConstantGain(0.0))
        silenced.append(e)
    direct_only = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0,
                                   edges=(_edge(tx(0), rx(0), 0.5, 0.3, 4e-9),))
    return {
        "default room": room,
        "loop row and column all zero": _with_edges(room, loopless_row),
        "self-loops": _with_edges(room, self_loops),
        "zero-gain edges": _with_edges(room, silenced),
        "no scatterers": direct_only,
    }


@pytest.mark.parametrize("case", list(_structure_cases()))
def test_skipped_terms_change_no_value(case):
    graph = _structure_cases()[case]
    samples = block_samples(graph, STRUCTURE_GRID)
    n = graph.n_scatterers
    assert graph._edge_table.loop_bound < SPECTRAL_RADIUS_LIMIT  # every sample takes the LU
    if case == "loop row and column all zero":
        assert not samples.loop[:, 0, :].any() and not samples.loop[:, :, 0].any()
    direct, feed, loop, collect = (_minor(getattr(samples, name))
                                   for name in ("direct", "feed", "loop", "collect"))
    system = np.eye(n)[..., None] - loop
    _oracle_factor(system)
    z = feed.copy()
    _oracle_substitute(system, z)
    expected = np.moveaxis(z, -1, 0)
    # the graph's structure skips terms; a raw array is taken as dense
    kernel = _SampledSystem.of(graph, STRUCTURE_GRID).factor()
    np.testing.assert_array_equal(kernel.solve(samples.feed), expected)
    dense = PrecomputedKernel.from_loop_block(samples.loop, STRUCTURE_GRID.frequencies())
    np.testing.assert_array_equal(dense.solve(samples.feed), expected)
    for m in (0, 63):
        single = PrecomputedKernel.from_loop_block(samples.loop[m], STRUCTURE_GRID.frequencies()[m])
        np.testing.assert_array_equal(single.solve(samples.feed[m]), expected[m])
    # slices: the full range and a tail from Z, a bounded range from the feed
    powers = [collect, _oracle_matmul(collect, loop)]
    terms = [_oracle_matmul(u, feed) for u in (powers[0], powers[1], _oracle_matmul(powers[1], loop))]
    oracles = {
        BounceRange.full(): _oracle_matmul(collect, z) + direct,
        BounceRange.tail(2): _oracle_matmul(powers[1], z),
        BounceRange(1, 3): terms[0] + terms[1] + terms[2],
        BounceRange(0, 2): direct + terms[0] + terms[1],
    }
    slices = revgraph.transfer._SampledSystem.of(graph, STRUCTURE_GRID).slices(tuple(oracles))
    for (bounce_range, oracle), piece in zip(oracles.items(), slices):
        np.testing.assert_array_equal(piece, np.moveaxis(oracle, -1, 0), err_msg=bounce_range.label)


# -- bounded ranges need no solve -------------------------------------------------


def test_bounded_slices_of_an_expanding_loop_need_no_solve():
    graph = _with_loop_radius(_dense_graph(np.random.default_rng(30), n_tx=1, n_rx=2, n_sc=3), 1.4)
    blocks = adjacency_blocks(graph, PROBE_HZ)
    args = (blocks.direct, blocks.loop, blocks.collect, blocks.feed)
    ranges = (BounceRange.exactly(3), BounceRange(1, 4))
    exact3, one_to_four = revgraph.transfer.bounce_slices(*args, ranges)
    np.testing.assert_allclose(exact3, walk_sum(graph, PROBE_HZ, 3, 3), rtol=1e-12, atol=0)
    np.testing.assert_allclose(one_to_four, walk_sum(graph, PROBE_HZ, 1, 4), rtol=1e-12, atol=0)
    with pytest.raises(SpectralRadiusExceeded) as info:
        revgraph.transfer.bounce_slices(*args, (BounceRange.tail(1),))
    assert info.value.value == pytest.approx(1.4, rel=1e-9)
    assert math.isnan(info.value.frequency_hz)  # bounce_slices is given no frequencies
    np.testing.assert_allclose(k_bounce_matrix(graph, PROBE_HZ, 3).matrix,
                               walk_sum(graph, PROBE_HZ, 3, 3), rtol=1e-12, atol=0)
    # the sampled engine needs no solve for a bounded range either
    np.testing.assert_allclose(partial_transfer_matrix(graph, PROBE_HZ, BounceRange(1, 4)).matrix,
                               walk_sum(graph, PROBE_HZ, 1, 4), rtol=1e-12, atol=0)


@pytest.mark.parametrize("ranges, loop_products", [
    ((BounceRange.full(),) + tuple(BounceRange.exactly(k) for k in range(1, 6)), 4),
    (tuple(_dissection_ranges(4)), 3),
])
def test_bounce_powers_stop_at_the_last_order_needed(monkeypatch, ranges, loop_products):
    # exactly k needs u_(k-1) = collect @ loop^(k-1) and no further power
    grid = FrequencyGrid(2e9, 3e9, 16)
    graph = generate_realization(ScenarioConfig(seed=2), grid).graph
    n = graph.n_scatterers
    assert graph.n_tx != n
    honest = revgraph.transfer._matmul
    shapes = []

    def counting(a, pa, b, pb):
        shapes.append(b.shape[:2])
        return honest(a, pa, b, pb)

    monkeypatch.setattr(revgraph.transfer, "_matmul", counting)
    sample_transfer_slices(graph, grid, ranges)
    assert shapes.count((n, n)) == loop_products
