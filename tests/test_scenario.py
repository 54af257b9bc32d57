"""Stochastic scenario generation: draws, gain calibration, rejection, relocation.

Statistical claims use fixed seeds and three-sigma bands, so they are
deterministic in CI while still checking the intended distributions:
- scatterer positions are i.i.d. uniform over the room
- the inter-scatterer edge count is binomial over ordered pairs
- visibility and direct-path probabilities gate the expected edge classes

Deterministic claims:
- same config gives a bit-identical realization, different seeds differ
- gain laws baked into generated edges match the documented closed forms
- the shared inter-scatterer gain reproduces the requested tail slope
- rejection bookkeeping, including the attempt limit
- receiver relocation keeps the scatterer-side edges and all phases, and
  moving back restores the original response
- JSON round trip of a full realization
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import revgraph.scenario
import revgraph.transfer
from revgraph.graph import (
    ConstantGain,
    Edge,
    EdgeClass,
    VertexKind,
    adjacency_blocks,
    block_samples,
    rx,
    scatterer,
    tx,
)
from revgraph.cli import ValidationError
from revgraph.scenario import (
    Box,
    EmptyEdgeClass,
    RejectionLimitExceeded,
    ScenarioConfig,
    draw_edges,
    draw_positions,
    edge_gain,
    gain_from_slope,
    generate_realization,
    realization_from_json,
    realization_to_json,
    relocate_receiver,
)
from revgraph.transfer import (
    SpectralRadiusExceeded,
    spectral_radius,
    transfer_matrix,
    verify_contraction,
)

BAND = (2.0e9, 3.0e9)


def _default_realization(seed=0):
    return generate_realization(ScenarioConfig(seed=seed), BAND)


# -- configuration validation ---------------------------------------------------


def test_config_defaults_describe_reference_room():
    config = ScenarioConfig()
    assert config.region.volume == pytest.approx(5.0 * 5.0 * 2.6)
    assert config.n_tx == 1 and config.n_rx == 1
    gap = np.subtract(config.rx_positions[0], config.tx_positions[0])
    assert np.linalg.norm(gap) == pytest.approx(math.sqrt(2.4**2 + 3.0**2))
    assert config.n_scatterers == 10
    assert config.p_visibility == 0.8
    assert config.tail_slope_db_per_ns == -0.4
    assert config.inter_scatterer_gain is None


def test_config_rejects_two_gain_calibrations():
    with pytest.raises(ValidationError) as both:
        ScenarioConfig(tail_slope_db_per_ns=-0.4, inter_scatterer_gain=0.6)
    assert both.value.field == "inter_scatterer_gain"
    with pytest.raises(ValidationError) as neither:
        ScenarioConfig(tail_slope_db_per_ns=None, inter_scatterer_gain=None)
    assert neither.value.field == "tail_slope_db_per_ns"


def test_config_rejects_bad_probabilities_and_placements():
    with pytest.raises(ValueError):
        ScenarioConfig(p_visibility=1.0001)
    with pytest.raises(ValueError):
        ScenarioConfig(p_direct=-0.2)
    with pytest.raises(ValueError):
        ScenarioConfig(tx_positions=((9.0, 1.0, 1.0),))  # outside the room
    with pytest.raises(ValueError):
        ScenarioConfig(n_scatterers=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(max_rejections=0)
    with pytest.raises(ValueError):
        ScenarioConfig(tail_slope_db_per_ns=0.1)


@pytest.mark.parametrize(
    "changes",
    [
        {"tail_slope_db_per_ns": math.nan},
        {"tail_slope_db_per_ns": -math.inf},
        {"speed_of_light": math.nan},
        {"speed_of_light": math.inf},
    ],
    ids=["slope-nan", "slope-minus-inf", "speed-nan", "speed-inf"],
)
def test_config_rejects_nonfinite_slope_and_speed(changes):
    with pytest.raises(ValueError):
        ScenarioConfig(**changes)


def test_config_accepts_numpy_scalars_and_coordinates():
    config = ScenarioConfig(
        tx_positions=np.array([[1.78, 1.0, 1.5]]),
        rx_positions=(np.array([4.18, 4.0, 1.5]),),
        n_scatterers=np.int64(10),
        p_visibility=np.float32(0.5),
        p_direct=np.float64(1.0),
        speed_of_light=np.float64(3e8),
        seed=np.int64(7),
        max_rejections=np.int32(50),
    )
    assert config == ScenarioConfig(p_visibility=0.5, seed=7, max_rejections=50)
    assert type(config.n_scatterers) is int and type(config.seed) is int
    assert type(config.p_visibility) is float
    assert config.tx_positions == ((1.78, 1.0, 1.5),)
    assert type(config.rx_positions[0][0]) is float
    gain = ScenarioConfig(tail_slope_db_per_ns=None, inter_scatterer_gain=np.float64(0.5))
    assert gain.inter_scatterer_gain == 0.5


def test_box_membership():
    box = Box(((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)))
    assert box.contains((0.5, 1.5, 2.5))
    assert not box.contains((1.5, 1.5, 2.5))
    assert box.volume == pytest.approx(6.0)


@pytest.mark.parametrize(
    "bounds",
    [
        ((0.0, 5.0), (0.0, 5.0), (1.5, 1.5)),
        ((0.0, 5.0), (False, 5.0), (0.0, 2.6)),
        ((0.0, 5.0), (0.0, 5.0), (0.0, math.inf)),
        ((0.0, math.nan), (0.0, 5.0), (0.0, 2.6)),
        ((0.0, 5.0), (0.0, 5.0)),
    ],
    ids=["flat", "bool", "infinite", "nan", "two-axes"],
)
def test_box_rejects_what_the_room_field_rejects(bounds):
    room = next(f for f in revgraph.scenario._SCENARIO_FIELDS if f.name == "room")
    with pytest.raises(ValueError) as from_box:
        Box(bounds)
    with pytest.raises(ValidationError) as from_field:
        room.parse(bounds)
    assert from_field.value.reason == str(from_box.value)


# -- position draws ----------------------------------------------------------------


def test_positions_fill_the_room_uniformly():
    config = ScenarioConfig(n_scatterers=100_000)
    rng = np.random.default_rng(123)
    points = draw_positions(config, rng)
    assert points.shape == (100_000, 3)
    lows, highs = config.region.lows, config.region.highs
    assert (points >= lows).all() and (points <= highs).all()
    sides = highs - lows
    sigma = sides / math.sqrt(12.0 * points.shape[0])
    center = (lows + highs) / 2.0
    np.testing.assert_array_less(np.abs(points.mean(axis=0) - center), 3.0 * sigma)


def test_position_draws_are_reproducible():
    config = ScenarioConfig()
    a = draw_positions(config, np.random.default_rng(9))
    b = draw_positions(config, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


# -- edge draws ---------------------------------------------------------------------


def test_certain_probabilities_give_complete_edge_sets():
    config = ScenarioConfig(n_scatterers=3, p_visibility=1.0, p_direct=1.0)
    pairs = draw_edges(config, np.random.default_rng(0))
    kinds = [(a.kind, b.kind) for a, b in pairs]
    assert kinds.count((VertexKind.TX, VertexKind.RX)) == 1
    assert kinds.count((VertexKind.TX, VertexKind.SCATTERER)) == 3
    # ordered scatterer pairs, no loops
    assert kinds.count((VertexKind.SCATTERER, VertexKind.SCATTERER)) == 6
    assert kinds.count((VertexKind.SCATTERER, VertexKind.RX)) == 3
    assert all(a != b for a, b in pairs)


def test_zero_visibility_leaves_only_direct_links():
    config = ScenarioConfig(p_visibility=0.0, p_direct=1.0)
    pairs = draw_edges(config, np.random.default_rng(0))
    assert pairs == ((tx(0), rx(0)),)


def test_inter_scatterer_count_is_binomial():
    # 90 ordered pairs at p = 0.8: mean 72, variance 14.4
    config = ScenarioConfig()
    rng = np.random.default_rng(2024)
    n_draws = 4000
    counts = np.empty(n_draws)
    for i in range(n_draws):
        pairs = draw_edges(config, rng)
        counts[i] = sum(
            1 for a, b in pairs
            if a.kind is VertexKind.SCATTERER and b.kind is VertexKind.SCATTERER
        )
    sigma_mean = math.sqrt(90 * 0.8 * 0.2 / n_draws)
    assert abs(counts.mean() - 72.0) < 3.0 * sigma_mean
    assert counts.var() == pytest.approx(14.4, rel=0.1)


# -- gain laws -----------------------------------------------------------------------


def test_slope_calibration_matches_closed_form():
    g = gain_from_slope(-0.4, 10e-9)
    assert g == pytest.approx(10.0 ** -0.2, rel=1e-15)


def test_slope_calibration_round_trips():
    mu = 7.3e-9
    for slope in (-0.05, -0.4, -2.0):
        g = gain_from_slope(slope, mu)
        recovered = 20.0 * math.log10(g) / (mu * 1e9)
        assert recovered == pytest.approx(slope, rel=1e-12)


def test_slope_calibration_limits_and_errors():
    # 10^(-1e-9 * 10 / 20) = 1 - 1.15e-9
    assert gain_from_slope(-1e-9, 10e-9) == pytest.approx(1.0, abs=1e-8)
    assert gain_from_slope(-1e-9, 10e-9) < 1.0
    with pytest.raises(ValueError):
        gain_from_slope(0.0, 10e-9)
    with pytest.raises(ValueError):
        gain_from_slope(-0.4, 0.0)


def test_direct_gain_is_inverse_of_four_pi_f_tau():
    f = 5.0e9
    tau = 1.0 / (4.0 * math.pi * f)
    realization = _default_realization()
    probe = Edge(src=tx(0), dst=rx(0), gain=ConstantGain(1.0),
                 phase_rad=0.0, delay_s=tau)
    assert edge_gain(probe, f, realization.graph) == pytest.approx(1.0, rel=1e-12)


def test_single_feed_edge_collapses_to_direct_law():
    # with one tx-scatterer edge, the class statistics reduce the squared
    # gain to 1 / (4 pi f tau)
    config = ScenarioConfig(n_scatterers=1, p_visibility=1.0, seed=3)
    realization = generate_realization(config, BAND)
    (feed_edge,) = realization.graph.edges_in_class(EdgeClass.TX_SCATTER)
    f = 2.5e9
    amplitude = float(feed_edge.gain.amplitude(f, feed_edge.delay_s))
    assert amplitude**2 == pytest.approx(
        1.0 / (4.0 * math.pi * f * feed_edge.delay_s), rel=1e-12
    )


def test_full_visibility_splits_shared_gain_over_four_peers():
    config = ScenarioConfig(
        n_scatterers=5, p_visibility=1.0,
        tail_slope_db_per_ns=None, inter_scatterer_gain=0.62, seed=1,
    )
    realization = generate_realization(config, BAND)
    assert realization.resolved_g == 0.62
    loops = realization.graph.edges_in_class(EdgeClass.INTER_SCATTER)
    assert len(loops) == 20
    for e in loops:
        assert float(e.gain.amplitude(2.6e9, e.delay_s)) == pytest.approx(0.62 / 4.0)


def test_feed_class_gains_satisfy_power_budget():
    # summed squared gains over the feed class equal 1 / (4 pi f mu)
    realization = _default_realization(seed=11)
    feeds = realization.graph.edges_in_class(EdgeClass.TX_SCATTER)
    f = 2.2e9
    mu = float(np.mean([e.delay_s for e in feeds]))
    total = sum(float(e.gain.amplitude(f, e.delay_s)) ** 2 for e in feeds)
    assert total == pytest.approx(1.0 / (4.0 * math.pi * f * mu), rel=1e-12)


def test_edge_gain_cross_checks_generated_edges():
    realization = _default_realization(seed=5)
    graph = realization.graph
    f = 2.9e9
    for e in graph.edges:
        expected = edge_gain(e, f, graph, resolved_g=realization.resolved_g)
        assert float(e.gain.amplitude(f, e.delay_s)) == pytest.approx(expected, rel=1e-12)


def test_edge_gain_requires_nonempty_class():
    bare = _default_realization().graph
    direct_only = ScenarioConfig(p_visibility=0.0)
    lonely = generate_realization(direct_only, BAND).graph
    probe = Edge(src=tx(0), dst=scatterer(0), gain=ConstantGain(1.0),
                 phase_rad=0.0, delay_s=1e-9)
    with pytest.raises(EmptyEdgeClass):
        edge_gain(probe, 2.5e9, lonely)
    isolated = Edge(src=scatterer(7), dst=scatterer(3), gain=ConstantGain(1.0),
                    phase_rad=0.0, delay_s=1e-9)
    if not any(e.src == scatterer(7) for e in bare.edges_in_class(EdgeClass.INTER_SCATTER)):
        with pytest.raises(EmptyEdgeClass):
            edge_gain(isolated, 2.5e9, bare, resolved_g=0.5)
    with pytest.raises(ValueError):
        edge_gain(isolated, 2.5e9, bare)  # resolved_g missing


# -- realization assembly --------------------------------------------------------------


def test_same_seed_reproduces_realization_bit_for_bit():
    a = realization_to_json(_default_realization(seed=42))
    b = realization_to_json(_default_realization(seed=42))
    assert a == b


def test_different_seeds_differ():
    a = realization_to_json(_default_realization(seed=1))
    b = realization_to_json(_default_realization(seed=2))
    assert a != b


def test_generated_graph_structure():
    realization = _default_realization()
    graph = realization.graph
    assert realization.attempts == 1
    assert (graph.n_tx, graph.n_rx, graph.n_scatterers) == (1, 1, 10)
    assert len(graph.edges_in_class(EdgeClass.DIRECT)) == 1  # p_direct = 1
    loop = adjacency_blocks(graph, 2.4e9).loop
    np.testing.assert_array_equal(np.diag(loop), np.zeros(10))
    for f in (2.0e9, 2.5e9, 3.0e9):
        rho = spectral_radius(adjacency_blocks(graph, f).loop)
        assert 0.0 < rho < 1.0
    room = ScenarioConfig().region
    for v in graph.vertices():
        if v.kind is VertexKind.SCATTERER:
            assert room.contains(graph.position(v))


def test_realization_records_calibration():
    realization = _default_realization(seed=8)
    loops = realization.graph.edges_in_class(EdgeClass.INTER_SCATTER)
    mu_manual = float(np.mean([e.delay_s for e in loops]))
    assert realization.mu_es == pytest.approx(mu_manual, rel=1e-15)
    assert realization.resolved_g == pytest.approx(
        gain_from_slope(-0.4, realization.mu_es), rel=1e-15
    )
    assert 0.0 < realization.resolved_g < 1.0


def test_realization_without_scatter_edges_has_no_calibration():
    config = ScenarioConfig(p_visibility=0.0)
    realization = generate_realization(config, BAND)
    assert realization.attempts == 1
    assert realization.mu_es is None and realization.resolved_g is None
    assert len(realization.graph.edges) == 1
    sample = transfer_matrix(realization.graph, 2.4e9)
    assert sample.matrix.shape == (1, 1)
    assert abs(sample.matrix[0, 0]) > 0.0


def test_realization_with_zero_scatterers():
    config = ScenarioConfig(n_scatterers=0)
    realization = generate_realization(config, BAND)
    assert realization.graph.n_scatterers == 0
    assert realization.mu_es is None
    assert adjacency_blocks(realization.graph, 2.4e9).loop.shape == (0, 0)


def test_rejections_advance_the_draw_streams(monkeypatch):
    baseline = realization_to_json(_default_realization())
    verdicts = iter([False, False, True])
    monkeypatch.setattr(revgraph.scenario, "_loop_is_contractive",
                        lambda graph, freqs: next(verdicts))
    realization = _default_realization()
    assert realization.attempts == 3
    assert realization_to_json(realization) != baseline


def test_rejection_limit_raises(monkeypatch):
    monkeypatch.setattr(revgraph.scenario, "_loop_is_contractive",
                        lambda graph, freqs: False)
    config = ScenarioConfig(max_rejections=7)
    with pytest.raises(RejectionLimitExceeded) as info:
        generate_realization(config, BAND)
    assert "7" in str(info.value)


def test_acceptance_builds_no_block_stack_and_agrees_with_the_stack_check(monkeypatch):
    checked = []
    honest = revgraph.scenario._loop_is_contractive

    def record(graph, freqs):
        verdict = honest(graph, freqs)
        checked.append((graph, freqs, verdict))
        return verdict

    def no_stack(graph, freqs):
        raise AssertionError("acceptance assembled a block stack")

    monkeypatch.setattr(revgraph.scenario, "_loop_is_contractive", record)
    monkeypatch.setattr(revgraph.transfer, "block_samples", no_stack)
    for seed in range(50):
        _default_realization(seed)
    monkeypatch.undo()
    assert len(checked) >= 50
    for graph, freqs, verdict in checked:
        try:
            verify_contraction(block_samples(graph, freqs).loop, freqs)
        except SpectralRadiusExceeded:
            assert not verdict
        else:
            assert verdict


def test_band_must_be_ordered():
    with pytest.raises(ValueError):
        generate_realization(ScenarioConfig(), (3e9, 2e9))


def test_band_must_be_finite():
    # Frequency grids obey the same rule, and say so in the same words.
    with pytest.raises(ValueError, match="need 0 < f_min < f_max < inf"):
        generate_realization(ScenarioConfig(), (2e9, math.inf))


# -- receiver relocation ------------------------------------------------------------


def test_relocation_keeps_scatterer_side_untouched():
    realization = _default_realization(seed=21)
    graph = realization.graph
    moved = relocate_receiver(graph, 0, (4.18, 4.0, 1.4))
    for cls in (EdgeClass.TX_SCATTER, EdgeClass.INTER_SCATTER):
        before = graph.edges_in_class(cls)
        after = moved.edges_in_class(cls)
        assert all(a is b for a, b in zip(before, after))
    f = 2.4e9
    np.testing.assert_array_equal(adjacency_blocks(moved, f).loop,
                                  adjacency_blocks(graph, f).loop)
    np.testing.assert_array_equal(adjacency_blocks(moved, f).feed,
                                  adjacency_blocks(graph, f).feed)


def test_relocation_updates_delays_and_keeps_phases():
    realization = _default_realization(seed=22)
    graph = realization.graph
    target = (3.0, 3.5, 1.2)
    moved = relocate_receiver(graph, 0, target)
    np.testing.assert_array_equal(moved.position(rx(0)), target)
    c = ScenarioConfig().speed_of_light
    for e in moved.edges:
        if e.dst == rx(0):
            dist = np.linalg.norm(moved.position(e.src) - np.asarray(target))
            assert e.delay_s == pytest.approx(dist / c, rel=1e-12)
            original = graph.edge_between(e.src, e.dst)
            assert e.phase_rad == original.phase_rad
    receiver_side = [e for e in moved.edges if e.dst.kind is VertexKind.RX]
    assert receiver_side
    for f in (2.0e9, 2.7e9):
        for e in receiver_side:
            assert float(e.gain.amplitude(f, e.delay_s)) == edge_gain(e, f, moved)


def test_relocation_keeps_the_other_receiver_in_place():
    config = ScenarioConfig(seed=3, tx_positions=((1.78, 1.0, 1.5), (3.0, 2.0, 1.0)),
                            rx_positions=((4.18, 4.0, 1.5), (1.0, 4.0, 1.2)))
    graph = generate_realization(config, BAND).graph
    for moved_index, other in ((0, rx(1)), (1, rx(0))):
        moved = relocate_receiver(graph, moved_index, (3.0, 3.5, 1.2))
        np.testing.assert_array_equal(moved.position(other), graph.position(other))
        into_other = [(a, b) for a, b in zip(graph.edges, moved.edges) if a.dst == other]
        assert into_other
        for before, after in into_other:
            assert after.dst == other and after.delay_s == before.delay_s
        receiver_side = [e for e in moved.edges if e.dst.kind is VertexKind.RX]
        for f in (2.0e9, 2.7e9):
            for e in receiver_side:
                assert float(e.gain.amplitude(f, e.delay_s)) == edge_gain(e, f, moved)


def test_relocation_round_trip_restores_response():
    realization = _default_realization(seed=23)
    graph = realization.graph
    original_rx = tuple(graph.position(rx(0)))
    back = relocate_receiver(relocate_receiver(graph, 0, (1.0, 1.0, 1.0)), 0, original_rx)
    f = 2.7e9
    h0 = transfer_matrix(graph, f).matrix
    h1 = transfer_matrix(back, f).matrix
    np.testing.assert_allclose(h1, h0, rtol=1e-12)


def test_relocation_rejects_bad_targets():
    graph = _default_realization().graph
    with pytest.raises(ValueError):
        relocate_receiver(graph, 5, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        relocate_receiver(graph, 0, (1.0, 1.0))


# -- serialization -------------------------------------------------------------------


def test_realization_json_round_trip():
    realization = _default_realization(seed=31)
    text = realization_to_json(realization)
    rebuilt = realization_from_json(text)
    assert realization_to_json(rebuilt) == text
    assert rebuilt.attempts == realization.attempts
    assert rebuilt.mu_es == realization.mu_es
    assert rebuilt.resolved_g == realization.resolved_g
    f = 2.4e9
    np.testing.assert_allclose(transfer_matrix(rebuilt.graph, f).matrix,
                               transfer_matrix(realization.graph, f).matrix,
                               rtol=1e-15)


def _inter_scatter_gain(doc: dict) -> dict:
    return next(e["gain"] for e in doc["graph"]["edges"] if "out_degree" in e["gain"])


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc.update(attempts=2.7), "attempts"),
    (lambda doc: doc.update(attempts=0), "attempts"),
    (lambda doc: doc.update(mu_es=-1.0), "mu_es"),
    (lambda doc: doc.update(resolved_g="x"), "resolved_g"),
    (lambda doc: _inter_scatter_gain(doc).update(out_degree=2.5), "out_degree"),
    (lambda doc: doc["graph"]["edges"][0].update(phase_rad="1.0"), "phase_rad"),
], ids=["attempts-fraction", "attempts-zero", "mu_es-negative", "resolved_g-string",
        "out_degree-fraction", "phase_rad-string"])
def test_json_documents_are_checked_like_config_files(edit, field):
    realization = _default_realization(seed=1)
    doc = json.loads(realization_to_json(realization))
    edit(doc)
    with pytest.raises(ValueError, match=field):
        realization_from_json(json.dumps(doc))
    if field in doc:  # a realization field: the constructor rejects the same value
        with pytest.raises(ValidationError, match=field):
            replace(realization, **{field: doc[field]})


def test_realization_json_is_valid_json_document():
    text = realization_to_json(_default_realization(), indent=2)
    doc = json.loads(text)
    assert set(doc) == {"graph", "attempts", "mu_es", "resolved_g"}
    assert doc["graph"]["n_s"] == 10
