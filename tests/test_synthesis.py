"""Frequency sweeps, windowing, impulse synthesis, and spectrum averaging.

The inverse transform convention under test: y(i dtau) equals df times the
sum over m of H[m] X[m] exp(j 2 pi i m / M), with df = B/(M-1) and
dtau = 1/B for a band of width B.  Under that convention the delay-domain
energy carries an exact factor M/(M-1) relative to the band power, which
is asserted as an identity rather than as approximate energy equality.

Also covered:
- grid bookkeeping and validation
- unit-power window normalization, the two-sample fallback, and the
  measured concentration of the raised-cosine main lobe
- sampled transfers against the per-frequency engine, bounce-slice
  additivity (also for two receivers and three transmitters, against
  k_bounce_matrix), every dissection range against the per-frequency engine
  and the walk enumeration, a traced peak of about one loop block per
  sampled solve, and per-sample contraction rejection with the
  offending sample index attached, the same sample rejected by the
  single-frequency path, logged condition warnings, and eigensolver
  failures wrapped as NumericalFailure
- shared products that change no value: every slice of a shared call
  equals a call for its range alone, and a receiver placement equals its
  moved graph sampled alone, bit for bit
- bounce ranges and grid/window pairings checked before any work
- ensemble and spatial averaging, including worker-pool parity over
  several ranges, ensemble memory that does not grow with the run count,
  and run notes on interpreters without add_note
- tail-slope fitting on synthetic spectra
- CSV and sidecar emission, byte for byte against a per-row formatter,
  with a bounded traced peak and grids that pickle as their three fields
- pools capped at the run count
"""

import csv
import json
import logging
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from revgraph.graph import (
    ConstantGain,
    Edge,
    PropagationGraph,
    rx,
    scatterer,
    tx,
    walk_sum,
)
import revgraph.scenario
from revgraph.cli import _dissection_ranges
from revgraph.scenario import ScenarioConfig, generate_realization
from revgraph.transfer import (
    BounceRange,
    NumericalFailure,
    _flat_certified,
    k_bounce_matrix,
    partial_transfer_matrix,
    transfer_matrix,
)
from revgraph.synthesis import (
    DelayPowerSpectrum,
    FrequencyGrid,
    ImpulseResponse,
    InsufficientBins,
    LengthMismatch,
    NonpositivePower,
    ResponseSamples,
    SpectralRadiusExceededAt,
    SpectrumKind,
    WindowSpectrum,
    _annotate,
    config_digest,
    ensemble_spectra,
    ensemble_spectrum,
    fit_tail_slope,
    hann_window,
    impulse_response,
    sample_transfer,
    sample_transfer_slices,
    spatial_spectrum,
    write_impulse_csv,
    write_response_csv,
    write_sidecar,
    write_spectrum_csv,
)

BAND = (2.0e9, 3.0e9)


def _flat_edge(a, b, g, d, phase=0.0):
    return Edge(src=a, dst=b, gain=ConstantGain(g), phase_rad=phase, delay_s=d)


# two transmitters and two receivers in the default room
TWO_BY_TWO = ScenarioConfig(seed=3, tx_positions=((1.78, 1.0, 1.5), (3.0, 2.0, 1.0)),
                            rx_positions=((4.18, 4.0, 1.5), (1.0, 4.0, 1.2)))


def _small_realization(seed=0, n_scatterers=6):
    config = ScenarioConfig(seed=seed, n_scatterers=n_scatterers)
    return generate_realization(config, BAND)


# -- frequency grid -----------------------------------------------------------


def test_grid_spacings():
    grid = FrequencyGrid(2e9, 3e9, 8192)
    assert grid.delta_f == pytest.approx(1e9 / 8191)
    assert grid.delta_tau == pytest.approx(1e-9)
    freqs = grid.frequencies()
    assert freqs[0] == 2e9 and freqs[-1] == pytest.approx(3e9)
    assert len(freqs) == 8192
    delays = grid.delays()
    assert delays[0] == 0.0
    assert delays[1] == pytest.approx(grid.delta_tau)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(3e9, 2e9, 64)
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 2e9, 64)
    with pytest.raises(ValueError):
        FrequencyGrid(2e9, 3e9, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(1e9, math.inf, 8)
    with pytest.raises(ValueError):
        FrequencyGrid(2e9, 3e9, 2.5)
    with pytest.raises(ValueError):
        FrequencyGrid(2e9, 3e9, True)


# -- window -------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 8, 64, 1024, 8192])
def test_window_has_unit_power(m):
    grid = FrequencyGrid(2e9, 3e9, m)
    window = hann_window(grid)
    power = np.sum(np.abs(window.samples) ** 2) * grid.delta_f
    assert abs(power - 1.0) <= 1e-12


def test_window_endpoints_vanish():
    window = hann_window(FrequencyGrid(2e9, 3e9, 64))
    assert window.samples[0] == 0.0 and window.samples[-1] == 0.0
    assert np.max(np.abs(window.samples)) > 0.0


def test_two_sample_window_falls_back_to_flat():
    grid = FrequencyGrid(2e9, 3e9, 2)
    window = hann_window(grid)
    assert window.samples[0] == window.samples[1] != 0.0


def test_window_power_is_enforced():
    grid = FrequencyGrid(2e9, 3e9, 16)
    with pytest.raises(ValueError):
        WindowSpectrum(np.ones(16), grid)
    with pytest.raises(LengthMismatch):
        WindowSpectrum(np.ones(8), grid)


def test_window_main_lobe_is_narrow():
    # flat response: the impulse is the window transform centred on bin 0
    for m in (64, 1024):
        grid = FrequencyGrid(2e9, 3e9, m)
        window = hann_window(grid)
        y = impulse_response(np.ones(m, dtype=complex), window)
        p = y.power()
        assert int(np.argmax(p)) == 0
        # one-bin neighbours sit a quarter of the peak power (asymptotically)
        assert 0.24 < p[1] / p[0] < 0.27
        # at most a bin either side of the peak carries essentially everything
        assert (p[0] + p[1] + p[-1]) / p.sum() > 0.9999
        # so the half-power width is below two delay bins
        assert p[1] < 0.5 * p[0] and p[-1] < 0.5 * p[0]


# -- impulse synthesis -----------------------------------------------------------


def test_inverse_transform_matches_literal_sum():
    m = 16
    grid = FrequencyGrid(1e9, 2e9, m)
    window = hann_window(grid)
    rng = np.random.default_rng(3)
    values = rng.normal(size=m) + 1j * rng.normal(size=m)
    y = impulse_response(values, window).samples
    weighted = values * window.samples
    phases = np.exp(2j * math.pi * np.outer(np.arange(m), np.arange(m)) / m)
    literal = grid.delta_f * phases @ weighted
    np.testing.assert_allclose(y, literal, rtol=1e-10, atol=1e-16)


def test_pure_delay_peaks_at_matching_bin():
    m = 256
    grid = FrequencyGrid(2e9, 3e9, m)
    window = hann_window(grid)
    k = 37
    tau = k * grid.delta_tau
    values = np.exp(-2j * math.pi * grid.frequencies() * tau)
    y = impulse_response(values, window)
    assert int(np.argmax(y.power())) == k


def test_zero_response_gives_zero_impulse():
    grid = FrequencyGrid(2e9, 3e9, 64)
    y = impulse_response(np.zeros(64, dtype=complex), hann_window(grid))
    np.testing.assert_array_equal(y.samples, np.zeros(64, dtype=complex))


def test_impulse_synthesis_is_linear():
    m = 128
    grid = FrequencyGrid(2e9, 3e9, m)
    window = hann_window(grid)
    rng = np.random.default_rng(4)
    a = rng.normal(size=m) + 1j * rng.normal(size=m)
    b = rng.normal(size=m) + 1j * rng.normal(size=m)
    ya = impulse_response(a, window).samples
    yb = impulse_response(b, window).samples
    yab = impulse_response(a + 2.0 * b, window).samples
    np.testing.assert_allclose(yab, ya + 2.0 * yb, rtol=1e-12, atol=1e-16)


def test_delay_energy_carries_the_grid_factor():
    # sum |y|^2 dtau = (M / (M-1)) * sum |H X|^2 df, exactly
    for m in (8, 64, 8192):
        grid = FrequencyGrid(2e9, 3e9, m)
        window = hann_window(grid)
        rng = np.random.default_rng(m)
        values = rng.normal(size=m) + 1j * rng.normal(size=m)
        y = impulse_response(values, window).samples
        delay_energy = float(np.sum(np.abs(y) ** 2) * grid.delta_tau)
        band_power = float(np.sum(np.abs(values * window.samples) ** 2) * grid.delta_f)
        assert delay_energy == pytest.approx(band_power * m / (m - 1), rel=1e-12)


def test_impulse_rejects_mismatched_lengths():
    grid = FrequencyGrid(2e9, 3e9, 64)
    window = hann_window(grid)
    with pytest.raises(LengthMismatch):
        impulse_response(np.ones(32, dtype=complex), window)
    other = sample_transfer(_small_realization().graph, FrequencyGrid(2e9, 3e9, 32))
    with pytest.raises(LengthMismatch):
        impulse_response(other, window)


# -- transfer sampling -------------------------------------------------------------


def test_sampled_transfer_matches_per_frequency_engine():
    realization = _small_realization(seed=2)
    grid = FrequencyGrid(2e9, 3e9, 16)
    samples = sample_transfer(realization.graph, grid)
    assert samples.tensor.shape == (16, 1, 1)
    for m in (0, 7, 15):
        f = grid.frequencies()[m]
        single = partial_transfer_matrix(realization.graph, f, BounceRange.full())
        np.testing.assert_allclose(samples[m].matrix, single.matrix,
                                   rtol=1e-11, atol=1e-16)


def test_bounce_slices_share_solves_and_add_up():
    realization = _small_realization(seed=6)
    grid = FrequencyGrid(2e9, 3e9, 32)
    ranges = [BounceRange.exactly(k) for k in range(6)] + [BounceRange.tail(6)]
    slices = sample_transfer_slices(realization.graph, grid, ranges)
    total = sum(s.tensor for s in slices)
    full = sample_transfer(realization.graph, grid)
    scale = np.linalg.norm(full.tensor)
    assert np.linalg.norm(total - full.tensor) / scale < 1e-11
    mid = slices[3]
    f = grid.frequencies()[9]
    single = partial_transfer_matrix(realization.graph, f, BounceRange.exactly(3))
    np.testing.assert_allclose(mid.tensor[9], single.matrix, rtol=1e-11, atol=1e-16)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sharing_products_changes_no_value(seed):
    # the shared powers, terms and solve give each range the values of a
    # call that asks for that range alone
    grid = FrequencyGrid(2e9, 3e9, 1024)
    graph = generate_realization(ScenarioConfig(seed=seed), grid).graph
    ranges = list(_dissection_ranges(4)) + [BounceRange.exactly(k) for k in range(1, 6)]
    for piece in sample_transfer_slices(graph, grid, ranges):
        alone = sample_transfer(graph, grid, piece.bounce_range).tensor
        assert np.array_equal(piece.tensor.view(float), alone.view(float)), piece.bounce_range.label


def test_every_dissection_range_matches_the_per_frequency_engine():
    # shuffled, with one range asked for twice: each slice must still land
    # on its own range
    realization = _small_realization(seed=7)
    grid = FrequencyGrid(2e9, 3e9, 24)
    ranges = _dissection_ranges(4)
    assert len(ranges) == 20
    order = np.random.default_rng(3).permutation(len(ranges))
    requested = [ranges[i] for i in order] + [ranges[order[0]]]
    slices = sample_transfer_slices(realization.graph, grid, requested)
    assert [s.bounce_range for s in slices] == requested
    np.testing.assert_array_equal(slices[-1].tensor, slices[0].tensor)
    for piece in slices:
        for m in (0, 11, 23):
            single = partial_transfer_matrix(realization.graph, grid.frequencies()[m],
                                             piece.bounce_range)
            np.testing.assert_allclose(piece.tensor[m], single.matrix,
                                       rtol=1e-11, atol=1e-16)


def test_mimo_exact_slices_add_up_and_match_k_bounce_matrices():
    config = ScenarioConfig(
        seed=4,
        tx_positions=((1.78, 1.0, 1.5), (3.0, 2.0, 1.0), (1.0, 1.0, 2.0)),
        rx_positions=((4.18, 4.0, 1.5), (1.0, 4.0, 1.2)),
    )
    grid = FrequencyGrid(2e9, 3e9, 16)
    graph = generate_realization(config, grid).graph
    ranges = [BounceRange.exactly(k) for k in range(6)] + [BounceRange.tail(6)]
    slices = sample_transfer_slices(graph, grid, ranges)
    full = sample_transfer(graph, grid).tensor
    assert full.shape == (16, 2, 3)
    scale = np.abs(full).max()
    np.testing.assert_allclose(sum(s.tensor for s in slices), full, rtol=0, atol=1e-12 * scale)
    for k, piece in enumerate(slices[:-1]):
        for m in (0, 7, 15):
            exact = k_bounce_matrix(graph, grid.frequencies()[m], k).matrix
            np.testing.assert_allclose(piece.tensor[m], exact, rtol=0, atol=1e-12 * scale)


def test_bounded_slices_match_the_walk_enumeration():
    edges = [
        _flat_edge(tx(0), rx(0), 0.3, 5e-9),
        _flat_edge(tx(0), scatterer(0), 0.5, 2e-9),
        _flat_edge(tx(0), scatterer(2), 0.4, 3e-9),
        _flat_edge(scatterer(1), rx(0), 0.6, 4e-9),
        _flat_edge(scatterer(2), rx(0), 0.3, 2.5e-9),
    ]
    for i in range(3):
        for j in range(3):
            if i != j:
                edges.append(_flat_edge(scatterer(i), scatterer(j), 0.3,
                                        (1 + i + 2 * j) * 1e-9, phase=0.4 * i + j))
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=3, edges=tuple(edges))
    grid = FrequencyGrid(2e9, 3e9, 8)
    ranges = [r for r in _dissection_ranges(4) if not r.unbounded]
    slices = sample_transfer_slices(graph, grid, ranges)
    scale = np.abs(sample_transfer(graph, grid).tensor).max()
    for piece in slices:
        for m in (0, 5):
            brute = walk_sum(graph, grid.frequencies()[m], piece.bounce_range.first,
                             int(piece.bounce_range.last))
            assert np.abs(piece.tensor[m] - brute).max() <= 1e-12 * scale


def test_contraction_failure_reports_first_offending_sample():
    edges = (
        _flat_edge(tx(0), rx(0), 0.3, 5e-9),
        _flat_edge(tx(0), scatterer(0), 0.4, 3e-9),
        # self-loop plus a two-cycle whose alignment sweeps with frequency:
        # the radius crosses the limit on part of the band only
        _flat_edge(scatterer(0), scatterer(0), 0.8, 0.0),
        _flat_edge(scatterer(0), scatterer(1), 0.6, 1.1e-9, phase=math.pi),
        _flat_edge(scatterer(1), scatterer(0), 0.6, 0.9e-9),
        _flat_edge(scatterer(1), rx(0), 0.5, 4e-9),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)
    grid = FrequencyGrid(1e9, 2e9, 64)
    loops = np.zeros((64, 2, 2), dtype=complex)
    freqs = grid.frequencies()
    for e in edges[2:5]:
        loops[:, e.dst.index, e.src.index] = e.transfer_value(freqs)
    rho = np.max(np.abs(np.linalg.eigvals(loops)), axis=1)
    offending = np.nonzero(rho > 1.0 - 1e-6)[0]
    assert 0 < len(offending) < 64  # fails on part of the band only
    with pytest.raises(SpectralRadiusExceededAt) as info:
        sample_transfer(graph, grid)
    exc = info.value
    assert exc.sample_index == offending[0]
    assert exc.value == pytest.approx(rho[offending[0]], rel=1e-12)
    assert exc.frequency_hz == pytest.approx(freqs[offending[0]])


def test_scattererless_graph_samples_to_direct_values():
    edge = _flat_edge(tx(0), rx(0), 0.4, 6e-9, phase=0.7)
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=0, edges=(edge,))
    grid = FrequencyGrid(2e9, 3e9, 8)
    samples = sample_transfer(graph, grid)
    direct = edge.transfer_value(grid.frequencies())
    np.testing.assert_allclose(samples.pair(), direct, rtol=1e-13)
    # with no scatterers, slices from order 0 are the direct block, the rest zero
    for piece in sample_transfer_slices(graph, grid, _dissection_ranges(3)):
        if piece.bounce_range.first == 0:
            np.testing.assert_allclose(piece.pair(), direct, rtol=1e-13)
        else:
            assert not piece.tensor.any()


def _band_crossing_graph():
    """The graph of the test above: its loop stops contracting on part of 1-2 GHz."""
    edges = (
        _flat_edge(tx(0), rx(0), 0.3, 5e-9),
        _flat_edge(tx(0), scatterer(0), 0.4, 3e-9),
        _flat_edge(scatterer(0), scatterer(0), 0.8, 0.0),
        _flat_edge(scatterer(0), scatterer(1), 0.6, 1.1e-9, phase=math.pi),
        _flat_edge(scatterer(1), scatterer(0), 0.6, 0.9e-9),
        _flat_edge(scatterer(1), rx(0), 0.5, 4e-9),
    )
    return PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)


def test_batched_and_single_frequency_paths_reject_the_same_sample():
    graph = _band_crossing_graph()
    grid = FrequencyGrid(1e9, 2e9, 64)
    with pytest.raises(SpectralRadiusExceededAt) as batched:
        sample_transfer(graph, grid)
    first = grid.frequencies()[batched.value.sample_index]
    with pytest.raises(SpectralRadiusExceededAt) as single:
        partial_transfer_matrix(graph, first, BounceRange.full())
    assert single.value.value == pytest.approx(batched.value.value, rel=1e-12)
    assert single.value.frequency_hz == batched.value.frequency_hz
    assert not revgraph.scenario._loop_is_contractive(graph, grid.frequencies())


def test_ill_conditioned_solves_are_logged(caplog):
    # a single loop edge is nilpotent (radius 0) yet leaves cond(I - loop) near 1e22
    edges = (
        _flat_edge(tx(0), scatterer(0), 0.5, 3e-9),
        _flat_edge(scatterer(0), scatterer(1), 1e11, 1e-9),
        _flat_edge(scatterer(1), rx(0), 0.5, 4e-9),
    )
    graph = PropagationGraph(n_tx=1, n_rx=1, n_scatterers=2, edges=edges)
    grid = FrequencyGrid(2e9, 3e9, 4)
    for run in (lambda: transfer_matrix(graph, 2.5e9), lambda: sample_transfer(graph, grid)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="revgraph.transfer"):
            run()
        assert any(
            r.name == "revgraph.transfer" and "ill-conditioned" in r.getMessage()
            for r in caplog.records
        )


def test_eigensolver_failure_surfaces_as_numerical_failure(monkeypatch):
    def broken(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", broken)
    with pytest.raises(NumericalFailure, match="did not converge"):
        sample_transfer(_band_crossing_graph(), FrequencyGrid(1e9, 2e9, 64))


def test_negative_indices_pick_the_frequency_of_their_sample():
    grid = FrequencyGrid(2e9, 3e9, 8)
    tensor = np.arange(8, dtype=complex).reshape(8, 1, 1)
    samples = ResponseSamples(grid=grid, bounce_range=BounceRange.full(), tensor=tensor)
    freqs = grid.frequencies()
    for m, expected in ((-1, 7), (-8, 0)):
        sample = samples[m]
        assert sample.frequency_hz == freqs[expected]
        assert sample.matrix[0, 0] == expected
    for m in (8, -9):
        with pytest.raises(IndexError):
            samples[m]


def test_response_samples_validate_tensor_shape():
    grid = FrequencyGrid(2e9, 3e9, 8)
    with pytest.raises(ValueError):
        ResponseSamples(grid=grid, bounce_range=BounceRange.full(),
                        tensor=np.zeros((4, 1, 1), dtype=complex))


# -- spectra -----------------------------------------------------------------------


def test_ensemble_spectrum_is_mean_over_seeded_runs():
    config = ScenarioConfig(seed=40, n_scatterers=5)
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    n_runs = 3
    spectrum = ensemble_spectrum(config, grid, n_runs, window)
    manual = []
    for i in range(n_runs):
        run = generate_realization(ScenarioConfig(seed=40 + i, n_scatterers=5), grid)
        y = impulse_response(sample_transfer(run.graph, grid), window)
        manual.append(y.power())
    np.testing.assert_allclose(spectrum.power, np.mean(manual, axis=0),
                               rtol=1e-12, atol=1e-30)
    assert spectrum.kind is SpectrumKind.ENSEMBLE
    assert spectrum.count == n_runs


def test_ensemble_slices_align_with_their_ranges():
    config = ScenarioConfig(seed=50, n_scatterers=5)
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    ranges = (BounceRange.full(), BounceRange.exactly(0), BounceRange.tail(1))
    full, direct_only, tail = ensemble_spectra(config, grid, 2, window,
                                               bounce_ranges=ranges)
    assert full.count == direct_only.count == tail.count == 2
    # the direct slice of a certain-direct scenario is a pure delta per run,
    # so its spectrum cannot exceed the full one everywhere
    assert direct_only.power.max() > 0.0
    assert tail.power.max() > 0.0


def test_worker_pool_matches_serial_average():
    config = ScenarioConfig(seed=60, n_scatterers=4)
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    ranges = (BounceRange.full(), BounceRange.exactly(0), BounceRange.exactly(2),
              BounceRange.tail(3))
    serial = ensemble_spectra(config, grid, 4, window, bounce_ranges=ranges)
    parallel = ensemble_spectra(config, grid, 4, window, bounce_ranges=ranges, workers=2)
    for s, p in zip(serial, parallel, strict=True):
        np.testing.assert_array_equal(p.power, s.power)


_TWO_GRIDS = (FrequencyGrid(2e9, 3e9, 16), FrequencyGrid(1e9, 11e9, 32))
# A loop gain this close to one is past SPECTRAL_RADIUS_LIMIT, so the flat
# bound certifies no loop and acceptance samples the band.
_NEAR_UNIT_GAIN = ScenarioConfig(seed=63, n_scatterers=4, inter_scatterer_gain=0.9999995,
                                 tail_slope_db_per_ns=None)


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("config", [ScenarioConfig(seed=62, n_scatterers=4), _NEAR_UNIT_GAIN],
                         ids=["flat-certified", "band-checked"])
def test_multi_grid_ensemble_equals_per_grid_calls(config, workers):
    windows = [hann_window(grid) for grid in _TWO_GRIDS]
    ranges = (BounceRange.full(), BounceRange.exactly(1), BounceRange(0, 2), BounceRange.tail(2))
    together = ensemble_spectra(config, _TWO_GRIDS, 3, windows, bounce_ranges=ranges,
                                workers=workers)
    assert len(together) == len(_TWO_GRIDS)
    for grid, window, spectra in zip(_TWO_GRIDS, windows, together, strict=True):
        alone = ensemble_spectra(config, grid, 3, window, bounce_ranges=ranges)
        for a, t in zip(alone, spectra, strict=True):
            assert t.grid == grid and t.count == 3
            np.testing.assert_array_equal(t.power, a.power)


@pytest.mark.parametrize("config, draws_per_run", [(ScenarioConfig(seed=62), 1),
                                                   (_NEAR_UNIT_GAIN, 2)],
                         ids=["flat-certified", "band-checked"])
def test_a_multi_grid_run_draws_again_only_where_the_band_mattered(monkeypatch, config,
                                                                   draws_per_run):
    import revgraph.synthesis as synthesis

    certified = _flat_certified(generate_realization(config, _TWO_GRIDS[0]).graph)
    assert certified is (draws_per_run == 1)
    honest = synthesis.generate_realization
    bands = []

    def counted(config, band):
        bands.append((config.seed, band))
        return honest(config, band)

    monkeypatch.setattr(synthesis, "generate_realization", counted)
    ensemble_spectra(config, _TWO_GRIDS, 3, [hann_window(grid) for grid in _TWO_GRIDS])
    seeds = [config.seed + i for i in range(3)]
    assert bands == [(seed, grid) for seed in seeds for grid in _TWO_GRIDS[:draws_per_run]]


def test_multi_grid_ensemble_checks_its_windows():
    windows = [hann_window(grid) for grid in _TWO_GRIDS]
    with pytest.raises(LengthMismatch, match="1 windows for 2 grids"):
        ensemble_spectra(ScenarioConfig(), _TWO_GRIDS, 2, windows[:1])
    with pytest.raises(LengthMismatch, match="window grid differs"):
        ensemble_spectra(ScenarioConfig(), _TWO_GRIDS, 2, windows[::-1])
    with pytest.raises(ValueError, match="at least one frequency grid"):
        ensemble_spectra(ScenarioConfig(), (), 2, ())


def test_ensemble_pairs_grids_and_windows_before_any_draw(monkeypatch):
    windows = [hann_window(grid) for grid in _TWO_GRIDS]
    _forbid_work(monkeypatch)
    with pytest.raises(LengthMismatch, match="one window per grid"):
        ensemble_spectra(ScenarioConfig(), _TWO_GRIDS, 2, windows[0])
    with pytest.raises(LengthMismatch, match="one grid takes one window"):
        ensemble_spectra(ScenarioConfig(), _TWO_GRIDS[0], 2, windows[:1])


def test_pool_is_no_larger_than_the_run_count(monkeypatch):
    # The fake records the pool size and maps in this process, so no worker starts.
    import revgraph.synthesis as synthesis

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(synthesis, "ProcessPoolExecutor", RecordingPool)
    config = ScenarioConfig(seed=61, n_scatterers=4)
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    serial = ensemble_spectrum(config, grid, 2, window)
    pooled = ensemble_spectrum(config, grid, 2, window, workers=8)
    assert sizes == [2]
    np.testing.assert_array_equal(pooled.power, serial.power)
    ensemble_spectrum(config, grid, 1, window, workers=4)  # one run stays serial
    assert sizes == [2]


@pytest.mark.parametrize("n_runs, message", [(2.5, "expected an integer"),
                                              (True, "expected an integer"),
                                              (0, ">= 1")])
def test_ensemble_run_count_must_be_a_positive_integer(n_runs, message):
    grid = FrequencyGrid(2e9, 3e9, 16)
    with pytest.raises(ValueError, match=message):
        ensemble_spectra(ScenarioConfig(), grid, n_runs, hann_window(grid))


def _forbid_work(monkeypatch):
    """Make drawing a realization or sampling a graph fail the test."""
    import revgraph.synthesis
    import revgraph.transfer

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the arguments were checked")

    monkeypatch.setattr(revgraph.synthesis, "generate_realization", no_work)
    monkeypatch.setattr(revgraph.transfer, "block_samples", no_work)


@pytest.mark.parametrize("name, bad", [("rx_index", -1), ("rx_index", 2), ("rx_index", True),
                                       ("tx_index", -1), ("tx_index", 5), ("tx_index", 1.0)])
@pytest.mark.parametrize("mode", ["ensemble", "spatial"])
def test_pair_indices_are_checked_before_any_work(monkeypatch, mode, name, bad):
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    realization = generate_realization(TWO_BY_TWO, BAND)
    position = tuple(realization.graph.position(rx(0)))
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{name}"):
        if mode == "ensemble":
            ensemble_spectra(TWO_BY_TWO, grid, 2, window, **{name: bad})
        else:
            spatial_spectrum(realization, [position], grid, window, **{name: bad})


@pytest.mark.parametrize("bad", [(1.0, 2.0), (1.0, 2.0, 1.5, 0.0), (1.0, math.nan, 1.5),
                                 (-math.inf, 2.0, 1.5)], ids=["2-vector", "4-vector", "nan", "inf"])
def test_spatial_positions_are_checked_before_any_work(monkeypatch, bad):
    grid = FrequencyGrid(2e9, 3e9, 16)
    realization = generate_realization(TWO_BY_TWO, BAND)
    good = tuple(realization.graph.position(rx(0)))
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=r"^receiver position 1 must be a finite 3-vector"):
        spatial_spectrum(realization, [good, bad], grid, hann_window(grid))


@pytest.mark.parametrize("name, bad", [("rx_index", -1), ("rx_index", 2), ("rx_index", True),
                                       ("tx_index", -1), ("tx_index", 2), ("tx_index", 1.0)])
def test_response_pair_checks_its_indices(name, bad):
    # a negative index would pick a pair from the end, a bool would become a mask
    grid = FrequencyGrid(2e9, 3e9, 16)
    samples = sample_transfer(generate_realization(TWO_BY_TWO, BAND).graph, grid)
    with pytest.raises(ValueError, match=f"^{name}"):
        samples.pair(**{name: bad})
    with pytest.raises(ValueError, match=f"^{name}"):
        impulse_response(samples, hann_window(grid), **{name: bad})
    np.testing.assert_array_equal(samples.pair(1, 0), samples.tensor[:, 1, 0])


def test_empty_bounce_ranges_are_refused_before_sampling(monkeypatch):
    grid = FrequencyGrid(2e9, 3e9, 16)
    graph = _small_realization(seed=84).graph
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="at least one bounce range"):
        ensemble_spectra(ScenarioConfig(), grid, 2, hann_window(grid), bounce_ranges=[])
    with pytest.raises(ValueError, match="at least one bounce range"):
        sample_transfer_slices(graph, grid, [])


@pytest.mark.parametrize("call, name", [
    (lambda graph, grid: sample_transfer(graph, grid, (0, 3)), "bounce_range"),
    (lambda graph, grid: sample_transfer_slices(graph, grid, [BounceRange.full(), (0, 3)]),
     "bounce_ranges"),
    (lambda graph, grid: partial_transfer_matrix(graph, 2.5e9, "0:inf"), "bounce_range"),
    (lambda graph, grid: ensemble_spectra(ScenarioConfig(), grid, 2, hann_window(grid),
                                          bounce_ranges=[(1, 1)]), "bounce_ranges"),
], ids=["sample_transfer", "sample_transfer_slices", "partial_transfer_matrix", "ensemble_spectra"])
def test_bounce_ranges_are_type_checked_before_any_work(monkeypatch, call, name):
    grid = FrequencyGrid(2e9, 3e9, 16)
    graph = _small_realization(seed=84).graph
    _forbid_work(monkeypatch)
    with pytest.raises(TypeError, match=f"^{name}: expected a BounceRange"):
        call(graph, grid)


def test_ensemble_memory_does_not_grow_with_runs():
    # Powers are summed as runs arrive, so peak memory must not hold one
    # array per run: the peak may grow by less than one M-sample float64
    # array per added run (keeping every run's six arrays costs six).
    config = ScenarioConfig(seed=90)
    grid = FrequencyGrid(2e9, 3e9, 1024)
    window = hann_window(grid)
    ranges = (BounceRange.full(),) + tuple(BounceRange.exactly(k) for k in range(1, 6))
    ensemble_spectra(config, grid, 1, window, bounce_ranges=ranges)  # warm caches

    def peak_bytes(n_runs):
        tracemalloc.start()
        try:
            ensemble_spectra(config, grid, n_runs, window, bounce_ranges=ranges)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak_bytes(8), peak_bytes(32)
    assert (many - few) / (32 - 8) < grid.n_samples * 8


@pytest.mark.parametrize("workers", [None, 2])
def test_ensemble_error_names_the_failing_run(monkeypatch, workers):
    # a run that blows up should surface with its index and seed attached,
    # via exception notes where supported or in the wrapped message.  The
    # patch reaches pool workers because they are forked from this process
    # (the default start method on Linux before Python 3.14).
    import revgraph.synthesis as synthesis

    def explode_on_second(config, band):
        if config.seed == 71:
            raise RuntimeError("synthetic failure")
        return generate_realization(config, band)

    monkeypatch.setattr(synthesis, "generate_realization", explode_on_second)
    config = ScenarioConfig(seed=70, n_scatterers=4)
    grids = (FrequencyGrid(2e9, 3e9, 8), FrequencyGrid(1e9, 11e9, 8))
    windows = [hann_window(grid) for grid in grids]
    calls = [
        lambda: ensemble_spectrum(config, grids[0], 3, windows[0], workers=workers),
        lambda: ensemble_spectra(config, grids, 3, windows, workers=workers),  # one task per seed
    ]
    for call in calls:
        with pytest.raises(RuntimeError, match="synthetic failure") as info:
            call()
        notes = getattr(info.value, "__notes__", [])
        combined = " ".join([str(info.value)] + list(notes))
        assert "while simulating run 1 (seed 71)" in combined


def test_run_note_goes_into_args_without_add_note():
    # Interpreters before 3.11 have no add_note; the note must then ride in args.
    class NoNotes(RuntimeError):
        add_note = None

    exc = NoNotes("synthetic failure")
    _annotate(exc, 1, 71)
    assert exc.args == ("synthetic failure", "while simulating run 1 (seed 71)")
    assert not hasattr(exc, "__notes__")


def test_spatial_average_over_one_position_matches_single_run():
    realization = _small_realization(seed=80)
    grid = FrequencyGrid(2e9, 3e9, 32)
    window = hann_window(grid)
    original = tuple(realization.graph.position(rx(0)))
    spectrum = spatial_spectrum(realization, [original], grid, window)
    single = impulse_response(sample_transfer(realization.graph, grid), window)
    np.testing.assert_allclose(spectrum.power, single.power(), rtol=1e-9, atol=1e-30)
    assert spectrum.kind is SpectrumKind.SPATIAL
    assert spectrum.count == 1


def test_a_placement_equals_the_moved_graph_sampled_alone():
    # one shared solve, and the receiver side sampled on the grid as the
    # moved graph's own sampling is, so one position matches bit for bit
    from revgraph.scenario import relocate_receiver

    realization = _small_realization(seed=82)
    grid = FrequencyGrid(2e9, 3e9, 64)
    window = hann_window(grid)
    position = tuple(np.asarray(realization.graph.position(rx(0))) + 0.01)
    spectrum = spatial_spectrum(realization, [position], grid, window)
    moved = relocate_receiver(realization.graph, 0, position)
    alone = impulse_response(sample_transfer(moved, grid), window).power()
    assert np.array_equal(spectrum.power, alone)


def test_spatial_average_equals_naive_per_position_mean():
    realization = _small_realization(seed=81)
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    base = np.asarray(realization.graph.position(rx(0)))
    offsets = [(0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.0, 0.01, 0.0), (0.01, 0.01, 0.0)]
    positions = [tuple(base + np.asarray(o)) for o in offsets]
    fast = spatial_spectrum(realization, positions, grid, window)
    from revgraph.scenario import relocate_receiver

    naive = []
    for p in positions:
        moved = relocate_receiver(realization.graph, 0, p)
        y = impulse_response(sample_transfer(moved, grid), window)
        naive.append(y.power())
    np.testing.assert_allclose(fast.power, np.mean(naive, axis=0),
                               rtol=1e-9, atol=1e-30)


def test_spatial_average_of_every_pair_equals_naive_per_position_mean():
    from revgraph.scenario import relocate_receiver

    realization = generate_realization(TWO_BY_TWO, BAND)
    graph = realization.graph
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    offsets = [(0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.0, 0.01, 0.0), (0.01, 0.01, 0.0)]
    for rx_index, tx_index in ((1, 0), (1, 1), (0, 1)):
        base = np.asarray(graph.position(rx(rx_index)))
        positions = [tuple(base + np.asarray(o)) for o in offsets]
        fast = spatial_spectrum(realization, positions, grid, window,
                                rx_index=rx_index, tx_index=tx_index)
        naive = [
            impulse_response(sample_transfer(relocate_receiver(graph, rx_index, p), grid), window,
                             rx_index=rx_index, tx_index=tx_index).power()
            for p in positions
        ]
        np.testing.assert_allclose(fast.power, np.mean(naive, axis=0), rtol=1e-12, atol=0.0)


def test_a_sampled_solve_holds_one_loop_block():
    # the kernel factors loop - I in the loop block's own storage, so a
    # solve peaks near one n x n x M buffer; bounce orders add the
    # collect-side products collect @ loop^j, each 1/n of a block here
    grid = FrequencyGrid(2e9, 3e9, 2048)
    realization = _small_realization(seed=1, n_scatterers=10)
    graph = realization.graph
    window = hann_window(grid)
    base = np.asarray(graph.position(rx(0)))
    positions = [tuple(base + offset) for offset in (0.0, 0.01, 0.02)]
    block = graph.n_scatterers ** 2 * grid.n_samples * np.dtype(complex).itemsize
    sample_transfer(graph, grid)  # builds the graph's edge table

    def peak_blocks(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / block
        finally:
            tracemalloc.stop()

    assert peak_blocks(lambda: sample_transfer(graph, grid)) < 1.5
    assert peak_blocks(lambda: spatial_spectrum(realization, positions, grid, window)) < 1.5
    ranges = _dissection_ranges(4)
    assert peak_blocks(lambda: sample_transfer_slices(graph, grid, ranges)) < 1.75


def test_spatial_sweep_samples_the_whole_graph_once(monkeypatch):
    import revgraph.transfer as transfer

    realization = _small_realization(seed=83)
    grid = FrequencyGrid(2e9, 3e9, 16)
    base = np.asarray(realization.graph.position(rx(0)))
    positions = [tuple(base), tuple(base + 0.01)]
    sampled = []
    honest = transfer.block_samples

    def counting(graph, freqs):
        sampled.append(graph)
        return honest(graph, freqs)

    monkeypatch.setattr(transfer, "block_samples", counting)
    spatial_spectrum(realization, positions, grid, hann_window(grid))
    assert len(sampled) == 1 and sampled[0] is realization.graph


def test_spatial_rejects_a_move_that_alters_the_feed(monkeypatch):
    import dataclasses

    import revgraph.synthesis as synthesis
    from revgraph.graph import EdgeClass

    realization = _small_realization(seed=82)
    grid = FrequencyGrid(2e9, 3e9, 16)
    honest = synthesis.relocate_receiver

    def perturb_feed(graph, rx_index, position):
        moved = honest(graph, rx_index, position)
        feed = moved.edges_in_class(EdgeClass.TX_SCATTER)[0]
        edges = tuple(
            dataclasses.replace(e, delay_s=1.01 * e.delay_s) if e is feed else e
            for e in moved.edges
        )
        return dataclasses.replace(moved, edges=edges)

    monkeypatch.setattr(synthesis, "relocate_receiver", perturb_feed)
    position = tuple(realization.graph.position(rx(0)))
    with pytest.raises(RuntimeError, match="receiver move altered"):
        spatial_spectrum(realization, [position], grid, hann_window(grid))


def test_spatial_compares_scatterer_side_edges_by_value(monkeypatch):
    import dataclasses

    import revgraph.synthesis as synthesis
    from revgraph.graph import VertexKind

    realization = _small_realization(seed=82)
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    base = np.asarray(realization.graph.position(rx(0)))
    positions = [tuple(base), tuple(base + 0.01)]
    expected = spatial_spectrum(realization, positions, grid, window)
    honest = synthesis.relocate_receiver

    def copy_scatter_side(graph, rx_index, position):
        moved = honest(graph, rx_index, position)
        # equal feed and loop edges, but new objects
        edges = tuple(e if e.dst.kind is VertexKind.RX else dataclasses.replace(e) for e in moved.edges)
        assert not any(a is b for a, b in zip(edges, moved.edges) if a.dst.kind is not VertexKind.RX)
        return dataclasses.replace(moved, edges=edges)

    monkeypatch.setattr(synthesis, "relocate_receiver", copy_scatter_side)
    copied = spatial_spectrum(realization, positions, grid, window)
    assert copied.power.tobytes() == expected.power.tobytes()


def test_spectrum_validation():
    grid = FrequencyGrid(2e9, 3e9, 8)
    with pytest.raises(ValueError):
        DelayPowerSpectrum(power=-np.ones(8), grid=grid,
                           kind=SpectrumKind.ENSEMBLE, count=1)
    with pytest.raises(ValueError):
        DelayPowerSpectrum(power=np.ones(8), grid=grid,
                           kind=SpectrumKind.ENSEMBLE, count=0)


@pytest.mark.parametrize("count", [True, 2.5, np.float64(3.0), "4", None])
def test_spectrum_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="count"):
        DelayPowerSpectrum(power=np.ones(8), grid=FrequencyGrid(2e9, 3e9, 8),
                           kind=SpectrumKind.ENSEMBLE, count=count)


def test_spectrum_stores_an_int_count():
    spectrum = DelayPowerSpectrum(power=np.ones(8), grid=FrequencyGrid(2e9, 3e9, 8),
                                  kind=SpectrumKind.ENSEMBLE, count=np.int64(3))
    assert type(spectrum.count) is int and spectrum.count == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectrum_rejects_nonfinite_bins(bad):
    power = np.ones(8)
    power[3] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        DelayPowerSpectrum(power=power, grid=FrequencyGrid(2e9, 3e9, 8),
                           kind=SpectrumKind.ENSEMBLE, count=1)


# -- tail fitting -------------------------------------------------------------------


def _spectrum_from_db_line(grid, slope_db_per_ns, intercept_db=-60.0):
    delays_ns = grid.delays() * 1e9
    power = 10.0 ** ((intercept_db + slope_db_per_ns * delays_ns) / 10.0)
    return DelayPowerSpectrum(power=power, grid=grid,
                              kind=SpectrumKind.ENSEMBLE, count=1)


def test_fit_recovers_exponential_decay():
    grid = FrequencyGrid(2e9, 3e9, 1024)
    spectrum = _spectrum_from_db_line(grid, -0.4)
    # half-bin margins keep the bin count immune to boundary rounding
    fit = fit_tail_slope(spectrum, (39.5e-9, 120.5e-9))
    assert fit.slope_db_per_ns == pytest.approx(-0.4, abs=1e-9)
    assert fit.residual_rms_db < 1e-9
    assert fit.n_bins == 81


def test_fit_of_flat_spectrum_is_zero_slope():
    grid = FrequencyGrid(2e9, 3e9, 512)
    spectrum = _spectrum_from_db_line(grid, 0.0)
    fit = fit_tail_slope(spectrum, (40e-9, 200e-9))
    assert fit.slope_db_per_ns == pytest.approx(0.0, abs=1e-12)


def test_fit_requires_enough_bins():
    grid = FrequencyGrid(2e9, 3e9, 1024)
    spectrum = _spectrum_from_db_line(grid, -0.4)
    with pytest.raises(InsufficientBins):
        fit_tail_slope(spectrum, (40e-9, 45e-9))
    with pytest.raises(ValueError):
        fit_tail_slope(spectrum, (50e-9, 50e-9))


def test_fit_rejects_empty_bins():
    grid = FrequencyGrid(2e9, 3e9, 1024)
    power = np.ones(1024)
    power[60] = 0.0
    spectrum = DelayPowerSpectrum(power=power, grid=grid,
                                  kind=SpectrumKind.ENSEMBLE, count=1)
    with pytest.raises(NonpositivePower):
        fit_tail_slope(spectrum, (40e-9, 120e-9))


# -- emission -----------------------------------------------------------------------


def test_response_csv_round_trips(tmp_path):
    realization = _small_realization(seed=90)
    grid = FrequencyGrid(2e9, 3e9, 8)
    samples = sample_transfer(realization.graph, grid)
    path = tmp_path / "response.csv"
    write_response_csv(path, samples)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert set(rows[0]) == {"freq_hz", "h_rx0_tx0_re", "h_rx0_tx0_im"}
    m = 5
    assert float(rows[m]["freq_hz"]) == grid.frequencies()[m]
    rebuilt = float(rows[m]["h_rx0_tx0_re"]) + 1j * float(rows[m]["h_rx0_tx0_im"])
    assert rebuilt == samples.pair()[m]  # repr round-trips doubles exactly


def test_impulse_csv_round_trips(tmp_path):
    grid = FrequencyGrid(2e9, 3e9, 16)
    window = hann_window(grid)
    rng = np.random.default_rng(5)
    y = impulse_response(rng.normal(size=16) + 1j * rng.normal(size=16), window)
    path = tmp_path / "impulse.csv"
    write_impulse_csv(path, y)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    k = 3
    assert float(rows[k]["delay_s"]) == y.delay_axis[k]
    assert float(rows[k]["h_re"]) + 1j * float(rows[k]["h_im"]) == y.samples[k]


def test_spectrum_csv_marks_empty_bins(tmp_path):
    grid = FrequencyGrid(2e9, 3e9, 16)
    power = np.linspace(0.0, 1.0, 16)
    spectrum = DelayPowerSpectrum(power=power, grid=grid,
                                  kind=SpectrumKind.ENSEMBLE, count=2)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spectrum)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["power_linear"]) == 0.0
    assert rows[0]["power_db"] == "-inf"
    assert float(rows[8]["power_db"]) == pytest.approx(10.0 * math.log10(power[8]))


def _fmt(value):
    return repr(float(value))


def _reference_response(samples):
    """The row-by-row formatter the column-wise writer must reproduce."""
    _, n_rx, n_tx = samples.tensor.shape
    header = ["freq_hz"]
    for r in range(n_rx):
        for t in range(n_tx):
            header += [f"h_rx{r}_tx{t}_re", f"h_rx{r}_tx{t}_im"]
    freqs = samples.grid.frequencies()
    lines = [",".join(header)]
    for m in range(len(samples)):
        row = [_fmt(freqs[m])]
        for r in range(n_rx):
            for t in range(n_tx):
                value = samples.tensor[m, r, t]
                row += [_fmt(value.real), _fmt(value.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reference_impulse(impulse):
    delays = impulse.delay_axis
    lines = ["delay_s,h_re,h_im"]
    for i, value in enumerate(impulse.samples):
        lines.append(f"{_fmt(delays[i])},{_fmt(value.real)},{_fmt(value.imag)}")
    return "\n".join(lines) + "\n"


def _reference_spectrum(spectrum):
    delays = spectrum.delay_axis
    lines = ["delay_s,power_linear,power_db"]
    for i, p in enumerate(spectrum.power):
        db = 10.0 * math.log10(p) if p > 0.0 else -math.inf
        lines.append(f"{_fmt(delays[i])},{_fmt(p)},{_fmt(db)}")
    return "\n".join(lines) + "\n"


# Zeros of both signs, the smallest subnormal, the switch to exponent
# notation at 1e16, and non-finite values.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 9999999999999998.0,
                1e-4, 1e-5, math.inf, -math.inf, math.nan, -1e-300, 123456789.123]


def _edge_value_pairs():
    # Set the parts directly: 1j * inf would turn the real part into nan.
    z = np.empty(len(_EDGE_VALUES), dtype=complex)
    z.real = _EDGE_VALUES
    z.imag = _EDGE_VALUES[::-1]
    return z


def test_response_csv_matches_the_row_formatter_bytewise(tmp_path):
    grid = FrequencyGrid(2.1e9, 2.9e9, 14)
    rng = np.random.default_rng(11)
    tensor = rng.normal(size=(14, 2, 3)) + 1j * rng.normal(size=(14, 2, 3))
    tensor[:, 1, 2] = _edge_value_pairs()
    samples = ResponseSamples(grid=grid, bounce_range=BounceRange.full(), tensor=tensor)
    path = tmp_path / "response.csv"
    write_response_csv(path, samples)
    assert path.read_text() == _reference_response(samples)


def test_impulse_csv_matches_the_row_formatter_bytewise(tmp_path):
    grid = FrequencyGrid(2e9, 3e9, 14)
    y = _edge_value_pairs()
    pulses = [ImpulseResponse(samples=y, grid=grid),
              ImpulseResponse(samples=y[::-1], grid=grid)]
    for k, pulse in enumerate(pulses):  # the second file reuses the delay column
        path = tmp_path / f"impulse{k}.csv"
        write_impulse_csv(path, pulse)
        assert path.read_text() == _reference_impulse(pulse)


def test_spectrum_csv_matches_the_row_formatter_bytewise(tmp_path):
    # The random powers include some whose 10 * np.log10 differs in the last
    # bit from 10 * math.log10 (a few percent of powers with numpy's SIMD
    # log10), so a dB column taken from np.log10 fails here.
    rng = np.random.default_rng(12)
    random = rng.random(1000) * 10.0 ** rng.integers(-30, 0, 1000)
    edges = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.5, 1e16, 1e17, 3e300, 0.0]
    power = np.concatenate([edges, random])
    grid = FrequencyGrid(2e9, 3e9, len(power))
    spectrum = DelayPowerSpectrum(power=power, grid=grid,
                                  kind=SpectrumKind.SPATIAL, count=3)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spectrum)
    assert path.read_text() == _reference_spectrum(spectrum)


def test_spectrum_csv_peak_memory_is_bounded(tmp_path):
    # Values are formatted in blocks of at most 4096, so the traced peak of
    # writing an 8192-row spectrum, formatter tables built included, stays at
    # or below the 2.39 MiB the per-value repr writer took.  Measured: 1.49 MiB
    # with the tables built in the call, 1.36 MiB without.
    from revgraph import _csvtext

    grid = FrequencyGrid(2e9, 3e9, 8192)
    power = np.random.default_rng(3).random(8192) * 1e-9
    spectrum = DelayPowerSpectrum(power=power, grid=grid, kind=SpectrumKind.ENSEMBLE, count=2)
    for table in (_csvtext._powers_of_ten, _csvtext._digit_words, _csvtext._templates):
        table.cache_clear()
    tracemalloc.start()
    try:
        write_spectrum_csv(tmp_path / "spectrum.csv", spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.39 * 2 ** 20


def test_formatted_axis_columns_are_not_pickled(tmp_path):
    grid = FrequencyGrid(2e9, 3e9, 64)
    before = len(pickle.dumps(grid))
    samples = ResponseSamples(grid=grid, bounce_range=BounceRange.full(),
                              tensor=np.ones((64, 1, 1), dtype=complex))
    write_response_csv(tmp_path / "response.csv", samples)
    write_impulse_csv(tmp_path / "impulse.csv",
                      ImpulseResponse(samples=np.ones(64, dtype=complex), grid=grid))
    assert len(pickle.dumps(grid)) == before
    copy = pickle.loads(pickle.dumps(grid))
    assert copy == grid and vars(copy) == {"f_min_hz": 2e9, "f_max_hz": 3e9, "n_samples": 64}


def test_sidecar_records_grid_seeds_and_digest(tmp_path):
    grid = FrequencyGrid(2e9, 3e9, 64)
    path = tmp_path / "out.meta.json"
    config_doc = {"seed": 7, "runs": 3}
    write_sidecar(path, grid=grid, window_label="hann-unit-power",
                  seeds=[7, 8, 9], config_doc=config_doc,
                  extra={"note": "test"})
    doc = json.loads(path.read_text())
    assert doc["grid"] == {"f_min_hz": 2e9, "f_max_hz": 3e9, "n_samples": 64}
    assert doc["seeds"] == [7, 8, 9]
    assert doc["window"] == "hann-unit-power"
    assert doc["config"] == config_doc
    assert doc["config_sha1"] == config_digest(config_doc)
    assert doc["note"] == "test"
    assert config_digest({"runs": 3, "seed": 7}) == doc["config_sha1"]  # key order free
