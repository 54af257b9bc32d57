"""The package's public names are its modules' ``__all__`` lists.

``revgraph.__all__`` is the ordered union of the lists of ``graph``,
``transfer``, ``scenario`` and ``synthesis``, and each name is the very
object its module defines.  The names the package has exported so far are
pinned, so none leaves it unnoticed.
"""

import revgraph
from revgraph import graph, scenario, synthesis, transfer

MODULES = (graph, transfer, scenario, synthesis)

# Every name ``revgraph`` exported before it re-exported its modules' lists.
EXPORTED = """
    AdjacencyBlocks BlockSamples BounceRange Box CONDITION_WARN_THRESHOLD ConstantGain
    DelayPowerSpectrum Edge EdgeClass EmptyEdgeClass ExplosionGuard FrequencyGrid
    FrequencyLawGain ImpulseResponse InsufficientBins InvalidWalk LengthMismatch
    MissingPositions NonpositivePower NumericalFailure PrecomputedKernel PropagationGraph
    RejectionLimitExceeded ResponseSamples SPECTRAL_RADIUS_LIMIT ScenarioConfig
    ScenarioRealization SingularSystem SpectralRadiusExceeded SpectralRadiusExceededAt
    SpectrumKind StructuralViolation TailSlopeFit TransferSample VertexId VertexKind
    WindowSpectrum adjacency_blocks block_samples draw_edges draw_positions edge_gain
    ensemble_spectra ensemble_spectrum enumerate_paths fit_tail_slope gain_from_slope
    generate_realization graph_from_json graph_to_json hann_window impulse_response
    k_bounce_matrix make_kernel partial_transfer_matrix path_transfer realization_from_json
    realization_to_json relocate_receiver reverse_graph rx sample_transfer
    sample_transfer_slices scatterer scatterer_signal spatial_spectrum spectral_radius
    transfer_matrix truncation_error tx verify_contraction walk_sum write_csv_files
    write_impulse_csv write_response_csv write_spectrum_csv
""".split()


def test_package_names_are_the_ordered_union_of_the_module_lists():
    union = []
    for module in MODULES:
        union += [name for name in module.__all__ if name not in union]
    assert revgraph.__all__ == union
    assert len(set(revgraph.__all__)) == len(revgraph.__all__)


def test_every_module_name_is_the_defining_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(revgraph, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_exported_name_leaves_the_package():
    assert len(EXPORTED) == 76
    assert set(EXPORTED) <= set(revgraph.__all__)
    for name in ("EdgeGainSpec", "bounce_slices", "write_sidecar"):
        assert name in revgraph.__all__
