"""Geometry construction and measurement synthesis."""

import cmath
import math

import numpy as np
import pytest

from pcdoa.array_model import (
    ArrayGeometry,
    MeasurementMatrix,
    SourceScenario,
    SourceSignalMatrix,
    build_geometry,
    phase_offset,
    steering_vector,
    synthesize,
)
from pcdoa.correlation import SourceCrossCovariance, coherence, cross_covariance
from pcdoa.errors import IdentifiabilityError, InvalidParameterError
from pcdoa.estimators import DoaEstimate, PhaseOffsetEstimate, bss_mf, estimate_phase_offsets
from pcdoa.jade import (
    CumulantMatrixSet,
    SeparationResult,
    UnitaryDiagonalizer,
    WhiteningResult,
    cumulant_matrix_set,
    estimate_whitener,
    jade_cost,
    joint_diagonalize,
)


def test_equidistant_offsets_reference_layout():
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    np.testing.assert_allclose(geo.inter_displacements, 50.0 * np.arange(10), rtol=0, atol=1e-12)
    np.testing.assert_allclose(geo.intra_displacements, 0.5 * np.arange(10), rtol=0, atol=0)


def test_equidistant_two_subarrays_spans_aperture():
    geo = build_geometry("equidistant", 2, 2, 0.5, 30.0, 1.0)
    assert geo.inter_displacements.tolist() == [0.0, 30.0]


def test_random_layout_deterministic_under_seed():
    a = build_geometry("uniform_random", 8, 4, 0.5, 200.0, 1.0, seed=123)
    b = build_geometry("uniform_random", 8, 4, 0.5, 200.0, 1.0, seed=123)
    assert np.array_equal(a.inter_displacements, b.inter_displacements)
    assert a.inter_displacements[0] == 0.0
    assert np.all(a.inter_displacements <= 200.0)


def test_random_layout_different_seeds_differ():
    a = build_geometry("uniform_random", 8, 4, 0.5, 200.0, 1.0, seed=1)
    b = build_geometry("uniform_random", 8, 4, 0.5, 200.0, 1.0, seed=2)
    assert not np.array_equal(a.inter_displacements, b.inter_displacements)


def test_equidistant_positions_cover_aperture_plus_subarray():
    d, big_d, m = 0.5, 450.0, 10
    geo = build_geometry("equidistant", 10, m, d, big_d, 1.0)
    assert geo.element_positions.max() == pytest.approx(big_d + (m - 1) * d, abs=1e-12)
    assert geo.aperture == pytest.approx(big_d + (m - 1) * d, abs=1e-12)
    assert geo.resolution == pytest.approx(1.0 / (big_d + (m - 1) * d), rel=1e-12)


def test_build_geometry_validation():
    with pytest.raises(InvalidParameterError):
        build_geometry("hexagonal", 4, 4, 0.5, 100.0, 1.0)
    with pytest.raises(InvalidParameterError):
        build_geometry("equidistant", 1, 4, 0.5, 100.0, 1.0)
    with pytest.raises(InvalidParameterError):
        build_geometry("equidistant", 4, 4, -0.5, 100.0, 1.0)
    with pytest.raises(InvalidParameterError):
        # aperture must exceed the subarray length
        build_geometry("equidistant", 4, 4, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidParameterError, match="seed"):
        build_geometry("uniform_random", 4, 4, 0.5, 100.0, 1.0, seed=-1)


@pytest.mark.parametrize(
    "counts",
    [(10.7, 4.9), (5.7, 10), (10, 4.5), (float("nan"), 4)],
    ids=["10.7-4.9", "5.7-10", "10-4.5", "nan-4"],
)
def test_build_geometry_refuses_fractional_counts(counts):
    # int() used to truncate: (10.7, 4.9) built 10 subarrays of 4 elements.
    with pytest.raises(InvalidParameterError, match="whole numbers"):
        build_geometry("equidistant", *counts, 0.5, 50.0, 1.0)


def test_build_geometry_accepts_whole_float_counts():
    geo = build_geometry("equidistant", 10.0, 4.0, 0.5, 50.0, 1.0)
    assert (geo.subarray_count, geo.elements_per_subarray) == (10, 4)


def test_geometry_requires_zero_references():
    with pytest.raises(InvalidParameterError):
        ArrayGeometry(1.0, [0.1, 0.5], [0.0, 10.0])
    with pytest.raises(InvalidParameterError):
        ArrayGeometry(1.0, [0.0, 0.5], [5.0, 10.0])


def test_steering_vector_broadside_is_ones():
    geo = build_geometry("equidistant", 4, 6, 0.5, 100.0, 1.0)
    np.testing.assert_allclose(steering_vector(geo, 0.0), np.ones(6), atol=0)


def test_steering_vector_half_wavelength_30deg():
    geo = ArrayGeometry(1.0, [0.0, 0.5], [0.0, 10.0])
    np.testing.assert_allclose(steering_vector(geo, 30.0), [1.0, 1j], atol=1e-12)


def test_steering_vector_matches_per_entry_evaluation():
    # Independent oracle: scalar cmath evaluation entry by entry.
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    got = steering_vector(geo, 1.2)
    sin_theta = math.sin(math.radians(1.2))
    for m in range(10):
        want = cmath.exp(1j * 2.0 * math.pi * (m * 0.5) * sin_theta)
        assert got[m] == pytest.approx(want, abs=1e-12)
    np.testing.assert_allclose(np.abs(got), 1.0, atol=1e-12)
    assert got[0] == 1.0 + 0.0j


def test_phase_offset_reference_and_half_turn():
    assert phase_offset(0.0, 37.0, 1.0) == 1.0 + 0.0j
    assert phase_offset(1.0, 30.0, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_phase_offset_large_displacement():
    want = cmath.exp(1j * 2.0 * math.pi * 450.0 * math.sin(math.radians(1.2)))
    assert phase_offset(450.0, 1.2, 1.0) == pytest.approx(want, abs=1e-12)
    assert abs(phase_offset(450.0, 1.2, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_synthesize_single_source_single_subarray_exact():
    geo = ArrayGeometry(1.0, [0.0, 0.5, 1.0], [0.0])
    scen = SourceScenario([12.0], [0.7 - 0.2j], 0.0, seed=5)
    x, s_truth = synthesize(geo, scen)
    want = (0.7 - 0.2j) * steering_vector(geo, 12.0)
    np.testing.assert_allclose(x.data[:, 0], want, atol=1e-15)
    assert s_truth.data.shape == (1, 1)
    assert s_truth.data[0, 0] == 0.7 - 0.2j


def test_synthesize_noise_free_rank_at_most_source_count():
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    scen = SourceScenario([1.2, 14.2], [1.0, 1.0], 0.0)
    x, _ = synthesize(geo, scen)
    assert np.linalg.matrix_rank(x.data, tol=1e-9) <= 2


def test_synthesize_reference_two_source_scenario_shape():
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    amps = [np.exp(1j * np.pi / 5), 3.0 * np.exp(1j * 3 * np.pi / 5)]
    scen = SourceScenario([1.2, 14.2], amps, 10 ** (-2.0), seed=42)
    x, s_truth = synthesize(geo, scen)
    assert x.data.shape == (10, 10)
    assert s_truth.data.shape == (2, 10)
    np.testing.assert_allclose(np.abs(s_truth.data[0]), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(s_truth.data[1]), 3.0, atol=1e-12)


def test_synthesize_noise_free_reconstruction():
    geo = build_geometry("uniform_random", 6, 8, 0.5, 80.0, 2.0, seed=3)
    scen = SourceScenario([5.0, 9.0, 20.0], [1.0, 1j, 2.0], 0.0)
    x, s_truth = synthesize(geo, scen)
    b = np.column_stack([steering_vector(geo, t) for t in (5.0, 9.0, 20.0)])
    np.testing.assert_allclose(x.data, b @ s_truth.data, atol=1e-12)


def test_synthesize_bit_for_bit_deterministic():
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    scen = SourceScenario([1.2, 1.4], [1.0, 1.0], 0.01, seed=77)
    x1, _ = synthesize(geo, scen)
    x2, _ = synthesize(geo, scen)
    assert np.array_equal(x1.data, x2.data)


def test_synthesize_rejects_too_many_sources():
    geo = ArrayGeometry(1.0, [0.0, 0.5], [0.0, 10.0, 20.0])
    scen = SourceScenario([1.0, 2.0], [1.0, 1.0], 0.0)
    with pytest.raises(IdentifiabilityError):
        synthesize(geo, scen)


def test_zero_amplitude_synthesizes_noise_only():
    # A config refuses a zero amplitude; a bare scenario keeps it, since
    # noise-only synthesis is legitimate.
    geo = build_geometry("equidistant", 4, 3, 0.5, 12.0, 1.0)
    x, _ = synthesize(geo, SourceScenario([2.0], [0.0], 0.5, seed=3))
    noise, _ = synthesize(geo, SourceScenario([9.0], [0.0], 0.5, seed=3))
    np.testing.assert_array_equal(x.data, noise.data)
    assert np.abs(x.data).max() > 0


def test_scenario_warns_on_mixed_sides():
    with pytest.warns(UserWarning):
        SourceScenario([-3.0, 4.0], [1.0, 1.0], 0.0)


def test_mixed_sides_warning_names_the_caller():
    # It used to name the dataclass-generated __init__ ("<string>").
    with pytest.warns(UserWarning, match="both sides of broadside") as record:
        SourceScenario([-3.0, 4.0], [1.0, 1.0], 0.0)
    assert record[0].filename == __file__


def test_scenario_rejects_out_of_range_direction():
    with pytest.raises(InvalidParameterError):
        SourceScenario([90.0], [1.0], 0.0)
    with pytest.raises(InvalidParameterError):
        SourceScenario([0.0], [1.0], -0.1)


def test_noise_variance_scaling():
    # sigma^2 per complex entry, sigma^2/2 per real component.
    geo = build_geometry("equidistant", 64, 4, 0.5, 400.0, 1.0)
    scen = SourceScenario([10.0], [0.0], 4.0, seed=11)
    x, _ = synthesize(geo, scen)
    n = x.data.ravel()
    assert np.mean(np.abs(n) ** 2) == pytest.approx(4.0, rel=0.15)
    assert np.mean(n.real**2) == pytest.approx(2.0, rel=0.2)


@pytest.mark.parametrize(
    "build,field,values",
    [
        (lambda a: ArrayGeometry(1.0, a, [0.0, 5.0]), "intra_displacements", [0.0, 1.5]),
        (lambda a: ArrayGeometry(1.0, [0.0, 0.5], a), "inter_displacements", [0.0, 1.5]),
        (lambda a: SourceScenario(a, [1.0, 2.0], 0.1), "directions_deg", [0.0, 1.5]),
        (lambda a: SourceScenario([1.0, 2.0], a, 0.1), "amplitudes", [0j, 1.5 + 0j]),
        (MeasurementMatrix, "data", [[0j, 1.5 + 0j]]),
        (SourceSignalMatrix, "data", [[0j], [1.5 + 0j]]),
        (lambda a: PhaseOffsetEstimate(a, [[False, False]]), "offsets", [[0j, 1.5 + 0j]]),
        (lambda a: DoaEstimate(a, None, None, None, 0, 1.0), "directions_deg", [0.0, 1.5]),
        (lambda a: WhiteningResult(a, 0.0, [[1j]]), "whitener", [[0j, 1.5 + 0j]]),
        (lambda a: CumulantMatrixSet((), (), (), a), "packed", [[0j, 1.5 + 0j]]),
        (lambda a: UnitaryDiagonalizer(a, 0.0, 1), "rotation", [[0j, 1.5 + 0j]]),
        (lambda a: SeparationResult(None, None, None, a), "recovered", [[0j, 1.5 + 0j]]),
        (lambda a: SourceCrossCovariance(a, [[1j]]), "matrix", [[0j, 1.5 + 0j]]),
    ],
    ids=[
        "eta", "xi", "directions", "amplitudes", "measurements", "source-rows",
        "phase-offsets", "doa-estimate", "whitening", "cumulants", "diagonalizer",
        "separation", "cross-covariance",
    ],
)
def test_records_copy_the_callers_array(build, field, values):
    # Each record freezes its own copy of an array already of its dtype;
    # the caller's array stays writable and unchanged by the record.
    mine = np.array(values)
    record = build(mine)
    mine.ravel()[1] = 2.5
    assert mine.flags.writeable
    stored = getattr(record, field)
    assert not stored.flags.writeable
    assert stored.ravel()[1] == 1.5


BAD_MATRICES = {
    "ragged": [[1.0, 2.0, 3.0], [4.0, 5.0]],
    "not-numbers": [["a", "b", "c"], ["d", "e", "f"]],
    "1-D": [1.0, 2.0, 3.0],
    "empty": np.zeros((0, 3)),
    # Square and 3 x 3, so that only its entries are wrong for every stage.
    "non-finite": [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.inf]],
}


def _bss_mf(matrix):
    geometry = build_geometry("equidistant", 3, 3, 0.5, 10.0, 1.0)
    return bss_mf(matrix, geometry, np.ones((1, 3)), (0.0, 10.0, 1.0))


@pytest.mark.parametrize("bad", list(BAD_MATRICES.values()), ids=list(BAD_MATRICES))
@pytest.mark.parametrize(
    "stage",
    [
        lambda m: estimate_whitener(m, 1),
        cumulant_matrix_set,
        lambda m: joint_diagonalize([m, m]),
        jade_cost,
        estimate_phase_offsets,
        _bss_mf,
        cross_covariance,
        coherence,
    ],
    ids=[
        "estimate_whitener", "cumulant_matrix_set", "joint_diagonalize", "jade_cost",
        "estimate_phase_offsets", "bss_mf", "cross_covariance", "coherence",
    ],
)
def test_matrix_stages_refuse_bad_input(stage, bad):
    # estimate_whitener, joint_diagonalize and cross_covariance let numpy's
    # own ValueError escape for some of these; a non-finite matrix used to
    # reach the linear algebra and end as LinAlgError or a NaN result.
    with pytest.raises(InvalidParameterError):
        stage(bad)
