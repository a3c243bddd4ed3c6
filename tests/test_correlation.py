"""Cross-covariance, coherence, and closed-form correlation statistics."""

import cmath
import math

import numpy as np
import pytest

from pcdoa.array_model import SourceScenario, build_geometry, synthesize
from pcdoa.correlation import (
    coherence,
    cross_covariance,
    expected_correlation,
    pair_correlation,
    pair_statistics,
)
from pcdoa.errors import DegenerateInputError, InvalidParameterError

# Unit-amplitude |R_{2,1}| for the equidistant K=10, D=450*wavelength layout
# at directions (1.2, 14.2) degrees, frozen from the brute-force sum below.
EQUIDISTANT_R21_WIDE = 0.0856631123887962


def _brute_force_cross_covariance(s):
    n_rows, n_cols = s.shape
    r = np.zeros((n_rows, n_rows), dtype=complex)
    r_conj = np.zeros((n_rows, n_rows), dtype=complex)
    for i in range(n_rows):
        for j in range(n_rows):
            acc = 0.0 + 0.0j
            acc_conj = 0.0 + 0.0j
            for k in range(n_cols):
                acc += s[i, k] * np.conj(s[j, k])
                acc_conj += s[j, k] * s[i, k]
            r[i, j] = acc / n_cols
            r_conj[i, j] = acc_conj / n_cols
    return r, r_conj


def test_cross_covariance_matches_triple_loop():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_rows = rng.integers(1, 5)
        n_cols = rng.integers(1, 9)
        s = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
        got = cross_covariance(s)
        want_r, want_conj = _brute_force_cross_covariance(s)
        np.testing.assert_allclose(got.matrix, want_r, atol=1e-12)
        np.testing.assert_allclose(got.conjugate_matrix, want_conj, atol=1e-12)
        # structure: Hermitian / symmetric / positive semidefinite
        np.testing.assert_allclose(got.matrix, got.matrix.conj().T, atol=1e-12)
        np.testing.assert_allclose(got.conjugate_matrix, got.conjugate_matrix.T, atol=1e-12)
        assert np.linalg.eigvalsh(got.matrix).min() > -1e-12


def test_cross_covariance_unit_amplitude_diagonal():
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    _, s = synthesize(geo, SourceScenario([1.2, 14.2], [1.0, 1.0], 0.0))
    r = cross_covariance(s)
    np.testing.assert_allclose(np.diag(r.matrix), [1.0, 1.0], atol=1e-12)


def test_cross_covariance_single_column_fully_coherent():
    s = np.array([[cmath.exp(0.3j)], [cmath.exp(-1.1j)]])
    r = cross_covariance(s)
    assert abs(r.matrix[0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_cross_covariance_equidistant_reference_pair():
    # Independent oracle: scalar brute-force sum over the known offsets.
    lam = 1.0
    xi = [50.0 * k for k in range(10)]
    ds = math.sin(math.radians(1.2)) - math.sin(math.radians(14.2))
    want = sum(cmath.exp(1j * 2 * math.pi / lam * x * ds) for x in xi) / 10
    assert abs(want) == pytest.approx(EQUIDISTANT_R21_WIDE, abs=1e-12)

    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, lam)
    _, s = synthesize(geo, SourceScenario([1.2, 14.2], [1.0, 1.0], 0.0))
    got = cross_covariance(s)
    assert got.matrix[0, 1] == pytest.approx(want, abs=1e-12)
    assert abs(got.matrix[1, 0]) == pytest.approx(EQUIDISTANT_R21_WIDE, abs=1e-12)


def test_pair_correlation_agrees_with_cross_covariance():
    geo = build_geometry("uniform_random", 12, 4, 0.5, 300.0, 1.0, seed=9)
    _, s = synthesize(geo, SourceScenario([2.0, 5.0], [1.0, 1.0], 0.0))
    want = cross_covariance(s).matrix[0, 1]
    got = pair_correlation(geo.inter_displacements, 2.0, 5.0, 1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_coherence_orthogonal_and_identical_rows():
    dft = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(8)) / 8)
    assert coherence(dft) == pytest.approx(0.0, abs=1e-12)
    same = np.vstack([dft[0], dft[0]])
    assert coherence(same) == pytest.approx(1.0, abs=1e-12)


def test_coherence_matches_normalized_cross_covariance():
    geo = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    amps = [np.exp(1j * np.pi / 5), 3.0 * np.exp(1j * 3 * np.pi / 5)]
    _, s = synthesize(geo, SourceScenario([1.2, 14.2], amps, 0.0))
    r = cross_covariance(s).matrix
    want = abs(r[0, 1]) / (abs(amps[0]) * abs(amps[1]))
    assert coherence(s) == pytest.approx(want, abs=1e-12)


def test_coherence_rejects_zero_row():
    with pytest.raises(DegenerateInputError):
        coherence(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidParameterError):
        coherence(np.array([[1.0, 1.0]]))


def test_expected_correlation_limits_and_reference_points():
    mag, power = expected_correlation(0.0, 10)
    assert (mag, power) == (1.0, 1.0)
    mag, power = expected_correlation(np.pi, 10)
    assert mag == pytest.approx(0.0, abs=1e-12)
    assert power == pytest.approx(0.1, abs=1e-12)
    mag, _ = expected_correlation(np.pi / 2, 10)
    assert mag == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_expected_correlation_even_and_bounded():
    rho = np.linspace(-40.0, 40.0, 801)
    mag, power = expected_correlation(rho, 7)
    mag_neg, power_neg = expected_correlation(-rho, 7)
    np.testing.assert_allclose(mag, mag_neg, atol=1e-12)
    np.testing.assert_allclose(power, power_neg, atol=1e-12)
    assert np.all(mag <= 1.0)
    assert np.all(power >= 1.0 / 7 - 1e-15)
    assert np.all(power >= mag**2 - 1e-12)


def test_expected_correlation_matches_uniform_draw_moments():
    # Independent oracle: i.i.d. uniform offsets on [0, D]; rho fixes the
    # product D * separation, so draws reduce to unit-interval uniforms.
    rng = np.random.default_rng(2024)
    k_count = 10
    for rho in (0.7, np.pi / 2, 4.0):
        u = rng.uniform(0.0, 1.0, size=(100_000, k_count))
        samples = np.mean(np.exp(2j * rho * u), axis=1)
        mag, power = expected_correlation(rho, k_count)
        emp_mean = abs(np.mean(samples))
        emp_power = np.mean(np.abs(samples) ** 2)
        se_power = np.std(np.abs(samples) ** 2) / np.sqrt(samples.size)
        assert emp_mean == pytest.approx(mag, abs=3.5e-3)
        assert abs(emp_power - power) < 3 * se_power + 1e-6


def test_full_array_correlation_zero_separation():
    stats = pair_statistics(5.0, 5.0, 0.5, 450.0, 10, 10, 1.0)
    assert stats.expected_magnitude == stats.expected_power == stats.dirichlet_factor == 1.0


def test_full_array_dirichlet_null():
    # First null of the subarray factor: separation of one beamwidth
    # wavelength / (Mbar * d) in sin-space.
    m_count, d = 10, 0.5
    s1 = 0.0
    s2 = 1.0 / (m_count * d)
    t1 = math.degrees(math.asin(s1))
    t2 = math.degrees(math.asin(s2))
    stats = pair_statistics(t2, t1, d, 450.0, m_count, 10, 1.0)
    assert stats.dirichlet_factor == pytest.approx(0.0, abs=1e-12)
    assert stats.expected_magnitude == pytest.approx(0.0, abs=1e-12)


def test_full_array_single_element_degenerates():
    t1, t2 = 1.2, 3.7
    stats = pair_statistics(t1, t2, 0.5, 450.0, 1, 10, 1.0)
    want_mag, want_power = expected_correlation(stats.rho, 10)
    assert stats.dirichlet_factor == 1.0
    assert stats.expected_magnitude == pytest.approx(want_mag, abs=1e-12)
    assert stats.expected_power == pytest.approx(want_power, abs=1e-12)


def test_full_array_jensen_direction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t1, t2 = np.sort(rng.uniform(-60.0, 60.0, 2))
        stats = pair_statistics(t1, t2, 0.5, 200.0, 8, 6, 1.0)
        assert stats.expected_power >= stats.expected_magnitude**2 - 1e-12


def test_equidistant_grating_lobe_returns_at_k_minus_one():
    # With K equidistant offsets spanning D the correlation returns to full
    # height at separation (K-1) * wavelength / D in sin-space, one cell
    # short of K; intermediate multiples stay strictly below 1.
    lam, big_d, k_count = 1.0, 450.0, 10
    xi = np.arange(k_count) * big_d / (k_count - 1)
    delta = lam / big_d

    def mag_at(mult):
        t1 = 1.2
        s2 = math.sin(math.radians(t1)) + mult * delta
        t2 = math.degrees(math.asin(s2))
        return abs(pair_correlation(xi, t2, t1, lam))

    assert mag_at(k_count - 1) == pytest.approx(1.0, abs=1e-9)
    assert mag_at(k_count) < 0.99
    for mult in range(1, k_count - 1):
        assert mag_at(mult) < 0.5
