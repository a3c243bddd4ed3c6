"""Whitening, cumulants, joint diagonalization, and the separation pipeline."""

import numpy as np
import pytest

from pcdoa import load_packaged_config
from pcdoa.array_model import MeasurementMatrix
from pcdoa.correlation import cross_covariance
from pcdoa.errors import InvalidParameterError, RankDeficiencyError
from pcdoa.harness import trial_snapshot
from pcdoa.jade import (
    cumulant_matrix_set,
    estimate_whitener,
    jade_cost,
    jade_separate,
    joint_diagonalize,
    sample_cumulant,
)


def _dft_rows(freqs, n_samples, rng=None):
    """Unit-modulus rows exp(2 pi j f t / T); exactly orthogonal, and with
    pairwise-distinct differences and no pair summing to 0 mod T their
    fourth-order cross-cumulants vanish identically."""
    rows = np.exp(2j * np.pi * np.outer(freqs, np.arange(n_samples)) / n_samples)
    if rng is not None:
        rows = rows * np.exp(2j * np.pi * rng.uniform(size=(len(freqs), 1)))
    return rows


def _aligned_row_correlations(recovered, truth):
    """Best per-row correlation moduli after greedy permutation alignment."""
    t = truth.shape[1]
    corr = np.abs(recovered @ truth.conj().T) / t
    out = []
    free = list(range(truth.shape[0]))
    for i in range(recovered.shape[0]):
        j = max(free, key=lambda jj: corr[i, jj])
        out.append(corr[i, j])
        free.remove(j)
    return np.array(out)


# ---------------------------------------------------------------- whitening


def test_whitener_single_signal_row():
    t = 32
    y = np.vstack([np.exp(0.3j) * np.ones(t), np.zeros(t)])
    res = estimate_whitener(y, 1)
    assert res.noise_estimate == pytest.approx(0.0, abs=1e-15)
    zz = res.whitened @ res.whitened.conj().T / t
    assert zz[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_whitener_identity_on_orthonormal_factors():
    rng = np.random.default_rng(0)
    t, n_src, n_rows = 64, 3, 10
    h = _dft_rows([1, 3, 7], t, rng)
    c = rng.standard_normal((n_rows, n_src)) + 1j * rng.standard_normal((n_rows, n_src))
    res = estimate_whitener(c @ h, n_src)
    zz = res.whitened @ res.whitened.conj().T / t
    assert np.linalg.norm(zz - np.eye(n_src)) < 1e-10
    assert res.whitener.shape == (n_src, n_rows)


def test_whitener_noise_floor_estimate():
    rng = np.random.default_rng(1)
    t, n_rows = 10_000, 10
    h = _dft_rows([1, 3], t, rng)
    c = rng.standard_normal((n_rows, 2)) + 1j * rng.standard_normal((n_rows, 2))
    noise = np.sqrt(0.01 / 2) * (
        rng.standard_normal((n_rows, t)) + 1j * rng.standard_normal((n_rows, t))
    )
    res = estimate_whitener(c @ h + noise, 2)
    assert res.noise_estimate == pytest.approx(0.01, rel=0.2)


def test_whitener_takes_top_eigenvalues_in_descending_order():
    rng = np.random.default_rng(16)
    t = 40
    y = rng.standard_normal((5, t)) + 1j * rng.standard_normal((5, t))
    res = estimate_whitener(y, 3)
    values = np.linalg.eigvalsh(y @ y.conj().T / t)[::-1]
    assert res.noise_estimate == pytest.approx(np.mean(values[3:]), rel=1e-12)
    # row l of W is the l-th eigenvector scaled by (value_l - noise)^(-1/2)
    gaps = 1.0 / np.sum(np.abs(res.whitener) ** 2, axis=1)
    np.testing.assert_allclose(gaps, values[:3] - res.noise_estimate, rtol=1e-10)


def test_whitener_rank_deficiency_names_component():
    # Identity data gives exactly tied eigenvalues, so the debiased second
    # eigenvalue is not positive.
    with pytest.raises(RankDeficiencyError) as err:
        estimate_whitener(np.eye(3), 2)
    assert err.value.component == 1


def test_whitener_parameter_validation():
    y = np.ones((3, 5), dtype=complex)
    with pytest.raises(InvalidParameterError):
        estimate_whitener(y, 3)
    with pytest.raises(InvalidParameterError):
        estimate_whitener(y, 0)
    with pytest.raises(InvalidParameterError):
        estimate_whitener(np.ones((3, 1)), 2)


# ---------------------------------------------------------------- cumulants


def test_sample_cumulant_all_ones():
    ones = np.ones(7)
    assert sample_cumulant(ones, ones, ones, ones) == pytest.approx(-2.0, abs=1e-14)


def test_sample_cumulant_zero_argument():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert sample_cumulant(v, v, v, np.zeros(9)) == 0


def test_sample_cumulant_gaussian_vanishes():
    rng = np.random.default_rng(3)
    t = 100_000
    g = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2)
    assert abs(sample_cumulant(g, g.conj(), g, g.conj())) < 0.05


def test_sample_cumulant_linear_in_each_argument():
    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((4, 11)) + 1j * rng.standard_normal((4, 11))
    c = 0.7 - 1.9j
    base = sample_cumulant(*vecs)
    scaled = sample_cumulant(c * vecs[0], vecs[1], vecs[2], vecs[3])
    assert scaled == pytest.approx(c * base, rel=1e-12)


def test_sample_cumulant_length_mismatch():
    with pytest.raises(InvalidParameterError):
        sample_cumulant(np.ones(3), np.ones(3), np.ones(3), np.ones(4))


def test_cumulant_matrix_set_single_row():
    rng = np.random.default_rng(5)
    z = np.exp(2j * np.pi * rng.uniform(size=16))[None, :]
    cset = cumulant_matrix_set(z)
    assert len(cset.matrices) == 1
    want = abs(sample_cumulant(z[0], z[0].conj(), z[0], z[0].conj()))
    assert abs(cset.matrices[0][0, 0]) == pytest.approx(want, rel=1e-12)


def test_cumulant_matrix_index_packing():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((2, 12)) + 1j * rng.standard_normal((2, 12))
    cset = cumulant_matrix_set(z)
    # (a, b, c, d) = (2, 1, 1, 2) packs to (p, q) = (2, 2), 0-based (1, 1)
    want = sample_cumulant(z[1], z[0].conj(), z[0], z[1].conj())
    assert cset.packed[1, 1] == pytest.approx(want, rel=1e-12)
    assert cset.packed.shape == (4, 4)
    # the packed matrix is Hermitian
    np.testing.assert_allclose(cset.packed, cset.packed.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cumulant_matrix_matches_reference_at_every_index(n):
    rng = np.random.default_rng(17)
    z = rng.standard_normal((n, 12)) + 1j * rng.standard_normal((n, 12))
    packed = cumulant_matrix_set(z).packed
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    want = sample_cumulant(z[a], z[b].conj(), z[c], z[d].conj())
                    assert packed[a + b * n, d + c * n] == pytest.approx(want, rel=1e-12)


def test_cumulant_spectrum_sorted_by_descending_magnitude():
    rng = np.random.default_rng(18)
    n = 3
    z = rng.standard_normal((n, 20)) + 1j * rng.standard_normal((n, 20))
    cset = cumulant_matrix_set(z)
    spectrum = np.array(cset.spectrum)
    assert np.all(np.diff(np.abs(spectrum)) <= 0)
    np.testing.assert_allclose(np.sort(spectrum), np.linalg.eigvalsh(cset.packed), atol=1e-12)
    np.testing.assert_allclose(cset.eigenvalues, np.abs(spectrum[:n]), rtol=1e-12)
    # each matrix devectorizes (column-major) the eigenvector of its scale
    for value, matrix in zip(spectrum, cset.matrices):
        vec = matrix.ravel(order="F")
        np.testing.assert_allclose(cset.packed @ vec, value * vec, atol=1e-10)
        assert np.linalg.norm(vec) == pytest.approx(abs(value), rel=1e-12)


def test_cumulant_matrices_near_diagonal_for_independent_rows():
    rng = np.random.default_rng(7)
    z = np.exp(2j * np.pi * rng.uniform(size=(2, 4096)))
    cset = cumulant_matrix_set(z)
    for matrix in cset.matrices:
        total = np.sum(np.abs(matrix) ** 2)
        off = total - np.sum(np.abs(np.diag(matrix)) ** 2)
        assert off < 0.05 * total


def test_cumulant_matrix_set_shape_guard():
    with pytest.raises(InvalidParameterError):
        cumulant_matrix_set(np.ones((3, 3), dtype=complex))


# ------------------------------------------------- joint diagonalization


def test_joint_diagonalize_already_diagonal():
    res = joint_diagonalize([np.diag([2.0, 1.0]).astype(complex)])
    np.testing.assert_allclose(res.rotation, np.eye(2), atol=1e-12)
    assert res.off_diagonal_energy == pytest.approx(0.0, abs=1e-20)


def test_joint_diagonalize_exchange_matrix():
    res = joint_diagonalize([np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)])
    v = res.rotation
    transformed = v.conj().T @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ v
    np.testing.assert_allclose(np.abs(np.diag(transformed)), [1.0, 1.0], atol=1e-10)
    assert abs(transformed[0, 1]) < 1e-10
    np.testing.assert_allclose(np.abs(v), np.full((2, 2), np.sqrt(0.5)), atol=1e-10)


def test_joint_diagonalize_common_eigenbasis():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    basis, _ = np.linalg.qr(x)
    mats = [basis @ np.diag(rng.standard_normal(3)) @ basis.conj().T for _ in range(4)]
    res = joint_diagonalize(mats)
    assert res.off_diagonal_energy < 1e-8
    # V matches the basis up to column permutation and phase
    overlap = np.abs(res.rotation.conj().T @ basis)
    assert np.allclose(np.sort(overlap.ravel())[-3:], 1.0, atol=1e-8)
    assert np.linalg.norm(res.rotation.conj().T @ res.rotation - np.eye(3)) < 1e-10


def test_joint_diagonalize_unitarity_and_frobenius_conservation():
    rng = np.random.default_rng(9)
    mats = [
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)
    ]
    mats = [(m + m.conj().T) / 2 for m in mats]
    res = joint_diagonalize(mats, max_sweeps=100)
    v = res.rotation
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-10
    for m in mats:
        before = np.linalg.norm(m)
        after = np.linalg.norm(v.conj().T @ m @ v)
        assert after == pytest.approx(before, rel=1e-9)


def test_joint_diagonalize_off_energy_never_increases_with_sweeps():
    rng = np.random.default_rng(10)
    mats = [
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)
    ]
    energies = [
        joint_diagonalize(mats, max_sweeps=k).off_diagonal_energy for k in range(1, 6)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def _reference_joint_diagonalize(matrices, max_sweeps=100):
    """The rotation loop as first written: one ``np.stack`` of the plane
    statistics per (m, n) plane; (rotation, off-diagonal energy, sweeps)."""
    stack = np.array([np.asarray(m, dtype=complex) for m in matrices])
    size = stack.shape[1]
    rotation = np.eye(size, dtype=complex)
    sweeps_done = 0
    for _ in range(max_sweeps):
        rotated = False
        for m in range(size - 1):
            for n in range(m + 1, size):
                rows = np.stack(
                    [
                        stack[:, m, m] - stack[:, n, n],
                        stack[:, m, n] + stack[:, n, m],
                        1j * (stack[:, n, m] - stack[:, m, n]),
                    ],
                    axis=1,
                )
                target = np.real(rows.conj().T @ rows)
                direction = np.linalg.eigh(target)[1][:, -1]
                if direction[0] < 0:
                    direction = -direction
                alpha = np.sqrt((1.0 + direction[0]) / 2.0)
                beta = (direction[1] - 1j * direction[2]) / (2.0 * alpha)
                if abs(beta) <= 1e-8:
                    continue
                rotated = True
                givens = np.eye(size, dtype=complex)
                givens[m, m] = alpha
                givens[n, n] = alpha
                givens[n, m] = beta
                givens[m, n] = -np.conj(beta)
                stack = givens.conj().T @ stack @ givens
                rotation = rotation @ givens
        sweeps_done += 1
        if not rotated:
            break
    energy = 0.0
    for matrix in stack:
        energy += float(np.sum(np.abs(matrix) ** 2) - np.sum(np.abs(np.diag(matrix)) ** 2))
    return rotation, energy, sweeps_done


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_joint_diagonalize_matches_reference_loop_bit_for_bit(size, seed):
    rng = np.random.default_rng(100 * size + seed)
    mats = [
        rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        for _ in range(size)
    ]
    mats = [(m + m.conj().T) / 2 for m in mats]
    rotation, energy, sweeps = _reference_joint_diagonalize(mats)
    got = joint_diagonalize(mats)
    assert got.rotation.tobytes() == rotation.tobytes()
    assert got.off_diagonal_energy == energy
    assert sweeps > 1
    # One plane: the reference's last sweep rotates nothing and is skipped.
    assert got.sweeps == (sweeps - 1 if size == 2 else sweeps)


def test_joint_diagonalize_one_sweep_on_packaged_two_source_sets():
    # On seeded two-source trials (fig6a at 0 and 40 dB, fig4 at separations
    # 0.25 and 6.0) the reference loop's second sweep finds no rotation, so
    # stopping after the first one keeps the rotation's bytes.
    for name, sweep_indices in (("fig6a", (0, 8)), ("fig4", (0, 23))):
        config = load_packaged_config(name)
        for sweep_index in sweep_indices:
            directions, noise_var = config.scenario(config.sweep_values[sweep_index])
            for trial in range(10):
                snapshot = trial_snapshot(
                    config, config.array_geometry, directions, noise_var, sweep_index, trial
                )
                whitened = estimate_whitener(snapshot.data, 2).whitened
                matrices = cumulant_matrix_set(whitened).matrices
                rotation, energy, sweeps = _reference_joint_diagonalize(matrices)
                first, _, _ = _reference_joint_diagonalize(matrices, max_sweeps=1)
                assert sweeps == 2
                assert first.tobytes() == rotation.tobytes()
                got = joint_diagonalize(matrices)
                assert got.sweeps == 1
                assert got.rotation.tobytes() == rotation.tobytes()
                assert got.off_diagonal_energy == energy


def test_joint_diagonalize_shape_guard():
    with pytest.raises(InvalidParameterError):
        joint_diagonalize([np.ones((2, 3))])
    with pytest.raises(InvalidParameterError):
        joint_diagonalize([])


# ------------------------------------------------------------ separation


def test_jade_single_source_noise_free():
    rng = np.random.default_rng(11)
    t = 40
    truth = np.exp(2j * np.pi * rng.uniform(size=t))[None, :]
    mixing = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
    res = jade_separate(mixing @ truth, 1)
    corr = abs(res.recovered[0] @ truth[0].conj()) / t
    assert corr >= 0.999999


def test_jade_three_orthogonal_sources():
    rng = np.random.default_rng(12)
    t = 64
    truth = _dft_rows([1, 3, 7], t, rng)
    mixing = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    res = jade_separate(mixing @ truth, 3)
    assert np.all(_aligned_row_correlations(res.recovered, truth) >= 0.999)
    v = res.diagonalizer.rotation
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-10


def test_jade_deterministic():
    rng = np.random.default_rng(13)
    y = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
    a = jade_separate(y, 2)
    b = jade_separate(y, 2)
    assert np.array_equal(a.recovered, b.recovered)
    assert np.array_equal(a.diagonalizer.rotation, b.diagonalizer.rotation)


def test_jade_takes_a_measurement_matrix():
    # `bss_mf` and `bss_nls` unwrap a MeasurementMatrix; the separation
    # used to raise TypeError on one.
    rng = np.random.default_rng(14)
    y = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
    wrapped = jade_separate(MeasurementMatrix(y), 2)
    assert np.array_equal(wrapped.recovered, jade_separate(y, 2).recovered)


# ------------------------------------------------------------------ cost


def test_jade_cost_single_row_diagnostic_empty():
    assert jade_cost(np.ones((1, 5), dtype=complex)) == 0.0


def test_jade_cost_orthogonal_rows_diagnostic_zero():
    rows = _dft_rows([1, 3], 64)
    assert jade_cost(rows) < 1e-24
    rows3 = _dft_rows([1, 3, 7], 64)
    assert jade_cost(rows3) < 1e-24


def test_jade_cost_diagonal_triple_closed_form():
    rng = np.random.default_rng(14)
    z = np.exp(2j * np.pi * rng.uniform(size=10))[None, :]
    conj_corr = cross_covariance(z).conjugate_matrix[0, 0]
    want = (1.0 + abs(conj_corr) ** 2) ** 2
    got = jade_cost(z, include_diagonal_triples=True)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jade_cost_matches_reference_triple_sum(n):
    rng = np.random.default_rng(19)
    s = rng.standard_normal((n, 9)) + 1j * rng.standard_normal((n, 9))
    for include in (False, True):
        want = sum(
            abs(sample_cumulant(s[r], s[r].conj(), s[p], s[q].conj())) ** 2
            for r in range(n)
            for p in range(n)
            for q in range(n)
            if include or not r == p == q
        )
        got = jade_cost(s, include_diagonal_triples=include)
        assert got == pytest.approx(want, rel=1e-12)


def test_jade_cost_matches_covariance_closed_form():
    # For constant-modulus rows every triple reduces to a bilinear form in
    # the two cross-covariances; check the full cumulant evaluation
    # against it for both triple conventions.
    rng = np.random.default_rng(15)
    for _ in range(10):
        n_rows = rng.integers(2, 4)
        n_cols = rng.integers(n_rows + 1, 9)
        mods = rng.uniform(0.5, 2.0, size=n_rows)
        s = mods[:, None] * np.exp(2j * np.pi * rng.uniform(size=(n_rows, n_cols)))
        cc = cross_covariance(s)
        r, rt = cc.matrix, cc.conjugate_matrix
        for include in (False, True):
            closed = 0.0
            for i in range(n_rows):
                for p in range(n_rows):
                    for q in range(n_rows):
                        if not include and i == p == q:
                            continue
                        closed += abs(rt[i, p] * np.conj(rt[i, q]) + r[i, q] * r[p, i]) ** 2
            got = jade_cost(s, include_diagonal_triples=include)
            assert got == pytest.approx(closed, abs=1e-10)
