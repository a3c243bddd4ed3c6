import numpy as np
import pytest

from pcdoa import shared_displacement
from pcdoa.array_model import (
    SourceScenario,
    _offset_matrix,
    _steering_matrix,
    build_geometry,
    synthesize,
)
from pcdoa.errors import DomainError, InvalidParameterError
from pcdoa.estimators import (
    DoaEstimate,
    _FixedOffsetModel,
    _grid_steering,
    _pack,
    _source_columns,
    angle_grid,
    bss_mf,
    bss_nls,
    estimate_phase_offsets,
    match_sources,
    nls_cost,
    nls_cost_gradients,
)
from pcdoa.jade import jade_separate
from pcdoa.shared_displacement import _Fit, _sines_inside, levenberg_marquardt, unresolved_pair


def small_geometry():
    return build_geometry("equidistant", 6, 4, 0.5, 30.0, 1.0)


def paper_geometry():
    return build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)


def brute_force_cost(x, geometry, offsets, theta_deg, amplitudes):
    """Direct per-subarray evaluation of the squared fit residual."""
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    steering = _steering_matrix(geometry, theta)
    total = 0.0
    for k in range(geometry.subarray_count):
        model = steering @ (offsets[:, k] * amplitudes)
        total += np.sum(np.abs(x[:, k] - model) ** 2)
    return total


class TestPhaseOffsets:
    def test_unit_modulus_and_value(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        est = estimate_phase_offsets(rows)
        assert np.allclose(np.abs(est.offsets), 1.0)
        assert np.allclose(est.offsets, rows / np.abs(rows))
        assert not est.degenerate_flags.any()

    def test_degenerate_entry_flagged(self):
        rows = np.ones((1, 4), dtype=complex)
        rows[0, 2] = 0.0
        est = estimate_phase_offsets(rows)
        assert est.degenerate_flags[0, 2]
        assert not est.degenerate_flags[0, [0, 1, 3]].any()

    def test_accepts_separation_result(self):
        geometry = small_geometry()
        scenario = SourceScenario([-20.0, -5.0], [1.0, 1.0], 0.0, seed=9)
        snapshot, rows = synthesize(geometry, scenario)
        separated = jade_separate(snapshot.data, 2)
        est = estimate_phase_offsets(separated)
        assert est.offsets.shape == rows.data.shape

    def test_noiseless_phases_match_truth_up_to_constant(self):
        # Equidistant spacing of 6 wavelengths over K = 8 subarrays turns
        # the offset rows into DFT rows at frequencies 48 sin(theta) mod 8;
        # sines 1/48 and 3/48 give frequencies {1, 3}, whose pairwise sums
        # and differences never vanish mod 8, so separation is exact and
        # the recovered phases equal the true offsets up to one constant
        # factor per source.
        geometry = build_geometry("equidistant", 8, 4, 0.5, 42.0, 1.0)
        truth = np.degrees(np.arcsin([1.0 / 48.0, 3.0 / 48.0]))
        scenario = SourceScenario(truth, [1.0, 2.0 * np.exp(0.4j)], 0.0, seed=2)
        snapshot, rows = synthesize(geometry, scenario)
        separated = jade_separate(snapshot.data, 2)
        est = estimate_phase_offsets(separated)
        true_phi = _offset_matrix(geometry, np.radians(truth))
        overlap = np.abs(separated.recovered @ rows.data.conj().T)
        order = np.argmax(overlap, axis=1)
        assert sorted(order) == [0, 1]
        for row, src in enumerate(order):
            ratio = est.offsets[row] * true_phi[src].conj()
            ratio /= ratio[0]
            assert np.max(np.abs(ratio - 1.0)) < 1e-12


class TestAngleGrid:
    def test_inclusive_endpoints(self):
        grid = angle_grid(0.5, 2.5, 0.01)
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(2.5)
        assert np.allclose(np.diff(grid), 0.01)

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidParameterError):
            angle_grid(0.0, 1.0, -0.1)

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            angle_grid(-95.0, 0.0, 1.0)


class TestMatchedFilter:
    def test_noiseless_single_source_exact_on_grid(self):
        geometry = small_geometry()
        scenario = SourceScenario([12.0], [1.0 + 0j], 0.0, seed=0)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians([12.0]))
        result = bss_mf(snapshot.data, geometry, offsets, (0.0, 20.0, 0.5))
        assert result.directions_deg[0] == pytest.approx(12.0)

    def test_spectrum_peak_at_truth(self):
        geometry = paper_geometry()
        truth = np.array([1.2, 1.4])
        scenario = SourceScenario(truth, [1.0, 1.0], 0.0, seed=0)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians(truth))
        result = bss_mf(snapshot.data, geometry, offsets, (0.5, 2.5, 0.01))
        order = match_sources(result.directions_deg, truth)
        aligned = result.directions_deg[list(order)]
        # Unit amplitudes keep the mutual tilt below the grid step here.
        assert np.all(np.abs(aligned - truth) <= 0.02 + 1e-12)

    def test_strong_source_does_not_pull_weak_peak(self):
        # Exact offsets, no noise, wide pair with a 3:1 amplitude ratio.
        # Correlating the data with one offset row at a time leaks the
        # strong source into the weak source's spectrum and moves its
        # peak by about a quarter degree; the least-squares source columns
        # keep it within one grid step.
        geometry = paper_geometry()
        truth = np.array([1.2, 14.2])
        amps = np.array([np.exp(1j * np.pi / 5), 3 * np.exp(3j * np.pi / 5)])
        scenario = SourceScenario(truth, amps, 0.0, seed=0)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians(truth))
        result = bss_mf(snapshot.data, geometry, offsets, (0.0, 16.0, 0.01))
        assert abs(result.directions_deg[0] - truth[0]) <= 0.01 + 1e-9
        assert abs(result.directions_deg[1] - truth[1]) <= 0.01 + 1e-9

    def test_spectra_shape_and_grid(self):
        geometry = small_geometry()
        with pytest.warns(UserWarning, match="both sides of broadside"):
            scenario = SourceScenario([5.0, -15.0], [1.0, 2.0], 0.0, seed=1)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians([5.0, -15.0]))
        result = bss_mf(snapshot.data, geometry, offsets, (-30.0, 30.0, 1.0))
        assert result.spectra.shape == (2, result.grid_deg.size)
        assert result.grid_deg[0] == pytest.approx(-30.0)
        assert result.grid_deg[-1] == pytest.approx(30.0)

    def test_global_phase_invariance(self):
        geometry = small_geometry()
        with pytest.warns(UserWarning, match="both sides of broadside"):
            scenario = SourceScenario([5.0, -15.0], [1.0, 2.0], 1e-4, seed=1)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians([5.0, -15.0]))
        rotated = offsets * np.exp(1j * np.array([[0.7], [-2.1]]))
        a = bss_mf(snapshot.data, geometry, offsets, (-30.0, 30.0, 0.25))
        b = bss_mf(snapshot.data, geometry, rotated, (-30.0, 30.0, 0.25))
        assert np.array_equal(a.directions_deg, b.directions_deg)
        assert np.allclose(a.spectra, b.spectra)

    def test_grid_dictionary_cached_by_value(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        offsets = np.exp(2j * np.pi * rng.random((2, 6)))
        triple = (-10.0, 10.0, 0.5)
        cases = [
            (small_geometry(), triple),
            (build_geometry("equidistant", 6, 4, 0.7, 30.0, 1.0), triple),
            (build_geometry("equidistant", 6, 4, 0.5, 30.0, 1.3), triple),
        ]
        columns = _source_columns(x, offsets)
        for geometry, grid in cases:
            result = bss_mf(x, geometry, offsets, grid)
            steering = _steering_matrix(geometry, np.radians(result.grid_deg))
            assert np.array_equal(result.spectra, np.abs(columns.conj().T @ steering))

        # An equal geometry, or one that differs only in its subarray
        # offsets, reuses the entry of the first case.
        for geometry in (
            small_geometry(),
            build_geometry("uniform_random", 6, 4, 0.5, 30.0, 1.0, seed=3),
        ):
            before = _grid_steering.cache_info()
            bss_mf(x, geometry, offsets, triple)
            after = _grid_steering.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)

        geometry = small_geometry()
        grid, cached = _grid_steering(
            geometry.wavelength, geometry.intra_displacements.tobytes(), *triple
        )
        assert np.array_equal(grid, angle_grid(*triple))
        for array in (grid, cached):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_grid_list_reads_as_a_triple(self):
        # A list of three values is a (start, stop, step) triple, never a
        # grid of three angles.
        rng = np.random.default_rng(9)
        geometry = paper_geometry()
        x = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        offsets = np.exp(2j * np.pi * rng.random((2, 10)))
        listed = bss_mf(x, geometry, offsets, [0.0, 16.0, 0.5])
        tupled = bss_mf(x, geometry, offsets, (0.0, 16.0, 0.5))
        assert listed.grid_deg.size == 33
        assert np.array_equal(listed.grid_deg, tupled.grid_deg)
        assert np.array_equal(listed.spectra, tupled.spectra)
        assert np.array_equal(listed.directions_deg, tupled.directions_deg)

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 4.0, 5), (0.0, 16.0), ((0.0, 16.0, 0.5),)],
        ids=["five-angles", "pair", "nested"],
    )
    def test_grid_other_than_a_triple_refused(self, grid):
        rng = np.random.default_rng(9)
        geometry = small_geometry()
        x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        offsets = np.exp(2j * np.pi * rng.random((2, 6)))
        with pytest.raises(InvalidParameterError, match="triple"):
            bss_mf(x, geometry, offsets, grid)


class TestNlsCost:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        geometry = small_geometry()
        for _ in range(25):
            theta = rng.uniform(-60.0, 60.0, size=2)
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            offsets = np.exp(
                1j * rng.uniform(-np.pi, np.pi, size=(2, geometry.subarray_count))
            )
            x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
            fast = nls_cost(x, geometry, offsets, theta, amps)
            slow = brute_force_cost(x, geometry, offsets, theta, amps)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_zero_at_exact_model(self):
        geometry = small_geometry()
        truth = np.array([-10.0, 25.0])
        amps = np.array([1.0 + 0.5j, -0.3 + 2.0j])
        with pytest.warns(UserWarning, match="both sides of broadside"):
            scenario = SourceScenario(truth, amps, 0.0, seed=4)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians(truth))
        assert nls_cost(snapshot.data, geometry, offsets, truth, amps) < 1e-20


class TestGradients:
    def test_finite_difference_match(self):
        rng = np.random.default_rng(23)
        geometry = small_geometry()
        h = 1e-6
        for _ in range(20):
            theta = np.radians(rng.uniform(-55.0, 55.0, size=2))
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            offsets = np.exp(
                1j * rng.uniform(-np.pi, np.pi, size=(2, geometry.subarray_count))
            )
            x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
            cost, g_theta, g_s = nls_cost_gradients(x, geometry, offsets, theta, amps)

            def at(th, s):
                return nls_cost(x, geometry, offsets, np.degrees(th), s)

            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (at(theta + e, amps) - at(theta - e, amps)) / (2 * h)
                assert g_theta[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
                fd_re = (at(theta, amps + e) - at(theta, amps - e)) / (2 * h)
                fd_im = (at(theta, amps + 1j * e) - at(theta, amps - 1j * e)) / (2 * h)
                assert g_s[i].real == pytest.approx(fd_re, rel=1e-5, abs=1e-7)
                assert g_s[i].imag == pytest.approx(fd_im, rel=1e-5, abs=1e-7)

    def test_gradient_zero_at_perfect_fit(self):
        geometry = small_geometry()
        truth = np.array([-10.0, 25.0])
        amps = np.array([1.0 + 0.5j, -0.3 + 2.0j])
        with pytest.warns(UserWarning, match="both sides of broadside"):
            scenario = SourceScenario(truth, amps, 0.0, seed=4)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians(truth))
        _, g_theta, g_s = nls_cost_gradients(
            snapshot.data, geometry, offsets, np.radians(truth), amps
        )
        assert np.max(np.abs(g_theta)) < 1e-8
        assert np.max(np.abs(g_s)) < 1e-8


class TestNls:
    def test_noiseless_recovery_from_offset_start(self):
        geometry = paper_geometry()
        truth = np.array([1.2, 1.4])
        amps = np.array([np.exp(1j * np.pi / 5), 3 * np.exp(1j * 3 * np.pi / 5)])
        scenario = SourceScenario(truth, amps, 0.0, seed=0)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians(truth))
        result = bss_nls(snapshot.data, geometry, offsets, truth + [0.05, -0.05])
        order = match_sources(result.directions_deg, truth)
        aligned = result.directions_deg[list(order)]
        assert np.max(np.abs(aligned - truth)) < 1e-4
        assert result.final_cost < 1e-10

    def test_cost_history_non_increasing(self):
        geometry = paper_geometry()
        truth = np.array([1.2, 1.4])
        amps = [np.exp(1j * np.pi / 5), 3 * np.exp(1j * 3 * np.pi / 5)]
        for seed in range(5):
            scenario = SourceScenario(truth, amps, 0.01, seed=seed)
            snapshot, _ = synthesize(geometry, scenario)
            separated = jade_separate(snapshot.data, 2)
            est = estimate_phase_offsets(separated)
            mf = bss_mf(snapshot.data, geometry, est, (0.5, 2.5, 0.01))
            result = bss_nls(snapshot.data, geometry, est, mf.directions_deg)
            history = np.asarray(result.cost_history)
            assert history.size >= 1
            assert np.all(np.diff(history) <= 1e-12)

    @pytest.mark.parametrize(
        "truth,amps,shift",
        [
            ([-20.0, 30.0], [2.0 * np.exp(0.3j), 0.7 * np.exp(-1.1j)], [0.2, -0.2]),
            (
                [-20.0, 5.0, 30.0],
                [2.0 * np.exp(0.3j), 1.5 * np.exp(2.0j), 0.7 * np.exp(-1.1j)],
                [0.2, -0.2, 0.2],
            ),
        ],
        ids=["two-sources", "three-sources"],
    )
    def test_amplitudes_recovered_noiseless(self, truth, amps, shift):
        geometry = small_geometry()
        truth, amps = np.array(truth), np.array(amps)
        with pytest.warns(UserWarning, match="both sides of broadside"):
            scenario = SourceScenario(truth, amps, 0.0, seed=6)
        snapshot, _ = synthesize(geometry, scenario)
        offsets = _offset_matrix(geometry, np.radians(truth))
        result = bss_nls(snapshot.data, geometry, offsets, truth + shift)
        order = match_sources(result.directions_deg, truth)
        assert np.allclose(result.amplitudes[list(order)], amps, atol=1e-4)

    @pytest.mark.parametrize(
        "truth,grid",
        [([1.2, 14.2], (0.0, 16.0, 0.01)), ([1.2, 1.4], (0.5, 2.5, 0.01))],
        ids=["fixed-offsets", "shared-displacements"],
    )
    def test_stop_reason(self, truth, grid):
        snapshot, geometry, offsets, mf = noisy_pair(truth, grid, seed=3)
        result = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
        assert result.stop_reason == "converged"
        capped = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg, max_iterations=1)
        assert capped.stop_reason == "iteration_cap"
        assert mf.stop_reason is None

    def test_rejects_out_of_domain_start(self):
        geometry = small_geometry()
        x = np.zeros((4, 6), dtype=complex)
        offsets = np.ones((1, 6), dtype=complex)
        with pytest.raises(DomainError):
            bss_nls(x, geometry, offsets, [95.0])

    def test_rejects_measurement_of_another_geometry(self):
        geometry = small_geometry()
        x = np.ones((4, 5), dtype=complex)
        offsets = np.ones((2, 5), dtype=complex)
        with pytest.raises(InvalidParameterError):
            bss_nls(x, geometry, offsets, [10.0, 10.5])

    @pytest.mark.parametrize(
        "x_shape,offsets_shape",
        [((4, 5), (2, 6)), ((4, 6), (2, 5)), ((4, 6), (6,)), ((4, 6), (3, 6))],
        ids=["measurement", "offset-width", "offsets-1d", "offset-rows"],
    )
    def test_wrong_shapes_refused_by_every_fit(self, x_shape, offsets_shape):
        # These used to end in a bare numpy ValueError or IndexError.
        geometry = small_geometry()
        x = np.ones(x_shape, dtype=complex)
        offsets = np.ones(offsets_shape, dtype=complex)
        directions, amplitudes = np.array([10.0, 10.5]), np.ones(2, dtype=complex)
        fits = [
            lambda: bss_nls(x, geometry, offsets, directions),
            lambda: nls_cost(x, geometry, offsets, directions, amplitudes),
            lambda: nls_cost_gradients(x, geometry, offsets, np.radians(directions), amplitudes),
        ]
        if offsets_shape != (3, 6):  # the grid search takes any number of rows
            fits.append(lambda: bss_mf(x, geometry, offsets, (0.0, 20.0, 0.5)))
        for fit in fits:
            with pytest.raises(InvalidParameterError):
                fit()

    def test_amplitude_count_refused_by_the_cost(self):
        # Three amplitudes for two directions used to end in numpy's
        # "operands could not be broadcast together" ValueError.
        geometry = small_geometry()
        x = np.ones((4, 6), dtype=complex)
        offsets = np.ones((2, 6), dtype=complex)
        directions, amplitudes = np.array([10.0, 10.5]), np.ones(3, dtype=complex)
        with pytest.raises(InvalidParameterError, match="one entry per direction"):
            nls_cost(x, geometry, offsets, directions, amplitudes)
        with pytest.raises(InvalidParameterError, match="one entry per direction"):
            nls_cost_gradients(x, geometry, offsets, np.radians(directions), amplitudes)

    def test_non_finite_cost_is_a_numerical_failure(self):
        for cost in (np.nan, np.inf):
            with pytest.raises(DomainError):
                DoaEstimate([1.0], None, None, None, iterations=0, final_cost=cost)


class TestMatchSources:
    def test_identity_when_aligned(self):
        assert match_sources(np.array([1.0, 2.0]), np.array([1.05, 2.1])) == (0, 1)

    def test_swap_when_crossed(self):
        assert match_sources(np.array([2.0, 1.0]), np.array([1.05, 2.1])) == (1, 0)

    def test_tie_prefers_lexicographic(self):
        # Both assignments cost the same; the smaller permutation wins.
        assert match_sources(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == (0, 1)

    def test_optimal_over_all_permutations(self):
        rng = np.random.default_rng(31)
        from itertools import permutations

        for _ in range(50):
            truth = np.sort(rng.uniform(-80, 80, size=4))
            est = truth + rng.normal(scale=5.0, size=4)
            order = match_sources(est, truth)
            best = min(
                float(np.sum((est[list(p)] - truth) ** 2))
                for p in permutations(range(4))
            )
            chosen = float(np.sum((est[list(order)] - truth) ** 2))
            assert chosen == pytest.approx(best)


class TestEndToEnd:
    def test_noiseless_close_pair_within_resolution(self):
        # Full blind chain on the hard pair with no noise: the remaining
        # error comes only from forced whitening of correlated rows and
        # stays well inside one resolution cell (0.127 degrees here).
        geometry = paper_geometry()
        truth = np.array([1.2, 1.4])
        amps = [np.exp(1j * np.pi / 5), 3 * np.exp(1j * 3 * np.pi / 5)]
        scenario = SourceScenario(truth, amps, 0.0, seed=0)
        snapshot, _ = synthesize(geometry, scenario)
        separated = jade_separate(snapshot.data, 2)
        est = estimate_phase_offsets(separated)
        mf = bss_mf(snapshot.data, geometry, est, (0.5, 2.5, 0.01))
        result = bss_nls(snapshot.data, geometry, est, mf.directions_deg)
        order = match_sources(result.directions_deg, truth)
        aligned = result.directions_deg[list(order)]
        assert np.max(np.abs(aligned - truth)) < 0.06

    def test_wide_pair_noisy_nls(self):
        geometry = paper_geometry()
        truth = np.array([1.2, 14.2])
        amps = [np.exp(1j * np.pi / 5), 3 * np.exp(1j * 3 * np.pi / 5)]
        scenario = SourceScenario(truth, amps, 0.01, seed=3)
        snapshot, _ = synthesize(geometry, scenario)
        separated = jade_separate(snapshot.data, 2)
        est = estimate_phase_offsets(separated)
        mf = bss_mf(snapshot.data, geometry, est, (0.0, 16.0, 0.01))
        result = bss_nls(snapshot.data, geometry, est, mf.directions_deg)
        order = match_sources(result.directions_deg, truth)
        aligned = result.directions_deg[list(order)]
        assert np.max(np.abs(aligned - truth)) < 0.2

    def test_residual_jacobian_matches_separate_steering_calls(self):
        # The model kernel reuses one steering matrix for the residual and
        # the slopes; the reference builds the matrix and its derivative
        # from their formulas.
        snapshot, geometry, offsets, mf = noisy_pair([1.2, 14.2], (0.0, 16.0, 0.01), 3)
        x, phi = snapshot.data, offsets.offsets
        theta = np.radians(mf.directions_deg) + np.array([1e-4, -2e-4])
        s = np.array([0.8 + 0.6j, -1.1 + 2.7j])
        steering = _steering_matrix(geometry, theta)
        wavenumber = 2.0 * np.pi / geometry.wavelength
        derivative = (
            1j * wavenumber * geometry.intra_displacements[:, None] * np.cos(theta)[None, :]
        ) * steering
        columns = steering[:, :, None] * phi
        slopes = derivative[:, :, None] * (phi * s[:, None])
        residual = x - np.einsum("mlk,l->mk", columns, s)
        jac = np.concatenate([slopes, columns, 1j * columns], axis=1)
        model = _FixedOffsetModel(x, geometry, phi)
        got_residual, got_jac = model.residual_jacobian(_pack(theta, s))
        assert np.array_equal(got_residual, residual.reshape(-1))
        assert np.array_equal(got_jac, np.swapaxes(jac, 1, 2).reshape(residual.size, -1))
        assert model.cost(_pack(theta, s)) == float(np.sum(np.abs(residual) ** 2))

    @pytest.mark.parametrize("truth", [[1.2, 14.2], [1.2, 8.0]])
    def test_one_steering_matrix_per_evaluated_direction_set(self, truth, monkeypatch):
        # Every steering matrix the fixed-offset fit builds is an exp of
        # its exponent; counted over one bss_nls call, no exponent repeats,
        # so the start amplitudes, the costs and the Jacobians at one set
        # of directions share a single matrix.
        snapshot, geometry, offsets, mf = noisy_pair(truth, (0.0, 16.0, 0.01), 3)
        assert not unresolved_pair(geometry, np.radians(mf.directions_deg))
        exponents = []
        exp = np.exp

        def counting_exp(value, *args, **kwargs):
            if np.shape(value) == (geometry.elements_per_subarray, 2):
                exponents.append(np.asarray(value).tobytes())
            return exp(value, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        result = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
        monkeypatch.undo()
        assert len(exponents) == len(set(exponents))
        assert len(exponents) >= len(result.cost_history)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_pair_noisy_nls_converges(self, seed):
        # The fit must end at a stationary point of its own cost, quickly.
        snapshot, geometry, offsets, mf = noisy_pair([1.2, 14.2], (0.0, 16.0, 0.01), seed)
        result = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
        _, grad_theta, _ = nls_cost_gradients(
            snapshot.data, geometry, offsets, np.radians(result.directions_deg), result.amplitudes
        )
        assert result.iterations <= 10
        assert np.max(np.abs(grad_theta)) <= 1e-3


def noisy_pair(truth, grid, seed):
    """Paper array, noise variance 0.01: snapshot, geometry, JADE offsets
    and the matched-filter estimate that starts ``bss_nls``."""
    geometry = paper_geometry()
    amps = [np.exp(1j * np.pi / 5), 3 * np.exp(1j * 3 * np.pi / 5)]
    snapshot, _ = synthesize(geometry, SourceScenario(truth, amps, 0.01, seed=seed))
    offsets = estimate_phase_offsets(jade_separate(snapshot.data, 2))
    mf = bss_mf(snapshot.data, geometry, offsets, grid)
    return snapshot, geometry, offsets, mf


def blind_chain(geometry, truth, amps, grid):
    """Noiseless snapshot through separation, offsets, bss_mf and bss_nls."""
    snapshot, _ = synthesize(geometry, SourceScenario(truth, amps, 0.0, seed=0))
    offsets = estimate_phase_offsets(jade_separate(snapshot.data, len(truth)))
    mf = bss_mf(snapshot.data, geometry, offsets, grid)
    result = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
    order = match_sources(result.directions_deg, truth)
    return result, result.directions_deg[list(order)]


class TestSharedDisplacement:
    """Pairs closer than a subarray can resolve share the displacements."""

    def random_geometry(self):
        return build_geometry("uniform_random", 10, 10, 0.5, 450.0, 1.0, seed=7)

    def test_routing_is_physical(self):
        paper = paper_geometry()
        assert unresolved_pair(paper, np.radians([1.2, 1.4]))
        assert not unresolved_pair(paper, np.radians([1.2, 14.2]))
        assert not unresolved_pair(paper, np.radians([1.2, 1.4, 1.6]))
        bench = build_geometry("equidistant", 5, 5, 1.0, 20.0, 2.0)
        assert not unresolved_pair(bench, np.radians([0.63, 6.65]))

    def test_noiseless_close_pair_random_layout(self):
        truth = np.array([1.2, 1.4])
        amps = [np.exp(1j * np.pi / 5), 3 * np.exp(3j * np.pi / 5)]
        _, aligned = blind_chain(self.random_geometry(), truth, amps, (0.5, 2.5, 0.01))
        assert np.max(np.abs(aligned - truth)) < 1e-3

    def test_noiseless_reversed_equal_amplitudes(self):
        truth = np.array([1.4, 1.2])
        _, aligned = blind_chain(self.random_geometry(), truth, [1.0, 1.0], (0.5, 2.5, 0.01))
        assert np.max(np.abs(aligned - truth)) < 1e-3

    def test_noiseless_pair_below_broadside(self):
        truth = np.array([-1.4, -1.2])
        amps = [3.0, np.exp(0.7j)]
        _, aligned = blind_chain(self.random_geometry(), truth, amps, (-2.5, -0.5, 0.01))
        assert np.max(np.abs(aligned - truth)) < 1e-3

    def test_start_with_coinciding_sines(self):
        # A start whose two sines coincide has linearly dependent amplitude
        # columns; its amplitude fit must not stop the search.
        geometry = paper_geometry()
        snapshot, _ = synthesize(geometry, SourceScenario([1.2, 1.4], [1.0, 3.0], 0.01, seed=1))
        fit = _Fit(snapshot.data, geometry, np.radians([1.2, 1.4]))
        _, cost, _ = fit.best_of([(0.0, fit.phase)])
        assert np.isfinite(cost)

    def test_stacked_start_polish_matches_each_start_alone(self):
        geometry = paper_geometry()
        snapshot, _ = synthesize(
            geometry, SourceScenario([1.2, 1.4], [np.exp(0.6j), 3 * np.exp(1.9j)], 0.01, seed=2)
        )
        fit = _Fit(snapshot.data, geometry, np.radians([1.2, 1.4]))
        starts = fit.modulus_starts(fit.initial_moduli(), fit.q_grid, 16, pull=False)
        starts += fit.vernier_starts()
        params, costs, iterations = fit.polish_starts(starts)
        assert len(starts) > 30
        for i, start in enumerate(starts):
            alone = fit.polish_starts([start])
            assert np.array_equal(alone[0][0], params[i])
            assert np.array_equal(alone[1][0], costs[i])
            assert alone[2][0] == iterations[i]

    @pytest.mark.parametrize(
        "amplitudes,seed",
        [([np.exp(0.6j), 3 * np.exp(1.9j)], 2), ([1.0, 1.0], 3), ([3.0, np.exp(0.4j)], 4)],
    )
    def test_start_polish_runs_the_solver_policy(self, monkeypatch, amplitudes, seed):
        # Both Levenberg-Marquardt loops run one policy: every stacked start
        # ends bit for bit as the one-vector solver ends after as many
        # iterations, with no convergence test.
        geometry = paper_geometry()
        snapshot, _ = synthesize(geometry, SourceScenario([1.2, 1.4], amplitudes, 0.01, seed=seed))
        fit = _Fit(snapshot.data, geometry, np.radians([1.2, 1.4]))
        starts = fit.modulus_starts(fit.initial_moduli(), fit.q_grid, 16, pull=False)
        starts += fit.vernier_starts()
        params, costs, iterations = fit.polish_starts(starts)
        cap = shared_displacement._START_ITERATIONS
        monkeypatch.setattr(shared_displacement, "_START_ITERATIONS", 0)
        initial = fit.polish_starts(starts)[0]
        for i, start in enumerate(initial):
            alone, history, count, _ = levenberg_marquardt(
                start,
                lambda p: tuple(part[0] for part in fit._jacobian(p[None])),
                lambda p: fit._costs(p[None])[0],
                lambda p: bool(_sines_inside(p[None])[0]),
                cap,
                0.0,
            )
            assert np.array_equal(alone, params[i])
            assert history[-1] == costs[i]
            assert count == iterations[i]

    def test_cost_history_and_final_cost(self):
        geometry = self.random_geometry()
        truth = np.array([1.2, 1.4])
        amps = [np.exp(1j * np.pi / 5), 3 * np.exp(3j * np.pi / 5)]
        snapshot, _ = synthesize(geometry, SourceScenario(truth, amps, 0.01, seed=3))
        offsets = estimate_phase_offsets(jade_separate(snapshot.data, 2))
        mf = bss_mf(snapshot.data, geometry, offsets, (0.5, 2.5, 0.01))
        result = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
        history = np.asarray(result.cost_history)
        assert np.all(np.diff(history) <= 0.0)
        assert result.final_cost == history[-1]
        assert result.iterations >= history.size - 1


class TestLevenbergMarquardt:
    """The one-vector solver on the linear model y - A p."""

    rng = np.random.default_rng(11)
    design = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    y = design @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(12)

    def solve(self, max_iterations=100, tolerance=1e-10, inside=lambda p: True):
        return levenberg_marquardt(
            np.zeros(3),
            lambda p: (self.y - self.design @ p, self.design),
            lambda p: float(np.sum(np.abs(self.y - self.design @ p) ** 2)),
            inside,
            max_iterations,
            tolerance,
        )

    def test_converged_at_least_squares_solution(self):
        params, history, iterations, reason = self.solve()
        assert reason == "converged"
        assert iterations == len(history) - 1
        real_design = np.vstack([self.design.real, self.design.imag])
        best = np.linalg.lstsq(real_design, np.r_[self.y.real, self.y.imag], rcond=None)[0]
        np.testing.assert_allclose(params, best, atol=1e-6)

    def test_stalled_when_every_step_is_refused(self):
        params, history, iterations, reason = self.solve(inside=lambda p: False)
        assert reason == "stalled"
        assert iterations == 1
        assert np.array_equal(params, np.zeros(3))
        assert history == [float(np.sum(np.abs(self.y) ** 2))]

    @pytest.mark.parametrize("cap", [0, 2])
    def test_iteration_cap(self, cap):
        params, history, iterations, reason = self.solve(max_iterations=cap, tolerance=0.0)
        assert reason == "iteration_cap"
        assert iterations == cap
        assert len(history) == cap + 1
        if cap == 0:
            assert np.array_equal(params, np.zeros(3))

    @pytest.mark.parametrize("bound", [np.inf, 0.6, 0.1], ids=["free", "wall-0.6", "wall-0.1"])
    def test_accepted_costs_never_increase(self, bound):
        # A wall at p[0] = bound refuses the steps that cross it, so the
        # damping both rises and falls.
        _, history, _, _ = self.solve(inside=lambda p: p[0] < bound)
        assert len(history) > 2
        assert np.all(np.diff(history) < 0.0)
