import dataclasses

import numpy as np
import pytest

from pcdoa import harness
from pcdoa.array_model import ArrayGeometry, MeasurementMatrix
from pcdoa.config import load_packaged_config
from pcdoa.correlation import cross_covariance
from pcdoa.errors import ConfigError, InvalidParameterError, RankDeficiencyError
from pcdoa.estimators import bss_mf, bss_nls, estimate_phase_offsets
from pcdoa.harness import (
    GeometrySpec,
    MonteCarloReport,
    TrialConfig,
    TrialResult,
    derive_seed,
    estimate,
    monte_carlo,
    orthogonality_experiment,
    rmse_deg,
    run_trial,
)
from pcdoa.jade import jade_separate

PAPER_GEOMETRY = GeometrySpec("equidistant", 10, 10, 0.5, 450.0, 1.0)
PAPER_AMPLITUDES = (np.exp(1j * np.pi / 5), 3 * np.exp(1j * 3 * np.pi / 5))


def close_pair_config(**overrides):
    base = dict(
        geometry=PAPER_GEOMETRY,
        directions_deg=(1.2, 1.4),
        amplitudes=PAPER_AMPLITUDES,
        snr_db=20.0,
        estimator="bss_nls",
        grid_deg=(0.5, 2.5, 0.01),
        trials=1,
        base_seed=0,
    )
    base.update(overrides)
    return TrialConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)

    def test_distinct_across_indices(self):
        seeds = {
            derive_seed(base, sweep, trial)
            for base in range(3)
            for sweep in range(4)
            for trial in range(5)
        }
        assert len(seeds) == 3 * 4 * 5

    def test_zero_index_differs_from_base(self):
        # the +1 offset keeps (0, 0) from passing the base through untouched
        assert derive_seed(42, 0, 0) != 42

    def test_fits_in_64_bits(self):
        s = derive_seed(2**63, 1000, 1000)
        assert 0 <= s < 2**64


class TestTrialConfig:
    def test_rejects_unknown_estimator(self):
        with pytest.raises(InvalidParameterError):
            close_pair_config(estimator="music")

    def test_rejects_unsorted_sweep(self):
        with pytest.raises(InvalidParameterError):
            close_pair_config(sweep_axis="snr", sweep_values=(20.0, 10.0))

    def test_rejects_values_without_axis(self):
        with pytest.raises(InvalidParameterError):
            close_pair_config(sweep_values=(1.0, 2.0))

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParameterError):
            close_pair_config(trials=0)


class TestOneGeometryPerConfig:
    """A config builds its geometry once, and no run builds it again."""

    def test_runs_reuse_the_configs_geometry(self, geometry_builds):
        config = close_pair_config()
        assert len(geometry_builds) == 1
        fig4 = load_packaged_config("fig4")
        fig4 = dataclasses.replace(fig4, sweep_values=fig4.sweep_values[:1], trials=1)
        geometry_builds.clear()
        monte_carlo(config)
        orthogonality_experiment(fig4)
        run_trial(config, 0)
        assert geometry_builds == []

    def test_replace_builds_the_new_geometry(self):
        spec = load_packaged_config("fig4").geometry
        config = dataclasses.replace(close_pair_config(), geometry=spec)
        fresh = spec.build()
        assert config.array_geometry.wavelength == fresh.wavelength
        for name in ("intra_displacements", "inter_displacements"):
            assert np.array_equal(getattr(config.array_geometry, name), getattr(fresh, name))


class TestEstimate:
    @pytest.mark.parametrize("estimator", ["bss_mf", "bss_nls"])
    @pytest.mark.parametrize("name", ["fig5b", "experiment"])
    def test_matches_hand_written_chain(self, name, estimator):
        config = load_packaged_config(name).with_overrides(estimator=estimator)
        geometry = config.geometry.build()
        snapshot = harness.trial_snapshot(config, geometry, *config.scenario(), trial_index=3)
        offsets, matched, result = estimate(config, geometry, snapshot)

        separated = jade_separate(snapshot.data, len(config.directions_deg))
        ref_offsets = estimate_phase_offsets(separated)
        ref_matched = bss_mf(snapshot.data, geometry, ref_offsets, config.grid_deg)
        ref_result = ref_matched
        if estimator == "bss_nls":
            ref_result = bss_nls(snapshot.data, geometry, ref_offsets, ref_matched.directions_deg)

        np.testing.assert_array_equal(offsets.offsets, ref_offsets.offsets)
        np.testing.assert_array_equal(offsets.degenerate_flags, ref_offsets.degenerate_flags)
        np.testing.assert_array_equal(matched.spectra, ref_matched.spectra)
        np.testing.assert_array_equal(matched.directions_deg, ref_matched.directions_deg)
        np.testing.assert_array_equal(result.directions_deg, ref_result.directions_deg)
        if estimator == "bss_mf":
            assert result is matched
            assert result.amplitudes is None and result.cost_history is None
        else:
            np.testing.assert_array_equal(result.amplitudes, ref_result.amplitudes)
            assert result.cost_history == ref_result.cost_history
            assert result.stop_reason == ref_result.stop_reason

    def test_missing_grid_raises_before_any_stage(self, monkeypatch):
        config = close_pair_config()
        geometry = config.geometry.build()
        snapshot = harness.trial_snapshot(config, geometry, *config.scenario())
        calls = []
        monkeypatch.setattr(harness, "jade_separate", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="grid"):
            estimate(dataclasses.replace(config, grid_deg=None), geometry, snapshot)
        assert calls == []


class TestEstimateSymmetries:
    """Physical symmetries of the estimator, checked on seeded trials.

    Over 40 seeded trials at 10, 20 and 40 dB the estimates moved by at
    most 2.2e-16 degrees on the close pair and 2.4e-15 degrees on the wide
    pair under either symmetry; the tolerance is about four times that.
    A gain x -> c x by a power of two moved the wide pair's estimates by
    at most 2.2e-16 degrees. It is not exact on the close pair: at 40 dB,
    c = 0.7 moved one of 40 estimates by 2.1e-5 degrees.
    """

    TOLERANCE_DEG = 1e-14
    # Subarray 1 is the phase reference; the others are shuffled.
    ORDER = np.array([0, 3, 7, 1, 9, 5, 2, 8, 4, 6])

    @staticmethod
    def trials(name, snr_db):
        config = dataclasses.replace(
            load_packaged_config(name),
            sweep_axis="none",
            sweep_values=(),
            snr_db=snr_db,
            base_seed=11,
        )
        geometry = config.array_geometry
        for trial in range(3):
            snapshot = harness.trial_snapshot(config, geometry, *config.scenario(), 0, trial)
            yield config, geometry, snapshot, estimate(config, geometry, snapshot)[2]

    @pytest.mark.parametrize("snr_db", [20.0, 40.0])
    @pytest.mark.parametrize("name", ["fig6b", "fig6a"], ids=["close", "wide"])
    def test_subarray_order_does_not_matter(self, name, snr_db):
        for config, geometry, snapshot, result in self.trials(name, snr_db):
            shuffled = ArrayGeometry(
                geometry.wavelength,
                geometry.intra_displacements,
                geometry.inter_displacements[self.ORDER],
            )
            moved = estimate(config, shuffled, MeasurementMatrix(snapshot.data[:, self.ORDER]))
            np.testing.assert_allclose(
                moved[2].directions_deg, result.directions_deg, rtol=0, atol=self.TOLERANCE_DEG
            )

    @pytest.mark.parametrize("snr_db", [20.0, 40.0])
    @pytest.mark.parametrize("gain", [2.0**-10, 2.0**10], ids=["2^-10", "2^10"])
    def test_wide_pair_does_not_depend_on_scale(self, gain, snr_db):
        for config, geometry, snapshot, result in self.trials("fig6a", snr_db):
            moved = estimate(config, geometry, MeasurementMatrix(gain * snapshot.data))
            np.testing.assert_allclose(
                moved[2].directions_deg, result.directions_deg, rtol=0, atol=self.TOLERANCE_DEG
            )

    @pytest.mark.parametrize("snr_db", [20.0, 40.0])
    @pytest.mark.parametrize("name", ["fig6b", "fig6a"], ids=["close", "wide"])
    def test_conjugate_snapshot_mirrors_the_estimates(self, name, snr_db):
        for config, geometry, snapshot, result in self.trials(name, snr_db):
            start, stop, step = config.grid_deg
            mirrored = dataclasses.replace(
                config,
                directions_deg=tuple(-d for d in config.directions_deg),
                grid_deg=(-stop, -start, step),
            )
            moved = estimate(mirrored, geometry, MeasurementMatrix(snapshot.data.conj()))
            np.testing.assert_allclose(
                -moved[2].directions_deg, result.directions_deg, rtol=0, atol=self.TOLERANCE_DEG
            )


class TestRunTrial:
    def test_deterministic(self):
        cfg = close_pair_config()
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        assert np.array_equal(a.directions_deg, b.directions_deg)

    def test_noiseless_single_source_hits_grid(self):
        cfg = close_pair_config(
            directions_deg=(1.2,),
            amplitudes=(1.0 + 0j,),
            snr_db=300.0,
            estimator="bss_mf",
        )
        result = run_trial(cfg, 0)
        assert not result.failed
        assert result.directions_deg[0] == pytest.approx(1.2, abs=1e-9)

    def test_paper_single_trial_identifies_both(self):
        cfg = close_pair_config(base_seed=4)
        result = run_trial(cfg, 0)
        assert not result.failed
        assert result.directions_deg[0] != result.directions_deg[1]
        assert np.max(np.abs(result.directions_deg - np.array([1.2, 1.4]))) < 0.5

    def test_estimates_aligned_to_truth_order(self):
        cfg = close_pair_config(directions_deg=(1.4, 1.2), base_seed=4)
        result = run_trial(cfg, 0)
        assert not result.failed
        # aligned estimate i belongs to truth i, so the order flips too
        assert result.directions_deg[0] > result.directions_deg[1]


class TestRmse:
    def test_hand_made_arithmetic(self):
        truth = np.array([1.2, 1.4])
        trials = [
            TrialResult(truth + np.array([0.1, 0.0]), truth),
            TrialResult(truth + np.array([0.0, 0.1]), truth),
        ]
        assert rmse_deg(trials) == pytest.approx(0.1)

    def test_exact_estimates_give_zero(self):
        truth = np.array([5.0])
        assert rmse_deg([TrialResult(truth.copy(), truth)] * 3) == 0.0

    def test_failures_excluded(self):
        truth = np.array([1.0])
        good = TrialResult(np.array([1.3]), truth)
        bad = TrialResult(None, truth, error="RankDeficiencyError: synthetic")
        assert rmse_deg([good, bad]) == pytest.approx(0.3)

    def test_all_failed_is_nan(self):
        bad = TrialResult(None, np.array([1.0]), error="x")
        assert np.isnan(rmse_deg([bad, bad]))


class TestMonteCarlo:
    def test_single_point_report_shape(self):
        report = monte_carlo(close_pair_config(trials=3))
        assert isinstance(report, MonteCarloReport)
        assert len(report.points) == 1
        point = report.points[0]
        assert point.trials_ok + point.trials_failed == 3
        assert point.estimates_deg.shape == (point.trials_ok, 2)
        assert point.sweep_value == pytest.approx(20.0)

    def test_snr_sweep_values_reported(self):
        report = monte_carlo(
            close_pair_config(sweep_axis="snr", sweep_values=(10.0, 30.0), trials=2)
        )
        assert [p.sweep_value for p in report.points] == [10.0, 30.0]

    def test_rmse_improves_with_snr(self):
        report = monte_carlo(
            close_pair_config(sweep_axis="snr", sweep_values=(0.0, 40.0), trials=5)
        )
        low, high = report.points
        assert high.rmse_deg < low.rmse_deg

    def test_resolve_rate_range_and_noiseless_resolve(self):
        report = monte_carlo(close_pair_config(snr_db=300.0, trials=2))
        point = report.points[0]
        assert 0.0 <= point.resolve_rate <= 1.0
        assert point.resolve_rate == 1.0

    def test_separation_sweep_moves_second_source(self):
        cfg = close_pair_config(
            sweep_axis="separation",
            sweep_values=(2.0, 10.0),
            snr_db=300.0,
            trials=1,
            estimator="bss_mf",
            grid_deg=(0.5, 4.5, 0.01),
        )
        report = monte_carlo(cfg)
        wide = report.points[1].estimates_deg[0]
        delta_sin = 1.0 / 450.0
        expected = np.degrees(np.arcsin(np.sin(np.radians(1.2)) + 10.0 * delta_sin))
        assert wide[1] == pytest.approx(expected, abs=0.02)

    def test_missing_grid_raises_instead_of_failing_trials(self):
        with pytest.raises(InvalidParameterError, match="grid"):
            monte_carlo(close_pair_config(grid_deg=None, trials=2))

    def test_unidentifiable_config_raises_instead_of_failing_trials(self):
        geometry = dataclasses.replace(PAPER_GEOMETRY, elements=2)
        with pytest.raises(ConfigError, match="fewer sources"):
            monte_carlo(close_pair_config(geometry=geometry, trials=2))

    def test_order_independent_of_trial_count(self):
        # first trials of a longer run replicate a shorter run exactly
        short = monte_carlo(close_pair_config(trials=2))
        long = monte_carlo(close_pair_config(trials=4))
        np.testing.assert_array_equal(
            short.points[0].estimates_deg, long.points[0].estimates_deg[:2]
        )


class TestOrthogonalityExperiment:
    def test_truth_matches_direct_summation(self):
        cfg = close_pair_config(
            geometry=GeometrySpec("uniform_random", 10, 10, 0.5, 450.0, 1.0, seed=11),
            sweep_axis="separation",
            sweep_values=(1.5, 2.5, 3.5),
            snr_db=40.0,
            amplitudes=(1.0 + 0j, 1.0 + 0j),
            grid_deg=None,
        )
        points = orthogonality_experiment(cfg)
        geometry = cfg.geometry.build()
        delta_sin = 1.0 / 450.0
        for point in points:
            s1 = np.sin(np.radians(1.2))
            s2 = s1 + point.separation_over_delta * delta_sin
            phases = (
                2.0 * np.pi * geometry.inter_displacements * (s2 - s1)
            )
            oracle = abs(np.mean(np.exp(1j * phases)))
            assert point.truth == pytest.approx(oracle, abs=1e-12)

    def test_estimate_tracks_small_truth(self):
        cfg = close_pair_config(
            geometry=GeometrySpec("uniform_random", 10, 10, 0.5, 450.0, 1.0, seed=11),
            sweep_axis="separation",
            sweep_values=tuple(np.round(np.arange(1.25, 4.01, 0.25), 2)),
            snr_db=40.0,
            amplitudes=(1.0 + 0j, 1.0 + 0j),
            grid_deg=None,
        )
        points = orthogonality_experiment(cfg)
        qualifying = [p for p in points if p.truth < 0.2]
        assert qualifying
        for point in qualifying:
            assert abs(point.estimate - point.truth) < 0.15

    def test_near_coherent_sources_still_reported(self):
        # At a tiny separation the rows are almost the same signal. The
        # rotation recovering them is then nearly unconstrained, so the
        # estimate column is untrustworthy there; the contract is only
        # that the truth column is right and the point completes.
        cfg = close_pair_config(
            geometry=GeometrySpec("equidistant", 10, 10, 0.5, 450.0, 1.0),
            sweep_axis="separation",
            sweep_values=(0.01,),
            snr_db=60.0,
            amplitudes=(1.0 + 0j, 1.0 + 0j),
            grid_deg=None,
        )
        point = orthogonality_experiment(cfg)[0]
        assert point.truth > 0.99
        if point.trials_ok:
            assert 0.0 <= point.estimate <= 1.0 + 1e-12
        else:
            assert np.isnan(point.estimate)

    def test_failed_trial_left_out_of_the_mean(self, monkeypatch):
        # The second of three trials fails in whitening: the point counts
        # two trials and averages exactly those two.
        cfg = close_pair_config(
            sweep_axis="separation",
            sweep_values=(2.5,),
            amplitudes=(1.0 + 0j, 1.0 + 0j),
            grid_deg=None,
            trials=3,
        )
        geometry = cfg.geometry.build()
        directions, noise_var = cfg.scenario(2.5)

        def trial_statistic(trial):
            snapshot = harness.trial_snapshot(cfg, geometry, directions, noise_var, 0, trial)
            offsets = estimate_phase_offsets(jade_separate(snapshot.data, 2)).offsets
            return abs(cross_covariance(offsets).matrix[1, 0])

        want = float(np.mean([trial_statistic(0), trial_statistic(2)]))
        calls = []

        def second_call_fails(data, n_sources):
            calls.append(n_sources)
            if len(calls) == 2:
                raise RankDeficiencyError(2, "forced")
            return jade_separate(data, n_sources)

        monkeypatch.setattr(harness, "jade_separate", second_call_fails)
        (point,) = orthogonality_experiment(cfg)
        assert len(calls) == 3
        assert point.trials_ok == 2
        assert point.estimate == want

    def test_requires_two_sources(self):
        cfg = close_pair_config(
            directions_deg=(1.2,),
            amplitudes=(1.0 + 0j,),
        )
        with pytest.raises(InvalidParameterError):
            orthogonality_experiment(cfg)
