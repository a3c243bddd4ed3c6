"""Release gate: end-to-end checks with hard numeric tolerances.

Each test records one PASS/FAIL summary line carrying its measured
numbers; conftest replays the lines after the run so they survive
pytest's output capture. A FAIL means the library does not meet a
stated accuracy or reproducibility target.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

VERDICT_LINES = []

from pcdoa.array_model import SourceScenario, build_geometry, synthesize
from pcdoa.correlation import cross_covariance, expected_correlation, pair_statistics
from pcdoa.estimators import (
    bss_mf,
    bss_nls,
    estimate_phase_offsets,
    match_sources,
    nls_cost,
    nls_cost_gradients,
)
from pcdoa.harness import (
    GeometrySpec,
    TrialConfig,
    derive_seed,
    orthogonality_experiment,
)
from pcdoa.jade import jade_cost, jade_separate


def _report(index, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"[acceptance {index}] {verdict} {detail}"
    VERDICT_LINES.append(line)
    print(line)


# --- 1: moments of the inter-subarray correlation under random placement ---


def test_random_offset_correlation_moments():
    subarrays = 10
    aperture = 450.0
    draws = 100_000
    rng = np.random.default_rng(2024)
    xi = rng.uniform(0.0, aperture, size=(draws, subarrays))

    # separation Delta: phase spread 2*pi over the aperture
    r_full = np.mean(np.exp(2j * np.pi * xi * (1.0 / aperture)), axis=1)
    power = float(np.mean(np.abs(r_full) ** 2))
    want_power = expected_correlation(np.pi, subarrays)[1]

    # separation Delta/2: phase spread pi
    r_half = np.mean(np.exp(2j * np.pi * xi * (0.5 / aperture)), axis=1)
    magnitude = float(np.abs(np.mean(r_half)))
    want_magnitude = expected_correlation(np.pi / 2.0, subarrays)[0]

    power_rel = abs(power - want_power) / want_power
    mag_rel = abs(magnitude - want_magnitude) / want_magnitude
    ok = want_power == 0.1 and abs(want_magnitude - 2.0 / np.pi) < 1e-15 \
        and power_rel < 0.03 and mag_rel < 0.01
    _report(
        1,
        ok,
        f"mean|R|^2={power:.5f} (want 0.1, rel {power_rel:.2%}), "
        f"|mean R|={magnitude:.5f} (want 2/pi, rel {mag_rel:.2%})",
    )
    assert want_power == 0.1
    assert want_magnitude == pytest.approx(2.0 / np.pi, abs=1e-15)
    assert power_rel < 0.03
    assert mag_rel < 0.01


# --- 2: whole-array correlation factorizes into Dirichlet x sinc ---


def test_full_array_correlation_product():
    subarrays, elements = 10, 10
    spacing, aperture, wavelength = 0.5, 450.0, 1.0
    draws = 100_000
    rng = np.random.default_rng(77)
    xi = rng.uniform(0.0, aperture, size=(draws, subarrays))
    eta = spacing * np.arange(elements)

    # separations below / at / above the calibrated-subarray null at
    # wavelength / (elements * spacing) = 0.2 in sine units
    worst = 0.0
    details = []
    for delta_sin in (0.1, 0.2, 0.3):
        theta_i = float(np.degrees(np.arcsin(delta_sin)))
        closed = pair_statistics(
            theta_i, 0.0, spacing, aperture, elements, subarrays, wavelength
        ).expected_magnitude
        phase = 2.0 * np.pi / wavelength * delta_sin
        g = np.exp(1j * phase * (xi[:, :, None] + eta[None, None, :]))
        estimate = float(np.abs(np.mean(g.reshape(draws, -1).mean(axis=1))))
        gap = abs(estimate - closed)
        worst = max(worst, gap)
        details.append(f"{delta_sin:.1f}:{gap:.4f}")
    ok = worst < 0.01
    _report(2, ok, f"abs gaps at sin separations {{{', '.join(details)}}} (limit 0.01)")
    assert worst < 0.01


# --- 3: exact separation of orthogonal constant-modulus rows ---


def _orthogonal_tone_rows(rng, n_sources, n_samples):
    """Distinct-frequency unit-modulus rows, resampled until no two index
    pairs share a sum or difference mod n_samples and no sum vanishes.
    A vanishing sum means one row is the conjugate of another (or of
    itself) up to a constant; such improper pairs are not separable by
    circular fourth-order statistics and are not the contract, like the
    other aliasing collisions."""
    while True:
        freqs = rng.choice(np.arange(1, n_samples), size=n_sources, replace=False)
        sums = [
            (freqs[a] + freqs[b]) % n_samples
            for a in range(n_sources)
            for b in range(a, n_sources)
        ]
        diffs = [
            (freqs[a] - freqs[b]) % n_samples
            for a in range(n_sources)
            for b in range(n_sources)
            if a != b
        ]
        if (
            0 not in sums
            and len(set(sums)) == len(sums)
            and len(set(diffs)) == len(diffs)
        ):
            break
    t = np.arange(n_samples)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_sources)
    return np.exp(1j * (2.0 * np.pi * freqs[:, None] * t / n_samples + phases[:, None]))


def _aligned_correlations(recovered, truth):
    n = truth.shape[0]
    corr = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            num = abs(np.vdot(recovered[i], truth[j]))
            corr[i, j] = num / (np.linalg.norm(recovered[i]) * np.linalg.norm(truth[j]))
    best = None
    for perm in itertools.permutations(range(n)):
        score = min(corr[perm[j], j] for j in range(n))
        if best is None or score > best:
            best = score
    return best


def test_blind_separation_exactness():
    sensors, samples, seeds = 10, 64, 100
    worst_corr, worst_unitary, worst_frob = 1.0, 0.0, 0.0
    exact = 0
    total = 0
    for n_sources in (2, 3):
        for seed in range(seeds):
            rng = np.random.default_rng(9_000 + 31 * n_sources + seed)
            truth = _orthogonal_tone_rows(rng, n_sources, samples)
            mixing = rng.normal(size=(sensors, n_sources)) + 1j * rng.normal(
                size=(sensors, n_sources)
            )
            result = jade_separate(mixing @ truth, n_sources)
            total += 1

            corr = _aligned_correlations(result.recovered, truth)
            worst_corr = min(worst_corr, corr)
            if corr >= 0.999:
                exact += 1

            v = result.diagonalizer.rotation
            unitary = np.linalg.norm(v.conj().T @ v - np.eye(n_sources))
            worst_unitary = max(worst_unitary, unitary)

            before = sum(np.linalg.norm(m) ** 2 for m in result.cumulants.matrices)
            after = sum(
                np.linalg.norm(v.conj().T @ m @ v) ** 2
                for m in result.cumulants.matrices
            )
            worst_frob = max(worst_frob, abs(after - before) / before)
    ok = exact == total and worst_unitary < 1e-10 and worst_frob < 1e-9
    _report(
        3,
        ok,
        f"{exact}/{total} runs with correlation >= 0.999 (worst {worst_corr:.6f}), "
        f"unitarity {worst_unitary:.2e}, norm conservation {worst_frob:.2e}",
    )
    assert exact == total
    assert worst_unitary < 1e-10
    assert worst_frob < 1e-9


# --- 4: cumulant cost equals its covariance closed form ---


def test_separation_cost_closed_form():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        n_rows = int(rng.integers(1, 4))
        n_cols = int(rng.integers(2, 9))
        mods = rng.uniform(0.5, 2.0, size=n_rows)
        s = mods[:, None] * np.exp(
            2j * np.pi * rng.uniform(size=(n_rows, n_cols))
        )
        cc = cross_covariance(s)
        r, rt = cc.matrix, cc.conjugate_matrix
        closed = 0.0
        for i in range(n_rows):
            for p in range(n_rows):
                for q in range(n_rows):
                    if i == p == q:
                        continue
                    closed += abs(rt[i, p] * np.conj(rt[i, q]) + r[i, q] * r[p, i]) ** 2
        worst = max(worst, abs(jade_cost(s) - closed))
    ok = worst < 1e-10
    _report(4, ok, f"worst |cumulant - closed| = {worst:.2e} over 1000 instances (limit 1e-10)")
    assert worst < 1e-10


# --- 5: recovered source correlation tracks the truth where it is small ---


def test_phase_correlation_tracks_truth():
    start = time.monotonic()
    config = TrialConfig(
        geometry=GeometrySpec(
            layout="uniform_random",
            subarrays=10,
            elements=10,
            spacing=0.5,
            aperture=450.0,
            wavelength=1.0,
            seed=11,
        ),
        directions_deg=(1.2, 1.4),
        amplitudes=(1.0 + 0.0j, 1.0 + 0.0j),
        snr_db=40.0,
        estimator="bss_mf",
        grid_deg=None,
        sweep_axis="separation",
        sweep_values=tuple(np.arange(1.125, 4.001, 0.125)),
        trials=3,
        base_seed=0,
    )
    points = orthogonality_experiment(config)
    checked = 0
    worst = 0.0
    for point in points:
        if point.truth < 0.2:
            checked += 1
            worst = max(worst, abs(point.estimate - point.truth))
    elapsed = time.monotonic() - start
    ok = checked > 0 and worst < 0.15 and elapsed < 300.0
    _report(
        5,
        ok,
        f"worst |estimate - truth| = {worst:.3f} over {checked} low-correlation "
        f"separations (limit 0.15), {elapsed:.0f}s",
    )
    assert checked > 0
    assert worst < 0.15
    assert elapsed < 300.0


# --- 6 and 8: benchmark scenarios, shared trial runs ---

SCENARIOS = {
    "close": {"directions": (1.2, 1.4), "grid": (0.5, 2.5, 0.01)},
    "wide": {"directions": (1.2, 14.2), "grid": (0.0, 16.0, 0.01)},
}
TRIALS = 100


@pytest.fixture(scope="module")
def benchmark_runs():
    geometry = build_geometry("equidistant", 10, 10, 0.5, 450.0, 1.0)
    amplitudes = np.array(
        [np.exp(1j * np.pi / 5.0), 3.0 * np.exp(3j * np.pi / 5.0)]
    )
    noise_var = 10.0 ** (-20.0 / 10.0)
    runs = {}
    for label, scenario in SCENARIOS.items():
        truth = np.array(scenario["directions"])
        mf_errors, nls_errors, histories = [], [], []
        for trial in range(TRIALS):
            seed = derive_seed(0, 0 if label == "close" else 1, trial)
            snapshot, _ = synthesize(
                geometry, SourceScenario(truth, amplitudes, noise_var, seed=seed)
            )
            separated = jade_separate(snapshot.data, 2)
            offsets = estimate_phase_offsets(separated)
            mf = bss_mf(snapshot.data, geometry, offsets, scenario["grid"])
            nls = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
            perm = match_sources(mf.directions_deg, truth)
            mf_errors.append([mf.directions_deg[perm[i]] - truth[i] for i in range(2)])
            perm = match_sources(nls.directions_deg, truth)
            nls_errors.append(
                [nls.directions_deg[perm[i]] - truth[i] for i in range(2)]
            )
            histories.append(np.asarray(nls.cost_history, dtype=float))
        runs[label] = {
            "mf": np.abs(np.array(mf_errors)),
            "nls": np.abs(np.array(nls_errors)),
            "histories": histories,
        }
    return runs


def _rmse(errors):
    return float(np.sqrt(np.mean(errors**2)))


def test_benchmark_accuracy(benchmark_runs):
    close, wide = benchmark_runs["close"], benchmark_runs["wide"]
    resolve = float(np.mean(np.all(close["nls"] <= 0.05, axis=1)))
    close_nls, close_mf = _rmse(close["nls"]), _rmse(close["mf"])
    wide_nls, wide_mf = _rmse(wide["nls"]), _rmse(wide["mf"])
    ok = (
        resolve >= 0.80
        and close_nls <= close_mf
        and wide_nls < 0.1
        and wide_mf < 0.1
    )
    detail = (
        f"close pair: within-0.05deg rate {resolve:.2f} (want >= 0.80), "
        f"RMSE nls {close_nls:.3f} vs mf {close_mf:.3f} (want nls <= mf); "
        f"wide pair: RMSE nls {wide_nls:.3f}, mf {wide_mf:.3f} (want both < 0.1)"
    )
    _report(6, ok, detail)
    assert resolve >= 0.80, detail
    assert close_nls <= close_mf, detail
    assert wide_nls < 0.1, detail
    assert wide_mf < 0.1, detail


def test_descent_cost_never_increases(benchmark_runs):
    worst = -np.inf
    count = 0
    for label in SCENARIOS:
        for history in benchmark_runs[label]["histories"]:
            count += 1
            if history.size > 1:
                worst = max(worst, float(np.max(np.diff(history))))
    ok = worst <= 1e-12
    _report(
        8,
        ok,
        f"largest accepted-cost increase {worst:.2e} across {count} descent runs (limit ~0)",
    )
    assert worst <= 1e-12


# --- 7: analytic gradients against central differences ---


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(515)
    geometry = build_geometry("equidistant", 6, 4, 0.5, 30.0, 1.0)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        theta = np.radians(rng.uniform(-55.0, 55.0, size=2))
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        offsets = np.exp(
            1j * rng.uniform(-np.pi, np.pi, size=(2, geometry.subarray_count))
        )
        x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        _, g_theta, g_s = nls_cost_gradients(x, geometry, offsets, theta, amps)

        def at(th, s):
            return nls_cost(x, geometry, offsets, np.degrees(th), s)

        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            for got, fd in (
                (g_theta[i], (at(theta + e, amps) - at(theta - e, amps)) / (2 * h)),
                (g_s[i].real, (at(theta, amps + e) - at(theta, amps - e)) / (2 * h)),
                (
                    g_s[i].imag,
                    (at(theta, amps + 1j * e) - at(theta, amps - 1j * e)) / (2 * h),
                ),
            ):
                worst = max(worst, abs(got - fd) / max(abs(fd), 1e-2))
    ok = worst < 1e-5
    _report(7, ok, f"worst relative gradient error {worst:.2e} at 100 points (limit 1e-5)")
    assert worst < 1e-5


# --- 9: the command line is byte-reproducible ---


def test_cli_byte_reproducibility(tmp_path):
    # Both runs start at once and are compared after both have finished.
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "pcdoa.cli",
                "montecarlo",
                "--config",
                "fig6b",
                "--seed",
                "7",
                "--out",
                str(out),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        runs.append((out, proc))
    stderrs = [proc.communicate()[1] for _, proc in runs]
    outputs = []
    for (out, proc), stderr in zip(runs, stderrs):
        assert proc.returncode == 0, stderr
        outputs.append((out / "rmse.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    _report(
        9,
        identical,
        f"two montecarlo runs, {len(outputs[0])} CSV bytes, "
        f"{'identical' if identical else 'DIFFERENT'}",
    )
    assert identical
