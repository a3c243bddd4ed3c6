"""Direction spectra from one composite snapshot, wide and close pairs.

The matched-filter spectrum is computed per separated source after the
blind phase-offset recovery, then the nonlinear least-squares fit
refines the grid peaks. For the well-separated pair both stages nail the
directions. For the 0.2-degree pair the matched filter alone cannot
resolve the sources (a single subarray has a beam two orders of
magnitude wider) and the refinement has to do the work.
"""

import numpy as np

from pcdoa import SourceScenario, estimate, load_packaged_config, synthesize


def run(name):
    config = load_packaged_config(name)
    geometry = config.array_geometry
    scenario = SourceScenario(
        config.directions_deg, config.amplitudes, config.scenario()[1], seed=7
    )
    snapshot, _ = synthesize(geometry, scenario)
    _, mf, nls = estimate(config, geometry, snapshot)
    print(f"\n=== {name}: truth {list(config.directions_deg)} deg, SNR {config.snr_db:.0f} dB ===")
    print(f"matched filter peaks: {np.round(np.sort(mf.directions_deg), 3)}")
    print(f"least-squares fit:    {np.round(np.sort(nls.directions_deg), 3)}")
    print(
        f"fit stopped: {nls.stop_reason} after {nls.iterations} iterations, "
        f"final cost {nls.final_cost:.4g}"
    )
    return config, mf


def main():
    results = [run(name) for name in ("fig5a", "fig5b")]
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping plot")
        return
    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    for ax, (config, mf) in zip(axes, results):
        for l in range(mf.spectra.shape[0]):
            ax.plot(mf.grid_deg, mf.spectra[l] / mf.spectra[l].max(), label=f"source {l + 1}")
        for truth in config.directions_deg:
            ax.axvline(truth, color="gray", ls=":")
        ax.set_xlabel("direction (deg)")
        ax.set_ylabel("normalized spectrum")
        ax.legend()
    fig.tight_layout()
    fig.savefig("spectra_single_snapshot.png", dpi=120)
    print("\nwrote spectra_single_snapshot.png")


if __name__ == "__main__":
    main()
