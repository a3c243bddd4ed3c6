"""True versus blindly recovered source correlation over a separation sweep.

Runs the packaged equidistant and random-layout experiments and prints
both curves. The recovered correlation comes from the separated source
phases alone, with no access to the true subarray positions; it tracks
the truth closely wherever the truth is small, which is the regime the
direction estimators rely on. Near zero separation the sources become
coherent and the blind estimate is no longer meaningful.
"""

from pcdoa import load_packaged_config, orthogonality_experiment


def run(name):
    config = load_packaged_config(name)
    print(f"\n=== {name}: {config.geometry.layout} layout ===")
    print(f"{'sep/Delta':>10} {'truth':>8} {'estimate':>9}")
    points = orthogonality_experiment(config)
    for p in points:
        flag = "  <- low-correlation regime" if p.truth < 0.2 else ""
        print(f"{p.separation_over_delta:>10.2f} {p.truth:>8.3f} {p.estimate:>9.3f}{flag}")
    return points


def main():
    for name in ("fig3", "fig4"):
        run(name)


if __name__ == "__main__":
    main()
