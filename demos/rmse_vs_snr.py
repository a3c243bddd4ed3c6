"""RMSE against SNR for the wide and close source pairs.

Both packaged sweeps are trimmed to a handful of trials so the script
finishes in seconds; pass --trials to tighten the statistics. The wide
pair settles to a small error early. The close pair (1.57 resolutions
apart at the full aperture, but far inside one subarray beam) needs a
much higher SNR before the blind separation hands the refinement a
usable starting point, and its curve shows exactly that.
"""

import argparse

from pcdoa import load_packaged_config, monte_carlo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args()

    for name in ("fig6a", "fig6b"):
        config = load_packaged_config(name).with_overrides(trials=args.trials)
        report = monte_carlo(config)
        pair = tuple(config.directions_deg)
        print(f"\n=== {name}: sources {pair}, {args.trials} trials/point ===")
        print(f"{'SNR dB':>7} {'RMSE deg':>9} {'resolve':>8}")
        for point in report.points:
            print(
                f"{point.sweep_value:>7.0f} {point.rmse_deg:>9.4f} "
                f"{point.resolve_rate:>8.2f}"
            )


if __name__ == "__main__":
    main()
