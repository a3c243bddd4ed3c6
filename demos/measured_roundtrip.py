"""The measured-data workflow: capture parts, superpose, estimate.

A bench measurement with a single moving receive antenna produces one
CSV per emitter activation; summing the files reconstructs the composite
snapshot because the model is linear in the sources. This script fakes
two such captures by synthesizing each emitter alone, writes them to
disk in the exchange format, ingests and superposes them, and checks the
estimate against running both emitters simultaneously.
"""

import tempfile
from pathlib import Path

import numpy as np

from pcdoa import (
    SourceScenario,
    estimate,
    ingest_snapshot_csv,
    load_packaged_config,
    superpose_snapshots,
    synthesize,
    write_snapshot_csv,
)


def main():
    config = load_packaged_config("experiment")
    geometry = config.array_geometry
    noise_var = config.scenario()[1]
    with tempfile.TemporaryDirectory(prefix="roundtrip_") as tmp:
        workdir = Path(tmp)
        # one capture per emitter; the noise differs between captures, as it
        # would on a real bench
        paths = []
        for index, (theta, amp) in enumerate(
            zip(config.directions_deg, config.amplitudes)
        ):
            scenario = SourceScenario([theta], [amp], noise_var, seed=100 + index)
            part, _ = synthesize(geometry, scenario)
            path = workdir / f"capture_{index + 1}.csv"
            write_snapshot_csv(path, part)
            paths.append(path)
            print(f"wrote {path} (emitter at {theta:.2f} deg alone)")

        combined = superpose_snapshots(paths, geometry)
        roundtrip = ingest_snapshot_csv(paths[0], geometry)
    from_files = np.sort(estimate(config, geometry, combined)[2].directions_deg)
    print(f"\nestimate from superposed captures: {np.round(from_files, 3)}")
    print(f"truth:                             {sorted(config.directions_deg)}")

    original, _ = synthesize(
        geometry,
        SourceScenario([config.directions_deg[0]], [config.amplitudes[0]], noise_var, seed=100),
    )
    exact = np.array_equal(roundtrip.data, original.data)
    print(f"\nCSV round trip bit-exact: {exact}")


if __name__ == "__main__":
    main()
