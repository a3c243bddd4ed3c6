import json

import pytest

from pcdoa.cli import main

CONFIG = """
geometry:
  layout: equidistant
  subarrays: 8
  elements: 5
  spacing: 0.5
  aperture: 28.0
  wavelength: 1.0
sources:
  directions_deg: [0.0, 10.0]
  amplitudes:
    - {magnitude: 1.0, phase_deg: 36.0}
    - {magnitude: 1.0, phase_deg: 108.0}
noise:
  snr_db: 40.0
run:
  estimator: bss_nls
  grid: {start_deg: -5.0, stop_deg: 15.0, step_deg: 0.1}
  seed: 0
  trials: 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestEstimate:
    def test_writes_spectra_and_sidecar(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("estimate", "--config", config_path, "--out", str(out)) == 0
        lines = (out / "spectra.csv").read_text().splitlines()
        assert lines[0] == "theta_deg,source_index,value"
        # 201 grid points per source, two sources
        assert len(lines) == 1 + 2 * 201
        side = json.loads((out / "spectra.json").read_text())
        assert side["command"] == "estimate"
        assert side["config"]["noise"]["snr_db"] == 40.0
        est = side["estimates"]["directions_deg"]
        assert len(est) == 2
        assert min(abs(e - 0.0) for e in est) < 0.5
        assert min(abs(e - 10.0) for e in est) < 0.5

    def test_estimator_override_recorded(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run(
            "estimate", "--config", config_path, "--out", str(out),
            "--estimator", "bss_mf",
        ) == 0
        side = json.loads((out / "spectra.json").read_text())
        assert side["config"]["run"]["estimator"] == "bss_mf"
        assert side["estimates"]["estimator"] == "bss_mf"

    def test_grid_required(self, tmp_path):
        path = tmp_path / "nogrid.yaml"
        path.write_text(CONFIG.replace(
            "  grid: {start_deg: -5.0, stop_deg: 15.0, step_deg: 0.1}\n", ""
        ))
        assert run("estimate", "--config", str(path), "--out", str(tmp_path)) == 2


class TestSnapshotChain:
    def test_synth_ingest_estimate_match_direct_run(self, config_path, tmp_path):
        direct = tmp_path / "direct"
        staged = tmp_path / "staged"
        assert run("estimate", "--config", config_path, "--out", str(direct)) == 0
        assert run("synth", "--config", config_path, "--out", str(staged)) == 0
        assert run(
            "ingest", "--config", config_path, "--out", str(staged),
            "--add", str(staged / "snapshot.csv"),
        ) == 0
        assert run(
            "estimate", "--config", config_path, "--out", str(staged),
            "--add", str(staged / "snapshot.csv"),
        ) == 0
        assert (staged / "spectra.csv").read_bytes() == (direct / "spectra.csv").read_bytes()

    def test_add_twice_doubles_snapshot(self, config_path, tmp_path):
        assert run("synth", "--config", config_path, "--out", str(tmp_path)) == 0
        snap = str(tmp_path / "snapshot.csv")
        out = tmp_path / "double"
        assert run(
            "ingest", "--config", config_path, "--out", str(out),
            "--add", snap, "--add", snap,
        ) == 0
        one = (tmp_path / "snapshot.csv").read_text().splitlines()[1:]
        two = (out / "snapshot.csv").read_text().splitlines()[1:]
        a = float(one[0].split(",")[2])
        b = float(two[0].split(",")[2])
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_ingest_requires_add(self, config_path, tmp_path):
        assert run("ingest", "--config", config_path, "--out", str(tmp_path)) == 2

    def test_ingest_malformed_file(self, config_path, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("element_index,subarray_index,real,imag\n1,1,zap,0.0\n")
        assert run(
            "ingest", "--config", config_path, "--out", str(tmp_path),
            "--add", str(bad),
        ) == 4

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_estimate_rejects_non_finite_cell(self, config_path, tmp_path, cell):
        assert run("synth", "--config", config_path, "--out", str(tmp_path)) == 0
        path = tmp_path / "snapshot.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + cell
        path.write_text("\n".join(lines) + "\n")
        assert run(
            "estimate", "--config", config_path, "--out", str(tmp_path),
            "--add", str(path),
        ) == 4

    def test_ingest_missing_file(self, config_path, tmp_path):
        assert run(
            "ingest", "--config", config_path, "--out", str(tmp_path),
            "--add", str(tmp_path / "ghost.csv"),
        ) == 4


class TestMonteCarlo:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run(
                "montecarlo", "--config", "fig6b", "--seed", "7",
                "--trials", "2", "--out", str(out),
            )
            assert code == 0
        assert (a / "rmse.csv").read_bytes() == (b / "rmse.csv").read_bytes()
        assert (a / "rmse.json").read_bytes() == (b / "rmse.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("montecarlo", "--config", "fig6b", "--seed", "7", "--trials", "2",
            "--out", str(a))
        run("montecarlo", "--config", "fig6b", "--seed", "8", "--trials", "2",
            "--out", str(b))
        assert (a / "rmse.csv").read_bytes() != (b / "rmse.csv").read_bytes()

    def test_csv_schema(self, tmp_path):
        run("montecarlo", "--config", "fig6b", "--seed", "7", "--trials", "2",
            "--out", str(tmp_path))
        lines = (tmp_path / "rmse.csv").read_text().splitlines()
        assert lines[0] == "sweep_value,rmse_deg,resolve_rate,trials_ok"
        assert len(lines) == 1 + 9  # snr sweep 0..40 in 5 dB steps

    def test_single_point_without_sweep(self, config_path, tmp_path):
        assert run(
            "montecarlo", "--config", config_path, "--trials", "3",
            "--out", str(tmp_path),
        ) == 0
        lines = (tmp_path / "rmse.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("40.0,")


class TestSweep:
    def test_requires_swept_axis(self, config_path, tmp_path):
        assert run("sweep", "--config", config_path, "--out", str(tmp_path)) == 2

    def test_runs_snr_sweep(self, tmp_path):
        assert run(
            "sweep", "--config", "fig6b", "--seed", "1", "--trials", "1",
            "--out", str(tmp_path),
        ) == 0
        side = json.loads((tmp_path / "rmse.json").read_text())
        assert side["command"] == "sweep"


class TestOrthogonality:
    def test_schema_and_exit(self, tmp_path):
        assert run(
            "orthogonality", "--config", "fig3", "--out", str(tmp_path),
        ) == 0
        lines = (tmp_path / "orthogonality.csv").read_text().splitlines()
        assert lines[0] == "separation_over_delta,truth,estimate"
        assert len(lines) == 1 + 48


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert run(
            "estimate", "--config", str(tmp_path / "none.yaml"),
            "--out", str(tmp_path),
        ) == 2

    def test_unknown_packaged_name(self, tmp_path):
        assert run("estimate", "--config", "fig99", "--out", str(tmp_path)) == 2

    def test_zero_trials_is_a_config_error(self, tmp_path):
        assert run(
            "montecarlo", "--config", "fig6a", "--trials", "0", "--out", str(tmp_path),
        ) == 2

    def test_numerical_failure_exit(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(CONFIG.replace("start_deg: -5.0", "start_deg: -95.0"))
        assert run("estimate", "--config", str(path), "--out", str(tmp_path)) == 3

    def test_out_directory_created(self, config_path, tmp_path):
        out = tmp_path / "a" / "b"
        assert run("synth", "--config", config_path, "--out", str(out)) == 0
        assert (out / "snapshot.csv").exists()
