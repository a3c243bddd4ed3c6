import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from pcdoa import cli, harness
from pcdoa.cli import main
from pcdoa.config import load_config
from pcdoa.errors import ConfigError, RankDeficiencyError

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


BIG = "1" + "0" * 400  # an integer too large for a float

# Edits of the packaged `experiment` config that give invalid values.
EXPERIMENT_EDITS = {
    "nan-direction": ("directions_deg: [0.63, 6.65]", "directions_deg: [.nan, 6.65]"),
    "direction-95": ("directions_deg: [0.63, 6.65]", "directions_deg: [95.0, 6.65]"),
    "inf-magnitude": ("magnitude: 1.0", "magnitude: .inf"),
    "nan-grid-step": ("step_deg: 0.05", "step_deg: .nan"),
    "inf-grid-stop": ("stop_deg: 20.0", "stop_deg: .inf"),
    "tiny-grid-step": ("step_deg: 0.05", "step_deg: 1.0e-12"),
    "grid-start-minus-95": ("start_deg: -20.0", "start_deg: -95.0"),
    "layout-spiral": ("layout: equidistant", "layout: spiral"),
    "no-directions": ("directions_deg: [0.63, 6.65]", "directions_deg: []"),
    # Used to exit 1 with numpy's MemoryError for 745 GiB.
    "1e11-subarrays": ("subarrays: 5", "subarrays: 100000000000"),
    # These used to exit 1 with an OverflowError traceback.
    "401-digit-snr": ("snr_db: 30.0", f"snr_db: {BIG}"),
    "401-digit-spacing": ("spacing: 1.0", f"spacing: {BIG}"),
    "401-digit-direction": ("directions_deg: [0.63, 6.65]", f"directions_deg: [0.63, {BIG}]"),
    "401-digit-grid-step": ("step_deg: 0.05", f"step_deg: {BIG}"),
    "401-digit-magnitude": ("magnitude: 1.0", f"magnitude: {BIG}"),
    "401-digit-phase": ("phase_deg: 0.0", f"phase_deg: {BIG}"),
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG)
    return str(path)


def run(*argv):
    return main(list(argv))


# The name of the table and of the sidecar each subcommand writes.
OUTPUT_NAMES = {
    "synth": "snapshot",
    "ingest": "snapshot",
    "estimate": "spectra",
    "orthogonality": "orthogonality",
    "montecarlo": "rmse",
    "sweep": "rmse",
}


@pytest.mark.parametrize("command", list(OUTPUT_NAMES))
def test_each_run_writes_one_table_and_its_sidecar(tmp_path, command):
    name = OUTPUT_NAMES[command]
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG + "  sweep: {axis: separation, values: [1.0]}\n")
    add = []
    if command == "ingest":
        assert run("synth", "--config", str(path), "--out", str(tmp_path / "parts")) == 0
        add = ["--add", str(tmp_path / "parts" / "snapshot.csv")]
    out = tmp_path / "out"
    assert run(command, "--config", str(path), *add, "--out", str(out)) == 0
    assert sorted(entry.name for entry in out.iterdir()) == [f"{name}.csv", f"{name}.json"]
    assert json.loads((out / f"{name}.json").read_text())["command"] == command


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

    def test_builds_the_geometry_once(self, tmp_path, geometry_builds):
        assert run("estimate", "--config", "experiment", "--out", str(tmp_path)) == 0
        assert len(geometry_builds) == 1

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


    def test_spectra_print_like_per_cell_repr(self, config_path, tmp_path, monkeypatch):
        special = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 5.0, float("nan")]
        written = []
        library_bss_mf = harness.bss_mf

        def bss_mf(*args):
            result = library_bss_mf(*args)
            spectra = np.array(result.spectra)
            grid = np.array(result.grid_deg)
            spectra[1, : len(special)] = special
            grid[-len(special):] = special
            written.append(dataclasses.replace(result, spectra=spectra, grid_deg=grid))
            return written[-1]

        monkeypatch.setattr(harness, "bss_mf", bss_mf)
        assert run("estimate", "--config", config_path, "--out", str(tmp_path)) == 0
        mf = written[0]
        expected = ["theta_deg,source_index,value"]
        for l in range(mf.spectra.shape[0]):
            for g, value in zip(mf.grid_deg, mf.spectra[l]):
                expected.append(f"{repr(float(g))},{l + 1},{repr(float(value))}")
        lines = (tmp_path / "spectra.csv").read_text().splitlines()
        assert lines == expected
        assert "-5.0,2,-0.0" in lines and lines[-1].startswith("nan,2,")


class TestParserReuse:
    def test_repeated_calls_match_fresh_runs(self, config_path, tmp_path):
        assert run("synth", "--config", config_path, "--out", str(tmp_path)) == 0
        snap = str(tmp_path / "snapshot.csv")
        calls = [
            ("--add", snap, "--add", snap),
            ("--add", snap),
            (),
            ("--estimator", "bss_mf"),
            (),
        ]

        def estimate(out, flags):
            assert run("estimate", "--config", config_path, "--out", str(out), *flags) == 0
            side = json.loads((out / "spectra.json").read_text())
            return side["inputs"], side["estimates"]["estimator"]

        reused = [estimate(tmp_path / f"reused{i}", flags) for i, flags in enumerate(calls)]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for i, flags in enumerate(calls):
            cli._build_parser.cache_clear()
            fresh.append(estimate(tmp_path / f"fresh{i}", flags))
        assert reused == fresh
        assert reused == [
            ([snap, snap], "bss_nls"),
            ([snap], "bss_nls"),
            ([], "bss_nls"),
            ([], "bss_mf"),
            ([], "bss_nls"),
        ]


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

    def test_integer_sweep_values_print_as_floats(self, config_path, tmp_path):
        path = tmp_path / "sweep.yaml"
        sweep = "  trials: 1\n  sweep: {axis: snr, values: [5, 10]}\n"
        path.write_text(CONFIG.replace("  trials: 1\n", sweep))
        assert run("montecarlo", "--config", str(path), "--out", str(tmp_path)) == 0
        rows = [line.split(",") for line in (tmp_path / "rmse.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["5.0", "10.0"]
        assert [row[3] for row in rows] == ["1", "1"]

    def test_single_point_without_sweep(self, config_path, tmp_path):
        assert run(
            "montecarlo", "--config", config_path, "--trials", "3",
            "--out", str(tmp_path),
        ) == 0
        lines = (tmp_path / "rmse.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("40.0,")

    def test_failures_counted_by_type(self, config_path, tmp_path, monkeypatch):
        # The second of three trials fails in whitening; the sidecar names
        # the failure's type and rmse.csv counts the two that succeeded.
        separate = harness.jade_separate
        calls = []

        def second_call_fails(data, n_sources):
            calls.append(n_sources)
            if len(calls) == 2:
                raise RankDeficiencyError(2, "forced")
            return separate(data, n_sources)

        monkeypatch.setattr(harness, "jade_separate", second_call_fails)
        assert run(
            "montecarlo", "--config", config_path, "--trials", "3",
            "--out", str(tmp_path),
        ) == 0
        sidecar = json.loads((tmp_path / "rmse.json").read_text())
        assert sidecar["trials_failed"] == [1]
        assert sidecar["failures_by_type"] == [{"RankDeficiencyError": 1}]
        assert (tmp_path / "rmse.csv").read_text().splitlines()[1].endswith(",2")


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

    def test_failed_trial_counted(self, tmp_path, monkeypatch):
        # The second of three trials fails in whitening; the sidecar counts it.
        separate = harness.jade_separate
        calls = []

        def second_call_fails(data, n_sources):
            calls.append(n_sources)
            if len(calls) == 2:
                raise RankDeficiencyError(2, "forced")
            return separate(data, n_sources)

        monkeypatch.setattr(harness, "jade_separate", second_call_fails)
        assert run(
            "orthogonality", "--config", "fig3", "--trials", "3", "--out", str(tmp_path),
        ) == 0
        sidecar = json.loads((tmp_path / "orthogonality.json").read_text())
        assert sidecar["trials_failed_total"] == 1
        failures = sidecar["failures_by_type"]
        assert len(failures) == 48
        assert failures[0] == {"RankDeficiencyError": 1}
        assert all(point == {} for point in failures[1:])


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert run(
            "estimate", "--config", str(tmp_path / "none.yaml"),
            "--out", str(tmp_path),
        ) == 2

    def test_packaged_name_beside_same_named_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("estimate", "--config", "fig5a", "--out", "fig5a") == 0
        assert (tmp_path / "fig5a" / "spectra.csv").exists()

    def test_unknown_packaged_name(self, tmp_path):
        assert run("estimate", "--config", "fig99", "--out", str(tmp_path)) == 2

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # It used to end in a UnicodeDecodeError traceback and exit 1.
        path = tmp_path / "bad.yaml"
        path.write_bytes(CONFIG.encode() + b"# \xff\n")
        assert run("synth", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert "config error: config is not UTF-8 text" in capsys.readouterr().err

    def test_snapshot_that_is_not_utf8_is_an_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"element_index,subarray_index,real,imag\n1,1,\xff,0.0\n")
        assert run(
            "estimate", "--config", "experiment", "--add", str(bad),
            "--out", str(tmp_path / "out"),
        ) == 4
        assert "i/o error: file is not UTF-8 text" in capsys.readouterr().err

    def test_zero_trials_is_a_config_error(self, tmp_path):
        assert run(
            "montecarlo", "--config", "fig6a", "--trials", "0", "--out", str(tmp_path),
        ) == 2

    @pytest.mark.parametrize("command,sidecar", [("synth", "snapshot"), ("estimate", "spectra")])
    def test_bad_override_fails_before_writing(self, config_path, tmp_path, command, sidecar):
        out = tmp_path / "out"
        assert run(command, "--config", config_path, "--trials", "0", "--out", str(out)) == 2
        assert not (out / f"{sidecar}.json").exists()

    def test_snr_override_refused_on_snr_sweep(self, tmp_path):
        assert run(
            "montecarlo", "--config", "fig6a", "--trials", "1", "--snr-db", "-300",
            "--out", str(tmp_path),
        ) == 2
        assert not (tmp_path / "rmse.csv").exists()

    def test_snr_override_accepted_on_separation_sweep(self, tmp_path):
        assert run(
            "orthogonality", "--config", "fig3", "--trials", "1", "--snr-db", "10",
            "--out", str(tmp_path),
        ) == 0
        side = json.loads((tmp_path / "orthogonality.json").read_text())
        assert side["config"]["noise"]["snr_db"] == 10.0

    def test_negative_exponent_snr_override(self, tmp_path):
        # argparse reads a separate "-1e3" as an option, so an exponent form
        # of a negative SNR is passed with "=".
        assert run("synth", "--config", "experiment", "--snr-db=-1e3", "--out", str(tmp_path)) == 0
        side = json.loads((tmp_path / "snapshot.json").read_text())
        assert side["config"]["noise"]["snr_db"] == -1000.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "--config", "fig6a", "--trials", "1"),
            ("sweep", "--config", "fig6b", "--trials", "1"),
            ("orthogonality", "--config", "fig3", "--trials", "1"),
            ("synth", "--config", "experiment"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_add_only_where_it_is_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run(*argv, "--out", str(tmp_path), "--add", str(tmp_path / "ghost.csv"))
        assert exit_info.value.code == 2
        assert "--add" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", [("--snr-db", "nan"), ("--snr-db=inf",)], ids=["nan", "inf"])
    def test_non_finite_snr_refused(self, config_path, tmp_path, snr):
        # A non-finite SNR would reach spectra.json as NaN or Infinity,
        # which is not JSON.
        assert run("synth", "--config", config_path, "--out", str(tmp_path)) == 0
        out = tmp_path / "out"
        assert run(
            "estimate", "--config", config_path, "--out", str(out),
            "--add", str(tmp_path / "snapshot.csv"), *snr,
        ) == 2
        assert not (out / "spectra.json").exists()

    @pytest.mark.parametrize("command", ["synth", "estimate"])
    def test_overflowing_snr_override_refused(self, tmp_path, command):
        # 10 ** (4000 / 10) overflows a float: it used to escape as an
        # OverflowError traceback (exit 1).
        out = tmp_path / "out"
        assert run(command, "--config", "experiment", "--snr-db", "-4000", "--out", str(out)) == 2
        assert not list(out.glob("*.json"))

    def test_overflowing_swept_snr_refused_before_any_trial(self, tmp_path, monkeypatch):
        text = resources.files("pcdoa").joinpath("configs").joinpath("fig6a.yaml").read_text()
        assert "values: [0.0," in text
        path = tmp_path / "fig6a_low.yaml"
        path.write_text(text.replace("values: [0.0,", "values: [-4000.0, 0.0,"))
        calls = []
        monkeypatch.setattr(harness, "trial_snapshot", lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert run("montecarlo", "--config", str(path), "--trials", "1", "--out", str(out)) == 2
        assert calls == []
        assert not (out / "rmse.csv").exists()

    @pytest.mark.parametrize(
        "command,written", [("montecarlo", "rmse.csv"), ("estimate", "spectra.csv")]
    )
    def test_sources_not_fewer_than_elements_refused(self, tmp_path, command, written):
        # Two sources on two elements per subarray are not identifiable: a
        # config error, not a run of failed trials.
        text = resources.files("pcdoa").joinpath("configs").joinpath("fig6a.yaml").read_text()
        path = tmp_path / "fig6a_m2.yaml"
        path.write_text(text.replace("elements: 10", "elements: 2"))
        out = tmp_path / "out"
        assert run(command, "--config", str(path), "--trials", "1", "--out", str(out)) == 2
        assert not (out / written).exists()

    def test_no_more_subarrays_than_sources_refused_at_load(self, tmp_path, monkeypatch, capsys):
        # JADE needs more subarray samples than sources; two subarrays for two
        # sources used to load, synthesize a trial and then exit 2 with
        # "need more samples than rows".
        text = resources.files("pcdoa").joinpath("configs").joinpath("fig6a.yaml").read_text()
        path = tmp_path / "fig6a_k2.yaml"
        path.write_text(text.replace("subarrays: 10", "subarrays: 2"))
        with pytest.raises(ConfigError, match=r"sources \(2\) than subarrays \(2\)"):
            load_config(path)
        calls = []
        monkeypatch.setattr(harness, "trial_snapshot", lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert run("montecarlo", "--config", str(path), "--trials", "1", "--out", str(out)) == 2
        assert calls == []
        assert "subarrays (2)" in capsys.readouterr().err
        assert not (out / "rmse.csv").exists()

    def test_zero_amplitude_refused_before_any_trial(self, tmp_path, monkeypatch, capsys):
        # A silent source used to run every trial and exit 0: RMSE 10-13 deg
        # at every SNR, resolve rate 0 and no failed trial.
        text = resources.files("pcdoa").joinpath("configs").joinpath("fig6a.yaml").read_text()
        path = tmp_path / "fig6a_silent.yaml"
        path.write_text(text.replace("magnitude: 1.0", "magnitude: 0.0"))
        calls = []
        monkeypatch.setattr(harness, "trial_snapshot", lambda *args: calls.append(args))
        out = tmp_path / "out"
        argv = ("montecarlo", "--config", str(path), "--trials", "3", "--seed", "7")
        assert run(*argv, "--out", str(out)) == 2
        assert calls == []
        assert "sources: amplitudes must be nonzero" in capsys.readouterr().err
        assert not (out / "rmse.csv").exists()

    @pytest.mark.parametrize(
        "edit", list(EXPERIMENT_EDITS.values()), ids=list(EXPERIMENT_EDITS)
    )
    def test_invalid_values_refused_before_writing(self, tmp_path, capsys, edit):
        # Each edit used to load: the commands exited 0, some writing NaN or
        # Infinity (not JSON) into the sidecar, or exited 3 at the grid.
        text = resources.files("pcdoa").joinpath("configs").joinpath("experiment.yaml").read_text()
        assert edit[0] in text
        path = tmp_path / "bad.yaml"
        path.write_text(text.replace(*edit))
        assert run("synth", "--config", "experiment", "--out", str(tmp_path)) == 0
        snapshot = str(tmp_path / "snapshot.csv")
        capsys.readouterr()
        for argv in (("synth",), ("ingest", "--add", snapshot), ("estimate", "--add", snapshot)):
            out = tmp_path / argv[0]
            assert run(argv[0], "--config", str(path), *argv[1:], "--out", str(out)) == 2
            assert capsys.readouterr().err.startswith("config error: ")
            assert not list(out.glob("*.json"))

    @pytest.mark.parametrize(
        "command,written", [("orthogonality", "orthogonality.csv"), ("sweep", "rmse.csv")]
    )
    def test_out_of_range_separation_refused_before_any_trial(
        self, tmp_path, monkeypatch, command, written
    ):
        # A swept separation that pushes sin(theta_2) past 1 used to run
        # the earlier points and then exit 3.
        text = resources.files("pcdoa").joinpath("configs").joinpath("fig3.yaml").read_text()
        path = tmp_path / "fig3_far.yaml"
        path.write_text(text.replace("11.75, 12.0]", "11.75, 12.0, 1000000.0]"))
        calls = []
        monkeypatch.setattr(harness, "trial_snapshot", lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert run(command, "--config", str(path), "--trials", "1", "--out", str(out)) == 2
        assert calls == []
        assert not (out / written).exists()

    @pytest.mark.parametrize(
        "command,add",
        [("estimate", True), ("estimate", False), ("montecarlo", False), ("sweep", False)],
    )
    def test_missing_grid_refused_before_any_snapshot(
        self, tmp_path, monkeypatch, command, add
    ):
        # fig3 has no run.grid. `estimate --add` of an unreadable file used
        # to exit 4, and the other runs synthesized a snapshot before exit 2.
        calls = []
        monkeypatch.setattr(harness, "trial_snapshot", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "superpose_snapshots", lambda *args: calls.append(args))
        out = tmp_path / "out"
        argv = ["--add", str(tmp_path / "missing.csv")] if add else []
        assert run(command, "--config", "fig3", *argv, "--out", str(out)) == 2
        assert calls == []
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_refused(self, tmp_path, capsys, seed):
        # Both used to run: derive_seed masks the seed to 64 bits, so -1
        # aliased 2**64 - 1 while the sidecar recorded -1.
        out = tmp_path / "out"
        assert run(
            "montecarlo", "--config", "fig6a", "--trials", "1", "--seed", seed,
            "--out", str(out),
        ) == 2
        assert f"got {seed}" in capsys.readouterr().err
        assert not (out / "rmse.csv").exists()

    def test_negative_random_layout_seed_refused(self, tmp_path):
        # numpy refuses a negative seed; it used to escape as a traceback (exit 1).
        path = tmp_path / "random.yaml"
        path.write_text(CONFIG.replace("layout: equidistant", "layout: uniform_random\n  seed: -1"))
        out = tmp_path / "out"
        assert run("estimate", "--config", str(path), "--out", str(out)) == 2
        assert not (out / "spectra.csv").exists()

    def test_numerical_failure_exit(self, config_path, tmp_path):
        # An all-zero snapshot leaves no signal eigenvalue above the noise
        # estimate, so whitening fails: a numerical failure, not a config error.
        assert run("synth", "--config", config_path, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "snapshot.csv").read_text().splitlines()
        zeros = [lines[0]] + [line.rsplit(",", 2)[0] + ",0.0,0.0" for line in lines[1:]]
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(zeros) + "\n")
        out = tmp_path / "out"
        assert run("estimate", "--config", config_path, "--add", str(path), "--out", str(out)) == 3

    def test_out_directory_created(self, config_path, tmp_path):
        out = tmp_path / "a" / "b"
        assert run("synth", "--config", config_path, "--out", str(out)) == 0
        assert (out / "snapshot.csv").exists()
