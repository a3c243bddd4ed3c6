import math

import pytest

from pcdoa.config import (
    load_packaged_config,
    packaged_config_names,
    parse_config,
)
from pcdoa.errors import ConfigError

MINIMAL = """
geometry:
  layout: equidistant
  subarrays: 4
  elements: 3
  spacing: 0.5
  aperture: 12.0
  wavelength: 1.0
sources:
  directions_deg: [2.0, 9.0]
  amplitudes:
    - {magnitude: 1.0, phase_deg: 0.0}
    - {magnitude: 3.0, phase_deg: 90.0}
noise:
  snr_db: 20.0
run:
  estimator: bss_mf
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.geometry.layout == "equidistant"
        assert cfg.geometry.seed == 0
        assert cfg.trials == 1
        assert cfg.base_seed == 0
        assert cfg.sweep_axis == "none"
        assert cfg.sweep_values == ()
        assert cfg.grid_deg is None
        assert cfg.snr_db == 20.0

    def test_amplitude_conversion(self):
        cfg = parse_config(MINIMAL)
        assert cfg.amplitudes[0] == pytest.approx(1.0 + 0.0j)
        assert cfg.amplitudes[1] == pytest.approx(3.0j)

    def test_full_run_block(self):
        text = MINIMAL + """
  grid: {start_deg: 0.0, stop_deg: 16.0, step_deg: 0.5}
  seed: 11
  trials: 25
  sweep: {axis: snr, values: [0.0, 10.0, 20.0]}
"""
        cfg = parse_config(text)
        assert cfg.grid_deg == (0.0, 16.0, 0.5)
        assert cfg.base_seed == 11
        assert cfg.trials == 25
        assert cfg.sweep_axis == "snr"
        assert cfg.sweep_values == (0.0, 10.0, 20.0)

    def test_missing_block(self):
        text = MINIMAL.replace("noise:\n  snr_db: 20.0\n", "")
        with pytest.raises(ConfigError, match="noise"):
            parse_config(text)

    def test_not_a_mapping(self):
        with pytest.raises(ConfigError):
            parse_config("- just\n- a\n- list\n")

    @pytest.mark.parametrize(
        "needle,key",
        [
            ("geometry:", "geometry"),
            ("sources:", "sources"),
            ("noise:", "noise"),
            ("run:", "run"),
        ],
    )
    def test_unknown_key_rejected(self, needle, key):
        text = MINIMAL.replace(needle, f"{needle}\n  bogus: 1")
        with pytest.raises(ConfigError, match=f"'bogus' in '{key}'"):
            parse_config(text)

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(MINIMAL + "bogus: 1\n")

    def test_unknown_amplitude_key(self):
        text = MINIMAL.replace("phase_deg: 0.0}", "phase_deg: 0.0, extra: 1}")
        with pytest.raises(ConfigError, match="extra"):
            parse_config(text)

    def test_bool_is_not_a_number(self):
        text = MINIMAL.replace("snr_db: 20.0", "snr_db: true")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_count_mismatch(self):
        text = MINIMAL.replace("directions_deg: [2.0, 9.0]", "directions_deg: [2.0]")
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config(text)

    def test_bad_estimator(self):
        text = MINIMAL.replace("estimator: bss_mf", "estimator: music")
        with pytest.raises(ConfigError, match="estimator"):
            parse_config(text)

    @pytest.mark.parametrize(
        "run_lines,needle",
        [
            ("  trials: 0\n", "trials"),
            ("  sweep: {axis: snr, values: [20.0, 10.0]}\n", "sorted"),
            ("  sweep: {axis: none, values: [1.0]}\n", "empty"),
            ("  sweep: {axis: separation}\n", "needs sweep_values"),
        ],
        ids=["zero-trials", "unsorted-sweep", "values-without-axis", "axis-without-values"],
    )
    def test_bad_values_rejected_at_load(self, run_lines, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(MINIMAL + run_lines)


class TestOverrides:
    def test_each_field(self):
        cfg = parse_config(MINIMAL)
        out = cfg.with_overrides(seed=7, trials=4, snr_db=35.0, estimator="bss_nls")
        assert out.base_seed == 7
        assert out.trials == 4
        assert out.snr_db == 35.0
        assert out.estimator == "bss_nls"
        # the original is untouched
        assert cfg.base_seed == 0 and cfg.estimator == "bss_mf"

    def test_none_means_keep(self):
        cfg = parse_config(MINIMAL)
        assert cfg.with_overrides() == cfg

    def test_bad_estimator_override(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            cfg.with_overrides(estimator="capon")

    def test_bad_trials_override(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="trials"):
            cfg.with_overrides(trials=0)

    def test_snr_override_refused_on_snr_sweep(self):
        cfg = load_packaged_config("fig6a")
        with pytest.raises(ConfigError, match="snr_db"):
            cfg.with_overrides(snr_db=-300.0)


class TestRoundTrip:
    def test_as_dict_reparses_identically(self):
        import yaml

        cfg = parse_config(MINIMAL)
        again = parse_config(yaml.safe_dump(cfg.as_dict()))
        assert again == cfg

    def test_phase_preserved(self):
        cfg = parse_config(MINIMAL)
        d = cfg.as_dict()
        assert d["sources"]["amplitudes"][1]["phase_deg"] == pytest.approx(90.0)
        assert d["sources"]["amplitudes"][1]["magnitude"] == pytest.approx(3.0)


class TestPackaged:
    def test_known_names(self):
        names = packaged_config_names()
        for expected in ("fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "experiment"):
            assert expected in names

    @pytest.mark.parametrize("name", sorted(packaged_config_names()))
    def test_loads_and_builds(self, name):
        cfg = load_packaged_config(name)
        geometry = cfg.geometry.build()
        assert geometry.subarray_count >= 2
        assert all(math.isfinite(t) for t in cfg.directions_deg)
        cfg.trial_config()  # must validate cleanly

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="fig3"):
            load_packaged_config("fig99")

    def test_snr_sweeps_carry_trials(self):
        for name in ("fig6a", "fig6b"):
            cfg = load_packaged_config(name)
            assert cfg.sweep_axis == "snr"
            assert cfg.trials == 25
