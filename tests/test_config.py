import dataclasses
import math
from importlib import resources

import numpy as np
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


ONE_SOURCE = """
  directions_deg: [2.0]
  amplitudes:
    - {magnitude: 1.0, phase_deg: 0.0}
"""

THREE_SOURCES = """
  directions_deg: [2.0, 9.0, 20.0]
  amplitudes:
    - {magnitude: 1.0, phase_deg: 0.0}
    - {magnitude: 3.0, phase_deg: 90.0}
    - {magnitude: 2.0, phase_deg: 45.0}
"""


def packaged_text(name):
    return resources.files("pcdoa").joinpath("configs").joinpath(f"{name}.yaml").read_text()


def with_sources(text, block):
    """MINIMAL with its sources block replaced and four elements per subarray."""
    head, rest = text.split("sources:", 1)
    tail = rest[rest.index("noise:"):]
    return (head + "sources:" + block + tail).replace("elements: 3", "elements: 4")


SEPARATION_SWEEP = "  sweep: {axis: separation, values: [0.5, 1.0]}\n"


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
        with pytest.raises(ConfigError, match="'config' must be a mapping"):
            parse_config("- just\n- a\n- list\n")

    def test_malformed_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("geometry: [1, 2\n")

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

    @pytest.mark.parametrize(
        "text,where",
        [
            (MINIMAL + "  grid: {start_deg: 0.0, stop_deg: 16.0, step_deg: 0.5, bogus: 1}\n",
             "run.grid"),
            (MINIMAL + "  sweep: {axis: snr, values: [0.0], bogus: 1}\n", "run.sweep"),
        ],
        ids=["run.grid", "run.sweep"],
    )
    def test_unknown_nested_key_rejected(self, text, where):
        with pytest.raises(ConfigError, match=rf"unknown key 'bogus' in '{where}'"):
            parse_config(text)

    @pytest.mark.parametrize(
        "text,where",
        [
            (MINIMAL + "  grid: [0.0, 16.0, 0.5]\n", "run.grid"),
            (MINIMAL + "  sweep: [0.0, 10.0]\n", "run.sweep"),
            (MINIMAL.replace("snr_db: 20.0", "- 20.0"), "noise"),
        ],
        ids=["run.grid", "run.sweep", "noise"],
    )
    def test_block_that_is_not_a_mapping_rejected(self, text, where):
        with pytest.raises(ConfigError, match=rf"'{where}' must be a mapping"):
            parse_config(text)

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus' in 'config'"):
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

    @pytest.mark.parametrize(
        "text,message",
        [
            (MINIMAL.replace("[2.0, 9.0]", "2.0"), "sources.directions_deg must be a list"),
            (
                MINIMAL.replace("[2.0, 9.0]", "[2.0, true]"),
                "sources.directions_deg entries must be numbers",
            ),
            (MINIMAL + "  sweep: {axis: snr, values: 10.0}\n", "run.sweep.values must be a list"),
            (
                MINIMAL + "  sweep: {axis: snr, values: [10.0, x]}\n",
                "run.sweep.values entries must be numbers",
            ),
            (MINIMAL.replace("  subarrays: 4\n", ""), "'geometry' is missing 'subarrays'"),
            (MINIMAL + "  trials: 2.5\n", "'run.trials' must be an integer"),
        ],
        ids=[
            "directions-scalar",
            "directions-bool",
            "sweep-scalar",
            "sweep-text",
            "missing-subarrays",
            "fractional-trials",
        ],
    )
    def test_number_lists_rejected(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("values", ["", ", values: null"], ids=["missing", "null"])
    def test_sweep_values_default_to_empty(self, values):
        config = parse_config(MINIMAL + f"  sweep: {{axis: none{values}}}\n")
        assert config.sweep_values == ()

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_snr_rejected(self, value):
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config(MINIMAL.replace("snr_db: 20.0", f"snr_db: {value}"))

    @pytest.mark.parametrize(
        "old,new,needle",
        [
            ("directions_deg: [2.0, 9.0]", "directions_deg: [.nan, 9.0]", "directions_deg"),
            ("directions_deg: [2.0, 9.0]", "directions_deg: [2.0, -.inf]", "directions_deg"),
            ("directions_deg: [2.0, 9.0]", "directions_deg: [95.0, 9.0]", "directions_deg"),
            ("directions_deg: [2.0, 9.0]", "directions_deg: [2.0, -90.0]", "directions_deg"),
            ("magnitude: 3.0", "magnitude: .inf", "amplitudes"),
            ("magnitude: 3.0", "magnitude: .nan", "amplitudes"),
            ("phase_deg: 90.0", "phase_deg: .inf", "phase_deg"),
            ("directions_deg: [2.0, 9.0]", "directions_deg: []", "at least one source"),
        ],
        ids=["nan-direction", "inf-direction", "direction-95", "direction-minus-90",
             "inf-magnitude", "nan-magnitude", "inf-phase", "no-directions"],
    )
    def test_bad_sources_rejected(self, old, new, needle):
        # Each used to load, then reach the sidecars as NaN or Infinity or
        # fail only once the run started; an infinite phase crashed the parser.
        with pytest.raises(ConfigError, match=needle):
            parse_config(MINIMAL.replace(old, new))

    @pytest.mark.parametrize(
        "grid",
        [
            "{start_deg: 0.0, stop_deg: 16.0, step_deg: .nan}",
            "{start_deg: 0.0, stop_deg: .inf, step_deg: 0.1}",
            "{start_deg: .nan, stop_deg: 16.0, step_deg: 0.1}",
            "{start_deg: -95.0, stop_deg: 16.0, step_deg: 0.1}",
            "{start_deg: 16.0, stop_deg: 0.0, step_deg: 0.1}",
            "{start_deg: 0.0, stop_deg: 16.0, step_deg: 0.0}",
            # More than 10**6 points: each used to reach numpy's allocator and
            # end in a MemoryError, ValueError or OverflowError traceback.
            "{start_deg: 0.0, stop_deg: 16.0, step_deg: 1.0e-12}",
            "{start_deg: 0.0, stop_deg: 16.0, step_deg: 1.0e-300}",
            "{start_deg: 0.0, stop_deg: 16.0, step_deg: 5.0e-324}",
        ],
        ids=["nan-step", "inf-stop", "nan-start", "start-minus-95", "reversed", "zero-step",
             "step-1e-12", "step-1e-300", "step-subnormal"],
    )
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="run.grid"):
            parse_config(MINIMAL + f"  grid: {grid}\n")

    @pytest.mark.parametrize(
        "text,needle",
        [
            (
                packaged_text("fig3").replace("11.75, 12.0]", "11.75, 12.0, 1000000.0]"),
                r"sin\(theta_2\)",
            ),
            (with_sources(MINIMAL, ONE_SOURCE) + SEPARATION_SWEEP, "two sources, got"),
            (with_sources(MINIMAL, THREE_SOURCES) + SEPARATION_SWEEP, "two sources, got"),
        ],
        ids=["sin-outside-unit", "one-source", "three-sources"],
    )
    def test_bad_separation_sweep_rejected_at_load(self, text, needle):
        # Each used to load and run its earlier points; a swept sin(theta_2)
        # outside (-1, 1) then stopped the run as a numerical failure.
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("layout: equidistant", "layout: uniform_random\n  seed: -1"),
            ("aperture: 12.0", "aperture: 0.0"),
            ("layout: equidistant", "layout: spiral"),
        ],
        ids=["negative-random-seed", "zero-aperture", "unknown-layout"],
    )
    def test_geometry_that_does_not_build_rejected_at_load(self, old, new):
        # Each used to load and fail only when a command built the geometry;
        # the separation rule would divide by the zero aperture.
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(MINIMAL.replace(old, new) + SEPARATION_SWEEP)

    def test_sources_must_be_fewer_than_elements(self):
        with pytest.raises(ConfigError, match="fewer sources"):
            parse_config(MINIMAL.replace("elements: 3", "elements: 2"))


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
        assert cfg.with_overrides() is cfg
        assert cfg.with_overrides(seed=None, trials=None, snr_db=None, estimator=None) is cfg

    @pytest.mark.parametrize("field", ["seed", "trials"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=repr)
    def test_non_integer_count_override_refused(self, field, value):
        # `trials=2.5` used to be truncated to 2.
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(MINIMAL).with_overrides(**{field: value})

    def test_numpy_integer_overrides_become_ints(self):
        out = parse_config(MINIMAL).with_overrides(seed=np.uint64(2**64 - 1), trials=np.int32(3))
        assert (out.base_seed, out.trials) == (2**64 - 1, 3)
        assert type(out.base_seed) is int and type(out.trials) is int

    def test_bad_estimator_override(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            cfg.with_overrides(estimator="capon")

    def test_bad_trials_override(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="trials"):
            cfg.with_overrides(trials=0)

    def test_non_finite_snr_override(self):
        cfg = parse_config(MINIMAL)
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="snr_db"):
                cfg.with_overrides(snr_db=value)

    def test_snr_override_refused_on_snr_sweep(self):
        cfg = load_packaged_config("fig6a")
        with pytest.raises(ConfigError, match="snr_db"):
            cfg.with_overrides(snr_db=-300.0)


class TestReplace:
    """`dataclasses.replace` validates like a config file."""

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"directions_deg": (), "amplitudes": ()}, "sources: need at least one source"),
            (
                {"directions_deg": (95.0, 9.0)},
                r"sources: directions_deg must lie strictly inside \(-90, 90\) degrees, "
                r"got \[95.0, 9.0\]",
            ),
            ({"amplitudes": (1.0,)}, "sources: amplitudes must match directions in length"),
            # These used to end in numpy's bare ValueError.
            ({"amplitudes": ("a", "b")}, r"sources: amplitudes must be numbers, got \('a', 'b'\)"),
            (
                {"directions_deg": ("a", 1.0)},
                r"sources: directions_deg must be numbers, got \('a', 1.0\)",
            ),
            ({"directions_deg": 5.0}, "sources: directions_deg must be a 1-D sequence"),
            # Values outside the sources block; each used to end in a bare
            # ValueError or TypeError.
            ({"sweep_values": ("a",)}, r"sweep_values must be numbers, got \('a',\)"),
            ({"snr_db": "x"}, "snr_db must be a finite number, got 'x'"),
            ({"grid_deg": (0, 1)}, r"run.grid: grid must be 3 numbers, got \(0, 1\)"),
            (
                {"grid_deg": ("a", 1, 0.1)},
                r"run.grid: grid must be 3 numbers, got \('a', 1, 0.1\)",
            ),
            # derive_seed masks the seed to 64 bits, so these aliased 2**64 - 1 and 0.
            ({"base_seed": -1}, r"base_seed must be in \[0, 2\*\*64\), got -1"),
            ({"base_seed": 2**64}, rf"base_seed must be in \[0, 2\*\*64\), got {2**64}"),
        ],
        ids=[
            "no-sources",
            "direction-95",
            "one-amplitude",
            "text-amplitudes",
            "text-direction",
            "scalar-direction",
            "text-sweep-value",
            "text-snr",
            "two-grid-values",
            "text-grid-start",
            "negative-seed",
            "seed-2**64",
        ],
    )
    def test_bad_sources(self, changes, message):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(parse_config(MINIMAL), **changes)

    @pytest.mark.parametrize("field", ["base_seed", "trials"])
    @pytest.mark.parametrize("value", [2.5, True, None], ids=repr)
    def test_non_integer_counts(self, field, value):
        # `trials=2.5` used to fail only inside `monte_carlo`, with a bare TypeError.
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(parse_config(MINIMAL), **{field: value})

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"subarrays": 5.7}, "geometry: subarray_count and elements_per_subarray must be whole"),
            ({"elements": 3.5}, "geometry: subarray_count and elements_per_subarray must be whole"),
            ({"layout": "spiral"}, "geometry: unknown layout 'spiral'"),
        ],
        ids=["fractional-subarrays", "fractional-elements", "unknown-layout"],
    )
    def test_bad_geometry(self, changes, message):
        # A fractional count used to be truncated by the run while the
        # sidecar recorded the fraction.
        config = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(config, geometry=dataclasses.replace(config.geometry, **changes))


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
