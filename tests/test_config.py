import cmath
import dataclasses
import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest

from pcdoa.config import (
    load_config,
    load_packaged_config,
    packaged_config_names,
    parse_config,
)
from pcdoa.errors import ConfigError
from pcdoa.harness import GeometrySpec, TrialConfig

BIG = 10**400  # an integer too large for a float

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

    def test_exponent_numbers_load_as_floats(self):
        # YAML 1.1 reads these as strings; each used to be refused as
        # "must be a number".
        text = MINIMAL.replace("aperture: 12.0", "aperture: 1.0e12") + (
            "  grid: {start_deg: -5E1, stop_deg: 5e1, step_deg: 5e-2}\n"
        )
        config = parse_config(text)
        assert config.geometry.aperture == 1e12
        assert config.grid_deg == (-50.0, 50.0, 0.05)

    def test_quoted_exponent_stays_text(self):
        text = MINIMAL + '  grid: {start_deg: -5.0, stop_deg: 5.0, step_deg: "5e-2"}\n'
        with pytest.raises(ConfigError, match=r"run.grid: grid must be 3 numbers, got .*'5e-2'"):
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
            # A mapping or set has no order; both used to be refused as not a list.
            ("  sweep: {axis: snr, values: {10.0: x}}\n", "sweep_values must be numbers"),
            ("  sweep: {axis: snr, values: !!set {10.0}}\n", "sweep_values must be numbers"),
        ],
        ids=["zero-trials", "unsorted-sweep", "values-without-axis", "axis-without-values",
             "mapping-sweep", "set-sweep"],
    )
    def test_bad_values_rejected_at_load(self, run_lines, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(MINIMAL + run_lines)

    @pytest.mark.parametrize(
        "text,message",
        [
            # The values are checked by TrialConfig, as for a config built in code.
            (
                MINIMAL.replace("[2.0, 9.0]", "2.0"),
                "sources: directions_deg must be a 1-D sequence",
            ),
            (
                MINIMAL.replace("[2.0, 9.0]", "[2.0, true]"),
                "sources: directions_deg must be numbers, got [2.0, True]",
            ),
            (
                MINIMAL + "  sweep: {axis: snr, values: 10.0}\n",
                "sweep_values must be numbers, got 10.0",
            ),
            (
                MINIMAL + "  sweep: {axis: snr, values: [10.0, x]}\n",
                "sweep_values must be numbers, got [10.0, 'x']",
            ),
            (MINIMAL.replace("  subarrays: 4\n", ""), "'geometry' is missing 'subarrays'"),
            (MINIMAL + "  trials: 2.5\n", "trials must be an integer, got 2.5"),
            # Each used to end in an OverflowError traceback.
            (
                MINIMAL.replace("snr_db: 20.0", f"snr_db: {BIG}"),
                f"snr_db must be a finite number, got {BIG}",
            ),
            (
                MINIMAL.replace("phase_deg: 90.0", f"phase_deg: {BIG}"),
                f"'sources.amplitudes[1].phase_deg' must be a finite number, got {BIG}",
            ),
        ],
        ids=[
            "directions-scalar",
            "directions-bool",
            "sweep-scalar",
            "sweep-text",
            "missing-subarrays",
            "fractional-trials",
            "401-digit-snr",
            "401-digit-phase",
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

    def test_source_rule_prints_the_built_element_count(self):
        # A whole float count used to be printed as given: "(2.0)".
        config = parse_config(MINIMAL)
        geometry = dataclasses.replace(config.geometry, elements=2.0)
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(config, geometry=geometry)
        assert str(info.value) == "need fewer sources (2) than elements per subarray (2)"


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
            # These used to end in an OverflowError traceback.
            ({"snr_db": BIG}, f"snr_db must be a finite number, got {BIG}"),
            ({"grid_deg": (0, 1, BIG)}, rf"run.grid: grid must be 3 numbers, got \(0, 1, {BIG}\)"),
            ({"sweep_values": (BIG,)}, rf"sweep_values must be numbers, got \({BIG},\)"),
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
            "401-digit-snr",
            "401-digit-grid-step",
            "401-digit-sweep-value",
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
            ({"subarrays": 5.7}, "geometry: subarrays must be a whole number, got 5.7"),
            ({"elements": 3.5}, "geometry: elements must be a whole number, got 3.5"),
            ({"layout": "spiral"}, "geometry: unknown layout 'spiral'"),
            # ArrayGeometry's rule; build_geometry no longer repeats it.
            ({"wavelength": 0.0}, "geometry: wavelength must be positive and finite"),
            ({"wavelength": math.inf}, "geometry: wavelength must be positive and finite"),
            # The random layout used to end in numpy's OverflowError.
            ({"layout": "uniform_random", "aperture": math.inf}, "geometry: aperture must be finite"),
            # These used to allocate the displacements first and end in
            # numpy's MemoryError or an OverflowError.
            (
                {"subarrays": 10**11},
                "geometry: 100000000000 subarrays of 3 elements exceed 1000000 elements",
            ),
            ({"subarrays": 10**400}, "subarrays of 3 elements exceed 1000000 elements"),
            (
                {"subarrays": 1001, "elements": 1000},
                "geometry: 1001 subarrays of 1000 elements exceed 1000000 elements",
            ),
        ],
        ids=[
            "fractional-subarrays",
            "fractional-elements",
            "unknown-layout",
            "zero-wavelength",
            "inf-wavelength",
            "inf-random-aperture",
            "1e11-subarrays",
            "1e400-subarrays",
            "just-over-the-cap",
        ],
    )
    def test_bad_geometry(self, changes, message):
        # A fractional count used to be truncated by the run while the
        # sidecar recorded the fraction.
        config = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(config, geometry=dataclasses.replace(config.geometry, **changes))


    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"spacing": "0.5"}, "geometry: spacing must be a number, got '0.5'"),
            ({"aperture": None}, "geometry: aperture must be a number, got None"),
            (
                {"layout": "uniform_random", "seed": "3"},
                "geometry: seed must be a number, got '3'",
            ),
            ({"subarrays": "10"}, "geometry: subarrays must be a number, got '10'"),
            ({"wavelength": True}, "geometry: wavelength must be a number, got True"),
            ({"seed": 2.5}, "geometry: seed must be a whole number, got 2.5"),
            ({"spacing": BIG}, f"geometry: spacing must be a number, got {BIG}"),
        ],
        ids=["text-spacing", "none-aperture", "text-seed", "text-subarrays", "bool-wavelength",
             "fractional-seed", "401-digit-spacing"],
    )
    def test_geometry_value_that_is_not_a_number(self, changes, message):
        # Text spacing, a None aperture and a text seed used to end in a bare
        # TypeError; text subarrays, a bool wavelength and a fractional seed
        # were accepted.
        geometry = load_packaged_config("fig6a").geometry
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(geometry, **changes)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "changes,message",
        [
            (
                {"directions_deg": ("1.2", "14.2")},
                "sources: directions_deg must be numbers, got ('1.2', '14.2')",
            ),
            (
                {"directions_deg": (True, 14.2)},
                "sources: directions_deg must be numbers, got (True, 14.2)",
            ),
            ({"amplitudes": ("1", "3j")}, "sources: amplitudes must be numbers, got ('1', '3j')"),
            ({"amplitudes": (0, 3j)}, "sources: amplitudes must be nonzero, got (0j, 3j)"),
            (
                {"directions_deg": (1.2, BIG)},
                f"sources: directions_deg must be numbers, got (1.2, {BIG})",
            ),
            ({"amplitudes": (1, BIG)}, f"sources: amplitudes must be numbers, got (1, {BIG})"),
        ],
        ids=["text-directions", "bool-direction", "text-amplitudes", "zero-amplitude",
             "401-digit-direction", "401-digit-amplitude"],
    )
    def test_source_value_numpy_would_convert(self, changes, message):
        # Each used to be accepted; text then made `as_dict()` raise, and a
        # silent source ran every trial to a meaningless RMSE.
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(load_packaged_config("fig6a"), **changes)
        assert str(info.value) == message


class TestNormalized:
    """A config built in code is stored as the same config read from YAML."""

    def test_whole_float_geometry_counts_load_as_ints(self):
        text = (
            MINIMAL.replace("subarrays: 4", "subarrays: 4.0")
            .replace("elements: 3", "elements: 3.0")
            .replace("wavelength: 1.0", "wavelength: 1.0\n  seed: 2.0")
        )
        geometry = parse_config(text).geometry
        assert (geometry.subarrays, geometry.elements, geometry.seed) == (4, 3, 2)
        assert {type(n) for n in (geometry.subarrays, geometry.elements, geometry.seed)} == {int}

    def test_code_built_twin_writes_the_packaged_sidecar(self):
        # The twin compared equal before, but its sidecar wrote 450, 20 and 0
        # where the YAML run writes 450.0, 20.0 and 0.0.
        fig5a = load_packaged_config("fig5a")
        twin = TrialConfig(
            geometry=GeometrySpec("equidistant", 10, 10, 0.5, 450, 1),
            directions_deg=(1.2, 14.2),
            amplitudes=(cmath.rect(1, math.radians(36)), cmath.rect(3, math.radians(108))),
            snr_db=20,
            estimator="bss_nls",
            grid_deg=(0, 16, 0.01),
        )
        assert twin == fig5a
        assert json.dumps(twin.as_dict()) == json.dumps(fig5a.as_dict())

    def test_numpy_values_stored_as_python_numbers(self):
        base = parse_config(MINIMAL)
        config = dataclasses.replace(
            base,
            directions_deg=np.array([2.0, 9.0]),
            amplitudes=np.array(base.amplitudes),
            snr_db=np.float32(20.0),
        )
        assert config == base
        assert type(config.snr_db) is float
        assert {type(v) for v in config.directions_deg} == {float}
        assert {type(v) for v in config.amplitudes} == {complex}


class TestRoundTrip:
    def test_as_dict_reparses_identically(self):
        import yaml

        cfg = parse_config(MINIMAL)
        again = parse_config(yaml.safe_dump(cfg.as_dict()))
        assert again == cfg

    @pytest.mark.parametrize("name", sorted(packaged_config_names()))
    def test_sidecar_json_reparses_identically(self, name):
        # The CLI writes `as_dict()` as JSON, which is YAML too.
        config = load_packaged_config(name)
        assert parse_config(json.dumps(config.as_dict())) == config

    def test_phase_preserved(self):
        cfg = parse_config(MINIMAL)
        d = cfg.as_dict()
        assert d["sources"]["amplitudes"][1]["phase_deg"] == pytest.approx(90.0)
        assert d["sources"]["amplitudes"][1]["magnitude"] == pytest.approx(3.0)


class TestMemo:
    """Each distinct text is parsed once per process, and nothing else
    about a parse changes."""

    def test_edited_file_is_parsed_again(self, tmp_path, clear_memos):
        path = tmp_path / "run.yaml"
        path.write_text(MINIMAL)
        assert load_config(path).snr_db == 20.0
        path.write_text(MINIMAL.replace("snr_db: 20.0", "snr_db: 7.0"))
        assert load_config(path).snr_db == 7.0

    def test_warnings_raised_on_every_parse(self, clear_memos):
        text = MINIMAL.replace("[2.0, 9.0]", "[-2.0, 9.0]")
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parse_config(text)
            assert [str(w.message) for w in caught] == [
                "directions span both sides of broadside; the single-side "
                "assumption of the signal model is violated"
            ]

    def test_errors_are_raised_on_every_parse(self, clear_memos):
        text = MINIMAL.replace("snr_db: 20.0", "snr_db: .nan")
        for _ in range(2):
            with pytest.raises(ConfigError):
                parse_config(text)


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
