"""Experiment configuration files.

A config is one YAML document with four blocks: `geometry`, `sources`,
`noise` and `run`. It loads as one `harness.TrialConfig`, which is
fully validated at load: this module rejects a document of the wrong
shape (a block that is not a mapping, an unknown key or layout, a value
that is not a number), so typos fail loudly instead of silently running
a different experiment, and `TrialConfig` rejects bad values (a geometry
that `build_geometry` refuses, estimator, sweep axis and values, trial
count, one amplitude per direction, fewer sources than elements per
subarray, a finite SNR, finite directions strictly inside (-90, 90)
degrees, finite amplitudes, a grid that `estimators.angle_grid` accepts,
a separation sweep of exactly two sources that keeps sin(theta_2)
strictly inside (-1, 1)). Overrides go through
`TrialConfig.with_overrides`, which validates the same way and refuses an
`snr_db` override on an SNR sweep. Snapshot files (the CLI's `--add`,
read by `estimate` and `ingest` only) are not part of a config. The
packaged `configs/` directory holds one file per reproducible
figure-style run.
"""

from __future__ import annotations

import dataclasses
import math
from importlib import resources
from typing import Tuple

import yaml

from .errors import ConfigError
from .harness import GeometrySpec, TrialConfig

_GEOMETRY_KEYS = {f.name for f in dataclasses.fields(GeometrySpec)}
_SOURCES_KEYS = {"directions_deg", "amplitudes"}
_AMPLITUDE_KEYS = {"magnitude", "phase_deg"}
_NOISE_KEYS = {"snr_db"}
_RUN_KEYS = {"estimator", "grid", "seed", "trials", "sweep"}
_GRID_KEYS = {"start_deg", "stop_deg", "step_deg"}
_SWEEP_KEYS = {"axis", "values"}
_TOP_KEYS = {"geometry", "sources", "noise", "run"}


def _require_mapping(node, where):
    if not isinstance(node, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    return node


def _check_keys(node, allowed, where):
    unknown = set(node) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{name}' in '{where}'")


def _number(node, key, where, default=None):
    if key not in node:
        if default is not None:
            return default
        raise ConfigError(f"'{where}' is missing '{key}'")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}.{key}' must be a number")
    return float(value)


def _integer(node, key, where, default=None):
    if key not in node:
        if default is not None:
            return default
        raise ConfigError(f"'{where}' is missing '{key}'")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}.{key}' must be an integer")
    return value


def parse_config(text: str) -> TrialConfig:
    """Parse and validate one YAML config document."""
    try:
        # libyaml parses about eight times faster; the pure-Python loader
        # stays for hosts without it.
        document = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    document = _require_mapping(document, "config")
    _check_keys(document, _TOP_KEYS, "config")
    for block in ("geometry", "sources", "noise", "run"):
        if block not in document:
            raise ConfigError(f"config is missing the '{block}' block")

    geo = _require_mapping(document["geometry"], "geometry")
    _check_keys(geo, _GEOMETRY_KEYS, "geometry")
    layout = geo.get("layout")
    if layout not in ("equidistant", "uniform_random"):
        raise ConfigError(
            f"geometry.layout must be 'equidistant' or 'uniform_random', got {layout!r}"
        )
    spec = GeometrySpec(
        layout=layout,
        subarrays=_integer(geo, "subarrays", "geometry"),
        elements=_integer(geo, "elements", "geometry"),
        spacing=_number(geo, "spacing", "geometry"),
        aperture=_number(geo, "aperture", "geometry"),
        wavelength=_number(geo, "wavelength", "geometry"),
        seed=_integer(geo, "seed", "geometry", default=0),
    )

    sources = _require_mapping(document["sources"], "sources")
    _check_keys(sources, _SOURCES_KEYS, "sources")
    directions = sources.get("directions_deg")
    if not isinstance(directions, list) or not directions:
        raise ConfigError("sources.directions_deg must be a non-empty list")
    for value in directions:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("sources.directions_deg entries must be numbers")
    amplitudes_node = sources.get("amplitudes")
    if not isinstance(amplitudes_node, list):
        raise ConfigError("sources.amplitudes must be a list")
    amplitudes = []
    for index, entry in enumerate(amplitudes_node):
        where = f"sources.amplitudes[{index}]"
        entry = _require_mapping(entry, where)
        _check_keys(entry, _AMPLITUDE_KEYS, where)
        magnitude = _number(entry, "magnitude", where)
        phase = math.radians(_number(entry, "phase_deg", where))
        if not math.isfinite(phase):  # math.cos raises on an infinite angle
            raise ConfigError(f"'{where}.phase_deg' must be finite")
        amplitudes.append(magnitude * complex(math.cos(phase), math.sin(phase)))

    noise = _require_mapping(document["noise"], "noise")
    _check_keys(noise, _NOISE_KEYS, "noise")
    snr_db = _number(noise, "snr_db", "noise")

    run = _require_mapping(document["run"], "run")
    _check_keys(run, _RUN_KEYS, "run")
    grid = None
    if run.get("grid") is not None:
        grid_node = _require_mapping(run["grid"], "run.grid")
        _check_keys(grid_node, _GRID_KEYS, "run.grid")
        grid = (
            _number(grid_node, "start_deg", "run.grid"),
            _number(grid_node, "stop_deg", "run.grid"),
            _number(grid_node, "step_deg", "run.grid"),
        )
    sweep_axis = "none"
    sweep_values: Tuple[float, ...] = ()
    if run.get("sweep") is not None:
        sweep_node = _require_mapping(run["sweep"], "run.sweep")
        _check_keys(sweep_node, _SWEEP_KEYS, "run.sweep")
        sweep_axis = sweep_node.get("axis", "none")
        raw_values = sweep_node.get("values", [])
        if raw_values is None:
            raw_values = []
        if not isinstance(raw_values, list):
            raise ConfigError("run.sweep.values must be a list")
        for value in raw_values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError("run.sweep.values entries must be numbers")
        sweep_values = tuple(float(v) for v in raw_values)

    return TrialConfig(
        geometry=spec,
        directions_deg=tuple(float(v) for v in directions),
        amplitudes=tuple(amplitudes),
        snr_db=snr_db,
        estimator=run.get("estimator"),
        grid_deg=grid,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        trials=_integer(run, "trials", "run", default=1),
        base_seed=_integer(run, "seed", "run", default=0),
    )


def load_config(path) -> TrialConfig:
    """Load one config file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def packaged_config_names() -> Tuple[str, ...]:
    """Names of the configs shipped inside the package."""
    entries = []
    for item in resources.files("pcdoa").joinpath("configs").iterdir():
        if item.name.endswith(".yaml"):
            entries.append(item.name[: -len(".yaml")])
    return tuple(sorted(entries))


def load_packaged_config(name: str) -> TrialConfig:
    """Load one of the packaged figure configs by bare name (e.g. 'fig6b')."""
    resource = resources.files("pcdoa").joinpath("configs").joinpath(f"{name}.yaml")
    try:
        text = resource.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(packaged_config_names())
        raise ConfigError(f"no packaged config named {name!r} (known: {known})") from None
    return parse_config(text)
