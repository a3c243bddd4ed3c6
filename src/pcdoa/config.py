"""Experiment configuration files.

A config is one YAML document with four blocks: `geometry`, `sources`,
`noise` and `run`. It loads as one `harness.TrialConfig` and is fully
validated at load. `parse_config` checks only the YAML shape (a block
that is not a mapping, an unknown key, a value that is not a number), so
typos fail loudly instead of silently running a different experiment.
The values are checked by the objects a run builds, each error raised as
`ConfigError`: `build_geometry` the geometry ("geometry: ..."),
`SourceScenario` the sources ("sources: ..."), `estimators.angle_grid`
the grid ("run.grid: ...") and `TrialConfig` the rest. README's "Config
format" section lists every rule. Overrides go through
`TrialConfig.with_overrides`, which validates the same way. Snapshot
files (the CLI's `--add`, read by `estimate` and `ingest` only) are not
part of a config. The packaged `configs/` directory holds one file per
reproducible figure-style run.
"""

from __future__ import annotations

import dataclasses
import math
import re
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


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's where present (it parses about eight
    times faster), reading exponent numbers such as 1e-2, 5E1 and 1.0e12
    as floats: PyYAML resolves YAML 1.1, which leaves them strings unless
    they hold a dot and a signed exponent."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _mapping(node, allowed, where):
    """``node`` if it is a mapping with no key outside ``allowed``."""
    if not isinstance(node, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in '{where}'")
    return node


def _number(node, key, where):
    if key not in node:
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


def _number_list(node, key, where, empty=False):
    """``node[key]``, a list of numbers, as floats; a missing or null list is
    ``()`` when ``empty`` allows it."""
    values = node.get(key)
    if values is None and empty:
        return ()
    if not isinstance(values, list):
        raise ConfigError(f"{where}.{key} must be a list")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key} entries must be numbers")
    return tuple(float(v) for v in values)


def parse_config(text: str) -> TrialConfig:
    """Parse and validate one YAML config document."""
    try:
        document = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    document = _mapping(document, _TOP_KEYS, "config")
    for block in ("geometry", "sources", "noise", "run"):
        if block not in document:
            raise ConfigError(f"config is missing the '{block}' block")

    geo = _mapping(document["geometry"], _GEOMETRY_KEYS, "geometry")
    spec = GeometrySpec(
        layout=geo.get("layout"),
        subarrays=_integer(geo, "subarrays", "geometry"),
        elements=_integer(geo, "elements", "geometry"),
        spacing=_number(geo, "spacing", "geometry"),
        aperture=_number(geo, "aperture", "geometry"),
        wavelength=_number(geo, "wavelength", "geometry"),
        seed=_integer(geo, "seed", "geometry", default=0),
    )

    sources = _mapping(document["sources"], _SOURCES_KEYS, "sources")
    directions = _number_list(sources, "directions_deg", "sources")
    amplitudes_node = sources.get("amplitudes")
    if not isinstance(amplitudes_node, list):
        raise ConfigError("sources.amplitudes must be a list")
    amplitudes = []
    for index, entry in enumerate(amplitudes_node):
        where = f"sources.amplitudes[{index}]"
        entry = _mapping(entry, _AMPLITUDE_KEYS, where)
        magnitude = _number(entry, "magnitude", where)
        phase = math.radians(_number(entry, "phase_deg", where))
        if not math.isfinite(phase):  # math.cos raises on an infinite angle
            raise ConfigError(f"'{where}.phase_deg' must be finite")
        amplitudes.append(magnitude * complex(math.cos(phase), math.sin(phase)))

    noise = _mapping(document["noise"], _NOISE_KEYS, "noise")
    snr_db = _number(noise, "snr_db", "noise")

    run = _mapping(document["run"], _RUN_KEYS, "run")
    grid = None
    if run.get("grid") is not None:
        grid_node = _mapping(run["grid"], _GRID_KEYS, "run.grid")
        grid = (
            _number(grid_node, "start_deg", "run.grid"),
            _number(grid_node, "stop_deg", "run.grid"),
            _number(grid_node, "step_deg", "run.grid"),
        )
    sweep_axis = "none"
    sweep_values: Tuple[float, ...] = ()
    if run.get("sweep") is not None:
        sweep_node = _mapping(run["sweep"], _SWEEP_KEYS, "run.sweep")
        sweep_axis = sweep_node.get("axis", "none")
        sweep_values = _number_list(sweep_node, "values", "run.sweep", empty=True)

    return TrialConfig(
        geometry=spec,
        directions_deg=directions,
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
    """Load one config file from disk; text that is not UTF-8 is a `ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_config(text)


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
