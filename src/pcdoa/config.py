"""Experiment configuration files.

A config is one YAML document with four blocks: `geometry`, `sources`,
`noise` and `run`, loaded and fully validated as one `harness.TrialConfig`.
`parse_config` checks only the YAML shape (a block that is not a mapping,
an unknown key or a missing one, so typos fail loudly) and turns each
polar amplitude (`magnitude`, `phase_deg`) into a complex number. Every
value is read by the library's number rule and checked once, by
`GeometrySpec` and `TrialConfig`, as for a config built in code; each
refusal is a `ConfigError` that names its block. README's "Config format"
section lists every rule. Snapshot files (the CLI's `--add`) are not part
of a config. The packaged `configs/` directory holds one file per
reproducible figure-style run.
"""

from __future__ import annotations

import dataclasses
import math
import re
from importlib import resources
from typing import Tuple

import yaml

from .array_model import _number
from .errors import ConfigError
from .harness import _GRID_KEYS, GeometrySpec, TrialConfig, _config_error

_GEOMETRY_KEYS = {f.name for f in dataclasses.fields(GeometrySpec)}
_SOURCES_KEYS = {"directions_deg", "amplitudes"}
_AMPLITUDE_KEYS = {"magnitude", "phase_deg"}
_NOISE_KEYS = {"snr_db"}
_RUN_KEYS = {"estimator", "grid", "seed", "trials", "sweep"}
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
    unknown = set(node).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in '{where}'")
    return node


def _required(node, key, where):
    """``node[key]``, or a `ConfigError` naming the block that misses it."""
    if key not in node:
        raise ConfigError(f"'{where}' is missing '{key}'")
    return node[key]


def _amplitude(entry, where) -> complex:
    """One {magnitude, phase_deg} entry as a complex amplitude."""
    entry = _mapping(entry, _AMPLITUDE_KEYS, where)
    magnitude, phase_deg = (_required(entry, key, where) for key in ("magnitude", "phase_deg"))
    with _config_error():
        magnitude = _number(magnitude, f"'{where}.magnitude'")
        # math.cos raises on an infinite angle.
        phase = math.radians(_number(phase_deg, f"'{where}.phase_deg'", finite=True))
    return magnitude * complex(math.cos(phase), math.sin(phase))


def parse_config(text: str) -> TrialConfig:
    """Parse one YAML config document; `TrialConfig` checks every value."""
    try:
        document = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    document = _mapping(document, _TOP_KEYS, "config")
    for block in ("geometry", "sources", "noise", "run"):
        if block not in document:
            raise ConfigError(f"config is missing the '{block}' block")

    geo = _mapping(document["geometry"], _GEOMETRY_KEYS, "geometry")
    required = ("subarrays", "elements", "spacing", "aperture", "wavelength")
    spec = GeometrySpec(
        layout=geo.get("layout"),
        seed=geo.get("seed", 0),
        **{key: _required(geo, key, "geometry") for key in required},
    )

    sources = _mapping(document["sources"], _SOURCES_KEYS, "sources")
    directions = _required(sources, "directions_deg", "sources")
    amplitudes = _required(sources, "amplitudes", "sources")
    if not isinstance(amplitudes, list):
        raise ConfigError("sources.amplitudes must be a list")

    noise = _mapping(document["noise"], _NOISE_KEYS, "noise")
    run = _mapping(document["run"], _RUN_KEYS, "run")
    grid = None
    if run.get("grid") is not None:
        grid_node = _mapping(run["grid"], _GRID_KEYS, "run.grid")
        grid = tuple(_required(grid_node, key, "run.grid") for key in _GRID_KEYS)
    sweep = {} if run.get("sweep") is None else _mapping(run["sweep"], _SWEEP_KEYS, "run.sweep")
    sweep_values = sweep.get("values")

    return TrialConfig(
        geometry=spec,
        directions_deg=directions,
        amplitudes=tuple(
            _amplitude(entry, f"sources.amplitudes[{index}]")
            for index, entry in enumerate(amplitudes)
        ),
        snr_db=_required(noise, "snr_db", "noise"),
        estimator=run.get("estimator"),
        grid_deg=grid,
        sweep_axis=sweep.get("axis", "none"),
        sweep_values=() if sweep_values is None else sweep_values,
        trials=run.get("trials", 1),
        base_seed=run.get("seed", 0),
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
