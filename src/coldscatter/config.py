"""Scenario configuration: INI-style parsing with full validation.

A config file is sectioned ``key = value`` text.  All physical
quantities are dimensionless in the gamma = 1, lambda-bar = 1 unit
system; keys carrying other units are rejected.  Validation gathers
every error before reporting instead of stopping at the first.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import io
import json
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "parse_text",
           "canonical_text", "config_hash", "SCENARIOS"]

SCENARIOS = (
    "cbs-cone", "ladder-spectrum", "gain-transport", "eit-spectrum",
    "coupled-dipole-spectrum", "selfconsistent-slab", "diffusion-threshold",
    "protocol-utils",
)


class ConfigError(ValueError):
    """Carries every validation problem found in a config file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _unit_interval(x):
    return 0.0 <= x <= 1.0


# key -> (type, default_or_None_if_required, predicate, description)
_SCHEMA = {
    "run": {
        "scenario": (str, None, lambda s: s in SCENARIOS,
                     "one of " + ", ".join(SCENARIOS)),
        "seed": (int, 0, _non_negative, ">= 0"),
        "workers": (int, 1, _positive, "> 0"),
        "out": (str, ".", lambda s: True, "output directory"),
    },
    "atom": {
        "kind": (str, "two-level",
                 lambda s: s in ("two-level", "rb85", "rb87", "lambda-rb87"),
                 "two-level, rb85, rb87 or lambda-rb87"),
    },
    "cloud": {
        "n0": (float, 0.01, _positive, "> 0 (units n0 lambda-bar^3)"),
        "r0": (float, 10.0, _positive, "> 0 (lambda-bar)"),
    },
    "control": {
        "rabi": (float, 0.0, _non_negative, ">= 0 (gamma)"),
        "polarization_q": (int, 0, lambda q: q in (-1, 0, 1), "-1, 0 or 1"),
    },
    "detection": {
        "channel": (str, "hel_par",
                    lambda s: s in ("hel_par", "hel_perp", "lin_par",
                                    "lin_perp"),
                    "hel_par, hel_perp, lin_par or lin_perp"),
        "theta_max": (float, 0.3, _positive, "> 0 (rad)"),
        "n_theta": (int, 7, _positive, "> 0"),
    },
    "sweep": {
        "start": (float, -5.0, lambda x: True, "sweep start"),
        "stop": (float, 5.0, lambda x: True, "sweep stop"),
        "n": (int, 21, _positive, "> 0"),
    },
    "mc": {
        "trajectories": (int, 20000, _positive, "> 0"),
        "max_order": (int, 50, _positive, "> 0"),
        "chunk_size": (int, 20000, _positive, "> 0"),
    },
    "dipole": {
        "n_atoms": (int, 2, _positive, "> 0"),
        "radius": (float, 10.0, _positive, "> 0 (lambda-bar)"),
        "model": (str, "vector", lambda s: s in ("scalar", "vector"),
                  "scalar or vector"),
        "n_configs": (int, 8, _positive, "> 0"),
        "geometry": (str, "ball", lambda s: s in ("ball", "gaussian"),
                     "ball or gaussian"),
    },
    "slab": {
        "thickness": (float, 10.0, _positive, "> 0 (lambda-bar)"),
        "density": (float, 0.001, _positive, "> 0 (scaled)"),
    },
    "diffusion": {
        "l_tr": (float, 1.0, _positive, "> 0 (lambda-bar)"),
        "l_g": (float, 10.0, _positive, "> 0 (lambda-bar)"),
        "v_bar": (float, 1.0, _positive, "> 0 (c)"),
        "albedo": (float, 1.0, _unit_interval, "in [0, 1]"),
    },
    "protocol": {
        "n_bar": (float, 1.0, _non_negative, ">= 0"),
        "xi": (float, 0.01, _non_negative, ">= 0"),
        "i_mean": (float, 1.0, lambda x: True, "mean intensity"),
        "n_atoms": (float, 100.0, _non_negative, ">= 0"),
    },
}

# sections whose values a scenario actually consumes (others may be
# present but are still validated)
_USED = {
    "cbs-cone": ("run", "atom", "cloud", "detection", "mc"),
    "ladder-spectrum": ("run", "atom", "cloud", "detection", "sweep", "mc"),
    "gain-transport": ("run", "atom", "cloud", "sweep", "mc"),
    "eit-spectrum": ("run", "atom", "cloud", "control", "sweep"),
    "coupled-dipole-spectrum": ("run", "dipole", "sweep"),
    "selfconsistent-slab": ("run", "slab", "sweep"),
    "diffusion-threshold": ("run", "diffusion", "sweep"),
    "protocol-utils": ("run", "protocol", "sweep"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, fully defaulted scenario configuration."""
    scenario: str
    values: dict = field(default_factory=dict)  # section -> key -> value

    def __getitem__(self, section):
        return self.values[section]

    def used_sections(self):
        return _USED[self.scenario]


def _convert(raw: str, typ, section, key, errors):
    try:
        if typ is int:
            # reject silent float truncation
            f = float(raw)
            i = int(f)
            if i != f:
                raise ValueError
            return i
        return typ(raw)
    except ValueError:
        errors.append(f"{section}.{key}: cannot parse {raw!r} as "
                      f"{typ.__name__}")
        return None


def parse_text(text: str) -> ScenarioConfig:
    """Parse and validate config text, raising ConfigError with every
    problem found."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc

    errors = []
    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            hint = difflib.get_close_matches(section, _SCHEMA, n=1)
            extra = f" (did you mean [{hint[0]}]?)" if hint else ""
            errors.append(f"unknown section [{section}]{extra}")
            continue
        schema = _SCHEMA[section]
        out = {}
        for key, raw in cp.items(section):
            if key not in schema:
                hint = difflib.get_close_matches(key, schema, n=1)
                extra = f" (did you mean {section}.{hint[0]}?)" if hint else ""
                errors.append(f"unknown key {section}.{key}{extra}")
                continue
            typ, _, pred, desc = schema[key]
            val = _convert(raw, typ, section, key, errors)
            if val is not None and not pred(val):
                errors.append(f"{section}.{key}: {val!r} violates: {desc}")
            elif val is not None:
                out[key] = val
        values[section] = out

    scenario = values.get("run", {}).get("scenario")
    if "run" not in cp.sections():
        errors.append("missing required section [run]")
    elif scenario is None and not any(e.startswith("run.scenario")
                                      for e in errors):
        errors.append("run.scenario is required")
    if errors:
        raise ConfigError(errors)

    # fill defaults for every schema section so scenarios never KeyError
    full = {}
    for section, schema in _SCHEMA.items():
        got = values.get(section, {})
        full[section] = {key: got.get(key, entry[1])
                         for key, entry in schema.items()}
    return ScenarioConfig(scenario=scenario, values=full)


def parse_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def canonical_text(config: ScenarioConfig) -> str:
    """Canonical INI rendering: sorted sections and keys, normalized
    values.  parse(canonical_text(c)) == c."""
    buf = io.StringIO()
    for section in sorted(config.values):
        buf.write(f"[{section}]\n")
        for key in sorted(config.values[section]):
            buf.write(f"{key} = {config.values[section][key]!r}\n".replace(
                "'", ""))
        buf.write("\n")
    return buf.getvalue()


def config_hash(config: ScenarioConfig) -> str:
    """sha256 of the canonical text without ``run.out`` and ``run.workers``,
    which decide where and how wide a run executes but not its results."""
    run = {key: val for key, val in config["run"].items()
           if key not in ("out", "workers")}
    physics = ScenarioConfig(config.scenario, {**config.values, "run": run})
    return hashlib.sha256(canonical_text(physics).encode()).hexdigest()


def to_json_dict(config: ScenarioConfig) -> dict:
    return {"scenario": config.scenario, "values": config.values}


def _self_check():  # pragma: no cover
    json.dumps(to_json_dict(parse_text("[run]\nscenario = cbs-cone\n")))
