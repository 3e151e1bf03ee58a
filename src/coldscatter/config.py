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
import math
from dataclasses import dataclass, field
from decimal import Decimal

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "parse_text",
           "override_run", "canonical_text", "config_hash", "SCENARIOS"]


class ConfigError(ValueError):
    """Carries every validation problem found in a config file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


# Float keys must be finite: every predicate fails on nan, and all but
# that of diffusion.l_g (where +inf means no gain) fail on an infinity.

def _positive(x):
    return 0 < x < math.inf


def _non_negative(x):
    return 0 <= x < math.inf


def _unit_interval(x):
    return 0.0 <= x <= 1.0


def _sweep(start, stop, *domain):
    """The [sweep] range and domain of a scenario that does not sweep the
    probe detuning (the schema's -5..5)."""
    return {"sweep.start": (start, *domain), "sweep.stop": (stop, *domain)}


# scenario -> (the keys its runner reads, "section" for all of a
# section's keys; {"section.key": (default, predicate, description)}
# where the scenario's own default and domain replace the schema's).  A
# config may set these and [run]'s keys, which the CLI reads, and no
# other key; only a scenario that draws random numbers reads run.seed.
_READS = {
    "cbs-cone": ("atom cloud detection mc run.seed", {}),
    "ladder-spectrum": ("atom cloud sweep mc run.seed", {}),
    "gain-transport": ("atom cloud sweep mc run.seed", _sweep(
        0.0, 1.0, _non_negative,
        ">= 0 (gain cross section per sigma0) in a gain-transport sweep")),
    # the EIT control field drives a second ground level
    "eit-spectrum": ("atom control cloud.n0 sweep", {"atom.kind": (
        "lambda-rb87", lambda s: s in ("rb85", "rb87", "lambda-rb87"),
        "an atom with two ground levels (rb85, rb87 or lambda-rb87) in an "
        "eit-spectrum run")}),
    "coupled-dipole-spectrum": ("dipole sweep run.seed", {}),
    "selfconsistent-slab": ("slab sweep", {}),
    # brackets the Letokhov radius pi sqrt(l_tr l_g / 3) ~ 5.74 of the
    # default [diffusion] lengths
    "diffusion-threshold": ("diffusion sweep", _sweep(
        3.0, 9.0, _positive,
        "> 0 (radius, lambda-bar) in a diffusion-threshold sweep")),
    "protocol-utils": ("protocol sweep", _sweep(
        0.0, 5.0, _non_negative,
        ">= 0 (mean photon number) in a protocol-utils sweep")),
}
SCENARIOS = tuple(_READS)


# key -> (type, default_or_None_if_required, predicate, description)
_SCHEMA = {
    "run": {
        "scenario": (str, None, lambda s: s in SCENARIOS,
                     "one of " + ", ".join(SCENARIOS)),
        # the seed is the first Philox key word, a uint64
        "seed": (int, 0, lambda s: 0 <= s < 2 ** 64, "in [0, 2^64)"),
        "workers": (int, 1, _positive, "> 0"),
        "out": (str, ".", lambda s: "\n" not in s,
                "output directory, on one line"),
    },
    "atom": {
        "kind": (str, "two-level",
                 lambda s: s in ("two-level", "rb85", "rb87", "lambda-rb87"),
                 "two-level, rb85, rb87 or lambda-rb87"),
    },
    "cloud": {
        "n0": (float, 0.01, _positive, "finite > 0 (units n0 lambda-bar^3)"),
        "r0": (float, 10.0, _positive, "finite > 0 (lambda-bar)"),
    },
    "control": {
        "rabi": (float, 0.0, _non_negative, "finite >= 0 (gamma)"),
        "polarization_q": (int, 0, lambda q: q in (-1, 0, 1), "-1, 0 or 1"),
    },
    "detection": {
        "channel": (str, "hel_par",
                    lambda s: s in ("hel_par", "hel_perp", "lin_par",
                                    "lin_perp"),
                    "hel_par, hel_perp, lin_par or lin_perp"),
        "theta_max": (float, 0.3, _positive, "finite > 0 (rad)"),
        "n_theta": (int, 7, _positive, "> 0"),
    },
    "sweep": {
        "start": (float, -5.0, math.isfinite, "finite sweep start"),
        "stop": (float, 5.0, math.isfinite, "finite sweep stop"),
        "n": (int, 21, _positive, "> 0"),
    },
    "mc": {
        "trajectories": (int, 20000, _positive, "> 0"),
        "max_order": (int, 50, _positive, "> 0"),
        "chunk_size": (int, 20000, _positive, "> 0"),
    },
    "dipole": {
        "n_atoms": (int, 2, _positive, "> 0"),
        "radius": (float, 10.0, _positive, "finite > 0 (lambda-bar)"),
        "model": (str, "vector", lambda s: s in ("scalar", "vector"),
                  "scalar or vector"),
        "n_configs": (int, 8, _positive, "> 0"),
        "geometry": (str, "ball", lambda s: s in ("ball", "gaussian"),
                     "ball or gaussian"),
    },
    "slab": {
        "thickness": (float, 10.0, _positive, "finite > 0 (lambda-bar)"),
        "density": (float, 0.001, _positive, "finite > 0 (scaled)"),
    },
    "diffusion": {
        "l_tr": (float, 1.0, _positive, "finite > 0 (lambda-bar)"),
        "l_g": (float, 10.0, lambda x: x > 0,
                "> 0 (lambda-bar; inf: no gain)"),
        "v_bar": (float, 1.0, _positive, "finite > 0 (c)"),
        "albedo": (float, 1.0, _unit_interval, "in [0, 1]"),
    },
    "protocol": {
        "xi": (float, 0.01, _non_negative, "finite >= 0"),
        "i_mean": (float, 1.0, math.isfinite, "finite mean intensity"),
        "n_atoms": (float, 100.0, _non_negative, "finite >= 0"),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated configuration: [run] and the keys its scenario reads."""
    scenario: str
    values: dict = field(default_factory=dict)  # section -> key -> value

    def __getitem__(self, section):
        return self.values[section]


def _convert(raw: str, typ, section, key, errors):
    try:
        if typ is int:
            # exact, where float() would round beyond 2^53.  An integral
            # decimal such as 1e3 is accepted and a fraction is not; a
            # finite float() bounds the digits int() builds (1e999999999)
            d = Decimal(raw)
            if not (math.isfinite(float(d)) and d == d.to_integral_value()):
                raise ValueError
            return int(d)
        return typ(raw)
    except (ValueError, ArithmeticError):
        errors.append(f"{section}.{key}: cannot parse {raw!r} as "
                      f"{typ.__name__}")
        return None


def _entries(names, own):
    """(section, key) -> (type, default, predicate, description) of each
    key ``names`` lists ("section.key", or "section" for all its keys),
    with the defaults and domains in ``own`` in place of the schema's."""
    keys = {}
    for name in names.split():
        section, _, key = name.partition(".")
        for key in (key,) if key else _SCHEMA[section]:
            typ, *entry = _SCHEMA[section][key]
            keys[section, key] = (typ, *own.get(f"{section}.{key}", entry))
    return keys


def parse_text(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse and validate config text read from ``source``, raising
    ConfigError with every problem found."""
    # configparser would copy the keys of a [DEFAULT] section into every
    # section; a default-section name no header can spell ("[]" is not a
    # header) makes [DEFAULT] an ordinary section, and so an unknown one
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        # one line, where configparser's message may span several
        raise ConfigError(["syntax error: " + " ".join(
            line.strip() for line in str(exc).splitlines())]) from exc

    errors = []
    scenario = cp.get("run", "scenario", fallback=None)
    # the CLI reads [run]; without a known scenario, check every key
    names, own = _READS.get(scenario, (" ".join(_SCHEMA), {}))
    accepted = _entries("run " + names, own)
    for section in cp.sections():
        if section not in _SCHEMA:
            hint = difflib.get_close_matches(section, _SCHEMA, n=1)
            extra = f" (did you mean [{hint[0]}]?)" if hint else ""
            errors.append(f"unknown section [{section}]{extra}")
            continue
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                hint = difflib.get_close_matches(key, _SCHEMA[section], n=1)
                extra = f" (did you mean {section}.{hint[0]}?)" if hint else ""
                errors.append(f"unknown key {section}.{key}{extra}")
            elif (section, key) not in accepted:
                errors.append(f"{scenario} does not read {section}.{key}")

    values = {}
    for (section, key), (typ, default, pred, desc) in accepted.items():
        raw = cp.get(section, key, fallback=None)
        val = default if raw is None \
            else _convert(raw, typ, section, key, errors)
        if raw is not None and val is not None and not pred(val):
            errors.append(f"{section}.{key}: {val!r} violates: {desc}")
        values.setdefault(section, {})[key] = val
    if scenario is None:
        errors.append("run.scenario is required" if cp.has_section("run")
                      else "missing required section [run]")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenario=scenario, values=values)


def parse_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), str(path))


def override_run(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """``config`` with the given [run] keys replaced (None keeps a key).
    Each value must pass the check the key has in a config file; every
    failure is reported in one ConfigError."""
    overrides = {k: v for k, v in overrides.items() if v is not None}
    schema = _SCHEMA["run"]
    errors = [f"run.{key}: {val!r} violates: {schema[key][3]}"
              for key, val in overrides.items() if not schema[key][2](val)]
    if errors:
        raise ConfigError(errors)
    run = {**config["run"], **overrides}
    return ScenarioConfig(config.scenario, {**config.values, "run": run})


def canonical_text(config: ScenarioConfig) -> str:
    """Canonical INI rendering: sorted sections and keys, normalized
    values.  parse(canonical_text(c)) == c."""
    buf = io.StringIO()
    for section in sorted(config.values):
        buf.write(f"[{section}]\n")
        for key in sorted(config.values[section]):
            buf.write(f"{key} = {config.values[section][key]}\n")
        buf.write("\n")
    return buf.getvalue()


def config_hash(config: ScenarioConfig) -> str:
    """sha256 of the canonical text of the scenario and the keys it reads:
    not of run.out and run.workers, which decide where and how wide a run
    executes, nor of the seed of a scenario that draws no random number."""
    values = {"run": {"scenario": config.scenario}}
    for section, key in _entries(*_READS[config.scenario]):
        values.setdefault(section, {})[key] = config[section][key]
    text = canonical_text(ScenarioConfig(config.scenario, values))
    return hashlib.sha256(text.encode()).hexdigest()
