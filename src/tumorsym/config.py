"""Run configuration: one INI file fully determines a run.

Unknown sections or keys are rejected so that a config hash identifies a
reproducible report.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Optional

from .residuals import SampleSet
from .solutions import FAMILY_IDS

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    pass


_SAMPLE_KEYS = {"times", "n_r", "n_theta", "r_min_fraction"}
_TOLERANCE_KEYS = {"governing", "boundary", "reduced", "orbit_factor"}
_ORBIT_KEYS = {"element", "eps", "f", "axis"}
_OUTPUT_KEYS = {"dir"}
_KNOWN_SECTIONS = {"family", "samples", "tolerances", "orbit", "output"}

_DEFAULT_TOLERANCES = {"governing": 1e-8, "boundary": 1e-9,
                       "reduced": 1e-8, "orbit_factor": 10.0}


@dataclass(frozen=True)
class RunConfig:
    family_id: str
    family_params: dict
    samples: SampleSet
    tolerances: dict = field(default_factory=lambda: dict(
        _DEFAULT_TOLERANCES))
    orbit: Optional[dict] = None
    out_dir: Optional[str] = None
    overrides: dict = field(default_factory=dict)

    def build_family(self):
        return FAMILY_IDS[self.family_id](**self.family_params)


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _number(section, key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad [{section}] {key}: {text!r} is not a number"
                          ) from None


def _check_keys(section, keys, allowed):
    unknown = set(keys) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    unknown = set(parser.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigError(
            f"unknown section(s): {', '.join(sorted(unknown))}")
    if "family" not in parser:
        raise ConfigError("missing required [family] section")

    fam = parser["family"]
    if "id" not in fam:
        raise ConfigError("[family] needs an 'id' key")
    family_id = fam["id"]
    if family_id not in FAMILY_IDS:
        raise ConfigError(
            f"unknown family id {family_id!r}; choose from "
            f"{', '.join(sorted(FAMILY_IDS))}")
    allowed = FAMILY_IDS[family_id].params()
    extra = FAMILY_IDS[family_id].overridable()
    _check_keys("family", (k for k in fam if k != "id"), allowed + extra)
    try:
        values = {k: float(fam[k]) for k in fam if k != "id"}
    except ValueError as e:
        raise ConfigError(f"non-numeric family parameter: {e}") from None
    for k, v in values.items():
        if not math.isfinite(v):
            raise ConfigError(f"[family] {k} must be finite, got {v!r}")
    params = {k: v for k, v in values.items() if k in allowed}
    overrides = {k: v for k, v in values.items() if k in extra}
    missing = set(allowed) - set(params)
    if missing:
        raise ConfigError(
            f"[family] missing parameter(s): {', '.join(sorted(missing))}")

    sample_kwargs = {}
    if "samples" in parser:
        sec = parser["samples"]
        _check_keys("samples", sec, _SAMPLE_KEYS)
        try:
            if "times" in sec:
                sample_kwargs["times"] = _floats(sec["times"])
            if "n_r" in sec:
                sample_kwargs["n_r"] = int(sec["n_r"])
            if "n_theta" in sec:
                sample_kwargs["n_theta"] = int(sec["n_theta"])
            if "r_min_fraction" in sec:
                sample_kwargs["r_min_fraction"] = float(
                    sec["r_min_fraction"])
        except ValueError as e:
            raise ConfigError(f"bad [samples] value: {e}") from None
    try:
        samples = SampleSet(**sample_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    tolerances = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in parser:
        sec = parser["tolerances"]
        _check_keys("tolerances", sec, _TOLERANCE_KEYS)
        for k in sec:
            tolerances[k] = _number("tolerances", k, sec[k])
        if any(v <= 0 or not math.isfinite(v)
               for v in tolerances.values()):
            raise ConfigError("tolerances must be positive and finite")

    orbit = None
    if "orbit" in parser:
        sec = parser["orbit"]
        _check_keys("orbit", sec, _ORBIT_KEYS)
        if "element" not in sec:
            raise ConfigError("[orbit] needs an 'element' key")
        element = sec["element"]
        if element not in ("rotation", "galilei", "pressure-shift",
                           "time-translation", "scale"):
            raise ConfigError(f"unknown orbit element {element!r}")
        orbit = {"element": element,
                 "eps": _number("orbit", "eps", sec.get("eps", 0.5)),
                 "f": sec.get("f", "const"),
                 "axis": sec.get("axis", "x")}
        if not math.isfinite(orbit["eps"]):
            raise ConfigError(f"[orbit] eps must be finite, got "
                              f"{orbit['eps']!r}")
        if orbit["f"] not in ("const", "sin"):
            raise ConfigError("orbit f must be 'const' or 'sin'")
        if orbit["axis"] not in ("x", "y"):
            raise ConfigError("orbit axis must be 'x' or 'y'")

    out_dir = None
    if "output" in parser:
        sec = parser["output"]
        _check_keys("output", sec, _OUTPUT_KEYS)
        out_dir = sec.get("dir")

    return RunConfig(family_id=family_id, family_params=params,
                     samples=samples, tolerances=tolerances, orbit=orbit,
                     out_dir=out_dir, overrides=overrides)
