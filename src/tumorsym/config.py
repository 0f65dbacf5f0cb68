"""Run configuration: one INI file fully determines a run.

Unknown sections or keys are rejected so that a config hash identifies a
reproducible report.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .residuals import SampleSet
from .solutions import FAMILY_IDS
from .symmetry import AXES, ELEMENTS, TIME_FUNCTIONS

__all__ = ["ConfigError", "RunConfig", "load_config", "DEFAULT_ORBIT"]


class ConfigError(ValueError):
    pass


_OUTPUT_KEYS = {"dir"}
_KNOWN_SECTIONS = {"family", "samples", "tolerances", "orbit", "output"}

_DEFAULT_TOLERANCES = {"governing": 1e-8, "boundary": 1e-9,
                       "reduced": 1e-8, "orbit_factor": 10.0}

# The [orbit] keys and the values of those an [orbit] section leaves out.
# With no section, verify checks this element itself: the first entry of
# each table in symmetry.py, a rotation by a constant angle.
DEFAULT_ORBIT = {"element": next(iter(ELEMENTS)), "eps": 0.5,
                 "f": next(iter(TIME_FUNCTIONS)), "axis": "x"}


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


def _parse_like(default, text):
    """``text`` as a value of ``default``'s type; a tuple is a
    comma-separated list of floats."""
    if isinstance(default, tuple):
        return tuple(float(v) for v in text.split(","))
    return type(default)(text)


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
    """The run config of the INI file at ``path``; a file that cannot be
    read as INI is a :class:`ConfigError` like any other bad config."""
    try:
        return _parse_config(path)
    except configparser.InterpolationError as e:
        # raised when a value with a stray '%' is first read
        raise ConfigError(f"bad [{e.section}] {e.option}: {_one_line(e)}"
                          ) from None
    except configparser.Error as e:
        raise ConfigError(f"malformed INI: {_one_line(e)}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None


def _one_line(error):
    return " ".join(line.strip() for line in str(error).splitlines())


def _parse_config(path):
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
        defaults = {f.name: f.default for f in fields(SampleSet)}
        _check_keys("samples", sec, defaults)
        try:
            sample_kwargs = {k: _parse_like(defaults[k], sec[k]) for k in sec}
        except ValueError as e:
            raise ConfigError(f"bad [samples] value: {e}") from None
    try:
        samples = SampleSet(**sample_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    tolerances = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in parser:
        sec = parser["tolerances"]
        _check_keys("tolerances", sec, _DEFAULT_TOLERANCES)
        for k in sec:
            tolerances[k] = _number("tolerances", k, sec[k])
        if any(v <= 0 or not math.isfinite(v)
               for v in tolerances.values()):
            raise ConfigError("tolerances must be positive and finite")

    orbit = None
    if "orbit" in parser:
        sec = parser["orbit"]
        _check_keys("orbit", sec, DEFAULT_ORBIT)
        if "element" not in sec:
            raise ConfigError("[orbit] needs an 'element' key")
        orbit = {**DEFAULT_ORBIT, **sec}
        if orbit["element"] not in ELEMENTS:
            raise ConfigError(
                f"unknown orbit element {orbit['element']!r}")
        orbit["eps"] = _number("orbit", "eps", orbit["eps"])
        if not math.isfinite(orbit["eps"]):
            raise ConfigError(f"[orbit] eps must be finite, got "
                              f"{orbit['eps']!r}")
        if orbit["f"] not in TIME_FUNCTIONS:
            raise ConfigError("orbit f must be "
                              + " or ".join(map(repr, TIME_FUNCTIONS)))
        if orbit["axis"] not in AXES:
            raise ConfigError("orbit axis must be "
                              + " or ".join(map(repr, AXES)))

    out_dir = None
    if "output" in parser:
        sec = parser["output"]
        _check_keys("output", sec, _OUTPUT_KEYS)
        out_dir = sec.get("dir")

    return RunConfig(family_id=family_id, family_params=params,
                     samples=samples, tolerances=tolerances, orbit=orbit,
                     out_dir=out_dir, overrides=overrides)
