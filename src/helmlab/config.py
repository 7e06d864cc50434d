"""Problem descriptions as flat key-value text files.

Format (configparser syntax; see docs/formats.md for the full schema):

    [problem]
    omega = 3.9269908169872414
    bc = pure_impedance
    g_left = 0
    g_right = 1

    [a]
    breakpoints = -1, 1
    segment1 = constant 1

    [c]
    breakpoints = -1, -0.6, -0.2, 0.6, 1
    segment1 = constant 0.5
    segment2 = constant 1.5
    segment3 = constant 0.5
    segment4 = constant 1.5

Segment kinds: `constant <value>` and `linear <left> <right>`.  Any other
section or key is an error.  Smooth segments need Python callables and are
library-only.  Only f = 0 problems can be described in a file; sources are
library-only as well.
"""

from __future__ import annotations

import configparser

from .coeffs import Constant, Linear, PiecewiseCoefficient, from_segments
from .problem import BoundaryConfig, HelmholtzProblem


class ConfigError(ValueError):
    """Malformed problem description file."""


def _parse_floats(text: str) -> list:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"expected a complex number, got {text!r}") from exc


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: expected a number, got {text!r}") from exc


def _parse_segment(text: str):
    parts = text.split()
    kind = parts[0].lower() if parts else ""
    if kind == "constant" and len(parts) == 2:
        return Constant(_parse_float(parts[1], "segment value"))
    if kind == "linear" and len(parts) == 3:
        return Linear(_parse_float(parts[1], "segment value"),
                      _parse_float(parts[2], "segment value"))
    raise ConfigError(
        f"bad segment entry {text!r}: use 'constant <v>' or 'linear <l> <r>'")


def _parse_coefficient(section: configparser.SectionProxy,
                       name: str) -> PiecewiseCoefficient:
    if "breakpoints" not in section:
        raise ConfigError(f"[{name}] needs a 'breakpoints' entry")
    bp = _parse_floats(section["breakpoints"])
    _reject_unknown_keys(section, ["breakpoints"]
                         + [f"segment{i}" for i in range(1, len(bp))])
    segs = []
    for i in range(1, len(bp)):
        key = f"segment{i}"
        if key not in section:
            raise ConfigError(f"[{name}] is missing {key}")
        segs.append(_parse_segment(section[key]))
    return from_segments(bp, segs)


def _reject_unknown_keys(section: configparser.SectionProxy, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"[{section.name}] has unknown key {key!r}")


def load_problem(path: str) -> HelmholtzProblem:
    """Read a problem description file (`;` and `#` start inline comments;
    `%` is an ordinary character, not configparser interpolation)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for sec in parser.sections():
        if sec not in ("problem", "a", "c"):
            raise ConfigError(f"config has unknown section [{sec}]")
    for sec in ("problem", "a", "c"):
        if sec not in parser:
            raise ConfigError(f"config is missing the [{sec}] section")
    prob = parser["problem"]
    _reject_unknown_keys(prob, ("omega", "bc", "g_left", "g_right"))
    if "omega" not in prob:
        raise ConfigError("[problem] needs 'omega'")
    omega = _parse_float(prob["omega"], "[problem] omega")
    bc_name = prob.get("bc", "pure_impedance").strip().lower()
    try:
        bc = BoundaryConfig(bc_name)
    except ValueError as exc:
        valid = ", ".join(b.value for b in BoundaryConfig)
        raise ConfigError(f"unknown bc {bc_name!r}; choose one of: {valid}") from exc
    a = _parse_coefficient(parser["a"], "a")
    c = _parse_coefficient(parser["c"], "c")
    try:
        return HelmholtzProblem(
            a=a, c=c, omega=omega, bc=bc,
            g_left=_parse_complex(prob.get("g_left", "0")),
            g_right=_parse_complex(prob.get("g_right", "0")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
