"""Command-line front end: validate, verify, figure, orbit."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .core_model import PowerLawTriplet
from .jets import AnalyticEngine, JetProvider
from .reduction import reduced_bc_residual, reduced_ode_residual
from .residuals import boundary_residual, governing_residual
from .solutions import FAMILY_IDS, reduced_profiles_of
from .symmetry import (Galilei, InapplicableSymmetryError, PressureShift,
                       Rotation, Scale, TimeTranslation, orbit_residual)

__all__ = ["main"]


def _fail(message, code):
    print(message, file=sys.stderr)
    return code


class _Exit(Exception):
    """Ends a command early with a message on stderr and an exit code."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _restrictions():
    """A family that cannot be built or whose derived constants cannot be
    computed (restriction, domain or overflow) ends the run with exit 1."""
    try:
        yield
    except (ValueError, ArithmeticError) as e:
        raise _Exit(f"restriction violated: {e}", 1) from None


def _load(path, need_orbit=False):
    """The run config at ``path`` and the family it builds."""
    try:
        cfg = load_config(path)
    except ConfigError as e:
        raise _Exit(f"config error: {e}", 2) from None
    if need_orbit and cfg.orbit is None:
        raise _Exit("config error: [orbit] section required", 2)
    with _restrictions():
        return cfg, cfg.build_family()


def _write_json(out_dir, name, payload):
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _report_payload(report):
    return {
        "engine": report.engine,
        "sample_count": report.sample_count,
        "rejected": list(report.rejected),
        "equations": {
            eq.name: {"linf": eq.linf, "l2": eq.l2,
                      "location": list(eq.linf_location)}
            for eq in report.equations},
    }


def cmd_validate(args):
    cfg, sol = _load(args.config)
    with _restrictions():
        derived = {name: getattr(sol, name) for name in sol.derived}
    for name, val in derived.items():
        if not math.isfinite(val):
            raise _Exit(f"restriction violated: derived {name} = {val!r} "
                        "is not finite", 1)
    print(f"family: {cfg.family_id}")
    for key in sorted(cfg.family_params):
        print(f"  given   {key} = {cfg.family_params[key]!r}")
    for key, val in derived.items():
        print(f"  derived {key} = {val!r}")
    _write_json(cfg.out_dir or args.out, "validate.json",
                {"family": cfg.family_id, "given": cfg.family_params,
                 "derived": derived})
    return 0


def _build_element(spec, triplet):
    element, eps = spec["element"], spec["eps"]
    if element == "rotation":
        if spec.get("f") == "sin":
            return Rotation(f=math.sin, fdot=math.cos, eps=eps)
        return Rotation(f=lambda t: 1.0, fdot=lambda t: 0.0, eps=eps)
    if element == "galilei":
        return Galilei(g=lambda t: t, gdot=lambda t: 1.0, eps=eps,
                       axis=spec.get("axis", "x"))
    if element == "pressure-shift":
        return PressureShift(F=lambda t: t * t, Fdot=lambda t: 2.0 * t,
                             eps=eps)
    if element == "time-translation":
        return TimeTranslation(eps=eps)
    if element == "scale":
        if not isinstance(triplet, PowerLawTriplet):
            raise InapplicableSymmetryError(
                "scale action is not applicable: the family's "
                "constitutive triplet is not power-law")
        return Scale(eps=eps, m=triplet.params.m, n=triplet.params.n)
    raise ConfigError(f"unknown orbit element {element!r}")


def _orbit_bound(base_linf, orbit_factor):
    """``orbit_factor`` times the base residual floored at 1e-14; None,
    no finite bound, when the base residual is NaN."""
    if math.isnan(base_linf):
        return None
    return max(base_linf, 1e-14) * orbit_factor


_NO_ORBIT_BOUND = "orbit: no finite bound, the base residual is NaN"


def cmd_verify(args):
    cfg, sol = _load(args.config)
    triplet = sol.triplet(**cfg.overrides)
    phys, boundary = sol.phys(), sol.boundary()
    provider = JetProvider(sol, AnalyticEngine())
    tol = cfg.tolerances

    failures = []
    gov = governing_residual(provider, triplet, phys, cfg.samples,
                             boundary)
    if not gov.linf <= tol["governing"]:
        failures.append(f"governing Linf {gov.linf:.3e} > "
                        f"{tol['governing']:.3e}")
    bnd_reports = {}
    for t in cfg.samples.times:
        rep = boundary_residual(provider, boundary, phys, t,
                                cfg.samples.n_theta * 8)
        bnd_reports[t] = rep
        if not rep.linf <= tol["boundary"]:
            failures.append(f"boundary Linf {rep.linf:.3e} at t={t} > "
                            f"{tol['boundary']:.3e}")

    profiles = reduced_profiles_of(sol)
    delta = sol.delta
    radii = [1e-2 * delta * (100.0) ** (i / 63.0) for i in range(64)]
    red = reduced_ode_residual(profiles, radii)
    if not red.linf <= tol["reduced"]:
        failures.append(f"reduced Linf {red.linf:.3e} > "
                        f"{tol['reduced']:.3e}")
    bc = reduced_bc_residual(profiles, delta)
    if not bc.general_max <= tol["boundary"]:
        failures.append(f"reduced BC {bc.general_max:.3e} > "
                        f"{tol['boundary']:.3e}")

    orbit_payload = None
    orbit_spec = cfg.orbit or {"element": "rotation", "eps": 0.5,
                               "f": "const"}
    try:
        elem = _build_element(orbit_spec, triplet)
        orb = orbit_residual(elem, sol, triplet, phys, cfg.samples)
        orbit_payload = _report_payload(orb)
        allowed = _orbit_bound(gov.linf, tol["orbit_factor"])
        if allowed is None:
            failures.append(_NO_ORBIT_BOUND)
        elif not orb.linf <= allowed:
            failures.append(f"orbit Linf {orb.linf:.3e} > {allowed:.3e}")
    except InapplicableSymmetryError as e:
        failures.append(f"orbit: {e}")

    payload = {
        "family": cfg.family_id,
        "governing": _report_payload(gov),
        "boundary": {repr(t): _report_payload(r)
                     for t, r in bnd_reports.items()},
        "reduced": _report_payload(red),
        "reduced_bc": {"general": [bc.kinematic, bc.pressure,
                                   bc.traction_1, bc.traction_2],
                       "simplified": list(bc.simplified)},
        "orbit": orbit_payload,
        "failures": failures,
    }
    _write_json(cfg.out_dir or args.out, "verify.json", payload)
    for line in gov.lines():
        print(f"governing {line}")
    for t, rep in bnd_reports.items():
        print(f"boundary t={t} Linf={rep.linf:.6e}")
    print(f"reduced Linf={red.linf:.6e} bc={bc.general_max:.6e}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_orbit(args):
    cfg, sol = _load(args.config, need_orbit=True)
    triplet, phys = sol.triplet(), sol.phys()
    provider = JetProvider(sol, AnalyticEngine())
    base = governing_residual(provider, triplet, phys, cfg.samples,
                              sol.boundary())
    try:
        elem = _build_element(cfg.orbit, triplet)
        orb = orbit_residual(elem, sol, triplet, phys, cfg.samples)
    except InapplicableSymmetryError as e:
        return _fail(f"inapplicable symmetry: {e}", 1)
    allowed = _orbit_bound(base.linf, cfg.tolerances["orbit_factor"])
    shown = "none" if allowed is None else f"{allowed:.6e}"
    print(f"base Linf={base.linf:.6e} orbit Linf={orb.linf:.6e} "
          f"allowed={shown}")
    _write_json(cfg.out_dir or args.out, "orbit.json",
                {"base": _report_payload(base),
                 "orbit": _report_payload(orb),
                 "allowed": allowed})
    if allowed is None:
        return _fail(f"FAIL {_NO_ORBIT_BOUND}", 1)
    return 0 if orb.linf <= allowed else 1


_FIG12_PARAMS = dict(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                     sigma0=-3.0, delta=1.0)
_FIG34_PARAMS = dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0)
_FIG5_PARAMS = dict(c3=1.0, c4=-2.5, n=2.0, lam=4.0, d0=8.0)

_FIGURES = {
    1: ("full413", _FIG12_PARAMS, [("u1", 1, 2.0), ("u2", 2, 2.0)]),
    2: ("full413", _FIG12_PARAMS, [("alpha", 0, 2.0), ("p", 3, 2.0)]),
    3: ("stationary413s", _FIG34_PARAMS,
        [("u1", 1, 1.0), ("u2", 2, 1.0)]),
    4: ("stationary413s", _FIG34_PARAMS,
        [("alpha", 0, 1.0), ("p", 3, 1.0)]),
    5: ("stationary413s", _FIG5_PARAMS,
        [("alpha_t1", 0, 1.0), ("alpha_t10", 0, 10.0)]),
}

_R_MIN_FRACTION = 1e-2


def _figure_grid(sol, t, grid):
    """The grid at time t: the repr of each coordinate, the row-major mask
    of the cells inside the annulus, and the four fields at those cells
    from one array ``values()`` call (None when no cell is inside)."""
    rad = sol.boundary().radius(t)
    r_min = _R_MIN_FRACTION * rad
    coords = [-rad + 2.0 * rad * i / (grid - 1) for i in range(grid)]
    inside = [r_min <= math.hypot(x, y) <= rad
              for x in coords for y in coords]
    fields = None
    if any(inside):
        axis = np.array(coords)
        xs = np.repeat(axis, grid)[inside]
        ys = np.tile(axis, grid)[inside]
        fields = sol.values(t, xs, ys)
    return [repr(c) for c in coords], inside, fields


def _write_figure_csv(fh, reprs, inside, values):
    """Rows ``x,y,value`` in row-major order; cells outside stay blank."""
    fh.write("x,y,value\n")
    cells, texts = iter(inside), map(repr, values)
    for xr in reprs:
        fh.writelines(f"{xr},{yr},{next(texts)}\n" if next(cells)
                      else f"{xr},{yr},\n" for yr in reprs)


_PLOT_SCRIPT = """\
# plot script: load each CSV below as a surface z(x, y)
# empty value cells lie outside the annulus and must stay blank
# gnuplot> set datafile separator ','
# gnuplot> splot '<file>' using 1:2:3 with points
"""


def cmd_figure(args):
    if args.figure not in _FIGURES:
        return _fail(f"unknown figure id {args.figure}; choose 1-5", 2)
    if args.grid < 2:
        return _fail(f"grid must be at least 2, got {args.grid}", 2)
    family_id, params, panels = _FIGURES[args.figure]
    sol = FAMILY_IDS[family_id](**params)
    out_dir = args.out or "figures"
    os.makedirs(out_dir, exist_ok=True)
    written, grids = [], {}
    for name, component, t in panels:
        if t not in grids:  # panels at one time share one values() call
            grids[t] = _figure_grid(sol, t, args.grid)
        reprs, inside, fields = grids[t]
        values = [] if fields is None else fields[component].tolist()
        path = os.path.join(out_dir, f"fig{args.figure}_{name}.csv")
        with open(path, "w", newline="\n") as fh:
            _write_figure_csv(fh, reprs, inside, values)
        written.append(path)
    _write_json(out_dir, f"fig{args.figure}_meta.json",
                {"figure": args.figure, "family": family_id,
                 "params": params, "grid": args.grid,
                 "r_min_fraction": _R_MIN_FRACTION,
                 "panels": [{"name": n, "component": c, "t": t}
                            for n, c, t in panels]})
    script = os.path.join(out_dir, f"fig{args.figure}_plot.txt")
    with open(script, "w", newline="\n") as fh:
        fh.write(_PLOT_SCRIPT)
    for path in written:
        print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tumorsym",
        description="verification suite for the moving-boundary tumour "
                    "model and its closed-form solutions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    common(sub.add_parser("validate", help="derived constants and "
                          "restriction diagnostics"))
    common(sub.add_parser("verify", help="full residual bundle"))
    common(sub.add_parser("orbit", help="group-orbit residual check"))
    fig = sub.add_parser("figure", help="emit figure data as CSV")
    fig.add_argument("figure", type=int)
    fig.add_argument("--grid", type=int, default=80)
    fig.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    handler = {"validate": cmd_validate, "verify": cmd_verify,
               "orbit": cmd_orbit, "figure": cmd_figure}[args.command]
    try:
        return handler(args)
    except _Exit as e:
        return _fail(str(e), e.code)


if __name__ == "__main__":
    sys.exit(main())
