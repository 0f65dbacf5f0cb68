"""Command-line front end: validate, verify, figure, orbit."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .config import DEFAULT_ORBIT, ConfigError, load_config
from .jets import AnalyticEngine, JetProvider
from .reduction import reduced_bc_residual, reduced_ode_residual
from .residuals import governing_and_front_residuals, run_plans, settled
from .solutions import FAMILY_IDS, reduced_profiles_of
from .symmetry import ELEMENTS, InapplicableSymmetryError, orbit_residual

__all__ = ["main"]


class _Exit(Exception):
    """Ends a command with a message on stderr and a non-zero exit code;
    :func:`main` prints it, so every failing exit takes this one way."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _failing(prefix):
    """A ValueError or ArithmeticError inside ends the run with exit 1 and
    ``prefix: message``: a family that cannot be built or whose derived
    constants cannot be computed (restriction, domain or overflow), or a
    field that cannot be evaluated at the run's samples."""
    try:
        yield
    except (ValueError, ArithmeticError) as e:
        raise _Exit(f"{prefix}: {e}", 1) from None


def _load(path, need_orbit=False):
    """The run config at ``path`` and the family it builds."""
    try:
        cfg = load_config(path)
    except ConfigError as e:
        raise _Exit(f"config error: {e}", 2) from None
    if need_orbit and cfg.orbit is None:
        raise _Exit("config error: [orbit] section required", 2)
    with _failing("restriction violated"):
        return cfg, cfg.build_family()


def _strict(obj):
    """``obj`` as strict JSON can hold it: a non-finite float becomes the
    string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "NaN" if math.isnan(obj) else \
            ("Infinity" if obj > 0.0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _output_dir(path, cleanup):
    """``path`` (None for no output), made a directory before any work.
    The nearest part of it that exists must be a directory we may write
    in, and making the rest must succeed; otherwise the run ends with exit
    2 and a message that names the path.  The directories made here are
    removed again, if still empty, when the run ends (``cleanup``): a run
    that writes nothing leaves nothing."""
    if not path:
        return path
    made = []
    probe = os.path.normpath(path)
    while not os.path.lexists(probe):  # ends at "/" or ".", which exist
        made.append(probe)
        probe = os.path.dirname(probe) or os.curdir
    if not os.path.isdir(probe):
        problem = f"{probe} is not a directory"
    elif not os.access(probe, os.W_OK | os.X_OK):
        problem = f"{probe} is not writable"
    else:
        with _writing(path):
            os.makedirs(path, exist_ok=True)
        cleanup.callback(_remove_if_empty, made)
        return path
    raise _Exit(f"output error: cannot write to {path}: {problem}", 2)


def _remove_if_empty(made):
    """Remove the directories of ``made``, deepest first, while empty."""
    for d in made:
        try:
            os.rmdir(d)
        except OSError:
            return


@contextlib.contextmanager
def _writing(out_dir):
    """An OSError inside, when ``out_dir`` is made or written, ends the run
    with exit 2 and a message."""
    try:
        yield
    except OSError as e:
        raise _Exit(f"output error: cannot write to {out_dir}: "
                    f"{e.strerror or e}", 2) from None


def _write_json(out_dir, name, payload):
    if not out_dir:
        return
    with _writing(out_dir), open(os.path.join(out_dir, name), "w",
                                 newline="\n") as fh:
        json.dump(_strict(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
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


def cmd_validate(args, cleanup):
    cfg, sol = _load(args.config)
    out_dir = _output_dir(cfg.out_dir or args.out, cleanup)
    with _failing("restriction violated"):
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
    _write_json(out_dir, "validate.json",
                {"family": cfg.family_id, "given": cfg.family_params,
                 "derived": derived})
    return 0


def _orbit_bound(base_linf, orbit_factor):
    """``orbit_factor`` times the base residual floored at 1e-14; None,
    no finite bound, when the base residual is NaN."""
    if math.isnan(base_linf):
        return None
    return max(base_linf, 1e-14) * orbit_factor


_NO_ORBIT_BOUND = "orbit: no finite bound, the base residual is NaN"


def _orbit_plan(cfg, sol, triplet):
    """The plan of the orbit block of ``verify`` and ``orbit``: the
    element that ``[orbit]`` names, or the default one, checked on the
    run's samples.  An element that does not apply to the triplet ends it
    with an :class:`InapplicableSymmetryError`."""
    spec = cfg.orbit or DEFAULT_ORBIT
    elem = ELEMENTS[spec["element"]](triplet=triplet, **spec)
    return (yield from orbit_residual.plan(elem, sol, triplet, sol.phys(),
                                           cfg.samples))


def _checks(cfg, sol, n_front, *plans):
    """The governing residual under the run's triplet, the family's with
    the config's overrides (a sensitivity run; the base of the orbit check
    in ``verify`` and ``orbit`` alike), the front reports on ``n_front``
    ring points per sample time, the outcome of the orbit plan and those
    of ``plans``: every check runs in one ``run_plans``, so each source
    time takes one family jet."""
    triplet = sol.triplet(**cfg.overrides)
    base, orbit, *rest = run_plans(
        governing_and_front_residuals.plan(
            JetProvider(sol, AnalyticEngine()), triplet, sol.phys(),
            cfg.samples, sol.boundary(), n_front),
        _orbit_plan(cfg, sol, triplet), *plans)
    with _failing("evaluation failed"):
        gov, fronts = settled(base)
    return gov, fronts, orbit, *rest


def _orbit_check(orb, base_linf, orbit_factor):
    """The orbit block of ``verify`` and ``orbit`` from the orbit plan's
    outcome ``orb``: (report, allowed, failure).  ``allowed`` is None when
    the base residual gives no finite bound, and ``failure`` says why the
    check fails, or is None.  An element that does not apply to the
    triplet, or that maps the samples outside the field's domain, gives
    no report, and the failure is then an
    :class:`InapplicableSymmetryError`."""
    if isinstance(orb, InapplicableSymmetryError):
        return None, None, orb
    if isinstance(orb, Exception):
        return None, None, InapplicableSymmetryError(
            f"the element maps the samples outside the field's domain: {orb}")
    allowed = _orbit_bound(base_linf, orbit_factor)
    if allowed is None:
        return orb, None, _NO_ORBIT_BOUND
    if not orb.linf <= allowed:
        return orb, allowed, f"orbit Linf {orb.linf:.3e} > {allowed:.3e}"
    return orb, allowed, None


def cmd_verify(args, cleanup):
    cfg, sol = _load(args.config)
    out_dir = _output_dir(cfg.out_dir or args.out, cleanup)
    profiles = reduced_profiles_of(sol)
    delta = sol.delta
    radii = [1e-2 * delta * (100.0) ** (i / 63.0) for i in range(64)]
    gov, fronts, orbit, red = _checks(cfg, sol, cfg.samples.n_theta * 8,
                                      reduced_ode_residual.plan(profiles,
                                                                radii))
    tol = cfg.tolerances

    failures = []
    if not gov.linf <= tol["governing"]:
        failures.append(f"governing Linf {gov.linf:.3e} > "
                        f"{tol['governing']:.3e}")
    bnd_reports = {}
    for t, rep in zip(cfg.samples.times, fronts):
        bnd_reports[t] = rep
        if not rep.linf <= tol["boundary"]:
            failures.append(f"boundary Linf {rep.linf:.3e} at t={t} > "
                            f"{tol['boundary']:.3e}")

    red = settled(red)
    if not red.linf <= tol["reduced"]:
        failures.append(f"reduced Linf {red.linf:.3e} > "
                        f"{tol['reduced']:.3e}")
    bc = reduced_bc_residual(profiles, delta)
    if not bc.general_max <= tol["boundary"]:
        failures.append(f"reduced BC {bc.general_max:.3e} > "
                        f"{tol['boundary']:.3e}")

    orb, _, failure = _orbit_check(orbit, gov.linf, tol["orbit_factor"])
    if orb is None:
        failures.append(f"orbit: {failure}")
    elif failure:
        failures.append(failure)

    payload = {
        "family": cfg.family_id,
        "governing": _report_payload(gov),
        "boundary": {repr(t): _report_payload(r)
                     for t, r in bnd_reports.items()},
        "reduced": _report_payload(red),
        "reduced_bc": {"general": [bc.kinematic, bc.pressure,
                                   bc.traction_1, bc.traction_2],
                       "simplified": list(bc.simplified)},
        "orbit": None if orb is None else _report_payload(orb),
        "failures": failures,
    }
    _write_json(out_dir, "verify.json", payload)
    for line in gov.lines():
        print(f"governing {line}")
    for t, rep in bnd_reports.items():
        print(f"boundary t={t} Linf={rep.linf:.6e}")
    print(f"reduced Linf={red.linf:.6e} bc={bc.general_max:.6e}")
    if failures:
        raise _Exit("\n".join(f"FAIL {f}" for f in failures), 1)
    print("all checks passed")
    return 0


def cmd_orbit(args, cleanup):
    cfg, sol = _load(args.config, need_orbit=True)
    out_dir = _output_dir(cfg.out_dir or args.out, cleanup)
    base, _, orbit = _checks(cfg, sol, 0)
    orb, allowed, failure = _orbit_check(orbit, base.linf,
                                         cfg.tolerances["orbit_factor"])
    if orb is None:
        raise _Exit(f"inapplicable symmetry: {failure}", 1)
    shown = "none" if allowed is None else f"{allowed:.6e}"
    print(f"base Linf={base.linf:.6e} orbit Linf={orb.linf:.6e} "
          f"allowed={shown}")
    _write_json(out_dir, "orbit.json",
                {"base": _report_payload(base),
                 "orbit": _report_payload(orb),
                 "allowed": allowed})
    if failure is not None:
        raise _Exit(f"FAIL {failure}", 1)
    return 0


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


def cmd_figure(args, cleanup):
    if args.figure not in _FIGURES:
        raise _Exit(f"unknown figure id {args.figure}; choose 1-5", 2)
    if args.grid < 2:
        raise _Exit(f"grid must be at least 2, got {args.grid}", 2)
    family_id, params, panels = _FIGURES[args.figure]
    sol = FAMILY_IDS[family_id](**params)
    out_dir = _output_dir(args.out or "figures", cleanup)
    written, grids = [], {}
    with _writing(out_dir):
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
        with contextlib.ExitStack() as cleanup:
            return handler(args, cleanup)
    except _Exit as e:
        print(e, file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
