"""Benchmark worker: runs one workload in a fresh single-threaded process.

    python3 bench/worker.py probe <workload> <workdir>
        Set up (import tumorsym.cli, load the configs, build the families),
        print one JSON line of stage timings and exit.  run.py times
        the whole start from outside.
    python3 bench/worker.py run <workload> <seed> <workdir>
        Set up, then obey one command per stdin line and answer each with
        one JSON line: ``round <index>`` runs one round of operations,
        ``spans`` and ``counters`` install the tracing of tracing.py,
        ``stop`` reports peak memory and the trace and exits.

run.py writes the verify configs into <workdir>/configs and
checks every output; this process only runs and times the operations.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

import inputs

perf = time.perf_counter


def setup(workload, workdir):
    t0 = perf()
    import tumorsym.cli  # noqa: F401  (the product's own entry point)
    from tumorsym import config, solutions
    t1 = perf()
    state = {"workdir": workdir}
    if workload == "verify":
        paths = {name: os.path.join(workdir, "configs", f"{name}.ini")
                 for name in inputs.op_names("verify")}
        cfgs = {name: config.load_config(p) for name, p in paths.items()}
        t2 = perf()
        state["families"] = {n: c.build_family() for n, c in cfgs.items()}
        state["paths"] = paths
    else:
        t2 = perf()
        if workload == "figures":
            specs = {str(n): (fid, p) for n, (fid, p, _) in
                     inputs.FIGURES.items()}
        else:
            specs = {fid: (fid, p) for fid, p in inputs.ACCEPTANCE.items()}
        state["families"] = {k: solutions.FAMILY_IDS[fid](**p)
                             for k, (fid, p) in specs.items()}
    t3 = perf()
    return state, {"import_s": t1 - t0, "config_s": t2 - t1,
                   "build_s": t3 - t2}


def _cli(argv):
    from tumorsym import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _xeng(sol):
    from tumorsym import jets, residuals
    h = 2e-4 * sol.boundary().radius(1.0)
    return residuals.cross_engine_check(
        jets.JetProvider(sol, jets.AnalyticEngine()),
        jets.JetProvider(sol, jets.FdEngine(h=h)),
        residuals.SampleSet(r_min_fraction=0.1), sol.boundary())


def _expint():
    from tumorsym.numerics import special
    return [[special.exp_over_z_integral(a, r, d),
             special.exp_over_z_quadrature(a, r, d)]
            for a, r, d in inputs.EXPINT_GRID]


def _pressure(sol):
    from tumorsym import reduction
    if sol.steady:
        def src(a):
            return sol.k1 * a ** sol.m_exp - sol.k2 * a ** sol.n_exp
    else:
        # the reduced mass source: proliferation plus the ansatz decay term
        def src(a):
            return sol.s0 * a ** sol.n + a / (sol.n - 1.0)
    P = reduction.pressure_from_lambda(
        lambda r: sol.values(1.0, r, 0.0)[0], src, sol.d0, c3=sol.c3,
        c4=sol.c4, delta=sol.delta)
    radii = inputs.PRESSURE_RADII + (sol.delta,)
    return {"radii": radii, "quadrature": [P(r) for r in radii],
            "closed": [sol.values(1.0, r, 0.0)[3] for r in radii]}


def _ode_gauss():
    from tumorsym import core_model, reduction
    g = inputs.ODE_GAUSS
    s0 = g["n"] * g["sigma0"] / ((g["n"] - 1.0) * (2.0 + g["lam"]))
    params = core_model.PowerLawParams(d0=g["d0"], s0=s0, sigma0=g["sigma0"],
                                       m=-1.0, n=g["n"])
    out = {}
    for tag, r0, r1 in (("outward", g["r_in"], g["r_out"]),
                        ("inward", g["r_out"], g["r_in"])):
        lam0 = g["c1"] * math.exp(-r0 * r0 / (4.0 * g["d0"]))
        traj = reduction.integrate_ode_4_6(
            params, core_model.PhysConstants(lam=g["lam"]), beta=0.0,
            r0=r0, r1=r1, lambda0=lam0,
            dlambda0=lam0 * (-2.0 * r0 / (4.0 * g["d0"])))
        out[tag] = [float(traj(r)) for r in inputs.ODE_GAUSS_RADII]
    return out


def _ode_power():
    from tumorsym import core_model, reduction
    p = inputs.ODE_POWER
    m, n, c1, lamv = p["m"], p["n"], p["c1"], p["lam"]
    d0 = (1.0 + m) / (4.0 * (1.0 + lamv) * c1 ** (1.0 + m))
    s0 = n * p["sigma0"] / ((n - 1.0) * (2.0 + lamv))
    params = core_model.PowerLawParams(d0=d0, s0=s0, sigma0=p["sigma0"],
                                       m=m, n=n)
    traj = reduction.integrate_ode_4_6(
        params, core_model.PhysConstants(lam=lamv), beta=0.0, r0=p["r0"],
        r1=p["r1"], lambda0=c1 * p["r0"])
    return {"outward": [float(traj(r)) for r in inputs.ODE_POWER_RADII]}


def _lift(families):
    from tumorsym import reduction, solutions
    out = {}
    for fid in inputs.LIFT_FAMILIES:
        sol = families[fid]
        lifted = reduction.lift_profiles(solutions.reduced_profiles_of(sol))
        out[fid] = [[list(lifted.values(t, x, y)), list(sol.values(t, x, y))]
                    for t, x, y in inputs.LIFT_POINTS]
    return out


def run_op(workload, state, name):
    """Run one operation; returns (seconds, payload for the checks)."""
    workdir, fams = state["workdir"], state["families"]
    if workload in ("verify", "figures"):
        out = os.path.join(workdir, "out", name)
        if workload == "verify":
            argv = ["verify", "--config", state["paths"][name], "--out", out]
        else:
            argv = ["figure", name, "--out", out]
        t0 = perf()
        rc, err = _cli(argv)
        dt = perf() - t0
        return dt, {"rc": rc, "stderr": err, "digest": inputs.digest(out)}
    kind, _, arg = name.partition(":")
    call = {"xeng": lambda: _xeng(fams[arg]),
            "expint": _expint,
            "pressure": lambda: _pressure(fams[arg]),
            "ode": {"gauss": _ode_gauss, "power": _ode_power}.get(arg),
            "lift": lambda: _lift(fams)}[kind]
    t0 = perf()
    result = call()
    dt = perf() - t0
    return dt, {"result": result}


def serve(workload, seed, workdir):
    from tracing import Tracer
    state, _ = setup(workload, workdir)
    proto = sys.stdout
    tracer = Tracer()

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"ready": True})
    for line in sys.stdin:
        cmd = line.split()
        if cmd[0] == "round":
            index = int(cmd[1])
            ops = [[name, *run_op(workload, state, name)]
                   for name in inputs.round_order(workload, seed, index)]
            reply({"ops": ops})
        elif cmd[0] == "spans":
            tracer.install_spans()
            reply({"ok": True})
        elif cmd[0] == "counters":
            tracer.uninstall()
            tracer.install_counters()
            reply({"ok": True})
        elif cmd[0] == "stop":
            tracer.uninstall()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            trace = None
            if tracer.spans:
                tracer.dump(cmd[1])
                trace = {"spans": tracer.summary(),
                         "counts": dict(tracer.counts)}
            reply({"peak_rss_mb": rss, "trace": trace})
            return


def main(argv):
    if argv[0] == "probe":
        _, stages = setup(argv[1], argv[2])
        print(json.dumps(stages), flush=True)
    else:
        serve(argv[1], int(argv[2]), argv[3])


if __name__ == "__main__":
    main(sys.argv[1:])
