"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line and enforcing its runtime budget."""

import json
import math
import time

from tumorsym.jets import AnalyticEngine, FdEngine, JetProvider
from tumorsym.numerics import (exp_over_z_integral, exp_over_z_quadrature,
                               fd_derivative)
from tumorsym.core_model import (GeneralTriplet, PhysConstants,
                                 PowerLawParams)
from tumorsym.cli import main
from tumorsym.reduction import (integrate_ode_4_6, lift_profiles,
                                reduced_bc_residual, reduced_ode_residual)
from tumorsym.residuals import (SampleSet, cross_engine_check,
                                governing_and_front_residuals,
                                governing_residual)
from tumorsym.solutions import (FAMILY_IDS, BoundaryCircle,
                                reduced_profiles_of)
from tumorsym.symmetry import (Galilei, PressureShift, Rotation, Scale,
                               TimeTranslation, TransformedField,
                               orbit_residual)

from support import PARAMS, ConstantState, richardson_order


def _families():
    return {fid: FAMILY_IDS[fid](**params) for fid, params in PARAMS.items()}


def _finish(number, failures, started, budget):
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s")
    verdict = "FAIL" if failures else "PASS"
    print(f"criterion {number}: {verdict} ({elapsed:.2f}s)"
          + ("; " + "; ".join(failures) if failures else ""))
    assert not failures, failures


def test_criterion_1_caption_constants(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    for idx, (c3, c4, target) in enumerate(
            [(5.0, 2.0, 0.67), (1.0, -2.5, 12.18)]):
        body = (f"[family]\nid = stationary413s\nc3 = {c3}\nc4 = {c4}\n"
                f"n = 2.0\nlam = 4.0\nd0 = 2.0\n")
        cfg = tmp_path / f"cap{idx}.ini"
        cfg.write_text(body)
        out = tmp_path / f"cap{idx}"
        rc = main(["validate", "--config", str(cfg), "--out", str(out)])
        if rc != 0:
            failures.append(f"validate exit {rc} for c3={c3}")
            continue
        delta = json.loads((out / "validate.json").read_text())[
            "derived"]["delta"]
        if abs(delta - target) > 0.005:
            failures.append(f"delta {delta} not within 0.005 of {target}")
    capsys.readouterr()
    with capsys.disabled():
        _finish(1, failures, started, 1.0)


def test_criterion_2_primary_residual_gates(capsys):
    started = time.perf_counter()
    failures = []
    fams = _families()
    for name, times in (("stationary413s", (0.5, 1.0, 2.0)),
                        ("steady432", (1.0,))):
        sol = fams[name]
        provider = JetProvider(sol, AnalyticEngine())
        gov, fronts = governing_and_front_residuals(
            provider, sol.triplet(), sol.phys(), SampleSet(times=times),
            sol.boundary(), 64)
        if gov.linf > 1e-9:
            failures.append(f"{name} governing {gov.linf:.3e} > 1e-9")
        for t, bc in zip(times, fronts):
            if bc.linf > 1e-10:
                failures.append(f"{name} boundary {bc.linf:.3e} "
                                f"at t={t} > 1e-10")
    with capsys.disabled():
        _finish(2, failures, started, 10.0)


def test_criterion_3_family_coverage(capsys):
    started = time.perf_counter()
    failures = []
    fams = _families()
    for name in ("full413", "moving442", "moving444"):
        sol = fams[name]
        gov = governing_residual(JetProvider(sol, AnalyticEngine()),
                                 sol.triplet(), sol.phys(),
                                 SampleSet(times=(0.5, 1.0, 2.0)),
                                 sol.boundary())
        if gov.linf > 1e-8:
            failures.append(f"{name} governing {gov.linf:.3e} > 1e-8")
    # the moving fronts really move
    for name in ("moving442", "moving444"):
        b = fams[name].boundary()
        if b.radius(2.0) == b.radius(0.5):
            failures.append(f"{name} front radius is static")
    with capsys.disabled():
        _finish(3, failures, started, 20.0)


def test_criterion_4_figure1_consistency(capsys):
    started = time.perf_counter()
    failures = []
    sol = _families()["full413"]
    if abs(sol.c3_regular - 0.5) > 1e-15:
        failures.append(f"regular c3 {sol.c3_regular!r} != 0.5")
    ref = abs(sol.values(1.0, 1e-3, 0.0)[1])
    worst = max(abs(sol.values(1.0, r, 0.0)[1])
                for r in [1e-3 * k / 400.0 for k in range(1, 401)])
    if worst > 2.0 * ref:
        failures.append(f"velocity {worst:.3e} exceeds twice the value "
                        f"at r=1e-3 ({ref:.3e})")
    with capsys.disabled():
        _finish(4, failures, started, 5.0)


def test_criterion_5_orbit_suite(capsys):
    started = time.perf_counter()
    failures = []
    fams = _families()
    eps_set = (-1.0, -0.5, 0.5, 1.0)

    def check(tag, sol, mk, samples):
        base = governing_residual(JetProvider(sol, AnalyticEngine()),
                                  sol.triplet(), sol.phys(), samples,
                                  sol.boundary()).linf
        allowed = 10.0 * max(base, 1e-14)
        for eps in eps_set:
            linf = orbit_residual(mk(eps), sol, sol.triplet(), sol.phys(),
                                  samples).linf
            if linf > allowed:
                failures.append(f"{tag} eps={eps}: {linf:.3e} > "
                                f"{allowed:.3e}")

    stat = fams["stationary413s"]
    check("rotation-const", stat,
          lambda e: Rotation(f=lambda t: 1.0, fdot=lambda t: 0.0, eps=e),
          SampleSet())
    check("rotation-sin", stat,
          lambda e: Rotation(f=math.sin, fdot=math.cos, eps=e),
          SampleSet())
    check("pressure-shift", stat,
          lambda e: PressureShift(F=math.cos,
                                  Fdot=lambda t: -math.sin(t), eps=e),
          SampleSet())
    check("scale", stat, lambda e: Scale(eps=e, m=-1.0, n=2.0),
          SampleSet())
    check("time-translation", fams["steady432"],
          lambda e: TimeTranslation(eps=e), SampleSet(times=(3.0,)))

    cs = ConstantState(alpha0=2.0)
    trip = GeneralTriplet(
        S=lambda a: a - 2.0,
        D=lambda a: 1.0 + a, dD=lambda a: 1.0,
        Sigma=lambda a: a * a, dSigma=lambda a: 2.0 * a,
        needs_positive_alpha=False)
    for eps in eps_set:
        g = Galilei(g=lambda t: t * t, gdot=lambda t: 2.0 * t, eps=eps)
        linf = governing_residual(
            JetProvider(TransformedField(g, cs), AnalyticEngine()),
            trip, PhysConstants(lam=1.0), SampleSet(),
            BoundaryCircle(delta=1.0)).linf
        if linf > 1e-13:
            failures.append(f"galilei eps={eps}: {linf:.3e} > 1e-13")
    with capsys.disabled():
        _finish(5, failures, started, 30.0)


def test_criterion_6_reduction_cross_checks(capsys):
    started = time.perf_counter()
    failures = []
    fams = _families()

    for name in ("full413", "stationary413s", "steady432"):
        sol = fams[name]
        lifted = lift_profiles(reduced_profiles_of(sol))
        worst = max(
            abs(a - b)
            for t in (1.0, 2.0) for (x, y) in ((0.06, 0.08), (0.3, 0.4))
            for a, b in zip(lifted.values(t, x, y), sol.values(t, x, y)))
        if worst > 1e-10:
            failures.append(f"{name} lift round-trip {worst:.3e} > 1e-10")

    radii = [1e-2 * (100.0) ** (i / 63.0) for i in range(64)]
    full = fams["full413"]
    rep = reduced_ode_residual(reduced_profiles_of(full),
                               [r * full.delta for r in radii])
    if rep.linf > 1e-9:
        failures.append(f"radial ODE residual {rep.linf:.3e} > 1e-9")
    steady = fams["steady432"]
    rep = reduced_ode_residual(reduced_profiles_of(steady),
                               [r * steady.delta for r in radii])
    if rep.linf > 1e-9:
        failures.append(f"steady ODE residual {rep.linf:.3e} > 1e-9")

    # integrated concentration ODE vs the two closed forms
    lamv, d0, n, sigma0 = 4.0, 2.0, 2.0, -0.6
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + lamv))
    params = PowerLawParams(d0=d0, s0=s0, sigma0=sigma0, m=-1.0, n=n)
    c1, r0 = 5.288866935008417, 0.1
    lam0 = c1 * math.exp(-r0 * r0 / (4.0 * d0))
    traj = integrate_ode_4_6(params, PhysConstants(lam=lamv), beta=0.0,
                             r0=r0, r1=2.0, lambda0=lam0,
                             dlambda0=lam0 * (-2.0 * r0 / (4.0 * d0)))
    worst = max(
        abs(traj(r) - c1 * math.exp(-r * r / (4.0 * d0)))
        / (c1 * math.exp(-r * r / (4.0 * d0)))
        for r in [0.1 + 0.1 * k for k in range(20)])
    if worst > 1e-6:
        failures.append(f"gaussian ODE branch rel {worst:.3e} > 1e-6")
    m, n2, c1b, lamv2 = 1.0, 3.0, 2.0, 1.0
    d0b = (1.0 + m) / (4.0 * (1.0 + lamv2) * c1b ** (1.0 + m))
    s0b = n2 * -1.0 / ((n2 - 1.0) * (2.0 + lamv2))
    pb = PowerLawParams(d0=d0b, s0=s0b, sigma0=-1.0, m=m, n=n2)
    trajb = integrate_ode_4_6(pb, PhysConstants(lam=lamv2), beta=0.0,
                              r0=1.0, r1=2.0, lambda0=c1b)
    worst = max(abs(trajb(r) - c1b * r) / (c1b * r)
                for r in [1.0 + 0.05 * k for k in range(21)])
    if worst > 1e-6:
        failures.append(f"power ODE branch rel {worst:.3e} > 1e-6")

    # general and simplified front-condition sets agree on this branch
    stat = fams["stationary413s"]
    bc = reduced_bc_residual(reduced_profiles_of(stat), stat.delta)
    if bc.general_max > 1e-10 or bc.simplified_max > 1e-10:
        failures.append(f"front-condition sets {bc.general_max:.3e} / "
                        f"{bc.simplified_max:.3e} > 1e-10")
    with capsys.disabled():
        _finish(6, failures, started, 10.0)


def test_criterion_7_numerics_gates(capsys):
    started = time.perf_counter()
    failures = []

    f, x = math.exp, 0.3
    errs4 = [abs(fd_derivative(f, x, 1, h) - math.exp(x))
             for h in (2e-1, 1e-1, 5e-2)]
    if richardson_order(errs4) < 3.8:
        failures.append(f"scheme-4 order {richardson_order(errs4):.2f}")

    worst = 0.0
    for a in (0.03125, 0.125, 0.5, 2.0):
        for r in (0.01, 0.1, 0.5, 0.99):
            for delta in (1.0, 0.67032, 12.182):
                u = exp_over_z_integral(a, r, delta)
                v = exp_over_z_quadrature(a, r, delta)
                worst = max(worst, abs(u - v) / max(abs(u), 1.0))
    if worst > 1e-12:
        failures.append(f"dual-path disagreement {worst:.3e} > 1e-12")

    for name, sol in _families().items():
        h = 2e-4 * sol.boundary().radius(1.0)
        diff = cross_engine_check(
            JetProvider(sol, AnalyticEngine()),
            JetProvider(sol, FdEngine(h=h)),
            SampleSet(r_min_fraction=0.1), sol.boundary())
        if diff > 1e-6:
            failures.append(f"{name} AD-vs-FD {diff:.3e} > 1e-6")
    with capsys.disabled():
        _finish(7, failures, started, 10.0)


def test_criterion_8_determinism(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    body = ("[family]\nid = stationary413s\nc3 = 5.0\nc4 = 2.0\n"
            "n = 2.0\nlam = 4.0\nd0 = 2.0\n"
            "[samples]\ntimes = 1.0\nn_r = 6\nn_theta = 4\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(body)
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"verify_{tag}"
        if main(["verify", "--config", str(cfg), "--out", str(out)]) != 0:
            failures.append(f"verify run {tag} failed")
        pairs.append(out / "verify.json")
    if not failures and pairs[0].read_bytes() != pairs[1].read_bytes():
        failures.append("verify.json differs between runs")
    figs = []
    for tag in ("a", "b"):
        out = tmp_path / f"fig_{tag}"
        if main(["figure", "3", "--grid", "20", "--out", str(out)]) != 0:
            failures.append(f"figure run {tag} failed")
        figs.append(out)
    for name in ("fig3_u1.csv", "fig3_u2.csv", "fig3_meta.json"):
        if not failures and (figs[0] / name).read_bytes() \
                != (figs[1] / name).read_bytes():
            failures.append(f"{name} differs between runs")
    capsys.readouterr()
    with capsys.disabled():
        _finish(8, failures, started, 10.0)
