"""Reduction machinery: radial ODE residuals of the closed-form profiles,
front conditions, lift round-trips, the integrated concentration ODE
against its closed forms, and the pressure quadrature."""

import dataclasses
import math

import pytest

from tumorsym.core_model import PhysConstants, PowerLawParams
from tumorsym.numerics import IntegrationError
from tumorsym.numerics.dual import ddr, exp as dexp, value
from tumorsym.reduction import (BcResiduals, first_integral_R,
                                integrate_ode_4_6, lift_profiles,
                                overdetermined_residual,
                                pressure_from_lambda, reduced_bc_residual,
                                reduced_ode_residual)
from tumorsym.solutions import (Full413, Stationary413s, Steady432,
                                reduced_profiles_of)

FIG34 = dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0)
STEADY = dict(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
              lam=4.0, d0=2.0)


def _radii(delta, count=64, inner=1e-2):
    return [inner * delta * (1.0 / inner) ** (i / (count - 1))
            for i in range(count)]


def _link_params(d0, sigma0, m, n, lamv):
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + lamv))
    return PowerLawParams(d0=d0, s0=s0, sigma0=sigma0, m=m, n=n)


# -- reduced ODE residuals of the closed-form profiles ----------------------

def test_reduced_ode_residual_stationary_profile():
    sol = Stationary413s(**FIG34)
    rep = reduced_ode_residual(reduced_profiles_of(sol), _radii(sol.delta))
    assert rep.linf <= 1e-9


def test_reduced_ode_residual_full_profile():
    sol = Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                  sigma0=-3.0, delta=1.0)
    rep = reduced_ode_residual(reduced_profiles_of(sol), _radii(sol.delta))
    assert rep.linf <= 1e-9


@pytest.mark.parametrize("mk", [
    lambda: Stationary413s(**FIG34),
    lambda: Steady432(**STEADY),
], ids=["stationary413s", "steady432"])
def test_reduced_ode_flags_wrong_profile(mk):
    sol = mk()
    prof = reduced_profiles_of(sol)
    broken = dataclasses.replace(prof, lam=lambda r: 1.001 * prof.lam(r))
    rep = reduced_ode_residual(broken, _radii(sol.delta))
    assert rep.linf >= 1e-4


def test_steady_residual_profile():
    sol = Steady432(**STEADY)
    rep = reduced_ode_residual(reduced_profiles_of(sol), _radii(sol.delta))
    assert rep.engine == "steady-ode"
    assert rep.linf <= 1e-9


def test_residual_rejects_nonpositive_radii():
    sol = Stationary413s(**FIG34)
    rep = reduced_ode_residual(reduced_profiles_of(sol),
                               [-0.1, 0.0, 0.3, 0.5])
    assert rep.rejected == (0, 1)
    assert rep.sample_count == 2


# -- front conditions -------------------------------------------------------

def test_front_conditions_hold():
    sol = Stationary413s(**FIG34)
    bc = reduced_bc_residual(reduced_profiles_of(sol), sol.delta)
    assert bc.general_max <= 1e-10
    assert bc.simplified_max <= 1e-10


def test_front_conditions_equivalent_sets():
    # on this branch the general set reduces to (R, P, R') at the front;
    # both must flag a wrong radius together
    sol = Stationary413s(**FIG34)
    prof = reduced_profiles_of(sol)
    off = reduced_bc_residual(prof, 1.1 * sol.delta)
    assert off.general_max > 1e-3
    assert off.simplified_max > 1e-3
    # and the traction conditions are R'-driven: same magnitude class
    assert off.general_max <= 50.0 * off.simplified_max


def test_front_condition_maxima_keep_a_nan():
    bc = BcResiduals(1e-12, math.nan, -1e-12, 0.0,
                     (1e-12, math.nan, 1e-12))
    assert math.isnan(bc.general_max)
    assert math.isnan(bc.simplified_max)


def test_front_conditions_steady():
    sol = Steady432(**STEADY)
    bc = reduced_bc_residual(reduced_profiles_of(sol), sol.delta)
    assert bc.general_max <= 1e-10


# -- lift round trip --------------------------------------------------------

@pytest.mark.parametrize("mk", [
    lambda: Stationary413s(**FIG34),
    lambda: Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                    sigma0=-3.0, delta=1.0),
    lambda: Steady432(**STEADY),
], ids=["stationary", "full", "steady"])
def test_lift_round_trip(mk):
    sol = mk()
    lifted = lift_profiles(reduced_profiles_of(sol))
    for t in (1.0, 2.0):
        for (x, y) in ((0.06, 0.08), (0.18, 0.24), (0.3, 0.4)):
            got = lifted.values(t, x, y)
            want = sol.values(t, x, y)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_lift_requires_positive_time():
    sol = Stationary413s(**FIG34)
    lifted = lift_profiles(reduced_profiles_of(sol))
    with pytest.raises(ValueError):
        lifted.values(0.0, 0.1, 0.1)


# -- the integrated concentration ODE ---------------------------------------

def test_ode_matches_gaussian_closed_form():
    # fully degenerate first-order equation: the second-order profile
    # equation is integrated instead, seeded with the exact slope
    params = _link_params(d0=2.0, sigma0=-0.6, m=-1.0, n=2.0, lamv=4.0)
    phys = PhysConstants(lam=4.0)
    c1, r0 = 5.288866935008417, 0.1
    lam0 = c1 * math.exp(-r0 * r0 / 8.0)
    traj = integrate_ode_4_6(params, phys, beta=0.0, r0=r0, r1=2.0,
                             lambda0=lam0,
                             dlambda0=lam0 * (-2.0 * r0 / 8.0))
    for k in range(20):
        r = 0.1 + 0.1 * k
        want = c1 * math.exp(-r * r / 8.0)
        assert traj(r) == pytest.approx(want, rel=1e-6)


def test_ode_degenerate_branch_needs_slope():
    params = _link_params(d0=2.0, sigma0=-0.6, m=-1.0, n=2.0, lamv=4.0)
    with pytest.raises(IntegrationError):
        integrate_ode_4_6(params, PhysConstants(lam=4.0), beta=0.0,
                          r0=0.1, r1=2.0, lambda0=5.0)


def test_ode_matches_power_closed_form():
    # m = 1 with the matching mobility scale: the profile is c1 * r
    m, n, c1, lamv = 1.0, 3.0, 2.0, 1.0
    d0 = (1.0 + m) / (4.0 * (1.0 + lamv) * c1 ** (1.0 + m))
    params = _link_params(d0=d0, sigma0=-1.0, m=m, n=n, lamv=lamv)
    traj = integrate_ode_4_6(params, PhysConstants(lam=lamv), beta=0.0,
                             r0=1.0, r1=2.0, lambda0=c1)
    for k in range(21):
        r = 1.0 + 0.05 * k
        assert traj(r) == pytest.approx(c1 * r, rel=1e-6)


def _scan_interpolate(traj, t):
    """Dense output with the interval found by a linear scan from the
    start, the search a descending trajectory used before bisection."""
    ts = traj.ts
    i = 0
    while i + 1 < len(ts) - 1 and ts[i + 1] >= t:
        i += 1
    t0, t1 = ts[i], ts[i + 1]
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (h00 * traj.ys[i] + h10 * h * traj.fs[i] + h01 * traj.ys[i + 1]
            + h11 * h * traj.fs[i + 1])


def test_inward_trajectory_bisect_matches_scan():
    # the power closed form integrated inward, from r = 2 down to r = 1
    m, n, c1, lamv = 1.0, 3.0, 2.0, 1.0
    d0 = (1.0 + m) / (4.0 * (1.0 + lamv) * c1 ** (1.0 + m))
    params = _link_params(d0=d0, sigma0=-1.0, m=m, n=n, lamv=lamv)
    traj = integrate_ode_4_6(params, PhysConstants(lam=lamv), beta=0.0,
                             r0=2.0, r1=1.0, lambda0=2.0 * c1).trajectory
    ts = traj.ts
    assert len(ts) > 3 and ts[-1] < ts[0]
    mids = [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
    for t in ts + mids:
        assert traj(t).tolist() == _scan_interpolate(traj, t).tolist(), t


def test_ode_rejects_vanishing_coefficient():
    # m = 0, n = 2: the derivative coefficient is linear in the
    # concentration and vanishes at a crafted initial value
    lamv, sigma0, s0 = 1.0, 1.0, 0.0
    params = PowerLawParams(d0=1.0, s0=s0, sigma0=sigma0, m=0.0, n=2.0)
    link = (2.0 - 1.0) * (2.0 * sigma0 - 0.0)
    lam0 = -(1.0 + lamv) / link
    with pytest.raises(IntegrationError):
        integrate_ode_4_6(params, PhysConstants(lam=lamv), beta=0.0,
                          r0=0.5, r1=2.0, lambda0=lam0)


# -- overdetermined pairs ---------------------------------------------------

def test_overdetermined_gaussian_profile():
    params = _link_params(d0=2.0, sigma0=-0.6, m=-1.0, n=2.0, lamv=4.0)
    prof = lambda r: 5.288866935008417 * dexp(-r * r / 8.0)
    rs = [0.1 + 0.1 * k for k in range(20)]
    e1, e2 = overdetermined_residual(prof, params, PhysConstants(lam=4.0),
                                     "eq_4_5", rs)
    assert e1 <= 1e-9
    assert e2 <= 1e-9


def test_overdetermined_power_profile():
    m, n, c1, lamv = 1.0, 3.0, 2.0, 1.0
    d0 = (1.0 + m) / (4.0 * (1.0 + lamv) * c1 ** (1.0 + m))
    params = _link_params(d0=d0, sigma0=-1.0, m=m, n=n, lamv=lamv)
    prof = lambda r: c1 * r
    rs = [0.5 + 0.1 * k for k in range(16)]
    e1, e2 = overdetermined_residual(prof, params, PhysConstants(lam=lamv),
                                     "eq_4_5", rs)
    assert e1 <= 1e-9
    assert e2 <= 1e-9


def test_overdetermined_constant_profile_exact_value():
    params = _link_params(d0=2.0, sigma0=-0.6, m=-1.0, n=2.0, lamv=4.0)
    prof = lambda r: 2.0 + 0.0 * r
    e1, e2 = overdetermined_residual(prof, params, PhysConstants(lam=4.0),
                                     "eq_4_5", [0.5, 1.0])
    assert e1 == 1.0 / (2.0 * 6.0)
    assert e2 == 0.0


def test_overdetermined_flags_wrong_decay_rate():
    params = _link_params(d0=2.0, sigma0=-0.6, m=-1.0, n=2.0, lamv=4.0)
    # 0.1% error in the Gaussian decay rate
    prof = lambda r: 5.288866935008417 * dexp(-1.001 * r * r / 8.0)
    rs = [0.1 + 0.1 * k for k in range(20)]
    e1, _ = overdetermined_residual(prof, params, PhysConstants(lam=4.0),
                                    "eq_4_5", rs)
    assert e1 >= 1e-5


def test_overdetermined_general_triplet_pair():
    sol = Steady432(**STEADY)
    prof = lambda r: dexp(-r * r / 8.0)
    rs = [0.1 + 0.1 * k for k in range(20)]
    e1, e2 = overdetermined_residual(prof, None, sol.phys(), "eq_4_23",
                                     rs, triplet=sol.triplet())
    assert e1 <= 1e-9
    assert e2 <= 1e-9


def test_overdetermined_residual_keeps_a_nan():
    params = _link_params(d0=2.0, sigma0=-0.6, m=-1.0, n=2.0, lamv=4.0)

    def prof(r):
        g = 5.288866935008417 * dexp(-r * r / 8.0)
        return g * math.nan if abs(value(r) - 0.6) < 0.05 else g

    rs = [0.1 + 0.1 * k for k in range(19)]
    e1, e2 = overdetermined_residual(prof, params, PhysConstants(lam=4.0),
                                     "eq_4_5", rs)
    assert math.isnan(e1) and math.isnan(e2)


def test_overdetermined_unknown_system():
    with pytest.raises(ValueError):
        overdetermined_residual(lambda r: r, None, PhysConstants(lam=1.0),
                                "bogus", [1.0])


# -- first integral and pressure quadrature ---------------------------------

def test_first_integral_reproduces_radial_speed():
    sol = Stationary413s(**FIG34)
    prof = reduced_profiles_of(sol)
    R = first_integral_R(beta=0.0, d0=sol.d0, m=-1.0,
                         lambda_profile=prof.lam,
                         p_prime_profile=ddr(prof.P))
    for r in (0.1, 0.3, 0.6):
        assert R(r) == pytest.approx(sol.values(1.0, r, 0.0)[1], rel=1e-12)


def test_pressure_quadrature_homogeneous():
    P = pressure_from_lambda(lambda r: 1.0, lambda a: 0.0, d0=1.0,
                             c3=1.0, c4=0.0, delta=1.0)
    for r in (0.2, 0.5, 0.9):
        assert P(r) == pytest.approx(math.log(r), rel=1e-12, abs=1e-12)


def test_pressure_quadrature_matches_stationary_closed_form():
    sol = Stationary413s(**FIG34)
    lam = lambda r: sol.values(1.0, r, 0.0)[0]
    # the reduced mass source: proliferation plus the ansatz decay term
    src = lambda a: sol.s0 * a ** sol.n + a / (sol.n - 1.0)
    P = pressure_from_lambda(lam, src, sol.d0, c3=sol.c3, c4=sol.c4,
                             delta=sol.delta)
    for r in (0.1, 0.3, 0.5, sol.delta):
        assert abs(P(r) - sol.values(1.0, r, 0.0)[3]) <= 1e-9


def test_pressure_quadrature_matches_steady_closed_form():
    sol = Steady432(**STEADY)
    lam = lambda r: sol.values(1.0, r, 0.0)[0]
    src = lambda a: sol.k1 * a ** sol.m_exp - sol.k2 * a ** sol.n_exp
    P = pressure_from_lambda(lam, src, sol.d0, c3=sol.c3, c4=sol.c4,
                             delta=sol.delta)
    for r in (0.1, 0.4, 0.8, sol.delta):
        assert abs(P(r) - sol.values(1.0, r, 0.0)[3]) <= 1e-9
