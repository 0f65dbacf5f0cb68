"""Reduction machinery: radial ODE residuals of the closed-form profiles,
front conditions, lift round-trips, the integrated concentration ODE
against its closed forms, and the pressure quadrature."""

import dataclasses
import math

import numpy as np
import pytest

from tumorsym.core_model import PhysConstants, PowerLawParams, PowerLawTriplet
from tumorsym.jets import JET_ENTRIES, analytic_jet
from tumorsym.numerics import IntegrationError
from tumorsym.numerics.dual import (cos as dcos, exp as dexp,
                                    sin as dsin, value)
from tumorsym.reduction import (BcResiduals, ReducedProfiles,
                                integrate_ode_4_6, lift_profiles,
                                pressure_from_lambda, reduced_bc_residual,
                                reduced_ode_residual)
from tumorsym.residuals import SampleSet
from tumorsym.solutions import (FAMILY_IDS, Full413, Stationary413s,
                                Steady432, reduced_profiles_of)

from support import (FIG34, PARAMS, ddr, first_integral_R,
                     overdetermined_residual)


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
    lambda: Steady432(**PARAMS["steady432"]),
], ids=["stationary413s", "steady432"])
def test_reduced_ode_flags_wrong_profile(mk):
    sol = mk()
    prof = reduced_profiles_of(sol)

    def fields(r):
        lam, R, P, Phi = prof.fields(r)
        return 1.001 * lam, R, P, Phi

    broken = dataclasses.replace(prof, fields=fields)
    rep = reduced_ode_residual(broken, _radii(sol.delta))
    assert rep.linf >= 1e-4


def test_steady_residual_profile():
    sol = Steady432(**PARAMS["steady432"])
    rep = reduced_ode_residual(reduced_profiles_of(sol), _radii(sol.delta))
    assert rep.engine == "steady-ode"
    assert rep.linf <= 1e-9


@pytest.mark.parametrize("mk", [
    lambda: Stationary413s(**FIG34),
    lambda: Steady432(**PARAMS["steady432"]),
], ids=["stationary413s", "steady432"])
def test_reduced_checks_evaluate_the_family_once_per_check(mk,
                                                           monkeypatch):
    """One array call of ``radial`` serves all 64 radii, and one more the
    front conditions."""
    sol = mk()
    calls = []
    radial = sol.radial

    def counted(t, w):
        calls.append(t)
        return radial(t, w)

    monkeypatch.setattr(sol, "radial", counted)
    prof = reduced_profiles_of(sol)
    rep = reduced_ode_residual(prof, _radii(sol.delta))
    assert rep.sample_count == 64
    assert len(calls) == 1
    reduced_bc_residual(prof, sol.delta)
    assert len(calls) == 2


def _swirl_profiles(steady):
    """Smooth profiles with a flow angle Phi = 0.3 r + 0.2 r^2: no family
    has a swirl, so these exercise the Phi terms of the reduced system
    (the r^2 term keeps Phi'' nonzero)."""
    def fields(r):
        return (2.0 + dexp(-r * r), r * (1.0 + 0.5 * r),
                dcos(1.5 * r) + 0.2 * r * r, 0.3 * r + 0.2 * r * r)

    triplet = PowerLawTriplet(_link_params(0.75, -3.0, 1.0, 3.0, 4.0))
    return ReducedProfiles(fields=fields, triplet=triplet,
                           phys=PhysConstants(lam=4.0), steady=steady)


def _reference_rows(profiles, samples_r):
    """The reduced system in its earlier form, as the reference: every
    product is differentiated by AD through a ``ddr`` closure."""
    lamv, gamma = profiles.phys.lam, profiles.gamma

    def comp(i):
        return lambda r: profiles.fields(r)[i]

    L, R, P, Phi = comp(0), comp(1), comp(2), comp(3)
    dL, dP, dR, dPhi = ddr(L), ddr(P), ddr(R), ddr(Phi)
    d2P = ddr(dP)
    d_mass_flux = ddr(lambda r: r * L(r) * R(r) * dcos(Phi(r)))
    d_vol_flux = ddr(lambda r: r * R(r) * dcos(Phi(r)))
    d_swirl = ddr(lambda r: r * R(r) * L(r) * dPhi(r))
    d_shear = ddr(lambda r: r * L(r) * dR(r))
    rows = []
    for r in samples_r:
        lam = L(r)
        c = profiles.triplet.eval(lam)
        lam_p = dL(r)
        phi = Phi(r)
        darcy = c.D * dP(r) + r * c.dD * lam_p * dP(r) + r * c.D * d2P(r)
        src = c.d_alpha_sigma * lam_p + dP(r)
        eq1 = d_mass_flux(r) - r * c.S
        if not profiles.steady:
            n = profiles.triplet.params.n
            eq1 += gamma * r * r * lam_p - r * lam / (n - 1.0)
        eq2 = d_vol_flux(r) - darcy
        eq3 = (1.0 + lamv) * R(r) * lam_p * dsin(2.0 * phi) \
            - (2.0 + lamv) * d_swirl(r) \
            - (2.0 + lamv) * r * lam * dR(r) * dPhi(r) \
            - r * src * dsin(phi)
        eq4 = (1.0 + lamv) * r * R(r) * lam_p * dcos(2.0 * phi) \
            + (2.0 + lamv) * r * d_shear(r) \
            - (2.0 + lamv) * lam * R(r) * (1.0 + (r * dPhi(r)) ** 2) \
            - r * R(r) * lam_p - r * r * src * dcos(phi)
        rows.append((eq1, eq2, eq3, eq4))
    delta = samples_r[-1]
    phi = Phi(delta)
    bc = (profiles.gamma * delta + R(delta) * dcos(phi), P(delta),
          (2.0 + lamv) * delta * dR(delta)
          + R(delta) * ((1.0 + lamv) * dcos(2.0 * phi) - 1.0),
          R(delta) * ((2.0 + lamv) * delta * dPhi(delta)
                      - (1.0 + lamv) * dsin(2.0 * phi)))
    return rows, bc


@pytest.mark.parametrize("steady", [False, True], ids=["scale", "steady"])
def test_reduced_swirl_terms_match_the_closure_form(steady):
    prof = _swirl_profiles(steady)
    radii = _radii(0.8)
    rep = reduced_ode_residual(prof, radii)
    rows, bc_ref = _reference_rows(prof, radii)
    for k, name in enumerate(("radial_mass", "radial_divergence",
                              "radial_momentum_phi", "radial_momentum_r")):
        col = [abs(row[k]) for row in rows]
        eq = rep.norm(name)
        assert max(col) > 1e-2  # not a solution: every equation is live
        assert eq.linf == pytest.approx(max(col), rel=1e-12)
        assert eq.l2 == pytest.approx(
            math.sqrt(math.fsum(v * v for v in col)), rel=1e-12)
    bc = reduced_bc_residual(prof, radii[-1])
    got = (bc.kinematic, bc.pressure, bc.traction_1, bc.traction_2)
    assert got == pytest.approx(bc_ref, rel=1e-12, abs=1e-14)
    assert abs(bc.traction_2) > 1e-2


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
    sol = Steady432(**PARAMS["steady432"])
    bc = reduced_bc_residual(reduced_profiles_of(sol), sol.delta)
    assert bc.general_max <= 1e-10


# -- lift round trip --------------------------------------------------------

@pytest.mark.parametrize("mk", [
    lambda: Stationary413s(**FIG34),
    lambda: Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                    sigma0=-3.0, delta=1.0),
    lambda: Steady432(**PARAMS["steady432"]),
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


@pytest.mark.parametrize("family_id", sorted(PARAMS))
def test_lifted_jet_matches_the_family_jet(family_id):
    """Every jet entry of the lift agrees with the family's to rounding of
    the largest entry of its derivative order at that point (the jets of a
    radial field differ in size by orders between orders)."""
    sol = FAMILY_IDS[family_id](**PARAMS[family_id])
    lifted = lift_profiles(reduced_profiles_of(sol))
    by_order = {k: [e for e in JET_ENTRIES if len(e.partition("_")[2]) == k]
                for k in (0, 1, 2)}
    for t, x, y in SampleSet(times=(0.5, 1.0, 2.0)).slices(sol.boundary()):
        got, want = analytic_jet(lifted, t, x, y), analytic_jet(sol, t, x, y)
        for names in by_order.values():
            scale = np.max([np.abs(getattr(want, e)) for e in names], axis=0)
            for e in names:
                gap = np.abs(getattr(got, e) - getattr(want, e))
                assert np.all(gap <= 1e-14 * scale), (t, e)


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
    sol = Steady432(**PARAMS["steady432"])
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
                         lambda_profile=lambda r: prof.fields(r)[0],
                         p_prime_profile=ddr(lambda r: prof.fields(r)[2]))
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
    sol = Steady432(**PARAMS["steady432"])
    lam = lambda r: sol.values(1.0, r, 0.0)[0]
    src = lambda a: sol.k1 * a ** sol.m_exp - sol.k2 * a ** sol.n_exp
    P = pressure_from_lambda(lam, src, sol.d0, c3=sol.c3, c4=sol.c4,
                             delta=sol.delta)
    for r in (0.1, 0.4, 0.8, sol.delta):
        assert abs(P(r) - sol.values(1.0, r, 0.0)[3]) <= 1e-9


def _pressure_oracle(fid):
    """A family, its pressure rebuilt from lambda and the reduced mass
    source, and a count of the lambda-profile calls."""
    if fid == "stationary413s":
        sol = Stationary413s(**FIG34)
        src = lambda a: sol.s0 * a ** sol.n + a / (sol.n - 1.0)
    else:
        sol = Steady432(**PARAMS["steady432"])
        src = lambda a: sol.k1 * a ** sol.m_exp - sol.k2 * a ** sol.n_exp
    calls = [0]

    def lam(r):
        calls[0] += 1
        return sol.values(1.0, r, 0.0)[0]

    return sol, pressure_from_lambda(lam, src, sol.d0, c3=sol.c3,
                                     c4=sol.c4, delta=sol.delta), calls


@pytest.mark.parametrize("fid", ["stationary413s", "steady432"])
def test_pressure_quadrature_outside_the_front(fid):
    """The r > delta branch: the far tail starts at r, and the near part
    enters with the opposite sign."""
    sol, P, _ = _pressure_oracle(fid)
    r = 1.3 * sol.delta
    assert abs(P(r) - sol.values(1.0, r, 0.0)[3]) <= 1e-12


@pytest.mark.parametrize("fid, radii", [
    ("stationary413s", (0.1, 0.3, 0.5)), ("steady432", (0.1, 0.4, 0.8))])
def test_pressure_quadrature_within_1e_12_of_the_closed_form(fid, radii):
    sol, P, _ = _pressure_oracle(fid)
    for r in radii + (sol.delta,):
        assert abs(P(r) - sol.values(1.0, r, 0.0)[3]) <= 1e-12


def test_pressure_quadrature_is_one_quadrature_per_radius():
    """The swapped order integrates each radius once and the far tail from
    delta once, where the nested order integrated out to infinity at
    every node (67 770 lambda calls for these four radii)."""
    sol, P, calls = _pressure_oracle("stationary413s")
    for r in (0.1, 0.3, 0.5, sol.delta):
        P(r)
    assert calls[0] < 2000
    # a later radius below delta reuses the far tail of the first
    before = calls[0]
    P(0.2)
    _, fresh, fresh_calls = _pressure_oracle("stationary413s")
    fresh(0.2)
    assert calls[0] - before < fresh_calls[0]
