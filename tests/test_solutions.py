"""Closed-form solution families: derived constants against frozen oracles,
field values against independently coded formulas, restriction and
singularity guards."""

import math

import numpy as np
import pytest

from tumorsym.core_model import s0_link
from tumorsym.jets import JET_ENTRIES, analytic_jet
from tumorsym.numerics import exp_over_z_quadrature
from tumorsym.solutions import (BoundaryCircle, Full413, Moving442,
                                Moving444, RestrictionError,
                                SingularityError, Stationary413s, Steady432,
                                reduced_profiles_of)

from support import (FIG34, NON_UNIT_PARAMS, PARAMS, ConstantState,
                     annulus_and_ring)

# Frozen oracle constants, computed independently with mpmath at 50 digits
# from the defining relations delta = exp(-c4/c3), E = exp(delta^2/(4 d0)),
# c1 = n c3 E / 2, sigma0 = -(2+lam) c3/2 (2/(n c3))^n.
FIG34_ORACLE = dict(delta=0.67032004603563930074,
                    E=1.0577733870016834305,
                    c1=5.2888669350084171525,
                    sigma0=-0.6, s0=-0.2)
FIG5 = dict(c3=1.0, c4=-2.5, n=2.0, lam=4.0, d0=8.0)
FIG5_ORACLE = dict(delta=12.182493960703473438,
                   E=103.32829214789790998,
                   c1=103.32829214789790998,
                   sigma0=-3.0, s0=-1.0)


# -- derived constants ------------------------------------------------------

def test_stationary_derived_constants_fig34():
    sol = Stationary413s(**FIG34)
    for key, want in FIG34_ORACLE.items():
        assert getattr(sol, key) == pytest.approx(want, rel=1e-14), key


def test_stationary_derived_constants_fig5():
    sol = Stationary413s(**FIG5)
    for key, want in FIG5_ORACLE.items():
        assert getattr(sol, key) == pytest.approx(want, rel=1e-14), key


def test_stationary_front_radius_closed_form():
    # delta = exp(-c4/c3) for both parameter sets
    assert Stationary413s(**FIG34).delta == pytest.approx(
        math.exp(-0.4), rel=1e-15)
    assert Stationary413s(**FIG5).delta == pytest.approx(
        math.exp(2.5), rel=1e-15)


def test_steady_derived_constants():
    sol = Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                    lam=4.0, d0=2.0)
    assert sol.c4 == 0.0
    assert sol.k1 == pytest.approx(math.exp(0.125), rel=1e-15)
    assert sol.k2 == pytest.approx(math.exp(0.25), rel=1e-15)


def test_moving442_derived_constants():
    sol = Moving442(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0)
    # d0 = (1+m) c1^(-1-m) / (4 (1+lam))
    assert sol.d0 == pytest.approx(2.0 * 100.0 / 8.0, rel=1e-15)
    # sigma0 = -c1^(1-n) (3+m+lam)/n  at delta = 1
    assert sol.sigma0 == pytest.approx(-100.0 * 5.0 / 3.0, rel=1e-15)
    assert sol.s0 == pytest.approx(
        3.0 * sol.sigma0 / (2.0 * 3.0), rel=1e-15)
    assert sol.kappa == pytest.approx((1.0 + 1.0) / (1.0 - 3.0))


def test_moving444_derived_constants():
    sol = Moving444(c1=0.1, delta=1.0, n=-2.0, lam=1.0)
    assert sol.m == 1.0
    # d0 = -n c1^n / (4 (1+lam))
    assert sol.d0 == pytest.approx(2.0 * 100.0 / 8.0, rel=1e-15)
    assert sol.kappa == pytest.approx(-2.0 / -3.0)


def test_full413_regular_c3_fig1():
    sol = Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                  sigma0=-3.0, delta=1.0)
    # 2 sigma0 c1^n/((n-1)(2+lam)) + 2 c1/(n-1) = -0.5 + 1
    assert abs(sol.c3_regular - 0.5) <= 1e-15


@pytest.mark.parametrize("sol", [
    Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0, sigma0=-3.0,
            delta=1.0),
    Stationary413s(**FIG34),
    Moving442(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0),
    Moving444(c1=0.1, delta=1.0, n=-2.0, lam=1.0),
], ids=["full413", "stationary413s", "moving442", "moving444"])
def test_s0_is_the_link_of_the_family(sol):
    """Every power-law family derives s0 through the one s0 link, and
    its triplet carries that s0."""
    assert sol.s0 == s0_link(sol.n, sol.sigma0, sol.lam)
    assert sol.triplet().params.s0 == sol.s0


# -- the m = -1 closed form -------------------------------------------------

def test_stationary413s_reads_the_closed_form_of_full413():
    """One home for eq. 4.13: the stationary family states no closed form
    of its own, and it is full413's sibling, not its subclass."""
    assert Stationary413s.radial is Full413.radial
    assert Stationary413s.radial_alpha is Full413.radial_alpha
    assert not {"radial", "radial_alpha"} & set(vars(Stationary413s))
    assert not issubclass(Stationary413s, Full413)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("params", [
    PARAMS["stationary413s"], NON_UNIT_PARAMS["stationary413s"], FIG5,
], ids=["params", "non_unit", "fig5"])
def test_stationary413s_is_full413_at_the_constants_of_eq_4_40(params, t):
    """A full413 built from a stationary413s's constants has its jet on
    the annulus and the front ring, within 1e-12 of the largest entry of
    each derivative order at each point: the two constructors group the
    constants of the one closed form differently."""
    sta = Stationary413s(**params)
    full = Full413(**{k: getattr(sta, k) for k in Full413.params()})
    for x, y in annulus_and_ring(sta, t):
        got, want = analytic_jet(full, t, x, y), analytic_jet(sta, t, x, y)
        for order in (0, 1, 2):
            names = [k for k in JET_ENTRIES
                     if len(k.partition("_")[2]) == order]
            scale = np.max([np.abs(getattr(want, k)) for k in names], axis=0)
            for k in names:
                err = np.abs(getattr(got, k) - getattr(want, k))
                assert np.all(err <= 1e-12 * scale), k


# -- restrictions -----------------------------------------------------------

def _raises(make, message):
    with pytest.raises(RestrictionError) as info:
        make()
    assert str(info.value) == message


def test_restriction_guards_stationary():
    _raises(lambda: Stationary413s(c3=0.0, c4=1.0, n=2.0, lam=1.0, d0=1.0),
            "c3 = 0 excluded: c3(n-1) must be nonzero")
    _raises(lambda: Stationary413s(c3=1.0, c4=1.0, n=1.0, lam=1.0, d0=1.0),
            "n(n-1) must be nonzero")
    _raises(lambda: Stationary413s(c3=-1.0, c4=1.0, n=2.0, lam=1.0, d0=1.0),
            "n*c3 must be positive for a positive cell concentration")


def test_restriction_guards_moving442():
    _raises(lambda: Moving442(c1=1.0, delta=1.0, m=-1.0, n=3.0, lam=1.0),
            "m != -1 required (the m = -1 branch is a different family)")
    _raises(lambda: Moving442(c1=1.0, delta=1.0, m=-4.0, n=3.0, lam=1.0),
            "m = -n-1 excluded: use the m = -n-1 family")
    _raises(lambda: Moving442(c1=1.0, delta=1.0, m=1.0, n=1.0, lam=1.0),
            "n(n-1) must be nonzero")
    _raises(lambda: Moving442(c1=1.0, delta=1.0, m=-2.0, n=2.0, lam=1.0),
            "derived mobility scale d0 is not positive (requires m > -1)")


def test_restriction_guards_moving444():
    # n c1^n > 0 makes the derived mobility negative
    _raises(lambda: Moving444(c1=1.0, delta=1.0, n=2.0, lam=1.0),
            "derived mobility d0 = -0.25 is not positive; "
            "n*c1^n must be negative")
    _raises(lambda: Moving444(c1=1.0, delta=1.0, n=1.0, lam=1.0),
            "n(n-1) must be nonzero")


def test_restriction_guards_steady():
    def steady(**kw):
        return lambda: Steady432(**dict(
            dict(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0, lam=4.0,
                 d0=1.0), **kw))

    _raises(steady(m_exp=2.0, n_exp=2.0), "m and n exponents must differ")
    _raises(steady(m_exp=-1.0), "0 < m < n required")
    _raises(steady(c1=-1.0), "c1 must be positive")
    _raises(steady(lam=0.0), "lambda must be positive")


def test_full413_restrictions():
    with pytest.raises(RestrictionError):
        Full413(c1=-1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                sigma0=-3.0, delta=1.0)
    with pytest.raises(RestrictionError):
        Full413(c1=1.0, c3=0.5, c4=5.0, n=1.0, d0=0.75, lam=4.0,
                sigma0=-3.0, delta=1.0)


# -- point evaluation guards ------------------------------------------------

def test_singularity_at_origin():
    sol = Stationary413s(**FIG34)
    with pytest.raises(SingularityError):
        sol.values(1.0, 0.0, 0.0)


def test_time_must_be_positive():
    sol = Stationary413s(**FIG34)
    with pytest.raises(ValueError):
        sol.values(0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        sol.values(-1.0, 0.1, 0.0)


def test_constant_state_regular_everywhere():
    cs = ConstantState(alpha0=2.0, p0=0.5)
    a, u1, u2, p = cs.values(1.0, 0.0, 0.0)
    assert (a, u1, u2, p) == (2.0, 0.0, 0.0, 0.5)


# -- field values against independently coded formulas ----------------------

def _stationary_oracle(sol, t, r):
    """Direct transcription of the closed form, sharing no code with the
    family class: velocity bracket without expm1 grouping, pressure through
    the quadrature kernel instead of the exponential-integral one."""
    n, d0 = sol.n, sol.d0
    c3, c4, E, delta = sol.c3, sol.c4, sol.E, sol.delta
    c1 = n * c3 * E / 2.0
    w = r * r
    q = w / (4.0 * d0)
    alpha = c1 * t ** (1.0 / (1.0 - n)) * math.exp(-q)
    bracket = math.exp(q) + E ** n / (n - 1.0) * math.exp((1.0 - n) * q) \
        - n * E / (n - 1.0)
    u = 2.0 * d0 / (n * E) / (t * r) * bracket
    i_n = exp_over_z_quadrature(n / (4.0 * d0), r, delta)
    i_1 = exp_over_z_quadrature(1.0 / (4.0 * d0), r, delta)
    p = t ** (n / (1.0 - n)) * (
        c3 * E ** n / (1.0 - n) * i_n
        + c3 * n * E / (n - 1.0) * i_1
        + c4 + c3 * math.log(r))
    return alpha, u, p


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_stationary_fields_match_independent_oracle(t):
    sol = Stationary413s(**FIG34)
    for r in (0.05, 0.2, sol.delta / 2.0, sol.delta):
        a, u1, u2, p = sol.values(t, r, 0.0)
        oa, ou, op = _stationary_oracle(sol, t, r)
        assert a == pytest.approx(oa, rel=1e-13)
        assert u1 == pytest.approx(ou, rel=1e-11)
        assert u2 == 0.0
        assert p == pytest.approx(op, rel=1e-10, abs=1e-12)


def test_pressure_vanishes_on_front():
    for sol in (Stationary413s(**FIG34), Stationary413s(**FIG5),
                Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                          lam=4.0, d0=2.0)):
        for t in (0.5, 1.0, 2.0):
            p = sol.values(t, sol.boundary().radius(t), 0.0)[3]
            assert abs(p) <= 1e-12


def test_full413_velocity_bounded_at_regular_c3():
    sol = Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                  sigma0=-3.0, delta=1.0)
    ref = abs(sol.values(1.0, 1e-3, 0.0)[1])
    worst = max(abs(sol.values(1.0, r, 0.0)[1])
                for r in [1e-3 * k / 200.0 for k in range(1, 201)])
    assert worst <= 2.0 * ref


def test_full413_velocity_unbounded_off_regular_c3():
    sol = Full413(c1=1.0, c3=2.0, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                  sigma0=-3.0, delta=1.0)
    # the x/w prefactor wins: |u| grows like 1/r toward the origin
    assert abs(sol.values(1.0, 1e-6, 0.0)[1]) \
        > 100.0 * abs(sol.values(1.0, 1e-3, 0.0)[1])


def test_radial_symmetry_of_velocity():
    sol = Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                    lam=4.0, d0=2.0)
    r = 0.4
    th = 1.1
    x, y = r * math.cos(th), r * math.sin(th)
    a, u1, u2, p = sol.values(1.0, x, y)
    a0, ur, _, p0 = sol.values(1.0, r, 0.0)
    assert a == pytest.approx(a0, rel=1e-14)
    assert p == pytest.approx(p0, rel=1e-12)
    assert u1 == pytest.approx(ur * math.cos(th), rel=1e-13)
    assert u2 == pytest.approx(ur * math.sin(th), rel=1e-13)


# -- boundary geometry ------------------------------------------------------

def test_moving_front_radius():
    sol = Moving442(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0)
    b = sol.boundary()
    assert b.kappa == sol.kappa
    assert b.radius(4.0) == pytest.approx(4.0 ** (sol.kappa / 2.0), rel=1e-15)
    assert abs(b.level(4.0, b.radius(4.0), 0.0)) < 1e-14
    with pytest.raises(ValueError):
        b.radius(0.0)


def test_static_front_radius():
    b = BoundaryCircle(delta=0.5, kappa=0.0)
    assert b.radius(123.0) == 0.5
    assert b.level_t(3.0) == 0.0
    with pytest.raises(ValueError):
        BoundaryCircle(delta=-1.0)


# -- jets and reduced profiles ----------------------------------------------

def test_eval_jet_matches_values():
    sol = Stationary413s(**FIG34)
    jet = analytic_jet(sol, 1.0, 0.3, 0.2)
    a, u1, u2, p = sol.values(1.0, 0.3, 0.2)
    assert jet.alpha == pytest.approx(a, rel=1e-14)
    assert jet.u1 == pytest.approx(u1, rel=1e-14)
    assert jet.u2 == pytest.approx(u2, rel=1e-14)
    assert jet.p == pytest.approx(p, rel=1e-14)
    # jet derivatives agree with central differences of the raw fields
    h = 1e-6
    fd = (sol.values(1.0, 0.3 + h, 0.2)[0]
          - sol.values(1.0, 0.3 - h, 0.2)[0]) / (2.0 * h)
    assert jet.alpha_x == pytest.approx(fd, rel=1e-8)
    fd = (sol.values(1.0 + h, 0.3, 0.2)[0]
          - sol.values(1.0 - h, 0.3, 0.2)[0]) / (2.0 * h)
    assert jet.alpha_t == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("mk", [
    lambda: Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                    sigma0=-3.0, delta=1.0),
    lambda: Stationary413s(**FIG34),
    lambda: Moving442(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0),
    lambda: Moving444(c1=0.1, delta=1.0, n=-2.0, lam=1.0),
    lambda: Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                      lam=4.0, d0=2.0),
], ids=["full413", "stationary413s", "moving442", "moving444", "steady432"])
def test_reduced_profiles_are_unit_time_slice(mk):
    sol = mk()
    prof = reduced_profiles_of(sol)
    for r in (0.1, 0.5, 0.9):
        a, u1, u2, p = sol.values(1.0, r, 0.0)
        got = prof.fields(r)
        assert [v.hex() for v in got] == [v.hex() for v in (a, u1, p, 0.0)]
    if not sol.steady:
        assert prof.triplet.params.m == sol.m \
            and prof.triplet.params.n == sol.n