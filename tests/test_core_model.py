"""Constitutive layer: parameter containers, power-law evaluation, scale
exponents and the steady compatibility relation."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from tumorsym.core_model import (DomainError, GeneralTriplet, PhysConstants,
                                 PowerLawParams, PowerLawTriplet)
from tumorsym.reduction import ReducedProfiles
from tumorsym.solutions import (Moving442, RestrictionError, Steady432,
                                reduced_profiles_of)

from support import derivative


def _triplet(d0=1.0, s0=0.5, sigma0=-1.0, m=1.0, n=2.0):
    return PowerLawTriplet(PowerLawParams(d0=d0, s0=s0, sigma0=sigma0,
                                          m=m, n=n))


# -- containers -------------------------------------------------------------

def test_phys_constants_rejects_nonpositive_lam():
    with pytest.raises(ValueError):
        PhysConstants(lam=0.0)
    with pytest.raises(ValueError):
        PhysConstants(lam=-2.0)
    assert PhysConstants(lam=4.0).lam == 4.0


def test_power_law_params_rejects_nonpositive_d0():
    with pytest.raises(ValueError):
        PowerLawParams(d0=0.0, s0=1.0, sigma0=1.0, m=1.0, n=2.0)


# -- power-law evaluation ---------------------------------------------------

def test_power_law_eval_hand_values():
    trip = _triplet(d0=2.0, s0=3.0, sigma0=-1.5, m=2.0, n=3.0)
    cv = trip.eval(2.0)
    assert cv.S == 3.0 * 8.0
    assert cv.D == 2.0 * 4.0
    # d(alpha Sigma)/d alpha = n sigma0 alpha^(n-1)
    assert cv.d_alpha_sigma == 3.0 * -1.5 * 4.0
    assert cv.dD == 2.0 * 2.0 * 2.0


def test_power_law_domain_guard():
    trip = _triplet(m=-1.0, n=2.0)
    assert trip.needs_positive_alpha
    with pytest.raises(DomainError):
        trip.eval(0.0)
    with pytest.raises(DomainError):
        trip.eval(-0.5)
    # all exponents nonnegative integers: negative alpha is allowed
    friendly = _triplet(m=1.0, n=2.0)
    assert not friendly.needs_positive_alpha
    friendly.eval(-1.0)


def test_power_law_fractional_exponent_needs_positive():
    assert _triplet(m=0.5, n=2.0).needs_positive_alpha


def test_general_triplet_matches_power_law():
    trip = _triplet(d0=2.0, s0=0.7, sigma0=-1.2, m=1.0, n=3.0)
    p = trip.params
    gen = GeneralTriplet(
        S=lambda a: p.s0 * a ** p.n,
        D=lambda a: p.d0 * a ** p.m,
        dD=lambda a: p.d0 * p.m * a ** (p.m - 1),
        Sigma=lambda a: p.sigma0 * a ** (p.n - 1),
        dSigma=lambda a: p.sigma0 * (p.n - 1) * a ** (p.n - 2))
    for a in (0.25, 1.0, 1.7):
        cv, cw = trip.eval(a), gen.eval(a)
        for name in ("S", "D", "d_alpha_sigma", "dD"):
            assert getattr(cw, name) == pytest.approx(getattr(cv, name),
                                                      rel=1e-14)


def test_general_triplet_domain_guard():
    gen = GeneralTriplet(S=lambda a: a, D=lambda a: 1.0 / a, dD=lambda a: -1.0 / a ** 2,
                         Sigma=lambda a: a, dSigma=lambda a: 1.0)
    with pytest.raises(DomainError):
        gen.eval(-1.0)


def test_power_law_overflow_gives_nan():
    """A power that overflows gives NaN values, which fail every gate,
    instead of the OverflowError of float **."""
    cv = _triplet(d0=7.5e-4, s0=1.0, sigma0=-3.0, m=-1.0, n=-3.0).eval(
        1e-120)
    assert all(math.isnan(v) for v in
               (cv.S, cv.D, cv.d_alpha_sigma, cv.dD))


# -- scale exponents --------------------------------------------------------

def test_scale_exponents_values():
    def gamma(m, n, steady=False):
        return ReducedProfiles(fields=None, triplet=_triplet(m=m, n=n),
                               phys=PhysConstants(), steady=steady).gamma

    assert gamma(1.0, 3.0) == 0.5
    assert gamma(-1.0, 2.0) == 0.0
    assert gamma(1.0, 3.0, steady=True) == 0.0


@given(st.floats(min_value=-0.99, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_scale_exponents_tied(m, n):
    """The front exponent of a moving family is tied exactly to the
    ansatz exponent of its scale reduction: kappa = -2 gamma."""
    assume(min(abs(n), abs(n - 1.0), abs(1.0 + m + n)) > 1e-3)
    sol = Moving442(c1=1.0, delta=1.0, m=m, n=n, lam=1.0)
    gamma = reduced_profiles_of(sol).gamma
    assert sol.kappa == -2.0 * gamma
    assert gamma == pytest.approx((m + 1.0) / (2.0 * (n - 1.0)), rel=1e-15)


# -- steady compatibility ---------------------------------------------------

def _compatibility(triplet, S, phys, alpha_samples):
    """Max |S/a - S' + (a Sigma)'/(2+lambda)| over the samples, with S'
    from a dual seed of the proliferation rate ``S``; zero exactly when
    the triplet admits the steady radial reduction."""
    worst = 0.0
    for a in alpha_samples:
        cv = triplet.eval(a)
        res = cv.S / a - derivative(S, a) \
            + cv.d_alpha_sigma / (2.0 + phys.lam)
        worst = max(worst, abs(res))
    return worst


def test_compatibility_residual_power_law():
    phys = PhysConstants(lam=4.0)
    n, sigma0 = 2.0, -0.6
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + phys.lam))
    trip = _triplet(d0=2.0, s0=s0, sigma0=sigma0, m=1.0, n=n)
    samples = [0.1, 0.5, 1.0, 2.0, 5.0]
    assert _compatibility(trip, lambda a: s0 * a ** n, phys,
                          samples) < 1e-14
    # breaking the link shows up at leading order
    bad = _triplet(d0=2.0, s0=s0 + 1e-3, sigma0=sigma0, m=1.0, n=n)
    assert _compatibility(bad, lambda a: (s0 + 1e-3) * a ** n, phys,
                          samples) > 1e-4


STEADY = dict(c1=1.0, c3=1.0, delta=1.0, lam=4.0, d0=2.0)


def test_sigma_from_proliferation_compatible():
    """The Sigma of steady432's triplet is the one compatible with its
    two-term proliferation rate."""
    sol = Steady432(m_exp=2.0, n_exp=3.0, **STEADY)
    trip = sol.triplet()
    samples = [0.2, 0.5, 0.9, 1.3, 2.0]
    assert _compatibility(trip, trip.S, sol.phys(), samples) < 1e-13


def test_sigma_from_proliferation_derivative_consistency():
    trip = Steady432(m_exp=2.0, n_exp=4.0, **dict(STEADY, lam=1.0)).triplet()
    for a in (0.5, 1.0, 1.8):
        assert trip.dSigma(a) == pytest.approx(derivative(trip.Sigma, a),
                                               rel=1e-14)


def test_sigma_from_proliferation_rejects_zero_exponent():
    with pytest.raises(RestrictionError):
        Steady432(m_exp=0.0, n_exp=2.0, **STEADY)
    with pytest.raises(RestrictionError):
        Steady432(m_exp=2.0, n_exp=0.0, **STEADY)
