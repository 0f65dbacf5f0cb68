"""Constitutive layer: parameter containers, power-law evaluation, scale
exponents and the steady compatibility relation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tumorsym.core_model import (CONSTRAINT_TOL, ConstitutiveValues,
                                 DegenerateScaleError, DomainError,
                                 GeneralTriplet, PhysConstants,
                                 PowerLawParams, PowerLawTriplet,
                                 compatibility_residual, scale_exponents,
                                 sigma_from_proliferation,
                                 validate_power_law)


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
    assert cv.Sigma == -1.5 * 4.0
    assert cv.dS == 3.0 * 3.0 * 4.0
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
        dS=lambda a: p.s0 * p.n * a ** (p.n - 1),
        D=lambda a: p.d0 * a ** p.m,
        dD=lambda a: p.d0 * p.m * a ** (p.m - 1),
        Sigma=lambda a: p.sigma0 * a ** (p.n - 1),
        dSigma=lambda a: p.sigma0 * (p.n - 1) * a ** (p.n - 2))
    for a in (0.25, 1.0, 1.7):
        cv, cw = trip.eval(a), gen.eval(a)
        for name in ("S", "D", "Sigma", "dS", "d_alpha_sigma", "dD"):
            assert getattr(cw, name) == pytest.approx(getattr(cv, name),
                                                      rel=1e-14)


def test_general_triplet_domain_guard():
    gen = GeneralTriplet(S=lambda a: a, dS=lambda a: 1.0,
                         D=lambda a: 1.0 / a, dD=lambda a: -1.0 / a ** 2,
                         Sigma=lambda a: a, dSigma=lambda a: 1.0)
    with pytest.raises(DomainError):
        gen.eval(-1.0)


# -- scale exponents --------------------------------------------------------

def test_scale_exponents_values():
    se = scale_exponents(m=1.0, n=3.0)
    assert se.gamma == 0.5
    assert se.kappa == -1.0
    se = scale_exponents(m=-1.0, n=2.0)
    assert se.gamma == 0.0
    assert se.kappa == 0.0


def test_scale_exponents_degenerate():
    with pytest.raises(DegenerateScaleError):
        scale_exponents(m=1.0, n=1.0)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False).filter(
           lambda n: abs(n - 1.0) > 1e-3))
@settings(max_examples=50, deadline=None)
def test_scale_exponents_tied(m, n):
    se = scale_exponents(m, n)
    assert se.kappa == -2.0 * se.gamma
    assert se.gamma == pytest.approx((m + 1.0) / (2.0 * (n - 1.0)), rel=1e-15)


# -- diagnostics ------------------------------------------------------------

def test_validate_power_law_link_holds():
    phys = PhysConstants(lam=4.0)
    n, sigma0 = 3.0, -3.0
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + phys.lam))
    diag = validate_power_law(
        PowerLawParams(d0=0.75, s0=s0, sigma0=sigma0, m=-1.0, n=n), phys)
    assert diag.all_ok
    assert diag.s0_link_holds
    assert diag.s0_required == pytest.approx(s0, rel=1e-15)


def test_validate_power_law_link_broken():
    phys = PhysConstants(lam=4.0)
    diag = validate_power_law(
        PowerLawParams(d0=0.75, s0=-0.9, sigma0=-3.0, m=-1.0, n=3.0), phys)
    assert not diag.all_ok
    assert diag.s0_link_holds is False
    assert any("s0" in f for f in diag.flags)


def test_validate_power_law_degenerate_exponent():
    phys = PhysConstants(lam=1.0)
    for n in (0.0, 1.0):
        diag = validate_power_law(
            PowerLawParams(d0=1.0, s0=0.0, sigma0=0.0, m=1.0, n=n), phys)
        assert not diag.exponents_nondegenerate
        assert not diag.all_ok
    # n = 1 skips the s0 link entirely
    diag = validate_power_law(
        PowerLawParams(d0=1.0, s0=5.0, sigma0=1.0, m=1.0, n=1.0), phys)
    assert diag.s0_required is None
    assert diag.s0_link_holds is None


# -- steady compatibility ---------------------------------------------------

def test_compatibility_residual_power_law():
    phys = PhysConstants(lam=4.0)
    n, sigma0 = 2.0, -0.6
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + phys.lam))
    trip = _triplet(d0=2.0, s0=s0, sigma0=sigma0, m=1.0, n=n)
    samples = [0.1, 0.5, 1.0, 2.0, 5.0]
    assert compatibility_residual(trip, phys, samples) < 1e-14
    # breaking the link shows up at leading order
    bad = _triplet(d0=2.0, s0=s0 + 1e-3, sigma0=sigma0, m=1.0, n=n)
    assert compatibility_residual(bad, phys, samples) > 1e-4


def test_sigma_from_proliferation_compatible():
    phys = PhysConstants(lam=4.0)
    k1, k2, m_exp, n_exp = 1.1331484530668263, 1.2840254166877415, 2.0, 3.0
    sigma, dsigma = sigma_from_proliferation(k1, k2, m_exp, n_exp, phys)
    trip = GeneralTriplet(
        S=lambda a: k1 * a ** m_exp - k2 * a ** n_exp,
        dS=lambda a: k1 * m_exp * a ** (m_exp - 1)
        - k2 * n_exp * a ** (n_exp - 1),
        D=lambda a: 8.0, dD=lambda a: 0.0,
        Sigma=sigma, dSigma=dsigma)
    samples = [0.2, 0.5, 0.9, 1.3, 2.0]
    assert compatibility_residual(trip, phys, samples) < 1e-13


def test_sigma_from_proliferation_derivative_consistency():
    phys = PhysConstants(lam=1.0)
    sigma, dsigma = sigma_from_proliferation(0.7, 0.4, 2.0, 4.0, phys)
    h = 1e-6
    for a in (0.5, 1.0, 1.8):
        fd = (sigma(a + h) - sigma(a - h)) / (2.0 * h)
        assert dsigma(a) == pytest.approx(fd, rel=1e-8)


def test_sigma_from_proliferation_rejects_zero_exponent():
    phys = PhysConstants(lam=1.0)
    with pytest.raises(ZeroDivisionError):
        sigma_from_proliferation(1.0, 1.0, 0.0, 2.0, phys)
    with pytest.raises(ZeroDivisionError):
        sigma_from_proliferation(1.0, 1.0, 2.0, 0.0, phys)
