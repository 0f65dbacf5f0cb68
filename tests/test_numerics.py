"""Numerics layer: quadrature, special integral, ODE, FD, duals, compensated
arithmetic."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tumorsym.numerics import (IntegrationError, OdeSpec, QuadratureSpec,
                               SingularEndpointError, exp_over_z_integral,
                               exp_over_z_quadrature, fd_derivative,
                               neumaier_sum, ode_integrate, quad_adaptive,
                               richardson_order)
from tumorsym.numerics.dd import DD, two_prod, two_sum
from tumorsym.numerics.dual import (Dual, atan2, cos, ddr, derivative, exp,
                                    expm1, lift, log, second_derivative,
                                    seed2, sin, sqrt, value)
from tumorsym.numerics.quadrature import _GK15

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


# -- quadrature -------------------------------------------------------------

def test_quad_polynomial_exact():
    val, err = quad_adaptive(lambda z: 3.0 * z * z, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-13
    assert err < 1e-10


@pytest.mark.parametrize("column, degree", [(2, 22), (1, 12)],
                         ids=["kronrod15", "gauss7"])
def test_gk15_rules_integrate_monomials_to_double_precision(column, degree):
    # K15 is exact through degree 23 and G7 through degree 13; the odd
    # moments vanish by the symmetry of the table
    for k in range(0, degree + 1, 2):
        got = math.fsum(row[column] * row[0] ** k for row in _GK15)
        assert abs(got - 2.0 / (k + 1)) <= 1e-15 * (2.0 / (k + 1)), k


def test_quad_gaussian():
    # int_0^5 e^{-z^2} dz = sqrt(pi)/2 erf(5)
    val, _ = quad_adaptive(lambda z: math.exp(-z * z), 0.0, 5.0)
    assert abs(val - math.sqrt(math.pi) / 2.0 * math.erf(5.0)) < 1e-13


def test_quad_orientation():
    a, _ = quad_adaptive(math.sin, 0.0, 1.0)
    b, _ = quad_adaptive(math.sin, 1.0, 0.0)
    assert abs(a + b) < 1e-15


# -- the exp-over-z integral ------------------------------------------------

def test_exp_over_z_zero_a_is_log():
    assert exp_over_z_integral(0.0, 0.25, 2.0) == math.log(8.0)


def test_exp_over_z_pole_rejected():
    with pytest.raises(SingularEndpointError):
        exp_over_z_integral(1.0, 0.0, 1.0)
    with pytest.raises(SingularEndpointError):
        exp_over_z_quadrature(1.0, -0.5, 1.0)


def test_exp_over_z_dual_path_grid():
    # the documented cross-check grid: both evaluation routes agree
    worst = 0.0
    for a in (0.03125, 0.125, 0.5, 2.0):
        for r in (0.01, 0.1, 0.5, 0.99):
            for delta in (1.0, 0.67032, 12.182):
                u = exp_over_z_integral(a, r, delta)
                v = exp_over_z_quadrature(a, r, delta)
                worst = max(worst, abs(u - v) / max(abs(u), 1.0))
    assert worst <= 1e-12


def test_exp_over_z_sign_flip():
    assert exp_over_z_integral(0.5, 2.0, 1.0) == pytest.approx(
        -exp_over_z_integral(0.5, 1.0, 2.0), rel=1e-15)


# -- ODE integrator ---------------------------------------------------------

def test_ode_exponential_decay():
    traj = ode_integrate(lambda r, y: [-2.0 * y[0]], [1.0], 0.0, 3.0,
                         OdeSpec(rel_tol=1e-11, abs_tol=1e-14))
    for r in (0.3, 1.1, 2.7, 3.0):
        assert traj(r)[0] == pytest.approx(math.exp(-2.0 * r), rel=1e-8)


def test_ode_dense_output_between_steps():
    traj = ode_integrate(lambda r, y: [math.cos(r)], [0.0], 0.0, 10.0,
                         OdeSpec(rel_tol=1e-10, abs_tol=1e-12))
    assert traj(7.39)[0] == pytest.approx(math.sin(7.39), abs=1e-6)


def test_ode_out_of_range():
    traj = ode_integrate(lambda r, y: [y[0]], [1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        traj(1.5)


def test_ode_blowup_reported():
    with pytest.raises(IntegrationError):
        ode_integrate(lambda r, y: [y[0] ** 2], [1.0], 0.0, 5.0,
                      OdeSpec(max_steps=2000))


# -- finite differences -----------------------------------------------------

def test_fd_first_derivative():
    d = fd_derivative(math.sin, 0.7, 1, 4, 1e-3)
    assert d == pytest.approx(math.cos(0.7), abs=1e-11)


def test_fd_second_derivative():
    d = fd_derivative(math.sin, 0.7, 2, 4, 1e-3)
    assert d == pytest.approx(-math.sin(0.7), abs=1e-8)


def test_fd_observed_orders():
    f, x = math.exp, 0.3

    def errs(scheme, hs):
        return [abs(fd_derivative(f, x, 1, scheme, h) - math.exp(x))
                for h in hs]

    # step sizes chosen so truncation error dominates rounding noise
    assert richardson_order(errs(2, (4e-3, 2e-3, 1e-3))) >= 1.9
    assert richardson_order(errs(4, (2e-1, 1e-1, 5e-2))) >= 3.8


# -- dual numbers -----------------------------------------------------------

def test_dual_first_and_second():
    f = lambda z: exp(sin(z)) / (1.0 + z * z)
    x = 0.83
    h = 1e-5
    ref1 = (f(x + h) - f(x - h)) / (2 * h)
    ref2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    assert derivative(f, x) == pytest.approx(ref1, abs=1e-8)
    assert second_derivative(f, x) == pytest.approx(ref2, abs=1e-4)


def test_dual_lift_leibniz():
    # value from a black box, derivative supplied analytically
    f = lambda z: lift(z, lambda v: math.erf(v),
                       lambda v: 2.0 / math.sqrt(math.pi) * exp(-v * v))
    assert derivative(f, 0.4) == pytest.approx(
        2.0 / math.sqrt(math.pi) * math.exp(-0.16), rel=1e-14)


def test_ddr_composes():
    g = ddr(lambda r: r * r * r)
    assert value(g(2.0)) == pytest.approx(12.0)
    assert derivative(g, 2.0) == pytest.approx(12.0)


def test_atan2_quadrants():
    for x, y in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0),
                 (0.5, 2.0), (-2.0, 0.5)):
        assert value(atan2(y, x)) == pytest.approx(math.atan2(y, x))


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_dual_chain_rule_property(x):
    f = lambda z: log(sqrt(z) + 1.0)
    exact = 1.0 / (2.0 * math.sqrt(x) * (math.sqrt(x) + 1.0))
    assert derivative(f, x) == pytest.approx(exact, rel=1e-12)


@given(finite, finite)
@settings(max_examples=40, deadline=None)
def test_dual_product_rule_property(a, b):
    f = lambda z: (z + a) * (z + b)
    assert derivative(f, 0.5) == pytest.approx(1.0 + a + b, rel=1e-12,
                                               abs=1e-9)


def test_expm1_near_zero():
    assert value(expm1(1e-12)) == math.expm1(1e-12)
    assert derivative(expm1, 1e-12) == math.exp(1e-12)


# -- double-double ----------------------------------------------------------

def test_two_sum_error_exact():
    s, e = two_sum(1.0, 1e-20)
    assert s == 1.0 and e == 1e-20


def test_two_prod_error_exact():
    a, b = 1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30
    p, e = two_prod(a, b)
    from fractions import Fraction
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


_dd_operand = st.floats(min_value=-1e8, max_value=1e8,
                        allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-6)


@given(_dd_operand, _dd_operand)
@settings(max_examples=60, deadline=None)
def test_dd_add_mul_exact(a, b):
    from fractions import Fraction
    s = DD.of(a) + DD.of(b)
    p = DD.of(a) * DD.of(b)
    assert Fraction(s.hi) + Fraction(s.lo) == Fraction(a) + Fraction(b)
    assert Fraction(p.hi) + Fraction(p.lo) == Fraction(a) * Fraction(b)


def test_dd_division_recovers():
    x = (DD.of(1.0) / 3.0) * 3.0
    assert abs(x.hi - 1.0) == 0.0 and abs(x.lo) < 1e-31


def test_dd_cancellation_beats_double():
    # (1 + h)^2 - 1 - 2h == h^2, which plain double arithmetic destroys
    h = 1e-9
    z = (DD.of(1.0) + h) ** 2 - 1.0 - 2.0 * h
    assert z.to_float() == pytest.approx(h * h, rel=1e-12)


def test_dd_expm1_small_argument():
    z = DD(1e-7, 0.0).expm1()
    # reference from the series to 30 digits
    ref = 1e-7 + 0.5e-14 + 1e-21 / 6.0
    assert abs(z.to_float() - ref) < 1e-22


def test_dd_log_exp_roundtrip():
    for v in (0.03, 0.7, 1.0 + 1e-9, 42.0):
        z = DD.of(v).log().exp()
        assert z.to_float() == pytest.approx(v, rel=5e-16)


def test_dd_comparisons_use_low_word():
    assert DD(1.0, 1e-20) > 1.0
    assert DD(1.0, -1e-20) < 1.0
    assert DD(1.0, 0.0) == 1.0


def test_neumaier_sum_ill_conditioned():
    vals = [1.0, 1e100, 1.0, -1e100]
    assert neumaier_sum(vals) == 2.0
