"""Numerics layer: quadrature, special integral, ODE, FD, duals, compensated
arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tumorsym.numerics import (IntegrationError, OdeSpec, QuadratureError,
                               QuadratureSpec, SingularEndpointError,
                               exp_over_z_integral, exp_over_z_quadrature,
                               fd_derivative, ode_integrate, quad_adaptive)
from tumorsym.numerics.dd import DD, two_prod, two_sum
from tumorsym.numerics.dual import (Dual, Taylor, cos, exp, expm1, lift,
                                    log, sin, sqrt, value)
from tumorsym.numerics.quadrature import _GK15

from support import ddr, derivative, richardson_order, second_derivative

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


def test_quad_reports_its_best_estimate_when_the_depth_budget_runs_out():
    # the step at 1/3 is on no bisection point, so no panel around it
    # converges within two halvings
    with pytest.raises(QuadratureError) as info:
        quad_adaptive(lambda z: 0.0 if z < 1.0 / 3.0 else 1.0, 0.0, 1.0,
                      QuadratureSpec(max_depth=2))
    assert math.isfinite(info.value.estimate)
    assert math.isfinite(info.value.error) and info.value.error > 0.0
    assert abs(info.value.estimate - 2.0 / 3.0) < 0.1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quad_fails_at_once_on_a_nan_or_infinite_integrand(bad):
    # the panel's error estimate is NaN and never passes the tolerance
    # test: the panel fails where it is, instead of bisecting to
    # 2^max_depth panels
    calls = 0

    def integrand(z):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("quad_adaptive kept bisecting a NaN panel")
        return bad

    with pytest.raises(QuadratureError) as info:
        quad_adaptive(integrand, 0.0, 1.0)
    assert not math.isfinite(info.value.estimate)
    assert math.isnan(info.value.error)


def test_exp_over_z_quadrature_fails_at_once_on_a_nan_coefficient():
    with pytest.raises(QuadratureError):
        exp_over_z_quadrature(math.nan, 0.5, 1.0)


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
    d = fd_derivative(math.sin, 0.7, 1, 1e-3)
    assert d == pytest.approx(math.cos(0.7), abs=1e-11)


def test_fd_second_derivative():
    d = fd_derivative(math.sin, 0.7, 2, 1e-3)
    assert d == pytest.approx(-math.sin(0.7), abs=1e-8)


def test_fd_observed_orders():
    f, x = math.exp, 0.3
    # step sizes chosen so truncation error dominates rounding noise
    errs = [abs(fd_derivative(f, x, 1, h) - math.exp(x))
            for h in (2e-1, 1e-1, 5e-2)]
    assert richardson_order(errs) >= 3.8


def test_fd_rejects_an_unsupported_order():
    with pytest.raises(ValueError, match="unsupported stencil: order=3"):
        fd_derivative(math.sin, 0.7, 3, 1e-3)


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


def test_lift_takes_the_second_derivative_from_fder():
    f = lambda z: lift(z, lambda v: math.erf(v),
                       lambda v: 2.0 / math.sqrt(math.pi) * exp(-v * v))
    assert second_derivative(f, 0.4) == pytest.approx(
        -1.6 / math.sqrt(math.pi) * math.exp(-0.16), rel=1e-14)


# functions of one argument built from every Taylor rule: the arithmetic
# with constants and with Taylor operands, constant powers, and the six
# elementary functions
_TAYLOR_CASES = {
    "exp": exp, "expm1": expm1, "log": log, "sin": sin, "cos": cos,
    "sqrt": sqrt,
    "pow": lambda z: z ** 1.7, "negative-pow": lambda z: z ** -2.5,
    "cube": lambda z: z ** 3.0, "square": lambda z: z ** 2,
    "rdiv": lambda z: 1.3 / z, "div": lambda z: (z + 2.0) / (z * z + 1.0),
    "poly": lambda z: 4.0 - (z * z * z - 2.0 * z) + z * 0.5 - 1.0,
}


@pytest.mark.parametrize("name", sorted(_TAYLOR_CASES))
def test_taylor_coefficients_match_mpmath(name):
    """g(a) for an argument with both coefficients set, a(s) = x + 0.3 s
    + 0.2 s^2, has the coefficients c1 = (g o a)'(0) and c2 = (g o a)''(0)
    / 2 of mpmath's series, on DD and on float coefficients."""
    mpmath = pytest.importorskip("mpmath")
    g = _TAYLOR_CASES[name]
    mp_g = {"exp": mpmath.exp, "expm1": mpmath.expm1, "log": mpmath.log,
            "sin": mpmath.sin, "cos": mpmath.cos,
            "sqrt": mpmath.sqrt}.get(name, g)
    for x in (0.3, 1.7, 4.25):
        with mpmath.workdps(40):
            want = mpmath.taylor(
                lambda s: mp_g(x + 0.3 * s + 0.2 * s * s), 0, 2)
        for z in (g(Taylor(DD.of(x), 0.3, 0.2)), g(Taylor(x, 0.3, 0.2))):
            got = [value(c) for c in (z.c0, z.c1, z.c2)]
            scale = max(abs(w) for w in want)
            for k in range(3):
                assert abs(got[k] - want[k]) <= 4e-16 * scale, (x, k)


def test_ddr_composes():
    g = ddr(lambda r: r * r * r)
    assert value(g(2.0)) == pytest.approx(12.0)
    assert derivative(g, 2.0) == pytest.approx(12.0)


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


# (function, libm kernel, DD method, derivative d * f'(x) written as the
# dual rule writes it, from the seed d, the point x and the value f(x))
_ELEMENTARY = [
    (exp, math.exp, DD.exp, lambda d, x, fx: d * fx),
    (expm1, math.expm1, DD.expm1, lambda d, x, fx: d * exp(x)),
    (log, math.log, DD.log, lambda d, x, fx: d / x),
    (sin, math.sin, DD.sin, lambda d, x, fx: d * cos(x)),
    (cos, math.cos, DD.cos, lambda d, x, fx: -d * sin(x)),
    (sqrt, math.sqrt, DD.sqrt, lambda d, x, fx: d / (2.0 * fx)),
]
_POINTS = (0.3, 1.7, 12.5, 1e-9)


def _bits(z):
    return (z.hi, z.lo) if isinstance(z, DD) else z


@pytest.mark.parametrize("f, libm, method, der", _ELEMENTARY,
                         ids=[row[1].__name__ for row in _ELEMENTARY])
def test_elementary_dispatch_keeps_every_path(f, libm, method, der):
    """Floats take libm's bits, arrays libm's bits element by element,
    DDs their method's (hi, lo), duals the derivative rule."""
    for x in _POINTS:
        assert f(x) == libm(x)
        zero_d = f(np.array(x))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert zero_d.item() == libm(x)
        got, want = f(DD(x, x * 1e-17)), method(DD(x, x * 1e-17))
        assert (got.hi, got.lo) == (want.hi, want.lo)
        for dot in (1.0, 0.7):
            z = f(Dual(x, dot))
            assert (z.val, z.dot) == (libm(x), der(dot, x, libm(x)))
        z = f(Dual(DD.of(x), 0.7))
        fx = method(DD.of(x))
        assert _bits(z.val) == _bits(fx)
        assert _bits(z.dot) == _bits(der(0.7, DD.of(x), fx))
    xs = np.array([list(_POINTS), [2.0, 0.5, 3.25, 7.0]])
    got = f(xs)
    assert got.shape == xs.shape
    assert got.tolist() == [[libm(v) for v in row] for row in xs.tolist()]


@pytest.mark.parametrize("f", [log, sqrt], ids=["log", "sqrt"])
def test_log_and_sqrt_of_a_negative_float_raise(f):
    with pytest.raises(ValueError):
        f(-1.0)
    with pytest.raises(ValueError):
        f(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        f(np.array(-1.0))


def test_a_float_base_to_a_dual_power_is_a_type_error():
    with pytest.raises(TypeError):
        2.0 ** Dual(1.0, 1.0)


@pytest.mark.parametrize("base", [
    DD.of(2.0), Dual(DD.of(2.0), 1.0), Taylor(DD.of(2.0), 1.0, 0.0)],
    ids=["dd", "dual", "taylor"])
@pytest.mark.parametrize("power", [
    Dual(1.5, 1.0), Taylor(1.5, 1.0, 0.0)], ids=["dual", "taylor"])
def test_a_seeded_power_is_a_type_error(base, power):
    """No model raises to a seeded power: a DD base (alone or under a seed)
    declines it as a float base does, so the power is a TypeError, not an
    AttributeError from deep inside DD."""
    with pytest.raises(TypeError):
        base ** power


# -- double-double ----------------------------------------------------------

def test_a_float_base_to_a_dd_power_is_a_type_error():
    with pytest.raises(TypeError):
        2.0 ** DD(1.0)


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


# -- the array layout of a DD: indexing and joining both words --------------

def _words(z):
    """The bits of both words of a DD of arrays."""
    return [np.asarray(w, dtype=float).view(np.int64).tolist()
            for w in (z.hi, z.lo)]


def test_dd_index_shares_a_float_lo():
    hi = np.array([1.0, 2.0, 3.0, 4.0])
    lo = np.array([1e-17, -2e-17, 3e-17, -4e-17])
    z = DD.of(hi)
    assert z.lo == 0.0 and z.ndim == 1
    part = z[1:3]
    assert part.hi.tolist() == [2.0, 3.0] and part.lo == 0.0
    assert (z[2].hi, z[2].lo) == (3.0, 0.0)
    stacked = DD(np.stack((hi, -hi)), np.stack((lo, -lo)))
    assert _words(stacked[:, 1:]) == _words(DD(np.stack((hi, -hi))[:, 1:],
                                               np.stack((lo, -lo))[:, 1:]))
    assert _words(stacked[1]) == _words(DD(-hi, -lo))
    assert DD(2.0, 1e-17).ndim == 0


def test_dd_join_end_to_end_is_numpy_concatenation():
    """``DD.of`` parts, whose lo is a float, join with parts that carry an
    array lo: each word is numpy's concatenation of the parts' words, a
    float lo broadcast to its part, a float as one element."""
    a = np.array([0.5, -1.5, 2.5])
    b, b_lo = np.array([3.0, 4.0]), np.array([1e-17, -3e-17])
    c = np.array([-0.0, 7.0])
    got = DD.join([DD.of(a), DD(b, b_lo), c, 9.0])
    assert _words(got) == _words(DD(
        np.concatenate((a, b, c, [9.0])),
        np.concatenate((np.zeros(3), b_lo, np.zeros(2), [0.0]))))
    one = DD.join([DD(b, b_lo)])
    assert _words(one) == _words(DD(b, b_lo))


def test_dd_join_to_a_shape_is_numpy_stack():
    """Floats, arrays and DDs, each broadcast to the shape and stacked on
    a new first axis."""
    shape = (2, 3)
    row = np.array([1.0, 2.0, 3.0])
    grid = np.arange(6.0).reshape(shape)
    lo = np.full(shape, 1e-20)
    got = DD.join([0.25, row, DD.of(grid), DD(grid, lo)], shape)
    want = DD(np.stack([np.full(shape, 0.25), np.broadcast_to(row, shape),
                        grid, grid]),
              np.stack([np.zeros(shape), np.zeros(shape), np.zeros(shape),
                        lo]))
    assert got.hi.shape == got.lo.shape == (4,) + shape
    assert _words(got) == _words(want)



@pytest.mark.parametrize("f, libm", [(exp, math.exp), (expm1, math.expm1)],
                         ids=["exp", "expm1"])
def test_float_paths_give_inf_where_libm_overflows(f, libm):
    """math raises OverflowError where libm returns inf; the float, dual
    and array paths give inf there, as DD's do."""
    assert f(710.0) == math.inf
    assert f(Dual(710.0, 1.0)).dot == math.inf
    got = f(np.array([1.0, 710.0]))
    assert got.tolist() == [libm(1.0), math.inf]
    assert f(np.array([1.0, 2.0])).tolist() == [libm(1.0), libm(2.0)]
    zero_d = f(np.array(710.0))
    assert zero_d.shape == () and zero_d.item() == math.inf
    assert f(np.float64(710.0)) == math.inf
    assert f(np.array([[710.0], [1.0]])).tolist() == [[math.inf], [libm(1.0)]]


_EXPM1_TAIL = (-37.5, -80.0, -745.0, -800.0)


def test_dd_expm1_where_libm_rounds_to_minus_one():
    """Below about -37.4 libm's expm1 is -1; the DD is then -1 + e^x,
    which mpmath confirms to DD precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for x in _EXPM1_TAIL:
            z = DD(x).expm1()
            err = mpmath.mpf(z.hi) + mpmath.mpf(z.lo) - mpmath.expm1(x)
            assert abs(err) < 1e-32, x
            assert z.hi + z.lo == z.hi == -1.0  # a normalised DD


def test_dd_expm1_arrays_mixing_the_tail():
    xs = np.array(_EXPM1_TAIL + (-37.0, -1.0, 1e-7, 0.5, 30.0, 800.0))
    z = DD(xs).expm1()
    for k, x in enumerate(xs.tolist()):
        one = DD(x).expm1()
        assert (z.hi[k], z.lo[k]) == (one.hi, one.lo), x
