"""The exponential-integral kernel of numerics/special.py against mpmath.

The reference is ``mpmath.ei`` at 40 digits on 20 000 log-spaced points
per sign, every piece edge and its neighbours, and the neighbourhood of the
positive root x0, where the error must stay small relative to Ei itself.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from tumorsym import solutions  # noqa: E402
from tumorsym.numerics import QuadratureSpec  # noqa: E402
from tumorsym.numerics import _ei_pieces as pieces  # noqa: E402
from tumorsym.numerics import special  # noqa: E402
from tumorsym.numerics.special import (_EDGES, _ei,  # noqa: E402
                                       _ei_array, exp_over_z_integral)
from tumorsym.reduction import pressure_from_lambda  # noqa: E402

mp = mpmath.mp
X0 = pieces.X0_HI
TINY, HUGE = 2.0 ** -1022, mpmath.ldexp(1, 1024)


def _edges():
    """Every bound the kernel branches on, with its neighbours."""
    cuts = ([abs(e) for e in _EDGES if e not in (0.0, 5e-324)]
            + [b for b in pieces.E1_BOUNDS if b != math.inf]
            + [0.25, 0.1875, 0.75, 709.0])
    out = []
    for c in cuts:
        lo = hi = c
        out.append(c)
        for _ in range(3):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


def _points(sign):
    top = 745.0 if sign < 0 else 716.35
    xs = np.logspace(-10.0, math.log10(top), 20000).tolist() + _edges()
    if sign > 0:
        xs += [X0 * (1.0 + k * 1e-3) for k in range(-50, 51)]
        xs += [X0 + k * 2.0 ** -54 for k in range(-20, 21)]
        xs += [X0 * (1.0 + s * 10.0 ** -k) for k in range(1, 16)
               for s in (-1.0, 1.0)]
    return np.array(sorted({sign * v for v in xs if v > 0.0}))


def _ulp_errors(xs):
    """|_ei(x) - Ei(x)| in units of the last place of Ei(x), over the x
    where Ei is a normal double."""
    out = []
    with mp.workdps(40):
        for x in xs.tolist():
            true = mp.ei(mp.mpf(x))
            if not TINY <= abs(true) < HUGE:
                continue
            _, e = mp.frexp(true)
            out.append(float(abs(mp.mpf(_ei(x)) - true) / mp.ldexp(1, e - 53)))
    return np.array(out)


@pytest.fixture(scope="module")
def negative():
    return _points(-1.0)


@pytest.fixture(scope="module")
def positive():
    return _points(1.0)


def test_within_3_ulp_below_zero(negative):
    err = _ulp_errors(negative)
    assert len(err) > 20000
    assert err.max() <= 3.0


def test_within_4_ulp_above_zero(positive):
    err = _ulp_errors(positive)
    assert len(err) > 20000
    assert err.max() <= 4.0


def test_relative_accuracy_at_the_root():
    """Ei(x0 (1 + 1e-k)) is about 1.45e-k: still within a few ulp."""
    xs = np.array([X0 * (1.0 + s * 10.0 ** -k) for k in range(1, 16)
                   for s in (-1.0, 1.0)] + [X0])
    assert _ulp_errors(xs).max() <= 4.0


def test_array_path_equals_the_float_path(negative, positive):
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, -745.2, -800.0,
                709.8, 716.35, 716.36, 717.0, 1e300, -1e300, 5e-324,
                -5e-324]
    xs = np.concatenate([negative, positive, specials])
    np.random.default_rng(0).shuffle(xs)
    # also one element at a time (the specials and a point of each
    # kind of piece) and 0-d arrays
    alone = [np.array([v]) for v in specials + [-3.0, -0.5, 0.3, 2.0, 9.0]]
    for arr in [xs, xs[:31], xs[:40].reshape(5, 8), negative[-3000:],
                positive[:100], np.array(-0.1), np.array(0.5)] + alone:
        got = _ei_array(arr)
        want = np.array([_ei(v) for v in arr.ravel().tolist()])
        assert got.shape == arr.shape
        assert got.ravel().view(np.int64).tolist() \
            == want.view(np.int64).tolist()


@pytest.mark.parametrize("x, want", [
    (0.0, -math.inf), (-0.0, -math.inf), (math.inf, math.inf),
    (-math.inf, -0.0), (-745.2, -0.0), (-1e300, -0.0)])
def test_special_values(x, want):
    for got in (_ei(x), float(_ei_array(np.array([x]))[0])):
        assert got == want and math.copysign(1.0, got) \
            == math.copysign(1.0, want)


def test_nan_gives_nan():
    assert math.isnan(_ei(math.nan))
    assert np.isnan(_ei_array(np.array([math.nan]))).all()


def test_finite_up_to_the_overflow_of_ei():
    """Ei(x) exceeds the largest double from x = 716.3554905424518 on;
    e^x alone overflows from 709.78."""
    below = np.linspace(709.8, 716.35, 200)
    assert np.isfinite(_ei_array(below)).all()
    assert all(math.isfinite(_ei(v)) for v in below.tolist())
    beyond = [716.36, 717.0, 1000.0, 1e308]
    assert all(_ei(v) == math.inf for v in beyond)
    assert (_ei_array(np.array(beyond)) == math.inf).all()


def test_no_runtime_warning_on_arrays(negative, positive):
    xs = np.concatenate([negative, positive, [0.0, -0.0, math.nan, math.inf,
                                              -math.inf, 716.36, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _ei_array(xs)
        exp_over_z_integral(-1000.0, np.linspace(0.5, 2.0, 64), 1.0)


def test_integral_array_equals_its_float_calls():
    r = np.linspace(0.05, 3.0, 97)
    for a in (0.25, 3.0, -0.5, -200.0):
        got = exp_over_z_integral(a, r, 1.0)
        want = [exp_over_z_integral(a, v, 1.0) for v in r.tolist()]
        assert got.view(np.int64).tolist() \
            == np.array(want).view(np.int64).tolist()


def _integral_bits(a, r, delta):
    v = exp_over_z_integral(a, r, delta)
    return np.asarray(v, dtype=float).ravel().view(np.int64).tolist()


def test_the_memoised_end_keeps_the_bits():
    """Ei(-a delta^2) is memoised: a cold and a warm cache give the bits
    of the unmemoised formula, on floats and on arrays."""
    r = np.linspace(0.05, 3.0, 33)
    cases = [(a, v, d) for a in (0.25, 3.0, -0.5, -200.0, 1e-300)
             for d in (0.3, 1.0, 2.5) for v in (r, *r[::8].tolist())]
    cold = []
    for case in cases:
        special._ei_end.cache_clear()
        cold.append(_integral_bits(*case))
    for case in cases:
        _integral_bits(*case)
    misses = special._ei_end.cache_info().misses
    warm = [_integral_bits(*case) for case in cases]
    assert special._ei_end.cache_info().misses == misses
    with np.errstate(invalid="ignore"):  # inf - inf, as in the integral
        want = [np.atleast_1d(np.where(v == d, 0.0, 0.5 * (
            _ei(-a * d * d) - _ei_array(-a * np.asarray(v) * v))))
            .view(np.int64).tolist() for a, v, d in cases]
    assert cold == warm == want


def test_a_pressure_quadrature_computes_the_fixed_end_once(monkeypatch):
    """Each closed-form pressure call of a quadrature node evaluates Ei
    at its radius only: the Ei calls are the integral calls plus one per
    distinct coefficient, where they were twice the integral calls."""
    sol = solutions.Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75,
                            lam=4.0, sigma0=-3.0, delta=1.0)
    calls = {"ei": 0, "integral": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(special, "_ei", counted("ei", special._ei))
    monkeypatch.setattr(solutions, "exp_over_z_integral",
                        counted("integral", exp_over_z_integral))
    special._ei_end.cache_clear()
    P = pressure_from_lambda(
        lambda r: sol.values(1.0, r, 0.0)[0],
        lambda a: sol.s0 * a ** sol.n + a / (sol.n - 1.0), sol.d0,
        c3=sol.c3, c4=sol.c4, delta=sol.delta,
        quad=QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12))
    P(0.5)
    assert calls["integral"] > 100
    assert calls["ei"] == calls["integral"] + 2


def test_the_command_line_loads_without_scipy():
    """numpy is the only run-time dependency: importing the CLI pulls in
    no scipy module."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tumorsym.cli; print(sorted("
         "m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
