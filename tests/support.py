"""Helpers that only the tests use: the acceptance parameter sets and one
non-unit set per family, the default annulus and front ring of a time,
exact rest states, the stacked Cartesian pass (the reference of the
radial and pushed jets), an mpmath oracle of a family's jet, dual-number
derivatives, observed convergence orders, and reference residuals of the
paper's reduction conditions and of the front's invariance criterion.

The tests import them as ``from support import ...``; pytest puts this
directory on ``sys.path`` because ``tests/`` is not a package.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np

from tumorsym import solutions, symmetry
from tumorsym.jets import (JET_ENTRIES, RadialField, _alpha_t, _field_jet,
                           _stacked_values, _take)
from tumorsym.numerics.dd import DD
from tumorsym.numerics.dual import Dual, Taylor, seed1, taylor, value
from tumorsym.residuals import (SampleSet, governing_and_front_residuals,
                                nan_max)
from tumorsym.symmetry import (Galilei, PressureShift, Rotation, Scale,
                               TimeTranslation)


# the five solution families at the parameters of the acceptance criteria;
# the CLI fuzz scales the parameters in the order given here
PARAMS = {
    "full413": dict(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                    sigma0=-3.0, delta=1.0),
    "stationary413s": dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0),
    "moving442": dict(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0),
    "moving444": dict(delta=1.0, lam=1.0, c1=0.1, n=-2.0),
    "steady432": dict(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                      lam=4.0, d0=2.0),
}
# one more set per family, with c1 != 1 and delta != 1 where the family
# has them, so that powers of c1 and delta are seen; full413 fails its
# front and reduced BC here as at PARAMS (its known front fault)
NON_UNIT_PARAMS = {
    "full413": dict(PARAMS["full413"], c1=0.7, delta=1.3),
    "stationary413s": dict(c3=3.0, c4=1.5, n=3.0, lam=2.0, d0=1.5),
    "moving442": dict(PARAMS["moving442"], c1=0.2, delta=1.3),
    "moving444": dict(PARAMS["moving444"], c1=0.15, delta=1.2),
    "steady432": dict(PARAMS["steady432"], c1=0.5, delta=1.3),
}
# the stationary family of Figures 3 and 4
FIG34 = PARAMS["stationary413s"]


def front_reports(jets, sol, boundary, times, n_front=64):
    """The front reports at ``times`` as ``tumorsym verify`` takes them:
    ``n_front`` ring points per time, in the one jet of that time."""
    return governing_and_front_residuals(
        jets, sol.triplet(), sol.phys(), SampleSet(times=tuple(times)),
        boundary, n_front)[1]


def annulus_and_ring(sol, t, samples=SampleSet(), n_ring=64):
    """The annulus of ``samples`` (the default) at time t and the
    ``n_ring``-point ring on the front."""
    yield next(replace(samples, times=(t,)).slices(sol.boundary()))[1:]
    rad = sol.boundary().radius(t)
    theta = 2.0 * np.pi * np.arange(n_ring) / n_ring
    yield (np.array([rad * math.cos(a) for a in theta.tolist()]),
           np.array([rad * math.sin(a) for a in theta.tolist()]))


class ConstantState(RadialField):
    """Spatially uniform rest state; exact whenever S(alpha0) = 0.  Its
    ``values`` hold at the origin too; its analytic jets take the radial
    pass, which rejects the origin as it does for every radial field."""

    def __init__(self, alpha0, p0=0.0):
        self.alpha0 = alpha0
        self.p0 = p0

    def radial(self, t, w):
        return self.alpha0, 0.0, self.p0

    def values(self, t, x, y):
        zero = 0.0 * (x + y + t)
        return self.alpha0 + zero, zero, zero, self.p0 + zero


# -- the stacked Cartesian pass -----------------------------------------------

@np.errstate(all="ignore")
def cartesian_jet(field, t, x, y):
    """The jet of any field, seen through ``values`` and ``alpha`` alone,
    from one second-order ``values()`` call on three stacked copies of
    the points (vector forward mode) and the time seed: the independent
    reference of the radial chain rule and of the push of
    ``analytic_jet``, and the analytic engine of a field with ``values``
    alone.  The seeds, 0/1 arrays in the first-order coefficients, point
    copy 0 along (1, 0), copy 1 along (0, 1) and copy 2 along (1, 1), so
    their second coefficients c2 give f_xx / 2, f_yy / 2 and f_xy =
    c2(1, 1) - c2(1, 0) - c2(0, 1), subtracted in double-double before
    rounding (Griewank, Utke and Walther, *Math. Comp.* 69, 2000)."""
    x, y = map(DD.of, np.atleast_1d(x, y))
    t = DD.of(t)
    n = x.hi.size

    def seed(*copies):
        return np.repeat(np.array(copies, dtype=float), n)

    sx = Taylor(DD.of(np.tile(x.hi, 3)), seed(1, 0, 1), 0.0)
    sy = Taylor(DD.of(np.tile(y.hi, 3)), seed(0, 1, 1), 0.0)
    rows = []
    for z in _stacked_values(field, t, sx, sy, 3):
        f, d, h = ([_take(c, slice(k * n, (k + 1) * n)) for k in range(3)]
                   for c in taylor(z))
        # doubling after rounding has the bits of doubling the DD
        rows.append((f[0], d[0], d[1], 2.0 * value(h[0]),
                     2.0 * value(h[1]), h[2] - (h[0] + h[1])))
    return _field_jet(value(t), value(x), value(y),
                      _alpha_t(field, t, x, y), rows)


class CartesianEngine:
    """The jet engine of the stacked pass (:func:`cartesian_jet`)."""

    descriptor = "analytic"

    def jet(self, field, t, x, y):
        return cartesian_jet(field, t, x, y)


# -- the jet oracle -----------------------------------------------------------

# the jet entries by derivative order; alpha_t counts as a first derivative
ORDERS = {0: ("alpha", "u1", "u2", "p"),
          1: ("alpha_t", "alpha_x", "alpha_y", "u1_x", "u1_y", "u2_x",
              "u2_y", "p_x", "p_y")}
ORDERS[2] = tuple(e for e in JET_ENTRIES if e not in ORDERS[0] + ORDERS[1])

# the elementary functions and the pressure integral of ``solutions`` in
# mpmath: I(w) = int_sqrt(w)^delta exp(-a z^2)/z dz = (Ei(-a delta^2) -
# Ei(-a w)) / 2
_MP_KERNELS = dict(
    exp=mp.exp, expm1=mp.expm1, log=mp.log, sqrt=mp.sqrt,
    _pressure_integral=lambda a, w, delta: (
        mp.ei(-a * mp.mpf(delta) ** 2) - mp.ei(-a * w)) / 2)


def jet_oracle(sol, t, x, y, dps=40):
    """The 21 jet entries of the family ``sol`` at time t and the float
    points (x, y), as mpf lists: the family's own ``radial`` and
    ``radial_alpha`` evaluated on mpf with the kernels of ``solutions``
    replaced by mpmath's, their w- and t-derivatives by ``mp.diff`` at
    ``dps`` digits, and the Cartesian entries by the chain rule in mpf
    (w = x^2 + y^2, exact for float points)."""
    saved = {k: getattr(solutions, k) for k in _MP_KERNELS}
    out = {e: [] for e in JET_ENTRIES}
    try:
        for k, f in _MP_KERNELS.items():
            setattr(solutions, k, f)
        with mp.workdps(dps):
            T = mp.mpf(t)
            for xi, yi in zip(np.ravel(x).tolist(), np.ravel(y).tolist()):
                _oracle_point(sol, T, mp.mpf(xi), mp.mpf(yi), out)
    finally:
        for k, f in saved.items():
            setattr(solutions, k, f)
    return out


def _oracle_point(sol, t, x, y, out):
    w = x * x + y * y
    memo = {}

    def radial(s):
        # one radial call serves alpha, vel and p at s; mp.diff raises the
        # working precision, so that is part of the key
        key = s, mp.mp.prec
        if key not in memo:
            memo[key] = sol.radial(t, s)
        return memo[key]

    A, A1, _ = mp.diffs(lambda s: radial(s)[0], w, 2)
    V, V1, V2 = mp.diffs(lambda s: radial(s)[1], w, 2)
    P, P1, P2 = mp.diffs(lambda s: radial(s)[2], w, 2)
    tx, ty = 2 * x, 2 * y
    v_x, v_y = tx * V1, ty * V1
    v_xx, v_xy, v_yy = 2 * V1 + tx * tx * V2, tx * ty * V2, \
        2 * V1 + ty * ty * V2
    entries = dict(
        alpha=A, u1=x * V, u2=y * V, p=P,
        alpha_t=mp.diff(lambda s: sol.radial_alpha(s, w), t),
        alpha_x=tx * A1, alpha_y=ty * A1,
        u1_x=x * v_x + V, u1_y=x * v_y, u2_x=y * v_x, u2_y=y * v_y + V,
        u1_xx=x * v_xx + 2 * v_x, u1_xy=x * v_xy + v_y, u1_yy=x * v_yy,
        u2_xx=y * v_xx, u2_xy=y * v_xy + v_x, u2_yy=y * v_yy + 2 * v_y,
        p_x=tx * P1, p_y=ty * P1, p_xx=2 * P1 + tx * tx * P2,
        p_yy=2 * P1 + ty * ty * P2)
    for e, v in entries.items():
        out[e].append(v)


# the time functions the tests' elements use, in mpmath; any other time
# function of an element is a lambda in plain arithmetic, which mpf passes
_MP_TIME_FUNCTIONS = {math.sin: mp.sin, math.cos: mp.cos}
_MP_ACTION = dict(
    cos=mp.cos, sin=mp.sin,
    _tcall=lambda fn, dfn, t: _MP_TIME_FUNCTIONS.get(fn, fn)(t))


def transformed_oracle(field, t, x, y, dps=40):
    """The 21 jet entries of ``field``, a group element's pull of a family
    (``TransformedField``), at time t and the float points (x, y), as mpf
    lists: the element's own ``pull_values`` evaluated on mpf, with
    ``symmetry``'s cos, sin and ``_tcall`` and the family's kernels (see
    :func:`jet_oracle`) replaced by mpmath's, and every partial derivative
    by ``mp.diff`` at ``dps`` digits.  It reads the element's finite
    action alone, never a pushed derivative."""
    saved = {k: getattr(solutions, k) for k in _MP_KERNELS}
    saved_action = {k: getattr(symmetry, k) for k in _MP_ACTION}
    out = {e: [] for e in JET_ENTRIES}
    try:
        for k, f in _MP_KERNELS.items():
            setattr(solutions, k, f)
        for k, f in _MP_ACTION.items():
            setattr(symmetry, k, f)
        with mp.workdps(dps):
            T = mp.mpf(t)
            for xi, yi in zip(np.ravel(x).tolist(), np.ravel(y).tolist()):
                _transformed_point(field, T, mp.mpf(xi), mp.mpf(yi), out)
    finally:
        for k, f in saved.items():
            setattr(solutions, k, f)
        for k, f in saved_action.items():
            setattr(symmetry, k, f)
    return out


def _transformed_point(field, t, x, y, out):
    memo = {}

    def values(s, u, v):
        key = s, u, v, mp.mp.prec
        if key not in memo:
            memo[key] = field.values(s, u, v)
        return memo[key]

    names = ("alpha", "u1", "u2", "p")
    for k, name in enumerate(names):
        def f(u, v, k=k):
            return values(t, u, v)[k]
        out[name].append(f(x, y))
        for suffix, orders in (("_x", (1, 0)), ("_y", (0, 1)),
                               ("_xx", (2, 0)), ("_xy", (1, 1)),
                               ("_yy", (0, 2))):
            if name + suffix in out:
                out[name + suffix].append(mp.diff(f, (x, y), orders))
    out["alpha_t"].append(mp.diff(lambda s: values(s, x, y)[0], t))


def oracle_errors(jet, oracle):
    """The worst error of each derivative order of ``jet`` against
    ``oracle``: at each point, |entry - oracle| over the largest |oracle|
    of the entries of that order there."""
    worst = {}
    for k, names in ORDERS.items():
        err = 0.0
        for i in range(len(jet.x)):
            scale = max(abs(oracle[e][i]) for e in names)
            for e in names:
                err = max(err, float(abs(getattr(jet, e)[i] - oracle[e][i])
                                     / scale))
        worst[k] = err
    return worst


# -- dual-number derivatives ------------------------------------------------

def derivative(f, x):
    z = f(seed1(x))
    return value(z.dot) if isinstance(z, Dual) else 0.0


def second_derivative(f, x):
    z = f(Taylor(x, 1.0, 0.0))
    return 2.0 * value(z.c2) if isinstance(z, Taylor) else 0.0


def ddr(f):
    """Derivative of a dual-aware callable as a new dual-aware callable.

    ``ddr(f)(r)`` accepts dual ``r``, so ``ddr`` composes: second derivatives
    of products of first derivatives come out exact.
    """
    def df(r):
        z = f(Dual(r, 1.0))
        if not isinstance(z, Dual):
            return 0.0
        return z.dot
    return df


def richardson_order(errors, ratio=2.0):
    """Observed convergence order from errors sampled over halved step sizes.

    Least-squares slope of log(error) against log(h) for h_i = h0/ratio^i.
    """
    errs = [float(e) for e in errors]
    if len(errs) < 3:
        raise ValueError("need at least 3 error samples")
    if any(e <= 0.0 or math.isnan(e) for e in errs):
        raise ValueError("errors must be positive and finite")
    log_h = np.array([-i * math.log(ratio) for i in range(len(errs))])
    log_e = np.log(np.array(errs))
    slope = np.polyfit(log_h, log_e, 1)[0]
    return float(slope)


# -- reference residuals ----------------------------------------------------

def first_integral_R(beta, d0, m, lambda_profile, p_prime_profile):
    """Radial speed implied by the zero-swirl divergence equation."""
    def R(r):
        return beta / r + d0 * lambda_profile(r) ** m * p_prime_profile(r)
    return R


def overdetermined_residual(lambda_profile, params, phys, system, samples_r,
                            beta=0.0, triplet=None):
    """L-infinity residuals of both equations of an overdetermined pair.

    system 'eq_4_5' is the power-law pair in (m, n, s0, sigma0);
    system 'eq_4_23' takes a general triplet and checks its
    function-valued second equation with the given beta.
    """
    lamv = phys.lam
    L = lambda_profile
    dL = ddr(L)
    d2L = ddr(dL)
    res1, res2 = [0.0], [0.0]
    for r in samples_r:
        lam, lp, lpp = L(r), dL(r), d2L(r)
        if system == "eq_4_5":
            m, n = params.m, params.n
            d0, s0, sigma0 = params.d0, params.s0, params.sigma0
            e1 = lam ** m * lpp - lam ** (m - 1.0) * lp * lp \
                - lamv / ((2.0 + lamv) * r) * lam ** m * lp \
                + 1.0 / (d0 * (2.0 + lamv))
            e2 = ((1.0 + m) * r + 2.0 * (n - 1.0) * beta / r) \
                * (lpp - lp * lp / lam) \
                + 2.0 * (n - 1.0) * (n * sigma0 / (2.0 + lamv)
                                     - (n - 1.0) * s0) \
                * lam ** (n - 1.0) * lp \
                + (1.0 + m
                   - 2.0 * (n - 1.0) * beta * lamv
                   / ((2.0 + lamv) * r * r)) * lp
        elif system == "eq_4_23":
            c = triplet.eval(lam)
            e1 = lpp - lp * lp / lam - lamv / ((2.0 + lamv) * r) * lp \
                + 1.0 / ((2.0 + lamv) * c.D)
            e2 = c.D * (c.S / lam - derivative(triplet.S, lam)
                        + c.d_alpha_sigma / (2.0 + lamv)) * lp \
                - beta / ((2.0 + lamv) * r)
        else:
            raise ValueError(f"unknown system {system!r}")
        res1.append(abs(e1))
        res2.append(abs(e2))
    return nan_max(res1), nan_max(res2)


def boundary_invariance(elem, boundary, m, n, t=1.0):
    """Residual of the Lie invariance criterion on the moving circle.

    The criterion applies the element's infinitesimal generator to the
    front function and evaluates on the front itself; zero means the
    element maps the moving boundary to itself.
    """
    if isinstance(elem, (Rotation, PressureShift)):
        return 0.0
    if isinstance(elem, TimeTranslation):
        return abs(boundary.level_t(t))
    if isinstance(elem, Galilei):
        return abs(2.0 * boundary.radius(t) * elem.g(t))
    if isinstance(elem, Scale):
        w = boundary.radius(t) ** 2
        return abs(2.0 * (1.0 - n) * t * boundary.level_t(t)
                   + (1.0 + m) * 2.0 * w)
    raise TypeError(f"unknown group element {elem!r}")
