"""The integral family int_r^delta exp(-a z^2)/z dz and the exponential
integral it reduces to.

Every closed-form pressure in the model carries integrals of this shape.
The substitution u = z^2 turns it into an exponential-integral difference,
which is the evaluation path of record; an adaptive-quadrature path is kept
as an independent cross-check.

The exponential integral Ei (the principal value of int_-inf^x e^u/u du)
is evaluated by a piecewise kernel in the style of Cody and Thacher (1969),
built on the series and asymptotic forms of Abramowitz and Stegun, ch. 5.
Each piece fits one smooth function by a polynomial in a variable centred
on the piece; ``tools/fit_ei.py`` derives them with ``mpmath.chebyfit`` at
40 digits into ``_ei_pieces.py`` (worst fit error 8.3e-18 relative):

=================  ====================================================
-1 <= x < 0        Ei = ln|x| + gamma + x + x^2 Q(x), Q from the series
                   (A&S 5.1.10); Q fitted on [-1/4, 0) and [-1, -1/4)
x < -1             Ei = -e^x F(y) / y at y = -x, F = y e^y E1(y) in
                   1/y; nine pieces from y = 1 to inf
0 < x < 8          Ei = ln(x/x0) + (x - x0) R(x), R entire, x0 the
                   positive root of Ei; five pieces
8 <= x < 717       Ei = e^x G(x) / x, G = x e^-x Ei(x) in 1/x; six
                   pieces
=================  ====================================================

gamma, x0 and ln x0 are carried as two doubles: the series piece adds the
small terms first and ln|x| last, and next to its root Ei stays accurate
relative to its size, with ln(x/x0) as log1p of (x - x0)/x0.  Beyond
x = 709 e^x overflows while Ei does not, so the last piece forms
e^(x/2) (e^(x/2) G / x); Ei(x) exceeds the largest double from
x = 716.3554905424518 on and is then inf, and e^x never overflows inside
the kernel.  Against ``mpmath.ei`` at 40 digits, on 20 000 log-spaced
points per sign and every piece edge, the error is at most 2.4 ulp
(median 0.33) on x < 0 and 2.7 ulp (median 0.37) on x > 0 wherever Ei is
a normal double (tests/test_special.py).

``_ei`` is the float path: Horner sums on Python floats with exp and log
from libm (``math``).  ``_ei_array`` calls the same polynomials on numpy
arrays, piece by piece, and takes exp and log from libm element by
element, so each element equals the float call bit for bit.  Both stay
private, the inside of :func:`exp_over_z_integral`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from math import exp, inf, log, log1p

import numpy as np

from ._ei_pieces import (E1, E1_BOUNDS, GAMMA_HI, GAMMA_LO, LOG_X0_HI,
                         LOG_X0_LO, ROOT, ROOT_BOUNDS, TAIL, TAIL_BOUNDS,
                         X0_HI, X0_LO, near, small)
from .dd import elementwise
from .quadrature import QuadratureSpec, quad_adaptive

__all__ = ["SingularEndpointError", "exp_over_z_integral", "exp_over_z_quadrature"]


def _ei(x):
    """Ei(x) for a float x."""
    if x < 0.0:
        y = -x
        if y <= 1.0:
            q = small(x) if y <= 0.25 else near(x)
            return log(y) + ((GAMMA_HI + x) + (GAMMA_LO + x * x * q))
        f = E1[bisect_left(E1_BOUNDS, y)](y)
        return -(exp(-y) * (f / y))
    if x > 0.0:
        if x < 8.0:
            d = (x - X0_HI) - X0_LO
            if 0.1875 <= x <= 0.75:
                ln = log1p(d / X0_HI)
            else:
                ln = (log(x) - LOG_X0_HI) - LOG_X0_LO
            return ln + d * ROOT[bisect_right(ROOT_BOUNDS, x)](x)
        if x < 717.0:
            g = TAIL[bisect_right(TAIL_BOUNDS, x)](x)
            if x <= 709.0:
                return exp(x) * (g / x)
            h = exp(0.5 * x)
            return h * (h * (g / x))
        return inf
    if x == 0.0:
        return -inf
    return x  # nan


# -- the array path: the pieces of _ei on numpy arrays, term for term --

def _series_piece(x):
    inner = x >= -0.25
    q = small(x) if inner.all() else np.where(inner, small(x), near(x))
    return elementwise(log, -x) + ((GAMMA_HI + x) + (GAMMA_LO + x * x * q))


def _e1_piece(poly, x):
    y = -x
    return -(elementwise(exp, x) * (poly(y) / y))


def _root_piece(poly, x):
    d = (x - X0_HI) - X0_LO
    ln = (elementwise(log, x) - LOG_X0_HI) - LOG_X0_LO
    near_x0 = (x >= 0.1875) & (x <= 0.75)
    ln[near_x0] = elementwise(log1p, d[near_x0] / X0_HI)
    return ln + d * poly(x)


def _tail_piece(poly, x):
    g_x = poly(x) / x
    big = x > 709.0
    h = elementwise(exp, np.where(big, 0.5 * x, x))
    with np.errstate(over="ignore"):
        return np.where(big, h * (h * g_x), h * g_x)


# piece k of the array path holds the x with _EDGES[k-1] <= x < _EDGES[k]:
# the E1 pieces from x = -inf up, the series piece [-1, 0), [0, 5e-324)
# for the zeros, the root and tail pieces, and +inf and nan last
_EDGES = np.array([-b for b in E1_BOUNDS[-2::-1]] + [-1.0, 0.0, 5e-324]
                  + ROOT_BOUNDS + TAIL_BOUNDS)
_PIECES = ([partial(_e1_piece, poly) for poly in E1[::-1]]
           + [_series_piece, lambda x: np.full_like(x, -inf)]
           + [partial(_root_piece, poly) for poly in ROOT]
           + [partial(_tail_piece, poly) for poly in TAIL]
           + [lambda x: np.where(np.isnan(x), x, inf)])


def _ei_array(x):
    """Ei of each element of the float array ``x``, bit for bit ``_ei``."""
    flat = x.ravel()
    k = np.searchsorted(_EDGES, flat, side="right")
    present = np.flatnonzero(np.bincount(k))
    if len(present) == 1:
        out = _PIECES[present[0]](flat)
    else:
        out = np.empty_like(flat)
        for piece in present:
            mask = k == piece
            out[mask] = _PIECES[piece](flat[mask])
    return out.reshape(x.shape)


class SingularEndpointError(ValueError):
    """Endpoint at or across the 1/z pole at the origin."""


def _check_endpoints(r, delta):
    if r <= 0.0 or delta <= 0.0:
        raise SingularEndpointError(
            f"integrand has a pole at z=0; endpoints r={r}, delta={delta} "
            "must be positive")


@lru_cache(maxsize=16)
def _ei_end(a, delta):
    """Ei(-a delta^2), the end of the integral that a family fixes: a
    pressure quadrature asks for it at every node."""
    return _ei(-a * delta * delta)


def exp_over_z_integral(a, r, delta):
    """int_r^delta exp(-a z^2)/z dz via the exponential-integral form.

    ``r > delta`` is allowed and flips the sign; ``a = 0`` reduces to
    ``ln(delta/r)`` exactly.  ``r`` may be an ndarray; each element of the
    result then equals the call on that element alone.
    """
    if isinstance(r, np.ndarray):
        return _exp_over_z_integral_array(a, r, delta)
    _check_endpoints(r, delta)
    if r == delta:
        return 0.0
    if a == 0.0:
        return math.log(delta / r)
    # d/du Ei(-a u) = exp(-a u)/u, so the substitution u = z^2 gives
    # 1/2 * [Ei(-a delta^2) - Ei(-a r^2)].
    return 0.5 * (_ei_end(a, delta) - _ei(-a * r * r))


def _exp_over_z_integral_array(a, r, delta):
    # the scalar branches element by element: _ei_array is _ei on each
    # element, the logarithm comes from libm, and log(delta/r) is 0 exactly
    # where r == delta
    _check_endpoints(r.min(initial=delta), delta)
    if a == 0.0:
        return elementwise(math.log, delta / r)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for floats
        diff = _ei_end(a, delta) - _ei_array(-a * r * r)
    return np.where(r == delta, 0.0, 0.5 * diff)


def exp_over_z_quadrature(a, r, delta):
    """Same integral by adaptive Gauss-Kronrod; the cross-check path."""
    _check_endpoints(r, delta)
    if r == delta:
        return 0.0
    val, _ = quad_adaptive(lambda z: math.exp(-a * z * z) / z, r, delta,
                           QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15,
                                          max_depth=50))
    return val
