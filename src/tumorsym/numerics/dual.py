"""Forward-mode automatic differentiation.

A :class:`Dual` carries a value and a directional derivative.  Nesting duals
(``Dual(Dual(...), Dual(...))``) yields exact second derivatives; all field
jets in this package are built that way.  Floats mix freely with duals, so
model formulas are written once in plain arithmetic and evaluated either on
floats or on seeded duals.  Components may be numpy arrays or DDs of arrays
(vector forward mode): one evaluation then differentiates at many points.
"""

from __future__ import annotations

import math

import numpy as np

from .dd import DD, _exp, _expm1, elementwise


class Dual:
    """Value plus directional derivative; components may themselves be duals."""

    __slots__ = ("val", "dot")
    __array_ufunc__ = None  # ndarray (op) Dual defers to Dual's reflected op

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        return Dual(self.val - other, self.dot)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.dot + self.dot * other.val)
        return Dual(self.val * other, self.dot * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.dot - self.val * inv * other.dot) * inv)
        return Dual(self.val / other, self.dot / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        v = other * inv
        return Dual(v, -v * inv * self.dot)

    def __pow__(self, p):
        if isinstance(p, Dual):
            return exp(p * log(self))
        if p == 0:
            return Dual(1.0, 0.0 * self.dot)
        if p == 1:
            return self
        if p == 2:
            return self * self
        vp = self.val ** (p - 1)
        return Dual(vp * self.val, p * vp * self.dot)

    def __rpow__(self, base):
        return exp(self * math.log(base))


def value(z):
    """Deep value of a (possibly nested) dual: a float, or an ndarray for
    array components."""
    if type(z) is float:
        return z
    while isinstance(z, Dual):
        z = z.val
    if isinstance(z, DD):
        return z.to_float()
    return z if isinstance(z, np.ndarray) else float(z)


# Plain floats are tested first: model formulas evaluated on floats (the
# pressure quadrature, the lift points, the reduced checks) pay one type
# check per elementary function or value().  exp and expm1 give inf where
# libm overflows (math raises OverflowError there), as DD's do; the retry
# costs nothing until an argument overflows.

def exp(z):
    if type(z) is float:
        try:
            return math.exp(z)
        except OverflowError:
            return math.inf
    if isinstance(z, Dual):
        e = exp(z.val)
        return Dual(e, z.dot * e)
    if isinstance(z, DD):
        return z.exp()
    try:
        return elementwise(math.exp, z)
    except OverflowError:
        return _exp(z)


def expm1(z):
    # e^z - 1 without cancellation near z = 0; derivative is e^z
    if type(z) is float:
        try:
            return math.expm1(z)
        except OverflowError:
            return math.inf
    if isinstance(z, Dual):
        return Dual(expm1(z.val), z.dot * exp(z.val))
    if isinstance(z, DD):
        return z.expm1()
    try:
        return elementwise(math.expm1, z)
    except OverflowError:
        return _expm1(z)


def log(z):
    if type(z) is float:
        return math.log(z)
    if isinstance(z, Dual):
        return Dual(log(z.val), z.dot / z.val)
    if isinstance(z, DD):
        return z.log()
    return elementwise(math.log, z)


def sin(z):
    if type(z) is float:
        return math.sin(z)
    if isinstance(z, Dual):
        return Dual(sin(z.val), z.dot * cos(z.val))
    if isinstance(z, DD):
        return z.sin()
    return elementwise(math.sin, z)


def cos(z):
    if type(z) is float:
        return math.cos(z)
    if isinstance(z, Dual):
        return Dual(cos(z.val), -z.dot * sin(z.val))
    if isinstance(z, DD):
        return z.cos()
    return elementwise(math.cos, z)


def sqrt(z):
    if type(z) is float:
        return math.sqrt(z)
    if isinstance(z, Dual):
        s = sqrt(z.val)
        return Dual(s, z.dot / (2.0 * s))
    if isinstance(z, DD):
        return z.sqrt()
    return elementwise(math.sqrt, z)


def atan(z):
    if type(z) is float:
        return math.atan(z)
    if isinstance(z, Dual):
        return Dual(atan(z.val), z.dot / (1.0 + z.val * z.val))
    if isinstance(z, DD):
        return z.atan()
    return elementwise(math.atan, z)


def atan2(y, x):
    """Branch-corrected two-argument arctangent, safe for dual arguments.

    The branch is chosen from the float values; the correction is a constant,
    so derivatives are unaffected.
    """
    xv, yv = value(x), value(y)
    if xv == 0.0 and yv == 0.0:
        raise ZeroDivisionError("atan2(0, 0)")
    if abs(xv) >= abs(yv):
        base = atan(y / x)
        if xv > 0.0:
            return base
        return base + (math.pi if yv >= 0.0 else -math.pi)
    base = -atan(x / y)
    return base + (math.pi / 2.0 if yv > 0.0 else -math.pi / 2.0)


def lift(z, fval, fder):
    """Lift ``fval`` (float -> float) with analytic derivative ``fder``
    (dual-aware) onto dual arguments, recursively.  Array arguments reach
    ``fval`` whole, so it must act elementwise on them.

    Used for quantities whose value comes from quadrature or a special
    function but whose derivative is known in closed form (Leibniz rule), so
    AD never differentiates through an adaptive algorithm.
    """
    if isinstance(z, Dual):
        return Dual(lift(z.val, fval, fder), z.dot * fder(z.val))
    if isinstance(z, DD):
        return DD.of(fval(z.to_float()))
    return fval(z)


# -- seeding helpers --------------------------------------------------------

def seed1(x):
    """First-order seed: f(seed1(x)).dot == f'(x)."""
    return Dual(x, 1.0)


def seed2(x):
    """Second-order nested seed: f(seed2(x)).dot.dot == f''(x)."""
    return Dual(Dual(x, 1.0), Dual(1.0, 0.0))


def seed_pair(x, y):
    """Mixed-partial seeds: f(*seed_pair(x, y)).dot.dot == f_xy."""
    return Dual(Dual(x, 1.0), Dual(0.0, 0.0)), Dual(Dual(y, 0.0), Dual(1.0, 0.0))
