"""Forward-mode automatic differentiation.

A :class:`Dual` carries a value and a directional derivative.  Nesting duals
(``Dual(Dual(...), Dual(...))``) yields exact second derivatives; all field
jets in this package are built that way.  Floats mix freely with duals, so
model formulas are written once in plain arithmetic and evaluated either on
floats or on seeded duals.  Components may be numpy arrays or DDs of arrays
(vector forward mode): one evaluation then differentiates at many points.

The elementary functions (exp, expm1, log, sin, cos, sqrt) share one
dispatch over float, Dual, DD and ndarray arguments (:func:`_elementary`);
each names only its libm kernel, its DD method and its derivative.  Every
jet reads its seeded results through one reader, :func:`taylor`, next to
the seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .dd import DD, elementwise


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
        # a constant exponent: no model raises to a dual power
        if p == 0:
            return Dual(1.0, 0.0 * self.dot)
        if p == 1:
            return self
        if p == 2:
            return self * self
        vp = self.val ** (p - 1)
        return Dual(vp * self.val, p * vp * self.dot)


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


def _elementary(kernel, method, derivative):
    """One elementary function on every argument type the models use:
    a float goes to the libm ``kernel``; a :class:`Dual` gets the value
    and ``derivative(dot, x, f(x))``, the seed times f'(x); a :class:`DD`
    goes to its own ``method``; an ndarray (any other argument) goes to
    the kernel element by element, so each element has the bits of the
    float call.  Plain floats are tested first, in a closure that holds
    only the kernel and the closure of the other types: model formulas
    evaluated on floats (the pressure quadrature, the lift points, the
    reduced checks) pay one type check.  Where libm overflows (only exp
    and expm1 do) math raises OverflowError; the result is then inf, as
    DD's is, and the retry costs nothing until an argument overflows."""
    def other(z):
        if isinstance(z, Dual):
            fx = f(z.val)
            return Dual(fx, derivative(z.dot, z.val, fx))
        if isinstance(z, DD):
            return method(z)
        try:
            return elementwise(kernel, z)
        except OverflowError:
            return elementwise(lambda v: f(float(v)), z)

    def f(z):
        if type(z) is float:
            try:
                return kernel(z)
            except OverflowError:
                return math.inf
        return other(z)

    f.__name__ = f.__qualname__ = kernel.__name__
    return f


exp = _elementary(math.exp, DD.exp, lambda d, x, e: d * e)
# e^x - 1 without cancellation near x = 0
expm1 = _elementary(math.expm1, DD.expm1, lambda d, x, m: d * exp(x))
log = _elementary(math.log, DD.log, lambda d, x, y: d / x)
sin = _elementary(math.sin, DD.sin, lambda d, x, s: d * cos(x))
cos = _elementary(math.cos, DD.cos, lambda d, x, c: -d * sin(x))
sqrt = _elementary(math.sqrt, DD.sqrt, lambda d, x, s: d / (2.0 * s))


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


def taylor(z):
    """(f, f', f'') of ``z = f(seed)`` for any of the seeds above: the
    value and the derivatives along the seed, in the components' own type
    (DDs stay DDs; :func:`value` rounds them).  f' and f'' are 0.0 where
    ``z`` does not depend on the seed, and f'' is 0.0 at a first-order
    seed."""
    if not isinstance(z, Dual):
        return z, 0.0, 0.0
    f, d = z.val, z.dot
    if isinstance(f, Dual):
        f = f.val
    if isinstance(d, Dual):
        return f, d.val, d.dot
    return f, d, 0.0
