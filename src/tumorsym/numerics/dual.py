"""Forward-mode automatic differentiation.

A :class:`Taylor` number carries the normalized Taylor coefficients
c0, c1, c2 = f''/2 of a value along one seed direction, truncated at
degree 2 (Griewank and Walther, *Evaluating Derivatives*, 2008, ch. 13):
every field jet in this package is one pass of such numbers.  A
:class:`Dual` carries a value and a first derivative; it serves the
first-order seeds (the time seed, a user time function).  Floats mix
freely with both, so model formulas are written once in plain arithmetic
and evaluated either on floats or on seeded numbers.  Coefficients may be
numpy arrays or DDs of arrays (vector forward mode): one evaluation then
differentiates at many points.

The elementary functions (exp, expm1, log, sin, cos, sqrt) share one
dispatch over float, Taylor, Dual, DD and ndarray arguments
(:func:`_elementary`); each names only its libm kernel, its DD method,
its first-order rule and its degree-2 rule.  Every jet reads its seeded
results through one reader, :func:`taylor`, next to the seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .dd import DD, elementwise


class Taylor:
    """A truncated Taylor number c0 + c1 s + c2 s^2 of degree 2 along one
    seed s: the value, the first derivative and half the second.  Each
    coefficient is its own float, ndarray or DD; a product costs six
    coefficient products, and every rule is written once, on the
    coefficients."""

    __slots__ = ("c0", "c1", "c2")
    __array_ufunc__ = None  # ndarray (op) Taylor defers to the reflected op

    def __init__(self, c0, c1, c2):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    def __repr__(self):
        return f"Taylor({self.c0!r}, {self.c1!r}, {self.c2!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.c0 + other.c0, self.c1 + other.c1,
                          self.c2 + other.c2)
        return Taylor(self.c0 + other, self.c1, self.c2)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.c0 - other.c0, self.c1 - other.c1,
                          self.c2 - other.c2)
        return Taylor(self.c0 - other, self.c1, self.c2)

    def __rsub__(self, other):
        return Taylor(other - self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        if isinstance(other, Taylor):
            a0, a1, a2 = self.c0, self.c1, self.c2
            b0, b1, b2 = other.c0, other.c1, other.c2
            return Taylor(a0 * b0, a0 * b1 + a1 * b0,
                          a0 * b2 + a1 * b1 + a2 * b0)
        return Taylor(self.c0 * other, self.c1 * other, self.c2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            b0 = other.c0
            q0 = self.c0 / b0
            q1 = (self.c1 - q0 * other.c1) / b0
            return Taylor(q0, q1,
                          (self.c2 - q0 * other.c2 - q1 * other.c1) / b0)
        return Taylor(self.c0 / other, self.c1 / other, self.c2 / other)

    def __rtruediv__(self, other):
        a0 = self.c0
        q0 = other / a0
        q1 = -(q0 * self.c1) / a0
        return Taylor(q0, q1, -(q0 * self.c2 + q1 * self.c1) / a0)

    def __pow__(self, p):
        # a constant exponent, through the one DD power c0 ** (p - 1 - 1):
        # p - 2 rounds differently for some p, which would move the jets'
        # bits through a double-accurate non-integer power
        if p == 0:
            return Taylor(1.0, 0.0, 0.0)
        if p == 1:
            return self
        if p == 2:
            return self * self
        a0, a1, a2 = self.c0, self.c1, self.c2
        q = a0 ** (p - 1 - 1)
        r = q * a0  # c0 ** (p - 1)
        pr = p * r
        return Taylor(r * a0, pr * a1,
                      pr * a2 + 0.5 * p * ((p - 1) * q * a1) * a1)


class Dual:
    """Value plus first derivative along one seed: the first-order seeds
    (the time seed, a user time function, the derivative that a lifted
    function states)."""

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
    """Deep value of a seeded number: a float, or an ndarray for array
    components."""
    if type(z) is float:
        return z
    if isinstance(z, Taylor):
        z = z.c0
    while isinstance(z, Dual):
        z = z.val
    if isinstance(z, DD):
        return z.to_float()
    return z if isinstance(z, np.ndarray) else float(z)


def _elementary(kernel, method, derivative, degree2):
    """One elementary function on every argument type the models use:
    a float goes to the libm ``kernel``; a :class:`Taylor` gets the value
    and ``degree2(a1, a2, x, f(x))``, its coefficients c1 and c2 from the
    argument's a1, a2; a :class:`Dual` gets the value and
    ``derivative(dot, x, f(x))``, the seed times f'(x); a :class:`DD`
    goes to its own ``method``; an ndarray (any other argument) goes to
    the kernel element by element, so each element has the bits of the
    float call.  Plain floats are tested first, in a closure that holds
    only the kernel and the closure of the other types: model formulas
    evaluated on floats (the pressure quadrature, the lift points, the
    reduced checks) pay one type check.  Where libm overflows (only exp
    and expm1 do) math raises OverflowError; the result is then inf, as
    DD's is, and the retry costs nothing until an argument overflows."""
    def other(z):
        if isinstance(z, Taylor):
            fx = f(z.c0)
            return Taylor(fx, *degree2(z.c1, z.c2, z.c0, fx))
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


# The rules below multiply each coefficient into a DD (or array) product
# before the next one, never two float coefficients: a float product of
# constants would round at double precision.

def _exp_rule(a1, a2, x, e):
    """c1 and c2 of g(a) where g' = g'' = e at a's value x."""
    d = e * a1
    return d, e * a2 + 0.5 * d * a1


def _log_rule(a1, a2, x, y):
    inv = 1.0 / x
    q = a1 * inv
    return q, a2 * inv - 0.5 * q * q


def _sqrt_rule(a1, a2, x, s):
    h = 0.5 / s  # the derivative 1 / (2 sqrt x)
    d = a1 * h
    return d, (a2 - d * d) * h


def _turn_rule(a1, a2, d, fx):
    """c1 and c2 of sin or cos at a, whose derivative at a's value is d
    and second derivative -f(a)."""
    return d * a1, d * a2 - 0.5 * fx * a1 * a1


exp = _elementary(math.exp, DD.exp, lambda d, x, e: d * e, _exp_rule)
# e^x - 1 without cancellation near x = 0; its derivatives e^x = m + 1
expm1 = _elementary(math.expm1, DD.expm1, lambda d, x, m: d * exp(x),
                    lambda a1, a2, x, m: _exp_rule(a1, a2, x, m + 1.0))
log = _elementary(math.log, DD.log, lambda d, x, y: d / x, _log_rule)
sin = _elementary(math.sin, DD.sin, lambda d, x, s: d * cos(x),
                  lambda a1, a2, x, s: _turn_rule(a1, a2, cos(x), s))
cos = _elementary(math.cos, DD.cos, lambda d, x, c: -d * sin(x),
                  lambda a1, a2, x, c: _turn_rule(a1, a2, -sin(x), c))
sqrt = _elementary(math.sqrt, DD.sqrt, lambda d, x, s: d / (2.0 * s),
                   _sqrt_rule)


def lift(z, fval, fder):
    """Lift ``fval`` (float -> float) with analytic derivative ``fder``
    (dual-aware) onto seeded arguments.  Array arguments reach ``fval``
    whole, so it must act elementwise on them; a :class:`Taylor` argument
    takes f' and f'' from one first-order seed of ``fder``.

    Used for quantities whose value comes from quadrature or a special
    function but whose derivative is known in closed form (Leibniz rule), so
    AD never differentiates through an adaptive algorithm.
    """
    if isinstance(z, Taylor):
        d1, d2, _ = taylor(fder(seed1(z.c0)))
        return Taylor(lift(z.c0, fval, fder), d1 * z.c1,
                      d1 * z.c2 + 0.5 * d2 * z.c1 * z.c1)
    if isinstance(z, Dual):
        return Dual(lift(z.val, fval, fder), z.dot * fder(z.val))
    if isinstance(z, DD):
        return DD.of(fval(z.to_float()))
    return fval(z)


# -- seeding helpers --------------------------------------------------------

def seed1(x):
    """First-order seed: f(seed1(x)).dot == f'(x)."""
    return Dual(x, 1.0)


def taylor(z):
    """The coefficients (f, f', f''/2) of ``z = f(seed)`` for a
    :class:`Taylor` seed, (f, f', 0.0) for a first-order one, in the
    components' own type (DDs stay DDs; :func:`value` rounds them).  The
    derivatives are 0.0 where ``z`` does not depend on the seed."""
    if isinstance(z, Taylor):
        return z.c0, z.c1, z.c2
    if isinstance(z, Dual):
        return z.val, z.dot, 0.0
    return z, 0.0, 0.0
