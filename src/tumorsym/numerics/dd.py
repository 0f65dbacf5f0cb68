"""Double-double arithmetic: unevaluated sums hi + lo of two floats.

Near the inner rim of a solution annulus the momentum-equation terms grow
like r^-3 while their sum stays near zero, so plain double evaluation of the
jet entries leaves a rounding floor of a few units of maxterm * eps.  The
analytic jet engine therefore evaluates field formulas on :class:`DD`
numbers, whose arithmetic (+ - * /, integer powers) tracks roughly 32
significant digits, and rounds only the finished jet entries.  Error-free
transforms (two_sum, two_prod) follow Dekker and Knuth; products are split
multiplicatively because fused multiply-add is not available.

The elementary functions (exp, expm1, log, sqrt, non-integer powers) are
accurate to a double, not to a double-double: one refinement of a libm
seed whose own error stays in the result, so against mpmath they are off
by 2e-17 to 1.1e-16 relative (``DD(3.3e-5).expm1()`` by 9.0e-17).  A
formula that cancels after them keeps that error, amplified.

The words hi and lo may be floats or equal-shape numpy arrays, or an
array hi with a float lo that every element shares (as ``DD.of`` makes
it): every operation is elementwise, so a DD of arrays gives, element for
element, the bits of the DD of each element alone.  Elementary functions
therefore take their double seeds from libm (``math``) one element at a
time; numpy's vector kernels differ from libm in the last bit for a few
percent of inputs.  The array layout lives here alone: a DD indexes both
words (``d[index]``), and :meth:`DD.join` joins DDs, arrays and floats end
to end or stacks them on a new axis.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DD", "two_sum", "two_prod", "split", "elementwise"]

_SPLITTER = 134217729.0  # 2^27 + 1
_PLAIN = (int, float, np.ndarray)


def elementwise(f, x):
    """``f(x)`` for a float; ``f`` of each element for an ndarray."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.ravel().tolist()), dtype=float,
                           count=x.size).reshape(x.shape)
    return f(x)


def _inf_on_overflow(f):
    """``f`` for math.exp or math.expm1, element by element, but inf where
    the result overflows (libm returns inf there; math raises
    OverflowError).  The libm kernel is mapped directly; only a call that
    overflows takes the per-element retry."""
    def scalar(v):
        try:
            return f(v)
        except OverflowError:
            return math.inf

    def seed(x):
        try:
            return elementwise(f, x)
        except OverflowError:
            return elementwise(scalar, x)
    return seed


_exp = _inf_on_overflow(math.exp)
_expm1 = _inf_on_overflow(math.expm1)


def _special(mask, fill, y, general):
    """``general(y)``, but DD(fill) wherever ``mask`` holds.

    ``general`` never sees a masked element: a scalar takes the branch, an
    array has its masked elements replaced by 1.0 before the call.
    """
    if not isinstance(mask, np.ndarray):
        return DD(fill) if mask else general(y)
    if not mask.any():
        return general(y)
    with np.errstate(all="ignore"):
        out = general(np.where(mask, 1.0, y))
    return DD(np.where(mask, fill, out.hi), np.where(mask, 0.0, out.lo))


def two_sum(a: float, b: float):
    """Error-free sum: returns (s, e) with s = fl(a+b) and a+b = s+e."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a: float):
    """Dekker split of a float into high and low 26-bit halves."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float):
    """Error-free product: returns (p, e) with p = fl(a*b) and a*b = p+e."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DD:
    """A double-double number hi + lo with |lo| <= ulp(hi)/2."""

    __slots__ = ("hi", "lo")
    __array_ufunc__ = None  # ndarray (op) DD defers to DD's reflected op

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    @staticmethod
    def of(x):
        if isinstance(x, DD):
            return x
        if isinstance(x, np.ndarray):
            return DD(x.astype(float, copy=False))
        return DD(float(x))

    @staticmethod
    def join(parts, shape=None):
        """One DD of ``parts`` (DDs, arrays or floats): end to end, a float
        as one element; or, given a ``shape``, each broadcast to it and
        stacked on a new first axis."""
        parts = [DD.of(p) for p in parts]
        if shape is None:
            shapes = [np.shape(p.hi) or (1,) for p in parts]
            glue = np.concatenate
        else:
            shapes, glue = [shape] * len(parts), np.stack
        return DD(*(glue([np.broadcast_to(getattr(p, k), s)
                          for p, s in zip(parts, shapes)])
                    for k in ("hi", "lo")))

    @property
    def ndim(self):
        """The axes of ``hi`` (``np.ndim`` reads it): 0 for a float."""
        return np.ndim(self.hi)

    def __getitem__(self, index):
        """The elements ``index`` of both words; a float ``lo`` (as
        :meth:`of` makes it for an array) is every element's."""
        lo = self.lo
        return DD(self.hi[index],
                  lo[index] if isinstance(lo, np.ndarray) else lo)

    def to_float(self) -> float:
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, DD):
            s, e = two_sum(self.hi, other.hi)
            e += self.lo + other.lo
        elif isinstance(other, _PLAIN):
            s, e = two_sum(self.hi, other)
            e += self.lo
        else:
            return NotImplemented
        s, e = _quick_two_sum(s, e)
        return DD(s, e)

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, DD):
            s, e = two_sum(self.hi, -other.hi)
            e += self.lo - other.lo
        elif isinstance(other, _PLAIN):
            s, e = two_sum(self.hi, -other)
            e += self.lo
        else:
            return NotImplemented
        s, e = _quick_two_sum(s, e)
        return DD(s, e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DD):
            p, e = two_prod(self.hi, other.hi)
            e += self.hi * other.lo + self.lo * other.hi
        elif isinstance(other, _PLAIN):
            p, e = two_prod(self.hi, other)
            e += self.lo * other
        else:
            return NotImplemented
        p, e = _quick_two_sum(p, e)
        return DD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (DD, *_PLAIN)):
            return NotImplemented
        o = DD.of(other)
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        s, e = _quick_two_sum(q1, q2)
        return DD(s, e) + q3

    def __rtruediv__(self, other):
        if not isinstance(other, _PLAIN):
            return NotImplemented
        return DD.of(other) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            return NotImplemented
        if isinstance(p, int) or (p == int(p) and abs(p) <= 64):
            k = int(p)
            if k < 0:
                return 1.0 / (self ** (-k))
            out, base = DD(1.0), self
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        return (self.log() * p).exp()

    # -- elementary functions -----------------------------------------------

    def exp(self):
        # one Newton-style refinement of the double result; relative error
        # ~ eps * |x|, which is far below eps where the small-argument
        # accuracy actually matters
        def refine(y):
            corr = (self.hi - elementwise(math.log, y)) + self.lo
            return DD.of(y) * (1.0 + corr)

        y = _exp(self.hi)
        return _special((y == 0.0) | (y == math.inf), y, y, refine)

    def expm1(self):
        def refine(m):
            corr = (self.hi - elementwise(math.log1p, m)) + self.lo
            return DD.of(m) + (1.0 + m) * corr

        m = _expm1(self.hi)
        # below about -37.4 libm rounds to -1, where log1p(m) fails; the
        # exact -1 + e^x is then itself a DD, since e^x < ulp(1)/2
        tail = m == -1.0
        if tail is True:
            return DD(-1.0, math.exp(self.hi))
        out = _special((m == math.inf) | tail, m, m, refine)
        if isinstance(tail, np.ndarray) and tail.any():
            out = DD(out.hi, np.where(tail, _exp(self.hi), out.lo))
        return out

    def log(self):
        y = elementwise(math.log, self.hi)
        # refine: log x = y + log(x * e^-y) with the residual near zero
        r = self * DD(-y).exp() - 1.0
        return r.to_float() + DD.of(y)

    def sqrt(self):
        def refine(y):
            r = self - DD.of(y) * y
            return DD.of(y) + r.to_float() / (2.0 * y)

        y = elementwise(math.sqrt, self.hi)
        return _special(y == 0.0, 0.0, y, refine)

    def sin(self):
        h = elementwise(math.sin, self.hi)
        return DD.of(h) + self.lo * elementwise(math.cos, self.hi)

    def cos(self):
        h = elementwise(math.cos, self.hi)
        return DD.of(h) - self.lo * elementwise(math.sin, self.hi)
