"""Lie group actions on fields and their verification checks.

Each group element acts by pullback: the transformed field evaluates the
source field at the inverse-mapped point and transforms the components.
The result is again a field, so jets and residuals apply to it unchanged.
Each element states its action once, the point map ``point`` and the
value map ``pull``, which every use reads: ``pull_values`` for the four
fields, ``pull_alpha`` for alpha alone (the only field a time seed
needs), and the push of a radial source's jet (``prolong``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core_model import ConstitutiveTriplet, PhysConstants, PowerLawTriplet
from .jets import Field, JetProvider
from .numerics.dd import DD
from .numerics.dual import Taylor, cos, lift, seed1, sin, taylor, value
from .residuals import Check, ResidualReport, SampleSet, governing_residual
from .solutions import SolutionFamily

__all__ = ["Rotation", "Galilei", "PressureShift", "TimeTranslation",
           "Scale", "GroupElement", "TransformedField", "orbit_residual",
           "InapplicableSymmetryError", "ELEMENTS", "TIME_FUNCTIONS", "AXES"]


class InapplicableSymmetryError(ValueError):
    """Group element requires structure the given triplet does not have."""


def _tcall(fn: Callable, dfn: Optional[Callable], t):
    """Evaluate a user time-function with its analytic derivative.

    User callables see plain floats even when the jet engine runs on wider
    scalars.
    """
    if dfn is None:
        dfn = lambda tv: 0.0
    return lift(t, lambda tv: fn(value(tv)), lambda tv: dfn(value(tv)))


class _Action:
    """What every element shares: its action, stated once as
    ``point(t, x, y)``, the source point of (t, x, y) (the identity
    unless an element moves points), and ``pull(t, xs, ys, values)``, the
    transformed values from the source's values at the source point xs,
    ys (the identity unless an element changes values).  Both pulls read
    them, and so does the push of jets (:meth:`TransformedField.prolong`):
    ``pull_alpha`` evaluates the source's alpha alone at the same source
    point as ``pull_values``."""

    def point(self, t, x, y):
        return t, x, y

    def pull(self, t, xs, ys, values):
        return values

    def pull_values(self, field: Field, t, x, y):
        s, xs, ys = self.point(t, x, y)
        return self.pull(t, xs, ys, field.values(s, xs, ys))

    def pull_alpha(self, field: Field, t, x, y):
        s, xs, ys = self.point(t, x, y)
        return self.pull(t, xs, ys,
                         (field.alpha(s, xs, ys), 0.0, 0.0, 0.0))[0]


@dataclass(frozen=True)
class Rotation(_Action):
    """Generalized rotation by angle f(t)*eps with velocity corrections."""

    f: Callable
    fdot: Callable
    eps: float

    def _turn(self, t):
        """cos and sin of the angle f(t)*eps."""
        a = _tcall(self.f, self.fdot, t) * self.eps
        return cos(a), sin(a)

    def point(self, t, x, y):
        ca, sa = self._turn(t)
        return t, x * ca - y * sa, x * sa + y * ca

    def pull(self, t, xs, ys, values):
        ca, sa = self._turn(t)
        fd_eps = _tcall(self.fdot, None, t) * self.eps
        alpha, u1s, u2s, p = values
        u1 = (u1s + fd_eps * ys) * ca + (u2s - fd_eps * xs) * sa
        u2 = -(u1s + fd_eps * ys) * sa + (u2s - fd_eps * xs) * ca
        return alpha, u1, u2, p


@dataclass(frozen=True)
class Galilei(_Action):
    """Boost x -> x + eps*g(t) (or y) with the gdot velocity shift."""

    g: Callable
    gdot: Callable
    eps: float
    axis: str = "x"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be {' or '.join(map(repr, AXES))}, "
                             f"got {self.axis!r}")

    def point(self, t, x, y):
        shift = _tcall(self.g, self.gdot, t) * self.eps
        return (t, x - shift, y) if self.axis == "x" else (t, x, y - shift)

    def pull(self, t, xs, ys, values):
        alpha, u1, u2, p = values
        dshift = _tcall(self.gdot, None, t) * self.eps
        if self.axis == "x":
            return alpha, u1 + dshift, u2, p
        return alpha, u1, u2 + dshift, p


@dataclass(frozen=True)
class PressureShift(_Action):
    """Add eps*F(t) to the pressure; F supplied with its derivative."""

    F: Callable
    Fdot: Callable
    eps: float = 1.0

    def pull(self, t, xs, ys, values):
        alpha, u1, u2, p = values
        return alpha, u1, u2, p + _tcall(self.F, self.Fdot, t) * self.eps


@dataclass(frozen=True)
class TimeTranslation(_Action):
    eps: float

    def point(self, t, x, y):
        return t - self.eps, x, y


@dataclass(frozen=True)
class Scale(_Action):
    """One-parameter scale action for the power-law model exponents."""

    eps: float
    m: float
    n: float

    def point(self, t, x, y):
        e = self.eps
        sx = math.exp(-(1.0 + self.m) * e)
        return math.exp(-2.0 * (1.0 - self.n) * e) * t, sx * x, sx * y

    def pull(self, t, xs, ys, values):
        e = self.eps
        alpha, u1, u2, p = values
        cu = math.exp((self.m + 2.0 * self.n - 1.0) * e)
        return (math.exp(2.0 * e) * alpha, cu * u1, cu * u2,
                math.exp(2.0 * self.n * e) * p)


GroupElement = Rotation | Galilei | PressureShift | TimeTranslation | Scale


def _power_law_exponents(triplet: ConstitutiveTriplet):
    """(m, n) of a power-law triplet, the only kind the scale action
    applies to."""
    if not isinstance(triplet, PowerLawTriplet):
        raise InapplicableSymmetryError(
            "scale action is not applicable: the family's "
            "constitutive triplet is not power-law")
    return triplet.params.m, triplet.params.n


# The time functions that [orbit] f names, each with its derivative.
TIME_FUNCTIONS = {"const": (lambda t: 1.0, lambda t: 0.0),
                  "sin": (math.sin, math.cos)}

# The axes that [orbit] axis names, along which a Galilei boost moves.
AXES = ("x", "y")

# The elements that [orbit] element names, each built from the section's
# values and the run's triplet.  A rotation turns by eps*f(t); the boost
# g(t) = t and the pressure shift F(t) = t^2 are fixed.
ELEMENTS = {
    "rotation": lambda eps, f, **_: Rotation(*TIME_FUNCTIONS[f], eps=eps),
    "galilei": lambda eps, axis, **_: Galilei(
        g=lambda t: t, gdot=lambda t: 1.0, eps=eps, axis=axis),
    "pressure-shift": lambda eps, **_: PressureShift(
        F=lambda t: t * t, Fdot=lambda t: 2.0 * t, eps=eps),
    "time-translation": lambda eps, **_: TimeTranslation(eps=eps),
    "scale": lambda eps, triplet, **_: Scale(
        eps, *_power_law_exponents(triplet)),
}


def _lin(*terms):
    """The sum of c * v over the (c, v) ``terms``.  A float c of 0 drops
    its term and a float c of 1 takes v as it is, so where an element
    neither turns nor scales the points the source's entries pass
    through untouched."""
    out = None
    for c, v in terms:
        if isinstance(c, float) and c == 0.0:
            continue
        term = v if isinstance(c, float) and c == 1.0 else v * c
        out = term if out is None else out + term
    return 0.0 if out is None else out


def _times(a, b):
    """The product of two coefficients of A: exact where either is a float
    0 or 1, in double-double otherwise (a float product of two float
    coefficients would round at double precision)."""
    if any(isinstance(c, float) and c in (0.0, 1.0) for c in (a, b)):
        return a * b
    return DD.of(a) * b


class TransformedField(Field):
    """The pull of a field by a group element: again a field, so jets and
    residuals apply to it unchanged.  Its analytic jet is the source's
    radial pass at the source points, pushed through :meth:`prolong`."""

    def __init__(self, elem: GroupElement, source: Field):
        self.elem = elem
        self.source = source

    def values(self, t, x, y):
        return self.elem.pull_values(self.source, t, x, y)

    def alpha(self, t, x, y):
        return self.elem.pull_alpha(self.source, t, x, y)

    def prolong(self, t, x, y):
        """The source points of the slice (t, x, y), x and y double-double,
        unrounded,
        and the push that turns the source's jet rows there, (alpha_t,
        rows) as ``jets`` forms them, into this field's: the second
        prolongation of the element (Olver 1993, ch. 2).

        Every element acts affinely.  Its point map is A(t) (x, y) + c(t)
        and its pull is affine in the source point and the values, with
        coefficients in t alone (alpha's is a constant).  So first
        derivatives push by A, second derivatives by A^T H A, and alpha_t
        = tau' alpha_t + grad alpha . d/dt point.  The pull then maps each
        derivative by its linear part.  A and d/dt point come from seeding
        ``point``; the linear part from one ``pull`` on Taylor numbers
        whose first coefficient holds six derivative slots (x, y, t, xx,
        yy, xy): with no product of two seeded numbers, the pull maps each
        slot by its linear part and adds its constants to the value
        alone."""
        elem, t = self.elem, DD.of(t)
        (s, s_t, _), (sx, sx_t, _), (sy, sy_t, _) = map(
            taylor, elem.point(seed1(t), x, y))
        # the columns of A, the source directions of x and y: the map is
        # affine, so a seed at the origin gives them
        (a, b), (c, d) = (
            [taylor(v)[1] for v in elem.point(
                t, Taylor(0.0, dx, 0.0), Taylor(0.0, 1.0 - dx, 0.0))[1:]]
            for dx in (1.0, 0.0))
        shape = x.hi.shape

        def push(alpha_t, rows):
            (A, A_x, A_y), *fields = rows
            # u1, u2 and p stacked: each entry a DD of shape (3,) + shape
            f, f_x, f_y, f_xx, f_yy, f_xy = (DD.join(e, shape)
                                             for e in zip(*fields))
            slots = DD.join((
                _lin((a, f_x), (b, f_y)), _lin((c, f_x), (d, f_y)), 0.0,
                _lin((_times(a, a), f_xx), (_times(b, b), f_yy),
                     (2.0 * _times(a, b), f_xy)),
                _lin((_times(c, c), f_xx), (_times(d, d), f_yy),
                     (2.0 * _times(c, d), f_xy)),
                _lin((_times(a, c), f_xx), (_times(b, d), f_yy),
                     (_times(a, d) + _times(b, c), f_xy))), (3,) + shape)
            pulled = elem.pull(
                t,
                Taylor(sx, DD.join((a, c, sx_t, 0.0, 0.0, 0.0), shape), 0.0),
                Taylor(sy, DD.join((b, d, sy_t, 0.0, 0.0, 0.0), shape), 0.0),
                [Taylor(A, DD.join((
                    _lin((a, A_x), (b, A_y)), _lin((c, A_x), (d, A_y)),
                    _lin((s_t, alpha_t), (sx_t, A_x), (sy_t, A_y)),
                    0.0, 0.0, 0.0), shape), 0.0),
                 *(Taylor(f[k], slots[:, k], 0.0) for k in range(3))])
            (A, (A_x, A_y, A_t, *_)), *others = [
                (v, [d1[k] for k in range(6)])
                for v, d1, _ in map(taylor, pulled)]
            return A_t, ((A, A_x, A_y), *(
                (v, v_x, v_y, v_xx, v_yy, v_xy)
                for v, (v_x, v_y, _, v_xx, v_yy, v_xy) in others))

        return (s, sx, sy), push


@Check
def orbit_residual(elem: GroupElement, sol: SolutionFamily,
                   triplet: ConstitutiveTriplet, phys: PhysConstants,
                   samples: SampleSet) -> ResidualReport:
    """Governing residual of the transformed solution.

    A valid symmetry keeps this in the magnitude class of the base
    residual; the scale action is only a symmetry of the power-law model
    with matching exponents, anything else is rejected up front.
    """
    if isinstance(elem, Scale):
        m, n = _power_law_exponents(triplet)
        if (m, n) != (elem.m, elem.n):
            raise InapplicableSymmetryError(
                f"scale exponents ({elem.m}, {elem.n}) do not match the "
                f"triplet ({m}, {n})")
    return (yield from governing_residual.plan(
        JetProvider(TransformedField(elem, sol)), triplet, phys, samples,
        sol.boundary()))
