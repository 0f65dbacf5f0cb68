"""Lie group actions on fields and their verification checks.

Each group element acts by pullback: the transformed field evaluates the
source field at the inverse-mapped point and transforms the components.
The result is again a field, so jets and residuals apply to it unchanged.
Each element states that point map once, ``point``, which both of its
pulls read: ``pull_values`` for the four fields, and ``pull_alpha`` for
alpha alone, the only field a time seed needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core_model import ConstitutiveTriplet, PhysConstants, PowerLawTriplet
from .jets import AnalyticEngine, Field, JetProvider
from .numerics.dd import DD
from .numerics.dual import cos, lift, sin
from .residuals import ResidualReport, SampleSet, governing_residual
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
    return lift(t, lambda tv: fn(_plain(tv)), lambda tv: dfn(_plain(tv)))


def _plain(z):
    return z.to_float() if isinstance(z, DD) else z


class _PointMap:
    """What every element shares: its ``point(t, x, y)``, the source point
    of (t, x, y) (the identity unless an element moves points), read by
    both of its pulls, so the alpha pull evaluates the source's alpha
    alone at the same source point as ``pull_values``."""

    def point(self, t, x, y):
        return t, x, y

    def pull_alpha(self, field: Field, t, x, y):
        return field.alpha(*self.point(t, x, y))


@dataclass(frozen=True)
class Rotation(_PointMap):
    """Generalized rotation by angle f(t)*eps with velocity corrections."""

    f: Callable
    fdot: Callable
    eps: float

    def _turn(self, t, x, y):
        """cos and sin of the angle f(t)*eps, and the source point of
        (x, y), turned by it."""
        a = _tcall(self.f, self.fdot, t) * self.eps
        ca, sa = cos(a), sin(a)
        return ca, sa, x * ca - y * sa, x * sa + y * ca

    def point(self, t, x, y):
        return (t, *self._turn(t, x, y)[2:])

    def pull_values(self, field: Field, t, x, y):
        ca, sa, xs, ys = self._turn(t, x, y)
        fd_eps = _tcall(self.fdot, None, t) * self.eps
        alpha, u1s, u2s, p = field.values(t, xs, ys)
        u1 = (u1s + fd_eps * ys) * ca + (u2s - fd_eps * xs) * sa
        u2 = -(u1s + fd_eps * ys) * sa + (u2s - fd_eps * xs) * ca
        return alpha, u1, u2, p


@dataclass(frozen=True)
class Galilei(_PointMap):
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

    def pull_values(self, field: Field, t, x, y):
        alpha, u1, u2, p = field.values(*self.point(t, x, y))
        dshift = _tcall(self.gdot, None, t) * self.eps
        if self.axis == "x":
            return alpha, u1 + dshift, u2, p
        return alpha, u1, u2 + dshift, p


@dataclass(frozen=True)
class PressureShift(_PointMap):
    """Add eps*F(t) to the pressure; F supplied with its derivative."""

    F: Callable
    Fdot: Callable
    eps: float = 1.0

    def pull_values(self, field: Field, t, x, y):
        alpha, u1, u2, p = field.values(t, x, y)
        return alpha, u1, u2, p + _tcall(self.F, self.Fdot, t) * self.eps


@dataclass(frozen=True)
class TimeTranslation(_PointMap):
    eps: float

    def point(self, t, x, y):
        return t - self.eps, x, y

    def pull_values(self, field: Field, t, x, y):
        return field.values(*self.point(t, x, y))


@dataclass(frozen=True)
class Scale(_PointMap):
    """One-parameter scale action for the power-law model exponents."""

    eps: float
    m: float
    n: float

    def point(self, t, x, y):
        e = self.eps
        sx = math.exp(-(1.0 + self.m) * e)
        return math.exp(-2.0 * (1.0 - self.n) * e) * t, sx * x, sx * y

    def pull_values(self, field: Field, t, x, y):
        e = self.eps
        alpha, u1, u2, p = field.values(*self.point(t, x, y))
        cu = math.exp((self.m + 2.0 * self.n - 1.0) * e)
        return (math.exp(2.0 * e) * alpha, cu * u1, cu * u2,
                math.exp(2.0 * self.n * e) * p)

    def pull_alpha(self, field: Field, t, x, y):
        return math.exp(2.0 * self.eps) * super().pull_alpha(field, t, x, y)


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


class TransformedField(Field):
    def __init__(self, elem: GroupElement, source: Field):
        self.elem = elem
        self.source = source

    def values(self, t, x, y):
        return self.elem.pull_values(self.source, t, x, y)

    def alpha(self, t, x, y):
        return self.elem.pull_alpha(self.source, t, x, y)


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
    provider = JetProvider(TransformedField(elem, sol), AnalyticEngine())
    return governing_residual(provider, triplet, phys, samples,
                              sol.boundary())
