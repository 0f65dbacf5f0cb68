"""Closed-form solution families of the moving-boundary tumour model.

Five families are implemented, each validated at construction time against
the parameter restrictions that make it an exact solution.  Evaluation
returns all fields and derivatives through the jet machinery; the pressure
integral terms are evaluated through the exponential-integral kernel and
differentiated with the Leibniz rule, never by AD through quadrature.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

from .core_model import (GeneralTriplet, PhysConstants, PowerLawParams,
                         PowerLawTriplet, sigma_from_proliferation)
from .jets import Field, SingularityError
from .numerics import exp_over_z_integral
from .numerics.dual import exp, expm1, lift, log, sqrt, value

__all__ = [
    "SingularityError", "RestrictionError", "BoundaryCircle",
    "Full413", "Stationary413s", "Moving442", "Moving444", "Steady432",
    "ConstantState",
    "regular_c3_4_38", "derived_constants_4_40", "restrictions_4_42",
    "restrictions_4_44", "steady_constants_4_36",
    "reduced_profiles_of", "FAMILY_IDS",
]


class RestrictionError(ValueError):
    """Constructor parameters violate the family's validity restrictions."""


def _require(cond, message):
    if not cond:
        raise RestrictionError(message)


@dataclass(frozen=True)
class BoundaryCircle:
    """The circular moving front x^2 + y^2 = delta^2 t^kappa."""

    delta: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    def radius(self, t: float) -> float:
        if self.kappa == 0.0:
            return self.delta
        if t <= 0.0:
            raise ValueError("moving boundary needs t > 0")
        return self.delta * t ** (self.kappa / 2.0)

    def level(self, t, x, y):
        return x * x + y * y - self.delta ** 2 * t ** self.kappa

    def level_t(self, t: float) -> float:
        if self.kappa == 0.0:
            return 0.0
        return -self.kappa * self.delta ** 2 * t ** (self.kappa - 1.0)


def _pressure_integral(a_coef, w, delta):
    """I(w) = int_sqrt(w)^delta exp(-a z^2)/z dz, dual-aware in w (w may
    hold an array of points).

    The Leibniz derivative with respect to w is -exp(-a w)/(2 w).
    """
    def val(wv):
        return exp_over_z_integral(a_coef, sqrt(wv), delta)

    def der(wv):
        return -exp(-a_coef * wv) / (2.0 * wv)

    return lift(w, val, der)


# ---------------------------------------------------------------------------
# restriction / derived-constant operations
# ---------------------------------------------------------------------------

def regular_c3_4_38(c1, n, sigma0, lam):
    """The c3 that bounds the velocity at the origin (Taylor condition)."""
    if n == 1.0:
        raise RestrictionError("n = 1 is degenerate")
    return 2.0 * sigma0 * c1 ** n / ((n - 1.0) * (2.0 + lam)) \
        + 2.0 * c1 / (n - 1.0)


def derived_constants_4_40(c3, c4, n, lam, d0):
    """Constants that make the stationary-boundary family satisfy the BVP."""
    _require(c3 != 0.0, "c3 = 0 excluded: c3(n-1) must be nonzero")
    _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
    _require(d0 > 0.0, "d0 must be positive")
    _require(lam > 0.0, "lambda must be positive")
    _require(n * c3 > 0.0,
             "n*c3 must be positive for a positive cell concentration")
    delta = math.exp(-c4 / c3)
    E = math.exp(math.exp(-2.0 * c4 / c3) / (4.0 * d0))
    c1 = n * c3 * E / 2.0
    sigma0 = -(2.0 + lam) * c3 / 2.0 * (2.0 / (n * c3)) ** n
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + lam))
    return {"delta": delta, "E": E, "c1": c1, "sigma0": sigma0, "s0": s0}


def restrictions_4_42(c1, delta, m, n, lam):
    """Derived constants of the moving-boundary family with m != -n-1."""
    _require(m != -1.0, "m != -1 required (the m = -1 branch is a "
             "different family)")
    _require(m != -n - 1.0, "m = -n-1 excluded: use the m = -n-1 family")
    _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
    _require(1.0 + m + n != 0.0, "1+m+n must be nonzero")
    _require(c1 > 0.0, "c1 must be positive")
    _require(delta > 0.0, "delta must be positive")
    _require(lam > 0.0, "lambda must be positive")
    d0 = (1.0 + m) * c1 ** (-1.0 - m) / (4.0 * (1.0 + lam))
    _require(d0 > 0.0, "derived mobility scale d0 is not positive "
             "(requires m > -1)")
    sigma0 = -c1 ** (1.0 - n) * (3.0 + m + lam) / n \
        * delta ** ((2.0 - 2.0 * n) / (1.0 + m))
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + lam))
    c2 = 2.0 * c1 * (1.0 + lam) \
        * (-1.0 + m + 2.0 * n + lam * (m + n)) \
        / ((1.0 - n) * (1.0 + m + n) * (2.0 + lam)) \
        * delta ** (2.0 + 2.0 / (1.0 + m))
    c3 = c1 * (1.0 + lam) * (3.0 + m + lam - n * (2.0 + lam)) \
        / (n * (n - 1.0) * (2.0 + lam)) * delta ** (2.0 / (1.0 + m))
    return {"d0": d0, "s0": s0, "sigma0": sigma0, "c2": c2, "c3": c3}


def restrictions_4_44(c1, delta, n, lam):
    """Derived constants of the moving-boundary family with m = -n-1."""
    _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
    _require(c1 > 0.0, "c1 must be positive")
    _require(delta > 0.0, "delta must be positive")
    _require(lam > 0.0, "lambda must be positive")
    d0 = -n * c1 ** n / (4.0 * (1.0 + lam))
    if d0 <= 0.0:
        raise RestrictionError(
            f"derived mobility d0 = {d0} is not positive; "
            "n*c1^n must be negative")
    sigma0 = (n - 2.0 - lam) / n * c1 ** (1.0 - n) * delta ** (2.0 - 2.0 / n)
    s0 = n * sigma0 / ((n - 1.0) * (2.0 + lam))
    c2 = 2.0 * c1 * (1.0 + lam) \
        * (n * (2.0 + lam) + 2.0 * (2.0 - n + lam) * math.log(delta)) \
        / (n * (1.0 - n) * (2.0 + lam)) * delta ** (2.0 - 2.0 / n)
    c3 = c1 * (1.0 + lam) * (2.0 + lam - n * (3.0 + lam)) \
        / (n * (n - 1.0) * (2.0 + lam)) * delta ** (-2.0 / n)
    return {"d0": d0, "s0": s0, "sigma0": sigma0, "c2": c2, "c3": c3}


def steady_constants_4_36(c3, delta, m_exp, n_exp, c1, d0):
    """Constants that pin the steady family to its boundary conditions."""
    _require(m_exp != n_exp, "m and n exponents must differ")
    _require(0.0 < m_exp < n_exp, "0 < m < n required")
    _require(c1 > 0.0, "c1 must be positive")
    _require(d0 > 0.0, "d0 must be positive")
    _require(delta > 0.0, "delta must be positive")
    c4 = -c3 * math.log(delta)
    common = c3 * m_exp * n_exp / (2.0 * (n_exp - m_exp))
    k1 = common / c1 ** m_exp * math.exp(m_exp * delta ** 2 / (4.0 * d0))
    k2 = common / c1 ** n_exp * math.exp(n_exp * delta ** 2 / (4.0 * d0))
    return {"c4": c4, "k1": k1, "k2": k2}


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------

class SolutionFamily(Field):
    """Common surface: fields + triplet + boundary + reduction metadata.

    A family class is the one home of its facts: the constructor's
    arguments are its free parameters (:meth:`params`), the keyword
    arguments of :meth:`triplet` are the derived constants a run may
    override (:meth:`overridable`), ``derived`` lists, in report order,
    the derived attributes that ``validate`` prints, and ``radial`` states
    the closed form once: u = (x, y) * vel.
    """

    family_id: str
    derived: tuple
    steady = False
    kappa = 0.0  # front exponent: the radius grows like t^(kappa/2)

    @classmethod
    def params(cls):
        """Names of the free parameters, in constructor order."""
        return tuple(inspect.signature(cls.__init__).parameters)[1:]

    @classmethod
    def overridable(cls):
        """Names of the constants a run may replace in the triplet."""
        return tuple(inspect.signature(cls.triplet).parameters)[1:]

    def triplet(self):
        raise NotImplementedError

    def phys(self) -> PhysConstants:
        return PhysConstants(lam=self.lam)

    def boundary(self) -> BoundaryCircle:
        return BoundaryCircle(self.delta, self.kappa)

    def values(self, t, x, y):
        """The fields at (t, x, y), arrays of points allowed, from the
        family's ``radial(t, w) -> (alpha, vel, p)`` at w = x^2 + y^2."""
        if value(t) <= 0.0:
            raise ValueError(f"t must be positive, got {value(t)}")
        w = x * x + y * y
        at_origin = value(w) == 0.0  # a bool, or a mask for arrays
        if at_origin is True:
            raise SingularityError("field is singular at the origin")
        if at_origin is not False and at_origin.any():
            raise SingularityError("field is singular at the origin",
                                   at_origin)
        alpha, vel, p = self.radial(t, w)
        return alpha, x * vel, y * vel, p


class PowerLawFamily(SolutionFamily):
    """A family whose constitutive triplet is the power law in (m, n)."""

    def triplet(self, s0=None):
        """The power-law triplet; a given ``s0`` replaces the derived one
        (a sensitivity run: the fields stay as they are)."""
        return PowerLawTriplet(PowerLawParams(
            d0=self.d0, s0=self.s0 if s0 is None else s0,
            sigma0=self.sigma0, m=self.m, n=self.n))


class Full413(PowerLawFamily):
    """Time-decaying radial solution with m = -1 and free c3, c4.

    Solves the governing system under the s0 link; the velocity is bounded
    at the origin exactly when c3 takes its Taylor-regular value, but the
    pressure keeps its logarithmic singularity in every case.
    """

    family_id = "full413"
    derived = ("s0", "c3_regular")

    def __init__(self, c1, c3, c4, n, d0, lam, sigma0, delta):
        _require(c1 > 0.0, "c1 must be positive")
        _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
        _require(d0 > 0.0, "d0 must be positive")
        _require(lam > 0.0, "lambda must be positive")
        _require(delta > 0.0, "delta must be positive")
        self.c1, self.c3, self.c4 = c1, c3, c4
        self.n, self.d0, self.lam = n, d0, lam
        self.sigma0, self.delta = sigma0, delta
        self.m = -1.0
        self.s0 = n * sigma0 / ((n - 1.0) * (2.0 + lam))
        # bracket constants, grouped so the w -> 0 limit carries no
        # cancellation; the affine part vanishes exactly at the regular c3
        self._K = 2.0 * sigma0 * c1 ** (n - 1.0) / ((n - 1.0) * (2.0 + lam))
        self._B = c3 / c1 - self._K - 2.0 / (n - 1.0)

    @property
    def c3_regular(self):
        return regular_c3_4_38(self.c1, self.n, self.sigma0, self.lam)

    def radial(self, t, w):
        n, d0, lam = self.n, self.d0, self.lam
        c1, c3, c4 = self.c1, self.c3, self.c4
        q = 1.0 / (4.0 * d0)
        bracket = (c3 / c1) * expm1(w * q) \
            - self._K * expm1((1.0 - n) * w * q) + self._B
        vel = d0 / (t * w) * bracket
        coef_n = 2.0 * self.sigma0 * c1 ** n / ((n - 1.0) * (2.0 + lam))
        coef_1 = 2.0 * c1 / (n - 1.0)
        p = t ** (n / (1.0 - n)) * (
            coef_n * _pressure_integral(n * q, w, self.delta)
            + coef_1 * _pressure_integral(q, w, self.delta)
            + c4 + 0.5 * c3 * log(w))
        alpha = c1 * t ** (1.0 / (1.0 - n)) * exp(-w * q)
        return alpha, vel, p


class Stationary413s(PowerLawFamily):
    """Boundary-value solution with a static circular front.

    All constants except (c3, c4, n, lambda, d0) are derived; the front
    radius is exp(-c4/c3) and does not move.
    """

    family_id = "stationary413s"
    derived = ("delta", "E", "c1", "sigma0", "s0")

    def __init__(self, c3, c4, n, lam, d0):
        derived = derived_constants_4_40(c3, c4, n, lam, d0)
        self.c3, self.c4, self.n, self.lam, self.d0 = c3, c4, n, lam, d0
        self.delta = derived["delta"]
        self.E = derived["E"]
        self.c1 = derived["c1"]
        self.sigma0 = derived["sigma0"]
        self.s0 = derived["s0"]
        self.m = -1.0
        self._B = 1.0 + self.E ** n / (n - 1.0) - n * self.E / (n - 1.0)

    def radial(self, t, w):
        n, d0, lam = self.n, self.d0, self.lam
        c3, c4, E = self.c3, self.c4, self.E
        q = 1.0 / (4.0 * d0)
        bracket = expm1(w * q) \
            + E ** n / (n - 1.0) * expm1((1.0 - n) * w * q) + self._B
        vel = 2.0 * d0 / (n * E) / (t * w) * bracket
        p = t ** (n / (1.0 - n)) * (
            c3 * E ** n / (1.0 - n)
            * _pressure_integral(n * q, w, self.delta)
            + c3 * n * E / (n - 1.0) * _pressure_integral(q, w, self.delta)
            + c4 + 0.5 * c3 * log(w))
        alpha = 0.5 * c3 * n * E * t ** (1.0 / (1.0 - n)) * exp(-w * q)
        return alpha, vel, p


class Moving442(PowerLawFamily):
    """Moving-front family for m not in {-1, -n-1}; alpha is steady."""

    family_id = "moving442"
    derived = ("d0", "s0", "sigma0", "c2", "c3", "kappa")

    def __init__(self, c1, delta, m, n, lam):
        derived = restrictions_4_42(c1, delta, m, n, lam)
        self.c1, self.delta, self.m, self.n, self.lam = c1, delta, m, n, lam
        self.d0 = derived["d0"]
        self.s0 = derived["s0"]
        self.sigma0 = derived["sigma0"]
        self.c2 = derived["c2"]
        self.c3 = derived["c3"]
        self.kappa = (1.0 + m) / (1.0 - n)

    def radial(self, t, w):
        m, n = self.m, self.n
        c1, c2, c3 = self.c1, self.c2, self.c3
        d0, s0 = self.d0, self.s0
        tpow = t ** ((1.0 + m + n) / (1.0 - n))
        vel = w ** (-(2.0 + m) / (1.0 + m)) * (
            d0 * c2 * c1 ** m * tpow
            + s0 * (1.0 + m) * c1 ** (n - 1.0) / (2.0 * (1.0 + m + n))
            * w ** ((1.0 + m + n) / (1.0 + m)))
        p = s0 * (1.0 + m) ** 2 * c1 ** (n - 1.0 - m) \
            / (4.0 * d0 * n * (1.0 + m + n)) * w ** (n / (1.0 + m)) \
            - 0.5 * c2 * tpow / w + c3 * t ** (n / (1.0 - n))
        alpha = c1 * w ** (1.0 / (1.0 + m))
        return alpha, vel, p


class Moving444(PowerLawFamily):
    """Moving-front family on the branch m = -n-1; alpha is steady."""

    family_id = "moving444"
    derived = ("m", "d0", "s0", "sigma0", "c2", "c3", "kappa")

    def __init__(self, c1, delta, n, lam):
        derived = restrictions_4_44(c1, delta, n, lam)
        self.c1, self.delta, self.n, self.lam = c1, delta, n, lam
        self.m = -n - 1.0
        self.d0 = derived["d0"]
        self.s0 = derived["s0"]
        self.sigma0 = derived["sigma0"]
        self.c2 = derived["c2"]
        self.c3 = derived["c3"]
        self.kappa = n / (n - 1.0)

    def radial(self, t, w):
        n = self.n
        c1, c2, c3 = self.c1, self.c2, self.c3
        d0, s0 = self.d0, self.s0
        logterm = (n / (1.0 - n)) * log(t) + log(w)
        vel = w ** ((1.0 - n) / n) / (2.0 * c1 ** (1.0 + n)) * (
            2.0 * d0 * c2 + s0 * c1 ** (2.0 * n) * logterm)
        p = -1.0 / (4.0 * d0 * w) * (
            2.0 * d0 * c2 + s0 * c1 ** (2.0 * n) * (1.0 + logterm)) \
            + c3 * t ** (n / (1.0 - n))
        alpha = c1 * w ** (-1.0 / n)
        return alpha, vel, p


class Steady432(SolutionFamily):
    """Steady-state solution with the two-term proliferation rate.

    The mobility is d0/alpha and the pressure-difference function is the
    one compatible with S = k1 a^m - k2 a^n; (c4, k1, k2) are derived so
    the boundary conditions hold on the circle r = delta.
    """

    family_id = "steady432"
    derived = ("c4", "k1", "k2")
    steady = True

    def __init__(self, c1, c3, delta, m_exp, n_exp, lam, d0):
        _require(lam > 0.0, "lambda must be positive")
        derived = steady_constants_4_36(c3, delta, m_exp, n_exp, c1, d0)
        self.c1, self.c3, self.delta = c1, c3, delta
        self.m_exp, self.n_exp, self.lam, self.d0 = m_exp, n_exp, lam, d0
        self.c4 = derived["c4"]
        self.k1 = derived["k1"]
        self.k2 = derived["k2"]
        self._A1 = 2.0 * self.k1 * c1 ** m_exp / m_exp
        self._A2 = 2.0 * self.k2 * c1 ** n_exp / n_exp
        self._B = c3 - self._A1 + self._A2

    def radial(self, t, w):
        m, n = self.m_exp, self.n_exp
        c1, c3, c4, d0 = self.c1, self.c3, self.c4, self.d0
        k1, k2 = self.k1, self.k2
        q = 1.0 / (4.0 * d0)
        vel = d0 / (c1 * w) * (
            c3 * expm1(w * q) - self._A1 * expm1((1.0 - m) * w * q)
            + self._A2 * expm1((1.0 - n) * w * q) + self._B)
        p = c4 + 0.5 * c3 * log(w) \
            + 2.0 * k1 * c1 ** (m - 1.0) / m \
            * _pressure_integral(m * q, w, self.delta) \
            - 2.0 * k2 * c1 ** (n - 1.0) / n \
            * _pressure_integral(n * q, w, self.delta)
        alpha = c1 * exp(-w * q)
        return alpha, vel, p

    def triplet(self):
        k1, k2, m, n, d0 = self.k1, self.k2, self.m_exp, self.n_exp, self.d0
        sigma, dsigma = sigma_from_proliferation(k1, k2, m, n, self.phys())
        return GeneralTriplet(
            S=lambda a: k1 * a ** m - k2 * a ** n,
            dS=lambda a: k1 * m * a ** (m - 1.0) - k2 * n * a ** (n - 1.0),
            D=lambda a: d0 / a,
            dD=lambda a: -d0 / (a * a),
            Sigma=sigma, dSigma=dsigma)


class ConstantState(Field):
    """Spatially uniform rest state; exact whenever S(alpha0) = 0."""

    def __init__(self, alpha0, p0=0.0):
        self.alpha0 = alpha0
        self.p0 = p0

    def values(self, t, x, y):
        zero = 0.0 * (x + y + t)
        return self.alpha0 + zero, zero, zero, self.p0 + zero


# ---------------------------------------------------------------------------
# front-door helpers
# ---------------------------------------------------------------------------

def reduced_profiles_of(sol: SolutionFamily):
    """Radial profiles whose lift reproduces the family's fields.

    The profiles are the t = 1 slice along the positive x-axis, which is
    exact for every implemented family (all are radial with zero swirl
    angle deviation).
    """
    from .reduction import ReducedProfiles

    def fields(r):
        alpha, vel, p = sol.radial(1.0, r * r)
        return alpha, r * vel, p, 0.0

    return ReducedProfiles(fields=fields, triplet=sol.triplet(),
                           phys=sol.phys(), steady=sol.steady)


FAMILY_IDS = {cls.family_id: cls for cls in
              (Full413, Stationary413s, Moving442, Moving444, Steady432)}
