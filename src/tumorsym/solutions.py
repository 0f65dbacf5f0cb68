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
                         PowerLawTriplet, s0_link)
from .jets import RadialField, SingularityError
from .numerics import exp_over_z_integral
from .numerics.dual import exp, expm1, lift, log, sqrt

__all__ = [
    "SingularityError", "RestrictionError", "BoundaryCircle",
    "Full413", "Stationary413s", "Moving442", "Moving444", "Steady432",
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
        return self.delta * _pow(t, self.kappa / 2.0)

    def level(self, t, x, y):
        return x * x + y * y - self.delta ** 2 * t ** self.kappa

    def level_t(self, t: float) -> float:
        if self.kappa == 0.0:
            return 0.0
        return -self.kappa * self.delta ** 2 * _pow(t, self.kappa - 1.0)


def _pow(t, e):
    """t ** e for t > 0, inf where it overflows (float ** raises)."""
    try:
        return t ** e
    except OverflowError:
        return math.inf


def _pressure_integral(a_coef, w, delta):
    """I(w) = int_sqrt(w)^delta exp(-a z^2)/z dz, for seeded w too (w may
    hold an array of points).

    The Leibniz derivative with respect to w is -exp(-a w)/(2 w).
    """
    def val(wv):
        return exp_over_z_integral(a_coef, sqrt(wv), delta)

    def der(wv):
        return -exp(-a_coef * wv) / (2.0 * wv)

    return lift(w, val, der)


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------

class SolutionFamily(RadialField):
    """Common surface: fields + triplet + boundary + reduction metadata.

    A family class is the one home of its facts: the constructor's
    arguments are its free parameters (:meth:`params`), and the
    constructor checks the family's restrictions and computes its derived
    constants, citing the paper's equation in the class docstring.  The
    keyword arguments of :meth:`triplet` are the derived constants a run
    may override (:meth:`overridable`), ``derived`` lists, in report
    order, the derived attributes that ``validate`` prints, and ``radial``
    states the closed form once, without swirl: u = (x, y) * vel, with
    alpha from ``radial_alpha``, the one home of alpha that a time seed
    evaluates alone (only the mass equation has a time derivative).
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


class PowerLawFamily(SolutionFamily):
    """A family whose constitutive triplet is the power law in (m, n).

    Each solves the BVP under the s0 link, so s0 is derived from
    (n, sigma0, lambda) and is not stored.
    """

    @property
    def s0(self):
        return s0_link(self.n, self.sigma0, self.lam)

    def triplet(self, s0=None):
        """The power-law triplet; a given ``s0`` replaces the derived one
        (a sensitivity run: the fields stay as they are)."""
        return PowerLawTriplet(PowerLawParams(
            d0=self.d0, s0=self.s0 if s0 is None else s0,
            sigma0=self.sigma0, m=self.m, n=self.n))


class _M1Form(PowerLawFamily):
    """The m = -1 closed form of eq. 4.13, stated once: each subclass's
    constructor derives the coefficients that ``radial`` reads (``_v0``,
    ``_a``, ``_K``, ``_B``, ``_coef_n``, ``_coef_1``) in its own way."""

    m = -1.0

    def radial(self, t, w):
        n = self.n
        q = 1.0 / (4.0 * self.d0)
        bracket = self._a * expm1(w * q) \
            - self._K * expm1((1.0 - n) * w * q) + self._B
        vel = self._v0 / (t * w) * bracket
        p = t ** (n / (1.0 - n)) * (
            self._coef_n * _pressure_integral(n * q, w, self.delta)
            + self._coef_1 * _pressure_integral(q, w, self.delta)
            + self.c4 + 0.5 * self.c3 * log(w))
        return self.radial_alpha(t, w), vel, p

    def radial_alpha(self, t, w):
        q = 1.0 / (4.0 * self.d0)
        return self.c1 * t ** (1.0 / (1.0 - self.n)) * exp(-w * q)


class Full413(_M1Form):
    """Time-decaying radial solution with m = -1 and free c3, c4.

    Solves the governing system under the s0 link; the velocity is bounded
    at the origin exactly when c3 takes its Taylor-regular value (eq.
    4.38), the sum of the two pressure coefficients, but the pressure
    keeps its logarithmic singularity in every case.
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
        self._coef_n = 2.0 * sigma0 * c1 ** n / ((n - 1.0) * (2.0 + lam))
        self._coef_1 = 2.0 * c1 / (n - 1.0)
        self._v0, self._a = d0, c3 / c1
        # bracket constants, grouped so the w -> 0 limit carries no
        # cancellation; the affine part vanishes exactly at the regular c3
        self._K = 2.0 * sigma0 * c1 ** (n - 1.0) / ((n - 1.0) * (2.0 + lam))
        self._B = c3 / c1 - self._K - 2.0 / (n - 1.0)

    @property
    def c3_regular(self):
        return self._coef_n + self._coef_1


class Stationary413s(_M1Form):
    """Boundary-value solution with a static circular front: the closed
    form of :class:`Full413` at the constants of eq. 4.40.

    All constants except (c3, c4, n, lambda, d0) are derived, through
    E = exp(delta^2/(4 d0)); the front radius is exp(-c4/c3) and does not
    move.
    """

    family_id = "stationary413s"
    derived = ("delta", "E", "c1", "sigma0", "s0")

    def __init__(self, c3, c4, n, lam, d0):
        _require(c3 != 0.0, "c3 = 0 excluded: c3(n-1) must be nonzero")
        _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
        _require(d0 > 0.0, "d0 must be positive")
        _require(lam > 0.0, "lambda must be positive")
        _require(n * c3 > 0.0,
                 "n*c3 must be positive for a positive cell concentration")
        self.c3, self.c4, self.n, self.lam, self.d0 = c3, c4, n, lam, d0
        self.delta = math.exp(-c4 / c3)
        self.E = E = math.exp(math.exp(-2.0 * c4 / c3) / (4.0 * d0))
        self.c1 = n * c3 * E / 2.0
        self.sigma0 = -(2.0 + lam) * c3 / 2.0 * (2.0 / (n * c3)) ** n
        self._B = 1.0 + E ** n / (n - 1.0) - n * E / (n - 1.0)
        self._v0, self._a = 2.0 * d0 / (n * E), 1.0
        self._K = -(E ** n / (n - 1.0))
        self._coef_n = c3 * E ** n / (1.0 - n)
        self._coef_1 = c3 * n * E / (n - 1.0)


class Moving442(PowerLawFamily):
    """Moving-front family for m not in {-1, -n-1}; alpha is steady.

    (d0, sigma0, c2, c3) are derived from (c1, delta, m, n, lambda)
    (eq. 4.42).
    """

    family_id = "moving442"
    derived = ("d0", "s0", "sigma0", "c2", "c3", "kappa")

    def __init__(self, c1, delta, m, n, lam):
        _require(m != -1.0, "m != -1 required (the m = -1 branch is a "
                 "different family)")
        _require(m != -n - 1.0, "m = -n-1 excluded: use the m = -n-1 family")
        _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
        _require(1.0 + m + n != 0.0, "1+m+n must be nonzero")
        _require(c1 > 0.0, "c1 must be positive")
        _require(delta > 0.0, "delta must be positive")
        _require(lam > 0.0, "lambda must be positive")
        self.c1, self.delta, self.m, self.n, self.lam = c1, delta, m, n, lam
        self.d0 = (1.0 + m) * c1 ** (-1.0 - m) / (4.0 * (1.0 + lam))
        _require(self.d0 > 0.0, "derived mobility scale d0 is not positive "
                 "(requires m > -1)")
        self.sigma0 = -c1 ** (1.0 - n) * (3.0 + m + lam) / n \
            * delta ** ((2.0 - 2.0 * n) / (1.0 + m))
        self.c2 = 2.0 * c1 * (1.0 + lam) \
            * (-1.0 + m + 2.0 * n + lam * (m + n)) \
            / ((1.0 - n) * (1.0 + m + n) * (2.0 + lam)) \
            * delta ** (2.0 + 2.0 / (1.0 + m))
        self.c3 = c1 * (1.0 + lam) * (3.0 + m + lam - n * (2.0 + lam)) \
            / (n * (n - 1.0) * (2.0 + lam)) * delta ** (2.0 / (1.0 + m))
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
        return self.radial_alpha(t, w), vel, p

    def radial_alpha(self, t, w):
        return self.c1 * w ** (1.0 / (1.0 + self.m))


class Moving444(PowerLawFamily):
    """Moving-front family on the branch m = -n-1; alpha is steady.

    (d0, sigma0, c2, c3) are derived from (c1, delta, n, lambda)
    (eq. 4.44).
    """

    family_id = "moving444"
    derived = ("m", "d0", "s0", "sigma0", "c2", "c3", "kappa")

    def __init__(self, c1, delta, n, lam):
        _require(n * (n - 1.0) != 0.0, "n(n-1) must be nonzero")
        _require(c1 > 0.0, "c1 must be positive")
        _require(delta > 0.0, "delta must be positive")
        _require(lam > 0.0, "lambda must be positive")
        self.c1, self.delta, self.n, self.lam = c1, delta, n, lam
        self.m = -n - 1.0
        self.d0 = -n * c1 ** n / (4.0 * (1.0 + lam))
        if self.d0 <= 0.0:
            raise RestrictionError(
                f"derived mobility d0 = {self.d0} is not positive; "
                "n*c1^n must be negative")
        self.sigma0 = (n - 2.0 - lam) / n * c1 ** (1.0 - n) \
            * delta ** (2.0 - 2.0 / n)
        self.c2 = 2.0 * c1 * (1.0 + lam) \
            * (n * (2.0 + lam) + 2.0 * (2.0 - n + lam) * math.log(delta)) \
            / (n * (1.0 - n) * (2.0 + lam)) * delta ** (2.0 - 2.0 / n)
        self.c3 = c1 * (1.0 + lam) * (2.0 + lam - n * (3.0 + lam)) \
            / (n * (n - 1.0) * (2.0 + lam)) * delta ** (-2.0 / n)
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
        return self.radial_alpha(t, w), vel, p

    def radial_alpha(self, t, w):
        return self.c1 * w ** (-1.0 / self.n)


class Steady432(SolutionFamily):
    """Steady-state solution with the two-term proliferation rate.

    The mobility is d0/alpha and the pressure-difference function is the
    one compatible with S = k1 a^m - k2 a^n; (c4, k1, k2) are derived so
    the boundary conditions hold on the circle r = delta (eq. 4.36).
    The pressure terms carry 2 k1 c1^m / m and 2 k2 c1^n / n (``_A1``,
    ``_A2``), because the divergence equation needs c1^m and c1^n for
    any c1; whether eq. 4.36 writes the same exponents is unchecked.
    """

    family_id = "steady432"
    derived = ("c4", "k1", "k2")
    steady = True

    def __init__(self, c1, c3, delta, m_exp, n_exp, lam, d0):
        _require(lam > 0.0, "lambda must be positive")
        _require(m_exp != n_exp, "m and n exponents must differ")
        _require(0.0 < m_exp < n_exp, "0 < m < n required")
        _require(c1 > 0.0, "c1 must be positive")
        _require(d0 > 0.0, "d0 must be positive")
        _require(delta > 0.0, "delta must be positive")
        self.c1, self.c3, self.delta = c1, c3, delta
        self.m_exp, self.n_exp, self.lam, self.d0 = m_exp, n_exp, lam, d0
        self.c4 = -c3 * math.log(delta)
        common = c3 * m_exp * n_exp / (2.0 * (n_exp - m_exp))
        self.k1 = common / c1 ** m_exp \
            * math.exp(m_exp * delta ** 2 / (4.0 * d0))
        self.k2 = common / c1 ** n_exp \
            * math.exp(n_exp * delta ** 2 / (4.0 * d0))
        self._A1 = 2.0 * self.k1 * c1 ** m_exp / m_exp
        self._A2 = 2.0 * self.k2 * c1 ** n_exp / n_exp
        self._B = c3 - self._A1 + self._A2

    def radial(self, t, w):
        m, n = self.m_exp, self.n_exp
        c1, c3, c4, d0 = self.c1, self.c3, self.c4, self.d0
        q = 1.0 / (4.0 * d0)
        vel = d0 / (c1 * w) * (
            c3 * expm1(w * q) - self._A1 * expm1((1.0 - m) * w * q)
            + self._A2 * expm1((1.0 - n) * w * q) + self._B)
        p = c4 + 0.5 * c3 * log(w) \
            + self._A1 * _pressure_integral(m * q, w, self.delta) \
            - self._A2 * _pressure_integral(n * q, w, self.delta)
        return self.radial_alpha(t, w), vel, p

    def radial_alpha(self, t, w):
        q = 1.0 / (4.0 * self.d0)
        return self.c1 * exp(-w * q)

    def triplet(self):
        """S = k1 a^m - k2 a^n, D = d0/a, and the Sigma compatible with
        that S: S/a - S' + (a Sigma)'/(2+lambda) = 0 holds identically."""
        k1, k2, m, n, d0 = self.k1, self.k2, self.m_exp, self.n_exp, self.d0
        a1 = (2.0 + self.lam) * k1 * (1.0 - 1.0 / m)
        a2 = (2.0 + self.lam) * k2 * (1.0 / n - 1.0)
        return GeneralTriplet(
            S=lambda a: k1 * a ** m - k2 * a ** n,
            D=lambda a: d0 / a,
            dD=lambda a: -d0 / (a * a),
            Sigma=lambda a: a1 * a ** (m - 1.0) + a2 * a ** (n - 1.0),
            dSigma=lambda a: a1 * (m - 1.0) * a ** (m - 2.0)
            + a2 * (n - 1.0) * a ** (n - 2.0))


# ---------------------------------------------------------------------------
# front-door helpers
# ---------------------------------------------------------------------------

def reduced_profiles_of(sol: SolutionFamily):
    """Radial profiles whose lift reproduces the family's fields.

    The profiles are the t = 1 slice along the positive x-axis, which is
    exact for every implemented family (all are radial with zero swirl
    angle deviation); the reduced check reads them off the family's own
    jet there (``fields.family``).
    """
    from .reduction import ReducedProfiles

    return ReducedProfiles(fields=_AxisSlice(sol), triplet=sol.triplet(),
                           phys=sol.phys(), steady=sol.steady)


class _AxisSlice:
    """The profiles (lam, R, P, Phi) of r of a ``family``: its t = 1 slice
    along the positive x-axis, with no swirl."""

    def __init__(self, family):
        self.family = family

    def __call__(self, r):
        alpha, vel, p = self.family.radial(1.0, r * r)
        return alpha, r * vel, p, 0.0


FAMILY_IDS = {cls.family_id: cls for cls in
              (Full413, Stationary413s, Moving442, Moving444, Steady432)}
