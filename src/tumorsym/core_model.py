"""Physical parameters, constitutive functions and the constraints linking
them.

The model couples the cell concentration, two cell-velocity components and
the water pressure through three constitutive functions: the proliferation
rate S, the pressure-driven mobility D and the cell/water pressure
difference Sigma.  They come either as power laws or as black-box callables
with explicit derivative callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "DomainError", "DegenerateScaleError",
    "PhysConstants", "PowerLawParams", "PowerLawTriplet", "GeneralTriplet",
    "ScaleExponents", "ConstitutiveValues", "scale_exponents",
    "s0_link", "validate_power_law", "sigma_from_proliferation",
    "compatibility_residual", "CONSTRAINT_TOL",
]

# Closed-form parameter constraints are plain arithmetic; anything worse
# than this is a real violation, not roundoff.
CONSTRAINT_TOL = 1e-12


class DomainError(ValueError):
    """Constitutive evaluation outside the declared concentration domain."""


class DegenerateScaleError(ValueError):
    """Scale reduction requested with n = 1 (exponents blow up)."""


@dataclass(frozen=True)
class PhysConstants:
    """Bulk viscosity coefficient; shear viscosity is normalized to 1."""

    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"bulk viscosity must be positive, got {self.lam}")


@dataclass(frozen=True)
class PowerLawParams:
    d0: float
    s0: float
    sigma0: float
    m: float
    n: float

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError(f"mobility scale d0 must be positive, got {self.d0}")


@dataclass(frozen=True)
class ScaleExponents:
    gamma: float
    kappa: float


@dataclass(frozen=True)
class ConstitutiveValues:
    """Everything the governing-equation residuals need at one alpha."""

    S: float
    D: float
    Sigma: float
    dS: float
    d_alpha_sigma: float  # d(alpha * Sigma)/d alpha
    dD: float


def _check_alpha(alpha, needs_positive):
    if needs_positive and alpha <= 0.0:
        raise DomainError(
            f"alpha={alpha} outside domain (0, inf) required by a negative "
            "exponent")


@dataclass(frozen=True)
class PowerLawTriplet:
    """S = s0 a^n, D = d0 a^m, Sigma = sigma0 a^(n-1)."""

    params: PowerLawParams

    @property
    def needs_positive_alpha(self) -> bool:
        p = self.params
        return p.m < 0 or p.n < 0 or p.n - 1 < 0 or \
            p.m != int(p.m) or p.n != int(p.n)

    def eval(self, alpha: float) -> ConstitutiveValues:
        p = self.params
        _check_alpha(alpha, self.needs_positive_alpha)
        S = p.s0 * alpha ** p.n
        D = p.d0 * alpha ** p.m
        Sigma = p.sigma0 * alpha ** (p.n - 1)
        dS = p.s0 * p.n * alpha ** (p.n - 1)
        # alpha * Sigma = sigma0 a^n, so the derivative is n sigma0 a^(n-1)
        d_alpha_sigma = p.sigma0 * p.n * alpha ** (p.n - 1)
        dD = p.d0 * p.m * alpha ** (p.m - 1)
        return ConstitutiveValues(S, D, Sigma, dS, d_alpha_sigma, dD)


@dataclass(frozen=True)
class GeneralTriplet:
    """Black-box constitutive functions with derivative callbacks."""

    S: Callable[[float], float]
    dS: Callable[[float], float]
    D: Callable[[float], float]
    dD: Callable[[float], float]
    Sigma: Callable[[float], float]
    dSigma: Callable[[float], float]
    needs_positive_alpha: bool = True

    def eval(self, alpha: float) -> ConstitutiveValues:
        _check_alpha(alpha, self.needs_positive_alpha)
        sig = self.Sigma(alpha)
        return ConstitutiveValues(
            S=self.S(alpha), D=self.D(alpha), Sigma=sig,
            dS=self.dS(alpha),
            d_alpha_sigma=sig + alpha * self.dSigma(alpha),
            dD=self.dD(alpha))


ConstitutiveTriplet = PowerLawTriplet | GeneralTriplet


def scale_exponents(m: float, n: float) -> ScaleExponents:
    """Ansatz exponent and boundary exponent of the scale reduction."""
    if n == 1:
        raise DegenerateScaleError("n = 1: scale exponents are undefined")
    gamma = (m + 1.0) / (2.0 * (n - 1.0))
    kappa = -2.0 * gamma  # identical to (1+m)/(1-n), kept tied exactly
    return ScaleExponents(gamma=gamma, kappa=kappa)


def s0_link(n: float, sigma0: float, lam: float) -> float:
    """The s0 under which the power-law model admits the radial
    reductions, n sigma0 / ((n-1)(2+lambda)); undefined at n = 1."""
    return n * sigma0 / ((n - 1.0) * (2.0 + lam))


@dataclass(frozen=True)
class PowerLawDiagnostics:
    s0_required: float | None
    s0_link_holds: bool | None
    mobility_ok: bool
    exponents_nondegenerate: bool
    flags: tuple[str, ...] = field(default=())

    @property
    def all_ok(self) -> bool:
        return not self.flags


def validate_power_law(params: PowerLawParams,
                       phys: PhysConstants) -> PowerLawDiagnostics:
    """Report (never reject) which optional parameter constraints hold."""
    flags = []
    mobility_ok = params.d0 > 0
    if not mobility_ok:
        flags.append("degenerate mobility")
    nondeg = params.n * (params.n - 1.0) != 0.0
    if not nondeg:
        flags.append("degenerate exponent n(n-1) = 0")

    s0_required = None
    link = None
    if params.n != 1.0:
        s0_required = s0_link(params.n, params.sigma0, phys.lam)
        scale = max(abs(s0_required), abs(params.s0), 1.0)
        link = abs(params.s0 - s0_required) <= CONSTRAINT_TOL * scale
        if not link:
            flags.append("s0 != n*sigma0/((n-1)(2+lambda))")
    return PowerLawDiagnostics(
        s0_required=s0_required, s0_link_holds=link, mobility_ok=mobility_ok,
        exponents_nondegenerate=nondeg, flags=tuple(flags))


def sigma_from_proliferation(k1: float, k2: float, m_exp: float, n_exp: float,
                             phys: PhysConstants):
    """Pressure-difference function compatible with the two-term
    proliferation rate S = k1 a^m - k2 a^n.

    Returns dual-aware callables (Sigma, dSigma); together with that S the
    steady compatibility relation holds identically.
    """
    if m_exp == 0.0 or n_exp == 0.0:
        raise ZeroDivisionError("exponents m, n must be nonzero")
    c = 2.0 + phys.lam
    a1 = c * k1 * (1.0 - 1.0 / m_exp)
    a2 = c * k2 * (1.0 / n_exp - 1.0)

    def sigma(alpha):
        return a1 * alpha ** (m_exp - 1.0) + a2 * alpha ** (n_exp - 1.0)

    def dsigma(alpha):
        return (a1 * (m_exp - 1.0) * alpha ** (m_exp - 2.0)
                + a2 * (n_exp - 1.0) * alpha ** (n_exp - 2.0))

    return sigma, dsigma


def compatibility_residual(triplet: ConstitutiveTriplet, phys: PhysConstants,
                           alpha_samples) -> float:
    """Max |S/a - dS/da + d(a Sigma)/da / (2+lambda)| over the samples.

    Zero exactly when the triplet admits the steady radial reduction.
    """
    worst = 0.0
    for a in alpha_samples:
        cv = triplet.eval(a)
        res = cv.S / a - cv.dS + cv.d_alpha_sigma / (2.0 + phys.lam)
        worst = max(worst, abs(res))
    return worst
