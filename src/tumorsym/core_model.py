"""Physical parameters, constitutive functions and the constraints linking
them.

The model couples the cell concentration, two cell-velocity components and
the water pressure through three constitutive functions: the proliferation
rate S, the pressure-driven mobility D and the cell/water pressure
difference Sigma.  They come either as power laws or as black-box callables
with explicit derivative callbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "DomainError", "PhysConstants", "PowerLawParams", "PowerLawTriplet",
    "GeneralTriplet", "ConstitutiveValues", "s0_link",
]


class DomainError(ValueError):
    """Constitutive evaluation outside the declared concentration domain."""


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
class ConstitutiveValues:
    """Everything the governing-equation residuals need at one alpha."""

    S: float
    D: float
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
        try:
            S = p.s0 * alpha ** p.n
            D = p.d0 * alpha ** p.m
            # alpha * Sigma = sigma0 a^n, so the derivative is
            # n sigma0 a^(n-1)
            d_alpha_sigma = p.sigma0 * p.n * alpha ** (p.n - 1)
            dD = p.d0 * p.m * alpha ** (p.m - 1)
        except OverflowError:  # float ** raises where libm gives inf
            return ConstitutiveValues(math.nan, math.nan, math.nan, math.nan)
        return ConstitutiveValues(S, D, d_alpha_sigma, dD)


@dataclass(frozen=True)
class GeneralTriplet:
    """Black-box constitutive functions with derivative callbacks."""

    S: Callable[[float], float]
    D: Callable[[float], float]
    dD: Callable[[float], float]
    Sigma: Callable[[float], float]
    dSigma: Callable[[float], float]
    needs_positive_alpha: bool = True

    def eval(self, alpha: float) -> ConstitutiveValues:
        _check_alpha(alpha, self.needs_positive_alpha)
        sig = self.Sigma(alpha)
        return ConstitutiveValues(
            S=self.S(alpha), D=self.D(alpha),
            d_alpha_sigma=sig + alpha * self.dSigma(alpha),
            dD=self.dD(alpha))


ConstitutiveTriplet = PowerLawTriplet | GeneralTriplet


def s0_link(n: float, sigma0: float, lam: float) -> float:
    """The s0 under which the power-law model admits the radial
    reductions, n sigma0 / ((n-1)(2+lambda)); undefined at n = 1."""
    return n * sigma0 / ((n - 1.0) * (2.0 + lam))
