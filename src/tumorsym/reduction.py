"""Symmetry reductions: radial profiles, their ODE systems, and lifts.

The radial profile systems here are coded in polar form exactly as the
reduced equations read; the Cartesian residual module never shares these
expressions, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core_model import (ConstitutiveTriplet, PhysConstants, PowerLawParams,
                         scale_exponents)
from .jets import Field, _d, _d2
from .numerics import (IntegrationError, OdeSpec, QuadratureSpec,
                       ode_integrate, quad_adaptive)
from .numerics.dual import atan2, cos, ddr, seed2, sin, sqrt, value
from .residuals import ResidualReport, _collect, nan_max

__all__ = ["ReducedProfiles", "lift_profiles", "reduced_ode_residual",
           "reduced_bc_residual", "BcResiduals", "first_integral_R",
           "integrate_ode_4_6", "LambdaTrajectory",
           "overdetermined_residual", "pressure_from_lambda"]

REDUCED_NAMES = ("radial_mass", "radial_divergence",
                 "radial_momentum_phi", "radial_momentum_r")


@dataclass(frozen=True)
class ReducedProfiles:
    """Radial profiles and the model they reduce: the family's triplet and
    viscosity, and which symmetry reduced it (time translation when
    ``steady``, else scale).

    ``fields(r)`` returns the concentration, speed, pressure and flow
    angle (lam, R, P, Phi) at radius r.  It accepts dual arguments, so one
    call at a second-order seed gives every first and second derivative.
    """

    fields: Callable
    triplet: ConstitutiveTriplet
    phys: PhysConstants
    steady: bool

    @property
    def gamma(self) -> float:
        """Exponent of the scale ansatz; 0 for the steady reduction."""
        if self.steady:
            return 0.0
        p = self.triplet.params
        return scale_exponents(p.m, p.n).gamma


class LiftedField(Field):
    """Profiles lifted to a (t, x, y) field: the inverse of the scale
    ansatz (no time factors for steady profiles), then the polar map."""

    def __init__(self, profiles: ReducedProfiles):
        self.profiles = profiles

    def values(self, t, x, y):
        if value(t) <= 0.0:
            raise ValueError("lifted field needs t > 0")
        prof = self.profiles
        g = prof.gamma  # 0 for steady profiles: t ** g is exactly 1
        w1, w2 = x * t ** g, y * t ** g
        r, phi = sqrt(w1 * w1 + w2 * w2), atan2(w2, w1)
        lam, R, p, Phi = prof.fields(r)
        u1, u2 = R * cos(Phi + phi), R * sin(Phi + phi)
        if prof.steady:
            return lam, u1, u2, p
        n = prof.triplet.params.n
        tu = t ** (-g - 1.0)
        return (t ** (1.0 / (1.0 - n)) * lam, tu * u1, tu * u2,
                t ** (n / (1.0 - n)) * p)


def lift_profiles(profiles: ReducedProfiles) -> LiftedField:
    """Compose the polar and scale ansatz maps into a full (t,x,y) field.

    For steady profiles the time-translation reduction is inverted instead
    and no time factors appear.
    """
    return LiftedField(profiles)


def reduced_ode_residual(profiles: ReducedProfiles,
                         samples_r) -> ResidualReport:
    """Residuals of the four reduced radial ODEs at the given radii.

    Both reductions give one system whose coefficients come from the
    family's own triplet; the scale reduction adds the ansatz terms
    gamma r^2 lam' - r lam/(n-1) to the mass equation.
    """
    lamv, gamma = profiles.phys.lam, profiles.gamma
    rows, locations, rejected = [], [], []
    for idx, r in enumerate(samples_r):
        if r <= 0.0:
            rejected.append(idx)
            continue
        (L, L1, _), (R, R1, R2), (_, P1, P2), (F, F1, F2) = [
            (value(f), _d(f), _d2(f)) for f in profiles.fields(seed2(r))]
        c = profiles.triplet.eval(L)
        cos_f, sin_f = cos(F), sin(F)
        # products differentiated by hand from the one profile jet:
        # (r L R cos F)', (r R cos F)', (r R L F')', (r L R')', (r D P')'
        d_mass_flux = (L * R + r * L1 * R + r * L * R1) * cos_f \
            - r * L * R * F1 * sin_f
        d_vol_flux = (R + r * R1) * cos_f - r * R * F1 * sin_f
        d_swirl = R * L * F1 + r * R1 * L * F1 + r * R * L1 * F1 \
            + r * R * L * F2
        d_shear = L * R1 + r * L1 * R1 + r * L * R2
        darcy = c.D * P1 + r * c.dD * L1 * P1 + r * c.D * P2
        src = c.d_alpha_sigma * L1 + P1
        eq1 = d_mass_flux - r * c.S
        if not profiles.steady:
            n = profiles.triplet.params.n
            eq1 += gamma * r * r * L1 - r * L / (n - 1.0)
        eq2 = d_vol_flux - darcy
        eq3 = (1.0 + lamv) * R * L1 * sin(2.0 * F) \
            - (2.0 + lamv) * d_swirl \
            - (2.0 + lamv) * r * L * R1 * F1 \
            - r * src * sin_f
        eq4 = (1.0 + lamv) * r * R * L1 * cos(2.0 * F) \
            + (2.0 + lamv) * r * d_shear \
            - (2.0 + lamv) * L * R * (1.0 + (r * F1) ** 2) \
            - r * R * L1 - r * r * src * cos_f
        rows.append((eq1, eq2, eq3, eq4))
        locations.append((0.0, r, 0.0))
    engine = "steady-ode" if profiles.steady else "reduced-ode"
    return _collect(REDUCED_NAMES, rows, locations, engine, rejected)


@dataclass(frozen=True)
class BcResiduals:
    """Front-condition residuals: the general set and the simplified set."""

    kinematic: float
    pressure: float
    traction_1: float
    traction_2: float
    simplified: tuple  # (R, P, R')

    @property
    def general_max(self):
        return nan_max(map(abs, (self.kinematic, self.pressure,
                                 self.traction_1, self.traction_2)))

    @property
    def simplified_max(self):
        return nan_max(map(abs, self.simplified))


def reduced_bc_residual(profiles: ReducedProfiles,
                        delta: float) -> BcResiduals:
    lamv = profiles.phys.lam
    _, (R, R1, _), (P, _, _), (F, F1, _) = [
        (value(f), _d(f), _d2(f)) for f in profiles.fields(seed2(delta))]
    kin = profiles.gamma * delta + R * cos(F)
    t1 = (2.0 + lamv) * delta * R1 + R * ((1.0 + lamv) * cos(2.0 * F) - 1.0)
    t2 = R * ((2.0 + lamv) * delta * F1 - (1.0 + lamv) * sin(2.0 * F))
    return BcResiduals(
        kinematic=kin, pressure=P, traction_1=t1, traction_2=t2,
        simplified=(R, P, R1))


def first_integral_R(beta: float, d0: float, m: float,
                     lambda_profile: Callable,
                     p_prime_profile: Callable) -> Callable:
    """Radial speed implied by the zero-swirl divergence equation."""
    def R(r):
        return beta / r + d0 * lambda_profile(r) ** m * p_prime_profile(r)
    return R


class LambdaTrajectory:
    """Callable concentration profile wrapping an ODE trajectory."""

    def __init__(self, traj, transform=None):
        self.trajectory = traj
        self._transform = transform

    def __call__(self, r):
        v = self.trajectory(r)[0]
        return self._transform(v) if self._transform else v


def integrate_ode_4_6(params: PowerLawParams, phys: PhysConstants,
                      beta: float, r0: float, r1: float, lambda0: float,
                      spec: Optional[OdeSpec] = None,
                      dlambda0: Optional[float] = None) -> LambdaTrajectory:
    """Integrate the first-order concentration ODE of the profile chain.

    The ODE is separable with the bracketed coefficient of the derivative
    inverted; a zero-crossing of that coefficient along the trajectory is
    an integration error.  On the fully degenerate parameter set (the
    bracket vanishes identically) the equation carries no information, so
    the second-order equation of the overdetermined pair is integrated
    instead; that path needs the initial slope dlambda0.
    """
    if spec is None:
        spec = OdeSpec()
    m, n = params.m, params.n
    d0, s0, sigma0 = params.d0, params.s0, params.sigma0
    lamv = phys.lam
    link = (n - 1.0) * (n * sigma0 - (n - 1.0) * (2.0 + lamv) * s0)

    def bracket(lam):
        return (1.0 + m) * (1.0 + lamv) * lam ** m \
            + link * lam ** (m + n - 1.0)

    def forcing(r):
        return (1.0 + m) * r / (2.0 * d0) + (n - 1.0) * beta / (d0 * r)

    b0 = bracket(lambda0)
    degenerate = (1.0 + m == 0.0 and abs(link) < 1e-13
                  * max(1.0, abs(n * sigma0), abs((n - 1.0) * s0)))
    if degenerate and beta == 0.0:
        if dlambda0 is None:
            raise IntegrationError(
                "the first-order equation is identically 0 = 0 for this "
                "parameter set; supply the initial slope dlambda0 to "
                "integrate the second-order profile equation instead")
        y0 = [math.log(lambda0), dlambda0 / lambda0]

        def rhs2(r, y):
            _, dl = y
            return [dl, lamv / ((2.0 + lamv) * r) * dl
                    - math.exp(-(1.0 + m) * y[0]) / (d0 * (2.0 + lamv))]

        traj = ode_integrate(rhs2, y0, r0, r1, spec)
        return LambdaTrajectory(traj, transform=math.exp)

    if b0 == 0.0:
        raise IntegrationError(
            f"coefficient of the derivative vanishes at r0={r0}")
    sign0 = math.copysign(1.0, b0)

    def rhs(r, y):
        b = bracket(y[0])
        if b == 0.0 or math.copysign(1.0, b) != sign0:
            raise IntegrationError(
                f"coefficient of the derivative crosses zero near r={r}")
        return [forcing(r) / b]

    traj = ode_integrate(rhs, [lambda0], r0, r1, spec)
    return LambdaTrajectory(traj)


def overdetermined_residual(lambda_profile: Callable,
                            params: Optional[PowerLawParams],
                            phys: PhysConstants, system: str,
                            samples_r, beta: float = 0.0,
                            triplet: Optional[ConstitutiveTriplet] = None):
    """L-infinity residuals of both equations of an overdetermined pair.

    system 'eq_4_5' is the power-law pair in (m, n, s0, sigma0);
    system 'eq_4_23' takes a general triplet and checks its
    function-valued second equation with the given beta.
    """
    lamv = phys.lam
    L = lambda_profile
    dL = ddr(L)
    d2L = ddr(dL)
    res1, res2 = [0.0], [0.0]
    for r in samples_r:
        lam, lp, lpp = L(r), dL(r), d2L(r)
        if system == "eq_4_5":
            m, n = params.m, params.n
            d0, s0, sigma0 = params.d0, params.s0, params.sigma0
            e1 = lam ** m * lpp - lam ** (m - 1.0) * lp * lp \
                - lamv / ((2.0 + lamv) * r) * lam ** m * lp \
                + 1.0 / (d0 * (2.0 + lamv))
            e2 = ((1.0 + m) * r + 2.0 * (n - 1.0) * beta / r) \
                * (lpp - lp * lp / lam) \
                + 2.0 * (n - 1.0) * (n * sigma0 / (2.0 + lamv)
                                     - (n - 1.0) * s0) \
                * lam ** (n - 1.0) * lp \
                + (1.0 + m
                   - 2.0 * (n - 1.0) * beta * lamv
                   / ((2.0 + lamv) * r * r)) * lp
        elif system == "eq_4_23":
            c = triplet.eval(lam)
            e1 = lpp - lp * lp / lam - lamv / ((2.0 + lamv) * r) * lp \
                + 1.0 / ((2.0 + lamv) * c.D)
            e2 = c.D * (c.S / lam - c.dS
                        + c.d_alpha_sigma / (2.0 + lamv)) * lp \
                - beta / ((2.0 + lamv) * r)
        else:
            raise ValueError(f"unknown system {system!r}")
        res1.append(abs(e1))
        res2.append(abs(e2))
    return nan_max(res1), nan_max(res2)


def pressure_from_lambda(lambda_profile: Callable, source: Callable,
                         d0: float, c3: float, c4: float, delta: float,
                         quad: Optional[QuadratureSpec] = None) -> Callable:
    """Pressure profile by double quadrature of the mass source.

    The inner antiderivative of rho*S(lam(rho)) is fixed by requiring
    decay at infinity, which reproduces the closed exponential-integral
    forms for Gaussian-decaying concentration profiles.
    """
    if quad is None:
        quad = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)

    def inner(rho):
        # -int_rho^inf z S(lam(z)) dz, truncated once segments are dust
        total = 0.0
        lo = rho
        width = max(1.0, 0.5 * rho)
        while True:
            seg, _ = quad_adaptive(lambda z: z * source(lambda_profile(z)),
                                   lo, lo + width, quad)
            total += seg
            lo += width
            width *= 2.0
            if abs(seg) < quad.abs_tol and lo > rho + 4.0:
                break
        return -total

    def P(r):
        tail, _ = quad_adaptive(lambda rho: inner(rho) / rho, r, delta, quad)
        return c4 + c3 * math.log(r) - tail / d0

    return P

