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
from .jets import Field
from .numerics import (IntegrationError, OdeSpec, QuadratureSpec,
                       ode_integrate, quad_adaptive)
from .numerics.dual import atan2, cos, ddr, exp, log, sin, sqrt, value
from .residuals import ResidualReport, _collect, nan_max

__all__ = ["ReducedProfiles", "lift_profiles", "reduced_ode_residual",
           "reduced_bc_residual", "BcResiduals", "first_integral_R",
           "integrate_ode_4_6", "LambdaTrajectory",
           "overdetermined_residual", "pressure_from_lambda"]

REDUCED_NAMES = ("radial_mass", "radial_divergence",
                 "radial_momentum_phi", "radial_momentum_r")


@dataclass(frozen=True)
class ReducedProfiles:
    """Radial profiles (concentration, pressure, speed, flow angle) and the
    model they reduce: the family's triplet and viscosity, and which
    symmetry reduced it (time translation when ``steady``, else scale).

    The four callables accept dual arguments, so first and second
    derivatives are available by forward differentiation.
    """

    lam: Callable
    P: Callable
    R: Callable
    Phi: Callable
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
        R, angle = prof.R(r), prof.Phi(r) + phi
        lam, u1, u2, p = prof.lam(r), R * cos(angle), R * sin(angle), \
            prof.P(r)
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
    L, P, R, Phi = profiles.lam, profiles.P, profiles.R, profiles.Phi
    dL, dP, dR, dPhi = ddr(L), ddr(P), ddr(R), ddr(Phi)
    d2P = ddr(dP)
    d_mass_flux = ddr(lambda r: r * L(r) * R(r) * cos(Phi(r)))
    d_vol_flux = ddr(lambda r: r * R(r) * cos(Phi(r)))
    d_swirl = ddr(lambda r: r * R(r) * L(r) * dPhi(r))
    d_shear = ddr(lambda r: r * L(r) * dR(r))

    rows, locations, rejected = [], [], []
    for idx, r in enumerate(samples_r):
        if r <= 0.0:
            rejected.append(idx)
            continue
        lam = L(r)
        c = profiles.triplet.eval(lam)
        lam_p = dL(r)
        phi = Phi(r)
        # (r D P')' expanded by hand: D P' + r D' lam' P' + r D P''
        darcy = c.D * dP(r) + r * c.dD * lam_p * dP(r) + r * c.D * d2P(r)
        src = c.d_alpha_sigma * lam_p + dP(r)
        eq1 = d_mass_flux(r) - r * c.S
        if not profiles.steady:
            n = profiles.triplet.params.n
            eq1 += gamma * r * r * lam_p - r * lam / (n - 1.0)
        eq2 = d_vol_flux(r) - darcy
        eq3 = (1.0 + lamv) * R(r) * lam_p * sin(2.0 * phi) \
            - (2.0 + lamv) * d_swirl(r) \
            - (2.0 + lamv) * r * lam * dR(r) * dPhi(r) \
            - r * src * sin(phi)
        eq4 = (1.0 + lamv) * r * R(r) * lam_p * cos(2.0 * phi) \
            + (2.0 + lamv) * r * d_shear(r) \
            - (2.0 + lamv) * lam * R(r) * (1.0 + (r * dPhi(r)) ** 2) \
            - r * R(r) * lam_p - r * r * src * cos(phi)
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
    L, P, R, Phi = profiles.lam, profiles.P, profiles.R, profiles.Phi
    dR, dPhi = ddr(R), ddr(Phi)
    phi = Phi(delta)
    kin = profiles.gamma * delta + R(delta) * cos(phi)
    t1 = (2.0 + lamv) * delta * dR(delta) \
        + R(delta) * ((1.0 + lamv) * cos(2.0 * phi) - 1.0)
    t2 = R(delta) * ((2.0 + lamv) * delta * dPhi(delta)
                     - (1.0 + lamv) * sin(2.0 * phi))
    return BcResiduals(
        kinematic=kin, pressure=P(delta), traction_1=t1, traction_2=t2,
        simplified=(R(delta), P(delta), dR(delta)))


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

