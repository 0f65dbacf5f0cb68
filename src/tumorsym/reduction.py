"""Symmetry reductions: radial profiles, their ODE systems, and lifts.

The radial profile systems here are coded in polar form exactly as the
reduced equations read; the Cartesian residual module never shares these
expressions, so agreement between the two is a real cross-check.  The
lift back to (t, x, y) reads only the profiles and needs no polar angle:
its velocity is the unit radial vector turned by the flow angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core_model import ConstitutiveTriplet, PhysConstants, PowerLawParams
from .jets import Field, JetProvider, radial_argument
from .numerics import (IntegrationError, QuadratureSpec, ode_integrate,
                       quad_adaptive)
from .numerics.dd import DD
from .numerics.dual import Taylor, cos, sin, sqrt, taylor, value
from .residuals import (Check, ResidualReport, collect_report,
                        constitutive_terms, nan_max, settled)

__all__ = ["ReducedProfiles", "lift_profiles", "reduced_ode_residual",
           "reduced_bc_residual", "BcResiduals", "integrate_ode_4_6",
           "LambdaTrajectory", "pressure_from_lambda"]

REDUCED_NAMES = ("radial_mass", "radial_divergence",
                 "radial_momentum_phi", "radial_momentum_r")


@dataclass(frozen=True)
class ReducedProfiles:
    """Radial profiles and the model they reduce: the family's triplet and
    viscosity, and which symmetry reduced it (time translation when
    ``steady``, else scale).

    ``fields(r)`` returns the concentration, speed, pressure and flow
    angle (lam, R, P, Phi) at radius r.  It accepts seeded arguments, so
    one call at a degree-2 Taylor seed gives every first and second
    derivative.  The profiles of a family carry it as ``fields.family``:
    they are its t = 1 slice along the x-axis.
    """

    fields: Callable
    triplet: ConstitutiveTriplet
    phys: PhysConstants
    steady: bool

    @property
    def gamma(self) -> float:
        """Exponent of the scale ansatz, (m+1)/(2(n-1)); 0 for the steady
        reduction."""
        if self.steady:
            return 0.0
        p = self.triplet.params
        return (p.m + 1.0) / (2.0 * (p.n - 1.0))


class LiftedField(Field):
    """Profiles lifted to a (t, x, y) field: the inverse of the scale
    ansatz (no time factors for steady profiles), then the polar map.
    The polar map needs no angle: the velocity is the unit radial vector
    (w1, w2) / r turned by the flow angle Phi and scaled by the speed R."""

    def __init__(self, profiles: ReducedProfiles):
        self.profiles = profiles

    def values(self, t, x, y):
        if value(t) <= 0.0:
            raise ValueError("lifted field needs t > 0")
        prof = self.profiles
        g = prof.gamma  # 0 for steady profiles: t ** g is exactly 1
        w1, w2 = x * t ** g, y * t ** g
        r = sqrt(radial_argument(t, w1, w2))  # rejects the origin first
        lam, R, p, Phi = prof.fields(r)
        c, s = R * cos(Phi) / r, R * sin(Phi) / r
        u1, u2 = c * w1 - s * w2, s * w1 + c * w2
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


@Check
def reduced_ode_residual(profiles: ReducedProfiles,
                         samples_r) -> ResidualReport:
    """Residuals of the four reduced radial ODEs at the given radii.

    Both reductions give one system whose coefficients come from the
    family's own triplet; the scale reduction adds the ansatz terms
    gamma r^2 lam' - r lam/(n-1) to the mass equation.  The profile jet of
    a family's profiles is read off the family's analytic jet at t = 1 on
    the axis points (r, 0): lam = alpha, lam' = alpha_x, R = u1, R' = u1_x,
    R'' = u1_xx, P' = p_x, P'' = p_xx and Phi = 0.  Profiles with no family
    behind them are evaluated once, at a degree-2 Taylor seed on the
    double-double array of all positive radii.  The triplet is evaluated
    radius by radius (libm powers).  Radii that are not positive are
    listed in ``rejected``.  A family's axis points join its pass at
    t = 1 when the check runs with others (``residuals.run_plans``).
    """
    radii = np.asarray(samples_r, dtype=float)
    kept = radii > 0.0
    rejected = np.flatnonzero(~kept).tolist()
    r = radii[kept]
    family = getattr(profiles.fields, "family", None)
    if family is None:
        with np.errstate(all="ignore"):
            (L, L1, _), (R, R1, R2), (_, P1, P2), (F, F1, F2) = \
                _profile_jet(profiles, DD.of(r))
    else:
        jet, = yield [(JetProvider(family), 1.0, r, np.zeros_like(r))]
        jet = settled(jet)
        L, L1, R, R1, R2, P1, P2 = (jet.alpha, jet.alpha_x, jet.u1, jet.u1_x,
                                    jet.u1_xx, jet.p_x, jet.p_xx)
        F = F1 = F2 = 0.0
    return _reduced_report(profiles, r, rejected,
                           L, L1, R, R1, R2, P1, P2, F, F1, F2)


def _profile_jet(profiles, r):
    """(f, f', f'') of each profile (lam, R, P, Phi) at r, a float or a
    DD array, rounded, from one ``fields`` call at a degree-2 Taylor
    seed."""
    return [(value(f), value(d1), 2.0 * value(d2))  # f'' from f''/2
            for f, d1, d2 in map(taylor, profiles.fields(Taylor(r, 1.0, 0.0)))]


@np.errstate(all="ignore")
def _reduced_report(profiles, r, rejected, L, L1, R, R1, R2, P1, P2,
                    F, F1, F2):
    """The report of the reduced system at the radii r from the profile
    jet: lam, R, P and Phi with their r-derivatives."""
    lamv, gamma = profiles.phys.lam, profiles.gamma
    S, D, dD, d_alpha_sigma = constitutive_terms(
        profiles.triplet, np.broadcast_to(L, r.shape))
    cos_f, sin_f = cos(F), sin(F)
    # products differentiated by hand from the one profile jet:
    # (r L R cos F)', (r R cos F)', (r R L F')', (r L R')', (r D P')'
    d_mass_flux = (L * R + r * L1 * R + r * L * R1) * cos_f \
        - r * L * R * F1 * sin_f
    d_vol_flux = (R + r * R1) * cos_f - r * R * F1 * sin_f
    d_swirl = R * L * F1 + r * R1 * L * F1 + r * R * L1 * F1 \
        + r * R * L * F2
    d_shear = L * R1 + r * L1 * R1 + r * L * R2
    darcy = D * P1 + r * dD * L1 * P1 + r * D * P2
    src = d_alpha_sigma * L1 + P1
    eq1 = d_mass_flux - r * S
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
    rows = np.column_stack([np.broadcast_to(eq, r.shape)
                            for eq in (eq1, eq2, eq3, eq4)]).tolist()
    locations = [(0.0, ri, 0.0) for ri in r.tolist()]
    engine = "steady-ode" if profiles.steady else "reduced-ode"
    return collect_report(REDUCED_NAMES, rows, locations, engine, rejected)


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
    _, (R, R1, _), (P, _, _), (F, F1, _) = _profile_jet(profiles, delta)
    kin = profiles.gamma * delta + R * cos(F)
    t1 = (2.0 + lamv) * delta * R1 + R * ((1.0 + lamv) * cos(2.0 * F) - 1.0)
    t2 = R * ((2.0 + lamv) * delta * F1 - (1.0 + lamv) * sin(2.0 * F))
    return BcResiduals(
        kinematic=kin, pressure=P, traction_1=t1, traction_2=t2,
        simplified=(R, P, R1))


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
                      dlambda0: Optional[float] = None) -> LambdaTrajectory:
    """Integrate the first-order concentration ODE of the profile chain.

    The ODE is separable with the bracketed coefficient of the derivative
    inverted; a zero-crossing of that coefficient along the trajectory is
    an integration error.  On the fully degenerate parameter set (the
    bracket vanishes identically) the equation carries no information, so
    the second-order equation of the overdetermined pair is integrated
    instead; that path needs the initial slope dlambda0.
    """
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

        traj = ode_integrate(rhs2, y0, r0, r1)
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

    traj = ode_integrate(rhs, [lambda0], r0, r1)
    return LambdaTrajectory(traj)


def pressure_from_lambda(lambda_profile: Callable, source: Callable,
                         d0: float, c3: float, c4: float, delta: float,
                         quad: Optional[QuadratureSpec] = None) -> Callable:
    """Pressure profile by quadrature of the mass source.

    With g(z) = z S(lam(z)), the pressure is
    P(r) = c4 + c3 ln r - (1/d0) int_r^delta inner(rho)/rho drho, where
    inner(rho) = -int_rho^inf g is fixed by requiring decay at infinity;
    this reproduces the closed exponential-integral forms for
    Gaussian-decaying concentration profiles.  The double integral is
    taken in the swapped order, one quadrature per radius: with
    a = min(r, delta) and b = max(r, delta),

        int_a^b (1/rho) int_rho^inf g dz drho
            = int_a^b g(z) ln(z/a) dz + ln(b/a) int_b^inf g(z) dz,

    entering P with sign + for r < delta and - for r > delta.  The far
    tail int_b^inf g is summed over doubling segments until one is dust;
    the one from delta is computed once, on the first radius below it.
    """
    if quad is None:
        quad = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)

    def g(z):
        return z * source(lambda_profile(z))

    def far(b):
        # int_b^inf g, truncated once segments are dust
        total = 0.0
        lo = b
        width = max(1.0, 0.5 * b)
        while True:
            seg, _ = quad_adaptive(g, lo, lo + width, quad)
            total += seg
            lo += width
            width *= 2.0
            if abs(seg) < quad.abs_tol and lo > b + 4.0:
                return total

    far_delta = None

    def P(r):
        nonlocal far_delta
        if r == delta:
            return c4 + c3 * math.log(r)
        a, b = min(r, delta), max(r, delta)
        near, _ = quad_adaptive(lambda z: g(z) * math.log(z / a), a, b, quad)
        if r < delta:
            if far_delta is None:
                far_delta = far(delta)
            sign, tail = 1.0, far_delta
        else:
            sign, tail = -1.0, far(r)
        return c4 + c3 * math.log(r) \
            + sign * (near + math.log(b / a) * tail) / d0

    return P

