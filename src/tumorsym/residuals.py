"""Governing-equation and boundary-condition residuals in Cartesian form.

The four governing residuals are assembled term by term exactly as the
model system is written, from jet entries only.  This module is coded
independently of the polar reduced system so that the two formulations
cross-check each other.  Jets are requested once per sample time, for all
points at that time together; the assembly is elementwise and each
point's sum is still one exactly rounded fsum, so every residual has the
bits of a point-by-point evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_model import ConstitutiveTriplet, PhysConstants
from .jets import JET_ENTRIES, FieldJet, JetProvider, SingularityError
from .numerics import neumaier_sum
from .numerics.dd import two_prod
from .solutions import BoundaryCircle

__all__ = ["SampleSet", "EquationNorms", "ResidualReport",
           "governing_residual", "boundary_residual", "cross_engine_check",
           "governing_residual_at", "boundary_residual_at"]

GOVERNING_NAMES = ("mass", "divergence", "momentum_x", "momentum_y")
BOUNDARY_NAMES = ("kinematic", "pressure", "traction_1", "traction_2")


@dataclass(frozen=True)
class SampleSet:
    """Deterministic annulus sampling: concentric rings inside the front.

    Radii are log-spaced on [r_min_fraction * radius(t), radius(t)] so the
    near-origin region and the boundary layer are both resolved.
    """

    times: tuple = (1.0,)
    r_min_fraction: float = 1e-2
    n_r: int = 12
    n_theta: int = 8

    def __post_init__(self):
        if any(t <= 0 for t in self.times):
            raise ValueError("all sample times must be positive")
        if not 0.0 < self.r_min_fraction < 1.0:
            raise ValueError("r_min_fraction must lie in (0, 1)")
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError("grid counts must be positive")

    def points(self, boundary: BoundaryCircle):
        """Yield (t, x, y) in deterministic t-major, r, theta order."""
        for t in self.times:
            rad = boundary.radius(t)
            r_lo = self.r_min_fraction * rad
            for i in range(self.n_r):
                if self.n_r == 1:
                    r = rad
                else:
                    frac = i / (self.n_r - 1)
                    r = r_lo * (rad / r_lo) ** frac
                for j in range(self.n_theta):
                    theta = 2.0 * math.pi * j / self.n_theta
                    yield t, r * math.cos(theta), r * math.sin(theta)


@dataclass(frozen=True)
class EquationNorms:
    name: str
    linf: float
    linf_location: tuple
    l2: float


@dataclass(frozen=True)
class ResidualReport:
    equations: tuple
    sample_count: int
    engine: str
    rejected: tuple = ()

    @property
    def linf(self) -> float:
        return nan_max(eq.linf for eq in self.equations)

    def norm(self, name: str) -> EquationNorms:
        for eq in self.equations:
            if eq.name == name:
                return eq
        raise KeyError(name)

    def lines(self):
        out = []
        for eq in self.equations:
            t, x, y = eq.linf_location
            out.append(f"{eq.name}: Linf={eq.linf:.6e} at "
                       f"(t={t:.6g}, x={x:.6g}, y={y:.6g}) L2={eq.l2:.6e}")
        return out


def nan_max(values):
    """The largest value, or NaN when any value is NaN (``max`` drops a NaN
    that does not come first, so a failed evaluation would pass a gate)."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


@np.errstate(all="ignore")
def _acc(terms):
    """Exactly accumulated sum of c*a*b terms (per point for arrays).

    Individual momentum terms grow like r^-3 near the inner sampling rim
    while the residual stays near zero, so every product is split into its
    error-free parts before the single fsum.  Overflow makes a NaN or inf
    point that fails its gate, without a warning.
    """
    parts = []
    for c, a, b in terms:
        p, e = two_prod(a, b)
        q, f = two_prod(p, c)
        parts += (q, f, e * c)
    table = np.stack(np.broadcast_arrays(*parts), axis=-1)
    if table.ndim == 1:
        return _fsum(table.tolist())
    return [_fsum(row) for row in table.tolist()]


def _fsum(terms):
    """``math.fsum``, or NaN when the terms cannot be summed (inf - inf, or
    an intermediate overflow), so the point fails its gate instead of
    ending the run."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def _constitutive(triplet, alpha):
    """(S, D, dD, d_alpha_sigma) at alpha, evaluated point by point so the
    powers come from libm; arrays for an array alpha."""
    if not isinstance(alpha, np.ndarray):
        c = triplet.eval(alpha)
        return c.S, c.D, c.dD, c.d_alpha_sigma
    cs = [triplet.eval(a) for a in alpha.tolist()]
    return tuple(np.array([getattr(c, k) for c in cs], dtype=float)
                 for k in ("S", "D", "dD", "d_alpha_sigma"))


def governing_residual_at(jet: FieldJet, triplet: ConstitutiveTriplet,
                          phys: PhysConstants):
    """The four governing residuals at a jet (lists for an array jet)."""
    lam = phys.lam
    S, D, dD, d_alpha_sigma = _constitutive(triplet, jet.alpha)
    r_mass = _acc([
        (1.0, jet.alpha_t, 1.0),
        (1.0, jet.alpha_x, jet.u1), (1.0, jet.alpha, jet.u1_x),
        (1.0, jet.alpha_y, jet.u2), (1.0, jet.alpha, jet.u2_y),
        (-1.0, S, 1.0)])
    r_div = _acc([
        (1.0, jet.u1_x, 1.0), (1.0, jet.u2_y, 1.0),
        (-dD, jet.alpha_x, jet.p_x), (-dD, jet.alpha_y, jet.p_y),
        (-D, jet.p_xx, 1.0), (-D, jet.p_yy, 1.0)])
    r_mx = _acc([
        (2.0 + lam, jet.alpha_x, jet.u1_x),
        (2.0 + lam, jet.alpha, jet.u1_xx),
        (lam, jet.alpha_x, jet.u2_y), (lam, jet.alpha, jet.u2_xy),
        (1.0, jet.alpha_y, jet.u1_y), (1.0, jet.alpha_y, jet.u2_x),
        (1.0, jet.alpha, jet.u1_yy), (1.0, jet.alpha, jet.u2_xy),
        (-1.0, jet.p_x, 1.0),
        (-d_alpha_sigma, jet.alpha_x, 1.0)])
    r_my = _acc([
        (1.0, jet.alpha_x, jet.u1_y), (1.0, jet.alpha_x, jet.u2_x),
        (1.0, jet.alpha, jet.u1_xy), (1.0, jet.alpha, jet.u2_xx),
        (2.0 + lam, jet.alpha_y, jet.u2_y),
        (2.0 + lam, jet.alpha, jet.u2_yy),
        (lam, jet.alpha_y, jet.u1_x), (lam, jet.alpha, jet.u1_xy),
        (-1.0, jet.p_y, 1.0),
        (-d_alpha_sigma, jet.alpha_y, 1.0)])
    return r_mass, r_div, r_mx, r_my


def _collect(names, rows, locations, engine, rejected):
    equations = []
    for k, name in enumerate(names):
        col = [abs(row[k]) for row in rows]
        if not col:
            raise ValueError("no valid samples")
        nans = [i for i, v in enumerate(col) if math.isnan(v)]
        at = nans[0] if nans else col.index(max(col))
        linf, where = col[at], locations[at]
        l2 = math.sqrt(neumaier_sum([v * v for v in col]))
        equations.append(EquationNorms(name, linf, where, l2))
    return ResidualReport(tuple(equations), len(rows), engine,
                          tuple(rejected))


def _time_slices(points):
    """Group t-major (t, x, y) points into (t, points, x array, y array)."""
    for t, group in itertools.groupby(points, key=lambda p: p[0]):
        pts = list(group)
        yield (t, pts, np.array([p[1] for p in pts]),
               np.array([p[2] for p in pts]))


def _jet_slice(jets: JetProvider, t, x, y):
    """One jet over the points at time t, leaving out those where the
    field is singular: returns (jet or None, mask of the kept points)."""
    try:
        return jets.jet(t, x, y), np.ones(x.shape, dtype=bool)
    except SingularityError as e:
        if e.mask is None:
            raise
        keep = ~e.mask
    if not keep.any():
        return None, keep
    return jets.jet(t, x[keep], y[keep]), keep


def governing_residual(jets: JetProvider, triplet: ConstitutiveTriplet,
                       phys: PhysConstants, samples: SampleSet,
                       boundary: BoundaryCircle) -> ResidualReport:
    rows, locations, rejected = [], [], []
    start = 0
    for t, pts, x, y in _time_slices(samples.points(boundary)):
        jet, keep = _jet_slice(jets, t, x, y)
        rejected += (start + np.flatnonzero(~keep)).tolist()
        start += len(pts)
        if jet is None:
            continue
        rows += zip(*governing_residual_at(jet, triplet, phys))
        locations += itertools.compress(pts, keep.tolist())
    return _collect(GOVERNING_NAMES, rows, locations, jets.descriptor,
                    rejected)


def boundary_residual_at(jet: FieldJet, boundary: BoundaryCircle,
                         phys: PhysConstants):
    """The four moving-boundary condition residuals at front point(s)."""
    lam = phys.lam
    gx, gy = 2.0 * jet.x, 2.0 * jet.y
    b_kin = jet.u1 * gx + jet.u2 * gy + boundary.level_t(jet.t)
    b_p = jet.p
    b_t1 = ((2.0 + lam) * jet.u1_x + lam * jet.u2_y) * gx \
        + (jet.u1_y + jet.u2_x) * gy
    b_t2 = (jet.u1_y + jet.u2_x) * gx \
        + (lam * jet.u1_x + (2.0 + lam) * jet.u2_y) * gy
    return b_kin, b_p, b_t1, b_t2


def boundary_residual(jets: JetProvider, boundary: BoundaryCircle,
                      phys: PhysConstants, t: float,
                      n_theta: int = 64) -> ResidualReport:
    if t <= 0:
        raise ValueError("t must be positive")
    rad = boundary.radius(t)
    locations = []
    for j in range(n_theta):
        theta = 2.0 * math.pi * j / n_theta
        locations.append((t, rad * math.cos(theta), rad * math.sin(theta)))
    jet = jets.jet(t, np.array([p[1] for p in locations]),
                   np.array([p[2] for p in locations]))
    rows = np.stack(np.broadcast_arrays(
        *boundary_residual_at(jet, boundary, phys)), axis=-1).tolist()
    return _collect(BOUNDARY_NAMES, rows, locations, jets.descriptor, [])


def cross_engine_check(analytic: JetProvider, fd: JetProvider,
                       samples: SampleSet,
                       boundary: BoundaryCircle) -> float:
    """Worst relative disagreement between the two jet engines; NaN when
    any entry disagrees by NaN."""
    worst = [0.0]
    for t, _, x, y in _time_slices(samples.points(boundary)):
        ja = analytic.jet(t, x, y)
        jf = fd.jet(t, x, y)
        for name in JET_ENTRIES:
            a, f = getattr(ja, name), getattr(jf, name)
            rel = np.abs(a - f) / np.maximum(
                np.maximum(np.abs(a), np.abs(f)), 1.0)
            worst.append(float(np.max(rel, initial=0.0)))
    return nan_max(worst)
