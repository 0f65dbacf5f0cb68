"""Governing-equation and boundary-condition residuals in Cartesian form.

The four governing residuals are assembled term by term exactly as the
model system is written, from jet entries only.  This module is coded
independently of the polar reduced system so that the two formulations
cross-check each other.  Jets are requested once per sample time, for all
points at that time together: ``governing_and_front_residuals`` takes one
jet on the annulus points of a time followed by its front ring and cuts
it in two, one part for the governing residuals and one for the front
conditions.  Each check is a plan (:class:`Check`) that yields the slices
it needs, so :func:`run_plans` can gather the slices of several checks
(the orbit and reduced checks too) into one round of jets.  The assembly
gathers the 32 terms of the four equations into arrays and splits all
their products in one error-free pass.  Every step
of a jet and of the assembly is elementwise and each point's sum is still
one exactly rounded fsum, so every residual has the bits of a
point-by-point evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_model import ConstitutiveTriplet, PhysConstants
from .jets import (JET_ENTRIES, FieldJet, JetProvider, SingularityError,
                   provider_jets)
from .numerics.dd import two_prod
from .solutions import BoundaryCircle

__all__ = ["SampleSet", "EquationNorms", "ResidualReport",
           "governing_residual", "governing_and_front_residuals",
           "cross_engine_check", "governing_residual_at",
           "boundary_residual_at", "Check", "run_plans", "settled"]

GOVERNING_NAMES = ("mass", "divergence", "momentum_x", "momentum_y")
BOUNDARY_NAMES = ("kinematic", "pressure", "traction_1", "traction_2")


@dataclass(frozen=True)
class SampleSet:
    """Deterministic annulus sampling: concentric rings inside the front,
    taken one time slice at a time.

    Radii are log-spaced on [r_min_fraction * radius(t), radius(t)] so the
    near-origin region and the boundary layer are both resolved; with
    ``n_r = 1`` the one ring is the front itself.
    """

    times: tuple = (1.0,)
    r_min_fraction: float = 1e-2
    n_r: int = 12
    n_theta: int = 8

    def __post_init__(self):
        if not all(0.0 < t < math.inf for t in self.times):
            raise ValueError("all sample times must be positive and finite")
        if len(set(self.times)) < len(self.times):
            raise ValueError("sample times must be distinct, got "
                             + ", ".join(map(repr, self.times)))
        if not 0.0 < self.r_min_fraction < 1.0:
            raise ValueError("r_min_fraction must lie in (0, 1)")
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError("grid counts must be positive")

    def slices(self, boundary: BoundaryCircle):
        """Yield one (t, x, y) per sample time, in the order of ``times``:
        x and y are float arrays of the points at t in r, theta order."""
        angles = [2.0 * math.pi * j / self.n_theta
                  for j in range(self.n_theta)]
        for t in self.times:
            rad = boundary.radius(t)
            r_lo = self.r_min_fraction * rad
            radii = [rad] if self.n_r == 1 else [
                r_lo * (rad / r_lo) ** (i / (self.n_r - 1))
                for i in range(self.n_r)]
            yield (t, np.array([r * math.cos(a) for r in radii
                                for a in angles]),
                   np.array([r * math.sin(a) for r in radii
                             for a in angles]))


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
def _acc(equations, n):
    """Exactly accumulated sums of c*a*b terms at ``n`` points: one list
    per equation, each a list of (c, a, b) terms, and one sum per point.

    Individual momentum terms grow like r^-3 near the inner sampling rim
    while the residual stays near zero, so every product is split into its
    error-free parts before the single fsum of each point.  The c, a and b
    of all terms of all equations are gathered into (terms, n) arrays, so
    one two_prod pass splits every a*b and one every (a*b)*c; each point's
    fsum reads (p*c, its error, e*c) term after term, as a term-by-term
    split would give them.  Overflow makes a NaN or inf point that fails
    its gate, without a warning.
    """
    c, a, b = (np.empty((sum(map(len, equations)), n)) for _ in range(3))
    for i, term in enumerate(itertools.chain(*equations)):
        c[i], a[i], b[i] = term
    p, e = two_prod(a, b)
    q, f = two_prod(p, c)
    parts = np.stack((q, f, e * c), axis=1)  # (terms, 3, n)
    sums, start = [], 0
    for terms in equations:
        rows = parts[start:start + len(terms)].reshape(
            3 * len(terms), n).T.tolist()
        sums.append([_fsum(row) for row in rows])
        start += len(terms)
    return sums


def _fsum(terms):
    """``math.fsum``, or NaN when the terms cannot be summed (inf - inf, or
    an intermediate overflow), so the point fails its gate instead of
    ending the run."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def constitutive_terms(triplet, alpha):
    """(S, D, dD, d_alpha_sigma) as arrays at an array alpha, evaluated
    point by point so the powers come from libm."""
    cs = [triplet.eval(a) for a in alpha.tolist()]
    return tuple(np.array([getattr(c, k) for c in cs], dtype=float)
                 for k in ("S", "D", "dD", "d_alpha_sigma"))


def governing_residual_at(jet: FieldJet, triplet: ConstitutiveTriplet,
                          phys: PhysConstants):
    """The four governing residuals at the points of a jet, one list
    each."""
    lam = phys.lam
    S, D, dD, d_alpha_sigma = constitutive_terms(triplet, jet.alpha)
    return _acc([[
        (1.0, jet.alpha_t, 1.0),
        (1.0, jet.alpha_x, jet.u1), (1.0, jet.alpha, jet.u1_x),
        (1.0, jet.alpha_y, jet.u2), (1.0, jet.alpha, jet.u2_y),
        (-1.0, S, 1.0)], [
        (1.0, jet.u1_x, 1.0), (1.0, jet.u2_y, 1.0),
        (-dD, jet.alpha_x, jet.p_x), (-dD, jet.alpha_y, jet.p_y),
        (-D, jet.p_xx, 1.0), (-D, jet.p_yy, 1.0)], [
        (2.0 + lam, jet.alpha_x, jet.u1_x),
        (2.0 + lam, jet.alpha, jet.u1_xx),
        (lam, jet.alpha_x, jet.u2_y), (lam, jet.alpha, jet.u2_xy),
        (1.0, jet.alpha_y, jet.u1_y), (1.0, jet.alpha_y, jet.u2_x),
        (1.0, jet.alpha, jet.u1_yy), (1.0, jet.alpha, jet.u2_xy),
        (-1.0, jet.p_x, 1.0),
        (-d_alpha_sigma, jet.alpha_x, 1.0)], [
        (1.0, jet.alpha_x, jet.u1_y), (1.0, jet.alpha_x, jet.u2_x),
        (1.0, jet.alpha, jet.u1_xy), (1.0, jet.alpha, jet.u2_xx),
        (2.0 + lam, jet.alpha_y, jet.u2_y),
        (2.0 + lam, jet.alpha, jet.u2_yy),
        (lam, jet.alpha_y, jet.u1_x), (lam, jet.alpha, jet.u1_xy),
        (-1.0, jet.p_y, 1.0),
        (-d_alpha_sigma, jet.alpha_y, 1.0)]], jet.x.size)


def collect_report(names, rows, locations, engine, rejected):
    equations = []
    for k, name in enumerate(names):
        col = [abs(row[k]) for row in rows]
        if not col:
            raise ValueError("no valid samples")
        nans = [i for i, v in enumerate(col) if math.isnan(v)]
        at = nans[0] if nans else col.index(max(col))
        linf, where = col[at], locations[at]
        l2 = math.sqrt(_fsum([v * v for v in col]))
        if not math.isfinite(l2) and all(map(math.isfinite, col)):
            # the squares overflow although the norm does not: scale them
            l2 = linf * math.sqrt(math.fsum([(v / linf) ** 2 for v in col]))
        equations.append(EquationNorms(name, linf, where, l2))
    return ResidualReport(tuple(equations), len(rows), engine,
                          tuple(rejected))


def run_plans(*plans):
    """Run checks together: for each plan, its result, or the ValueError
    or ArithmeticError that ended it, which does not stop the others.

    A plan is a generator.  It yields a list of jet requests, each a
    JetProvider and a slice (t, x, y), takes back their outcomes (a
    FieldJet, or the error that slice raised), and returns its result.
    Each round hands the requests of every plan to ``jets.provider_jets``
    together, so the analytic engine makes one pass per source time for
    all of them.
    """
    outcomes, asked = [None] * len(plans), {}

    def step(i, sent):
        try:
            asked[i] = plans[i].send(sent)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except (ValueError, ArithmeticError) as e:
            outcomes[i] = e

    for i in range(len(plans)):
        step(i, None)
    while asked:
        rounds = list(asked.items())
        asked.clear()
        got = iter(provider_jets([r for _, reqs in rounds for r in reqs]))
        for i, reqs in rounds:
            step(i, [next(got) for _ in reqs])
    return outcomes


def settled(outcome):
    """The result of a plan from its outcome; the error that ended it is
    raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class Check:
    """A check stated once, as its plan (a generator function, see
    :func:`run_plans`): calling the check runs the plan alone and returns
    its result, and ``plan`` makes the plan, to run with other checks."""

    def __init__(self, plan):
        functools.update_wrapper(self, plan)
        self.plan = plan

    def __call__(self, *args, **kwargs):
        return settled(*run_plans(self.plan(*args, **kwargs)))


def _front_ring(boundary: BoundaryCircle, t, n_front):
    """The ``n_front`` points of the front at time t, the n_r = 1 slice of
    the sample set (none for ``n_front = 0``)."""
    if not n_front:
        return np.empty(0), np.empty(0)
    (_, x, y), = SampleSet((t,), n_r=1, n_theta=n_front).slices(boundary)
    return x, y


@Check
def governing_and_front_residuals(
        jets: JetProvider, triplet: ConstitutiveTriplet, phys: PhysConstants,
        samples: SampleSet, boundary: BoundaryCircle, n_front: int):
    """The governing report on ``samples`` and, for each sample time in
    the order of ``times``, the report of the front conditions on
    ``n_front`` points of the front ring (no front reports for
    ``n_front = 0``).

    Each time takes one jet, on its annulus points followed by its ring
    (vector forward mode), cut in two; every time's jet is asked in one
    round.  An engine masks the points singular at the first evaluation
    that fails (one FD stencil offset, say); they are dropped and that
    time's jet is asked again in the next round until it succeeds, so
    every annulus point singular at any of its evaluations is left out,
    and only those.  The ring never takes part in that: a singular ring
    point raises.  Every governing residual is assembled before any front
    residual.
    """
    slices = [(t, x, y, _front_ring(boundary, t, n_front))
              for t, x, y in samples.slices(boundary)]
    keeps = [np.ones(x.shape, dtype=bool) for _, x, _, _ in slices]
    jets_at = [None] * len(slices)
    asked = list(range(len(slices)))
    while asked:
        requests = []
        for k in asked:
            t, x, y, (x_ring, y_ring) = slices[k]
            requests.append((jets, t, np.concatenate((x[keeps[k]], x_ring)),
                             np.concatenate((y[keeps[k]], y_ring))))
        retry = []
        for k, jet in zip(asked, (yield requests)):
            if not isinstance(jet, Exception):
                jets_at[k] = jet
                continue
            keep, ring = keeps[k], slices[k][3][0]
            n = np.count_nonzero(keep)
            if not isinstance(jet, SingularityError) or jet.mask is None \
                    or not jet.mask[:n].any() or jet.mask[n:].any():
                raise jet
            keep[np.flatnonzero(keep)[jet.mask[:n]]] = False
            if keep.any() or ring.size:
                retry.append(k)
        asked = retry

    rows, locations, rejected, fronts = [], [], [], []
    start = 0
    for (t, x, y, ring), keep, jet in zip(slices, keeps, jets_at):
        rejected += (start + np.flatnonzero(~keep)).tolist()
        start += x.size
        if jet is None:
            continue
        annulus, front = jet.cut(np.count_nonzero(keep))
        if keep.any():
            rows += zip(*governing_residual_at(annulus, triplet, phys))
            locations += zip(itertools.repeat(t), x[keep].tolist(),
                             y[keep].tolist())
        if n_front:
            fronts.append((t, *ring, front))
    governing = collect_report(GOVERNING_NAMES, rows, locations,
                               jets.descriptor, rejected)
    return governing, [_front_report(*f, boundary, phys, jets.descriptor)
                       for f in fronts]


@Check
def governing_residual(jets: JetProvider, triplet: ConstitutiveTriplet,
                       phys: PhysConstants, samples: SampleSet,
                       boundary: BoundaryCircle) -> ResidualReport:
    report, _ = yield from governing_and_front_residuals.plan(
        jets, triplet, phys, samples, boundary, 0)
    return report


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


def _front_report(t, x, y, jet: FieldJet, boundary: BoundaryCircle,
                  phys: PhysConstants, engine) -> ResidualReport:
    """The report of the front conditions from the jet of the ring x, y at
    time t."""
    rows = np.stack(boundary_residual_at(jet, boundary, phys),
                    axis=-1).tolist()
    locations = list(zip(itertools.repeat(t), x.tolist(), y.tolist()))
    return collect_report(BOUNDARY_NAMES, rows, locations, engine, [])


def cross_engine_check(analytic: JetProvider, fd: JetProvider,
                       samples: SampleSet,
                       boundary: BoundaryCircle) -> float:
    """Worst relative disagreement between the two jet engines; NaN when
    any entry disagrees by NaN."""
    worst = [0.0]
    for t, x, y in samples.slices(boundary):
        ja = analytic.jet(t, x, y)
        jf = fd.jet(t, x, y)
        for name in JET_ENTRIES:
            a, f = getattr(ja, name), getattr(jf, name)
            rel = np.abs(a - f) / np.maximum(
                np.maximum(np.abs(a), np.abs(f)), 1.0)
            worst.append(float(np.max(rel, initial=0.0)))
    return nan_max(worst)
