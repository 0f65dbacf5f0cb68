"""Residual operators: exact zero on the constant state, tight gates on the
closed-form families, sensitivity to deliberate corruption, and the
two-engine cross-check."""

import dataclasses
import math

import numpy as np
import pytest

from tumorsym.core_model import (GeneralTriplet, PhysConstants,
                                 PowerLawParams, PowerLawTriplet)
from tumorsym.jets import (AnalyticEngine, FdEngine, Field, JetProvider,
                          radial_argument)
from tumorsym import residuals
from tumorsym.jets import analytic_jet
from tumorsym.numerics.dd import two_prod
from tumorsym.residuals import (SampleSet, _acc, _fsum, collect_report,
                                cross_engine_check, governing_residual,
                                governing_residual_at)
from tumorsym.solutions import FAMILY_IDS
from tumorsym.solutions import (BoundaryCircle, Full413, Stationary413s,
                                Steady432)

from support import (FIG34, NON_UNIT_PARAMS, PARAMS, ConstantState,
                     front_reports)


def _provider(sol):
    return JetProvider(sol, AnalyticEngine())


def _power_triplet(d0, s0, sigma0, m, n):
    return PowerLawTriplet(PowerLawParams(d0=d0, s0=s0, sigma0=sigma0,
                                          m=m, n=n))


# -- sample set -------------------------------------------------------------

def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(times=(0.0,))
    with pytest.raises(ValueError):
        SampleSet(r_min_fraction=1.5)
    with pytest.raises(ValueError):
        SampleSet(n_r=0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_sample_set_deterministic_and_sized():
    ss = SampleSet(times=(1.0, 2.0), n_r=5, n_theta=4)
    b = BoundaryCircle(delta=0.7)
    slices = list(ss.slices(b))
    assert [t for t, _, _ in slices] == [1.0, 2.0]
    for (_, x, y), (_, x2, y2) in zip(slices, ss.slices(b)):
        assert x.dtype == y.dtype == float and x.shape == y.shape == (20,)
        assert _bits(x) == _bits(x2) and _bits(y) == _bits(y2)
        # outermost ring sits exactly on the front
        assert np.hypot(x, y).max() == pytest.approx(0.7)


def test_sample_points_keep_their_python_float_bits():
    """Each coordinate is r cos(theta), r sin(theta) in Python floats, with
    r log-spaced from r_min_fraction * radius to the radius."""
    ss = SampleSet(times=(0.5, 2.0), r_min_fraction=0.03, n_r=4, n_theta=6)
    b = BoundaryCircle(delta=1.3, kappa=0.7)
    for t, x, y in ss.slices(b):
        rad = b.radius(t)
        r_lo = 0.03 * rad
        want = [(r * math.cos(a), r * math.sin(a))
                for r in (r_lo * (rad / r_lo) ** (i / 3) for i in range(4))
                for a in (2.0 * math.pi * j / 6 for j in range(6))]
        assert _bits(list(zip(x.tolist(), y.tolist()))) == _bits(want)


# -- exact zero on the rest state -------------------------------------------

def test_constant_state_residual_is_exactly_zero():
    cs = ConstantState(alpha0=2.0, p0=0.0)
    trip = GeneralTriplet(
        S=lambda a: a - 2.0,
        D=lambda a: 1.0 + a, dD=lambda a: 1.0,
        Sigma=lambda a: a * a, dSigma=lambda a: 2.0 * a,
        needs_positive_alpha=False)
    rep = governing_residual(_provider(cs), trip, PhysConstants(lam=1.0),
                             SampleSet(), BoundaryCircle(delta=1.0))
    assert rep.linf == 0.0
    assert rep.sample_count == 12 * 8


# -- gates on the closed forms ----------------------------------------------

def test_stationary_governing_gate():
    sol = Stationary413s(**FIG34)
    rep = governing_residual(_provider(sol), sol.triplet(), sol.phys(),
                             SampleSet(times=(0.5, 1.0, 2.0)), sol.boundary())
    assert rep.linf <= 1e-9
    # L2 over N samples can never exceed sqrt(N) Linf
    for eq in rep.equations:
        assert eq.l2 <= math.sqrt(rep.sample_count) * eq.linf * (1 + 1e-12)


def test_stationary_boundary_gate():
    sol = Stationary413s(**FIG34)
    for rep in front_reports(_provider(sol), sol, sol.boundary(),
                             (0.5, 1.0, 2.0)):
        assert rep.linf <= 1e-10


def test_full413_governing_gate():
    sol = Full413(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                  sigma0=-3.0, delta=1.0)
    rep = governing_residual(_provider(sol), sol.triplet(), sol.phys(),
                             SampleSet(times=(0.5, 1.0, 2.0)), sol.boundary())
    assert rep.linf <= 1e-8


def test_steady_gates():
    sol = Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                    lam=4.0, d0=2.0)
    rep = governing_residual(_provider(sol), sol.triplet(), sol.phys(),
                             SampleSet(), sol.boundary())
    assert rep.linf <= 1e-9
    bc, = front_reports(_provider(sol), sol, sol.boundary(), (1.0,))
    assert bc.linf <= 1e-10


def test_report_is_deterministic():
    sol = Stationary413s(**FIG34)
    args = (_provider(sol), sol.triplet(), sol.phys(), SampleSet(),
            sol.boundary())
    assert governing_residual(*args) == governing_residual(*args)


def test_grid_refinement_is_stable():
    sol = Stationary413s(**FIG34)
    coarse = governing_residual(_provider(sol), sol.triplet(), sol.phys(),
                                SampleSet(), sol.boundary())
    fine = governing_residual(_provider(sol), sol.triplet(), sol.phys(),
                              SampleSet(n_r=24, n_theta=16), sol.boundary())
    assert fine.linf <= 2.0 * coarse.linf


# -- corruption sensitivity -------------------------------------------------

def test_broken_proliferation_link_is_detected():
    sol = Stationary413s(**FIG34)
    bad = _power_triplet(sol.d0, sol.s0 + 1e-3, sol.sigma0, sol.m, sol.n)
    rep = governing_residual(_provider(sol), bad, sol.phys(),
                             SampleSet(), sol.boundary())
    assert rep.norm("mass").linf >= 1e-4
    # only the mass balance involves S
    assert rep.norm("divergence").linf <= 1e-9


def test_a_scaled_stationary_c1_is_detected():
    # radial reads the derived c1, so a wrong c1 cannot hide from verify
    sol = Stationary413s(**FIG34)
    sol.c1 *= 1.0 + 1e-6
    rep = governing_residual(_provider(sol), sol.triplet(), sol.phys(),
                             SampleSet(), sol.boundary())
    assert rep.linf > 1e-8  # the default governing gate


def test_shifted_front_is_detected():
    sol = Stationary413s(**FIG34)
    off = BoundaryCircle(delta=1.1 * sol.delta)
    rep, = front_reports(_provider(sol), sol, off, (1.0,))
    assert rep.norm("pressure").linf >= 1e-5
    assert rep.linf >= 1e-2


def test_front_report_samples_the_one_ring_slice():
    """The front ring is the n_r = 1 slice of the sample set, taken in
    the jet of its time after the annulus: the same r = radius(t) and
    angles, and each worst point is one of its points."""
    sol = Stationary413s(**FIG34)
    seen = []

    class Recording(AnalyticEngine):
        def jet(self, field, t, x, y):
            seen.append((t, x, y))
            return super().jet(field, t, x, y)

    b = BoundaryCircle(delta=1.1 * sol.delta)
    rep, = front_reports(JetProvider(sol, Recording()), sol, b, (2.0,), 24)
    (t, x, y), = seen
    assert x.size == y.size == 96 + 24
    x, y = x[-24:], y[-24:]
    (t1, x1, y1), = SampleSet((2.0,), n_r=1, n_theta=24).slices(b)
    assert t == t1 == 2.0
    assert _bits(x) == _bits(x1) and _bits(y) == _bits(y1)
    ring = list(zip([2.0] * 24, x1.tolist(), y1.tolist()))
    assert all(eq.linf_location in ring for eq in rep.equations)
    assert rep.sample_count == 24


def test_front_ring_rejects_bad_time():
    sol = Stationary413s(**FIG34)
    with pytest.raises(ValueError):
        front_reports(_provider(sol), sol, sol.boundary(), (0.0,))


class _OriginEverywhere(Field):
    """A field that reads every point as the origin, so it is singular at
    each sample."""

    def values(self, t, x, y):
        radial_argument(t, 0.0 * x, 0.0 * y)


def test_a_slice_with_every_point_rejected_has_no_valid_samples():
    sol = Stationary413s(**FIG34)
    with pytest.raises(ValueError, match="^no valid samples$"):
        governing_residual(_provider(_OriginEverywhere()), sol.triplet(),
                           sol.phys(), SampleSet(n_r=2, n_theta=2),
                           sol.boundary())


# -- engine cross-check -----------------------------------------------------

class _Poly(Field):
    def values(self, t, x, y):
        alpha = 2.0 + 0.2 * x - 0.1 * y + 0.05 * x * y
        u1 = 0.3 * x * x + 0.1 * t
        u2 = -0.2 * y * y + 0.4 * x
        p = 1.0 + x * y + 0.5 * t * t
        return alpha, u1, u2, p


class _ScaledGradEngine:
    """Analytic engine with the pressure gradient deliberately off by 1%."""

    descriptor = "corrupted"

    def jet(self, field, t, x, y):
        jet = AnalyticEngine().jet(field, t, x, y)
        return dataclasses.replace(jet, p_x=1.01 * jet.p_x,
                                   p_y=1.01 * jet.p_y)


def test_cross_engine_polynomial():
    a = JetProvider(_Poly(), AnalyticEngine())
    # a generous step: the scheme is exact on these polynomials, so only
    # rounding is left and a larger h suppresses it
    f = JetProvider(_Poly(), FdEngine(h=0.1))
    assert cross_engine_check(a, f, SampleSet(),
                              BoundaryCircle(delta=1.0)) <= 1e-12


def test_cross_engine_closed_form():
    sol = Stationary413s(**FIG34)
    a = JetProvider(sol, AnalyticEngine())
    f = JetProvider(sol, FdEngine(h=2e-4))
    # keep samples >= 10 h away from the origin singularity
    ss = SampleSet(r_min_fraction=0.1)
    assert cross_engine_check(a, f, ss, sol.boundary()) <= 1e-6


def test_cross_engine_flags_corrupted_gradient():
    sol = Stationary413s(**FIG34)
    good = JetProvider(sol, AnalyticEngine())
    bad = JetProvider(sol, _ScaledGradEngine())
    assert cross_engine_check(good, bad, SampleSet(), sol.boundary()) >= 5e-3


def test_cross_engine_counts_a_nan_disagreement():
    """An FD reference whose spatial entries are all NaN agrees with
    nothing, even though its values and time derivatives match."""
    sol = Stationary413s(**FIG34)
    a = JetProvider(sol, AnalyticEngine())
    f = JetProvider(sol, FdEngine(h=math.nan))
    ss = SampleSet(r_min_fraction=0.1)
    assert math.isnan(cross_engine_check(a, f, ss, sol.boundary()))


# -- NaN residuals -----------------------------------------------------------

def test_collect_reports_a_nan_anywhere_in_the_column():
    rows = [(1e-12,), (math.nan,), (1e-12,)]
    locations = [(1.0, 0.1, 0.0), (1.0, 0.2, 0.0), (1.0, 0.3, 0.0)]
    rep = collect_report(("mass",), rows, locations, "analytic", [])
    eq = rep.norm("mass")
    assert math.isnan(eq.linf) and math.isnan(rep.linf)
    assert eq.linf_location == (1.0, 0.2, 0.0)
    assert math.isnan(eq.l2)


def test_collect_l2_of_an_infinite_residual_is_inf():
    """The squares are summed exactly rounded (math.fsum): an infinite
    residual makes the L2 norm infinite, not NaN."""
    rows = [(1e-12,), (math.inf,), (1e-12,)]
    locations = [(1.0, 0.1, 0.0), (1.0, 0.2, 0.0), (1.0, 0.3, 0.0)]
    eq = collect_report(("mass",), rows, locations, "analytic",
                        []).norm("mass")
    assert eq.linf == math.inf and eq.l2 == math.inf
    assert eq.linf_location == (1.0, 0.2, 0.0)


@pytest.mark.parametrize("column, want", [
    ((1e154, 1e154), math.sqrt(2.0) * 1e154),
    ((1e200, 1e-3), 1e200),
], ids=["sum-of-squares-overflows", "a-square-overflows"])
def test_collect_l2_of_finite_residuals_is_finite(column, want):
    """Finite residuals whose squares overflow still have a finite L2
    norm: it is computed from the squares scaled by the Linf norm."""
    rows = [(v,) for v in column]
    locations = [(1.0, 0.1, 0.0), (1.0, 0.2, 0.0)]
    eq = collect_report(("mass",), rows, locations, "analytic",
                        []).norm("mass")
    assert eq.l2 == pytest.approx(want, rel=1e-15)
    assert eq.linf == column[0]


def test_collect_l2_keeps_the_plain_sum_when_it_is_finite():
    col = [3e-9, 4e-9, 1.2e-10]
    rows = [(v,) for v in col]
    eq = collect_report(("mass",), rows, [(1.0, 0.0, 0.0)] * 3, "analytic",
                  []).norm("mass")
    assert eq.l2 == math.sqrt(math.fsum(v * v for v in col))


def test_acc_sums_opposite_infinities_to_nan():
    """inf - inf has no sum: the point's residual is NaN, and the other
    points keep their exact sums."""
    got, = _acc([[(1.0, np.array([math.inf, 1.0]), 1.0),
                  (-1.0, np.array([math.inf, 2.0]), 1.0)]], 2)
    assert math.isnan(got[0]) and got[1] == -1.0


@np.errstate(all="ignore")
def _term_by_term(terms):
    """The reference of one equation's sums: two_prod per term, then one
    fsum of (p*c, its error, e*c) term after term at each point."""
    parts = []
    for c, a, b in terms:
        p, e = two_prod(a, b)
        q, f = two_prod(p, c)
        parts += (q, f, e * c)
    return [_fsum(row) for row in np.stack(parts, axis=-1).tolist()]


def _assembly_cases():
    """(id, family, parameters, samples, whether a residual is NaN)."""
    for label, params in (("acceptance", PARAMS),
                          ("non-unit", NON_UNIT_PARAMS)):
        for fid in sorted(params):
            yield (f"{fid}-{label}", fid, params[fid],
                   SampleSet(times=(0.5, 1.0, 2.0)), False)
    # the fields of the CLI's extreme-value test: NaN and overflow
    small = SampleSet(times=(1.0,), n_r=2, n_theta=2)
    yield ("power-overflows", "full413",
           dict(PARAMS["full413"], n=-3.0, d0=7.5e-4), small, True)
    yield ("expm1-below-minus-37", "steady432",
           dict(PARAMS["steady432"], d0=0.002), small, False)


@pytest.mark.parametrize("fid, params, samples, nan",
                         [c[1:] for c in _assembly_cases()],
                         ids=[c[0] for c in _assembly_cases()])
def test_one_pass_assembly_equals_the_term_by_term_split(
        monkeypatch, fid, params, samples, nan):
    """The gathered error-free products give, bit for bit, the sums of a
    split made term by term, NaN included."""
    sol = FAMILY_IDS[fid](**params)
    seen = []
    real = residuals._acc
    monkeypatch.setattr(residuals, "_acc", lambda equations, n: seen.append(
        equations) or real(equations, n))
    for t, x, y in samples.slices(sol.boundary()):
        got = governing_residual_at(analytic_jet(sol, t, x, y),
                                    sol.triplet(), sol.phys())
        equations = seen.pop()
        assert [len(terms) for terms in equations] == [6, 6, 10, 10]
        want = [_term_by_term(terms) for terms in equations]
        assert np.array(got).view(np.int64).tolist() \
            == np.array(want).view(np.int64).tolist()
        assert np.isnan(got).any() == nan
