"""Group actions: inverse round-trips, solution preservation along orbits,
boundary invariance values and applicability guards."""

import math
from dataclasses import replace

import pytest

from tumorsym.core_model import (GeneralTriplet, PhysConstants,
                                 PowerLawParams, PowerLawTriplet)
from tumorsym.residuals import SampleSet
from tumorsym.solutions import (BoundaryCircle, Moving442, Stationary413s,
                                Steady432)
from tumorsym.symmetry import (Galilei, InapplicableSymmetryError,
                               PressureShift, Rotation, Scale,
                               TimeTranslation, TransformedField,
                               orbit_residual)

from support import FIG34, ConstantState, boundary_invariance


ELEMENTS = [
    Rotation(f=lambda t: 1.0, fdot=lambda t: 0.0, eps=0.7),
    Rotation(f=math.sin, fdot=math.cos, eps=0.7),
    Galilei(g=lambda t: t * t, gdot=lambda t: 2.0 * t, eps=0.3, axis="y"),
    PressureShift(F=math.cos, Fdot=lambda t: -math.sin(t), eps=0.5),
    TimeTranslation(eps=0.25),
    Scale(eps=0.4, m=-1.0, n=2.0),
]


# -- round trips ------------------------------------------------------------

@pytest.mark.parametrize("elem", ELEMENTS, ids=lambda e: type(e).__name__)
def test_inverse_round_trip(elem):
    sol = Stationary413s(**FIG34)
    back = TransformedField(replace(elem, eps=-elem.eps),
                            TransformedField(elem, sol))
    for (t, x, y) in ((1.0, 0.3, 0.1), (2.0, -0.2, 0.4), (0.5, 0.1, -0.5)):
        orig = sol.values(t, x, y)
        got = back.values(t, x, y)
        for a, b in zip(got, orig):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-13)


def test_constant_rotation_fixes_radial_solution():
    sol = Stationary413s(**FIG34)
    rot = TransformedField(
        Rotation(f=lambda t: 1.0, fdot=lambda t: 0.0, eps=1.3), sol)
    a0, u1, u2, p0 = sol.values(1.0, 0.3, -0.2)
    a1, v1, v2, p1 = rot.values(1.0, 0.3, -0.2)
    assert a1 == pytest.approx(a0, rel=1e-14)
    assert p1 == pytest.approx(p0, rel=1e-13)
    assert v1 == pytest.approx(u1, rel=1e-12)
    assert v2 == pytest.approx(u2, rel=1e-12)


# -- orbit preservation -----------------------------------------------------

def _base_linf(sol, samples):
    from tumorsym.jets import AnalyticEngine, JetProvider
    from tumorsym.residuals import governing_residual
    return governing_residual(JetProvider(sol, AnalyticEngine()),
                              sol.triplet(), sol.phys(), samples,
                              sol.boundary()).linf


@pytest.mark.parametrize("mk", [
    lambda e: Rotation(f=lambda t: 1.0, fdot=lambda t: 0.0, eps=e),
    lambda e: Rotation(f=math.sin, fdot=math.cos, eps=e),
    lambda e: PressureShift(F=math.cos, Fdot=lambda t: -math.sin(t), eps=e),
    lambda e: Scale(eps=e, m=-1.0, n=2.0),
], ids=["rot-const", "rot-sin", "pshift", "scale"])
def test_orbit_preserves_stationary_solution(mk):
    sol = Stationary413s(**FIG34)
    samples = SampleSet()
    base = _base_linf(sol, samples)
    for eps in (-1.0, -0.5, 0.5, 1.0):
        rep = orbit_residual(mk(eps), sol, sol.triplet(), sol.phys(),
                             samples)
        assert rep.linf <= 10.0 * base


def test_time_translation_orbit_on_steady():
    sol = Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                    lam=4.0, d0=2.0)
    samples = SampleSet(times=(3.0,))
    base = _base_linf(sol, samples)
    for eps in (-1.0, -0.5, 0.5, 1.0):
        rep = orbit_residual(TimeTranslation(eps), sol, sol.triplet(),
                             sol.phys(), samples)
        assert rep.linf <= 10.0 * base


def test_galilei_orbit_on_constant_state():
    cs = ConstantState(alpha0=2.0)
    trip = GeneralTriplet(
        S=lambda a: a - 2.0,
        D=lambda a: 1.0 + a, dD=lambda a: 1.0,
        Sigma=lambda a: a * a, dSigma=lambda a: 2.0 * a,
        needs_positive_alpha=False)
    phys = PhysConstants(lam=1.0)
    b = BoundaryCircle(delta=1.0)
    from tumorsym.jets import AnalyticEngine, JetProvider
    from tumorsym.residuals import governing_residual
    for eps in (-1.0, -0.5, 0.5, 1.0):
        for axis in ("x", "y"):
            g = Galilei(g=lambda t: t * t, gdot=lambda t: 2.0 * t,
                        eps=eps, axis=axis)
            rep = governing_residual(JetProvider(TransformedField(g, cs),
                                                 AnalyticEngine()),
                                     trip, phys, SampleSet(), b)
            assert rep.linf <= 1e-12


# -- applicability guards ---------------------------------------------------

def test_scale_rejects_general_triplet():
    sol = Steady432(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                    lam=4.0, d0=2.0)
    with pytest.raises(InapplicableSymmetryError):
        orbit_residual(Scale(eps=0.1, m=-1.0, n=2.0), sol, sol.triplet(),
                       sol.phys(), SampleSet())


def test_scale_rejects_mismatched_exponents():
    sol = Stationary413s(**FIG34)
    with pytest.raises(InapplicableSymmetryError):
        orbit_residual(Scale(eps=0.1, m=1.0, n=3.0), sol, sol.triplet(),
                       sol.phys(), SampleSet())


def test_galilei_axis_validation():
    with pytest.raises(ValueError, match="^axis must be 'x' or 'y', got 'z'$"):
        Galilei(g=lambda t: t, gdot=lambda t: 1.0, eps=0.1, axis="z")


# -- boundary invariance ----------------------------------------------------

def test_boundary_invariance_values():
    static = BoundaryCircle(delta=0.67, kappa=0.0)
    moving = BoundaryCircle(delta=1.0, kappa=-1.0)

    rot = Rotation(f=math.sin, fdot=math.cos, eps=1.0)
    assert boundary_invariance(rot, moving, m=1.0, n=3.0) == 0.0
    ps = PressureShift(F=math.cos, Fdot=lambda t: -math.sin(t), eps=1.0)
    assert boundary_invariance(ps, moving, m=1.0, n=3.0) == 0.0

    tt = TimeTranslation(eps=1.0)
    assert boundary_invariance(tt, static, m=-1.0, n=2.0) == 0.0
    assert boundary_invariance(tt, moving, m=1.0, n=3.0) > 0.1

    gal = Galilei(g=lambda t: t, gdot=lambda t: 1.0, eps=1.0)
    assert boundary_invariance(gal, static, m=-1.0, n=2.0) \
        == pytest.approx(2.0 * 0.67, rel=1e-15)
    trivial = Galilei(g=lambda t: 0.0, gdot=lambda t: 0.0, eps=1.0)
    assert boundary_invariance(trivial, static, m=-1.0, n=2.0) == 0.0


def test_boundary_invariance_scale_matched_exponents():
    # moving front from the family whose exponents drive the scale action
    sol = Moving442(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0)
    b = sol.boundary()
    sc = Scale(eps=1.0, m=1.0, n=3.0)
    for t in (0.5, 1.0, 2.0):
        assert abs(boundary_invariance(sc, b, m=1.0, n=3.0, t=t)) < 1e-12
    # static front with m != -1 is not scale invariant
    assert boundary_invariance(Scale(eps=1.0, m=1.0, n=3.0),
                               BoundaryCircle(delta=1.0, kappa=0.0),
                               m=1.0, n=3.0) > 0.1
