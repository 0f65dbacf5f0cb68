"""Every analytic jet entry of the five families, and of every group
element's pull of them, against an mpmath oracle.

The oracle evaluates each family's own closed form on mpf at 40 digits
(``support.jet_oracle``), so it sees the same double constants as the
double-double pass but none of its rounding and none of its elementary
function errors.  The error of a derivative order at a point is measured
against the largest |oracle entry| of that order there.  The bounds were
measured on the nested second-order duals that the Taylor pass replaced,
and rounded up at the second digit: they pin where each family's floor
comes from.  Near the inner rim full413's second-order entries are off
by up to 1.6e-12, because the double-double exp and expm1 are accurate
to a double only and the bracket of eq. 4.13 cancels after them.
"""

import mpmath as mp
import pytest

from tumorsym.jets import analytic_jet
from tumorsym.residuals import SampleSet
from tumorsym.solutions import FAMILY_IDS
from tumorsym.symmetry import TransformedField

from support import (PARAMS, annulus_and_ring, jet_oracle, oracle_errors,
                     transformed_oracle)
from test_batched_jets import _ELEMENTS

# the worst error per derivative order (0, 1, 2) over t = 0.5, 1, 2 on the
# default annulus and the 64-point front ring
BOUNDS = {
    "full413": (2.5e-16, 8.3e-15, 1.7e-12),
    "moving442": (5.2e-16, 4.5e-16, 5.7e-16),
    "moving444": (4.5e-16, 4.8e-16, 6.4e-16),
    "stationary413s": (4.6e-15, 3.1e-15, 2.3e-14),
    "steady432": (1.0e-15, 9.2e-16, 6.7e-16),
}


@pytest.mark.parametrize("fid", sorted(BOUNDS))
def test_jet_entries_match_the_mpmath_oracle(fid):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    for t in (0.5, 1.0, 2.0):
        for x, y in annulus_and_ring(sol, t):
            worst = oracle_errors(analytic_jet(sol, t, x, y),
                                  jet_oracle(sol, t, x, y))
            for order, bound in enumerate(BOUNDS[fid]):
                assert worst[order] <= bound, (t, order, worst[order])


# the worst error per derivative order of a pull's jet, over the families
# where the element applies and t = 0.5, 2 on a 12-point annulus and a
# 6-point front ring, as the stacked Cartesian pass gave it (rounded up at
# the second digit); the pushed jets must meet them.  full413's inner rim
# sets every second-order bound but the boosts', whose pulled samples
# stay clear of it
TRANSFORMED_BOUNDS = {
    "rotation-const": (4.5e-15, 1.2e-15, 3.6e-13),
    "rotation-sin": (4.7e-15, 1.2e-15, 3.6e-13),
    "galilei-x": (1.3e-15, 1.5e-15, 4.0e-14),
    "galilei-y": (2.3e-15, 1.2e-15, 3.5e-14),
    "pressure-shift": (4.6e-15, 1.2e-15, 3.6e-13),
    "time-translation": (9.1e-15, 1.2e-15, 3.6e-13),
    "scale": (4.6e-15, 1.2e-15, 3.6e-13),
}


@pytest.mark.parametrize("fid, element", [
    (fid, element) for element in TRANSFORMED_BOUNDS
    for fid in sorted(PARAMS)
    if element != "scale" or fid != "steady432"])  # scale needs a power law
def test_transformed_jet_entries_match_the_mpmath_oracle(fid, element):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    field = TransformedField(_ELEMENTS[element](sol), sol)
    for t in (0.5, 2.0):
        for x, y in annulus_and_ring(sol, t, SampleSet(n_r=4, n_theta=3),
                                     6):
            worst = oracle_errors(analytic_jet(field, t, x, y),
                                  transformed_oracle(field, t, x, y))
            for order, bound in enumerate(TRANSFORMED_BOUNDS[element]):
                assert worst[order] <= bound, (t, order, worst[order])


def test_the_oracle_agrees_with_the_series_of_full413():
    """At the inner rim w = x^2 = 1e-4 (x = 0.01, y = 0, t = 1) the
    oracle's V'' = (u1_xx - 6x V') / (4x^3), with V' = (u1_x - V) /
    (2x^2) and V = u1 / x, matches the power series of eq. 4.13 to 20
    digits: with B = 0 (c3 regular), V = v0 sum_k (a q^k - K ((1-n)
    q)^k) w^(k-1) / k!, in the double constants the family holds."""
    sol = FAMILY_IDS["full413"](**PARAMS["full413"])
    assert sol._B == 0.0
    x = mp.mpf(0.01)
    o = jet_oracle(sol, 1.0, [0.01], [0.0])
    with mp.workdps(40):
        V = o["u1"][0] / x
        V1 = (o["u1_x"][0] - V) / (2 * x * x)
        V2 = (o["u1_xx"][0] - 6 * x * V1) / (4 * x ** 3)
        w, q = x * x, mp.mpf(1.0 / (4.0 * sol.d0))
        series = sol._v0 * mp.nsum(
            lambda k: (sol._a * q ** k - sol._K * ((1 - sol.n) * q) ** k)
            * (k - 1) * (k - 2) * w ** (k - 3) / mp.factorial(k),
            [3, mp.inf])
        assert abs(V2 - series) <= mp.mpf("1e-20") * abs(series)
        assert mp.nstr(V2, 19) == "-0.03240543986265338682"
