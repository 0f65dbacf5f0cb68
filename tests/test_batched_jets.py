"""Batched analytic jets: one evaluation over all points at a time gives,
bit for bit, the jets and residuals of the point-by-point evaluation."""

import math

import numpy as np
import pytest

from tumorsym.jets import (JET_ENTRIES, AnalyticEngine, FieldJet,
                           JetProvider, SingularityError, analytic_jet)
from tumorsym.residuals import (SampleSet, boundary_residual,
                                governing_residual, governing_residual_at)
from tumorsym.solutions import FAMILY_IDS
from tumorsym.symmetry import Galilei, Rotation, transform_field

PARAMS = {
    "full413": dict(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                    sigma0=-3.0, delta=1.0),
    "stationary413s": dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0),
    "moving442": dict(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0),
    "moving444": dict(c1=0.1, delta=1.0, n=-2.0, lam=1.0),
    "steady432": dict(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                      lam=4.0, d0=2.0),
}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _fields():
    for fid, params in PARAMS.items():
        sol = FAMILY_IDS[fid](**params)
        yield fid, sol, sol
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    rot = Rotation(f=math.sin, fdot=math.cos, eps=1.0)
    yield "rotation", transform_field(rot, sol), sol


class _PointwiseEngine:
    """The analytic engine run one point at a time, jets stacked."""

    descriptor = "analytic"

    def jet(self, field, t, x, y):
        jets, mask = [], np.zeros(len(x), dtype=bool)
        for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
            try:
                jets.append(analytic_jet(field, t, xi, yi))
            except SingularityError:
                mask[i] = True
        if mask.any():
            raise SingularityError("singular", mask)
        return FieldJet(t=t, x=x, y=y, **{
            name: np.array([getattr(j, name) for j in jets])
            for name in JET_ENTRIES})


@pytest.mark.parametrize("name, field, sol", list(_fields()),
                         ids=[f[0] for f in _fields()])
def test_batched_jet_equals_pointwise_bit_for_bit(name, field, sol):
    pts = list(SampleSet().points(sol.boundary()))
    t = pts[0][0]
    x = np.array([p[1] for p in pts])
    y = np.array([p[2] for p in pts])
    batch = analytic_jet(field, t, x, y)
    assert len(JET_ENTRIES) == 24
    single = [analytic_jet(field, t, xi, yi) for _, xi, yi in pts]
    assert batch.t == t
    for entry in ("x", "y") + JET_ENTRIES:
        got = getattr(batch, entry)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert _bits(got) == _bits([getattr(j, entry) for j in single]), \
            entry
    # the residual assembly is elementwise too
    rows = list(zip(*governing_residual_at(batch, sol.triplet(),
                                           sol.phys())))
    for row, jet in zip(rows, single):
        assert _bits(row) == _bits(
            governing_residual_at(jet, sol.triplet(), sol.phys()))


@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_residual_reports_equal_pointwise_engine(fid):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    batched = JetProvider(sol, AnalyticEngine())
    pointwise = JetProvider(sol, _PointwiseEngine())
    samples = SampleSet(times=(0.5, 2.0), n_r=5, n_theta=6)
    args = (sol.triplet(), sol.phys(), samples, sol.boundary())
    assert governing_residual(batched, *args) \
        == governing_residual(pointwise, *args)
    for t in samples.times:
        assert boundary_residual(batched, sol.boundary(), sol.phys(), t) \
            == boundary_residual(pointwise, sol.boundary(), sol.phys(), t)


def test_origin_points_are_masked_like_pointwise():
    sol = FAMILY_IDS["full413"](**PARAMS["full413"])
    x = np.array([0.3, 0.0, -0.2, 0.0, 0.5])
    y = np.array([0.1, 0.0, 0.4, 0.0, -0.5])
    singular = []
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        try:
            analytic_jet(sol, 1.0, xi, yi)
        except SingularityError as e:
            assert e.mask is None
            singular.append(i)
    assert singular == [1, 3]
    with pytest.raises(SingularityError) as err:
        analytic_jet(sol, 1.0, x, y)
    assert np.flatnonzero(err.value.mask).tolist() == singular


def test_governing_rejects_the_pointwise_singular_samples():
    # a boost by exactly the radius of ring 5 moves its theta = 0 sample of
    # the t = 1 slice onto the singular origin
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    samples = SampleSet(times=(2.0, 1.0))
    pts = list(samples.points(sol.boundary()))
    eps = pts[96 + 5 * 8][1]
    field = transform_field(Galilei(g=lambda t: t, gdot=lambda t: 1.0,
                                    eps=eps), sol)
    args = (sol.triplet(), sol.phys(), samples, sol.boundary())
    batched = governing_residual(JetProvider(field, AnalyticEngine()),
                                 *args)
    pointwise = governing_residual(JetProvider(field, _PointwiseEngine()),
                                   *args)
    assert batched.rejected == (136,)
    assert batched == pointwise
    assert batched.sample_count == len(pts) - 1
