"""Batched jets: one evaluation over all points at a time gives, bit for
bit, the jets and residuals of the point-by-point evaluation."""

import math

import numpy as np
import pytest

from tumorsym.jets import (JET_ENTRIES, AnalyticEngine, FdEngine, Field,
                           FieldJet, JetProvider, SingularityError,
                           analytic_jet, analytic_jets, fd_jet,
                           radial_argument)
from tumorsym.numerics import fd_derivative
from tumorsym.numerics.dd import DD
from tumorsym.numerics.dual import Dual, exp, seed1, value
from tumorsym.residuals import (SampleSet, _front_report,
                                cross_engine_check,
                                governing_and_front_residuals,
                                governing_residual, governing_residual_at)
from tumorsym.reduction import lift_profiles
from tumorsym.solutions import FAMILY_IDS, BoundaryCircle, reduced_profiles_of
from tumorsym.symmetry import (Galilei, PressureShift, Rotation, Scale,
                               TimeTranslation, TransformedField,
                               orbit_residual)

from support import NON_UNIT_PARAMS, PARAMS, CartesianView, \
    annulus_and_ring


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _fields():
    """The five families (radial pass) and a field of every other kind
    (stacked Cartesian pass): each group element, and a lifted field."""
    for fid, params in PARAMS.items():
        sol = FAMILY_IDS[fid](**params)
        yield fid, sol, sol
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    elements = {
        "rotation": Rotation(f=math.sin, fdot=math.cos, eps=1.0),
        "galilei-x": Galilei(g=lambda t: t, gdot=lambda t: 1.0, eps=0.3),
        "galilei-y": Galilei(g=math.sin, gdot=math.cos, eps=-0.2,
                             axis="y"),
        "pressure-shift": PressureShift(F=lambda t: t * t,
                                        Fdot=lambda t: 2.0 * t, eps=0.7),
        "time-translation": TimeTranslation(eps=0.25),
    }
    for name, elem in elements.items():
        yield name, TransformedField(elem, sol), sol
    m442 = FAMILY_IDS["moving442"](**PARAMS["moving442"])
    scale = Scale(eps=0.3, m=m442.m, n=m442.n)
    yield "scale", TransformedField(scale, m442), m442
    yield "lifted", lift_profiles(reduced_profiles_of(sol)), sol


class _PointwiseEngine:
    """A jet function run on one-element slices, one point at a time, jets
    joined."""

    def __init__(self, jet=analytic_jet, descriptor="analytic"):
        self._jet = jet
        self.descriptor = descriptor

    def jet(self, field, t, x, y):
        jets, mask = [], np.zeros(len(x), dtype=bool)
        for i in range(len(x)):
            try:
                jets.append(self._jet(field, t, x[i:i + 1], y[i:i + 1]))
            except SingularityError as e:
                assert e.mask.tolist() == [True]
                mask[i] = True
        if mask.any():
            raise SingularityError("singular", mask)
        return FieldJet(t=t, x=x, y=y, **{
            name: np.concatenate([getattr(j, name) for j in jets])
            for name in JET_ENTRIES})


@pytest.mark.parametrize("name, field, sol", list(_fields()),
                         ids=[f[0] for f in _fields()])
def test_batched_jet_equals_pointwise_bit_for_bit(name, field, sol):
    t, x, y = next(SampleSet().slices(sol.boundary()))
    batch = analytic_jet(field, t, x, y)
    assert len(JET_ENTRIES) == 21
    single = [analytic_jet(field, t, xi, yi)
              for xi, yi in zip(x.tolist(), y.tolist())]
    assert batch.t == t
    for entry in ("x", "y") + JET_ENTRIES:
        got = getattr(batch, entry)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert _bits(got) == _bits(
            np.concatenate([getattr(j, entry) for j in single])), entry
    # the residual assembly is elementwise too
    rows = list(zip(*governing_residual_at(batch, sol.triplet(),
                                           sol.phys())))
    for row, jet in zip(rows, single):
        assert _bits(row) == _bits(
            np.concatenate(governing_residual_at(jet, sol.triplet(),
                                                 sol.phys())))


@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_residual_reports_equal_pointwise_engine(fid):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    batched = JetProvider(sol, AnalyticEngine())
    pointwise = JetProvider(sol, _PointwiseEngine())
    samples = SampleSet(times=(0.5, 2.0), n_r=5, n_theta=6)
    args = (sol.triplet(), sol.phys(), samples, sol.boundary())
    assert governing_residual(batched, *args) \
        == governing_residual(pointwise, *args)
    assert governing_and_front_residuals(batched, *args, 64) \
        == governing_and_front_residuals(pointwise, *args, 64)


def _single_point_paths():
    """The three jet paths: the radial pass of a family, the stacked
    Cartesian pass of a transformed field, and finite differences."""
    sol = FAMILY_IDS["moving444"](**PARAMS["moving444"])
    rotated = TransformedField(Rotation(f=math.sin, fdot=math.cos, eps=1.0),
                               sol)
    h = 2e-4 * sol.boundary().radius(1.0)
    return {"radial": (analytic_jet, sol),
            "cartesian": (analytic_jet, rotated),
            "fd": (lambda *a: fd_jet(*a, h), sol)}


@pytest.mark.parametrize("path", ["radial", "cartesian", "fd"])
def test_a_single_point_is_a_one_element_slice(path):
    """A float point goes in and comes out as a one-element array, with
    the bits of its entry in the batch."""
    jet, field = _single_point_paths()[path]
    t, x, y = next(SampleSet(r_min_fraction=0.1).slices(
        BoundaryCircle(delta=1.0)))
    batch = jet(field, t, x, y)
    for i in (0, 37, len(x) - 1):
        one = jet(field, t, x[i].item(), y[i].item())
        assert one.t == t
        for entry in ("x", "y") + JET_ENTRIES:
            got = getattr(one, entry)
            assert got.shape == (1,), entry
            assert _bits(got) == _bits(getattr(batch, entry)[i:i + 1]), entry


def test_origin_points_are_masked_like_pointwise():
    sol = FAMILY_IDS["full413"](**PARAMS["full413"])
    x = np.array([0.3, 0.0, -0.2, 0.0, 0.5])
    y = np.array([0.1, 0.0, 0.4, 0.0, -0.5])
    singular = []
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        try:
            analytic_jet(sol, 1.0, xi, yi)
        except SingularityError as e:
            assert e.mask.tolist() == [True]
            singular.append(i)
    assert singular == [1, 3]
    with pytest.raises(SingularityError) as err:
        analytic_jet(sol, 1.0, x, y)
    assert np.flatnonzero(err.value.mask).tolist() == singular


# -- the radial pass against the Cartesian passes ----------------------------

# the Ei families' pressure integral is a double under its Leibniz
# derivative, which the radial pass takes in w, the Cartesian one in x and y
EXACT_RADIAL = ("full413", "moving442", "moving444")
# the Cartesian pass interpolates a mixed entry from three second
# coefficients, c2(1, 1) - c2(1, 0) - c2(0, 1): exact only to double-double
# rounding, which shows where its true value is 0
MIXED = ("u1_xy", "u2_xy")


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_radial_jet_matches_the_cartesian_passes(fid, t):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    for x, y in annulus_and_ring(sol, t):
        radial = analytic_jet(sol, t, x, y)
        cartesian = analytic_jet(CartesianView(sol), t, x, y)
        assert radial.t == cartesian.t == t
        for entry in ("x", "y") + JET_ENTRIES:
            got, want = getattr(radial, entry), getattr(cartesian, entry)
            assert got.shape == x.shape, entry
            if entry in MIXED:
                bound = 1e-29 if fid in EXACT_RADIAL else 1e-13
                assert np.all(np.abs(got - want)
                              <= bound * np.max(np.abs(want))), entry
            elif fid in EXACT_RADIAL or entry in ("x", "y", "alpha", "u1",
                                                  "u2", "p", "alpha_t"):
                assert _bits(got) == _bits(want), entry
            else:
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), \
                    entry


def _count_calls(monkeypatch, field, names):
    """The list that records, in order, each call of the methods ``names``
    of ``field``."""
    calls = []
    for name in names:
        method = getattr(field, name)
        monkeypatch.setattr(field, name, lambda *a, name=name, method=method:
                            calls.append(name) or method(*a))
    return calls


def test_a_family_jet_is_one_radial_pass_and_a_time_seed(monkeypatch):
    """The time seed evaluates alpha alone, not ``radial`` or ``values``."""
    sol = FAMILY_IDS["moving444"](**PARAMS["moving444"])
    calls = _count_calls(monkeypatch, sol, ("radial", "values", "alpha"))
    t, x, y = _slice(sol)
    analytic_jet(sol, t, x, y)
    assert calls == ["radial", "alpha"]


class _WithOrigin:
    """The default t = 1 annulus with the origin inserted as sample 5."""

    def slices(self, boundary):
        t, x, y = next(SampleSet().slices(boundary))
        yield t, np.insert(x, 5, 0.0), np.insert(y, 5, 0.0)


@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_radial_and_cartesian_passes_reject_the_origin_alike(fid):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    x = np.array([0.3, 0.0, -0.2, 0.0, 0.5])
    y = np.array([0.1, 0.0, 0.4, 0.0, -0.5])
    masks = []
    for field in (sol, CartesianView(sol)):
        with pytest.raises(SingularityError) as err:
            analytic_jet(field, 1.0, x, y)
        masks.append(np.flatnonzero(err.value.mask).tolist())
        with pytest.raises(ValueError, match="t must be positive, got 0.0"):
            analytic_jet(field, 0.0, x, y)
    assert masks == [[1, 3], [1, 3]]
    args = (sol.triplet(), sol.phys(), _WithOrigin(), sol.boundary())
    radial = governing_residual(JetProvider(sol), *args)
    cartesian = governing_residual(JetProvider(CartesianView(sol)), *args)
    assert radial.rejected == cartesian.rejected == (5,)
    assert radial.sample_count == cartesian.sample_count == 96
    if fid in EXACT_RADIAL:
        assert radial == cartesian


def test_a_lifted_field_rejects_the_origin_as_its_family_does():
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    lifted = lift_profiles(reduced_profiles_of(sol))
    args = (sol.triplet(), sol.phys(), _WithOrigin(), sol.boundary())
    family = governing_residual(JetProvider(sol), *args)
    lift = governing_residual(JetProvider(lifted), *args)
    assert lift.rejected == family.rejected == (5,)
    assert lift.sample_count == family.sample_count == 96
    with pytest.raises(SingularityError) as err:
        lifted.values(1.0, 0.0, 0.0)
    assert err.value.mask is None
    with pytest.raises(ValueError, match="lifted field needs t > 0"):
        lifted.values(0.0, 0.0, 0.0)


def test_governing_rejects_the_pointwise_singular_samples():
    # a boost by exactly the radius of ring 5 moves its theta = 0 sample of
    # the t = 1 slice onto the singular origin
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    samples = SampleSet(times=(2.0, 1.0))
    (_, _, _), (t, x, _) = samples.slices(sol.boundary())
    assert t == 1.0
    eps = x[5 * 8]
    field = TransformedField(Galilei(g=lambda t: t, gdot=lambda t: 1.0,
                                    eps=eps), sol)
    args = (sol.triplet(), sol.phys(), samples, sol.boundary())
    batched = governing_residual(JetProvider(field, AnalyticEngine()),
                                 *args)
    pointwise = governing_residual(JetProvider(field, _PointwiseEngine()),
                                   *args)
    assert batched.rejected == (136,)
    assert batched == pointwise
    assert batched.sample_count == 2 * 96 - 1


# -- one jet per sample time: the annulus and the front ring ----------------

@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_the_shared_pass_has_the_bits_of_separate_jets(fid):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    samples = SampleSet(times=(0.5, 1.0, 2.0))
    args = (sol.triplet(), sol.phys(), samples, sol.boundary())
    gov, fronts = governing_and_front_residuals(JetProvider(sol), *args, 64)
    assert gov == governing_residual(JetProvider(sol), *args)
    assert len(fronts) == 3
    for t, front in zip(samples.times, fronts):
        (xa, ya), (xr, yr) = annulus_and_ring(sol, t)
        annulus, ring = analytic_jet(sol, t, np.concatenate((xa, xr)),
                                     np.concatenate((ya, yr))).cut(xa.size)
        for part, alone in ((annulus, analytic_jet(sol, t, xa, ya)),
                            (ring, analytic_jet(sol, t, xr, yr))):
            assert part.t == alone.t
            for entry in ("x", "y") + JET_ENTRIES:
                assert _bits(getattr(part, entry)) \
                    == _bits(getattr(alone, entry)), entry
        assert front == _front_report(t, xr, yr, analytic_jet(sol, t, xr, yr),
                                      sol.boundary(), sol.phys(), "analytic")


class _BoundedRadial(Field):
    """A radial field whose ``radial`` raises past w = 1; ``sizes``
    records the points of each call."""

    def __init__(self):
        self.sizes = []

    def radial(self, t, w):
        self.sizes.append(np.size(value(w)))
        if np.any(value(w) > 1.0):
            raise ValueError("w past 1")
        return t * exp(-w), w * t, w * w

    def values(self, t, x, y):
        alpha, vel, p = self.radial(t, radial_argument(t, x, y))
        return alpha, x * vel, y * vel, p


def test_a_failing_shared_pass_falls_back_to_a_pass_per_slice():
    """The joined pass raises, so each slice takes its own: the slice
    inside w = 1 has the bits of its own jet, the one past it its own
    error."""
    field = _BoundedRadial()
    inside = np.array([0.3, -0.5, 0.1]), np.array([0.2, 0.4, -0.6])
    past = np.array([0.9, 1.2]), np.array([0.8, -0.3])
    got_in, got_past = analytic_jets([(field, 1.5, *inside),
                                      (field, 1.5, *past)])
    # the joined pass, the inside pass and its time seed, the past pass
    assert field.sizes == [5, 3, 3, 2]
    alone = analytic_jet(field, 1.5, *inside)
    assert got_in.t == alone.t == 1.5
    for entry in ("x", "y") + JET_ENTRIES:
        assert _bits(getattr(got_in, entry)) \
            == _bits(getattr(alone, entry)), entry
    assert isinstance(got_past, ValueError) and str(got_past) == "w past 1"
    with pytest.raises(ValueError, match="^w past 1$"):
        analytic_jet(field, 1.5, *past)


def test_only_annulus_points_are_rejected():
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    gov, (front,) = governing_and_front_residuals(
        JetProvider(sol), sol.triplet(), sol.phys(), _WithOrigin(),
        sol.boundary(), 64)
    assert gov.rejected == (5,) and gov.sample_count == 96
    assert front.rejected == () and front.sample_count == 64


class _SingularLastPoint(AnalyticEngine):
    """Masks the last point of every jet as singular."""

    def jet(self, field, t, x, y):
        mask = np.zeros(x.shape, dtype=bool)
        mask[-1] = True
        raise SingularityError("singular", mask)


def test_a_singular_ring_point_raises():
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    args = (sol.triplet(), sol.phys(), SampleSet(), sol.boundary())
    with pytest.raises(SingularityError):
        governing_and_front_residuals(
            JetProvider(sol, _SingularLastPoint()), *args, 64)
    # without a ring the same mask rejects annulus points one by one
    with pytest.raises(ValueError, match="^no valid samples$"):
        governing_residual(JetProvider(sol, _SingularLastPoint()), *args)


# -- the FD reference engine -------------------------------------------------

# the cross-check's settings: h in proportion to the front radius, samples
# 500 steps or more away from the singular origin
XENG_SAMPLES = SampleSet(r_min_fraction=0.1)


def _h(sol):
    return 2e-4 * sol.boundary().radius(1.0)


def _slice(sol, samples=XENG_SAMPLES):
    return next(samples.slices(sol.boundary()))


def _fd_pointwise(h):
    return _PointwiseEngine(lambda *a: fd_jet(*a, h), "fd")


class _Counted(Field):
    def __init__(self, field):
        self.field = field
        self.calls = 0

    def values(self, t, x, y):
        self.calls += 1
        return self.field.values(t, x, y)


@pytest.mark.parametrize("n_r", [1, 12])
def test_fd_jet_makes_2_values_calls_per_slice(n_r):
    """One stacked call for the value and every stencil point, and the
    time seed."""
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    t, x, y = _slice(sol, SampleSet(r_min_fraction=0.1, n_r=n_r))
    assert x.shape == (8 * n_r,)
    counted = _Counted(sol)
    FdEngine(h=_h(sol)).jet(counted, t, x, y)
    assert counted.calls == 2


@pytest.mark.parametrize("n_r", [1, 12])
def test_fd_jet_evaluates_each_distinct_stencil_point_once(n_r):
    """The stacked call takes the 25 distinct points of the 5 x 5 offset
    grid per sample, not the 35 samples the stencils read."""
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    t, x, y = _slice(sol, SampleSet(r_min_fraction=0.1, n_r=n_r))
    sizes = []

    class Sized(Field):
        def values(self, t, x, y):
            sizes.append(x.size)
            return sol.values(t, x, y)

    FdEngine(h=_h(sol)).jet(Sized(), t, x, y)
    assert sizes == [25 * x.size, x.size]


def test_fd_jet_runs_each_stencil_once(monkeypatch):
    """Five stencils and the mixed one (one outer and four inner calls) on
    the samples, and no pass that runs them only to find their points."""
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    t, x, y = _slice(sol)
    calls = []

    def counted(*args):
        calls.append(args)
        return fd_derivative(*args)

    monkeypatch.setattr("tumorsym.jets.fd_derivative", counted)
    fd_jet(sol, t, x, y, _h(sol))
    assert len(calls) == 9


@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_fd_jet_values_are_the_field_values(fid):
    """The value entries are ``values()`` at the points themselves: offset
    0 is the coordinate, so y = -0.0 keeps its sign in u2 = y V."""
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    r = sol.boundary().radius(1.0)
    x = np.array([0.3, 0.6, 0.9]) * r
    y = np.full(3, -0.0)
    for xs, ys in ((x, y), (x[1:2], y[:1])):
        jet = fd_jet(sol, 1.0, xs, ys, _h(sol))
        for entry, want in zip(("alpha", "u1", "u2", "p"),
                               sol.values(1.0, xs, ys)):
            assert _bits(getattr(jet, entry)) == _bits(want), entry
        # u2 = -0.0 V against u1 = x V with x > 0: opposite sign bits
        assert np.all(np.signbit(jet.u2) != np.signbit(jet.u1)), fid


def test_a_cartesian_jet_is_one_stacked_pass_and_a_time_seed(monkeypatch):
    """One source ``values`` for the stacked pass and one source ``alpha``
    for the time seed, per jet."""
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    calls = _count_calls(monkeypatch, sol, ("values", "alpha"))
    field = CartesianView(TransformedField(
        Rotation(f=math.sin, fdot=math.cos, eps=1.0), sol))
    t, x, y = _slice(sol)
    analytic_jet(field, t, x, y)
    assert calls == ["values", "alpha"]
    one = analytic_jet(field, t, x[0], y[0])
    assert calls == ["values", "alpha"] * 2
    assert all(getattr(one, e).shape == (1,) for e in JET_ENTRIES)


@pytest.mark.parametrize("name, field, sol", list(_fields()),
                         ids=[f[0] for f in _fields()])
def test_fd_jet_equals_pointwise(name, field, sol):
    t, x, y = _slice(sol)
    h = _h(sol)
    batch = FdEngine(h=h).jet(field, t, x, y)
    ref = _fd_pointwise(h).jet(field, t, x, y)
    assert batch.t == t
    for entry in ("x", "y") + JET_ENTRIES:
        got, want = getattr(batch, entry), getattr(ref, entry)
        assert isinstance(got, np.ndarray) and got.shape == x.shape, entry
        assert _bits(got) == _bits(want), entry


# cross_engine_check at the cross-check's settings, as the point-by-point
# FD engine gave it; the FD p_xx of the three Ei families differences the
# pressure's last bits, so their values move with the Ei kernel
XENG = {
    "full413": 8.053706199162569e-08,
    "stationary413s": 9.443527598795853e-07,
    "moving442": 1.7272585234252916e-08,
    "moving444": 1.4310474353841094e-07,
    "steady432": 6.698173741393868e-08,
}


@pytest.mark.parametrize("fid", sorted(XENG))
def test_cross_engine_check_keeps_its_value(fid):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    got = cross_engine_check(JetProvider(sol, AnalyticEngine()),
                             JetProvider(sol, FdEngine(h=_h(sol))),
                             XENG_SAMPLES, sol.boundary())
    assert got == XENG[fid]


# orbit_residual(...).linf of the symmetry checks as the stacked Taylor pass
# (seeded along (1, 0), (0, 1) and (1, 1)) gives it: the default rotation of
# verify on each family, and the other elements of the orbit command
ORBIT = {
    ("full413", "rotation"): 4.081835816393299e-15,
    ("stationary413s", "rotation"): 5.710010885110494e-11,
    ("moving442", "rotation"): 1.175506719819935e-10,
    ("moving444", "rotation"): 6.569428265090483e-10,
    ("steady432", "rotation"): 5.2071545920812095e-11,
    ("stationary413s", "rotation-sin"): 5.70996320818221e-11,
    ("full413", "galilei"): 0.0021479959681978502,
    ("moving442", "scale"): 1.1717406303701772e-10,
}


def _orbit_element(name, sol):
    if name == "rotation":
        return Rotation(f=lambda t: 1.0, fdot=lambda t: 0.0, eps=0.5)
    if name == "rotation-sin":
        return Rotation(f=math.sin, fdot=math.cos, eps=0.5)
    if name == "galilei":
        return Galilei(g=lambda t: t, gdot=lambda t: 1.0, eps=-4.5)
    return Scale(eps=0.3, m=sol.m, n=sol.n)


@pytest.mark.parametrize("fid, name", sorted(ORBIT),
                         ids=[f"{f}-{n}" for f, n in sorted(ORBIT)])
def test_orbit_residual_keeps_its_value(fid, name):
    sol = FAMILY_IDS[fid](**PARAMS[fid])
    samples = SampleSet(times=(1.0, 2.0)) if name == "galilei" \
        else SampleSet()
    got = orbit_residual(_orbit_element(name, sol), sol, sol.triplet(),
                         sol.phys(), samples)
    assert got.linf == ORBIT[fid, name]


def test_fd_governing_rejects_the_pointwise_singular_samples():
    """The boosted field is singular at (0.75, 0): the theta = 0 samples at
    r = 0.5 and r = 1 reach it at the x offsets +2h and -2h, two different
    stencil offsets; the stacked call folds both into one mask, so the
    slice fails once before its jet succeeds."""
    sol = FAMILY_IDS["stationary413s"](**PARAMS["stationary413s"])
    field = TransformedField(Galilei(g=lambda t: t, gdot=lambda t: 1.0,
                                    eps=0.75), sol)
    h = 0.125
    samples = SampleSet(r_min_fraction=0.25, n_r=3)
    boundary = BoundaryCircle(delta=1.0)
    (_, x, y), = samples.slices(boundary)
    assert list(zip(x[8:17:8].tolist(), y[8:17:8].tolist())) \
        == [(0.5, 0.0), (1.0, 0.0)]
    args = (sol.triplet(), sol.phys(), samples, boundary)
    attempts = []

    class Engine(FdEngine):
        def jet(self, field, t, x, y):
            attempts.append(len(x))
            return super().jet(field, t, x, y)

    batched = governing_residual(JetProvider(field, Engine(h=h)), *args)
    pointwise = governing_residual(JetProvider(field, _fd_pointwise(h)),
                                   *args)
    assert attempts == [24, 22]
    assert batched.engine == "fd"
    assert batched.rejected == (8, 16)
    assert batched == pointwise


# -- alpha alone: the time seed's evaluation -------------------------------

def _components(z):
    """The float components of a nested dual of DDs or floats, in order:
    each dual's value then its derivative, each DD's hi then lo."""
    if isinstance(z, Dual):
        return _components(z.val) + _components(z.dot)
    if isinstance(z, DD):
        return [z.hi, z.lo]
    return [z]


def _assert_alpha_has_the_bits_of_values(field, sol):
    """At t = 0.5, 1 and 2, ``alpha`` has the bits of ``values()[0]`` on a
    float slice, at seed1(t) with float points (the FD time seed) and at
    seed1(t) with DD points (the analytic time seed), every component."""
    for t in (0.5, 1.0, 2.0):
        (_, x, y), = SampleSet((t,), n_r=3, n_theta=4).slices(
            sol.boundary())
        for args in ((t, x, y), (seed1(t), x, y),
                     (seed1(DD.of(t)), DD.of(x), DD.of(y))):
            got = _components(field.alpha(*args))
            want = _components(field.values(*args)[0])
            assert len(got) == len(want), (t, args[0])
            for g, w in zip(got, want):
                assert _bits(np.broadcast_to(g, x.shape)) \
                    == _bits(np.broadcast_to(w, x.shape)), (t, args[0])


_PARAM_SETS = {"acceptance": PARAMS, "non-unit": NON_UNIT_PARAMS}


@pytest.mark.parametrize("params", sorted(_PARAM_SETS))
@pytest.mark.parametrize("fid", sorted(PARAMS))
def test_family_alpha_has_the_bits_of_its_values(fid, params):
    sol = FAMILY_IDS[fid](**_PARAM_SETS[params][fid])
    _assert_alpha_has_the_bits_of_values(sol, sol)


_ELEMENTS = {
    "rotation-const": lambda sol: Rotation(f=lambda t: 1.0,
                                           fdot=lambda t: 0.0, eps=0.5),
    "rotation-sin": lambda sol: Rotation(f=math.sin, fdot=math.cos,
                                         eps=1.0),
    "galilei-x": lambda sol: Galilei(g=lambda t: t, gdot=lambda t: 1.0,
                                     eps=0.3),
    "galilei-y": lambda sol: Galilei(g=math.sin, gdot=math.cos, eps=-0.2,
                                     axis="y"),
    "pressure-shift": lambda sol: PressureShift(
        F=lambda t: t * t, Fdot=lambda t: 2.0 * t, eps=0.7),
    "time-translation": lambda sol: TimeTranslation(eps=0.25),
    "scale": lambda sol: Scale(eps=0.3, m=sol.m, n=sol.n),
}


@pytest.mark.parametrize("fid, element", [
    (fid, name) for name in _ELEMENTS for fid in sorted(PARAMS)
    if name != "scale" or fid in ("moving442", "moving444")])
def test_element_alpha_pull_has_the_bits_of_its_values(fid, element):
    """The alpha pull evaluates the source's alpha alone at the source
    point of ``pull_values``, with the same factor (e^(2 eps) for
    scale)."""
    for params in _PARAM_SETS.values():
        sol = FAMILY_IDS[fid](**params[fid])
        field = TransformedField(_ELEMENTS[element](sol), sol)
        _assert_alpha_has_the_bits_of_values(field, sol)
