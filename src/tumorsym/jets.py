"""Field jets: values of (alpha, u1, u2, p) at space-time points together
with every partial derivative the governing and boundary residuals consume.

A *field* is any object with a ``values(t, x, y) -> (alpha, u1, u2, p)``
method written in generic arithmetic, so it accepts seeded numbers.  A
jet has one shape: it is taken on a time slice, the float arrays x and y
of points at one time t, and every entry comes back as an array of that
shape; a single point is a one-element slice.  The analytic engine builds
jets from evaluations on degree-2 Taylor numbers
(``numerics.dual.Taylor``) over whole arrays of points (vector forward
mode), two kinds of field two ways:

- A radial field (:class:`RadialField`: every solution family, and the
  lift of radial profiles) states its closed form ``radial(t, w)`` in
  w = x^2 + y^2.  It takes one second-order pass in w, and the chain
  rule in double-double gives the Cartesian entries (univariate Taylor
  propagation, Griewank and Walther, *Evaluating Derivatives*, 2008,
  ch. 13).
- A group element's pull of a radial field (``symmetry.TransformedField``)
  takes that pass at its source points, kept in double-double, and
  pushes its cut of the unrounded rows through the element's second
  prolongation (Olver, *Applications of Lie Groups to Differential
  Equations*, 1993, ch. 2): with A the Jacobian of the element's point
  map, first derivatives push by A, second derivatives by A^T H A, and
  alpha_t = tau' alpha_t + grad alpha . d/dt point, before the element's
  pull maps the values.

Any other field has no analytic jet; the finite-difference engine takes
any field.

The jets a run needs are asked for together (:func:`analytic_jets`):
every slice of a radial field or of a pull of it is a set of that field's
points at one source time, so a run makes one pass and one time seed per
radial field and distinct source time, over all its points.  Each slice
cuts its own points out of that pass's unrounded double-double rows (a
DD array indexes and joins itself, ``numerics.dd``), a pull's cut is
pushed, and each cut is rounded once, so a slice has the bits of its
own pass.  Every pass reads its coefficients with the one reader of
seeded results, ``numerics.dual.taylor``.  The finite-difference engine
rebuilds the spatial entries from values only: one array call takes the
5 x 5 grid x + i h, y + j h (i, j in -2..2) around every point of a
slice, which holds every point the fourth-order stencils read; it serves
only as the independent reference of ``cross_engine_check``.  Every
path hands its partials to one assembly of the jet.
The one time derivative a residual reads, alpha_t (only the mass equation
has a time derivative), always comes from the analytic path: two families
carry fractional powers of t that make time differencing unreliable.  Its
seed evaluates alpha alone, ``Field.alpha``: a radial field's closed form
``radial_alpha``, a group element's pull of the source's alpha, or
``values()[0]`` for any other field; a family's velocity, pressure and
Ei integrals are never carried under the time seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import fd_derivative
from .numerics.dd import DD
from .numerics.dual import Taylor, seed1, taylor, value

__all__ = ["FieldJet", "Field", "RadialField", "AnalyticEngine",
           "FdEngine", "JetProvider", "SingularityError", "JET_ENTRIES",
           "analytic_jets", "provider_jets"]


class SingularityError(ValueError):
    """Evaluation at the origin of a field that is singular there.

    For an array of points ``mask`` marks the singular ones; it is None for
    a ``values()`` call at a single float point.
    """

    def __init__(self, message, mask=None):
        super().__init__(message)
        self.mask = mask


@dataclass(frozen=True)
class FieldJet:
    """The jet on one time slice: ``x``, ``y`` and the 21 entries are
    float arrays of one shape, one element per point; ``t`` is a float."""

    t: float
    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    p: np.ndarray
    alpha_t: np.ndarray
    alpha_x: np.ndarray
    alpha_y: np.ndarray
    u1_x: np.ndarray
    u1_y: np.ndarray
    u2_x: np.ndarray
    u2_y: np.ndarray
    u1_xx: np.ndarray
    u1_xy: np.ndarray
    u1_yy: np.ndarray
    u2_xx: np.ndarray
    u2_xy: np.ndarray
    u2_yy: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    p_xx: np.ndarray
    p_yy: np.ndarray

    def cut(self, n):
        """The jets of the first ``n`` points and of the rest; every entry
        of a jet is elementwise, so each has the bits of a jet taken on
        its points alone."""
        return tuple(FieldJet(t=self.t, **{k: getattr(self, k)[points]
                                           for k in ("x", "y") + JET_ENTRIES})
                     for points in (slice(None, n), slice(n, None)))


# the 21 field entries: everything but the point itself
JET_ENTRIES = tuple(f.name for f in fields(FieldJet)
                    if f.name not in ("t", "x", "y"))


class Field:
    """Base class of fields; subclasses implement ``values``, and may
    implement ``alpha`` to give alpha without the other fields.  The
    analytic engine takes a :class:`RadialField` and a group element's
    pull of one; the finite-difference engine takes any field."""

    def values(self, t, x, y):
        raise NotImplementedError

    def alpha(self, t, x, y):
        """alpha alone at (t, x, y): what a time seed evaluates."""
        return self.values(t, x, y)[0]


class RadialField(Field):
    """A field stated in w = x^2 + y^2: ``radial(t, w)`` returns (alpha,
    vel, p), or (alpha, vel, p, swirl) for a field that turns, with
    u = vel (x, y) + swirl (-y, x); ``radial_alpha(t, w)`` returns alpha
    alone.  ``values`` and ``alpha`` read them at the w of the points,
    after the domain checks of :func:`radial_argument`."""

    def radial(self, t, w):
        raise NotImplementedError

    def radial_alpha(self, t, w):
        return self.radial(t, w)[0]

    def values(self, t, x, y):
        """The fields at (t, x, y), arrays of points allowed."""
        alpha, vel, p, *swirl = self.radial(t, radial_argument(t, x, y))
        if not swirl:
            return alpha, x * vel, y * vel, p
        s, = swirl
        return alpha, x * vel - y * s, y * vel + x * s, p

    def alpha(self, t, x, y):
        return self.radial_alpha(t, radial_argument(t, x, y))


def radial_argument(t, x, y):
    """w = x^2 + y^2 of a radial field at (t, x, y), after the domain
    checks of every radial evaluation: t > 0, and not the origin, where
    the fields are singular (with the mask of those points for arrays)."""
    if value(t) <= 0.0:
        raise ValueError(f"t must be positive, got {value(t)}")
    w = x * x + y * y
    at_origin = value(w) == 0.0  # a bool, or a mask for arrays
    if at_origin is True:
        raise SingularityError("field is singular at the origin")
    if at_origin is not False and at_origin.any():
        raise SingularityError("field is singular at the origin", at_origin)
    return w


def analytic_jet(field: Field, t, x, y) -> FieldJet:
    """Jet via forward-mode AD on degree-2 Taylor numbers: the one-slice
    case of :func:`analytic_jets`, whose error it raises.

    ``x`` and ``y`` are equal-length float arrays of points at the one
    time ``t`` (a single point is taken as a one-element array); every
    arithmetic step is elementwise, so each entry has the bits of the
    one-element jet at that point alone.  A field singular at some of the
    points raises :class:`SingularityError` with their mask.
    The Taylor coefficients carry double-double scalars, so the
    arithmetic of a pass adds rounding only at about 1e-32 relative to
    its terms.  The elementary functions of ``numerics.dd`` (exp, expm1,
    log, powers) are accurate to about 1e-16 relative, not to
    double-double, so an entry that the field formulas compute with
    cancellation near the inner rim inherits that error, amplified: for
    full413 at w = 1e-4, V'' is off by 1.9e-7 relative (the jet oracle
    of the tests bounds each family's error).  Overflow leaves inf or NaN
    entries for the gates to judge, without a warning.

    Two kinds of field have an analytic jet, each its own way.  A
    :class:`RadialField` takes one second-order pass in w and one time
    seed (:func:`_radial_rows`).  A group element's pull of one (a field
    with ``prolong``) takes that pass at its source points and pushes it
    through the element's second prolongation: first derivatives by the
    Jacobian A of the point map, second derivatives by A^T H A, alpha_t
    = tau' alpha_t + grad alpha . d/dt point.  Any other field raises a
    TypeError; the finite-difference engine takes it.
    """
    jet, = analytic_jets([(field, t, x, y)])
    if isinstance(jet, Exception):
        raise jet
    return jet


@np.errstate(all="ignore")
def analytic_jets(requests):
    """The analytic jets of many slices, each a (field, t, x, y) as
    :func:`analytic_jet` takes it, in request order.  A slice that fails
    (singular points, t <= 0, overflow) gives the ValueError or
    ArithmeticError it raised in place of its jet, and does not stop the
    others.

    A slice of a radial field is that field's points at its own time, and
    a slice of a pull of one is that field's source points at the source
    time (``prolong``), kept in double-double.  All slices of one radial
    field and source time share one pass and one time seed on their
    joined points (univariate Taylor propagation over the points a run
    needs).  Each slice cuts its own points out of the pass's unrounded
    rows, a pull's cut is pushed, and the cut is rounded once
    (:func:`_field_jet`).  Every step is elementwise, so each slice has
    the bits of its own pass.  A field of any other kind raises a
    TypeError.
    """
    out = [None] * len(requests)
    groups = {}
    for i, (field, t, x, y) in enumerate(requests):
        pull = hasattr(field, "prolong")
        if not isinstance(field.source if pull else field, RadialField):
            raise TypeError(f"a {type(field).__name__} is neither a radial "
                            "field nor a pull of one: no analytic jet")
        x, y = map(DD.of, np.atleast_1d(x, y))
        try:
            if pull:
                source = field.source
                (s, sx, sy), push = field.prolong(t, x, y)
            else:
                source, (s, sx, sy), push = field, (t, x, y), None
            radial_argument(s, sx, sy)  # the slice's own domain checks
        except (ValueError, ArithmeticError) as e:
            out[i] = e
            continue
        key = DD.of(s)
        members, points = groups.setdefault(
            (id(source), key.hi, key.lo), (source, key, [], []))[2:]
        members.append((i, t, x, y, push))
        points.append((sx, sy))
    for source, s, members, points in groups.values():
        for (i, t, x, y, push), cut in zip(
                members, _shared_passes(source, s, points)):
            if isinstance(cut, Exception):
                out[i] = cut
                continue
            try:  # a pull may overflow where its point map does not
                out[i] = _field_jet(value(t), value(x), value(y),
                                    *(cut if push is None else push(*cut)))
            except (ValueError, ArithmeticError) as e:
                out[i] = e
    return out


def _shared_passes(source, t, points):
    """For each (x, y) of ``points``, double-double points of the radial
    field ``source`` at the time t, its own cut of the unrounded
    (alpha_t, rows) of a pass there (:func:`_radial_rows`).  One pass
    takes all the points, or, if it raises, each (x, y) takes its own, so
    an error (in place of the cut) stays with its points."""
    try:
        x, y = points[0] if len(points) == 1 else map(DD.join, zip(*points))
        rows = _radial_rows(source, t, x, y, radial_argument(t, x, y))
    except (ValueError, ArithmeticError) as e:
        if len(points) == 1:
            return [e]
        return [_shared_passes(source, t, [p])[0] for p in points]
    ends = np.cumsum([x.hi.size for x, _ in points]).tolist()
    return [_take(rows, slice(end - x.hi.size, end))
            for (x, _), end in zip(points, ends)]


def _take(v, s):
    """The points ``s`` of rows: a tuple of them, a DD or an array, or a
    constant, which every point shares."""
    if isinstance(v, tuple):
        return tuple(_take(e, s) for e in v)
    return v[s] if np.ndim(v) else v


def _stacked_values(field, t, x, y, copies):
    """``field.values`` at ``copies`` stacked copies of the points of a
    slice; a :class:`SingularityError` mask is folded back onto the
    slice's points (singular in any copy)."""
    try:
        return field.values(t, x, y)
    except SingularityError as e:
        if e.mask is None:
            raise
        mask = e.mask.reshape(copies, -1).any(axis=0)
        raise SingularityError(str(e), mask) from None


def _radial_rows(field, t, x, y, w):
    """The rows of a radial field (alpha, u1, u2, p) of w = x^2 + y^2 at
    the double-double points x, y (w formed from them) from one
    second-order pass of ``field.radial`` in w, and its time seed, as
    (alpha_t, rows) for :func:`_field_jet`, unrounded: the chain rule in
    double-double gives every Cartesian entry from the coefficients f'
    and f''/2 of each function f of w, e.g. f_xx = 2f' + 4x^2 f'', and
    the product rule those of x f and y f, e.g. (x f)_xx = x f_xx +
    2 f_x.  u1 = x vel - y swirl and u2 = y vel + x swirl; a field
    without swirl takes the vel rows alone.  The pressure row ends with
    p_xy, which only a push reads."""
    (A, A1, _), vel, P, *swirl = map(
        taylor, field.radial(t, Taylor(w, 1.0, 0.0)))
    tx, ty = x + x, y + y  # dw/dx, dw/dy
    txx, tyy, txy = tx * tx, ty * ty, (tx + tx) * ty

    def partials(f):
        """(f, f_x, f_y, f_xx, f_yy, f_xy) from (f, f', f''/2) in w."""
        F, F1, F2 = f
        return (F, tx * F1, ty * F1, 2.0 * (F1 + txx * F2),
                2.0 * (F1 + tyy * F2), txy * F2)

    def times_xy(f):
        """The rows of x f and of y f."""
        F, f_x, f_y, f_xx, f_yy, f_xy = partials(f)
        return ((x * F, x * f_x + F, x * f_y, x * f_xx + 2.0 * f_x,
                 x * f_yy, x * f_xy + f_y),
                (y * F, y * f_x, y * f_y + F, y * f_xx, y * f_yy + 2.0 * f_y,
                 y * f_xy + f_x))

    u1, u2 = times_xy(vel)
    if swirl:
        xs, ys = times_xy(*swirl)
        u1 = tuple(a - b for a, b in zip(u1, ys))
        u2 = tuple(a + b for a, b in zip(u2, xs))
    return _alpha_t(field, t, x, y), (
        (A, tx * A1, ty * A1), u1, u2, partials(P))


@np.errstate(all="ignore")
def fd_jet(field: Field, t, x, y, h) -> FieldJet:
    """Jet with spatial derivatives from fourth-order central differences
    of the values, on float arrays of points at the one time t (a single
    point is taken as a one-element array).

    One ``values()`` call takes the 5 x 5 grid x + i h, y + j h (i, j in
    -2..2), which holds every point the stencils read, for all points and
    all four fields, and the time seed one ``alpha()`` call: 2 calls,
    whatever the number of points.  A field singular at some grid point raises
    :class:`SingularityError` with the mask of the points singular at any
    offset.  alpha_t still comes from the analytic path (see module note).
    """
    x, y = np.atleast_1d(x, y)
    # offset 0 is x or y itself, not x + 0 h, so a -0.0 keeps its sign
    xs = [x + i * h if i else x for i in range(-2, 3)]
    ys = [y + j * h if j else y for j in range(-2, 3)]
    grid = [(sx, sy) for sx in xs for sy in ys]
    out = _stacked_values(field, t, *map(np.concatenate, zip(*grid)), 25)
    blocks = np.stack([np.broadcast_to(value(c), (25 * len(x),))
                       for c in out]).reshape(4, 25, -1).transpose(1, 0, 2)
    # the stencils find their samples by the exact bytes of the offsets
    at = {(sx.tobytes(), sy.tobytes()): b for (sx, sy), b in zip(grid, blocks)}

    def f(sx, sy):
        return at[sx.tobytes(), sy.tobytes()]

    return _field_jet(t, x, y, _alpha_t(field, t, x, y), zip(
        f(x, y),
        fd_derivative(lambda s: f(s, y), x, 1, h),
        fd_derivative(lambda s: f(x, s), y, 1, h),
        fd_derivative(lambda s: f(s, y), x, 2, h),
        fd_derivative(lambda s: f(x, s), y, 2, h),
        fd_derivative(lambda sy: fd_derivative(
            lambda sx: f(sx, sy), x, 1, h), y, 1, h)))


def _alpha_t(field, t, x, y):
    """The time derivative of alpha from one ``alpha()`` call seeded in t,
    unrounded: the one time seed of the radial and FD paths."""
    return taylor(field.alpha(seed1(t), x, y))[1]


def _field_jet(t, x, y, alpha_t, rows) -> FieldJet:
    """The one assembly of a jet from its partials: ``rows`` holds, for
    alpha, u1, u2 and p, the tuple (f, f_x, f_y, f_xx, f_yy, f_xy), of
    which alpha reads the first three and p the first five.  Every entry
    is read with ``value``, and an entry that does not depend on the point
    (a constant) takes the shape of ``x``."""
    (a, a_x, a_y, *_), (u1, u1_x, u1_y, u1_xx, u1_yy, u1_xy), \
        (u2, u2_x, u2_y, u2_xx, u2_yy, u2_xy), \
        (p, p_x, p_y, p_xx, p_yy, *_) = rows
    entries = dict(
        alpha=a, u1=u1, u2=u2, p=p, alpha_t=alpha_t,
        alpha_x=a_x, alpha_y=a_y, u1_x=u1_x, u1_y=u1_y, u2_x=u2_x,
        u2_y=u2_y, u1_xx=u1_xx, u1_xy=u1_xy, u1_yy=u1_yy, u2_xx=u2_xx,
        u2_xy=u2_xy, u2_yy=u2_yy, p_x=p_x, p_y=p_y, p_xx=p_xx, p_yy=p_yy)

    def entry(v):
        v = value(v)
        return v if np.ndim(v) else np.full(x.shape, v)

    return FieldJet(t=t, x=x, y=y,
                    **{k: entry(v) for k, v in entries.items()})


class AnalyticEngine:
    descriptor = "analytic"

    def jet(self, field, t, x, y):
        return analytic_jet(field, t, x, y)


@dataclass(frozen=True)
class FdEngine:
    """The finite-difference reference of ``cross_engine_check``; pick
    ``h`` in proportion to the radius of the sampled region."""

    descriptor = "fd"
    h: float

    def jet(self, field, t, x, y):
        return fd_jet(field, t, x, y, self.h)


class JetProvider:
    """Binds a field to a jet engine; the unit the residual operators consume."""

    def __init__(self, field: Field,
                 engine: AnalyticEngine | FdEngine = AnalyticEngine()):
        self.field = field
        self.engine = engine

    @property
    def descriptor(self):
        return self.engine.descriptor

    def jet(self, t, x, y) -> FieldJet:
        return self.engine.jet(self.field, t, x, y)


def provider_jets(requests):
    """The outcomes of jet requests, each a JetProvider and a slice (t, x,
    y): a FieldJet, or the ValueError or ArithmeticError the slice raised.
    The requests to the analytic engine itself go to
    :func:`analytic_jets` together; any other engine (finite differences,
    or one that states its own ``jet``) is asked slice by slice."""
    together = [i for i, (jets, *_) in enumerate(requests)
                if type(jets.engine) is AnalyticEngine]
    out = dict(zip(together, analytic_jets(
        [(requests[i][0].field, *requests[i][1:]) for i in together])))
    for i, (jets, t, x, y) in enumerate(requests):
        if i not in out:
            try:
                out[i] = jets.jet(t, x, y)
            except (ValueError, ArithmeticError) as e:
                out[i] = e
    return [out[i] for i in range(len(requests))]
