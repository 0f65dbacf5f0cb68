"""Field jets: values of (alpha, u1, u2, p) at space-time points together
with every partial derivative the governing and boundary residuals consume.

A *field* is any object with a ``values(t, x, y) -> (alpha, u1, u2, p)``
method written in generic arithmetic, so it accepts dual-number seeds.  The
analytic engine builds jets from nested dual evaluations on whole arrays of
points at one time (vector forward mode); the finite-difference engine
rebuilds the spatial entries from value calls only, one point at a time,
and serves only as the independent reference of ``cross_engine_check``.
Time derivatives always come from the analytic path: two families carry
fractional powers of t that make time differencing unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import fd_derivative
from .numerics.dd import DD
from .numerics.dual import Dual, seed1, seed2, seed_pair, value

__all__ = ["FieldJet", "Field", "JetEngine", "AnalyticEngine", "FdEngine",
           "JetProvider", "SingularityError", "JET_ENTRIES"]


class SingularityError(ValueError):
    """Evaluation at the origin of a field that is singular there.

    For an array of points ``mask`` marks the singular ones; it is None for
    a single point.
    """

    def __init__(self, message, mask=None):
        super().__init__(message)
        self.mask = mask


@dataclass(frozen=True)
class FieldJet:
    """The jet at one point (float entries) or at an array of points at one
    time (ndarray entries; ``t`` stays a float)."""

    t: float
    x: float
    y: float
    alpha: float
    u1: float
    u2: float
    p: float
    alpha_t: float
    u1_t: float
    u2_t: float
    p_t: float
    alpha_x: float
    alpha_y: float
    u1_x: float
    u1_y: float
    u2_x: float
    u2_y: float
    u1_xx: float
    u1_xy: float
    u1_yy: float
    u2_xx: float
    u2_xy: float
    u2_yy: float
    p_x: float
    p_y: float
    p_xx: float
    p_yy: float


# the 24 field entries: everything but the point itself
JET_ENTRIES = tuple(f.name for f in fields(FieldJet)
                    if f.name not in ("t", "x", "y"))


class Field:
    """Base class for jet-capable fields; subclasses implement ``values``."""

    def values(self, t, x, y):
        raise NotImplementedError


def _d(z):
    # first-order dual component (0 when the result does not depend on the seed)
    if isinstance(z, Dual):
        return value(z.dot)
    return 0.0


def _d2(z):
    if isinstance(z, Dual) and isinstance(z.dot, Dual):
        return value(z.dot.dot)
    return 0.0


@np.errstate(all="ignore")
def analytic_jet(field: Field, t, x, y) -> FieldJet:
    """Jet via nested forward-mode AD: four field evaluations.

    ``x`` and ``y`` are floats or equal-length arrays of points at the one
    time ``t``; every arithmetic step is elementwise, so each array entry
    has the bits of the call at that point alone.  A field singular at
    some of the points raises :class:`SingularityError` with their mask.
    The dual components carry double-double scalars, so each returned
    entry is correct to about one ulp even where the field formulas lose
    a dozen digits to cancellation near the inner rim.  Overflow leaves
    inf or NaN entries for the gates to judge, without a warning.
    """
    t, x, y = DD.of(t), DD.of(x), DD.of(y)
    exx = field.values(t, seed2(x), y)
    eyy = field.values(t, x, seed2(y))
    sx, sy = seed_pair(x, y)
    exy = field.values(t, sx, sy)
    et = field.values(seed1(t), x, y)

    a_xx, u1_xx, u2_xx, p_xx = exx
    a_yy, u1_yy, u2_yy, p_yy = eyy
    _, u1_xy, u2_xy, _ = exy
    a_t, u1_t, u2_t, p_t = et

    entries = dict(
        alpha=value(a_xx), u1=value(u1_xx), u2=value(u2_xx), p=value(p_xx),
        alpha_t=_d(a_t), u1_t=_d(u1_t), u2_t=_d(u2_t), p_t=_d(p_t),
        alpha_x=_d(a_xx), alpha_y=_d(a_yy),
        u1_x=_d(u1_xx), u1_y=_d(u1_yy),
        u2_x=_d(u2_xx), u2_y=_d(u2_yy),
        u1_xx=_d2(u1_xx), u1_xy=_d2(u1_xy), u1_yy=_d2(u1_yy),
        u2_xx=_d2(u2_xx), u2_xy=_d2(u2_xy), u2_yy=_d2(u2_yy),
        p_x=_d(p_xx), p_y=_d(p_yy), p_xx=_d2(p_xx), p_yy=_d2(p_yy))
    x, y = value(x), value(y)
    if np.ndim(x):
        # entries that do not depend on the point come out as constants
        entries = {k: np.full(x.shape, v) if np.ndim(v) == 0 else v
                   for k, v in entries.items()}
    return FieldJet(t=value(t), x=x, y=y, **entries)


def fd_jet(field: Field, t, x, y, h) -> FieldJet:
    """Jet at one point with spatial derivatives from fourth-order central
    differences of the values.

    Time derivatives still come from the analytic path (see module note).
    """
    def comp(i):
        return lambda xx, yy: value(field.values(t, xx, yy)[i])

    a, u1, u2, p = (value(c) for c in field.values(t, x, y))
    et = field.values(seed1(t), x, y)

    def dx(f):
        return fd_derivative(lambda s: f(s, y), x, 1, 4, h)

    def dy(f):
        return fd_derivative(lambda s: f(x, s), y, 1, 4, h)

    def dxx(f):
        return fd_derivative(lambda s: f(s, y), x, 2, 4, h)

    def dyy(f):
        return fd_derivative(lambda s: f(x, s), y, 2, 4, h)

    def dxy(f):
        return fd_derivative(
            lambda sy: fd_derivative(lambda sx: f(sx, sy), x, 1, 4, h),
            y, 1, 4, h)

    fa, fu1, fu2, fp = comp(0), comp(1), comp(2), comp(3)
    return FieldJet(
        t=t, x=x, y=y, alpha=a, u1=u1, u2=u2, p=p,
        alpha_t=_d(et[0]), u1_t=_d(et[1]), u2_t=_d(et[2]), p_t=_d(et[3]),
        alpha_x=dx(fa), alpha_y=dy(fa),
        u1_x=dx(fu1), u1_y=dy(fu1), u2_x=dx(fu2), u2_y=dy(fu2),
        u1_xx=dxx(fu1), u1_xy=dxy(fu1), u1_yy=dyy(fu1),
        u2_xx=dxx(fu2), u2_xy=dxy(fu2), u2_yy=dyy(fu2),
        p_x=dx(fp), p_y=dy(fp), p_xx=dxx(fp), p_yy=dyy(fp),
    )


class AnalyticEngine:
    descriptor = "analytic"

    def jet(self, field, t, x, y):
        return analytic_jet(field, t, x, y)


@dataclass(frozen=True)
class FdEngine:
    """The finite-difference reference of ``cross_engine_check``; pick
    ``h`` in proportion to the radius of the sampled region."""

    h: float

    def jet(self, field, t, x, y):
        """:func:`fd_jet` at each of the arrays of points: the stacked jet,
        or a :class:`SingularityError` masking every point whose stencil
        touches a singularity."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        jets, mask = [], np.zeros(x.shape, dtype=bool)
        for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
            try:
                jets.append(fd_jet(field, t, xi, yi, self.h))
            except SingularityError:
                mask[i] = True
        if mask.any():
            raise SingularityError("field is singular in an FD stencil",
                                   mask)
        return FieldJet(t=t, x=x, y=y, **{
            name: np.array([getattr(j, name) for j in jets], dtype=float)
            for name in JET_ENTRIES})


JetEngine = AnalyticEngine | FdEngine


class JetProvider:
    """Binds a field to a jet engine; the unit the residual operators consume."""

    def __init__(self, field: Field, engine: JetEngine = AnalyticEngine()):
        self.field = field
        self.engine = engine

    @property
    def descriptor(self):
        return self.engine.descriptor

    def jet(self, t, x, y) -> FieldJet:
        return self.engine.jet(self.field, t, x, y)
