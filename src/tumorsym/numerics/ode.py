"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4)).

Scalar or vector first-order systems; dense output by cubic Hermite
interpolation on the accepted steps.  Integration may run with ``r1 < r0``
(the independent variable decreases).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["OdeSpec", "IntegrationError", "Trajectory", "ode_integrate"]


@dataclass(frozen=True)
class OdeSpec:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 100_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


class IntegrationError(RuntimeError):
    """Step underflow or step budget exhausted; carries the partial result."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


# Dormand-Prince 5(4) tableau.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


class Trajectory:
    """Dense ODE solution: callable on any point inside the integrated span."""

    def __init__(self, ts, ys, fs):
        self.ts = list(ts)
        self.ys = [np.asarray(y, dtype=float) for y in ys]
        self.fs = [np.asarray(f, dtype=float) for f in fs]
        # search keys ascend in both directions: the times, or their
        # negations when the independent variable decreases
        self._sign = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        self._keys = [self._sign * v for v in self.ts]

    def __call__(self, t):
        ts, keys, key = self.ts, self._keys, self._sign * t
        if not keys[0] <= key <= keys[-1]:
            raise ValueError(f"t={t} outside trajectory span {ts[0]}..{ts[-1]}")
        i = bisect_right(keys, key) - 1
        i = min(max(i, 0), len(ts) - 2)
        t0, t1 = ts[i], ts[i + 1]
        h = t1 - t0
        if h == 0.0:
            return self.ys[i].copy()
        s = (t - t0) / h
        y0, y1 = self.ys[i], self.ys[i + 1]
        f0, f1 = self.fs[i], self.fs[i + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def ode_integrate(rhs, y0, r0, r1, spec: OdeSpec = OdeSpec()) -> Trajectory:
    """Integrate ``y' = rhs(r, y)`` from r0 to r1 with adaptive steps."""
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if r0 == r1:
        f = np.atleast_1d(np.asarray(rhs(r0, y), dtype=float))
        return Trajectory([r0, r1], [y, y], [f, f])

    direction = 1.0 if r1 > r0 else -1.0
    span = abs(r1 - r0)
    h = direction * (span / 100.0)

    t = r0
    f = np.atleast_1d(np.asarray(rhs(t, y), dtype=float))
    ts, ys, fs = [t], [y.copy()], [f.copy()]
    k = [np.zeros_like(y) for _ in range(7)]

    for _ in range(spec.max_steps):
        if direction * (t + h - r1) > 0.0:
            h = r1 - t
        k[0] = f
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_A[i]):
                yi = yi + h * a * k[j]
            k[i] = np.atleast_1d(np.asarray(rhs(t + _C[i] * h, yi), dtype=float))
        y5 = y.copy()
        for i in range(7):
            y5 = y5 + h * _B5[i] * k[i]
        err = np.zeros_like(y)
        for i in range(7):
            err = err + h * (_B5[i] - _B4[i]) * k[i]
        scale = spec.abs_tol + spec.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))

        if enorm <= 1.0:
            t = t + h
            y = y5
            f = k[6].copy()  # FSAL: stage 7 is rhs at the new point
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
            if t == r1:
                return Trajectory(ts, ys, fs)
        factor = 0.9 * enorm ** -0.2 if enorm > 0.0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < 1e-15 * max(abs(t), 1.0):
            raise IntegrationError("step size underflow",
                                   Trajectory(ts, ys, fs))
    raise IntegrationError("max_steps exhausted", Trajectory(ts, ys, fs))
