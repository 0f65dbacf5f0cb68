"""The integral family int_r^delta exp(-a z^2)/z dz.

Every closed-form pressure in the model carries integrals of this shape.
The substitution u = z^2 turns it into an exponential-integral difference,
which is the evaluation path of record; an adaptive-quadrature path is kept
as an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expi

from .dd import elementwise
from .quadrature import QuadratureSpec, quad_adaptive

__all__ = ["SingularEndpointError", "exp_over_z_integral", "exp_over_z_quadrature"]


class SingularEndpointError(ValueError):
    """Endpoint at or across the 1/z pole at the origin."""


def _check_endpoints(r, delta):
    if r <= 0.0 or delta <= 0.0:
        raise SingularEndpointError(
            f"integrand has a pole at z=0; endpoints r={r}, delta={delta} "
            "must be positive")


def exp_over_z_integral(a, r, delta):
    """int_r^delta exp(-a z^2)/z dz via the exponential-integral form.

    ``r > delta`` is allowed and flips the sign; ``a = 0`` reduces to
    ``ln(delta/r)`` exactly.  ``r`` may be an ndarray; each element of the
    result then equals the call on that element alone.
    """
    if isinstance(r, np.ndarray):
        return _exp_over_z_integral_array(a, r, delta)
    _check_endpoints(r, delta)
    if r == delta:
        return 0.0
    if a == 0.0:
        return math.log(delta / r)
    # d/du Ei(-a u) = exp(-a u)/u, so the substitution u = z^2 gives
    # 1/2 * [Ei(-a delta^2) - Ei(-a r^2)].
    return 0.5 * (expi(-a * delta * delta) - expi(-a * r * r))


def _exp_over_z_integral_array(a, r, delta):
    # the scalar branches element by element: expi is the same kernel for
    # arrays, the logarithm comes from libm, and log(delta/r) is 0 exactly
    # where r == delta
    _check_endpoints(r.min(initial=delta), delta)
    if a == 0.0:
        return elementwise(math.log, delta / r)
    return np.where(r == delta, 0.0,
                    0.5 * (expi(-a * delta * delta) - expi(-a * r * r)))


def exp_over_z_quadrature(a, r, delta, spec: QuadratureSpec | None = None):
    """Same integral by adaptive Gauss-Kronrod; the cross-check path."""
    _check_endpoints(r, delta)
    if r == delta:
        return 0.0
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_depth=50)
    val, _ = quad_adaptive(lambda z: math.exp(-a * z * z) / z, r, delta, spec)
    return val
