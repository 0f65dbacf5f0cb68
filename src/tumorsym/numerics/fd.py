"""Central finite-difference stencils."""

from __future__ import annotations

__all__ = ["fd_derivative"]


def fd_derivative(f, x, order=1, scheme_order=2, h=1e-5):
    """Central-difference derivative of ``f`` at ``x``.

    ``order`` is the derivative order (1 or 2), ``scheme_order`` the
    truncation order of the stencil (2 or 4).
    """
    if order == 1 and scheme_order == 2:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 1 and scheme_order == 4:
        return (-f(x + 2 * h) + 8.0 * f(x + h)
                - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
    if order == 2 and scheme_order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    if order == 2 and scheme_order == 4:
        return (-f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x)
                + 16.0 * f(x - h) - f(x - 2 * h)) / (12.0 * h * h)
    raise ValueError(f"unsupported stencil: order={order}, "
                     f"scheme_order={scheme_order}")
