"""Central finite-difference stencils."""

from __future__ import annotations

__all__ = ["fd_derivative"]


def fd_derivative(f, x, order=1, h=1e-5):
    """Fourth-order central-difference derivative of ``f`` at ``x``;
    ``order`` is the derivative order (1 or 2)."""
    if order == 1:
        return (-f(x + 2 * h) + 8.0 * f(x + h)
                - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
    if order == 2:
        return (-f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x)
                + 16.0 * f(x - h) - f(x - 2 * h)) / (12.0 * h * h)
    raise ValueError(f"unsupported stencil: order={order}")
