"""Shared numerical kernels: forward-mode AD (degree-2 Taylor numbers and
first-order duals), adaptive quadrature, the
exp(-a z^2)/z integral family, an embedded Runge-Kutta integrator,
and finite-difference stencils."""

from . import dual
from .dual import Dual, Taylor
from .fd import fd_derivative
from .ode import IntegrationError, OdeSpec, Trajectory, ode_integrate
from .quadrature import QuadratureError, QuadratureSpec, quad_adaptive
from .special import (SingularEndpointError, exp_over_z_integral,
                      exp_over_z_quadrature)

__all__ = [
    "Dual", "Taylor", "dual",
    "fd_derivative",
    "IntegrationError", "OdeSpec", "Trajectory", "ode_integrate",
    "QuadratureError", "QuadratureSpec", "quad_adaptive",
    "SingularEndpointError", "exp_over_z_integral", "exp_over_z_quadrature",
]

