"""Verification library for a moving-boundary tumour-growth model.

Closed-form solution families of the (1+2)-dimensional model, the Lie
group actions that generate them, symmetry reductions to radial profiles,
and independent residual checks of all of the above.
"""

from .core_model import (ConstitutiveTriplet, DomainError, GeneralTriplet,
                         PhysConstants, PowerLawParams, PowerLawTriplet,
                         s0_link)
from .jets import AnalyticEngine, FdEngine, Field, FieldJet, JetProvider, \
    analytic_jet, fd_jet
from .reduction import (ReducedProfiles, integrate_ode_4_6, lift_profiles,
                        pressure_from_lambda, reduced_bc_residual,
                        reduced_ode_residual)
from .residuals import (ResidualReport, SampleSet, cross_engine_check,
                        governing_and_front_residuals, governing_residual)
from .solutions import (FAMILY_IDS, BoundaryCircle, Full413, Moving442,
                        Moving444, RestrictionError, SingularityError,
                        Stationary413s, Steady432, reduced_profiles_of)
from .symmetry import (Galilei, InapplicableSymmetryError, PressureShift,
                       Rotation, Scale, TimeTranslation, TransformedField,
                       orbit_residual)

__version__ = "1.0.0"
