"""Simulation and estimation toolkit for the Gaussian AR(1) process whose
innovations are linked to the lagged level through a Gaussian copula.

The package re-exports each library module's __all__."""

from . import dependence, errors, estimation, experiments, model, simulation
from .dependence import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimation import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (dependence, errors, estimation, experiments, model, simulation)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
