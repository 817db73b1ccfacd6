"""Partially adaptive momentum optimizers, synthetic stochastic problems,
a deterministic run harness, and executable checks of the convergence
guarantee behind the method."""

from . import harness, optim, problems, theory
from .harness import *  # noqa: F401,F403
from .optim import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .theory import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*harness.__all__, *optim.__all__, *problems.__all__,
           *theory.__all__, "__version__"]
