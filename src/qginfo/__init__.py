"""Information measures of generalized Gaussian densities.

Closed-form Renyi/Tsallis entropies, elliptic moments, and generalized
Fisher information for the radial power-law family, cross-checked against
quadrature on arbitrary radial densities; sharp information inequalities
with equality detection; exact sampling from numpy's gamma and beta
generators; and a constrained
variational solver that recovers the extremal profile.
"""

from . import errors, inequalities, measures, qgaussian, sampling, special, variational
from .errors import *  # noqa: F403
from .inequalities import *  # noqa: F403
from .measures import *  # noqa: F403
from .qgaussian import *  # noqa: F403
from .sampling import *  # noqa: F403
from .special import *  # noqa: F403
from .variational import *  # noqa: F403

__version__ = "1.0.0"

__all__ = sorted(
    name
    for module in (errors, inequalities, measures, qgaussian, sampling, special, variational)
    for name in module.__all__
)
