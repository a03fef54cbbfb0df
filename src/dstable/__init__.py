"""Lattice-valued heavy-tailed distributions: exact characteristic functions,
compound-Poisson samplers, Fourier-inversion PMFs, and convergence diagnostics.

Six families live on the lattice aZ: a symmetric power-tail family, its
jump-truncated variant, a skewed discrete-stable family, its exponentially
tempered variant, and a polylogarithmic pair. Each exposes an exact CF, a
jump decomposition, exact samplers, and inversion-based PMFs, plus the
verification experiments that tie them to their continuous stable limits.
"""

from . import analysis, errors, families, inversion, sampling, special
from .analysis import *
from .errors import *
from .families import *
from .inversion import *
from .sampling import *
from .special import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *families.__all__, *special.__all__,
           *inversion.__all__, *sampling.__all__, *analysis.__all__]
