"""Nearest-neighbor classification risk analysis in metric spaces.

Exact distribution-dependent quantities (probability radii, effective
interiors and boundaries, high-error sets, smoothness and margin
certificates), closed-form risk guarantees, and a seeded verification
harness for desk-scale experiments.

The package republishes each module's ``__all__``; those lists are the
only declaration of the public API.
"""

from . import boundary, bounds, classifier, distributions, errors, harness, metric
from .boundary import *
from .bounds import *
from .classifier import *
from .distributions import *
from .errors import *
from .harness import *
from .metric import *

__all__ = [
    name
    for module in (boundary, bounds, classifier, distributions, errors, harness, metric)
    for name in module.__all__
]

__version__ = "0.1.0"
