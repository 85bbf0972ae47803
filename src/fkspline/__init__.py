"""Free-knot B-spline smoothing for samples of curves.

The pieces, roughly in dependency order: B-spline bases (`basis`),
derivative roughness penalties (`penalty`), the penalized least squares
smoother with GCV diagnostics (`smoother`), error metrics against a known
truth (`metrics`), knot placement via an unconstrained log-gap
parametrization (`freeknot`), penalty weight selection (`lambda_select`),
a four-group synthetic benchmark (`simulate`), curve clustering in the
fitted coefficient space (`cluster`), and CSV ingestion (`ingest`).

Each module's `__all__` declares its public names; the package exports
their union, so a name is made public in one place.
"""

from . import (basis, cluster, data, errors, freeknot, ingest, lambda_select, metrics, penalty,
               simulate, smoother)
from .basis import *
from .cluster import *
from .data import *
from .errors import *
from .freeknot import *
from .ingest import *
from .lambda_select import *
from .metrics import *
from .penalty import *
from .simulate import *
from .smoother import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, data, basis, penalty, smoother, metrics, freeknot,
                               lambda_select, simulate, cluster, ingest)
           for name in module.__all__]
