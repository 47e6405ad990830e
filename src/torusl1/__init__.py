"""Numerical toolkit for L1 behavior of convex-coefficient cosine series.

Kernels (Dirichlet, Fejer), coefficient families, partial sums via a
summed-by-parts Fejer representation, oscillation-aware quadrature over
interval unions on the torus, kernel extrema tables, witness sets for
failure of uniform integrability, and finite-trace convergence verdicts.

Each module lists its public names in its own __all__; the package
exports their union.
"""

from . import (coefficients, diagnostics, exceptional, extrema, intervals,
               kernels, partial_sums, quadrature)
from .kernels import *
from .coefficients import *
from .intervals import *
from .partial_sums import *
from .quadrature import *
from .extrema import *
from .exceptional import *
from .diagnostics import *

__version__ = "0.1.0"

__all__ = [*kernels.__all__, *coefficients.__all__, *intervals.__all__,
           *partial_sums.__all__, *quadrature.__all__, *extrema.__all__,
           *exceptional.__all__, *diagnostics.__all__]
