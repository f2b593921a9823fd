"""Sturm-Liouville solutions and spectra via Neumann series of Bessel functions.

The truncation error of the representation is uniform in the spectral
parameter, which makes the same precomputed coefficient set usable for
arbitrarily large eigenvalue indices.
"""

from .errors import (
    CacheError,
    ExpressionError,
    GridError,
    NsbfError,
    PositivityError,
    RecurrenceError,
    SeedError,
)
from .grid import (
    DEFAULT_M,
    Grid,
    cumulative_integral,
    differentiate,
    interpolate,
    sampled,
)

__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "DEFAULT_M",
    "ExpressionError",
    "Grid",
    "GridError",
    "NsbfError",
    "PositivityError",
    "RecurrenceError",
    "SeedError",
    "__version__",
    "cumulative_integral",
    "differentiate",
    "interpolate",
    "sampled",
]
