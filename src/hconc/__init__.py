"""Numerical toolkit for the Hankel-transform concentration machinery:
normalized Bessel kernels, the weighted measure mu_alpha on the half-line and
windowed density profiles, the Fourier-Bessel transform, generalized
translation, bandlimited (Paley-Wiener) models with Bernstein bounds,
projection-pair norms, and energy-concentration experiments.
"""

__version__ = "0.1.0"

from .bessel import (
    Order,
    certify_bound,
    eval_j,
    zeros_of_j_prime,
)
from .errors import (
    ConvergenceError,
    DomainError,
    HconcError,
    InternalError,
    UsageError,
)
from .measure import (
    IntervalSet,
    density_profile,
    mu_measure,
)

__all__ = [
    "__version__",
    "Order",
    "eval_j",
    "zeros_of_j_prime",
    "certify_bound",
    "IntervalSet",
    "mu_measure",
    "density_profile",
    "HconcError",
    "DomainError",
    "UsageError",
    "InternalError",
    "ConvergenceError",
]
