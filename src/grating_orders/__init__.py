"""Probability and energy accounting for grating diffraction orders near threshold."""

__version__ = "0.1.0"

from . import coupling, diffraction, orders, quadrature
from .diffraction import *
from .quadrature import *
from .orders import *
from .coupling import *

__all__ = [
    "__version__",
    *diffraction.__all__,
    *quadrature.__all__,
    *orders.__all__,
    *coupling.__all__,
]
