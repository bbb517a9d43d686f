"""Probability and energy accounting for grating diffraction orders near threshold."""

__version__ = "0.1.0"
