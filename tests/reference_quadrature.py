"""The tests' second route to the package's integrals: composite Gauss-Legendre, fsum-summed."""
import math

import numpy as np


def gauss_legendre(f, lo, hi, width=1.0):
    """Integral over [lo, hi] of f, which maps arrays: 20 points per panel of width <= width."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / width)) + 1)
    half = np.diff(edges)[:, None] / 2.0
    return math.fsum((half * weights * f(edges[:-1, None] + half * (1.0 + nodes))).ravel())


def sinc_plain(x):
    return np.sinc(x / np.pi)  # sin(x)/x, with its limit 1 at 0, by numpy alone


def sinc_sq_plain(x):
    return sinc_plain(x) ** 2
