"""Independent evaluation of the order sums, used to check benchmark outputs.

Shares no code with the package: Si comes from ``scipy.special.sici``, the
envelope values are plain ``sin(x)/x`` in numpy without argument reduction,
and the order count is a floor in alpha-space. It reproduces the package's
default rule (orders with |alpha_j| <= alpha_t + 1e-9 propagate). Points
whose order count is a tie, within 1e-12 relative of a threshold, are not
judged (None): there the answer is the rule's tie-break, not a value.
Agreement with the package is expected to 1e-9 relative (ORACLE_RTOL in
workloads.py); the package's own Si is documented to ~1e-10 absolute.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import sici

EPS_TIE = 1e-9
TIE_RTOL = 1e-12


def order_count(alpha_t: float, sigma: float) -> int | None:
    """Largest n with n*pi*sigma <= alpha_t + EPS_TIE, or None at a tie."""
    x = (alpha_t + EPS_TIE) / (math.pi * sigma)
    n = math.floor(x)
    if abs(x - round(x)) <= TIE_RTOL * x:
        return None
    return n


def envelope_sum(n: int, sigma: float) -> float:
    """1 + 2 * sum_{j=1..n} sinc^2(j pi sigma)."""
    x = np.arange(1, n + 1, dtype=float) * (math.pi * sigma)
    return 1.0 + 2.0 * float(np.sum((np.sin(x) / x) ** 2))


def envelope_integral(alpha_t: float) -> float:
    """Integral of sinc^2 over [-alpha_t, alpha_t] = 2 (Si(2a) - sin^2(a)/a)."""
    si_2a = float(sici(2.0 * alpha_t)[0])
    return 2.0 * (si_2a - math.sin(alpha_t) ** 2 / alpha_t)


def normalized_resultant_probability(alpha_t: float, sigma: float) -> float | None:
    n = order_count(alpha_t, sigma)
    if n is None:
        return None
    return math.pi * sigma * envelope_sum(n, sigma) / envelope_integral(alpha_t)


def zero_order_share(alpha_t: float, sigma: float) -> float | None:
    n = order_count(alpha_t, sigma)
    if n is None:
        return None
    return 1.0 / envelope_sum(n, sigma)
