"""The envelope sum over orders -n..n in closed form, at 50 digits: the tests' oracle for it.

For 0 < a <= pi, sum_{j>=1} sin^2(j a) / j^2 = a (pi - a) / 2, so
sum_{j>=1} sinc^2(j pi sigma) = (1 - sigma) / (2 sigma) and the sum over all
orders is S(inf) = 1 / sigma. A float sigma is p / q with q a power of two, so
sin^2(j pi sigma) repeats with period q, and the tail past order n is q
Hurwitz zeta terms whatever n is:
(pi sigma q)^-2 sum_{r=1..q} sin^2((n + r) pi sigma) zeta(2, (n + r) / q).
"""
from fractions import Fraction

import mpmath

DPS = 50


def envelope_sum(n: int, sigma: float):
    """1 + 2 sum_{j=1..n} sinc^2(j pi sigma), as S(inf) less twice the tail past n."""
    q = Fraction(sigma).denominator
    with mpmath.workdps(DPS):
        x = mpmath.pi * mpmath.mpf(sigma)
        tail = mpmath.fsum(mpmath.sin((n + r) * x) ** 2 * mpmath.zeta(2, mpmath.mpf(n + r) / q)
                           for r in range(1, q + 1))
        return 1 / mpmath.mpf(sigma) - 2 * tail / (x * q) ** 2


def direct_sum(n: int, sigma: float):
    """The same sum term by term, to check the closed form at small n."""
    with mpmath.workdps(DPS):
        x = mpmath.pi * mpmath.mpf(sigma)
        return 1 + 2 * mpmath.fsum((mpmath.sin(j * x) / (j * x)) ** 2 for j in range(1, n + 1))
