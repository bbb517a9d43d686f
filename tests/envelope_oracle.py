"""The envelope sum over orders -n..n in closed form, at 50 digits: the tests' oracle for it.

For 0 < a <= pi, sum_{j>=1} sin^2(j a) / j^2 = a (pi - a) / 2, so
sum_{j>=1} sinc^2(j pi sigma) = (1 - sigma) / (2 sigma) and the sum over all
orders is S(inf) = 1 / sigma. A float sigma is p / q with q a power of two, so
sin^2(j pi sigma) repeats with period q, and the tail past order n is q
Hurwitz zeta terms whatever n is:
(pi sigma q)^-2 sum_{r=1..q} sin^2((n + r) pi sigma) zeta(2, (n + r) / q).
That costs q terms, and q is 2**54 for a float such as 0.3. The Lerch form
costs the same at any sigma: with sin^2 = (1 - cos 2 j pi sigma) / 2 the tail
is T = [psi'(n + 1) - Re(e^{i (n+1) theta} Phi(e^{i theta}, 2, n + 1))] /
(2 pi^2 sigma^2), theta = 2 pi sigma, and S(n) = 1 / sigma - 2 T.
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


def lerch_sum(n: int, sigma: float):
    """The same sum at any float sigma in (0, 1], as 1 / sigma less twice the Lerch-form tail."""
    with mpmath.workdps(DPS):
        sigma = mpmath.mpf(sigma)
        # e^{i (n+1) theta} Phi(e^{i theta}, 2, n + 1), with theta = 2 pi sigma
        lerch = mpmath.expjpi(2 * (n + 1) * sigma) * mpmath.lerchphi(mpmath.expjpi(2 * sigma), 2, n + 1)
        tail = (mpmath.psi(1, n + 1) - mpmath.re(lerch)) / (2 * (mpmath.pi * sigma) ** 2)
        return 1 / sigma - 2 * tail


def direct_sum(n: int, sigma: float):
    """The same sum term by term, to check the closed form at small n."""
    with mpmath.workdps(DPS):
        x = mpmath.pi * mpmath.mpf(sigma)
        return 1 + 2 * mpmath.fsum((mpmath.sin(j * x) / (j * x)) ** 2 for j in range(1, n + 1))
