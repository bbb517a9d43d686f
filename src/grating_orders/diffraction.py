"""Slit and grating geometry in alpha-space, with pointwise intensity functions.

Everything downstream works in the dimensionless coordinate
alpha = (pi w / lambda) sin(theta), where w is the slit width and theta the
azimuthal angle from the grating normal. Angles enter in degrees only at the
API boundary; lengths are nanometres throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "GratingSpec",
    "alpha_from_theta",
    "truncation_alpha",
    "order_alpha",
    "equivalent_order",
    "sinc_sq",
    "sinc_sq_at_order",
    "grating_factor",
    "grating_intensity",
]

# Half-width of the series window around removable singularities, in the
# coordinate of each singular factor (alpha for the envelope, beta = alpha/sigma
# for the grating factor). Grid sampling may land arbitrarily close to a
# singularity, so a window, not an exact-equality special case.
_SERIES_WINDOW = 1e-6

# Typical irradiated-slit count at desk scale; roughly two orders of magnitude
# above the illustrative N = 4 used for envelope-plus-peaks plots.
DEFAULT_SLIT_COUNT = 257


def as_alpha(value: float) -> float:
    """Coerce a number to a validated float alpha coordinate: finite, any sign."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"alpha must be finite, got {value!r}")
    return x


class GratingSpec(namedtuple("GratingSpec",
                             "slit_width_w duty_sigma wavelength_lambda slit_count_N",
                             defaults=(DEFAULT_SLIT_COUNT,))):
    """Physical description of an irradiated transmission grating.

    Lengths in nanometres. The period follows from the slit width and the
    duty cycle sigma = w/p; sigma = 0.5 is a Ronchi ruling. Slits narrower
    than the wavelength are rejected outright: the scalar sinc^2 envelope
    model is not valid there.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.duty_sigma < 1.0:
            raise ValueError(f"duty_sigma must lie in (0, 1), got {self.duty_sigma!r}")
        for name in ("slit_width_w", "wavelength_lambda"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite length, got {v!r}")
        if self.slit_width_w < self.wavelength_lambda:
            raise ValueError(
                "sub-wavelength slit rejected: "
                f"w={self.slit_width_w!r} nm < lambda={self.wavelength_lambda!r} nm"
            )
        if not (isinstance(self.slit_count_N, int) and self.slit_count_N >= 1):
            raise ValueError(f"slit_count_N must be an integer >= 1, got {self.slit_count_N!r}")
        return self

    @property
    def period_p(self) -> float:
        """Grating period p = w / sigma, in nanometres."""
        return self.slit_width_w / self.duty_sigma

    @classmethod
    def ronchi(
        cls,
        slit_width_w: float,
        wavelength_lambda: float,
        slit_count_n: int = DEFAULT_SLIT_COUNT,
    ) -> "GratingSpec":
        """Square-wave ruling with equal slit and band widths (sigma = 0.5)."""
        return cls(slit_width_w, 0.5, wavelength_lambda, slit_count_n)

    @classmethod
    def from_truncation(
        cls,
        alpha_t: float,
        wavelength_lambda: float,
        duty_sigma: float = 0.5,
        slit_count_n: int = DEFAULT_SLIT_COUNT,
    ) -> "GratingSpec":
        """Build the grating whose envelope truncates at the given alpha_t."""
        at = as_alpha(alpha_t)
        if at <= 0:
            raise ValueError(f"alpha_t must be positive, got {at!r}")
        w = wavelength_lambda * at / math.pi
        # Name the truncation asked for, not the width derived from it; a width
        # that is not positive is left to the length check.
        if 0 < w < wavelength_lambda:
            raise ValueError(f"alpha_t={at!r} (j-equivalent {at / order_alpha(1, duty_sigma):.6f} "
                             f"at sigma={duty_sigma!r}) is below pi: sub-wavelength slit rejected")
        return cls(w, duty_sigma, wavelength_lambda, slit_count_n)


def alpha_from_theta(spec: GratingSpec, theta_deg: float) -> float:
    """Map an azimuthal angle in degrees to its alpha-space coordinate.

    Odd in theta; restricted to the physical half-space -90 <= theta <= 90.
    """
    if not -90.0 <= theta_deg <= 90.0:
        raise ValueError(f"theta must lie in [-90, 90] degrees, got {theta_deg!r}")
    scale = math.pi * spec.slit_width_w / spec.wavelength_lambda
    return scale * math.sin(math.radians(theta_deg))


def truncation_alpha(spec: GratingSpec) -> float:
    """Envelope truncation alpha_t = pi w / lambda, i.e. alpha at grazing angle."""
    return math.pi * spec.slit_width_w / spec.wavelength_lambda


def order_alpha(j: float, sigma: float) -> float:
    """Position alpha_j = j pi sigma of the j-th principal interference order.

    Evaluated as (j * pi) * sigma, for an int j or an int64 array of orders
    (the same floats while |j| < 2**53), or for a continuum order, the
    j-equivalent of a truncation point. ``orders`` takes every order
    position from here: the inclusion rule of ``propagating_orders``, and a
    curve's order counts and edge samples. So an order placed at its own
    threshold ties exactly.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    return j * math.pi * sigma


def equivalent_order(spec: GratingSpec) -> float:
    """Continuum order index of the truncation point, alpha_t / (pi sigma).

    For a Ronchi ruling this is 2 w / lambda: a non-integer "order number"
    that places the envelope edge relative to the integer orders.
    """
    return spec.slit_width_w / (spec.wavelength_lambda * spec.duty_sigma)


def _alphas(alpha):
    """A float64 array of alpha coordinates, each refused as ``as_alpha`` refuses it."""
    import numpy as np
    a = np.asarray(alpha, dtype=float)
    finite = np.isfinite(a)
    if not finite.all():
        as_alpha(float(a[~finite][0]))  # the scalar's refusal
    return a


def sinc_sq(alpha):
    """Single-slit intensity envelope (sin(alpha)/alpha)^2, in [0, 1].

    The removable singularity at alpha = 0 is evaluated by series inside a
    +-1e-6 window. Takes a float, which gives a float, or an array of alphas,
    which gives an array; one numpy body serves both, so a float's value is
    its element of an array call, bit for bit.
    """
    import numpy as np
    a = _alphas(alpha)
    # Both branches run at every point: the series overflows far out, and
    # the closed form divides by zero at 0; np.where keeps the right one.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a2 = a * a
        s = np.sin(a) / a
        v = np.where(abs(a) < _SERIES_WINDOW, 1.0 - a2 / 3.0 + 2.0 * a2 * a2 / 45.0, s * s)
    return float(v) if isinstance(alpha, (int, float)) else v


def sinc_sq_at_order(j, sigma: float):
    """Envelope value at the j-th order position, sinc^2(j pi sigma).

    Evaluates sin(pi t) with t = j sigma reduced modulo 1 before multiplying
    by pi, so order positions that are exact envelope nulls (integer t, e.g.
    even orders of a Ronchi ruling) come out as exactly 0.0 instead of
    inheriting the rounding of pi. An int gives a float by ``math`` alone,
    for the numpy-free commands, reduced by ``math.remainder`` at every t;
    ``_sinc_sq_orders``, the block body of the scalar order sums, gives the
    same float wherever its reduction holds. An int numpy array of orders
    gives the same floats elementwise (``np.float_power(q, 2.0)`` is
    ``q ** 2``; ``q * q`` is not): the body of a curve's terms, and of the
    scalar sums' blocks from ``orders._ARRAY_SUM_ORDERS`` orders up where
    numpy is loaded.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    t = j * sigma
    if not isinstance(t, float):  # an array of orders
        import numpy as np
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.sin(math.pi * (t - np.rint(t))) / (math.pi * t)
            return np.where(t == 0.0, 1.0, np.float_power(q, 2.0))
    if t == 0.0:
        return 1.0
    return (math.sin(math.pi * math.remainder(t, 1.0)) / (math.pi * t)) ** 2


# 1.5 * 2**52: t + _ROUNDER lies in [2**52, 2**53), where the doubles are the
# integers, for every |t| < 2**51, so the addition rounds t to its nearest
# integer, ties to even, and subtracting _ROUNDER again is exact.
_ROUNDER = 6755399441055744.0


def _sinc_sq_orders(orders, sigma: float) -> list[float]:
    """sinc^2(j pi sigma) at each nonzero order j of an iterable, by ``math`` alone.

    ``sinc_sq_at_order``'s formula with no function call per order but sin:
    t - ((t + _ROUNDER) - _ROUNDER) is t - round(t), exactly, which is
    remainder(t, 1) up to the sign of a zero that the square drops. It needs
    |j sigma| < 2**51, which every order sum meets, since its orders are at
    most ``orders.MAX_ORDER_TERMS`` and sigma < 1.
    """
    sin, pi, r = math.sin, math.pi, _ROUNDER
    return [(sin(pi * (t - ((t + r) - r))) / (pi * t)) ** 2 for j in orders for t in [j * sigma]]


def grating_factor(alpha, sigma: float, n_slits: int):
    """N-slit interference factor (sin(N alpha/sigma) / sin(alpha/sigma))^2.

    Principal maxima sit at alpha = j pi sigma where both sines vanish; the
    removable singularity there evaluates to N^2. The argument is reduced
    modulo pi before evaluation so the factor stays accurate arbitrarily far
    from the origin. Takes a float or an array of alphas, as ``sinc_sq`` does.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    if not (isinstance(n_slits, int) and n_slits >= 1):
        raise ValueError(f"n_slits must be an integer >= 1, got {n_slits!r}")
    n = n_slits
    window = min(_SERIES_WINDOW / sigma, 1e-3 / n)
    import numpy as np
    a = _alphas(alpha)
    with np.errstate(over="ignore"):
        beta = a / sigma
    overflow = np.isinf(beta)
    if overflow.any():
        raise ValueError(f"alpha/sigma overflows a float at alpha={float(a[overflow][0])!r}, "
                         f"sigma={sigma!r}")
    # sin(N beta)/sin(beta) is invariant (up to sign) under beta -> beta - k pi
    # for integer N and k, and the square kills the sign.
    u = beta - np.rint(beta / math.pi) * math.pi
    # As in sinc_sq: the closed form divides by zero at the maxima, and far
    # out, where beta's ulp exceeds pi, u is not small and the series overflows.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u2 = u * u
        r = np.sin(n * u) / np.sin(u)
        v = np.where(abs(u) < window, n * n * (1.0 - (n * n - 1.0) * u2 / 3.0), r * r)
    return float(v) if isinstance(alpha, (int, float)) else v


def grating_intensity(alpha, sigma: float, n_slits: int):
    """Resultant intensity of the N-slit grating: envelope times grating factor.

    Takes a float or an array of alphas, as ``sinc_sq`` does.
    """
    return sinc_sq(alpha) * grating_factor(alpha, sigma, n_slits)
