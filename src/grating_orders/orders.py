"""Output and resultant probability accounting for grating diffraction orders.

The resultant probability of an N-slit grating is a Riemann-style sum of
strips pi*sigma*N*sinc^2(alpha_j) over the propagating orders; the output
probability is the corresponding envelope integral N * int sinc^2 over
[-alpha_t, alpha_t]. Their ratio (N cancels) is the normalized resultant
probability: identically close to 1 under dense sampling (sigma -> 0), but
stepping discontinuously at order thresholds under sparse sampling
(sigma = 0.5), where the reciprocal is the occupation value of the orders.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .diffraction import (
    GratingSpec,
    as_alpha,
    sinc_sq_at_order,
    truncation_alpha,
)
from .quadrature import Interval, sinc_sq_integral

__all__ = [
    "CurveKind",
    "ProbabilityCurve",
    "OrderRow",
    "OrderTable",
    "propagating_orders",
    "output_probability",
    "resultant_sum",
    "normalized_resultant_probability",
    "order_probability",
    "occupation_value",
    "omega_from_delta_p",
    "zero_order_share",
    "zero_order_energy",
    "order_table",
    "curve",
]

# Displacement used to render the two one-sided limits of a threshold
# discontinuity; physical beams only approximate a true mathematical
# discontinuity, so a pair of nearby samples is the honest representation.
# The same offset places the CLI's 'j-'/'j+' truncations and fig8's pair.
EDGE_OFFSET = 1e-6

# Absolute tolerance by which an order sitting just above truncation is still
# admitted, so an order placed at its own threshold ties inclusively.
EPS_TIE = 1e-9

# Most order terms one sum may take. ``propagating_orders`` refuses an alpha_t
# that admits more orders, so no scalar function or ``order_table`` starts a
# longer sum; ``curve`` refuses a request whose estimate, every order up to
# the top of the range once per sample, exceeds it.
MAX_ORDER_TERMS = 10**7


class CurveKind(str, enum.Enum):
    RESULTANT_PROBABILITY = "resultant_probability"
    OCCUPATION = "occupation"
    ZERO_ORDER_SHARE = "zero_order_share"
    ZERO_ORDER_ENERGY = "zero_order_energy"


@dataclass(frozen=True)
class ProbabilityCurve:
    """A sampled scalar function of alpha_t (the universal figure-data carrier)."""

    abscissa: np.ndarray
    ordinate: np.ndarray
    kind: CurveKind

    def __post_init__(self) -> None:
        a = np.asarray(self.abscissa, dtype=float)
        o = np.asarray(self.ordinate, dtype=float)
        if a.shape != o.shape or a.ndim != 1 or a.size < 1:
            raise ValueError("abscissa and ordinate must be equal-length 1-D arrays")
        if not np.all(np.diff(a) > 0):
            raise ValueError("abscissa must be strictly increasing")
        if not (np.all(np.isfinite(o)) and np.all(o > 0)):
            raise ValueError("ordinate values must be finite and positive")
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "ordinate", o)


def propagating_orders(alpha_t: float, sigma: float) -> range:
    """Symmetric set {-n, ..., n} of orders admitted below truncation, as a range.

    Order j is admitted when j * pi * sigma, the expression ``order_alpha``
    evaluates, is at most the cap alpha_t + EPS_TIE, so an order sitting
    exactly at alpha_t counts. Positions never decrease with j, so the two
    walks from the estimate cap / (pi sigma), which test that one condition,
    stop at the last admitted order. An alpha_t that admits order
    MAX_ORDER_TERMS + 1 is refused before the walks, which past about 2**53
    orders would no longer advance.
    """
    at = as_alpha(alpha_t)
    if at <= 0:
        raise ValueError(f"alpha_t must be positive, got {at!r}")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    cap = at + EPS_TIE
    if (MAX_ORDER_TERMS + 1) * math.pi * sigma <= cap:
        raise ValueError(
            f"alpha_t={at!r} admits more than {MAX_ORDER_TERMS:.3g} order terms "
            f"at sigma={sigma!r}"
        )
    n = int(cap / (math.pi * sigma))
    while (n + 1) * math.pi * sigma <= cap:
        n += 1
    while n * math.pi * sigma > cap:  # stops at order 0, whose position 0.0 is within any cap
        n -= 1
    return range(-n, n + 1)


def _envelope_sum(alpha_t: float, sigma: float) -> float:
    n = propagating_orders(alpha_t, sigma)[-1]
    return 1.0 + 2.0 * math.fsum(sinc_sq_at_order(j, sigma) for j in range(1, n + 1))


def _order_terms(n: int, sigma: float) -> array:
    """sinc^2 at orders 0..n, indexed by |j|, stored at 8 bytes each."""
    return array("d", (sinc_sq_at_order(j, sigma) for j in range(n + 1)))


def _normalized(at: float, sigma: float, envelope: float) -> float:
    return math.pi * sigma * envelope / sinc_sq_integral(Interval(-at, at))


def _occupation(at: float, sigma: float, envelope: float) -> float:
    return 1.0 / _normalized(at, sigma, envelope)


def _share(at: float, sigma: float, envelope: float) -> float:
    return 1.0 / envelope


def output_probability(alpha_t: float, n_slits: int) -> float:
    """Collective pre-interference output probability N * int sinc^2 over +-alpha_t."""
    at = as_alpha(alpha_t)
    if at <= 0:
        raise ValueError(f"alpha_t must be positive, got {at!r}")
    if n_slits < 1:
        raise ValueError(f"n_slits must be >= 1, got {n_slits!r}")
    return n_slits * sinc_sq_integral(Interval(-at, at))


def resultant_sum(alpha_t: float, sigma: float, n_slits: int) -> float:
    """Total resultant probability: strip sum pi sigma N sinc^2(alpha_j) over orders."""
    if n_slits < 1:
        raise ValueError(f"n_slits must be >= 1, got {n_slits!r}")
    at = as_alpha(alpha_t)
    return math.pi * sigma * n_slits * _envelope_sum(at, sigma)


def normalized_resultant_probability(alpha_t: float, sigma: float) -> float:
    """Resultant probability normalized by output probability (N cancels).

    Requires alpha_t >= pi sigma, i.e. at least the 0th order propagating with
    a full strip of margin; below that the strip sum is not a meaningful
    Riemann approximation of the envelope integral.
    """
    at = as_alpha(alpha_t)
    if at < math.pi * sigma:
        raise ValueError(
            f"alpha_t={at!r} below pi*sigma={math.pi * sigma!r}; "
            "normalized resultant probability is defined for alpha_t >= pi*sigma"
        )
    return _normalized(at, sigma, _envelope_sum(at, sigma))


def order_probability(j: int, alpha_t: float, sigma: float) -> float:
    """Normalized resultant probability carried by the single order j."""
    at = as_alpha(alpha_t)
    orders = propagating_orders(at, sigma)
    if j not in orders:
        raise ValueError(f"order j={j} is not propagating at alpha_t={at!r} (|j| <= {orders[-1]})")
    return math.pi * sigma * sinc_sq_at_order(j, sigma) / sinc_sq_integral(Interval(-at, at))


def occupation_value(alpha_t: float, sigma: float) -> float:
    """Energy-to-probability ratio of the propagating orders.

    With output energy conserved onto the resultants, this is the exact
    reciprocal of the normalized resultant probability: above 1 the orders are
    enriched, below 1 depleted, 1 is ordinary.
    """
    return 1.0 / normalized_resultant_probability(alpha_t, sigma)


def omega_from_delta_p(delta_p: float, p_o: float, sign: str) -> float:
    """Occupation value implied by a probability excursion delta_p on base p_o.

    ``sign='created'`` means the resultant gained probability (occupation
    drops below 1); ``'annihilated'`` means it lost probability (occupation
    rises above 1).
    """
    if not p_o > 0:
        raise ValueError(f"p_o must be positive, got {p_o!r}")
    if delta_p < 0:
        raise ValueError(f"delta_p must be >= 0, got {delta_p!r}")
    if sign == "created":
        return 1.0 / (1.0 + delta_p / p_o)
    if sign == "annihilated":
        if delta_p >= p_o:
            raise ValueError(f"annihilated delta_p={delta_p!r} must be < p_o={p_o!r}")
        return 1.0 / (1.0 - delta_p / p_o)
    raise ValueError(f"sign must be 'created' or 'annihilated', got {sign!r}")


def zero_order_share(alpha_t: float, sigma: float) -> float:
    """Fraction of the total resultant probability carried by the 0th order.

    Piecewise constant in alpha_t: the strip factors cancel, leaving
    1 / sum_j sinc^2(alpha_j), which changes only when the propagating set
    changes, and only at orders that are not envelope nulls.
    """
    at = as_alpha(alpha_t)
    return _share(at, sigma, _envelope_sum(at, sigma))


def zero_order_energy(alpha_t: float, sigma: float, e_o: float = 1.0) -> float:
    """Energy equilibrated onto the 0th order out of total output energy e_o.

    Energy distributes across the propagating orders in proportion to their
    probabilities, so the 0th-order energy is e_o times its probability share;
    the step-downs as orders reach threshold are the anomaly edges.
    """
    if not e_o > 0:
        raise ValueError(f"e_o must be positive, got {e_o!r}")
    return e_o * zero_order_share(alpha_t, sigma)


@dataclass(frozen=True)
class OrderRow:
    j: int
    p_rj: float
    energy_share: float
    omega_j: float


@dataclass(frozen=True)
class OrderTable:
    """Per-order probability, energy share and occupation for one grating."""

    grating: GratingSpec
    rows: tuple[OrderRow, ...]
    p_r: float
    e_r: float
    omega: float


def order_table(spec: GratingSpec) -> OrderTable:
    """Tabulate every propagating order of the grating.

    Rows are symmetric in +-j; orders at envelope nulls are listed with zero
    probability rather than omitted. Energy shares are probability shares
    (energy equilibrates in proportion to probability), so each row's
    energy-to-probability ratio is the table occupation; null rows carry that
    common value by convention. Defined for any duty cycle, although sigma
    away from 0.5 steps outside the square-wave-ruling setting the table is
    normally read in.
    """
    at = truncation_alpha(spec)
    sigma = spec.duty_sigma
    orders = propagating_orders(at, sigma)
    denom = sinc_sq_integral(Interval(-at, at))
    # Each |j| is evaluated once; sinc^2 is even in j bit for bit.
    p_abs = [math.pi * sigma * term / denom for term in _order_terms(orders[-1], sigma)]
    p_r = math.fsum(p_abs[abs(j)] for j in orders)
    omega = 1.0 / p_r
    rows = []
    for j in orders:
        p = p_abs[abs(j)]
        share = p / p_r
        rows.append(OrderRow(j=j, p_rj=p, energy_share=share, omega_j=share / p if p > 0 else omega))
    e_r = math.fsum(r.energy_share for r in rows)
    return OrderTable(grating=spec, rows=tuple(rows), p_r=p_r, e_r=e_r, omega=omega)


# Each kind as f(alpha_t, sigma, envelope), the arithmetic its public scalar
# applies to the same envelope sum.
_CURVE_FUNCS = {
    CurveKind.RESULTANT_PROBABILITY: _normalized,
    CurveKind.OCCUPATION: _occupation,
    CurveKind.ZERO_ORDER_SHARE: _share,
    CurveKind.ZERO_ORDER_ENERGY: _share,  # at unit total output energy
}


def curve(
    kind: CurveKind | str,
    sigma: float,
    alpha_range: tuple[float, float],
    samples: int,
) -> ProbabilityCurve:
    """Sample one of the alpha_t-dependent scalars on a dense grid.

    A pair of samples at alpha_j -+ 1e-6 is inserted around every order
    position inside the range so threshold discontinuities are resolved as
    two-sided limits instead of being aliased by the background grid. A
    request whose order sum would exceed MAX_ORDER_TERMS terms is refused.

    Every ordinate equals the scalar function at its abscissa bit for bit:
    each order's sinc^2 is evaluated once per call, and each distinct order
    count n gets the scalar's correctly rounded sum of the first n terms.
    """
    kind = CurveKind(kind)
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"alpha_range must be finite with lo < hi, got ({lo!r}, {hi!r})")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    if lo <= 0:
        raise ValueError(f"alpha_range must be positive, got lo={lo!r}")
    if kind in (CurveKind.RESULTANT_PROBABILITY, CurveKind.OCCUPATION) and lo < math.pi * sigma:
        raise ValueError(
            f"{kind.value} curves require alpha_range within [pi*sigma, inf); "
            f"got lo={lo!r} < {math.pi * sigma!r}"
        )
    # Every background sample and the two edge samples of each order in the
    # range sum up to hi / (pi sigma) orders, and cost at least one term. The
    # first test keeps an int too large for a float out of the product.
    step = math.pi * sigma
    orders_per_point = max(1.0, hi / step)
    if (
        samples > MAX_ORDER_TERMS
        or (samples + 2.0 * (hi - lo) / step) * orders_per_point > MAX_ORDER_TERMS
    ):
        raise ValueError(
            f"curve would sum more than {MAX_ORDER_TERMS:.3g} order terms; "
            "narrow the range or use fewer samples"
        )

    grid = np.linspace(lo, hi, samples)
    # Only orders near [lo, hi] are generated; j * pi * sigma rounds exactly
    # as order_alpha does, so the masks below see the true order positions.
    j = np.arange(max(1, math.floor(lo / step)), math.ceil(hi / step) + 1)
    aj = j * math.pi * sigma
    aj = aj[(aj > lo) & (aj < hi)]
    below = aj - EDGE_OFFSET
    above = aj + EDGE_OFFSET
    pts = np.unique(np.concatenate([grid, below[below > lo], above[above < hi]]))

    alphas = pts.tolist()
    counts = [propagating_orders(at, sigma)[-1] for at in alphas]
    terms = _order_terms(max(counts), sigma)
    envelopes = {n: 1.0 + 2.0 * math.fsum(islice(terms, 1, n + 1)) for n in set(counts)}
    f = _CURVE_FUNCS[kind]
    values = np.array([f(at, sigma, envelopes[n]) for at, n in zip(alphas, counts)])
    return ProbabilityCurve(abscissa=pts, ordinate=values, kind=kind)
