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

import math
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import chain

from .diffraction import (
    GratingSpec,
    _sinc_sq_orders,
    as_alpha,
    order_alpha,
    sinc_sq_at_order,
    truncation_alpha,
)
from .quadrature import _SUM_BLOCK, fsum_prefixes, sinc_sq_integral

__all__ = [
    "CURVE_KINDS",
    "ProbabilityCurve",
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

# Units in the last place of alpha_t by which the tie grows where EPS_TIE is
# lost in rounding (alpha_t >= 2**24, where alpha_t + 1e-9 == alpha_t). A
# grating built at its own threshold, with w = j sigma lambda in any order
# of operations, lands at most 3 ulp below the position of order j (1.6e6
# random constructions, j up to 1e7). Where an order sum is admitted, 4 ulp stay
# below 9e-9 pi sigma, far inside the eighth of the spacing that bounds the
# tie, except at subnormal sigma, where that eighth caps them.
TIE_ULPS = 4.0

# Most order terms one sum may take. ``propagating_orders`` refuses an alpha_t
# that admits more orders, so no scalar function, table or curve starts a
# longer sum.
MAX_ORDER_TERMS = 10**7

# Most points one request may hold: the rows of an ``order_table`` (signed
# orders), the points of a ``curve``, the rows of a fig3/4/5 intensity
# section and the samples of a ``coupling`` pulse train. Peak RSS and CPU of
# the largest admitted CLI request of each kind, CSV/JSON (Python 3.11, numpy
# 2.4, 2-core x86-64 Linux, median of 3 to 5 runs; CPU varies by about 15%
# between runs): a 1e6-point curve 167/209 MB, 3.0/3.0 s (continued-fraction
# Si; 167/209-240 MB, 3.0/3.3 s by the series), a 20-point curve at 1e7 orders
# 109/109 MB, 0.7/0.7 s, an 8e5-point curve from order 9.6e6 to 1e7 with 4e5
# distinct order counts 190/191 MB, 2.3/2.2 s, a 1e6-row fig3 190/233 MB,
# 2.4/2.4 s, a 999,999-row table 27/28 MB, 2.6/2.6 s, and a 31,250-cycle
# experiment 51 MB, 0.2 s.
MAX_POINTS = 10**6


# Neither the tie tolerance nor a curve's edge offset may reach the next
# order, so the edge is capped at a quarter of the order spacing pi*sigma and
# the tie at an eighth, so that the tie above a below-edge sample
# alpha_j - pi sigma / 4 stops short of alpha_j. The caps bind only below
# sigma ~ 2.5e-9 (tie) and ~ 1.3e-6 (edge).
def _tie_at(alpha_t, sigma: float):
    """The tie in effect at alpha_t: how far above it an order is still admitted.

    The larger of EPS_TIE and TIE_ULPS ulp of alpha_t, capped at pi sigma / 8.
    A float gives a float by ``math``; a positive float64 array, the same
    floats elementwise.
    """
    if isinstance(alpha_t, (int, float)):
        return min(max(EPS_TIE, TIE_ULPS * math.ulp(alpha_t)), math.pi * sigma / 8)
    import numpy as np
    return np.minimum(np.maximum(EPS_TIE, TIE_ULPS * np.spacing(alpha_t)), math.pi * sigma / 8)


def _cap(alpha_t, sigma: float):
    """The highest order position admitted at alpha_t: the one inclusion rule."""
    return alpha_t + _tie_at(alpha_t, sigma)


def _edge(sigma: float) -> float:
    return min(EDGE_OFFSET, math.pi * sigma / 4)


class ProbabilityCurve(namedtuple("ProbabilityCurve", "abscissa ordinate")):
    """A sampled scalar function of alpha_t: two equal-length float64 arrays."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, abscissa, ordinate):
        import numpy as np
        a = np.asarray(abscissa, dtype=float)
        o = np.asarray(ordinate, dtype=float)
        if a.shape != o.shape or a.ndim != 1 or a.size < 1:
            raise ValueError("abscissa and ordinate must be equal-length 1-D arrays")
        if not np.all(np.diff(a) > 0):
            raise ValueError("abscissa must be strictly increasing")
        if not (np.all(np.isfinite(o)) and np.all(o > 0)):
            raise ValueError("ordinate values must be finite and positive")
        return super().__new__(cls, a, o)


def propagating_orders(alpha_t: float, sigma: float) -> range:
    """Symmetric set {-n, ..., n} of orders admitted below truncation, as a range.

    Order j is admitted when its position ``order_alpha(j, sigma)`` is at
    most the cap alpha_t + tie, so an order sitting exactly at alpha_t, or
    a few ulp above it, counts. The tie is EPS_TIE, or TIE_ULPS ulp of
    alpha_t where that is larger (from alpha_t ~ 2**21), and never more
    than an eighth of the order spacing, pi sigma / 8, so it reaches
    neither the next order nor, from a curve's below-edge sample a quarter
    spacing under order j, order j itself; that cap binds below
    sigma ~ 2.5e-9, over the ulp floor only at subnormal sigma. This is the
    one inclusion rule.
    Positions never decrease with j, so the two walks from the estimate
    cap / (pi sigma), which test that one condition, stop at the last
    admitted order. An alpha_t that admits order
    MAX_ORDER_TERMS + 1 is refused before the walks, which past about 2**53
    orders would no longer advance.
    """
    at = as_alpha(alpha_t)
    if at <= 0:
        raise ValueError(f"alpha_t must be positive, got {at!r}")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    cap = _cap(at, sigma)
    if order_alpha(MAX_ORDER_TERMS + 1, sigma) <= cap:
        raise ValueError(
            f"alpha_t={at!r} admits more than {MAX_ORDER_TERMS:.3g} order terms "
            f"at sigma={sigma!r}"
        )
    n = int(cap / (math.pi * sigma))
    while order_alpha(n + 1, sigma) <= cap:
        n += 1
    while order_alpha(n, sigma) > cap:  # stops at order 0, whose position 0.0 is within any cap
        n -= 1
    return range(-n, n + 1)


def _order_counts(alphas: np.ndarray, sigma: float, n_min: int, n_max: int) -> np.ndarray:
    """propagating_orders(at, sigma)[-1] at every alpha_t of a positive array.

    n_min and n_max are the scalar rule's counts at the array's least and
    greatest alpha_t; every cap lies in [pos(n_min), pos(n_max + 1)), and
    positions never decrease with j, so the last position <= cap, found by
    one sorted search with the scalar's own float comparison, is each
    point's count.
    """
    import numpy as np
    j = np.arange(n_min, n_max + 2)
    return j[np.searchsorted(order_alpha(j, sigma), _cap(alphas, sigma), side="right") - 1]


# Envelope sums kept by ``_envelope_sum``, each entry about 220 bytes.
_ENVELOPE_MEMO_SIZE = 128

# Orders per list of terms in the scalar order sums. A list takes 32 bytes a
# term, a float object and its pointer, and the interpreter keeps freed
# floats, so lists of _SUM_BLOCK terms (2 MB) raised a process's peak RSS by
# about 3 MB; lists of 4096 add about 0.3 MB and cost no more time.
_ORDER_BLOCK = 4096


@lru_cache(maxsize=_ENVELOPE_MEMO_SIZE, typed=True)
def _envelope_sum(n: int, sigma: float) -> float:
    """sum_j sinc^2(alpha_j) over the orders -n..n, remembered by (n, sigma).

    The sum depends on alpha_t only through its order count n, so one entry
    serves every alpha_t between two thresholds, and a grating's second
    scalar costs a lookup. The key is typed, so a float64 sigma keeps its
    own entry; a hit returns the float that the fsum returned. The terms
    come from ``_sinc_sq_orders`` in blocks of _ORDER_BLOCK orders. Within
    2 ulp of the exact sum at the float sigma (1.25 measured, at dyadic
    sigma 1/2, 3/8 and 1/16 and up to 1e6 orders, against the closed form
    in tests/envelope_oracle.py).
    """
    return 1.0 + 2.0 * math.fsum(chain.from_iterable(_order_blocks(n, sigma)))


def _order_blocks(n: int, sigma: float):
    """sinc^2 at orders 1..n, as lists of at most _ORDER_BLOCK terms each."""
    for lo in range(1, n + 1, _ORDER_BLOCK):
        yield _sinc_sq_orders(range(lo, min(lo + _ORDER_BLOCK, n + 1)), sigma)


def _order_terms(n: int, sigma: float) -> np.ndarray:
    """sinc^2 at orders 0..n, indexed by |j|: one float64 array filled in blocks."""
    import numpy as np
    terms = np.empty(n + 1)
    for lo in range(0, n + 1, _SUM_BLOCK):
        j = np.arange(lo, min(lo + _SUM_BLOCK, n + 1))
        terms[lo:lo + j.size] = sinc_sq_at_order(j, sigma)
    return terms


# The arithmetic each public scalar applies to an envelope sum and the
# symmetric envelope integral; ``curve`` applies the same to float64 arrays.
def _normalized(sigma, envelope, integral):
    return math.pi * sigma * envelope / integral


def _occupation(sigma, envelope, integral):
    return 1.0 / _normalized(sigma, envelope, integral)


def _share(sigma, envelope, integral=None):
    return 1.0 / envelope


def output_probability(alpha_t: float, n_slits: int) -> float:
    """Collective pre-interference output probability N * int sinc^2 over +-alpha_t.

    Its ulp bounds by band of alpha_t are ``normalized_resultant_probability``'s.
    """
    at = as_alpha(alpha_t)
    if at <= 0:
        raise ValueError(f"alpha_t must be positive, got {at!r}")
    if not (isinstance(n_slits, int) and n_slits >= 1):
        raise ValueError(f"n_slits must be an integer >= 1, got {n_slits!r}")
    return n_slits * sinc_sq_integral(at)


def resultant_sum(alpha_t: float, sigma: float, n_slits: int) -> float:
    """Total resultant probability: strip sum pi sigma N sinc^2(alpha_j) over orders.

    The order sum is the one ``_envelope_sum`` remembers by (order count,
    sigma). It needs no Si: within 4 ulp of the exact value (3.0 measured).
    """
    if not (isinstance(n_slits, int) and n_slits >= 1):
        raise ValueError(f"n_slits must be an integer >= 1, got {n_slits!r}")
    at = as_alpha(alpha_t)
    return math.pi * sigma * n_slits * _envelope_sum(propagating_orders(at, sigma)[-1], sigma)


def _strip_alpha(alpha_t, sigma: float, quantity: str) -> float:
    """alpha_t as a float, refused below pi sigma, where a strip sum means nothing."""
    at = as_alpha(alpha_t)
    if at < math.pi * sigma:
        raise ValueError(
            f"alpha_t={at!r} below pi*sigma={math.pi * sigma!r}; "
            f"{quantity} is defined for alpha_t >= pi*sigma"
        )
    return at


def normalized_resultant_probability(alpha_t: float, sigma: float) -> float:
    """Resultant probability normalized by output probability (N cancels).

    Requires alpha_t >= pi sigma, i.e. at least the 0th order propagating with
    a full strip of margin; below that the strip sum is not a meaningful
    Riemann approximation of the envelope integral. The order sum is the
    one ``_envelope_sum`` remembers by (order count, sigma).

    Accuracy, in ulp of the model's exact value at the given floats, as
    measured for sigma in [1/48, 0.9] and alpha_t up to 200: 8 for alpha_t
    <= 2, 100 to 4, 4000 to 6, 1.5e5 to 8 (there Si(2 alpha_t) runs its power
    series near the switch at 16) and 6 above 8 (tests/test_accuracy.py).
    """
    at = _strip_alpha(alpha_t, sigma, "normalized resultant probability")
    envelope = _envelope_sum(propagating_orders(at, sigma)[-1], sigma)
    return _normalized(sigma, envelope, sinc_sq_integral(at))


def order_probability(j: int, alpha_t: float, sigma: float) -> float:
    """Normalized resultant probability carried by the single order j.

    Requires alpha_t >= pi sigma and meets the ulp bounds, as
    ``normalized_resultant_probability`` does, plus what rounding t = j sigma
    costs sinc^2 near a null: a relative 2 pi |cot(pi t) - 1/(pi t)| ulp(t)/2.
    """
    at = _strip_alpha(alpha_t, sigma, "order probability")
    orders = propagating_orders(at, sigma)
    if j not in orders:
        raise ValueError(f"order j={j} is not propagating at alpha_t={at!r} (|j| <= {orders[-1]})")
    return math.pi * sigma * sinc_sq_at_order(j, sigma) / sinc_sq_integral(at)


def occupation_value(alpha_t: float, sigma: float) -> float:
    """Energy-to-probability ratio of the propagating orders.

    With output energy conserved onto the resultants, this is the exact
    reciprocal of the normalized resultant probability: above 1 the orders are
    enriched, below 1 depleted, 1 is ordinary. Its order sum is the
    remembered one of ``normalized_resultant_probability``, and its bounds
    in ulp are that function's.
    """
    return 1.0 / normalized_resultant_probability(alpha_t, sigma)


def omega_from_delta_p(delta_p: float, p_o: float, sign: str) -> float:
    """Occupation value implied by a probability excursion delta_p on base p_o.

    ``sign='created'`` means the resultant gained probability (occupation
    drops below 1); ``'annihilated'`` means it lost probability (occupation
    rises above 1).
    """
    if not (math.isfinite(p_o) and p_o > 0):
        raise ValueError(f"p_o must be positive and finite, got {p_o!r}")
    if not (math.isfinite(delta_p) and delta_p >= 0):
        raise ValueError(f"delta_p must be finite and >= 0, got {delta_p!r}")
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
    changes, and only at orders that are not envelope nulls. That sum is
    the one ``_envelope_sum`` remembers by (order count, sigma). It needs
    no Si: within 4 ulp of the exact value, as measured for sigma in
    [1/48, 0.9] and alpha_t up to 200.
    """
    at = as_alpha(alpha_t)
    return _share(sigma, _envelope_sum(propagating_orders(at, sigma)[-1], sigma))


def zero_order_energy(alpha_t: float, sigma: float, e_o: float = 1.0) -> float:
    """Energy equilibrated onto the 0th order out of total output energy e_o.

    Energy distributes across the propagating orders in proportion to their
    probabilities, so the 0th-order energy is e_o times its probability share;
    the step-downs as orders reach threshold are the anomaly edges. The
    order sum is the remembered one of ``zero_order_share``; within 4 ulp
    of the exact value (2.7 measured, for e_o from 0.7 to 1000).
    """
    if not (math.isfinite(e_o) and e_o > 0):
        raise ValueError(f"e_o must be positive and finite, got {e_o!r}")
    return e_o * zero_order_share(alpha_t, sigma)


class OrderTable(namedtuple("OrderTable", "grating p_rj e_rj omega_j p_r e_r omega")):
    """Per-order probability, energy share and occupation for one grating.

    The columns hold orders 0..n indexed by |j|, each an ``array('d')``:
    orders +-j carry equal values bit for bit, so each is stored once. The
    totals p_r and e_r are each one fsum over a column and its orders 1..n
    again: the 2n + 1 signed orders, whose exact sum fsum rounds. p_r,
    omega and every omega_j meet ``normalized_resultant_probability``'s ulp
    bounds by band of alpha_t, and e_r is within 2 ulp of its exact value 1
    (1 measured). p_rj meets ``order_probability``'s bounds, and e_rj is
    within 6 ulp plus the same rounding term for t = j sigma (3.8 measured).
    """

    __slots__ = ()


def order_table(spec: GratingSpec) -> OrderTable:
    """Tabulate every propagating order of the grating.

    Orders at envelope nulls are kept with zero probability rather than
    omitted. Energy shares are probability shares (energy equilibrates in
    proportion to probability), so each order's energy-to-probability ratio
    is the table occupation; null orders carry that common value by
    convention. A grating with more than MAX_POINTS signed orders is
    refused before any order is evaluated. Defined for any duty cycle,
    although sigma away from 0.5 steps outside the square-wave-ruling
    setting the table is normally read in.
    """
    at = truncation_alpha(spec)
    sigma = spec.duty_sigma
    orders = propagating_orders(at, sigma)
    if len(orders) > MAX_POINTS:
        raise ValueError(
            f"table would have {len(orders)} rows, more than {MAX_POINTS:.3g}; "
            "use omega for the totals"
        )
    denom = sinc_sq_integral(at)
    p_rj = array("d")
    for block in chain([[1.0]], _order_blocks(orders[-1], sigma)):  # order 0's sinc^2 is 1
        p_rj.extend([math.pi * sigma * s / denom for s in block])
    p_r = math.fsum(chain(p_rj, memoryview(p_rj)[1:]))  # a view: the column is not copied
    omega = 1.0 / p_r
    e_rj = array("d", (p / p_r for p in p_rj))
    omega_j = array("d", (e / p if p > 0 else omega for p, e in zip(p_rj, e_rj)))
    e_r = math.fsum(chain(e_rj, memoryview(e_rj)[1:]))
    return OrderTable(spec, p_rj, e_rj, omega_j, p_r, e_r, omega)


# The curve kinds, each as f(sigma, envelope, integral), the arithmetic its
# public scalar applies; the share kinds need no envelope integral.
_CURVE_FUNCS = {
    "resultant_probability": _normalized,
    "occupation": _occupation,
    "zero_order_share": _share,
    "zero_order_energy": _share,  # at unit total output energy
}
CURVE_KINDS = tuple(_CURVE_FUNCS)


def curve(
    kind: str,
    sigma: float,
    alpha_range: tuple[float, float],
    samples: int,
) -> ProbabilityCurve:
    """Sample the alpha_t-dependent scalar ``kind``, one of CURVE_KINDS, on a dense grid.

    A pair of samples at alpha_j -+ 1e-6 is inserted around every order
    position inside the range so threshold discontinuities are resolved as
    two-sided limits instead of being aliased by the background grid; for
    sigma below about 1.3e-6 the offset shrinks to a quarter of the order
    spacing. A range whose top admits more than MAX_ORDER_TERMS orders, or
    a curve of more than MAX_POINTS points, is refused before any array is
    built.

    Every ordinate equals the scalar function at its abscissa bit for bit,
    computed in one array pass rather than one scalar call per point: the
    order counts come from ``propagating_orders`` at the ends of the range
    and one sorted search over the ``order_alpha`` positions between them,
    each order's sinc^2 is evaluated once, by the array ``sinc_sq_at_order``
    in blocks (``_order_terms``), the scalar's correctly rounded fsum of the
    first n terms comes from one checked array pass over the terms at the
    distinct counts n, ascending from ``np.unique`` (``fsum_prefixes``), the
    envelope and per-kind arithmetic run elementwise in the scalar's order,
    and the envelope integral is ``sinc_sq_integral`` over the array.
    """
    import numpy as np
    f = _CURVE_FUNCS.get(kind)
    if f is None:
        raise ValueError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"alpha_range must be finite with lo < hi, got ({lo!r}, {hi!r})")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    if lo <= 0:
        raise ValueError(f"alpha_range must be positive, got lo={lo!r}")
    if f is not _share and lo < math.pi * sigma:
        raise ValueError(
            f"{kind} curves require alpha_range within [pi*sigma, inf); "
            f"got lo={lo!r} < {math.pi * sigma!r}"
        )
    # The scalar rule refuses a top that admits more than MAX_ORDER_TERMS
    # orders. Every order in (lo, hi) lies in n_lo..n_hi and adds at most two
    # edge samples; n_lo adds one only where it lies within the tie above lo,
    # and is not counted, so a curve may exceed the count by one point.
    n_hi = propagating_orders(hi, sigma)[-1]
    n_lo = propagating_orders(lo, sigma)[-1]
    if samples > MAX_POINTS or samples + 2 * (n_hi - n_lo) > MAX_POINTS:
        raise ValueError(
            f"curve would have more than {MAX_POINTS:.3g} points; "
            "narrow the range or use fewer samples"
        )

    grid = np.linspace(lo, hi, samples)
    j = np.arange(max(1, n_lo), n_hi + 1)
    aj = order_alpha(j, sigma)
    aj = aj[(aj > lo) & (aj < hi)]
    below = aj - _edge(sigma)
    above = aj + _edge(sigma)
    pts = np.sort(np.concatenate([grid, below[below > lo], above[above < hi]]))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]  # as np.unique, without numpy.ma

    # The points run from lo, and every edge sample lies strictly inside.
    # They end at hi, unless the grid's step is subnormal: its rounding can
    # then carry inner grid points past hi.
    n_end = n_hi if pts[-1] == hi else propagating_orders(pts[-1], sigma)[-1]
    counts, slot = np.unique(_order_counts(pts, sigma, n_lo, n_end), return_inverse=True)
    terms = _order_terms(int(counts[-1]), sigma)
    envelope = 1.0 + 2.0 * fsum_prefixes(terms[1:, None], counts)[:, 0]
    integral = None if f is _share else sinc_sq_integral(pts)
    values = f(sigma, envelope[slot], integral)
    return ProbabilityCurve(pts, values)
