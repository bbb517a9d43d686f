"""The accuracy contract of the public scalars, against mpmath at 40 digits.

Each scalar is compared with the model's exact value at the same float
inputs: the envelope sum S = sum_j sinc^2(j pi sigma) over the orders with
j pi sigma <= alpha_t + EPS_TIE, counted in exact arithmetic, so the order
count is part of the contract; the normalized resultant probability
pi sigma S / (2 (Si(2 alpha_t) - sin^2(alpha_t) / alpha_t)), its reciprocal
the occupation, and the 0th-order share 1 / S. An error of k ulp is at most
k units in the last place of the exact value.

The bounds are the ones the docstrings and the README state, by band of
alpha_t. Below alpha_t = 8, Si(2 alpha_t) runs its power series, which
cancels more the nearer 2 alpha_t is to the switch at 16.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from grating_orders.diffraction import order_alpha
from grating_orders.orders import (
    EPS_TIE,
    TIE_ULPS,
    _envelope_sum,
    _tie_at,
    normalized_resultant_probability,
    occupation_value,
    propagating_orders,
    zero_order_share,
)

# (top of the band of alpha_t, bound in ulp) for the normalized resultant
# probability and the occupation. Measured at 7,000 seeded points like these:
# largest errors 5.7, 63, 2.3e3, 7.7e4 and 3.7 ulp.
NORMALIZED_BOUNDS = ((2.0, 8), (4.0, 100), (6.0, 4_000), (8.0, 150_000), (math.inf, 6))
# The share needs no Si: 3.2 ulp measured.
SHARE_BOUND = 4

DENSE_SWEEP_SIGMAS = (1 / 16, 1 / 24, 1 / 32, 1 / 48)
TOP = 200.0


def contract_points():
    """Seeded (alpha_t, sigma): the dense-sweep sigmas and six log-uniform in
    [0.05, 0.9], each at pi sigma, log-uniform alpha_t up to 200, a dense band
    in [5, 8], and 1-3 ulp either side of three order positions."""
    rng = np.random.default_rng(24)
    sigmas = [*DENSE_SWEEP_SIGMAS, *np.exp(rng.uniform(math.log(0.05), math.log(0.9), 6)).tolist()]
    pts = []
    for sigma in sigmas:
        h = math.pi * sigma
        ats = [h, *np.exp(rng.uniform(math.log(h), math.log(TOP), 16)).tolist(),
               *rng.uniform(5.0, 8.0, 12).tolist()]
        for j in rng.integers(1, int(TOP / h) + 1, 3).tolist():
            up = down = order_alpha(j, sigma)
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                ats += [up, down]
        pts += [(at, sigma) for at in ats if h <= at]
    return pts


@pytest.fixture(scope="module")
def exact():
    """{(alpha_t, sigma): (normalized, occupation, share)}, 40-digit mpmath values."""
    mp = pytest.importorskip("mpmath")
    pts = contract_points()
    out = {}
    with mp.workdps(40):
        for sigma in sorted({s for _, s in pts}):
            mine = [at for at, s in pts if s == sigma]
            # in this range the tie is EPS_TIE: the ulp floor and the
            # eighth-spacing cap do not bind
            assert TIE_ULPS * math.ulp(max(mine)) < EPS_TIE < math.pi * sigma / 8
            h = mp.pi * mp.mpf(sigma)

            def count(at):
                return int(mp.floor((mp.mpf(at) + mp.mpf(EPS_TIE)) / h))

            sums = [mp.mpf(1)]  # S over orders -n..n, by n
            for j in range(1, count(max(mine)) + 1):
                sums.append(sums[-1] + 2 * (mp.sin(j * h) / (j * h)) ** 2)
            for at in mine:
                a = mp.mpf(at)
                s = sums[count(at)]
                normalized = h * s / (2 * (mp.si(2 * a) - mp.sin(a) ** 2 / a))
                out[at, sigma] = (normalized, 1 / normalized, 1 / s)
    return out


def ulps(got, want):
    return float(abs(got - want)) / math.ulp(float(want))


def normalized_bound(at):
    return next(bound for top, bound in NORMALIZED_BOUNDS if at <= top)


def test_points_cover_every_band_and_the_thresholds():
    ats = [at for at, _ in contract_points()]
    assert len(ats) >= 400 and max(ats) <= TOP
    edges = [0.0, *(top for top, _ in NORMALIZED_BOUNDS[:-1]), TOP]
    for lo, hi in zip(edges, edges[1:]):
        assert sum(lo < at <= hi for at in ats) >= 10, (lo, hi)
    assert sum(8.0 < at <= 10.0 for at in ats) >= 3  # where a later Si switch would move


@pytest.mark.parametrize("f,column", [
    (normalized_resultant_probability, 0),
    (occupation_value, 1),
])
def test_normalized_scalars_within_their_band_bounds(exact, f, column):
    # the worst error as a fraction of its band's bound
    worst = max((ulps(f(at, sigma), e[column]) / normalized_bound(at), at, sigma)
                for (at, sigma), e in exact.items())
    assert worst[0] <= 1.0, worst


def test_zero_order_share_within_its_bound(exact):
    worst = max((ulps(zero_order_share(at, sigma), e[2]), at, sigma)
                for (at, sigma), e in exact.items())
    assert worst[0] <= SHARE_BOUND, worst


# The envelope sum over orders -n..n against its closed form
# (tests/envelope_oracle.py), at dyadic sigma and up to 1e6 orders: 1.25 ulp
# measured, at sigma = 1/2 and n = 1e5.
ENVELOPE_SIGMAS = (1 / 2, 3 / 8, 1 / 16)
ENVELOPE_BOUND = 2


def test_envelope_oracle_equals_the_direct_sum():
    pytest.importorskip("mpmath")
    from envelope_oracle import direct_sum, envelope_sum

    for sigma in (*ENVELOPE_SIGMAS, 1 / 32):
        for n in (0, 1, 7, 1000):
            assert abs(envelope_sum(n, sigma) - direct_sum(n, sigma)) < 1e-40, (n, sigma)


@pytest.mark.parametrize("sigma", ENVELOPE_SIGMAS)
@pytest.mark.parametrize("n", [10, 10**3, 10**5, 10**6])
def test_envelope_sum_within_its_bound(n, sigma):
    pytest.importorskip("mpmath")
    from envelope_oracle import envelope_sum

    assert ulps(_envelope_sum(n, sigma), envelope_sum(n, sigma)) <= ENVELOPE_BOUND


@pytest.mark.parametrize("sigma", ENVELOPE_SIGMAS)
def test_sum_over_all_orders_is_one_over_sigma(sigma):
    # The identity under the oracle, checked without it: past order n each
    # term is at most (j pi sigma)^-2, so 1/sigma - S(n) lies in
    # [0, 2 / ((pi sigma)^2 n)], for the exact sum and the package's alike.
    mpmath = pytest.importorskip("mpmath")
    from envelope_oracle import direct_sum

    for n, total in ((1000, direct_sum(1000, sigma)), (10**6, _envelope_sum(10**6, sigma))):
        with mpmath.workdps(50):
            gap = 1 / mpmath.mpf(sigma) - total
            assert 0 <= gap <= 2 / ((mpmath.pi * sigma) ** 2 * n), (n, sigma)


# Order counts by the full inclusion rule at dyadic sigma, and the envelope
# sum at the count, against the closed form. Order j is admitted when its
# position (j pi) sigma is at most the cap alpha_t + _tie_at(alpha_t, sigma),
# both in floats, so its threshold is the least float alpha_t whose cap
# reaches the position: a probe 1-3 ulp below it counts j - 1, one at it or
# 1-3 ulp above counts j, as do probes 1-3 ulp either side of the position.
# Past alpha_t = 2**21 the tie is TIE_ULPS ulp of alpha_t, not EPS_TIE.
THRESHOLD_SIGMAS = (1 / 2, 3 / 8, 1 / 16, 1 / 32, 1 / 64)
# Two odd orders at sigma = 1/2 whose positions lie just past 2**21.
FLOOR_ORDERS = (int(2**22 / math.pi) + 1, int(2**22 / math.pi) + 3)


def threshold_orders(sigma, rng):
    """Seeded orders j, one below 100, one near 1e5 and one up to 1e6, none a null."""
    q = Fraction(sigma).denominator
    js = [int(rng.integers(lo, hi)) for lo, hi in ((1, 100), (8 * 10**4, 1.2 * 10**5), (5 * 10**5, 10**6))]
    return [j + (j % q == 0) for j in js]


def threshold_probes(j, sigma):
    """(alpha_t, expected count) 1-3 ulp either side of order j's threshold and position."""
    position = j * math.pi * sigma

    def admits(at):
        return position <= at + _tie_at(at, sigma)

    at = position - _tie_at(position, sigma)
    while admits(at):
        at = math.nextafter(at, 0.0)
    while not admits(at):
        at = math.nextafter(at, math.inf)
    probes = [(at, j)]
    down = up = at
    for _ in range(3):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        probes += [(down, j - 1), (up, j)]
    down = up = position
    for _ in range(3):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        probes += [(down, j), (up, j)]
    return probes


@pytest.mark.parametrize("sigma", THRESHOLD_SIGMAS)
def test_order_counts_and_sums_at_thresholds(sigma):
    pytest.importorskip("mpmath")
    from envelope_oracle import envelope_sum

    rng = np.random.default_rng(int(1 / sigma))
    js = threshold_orders(sigma, rng)
    if sigma == 1 / 2:
        js += FLOOR_ORDERS
    for j in js:
        probes = threshold_probes(j, sigma)
        assert [propagating_orders(at, sigma)[-1] for at, _ in probes] == [n for _, n in probes], j
        assert ulps(_envelope_sum(j, sigma), envelope_sum(j, sigma)) <= ENVELOPE_BOUND, j


@pytest.mark.parametrize("j", FLOOR_ORDERS)
def test_ulp_floor_binds_past_two_to_the_21(j):
    # There the probes 3 ulp below the position count order j through the
    # floor alone: 3 ulp exceed EPS_TIE, and the tie is 4 ulp.
    position = j * math.pi / 2
    assert position > 2.0**21 and 3 * math.ulp(position) > EPS_TIE
    assert _tie_at(position, 1 / 2) == TIE_ULPS * math.ulp(position)
