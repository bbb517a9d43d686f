"""The accuracy contract of the public scalars, against mpmath at 40 digits.

Each scalar is compared with the model's exact value at the same float
inputs: the envelope sum S = sum_j sinc^2(j pi sigma) over the orders with
j pi sigma <= alpha_t + EPS_TIE, counted in exact arithmetic, so the order
count is part of the contract, and the envelope integral
I = 2 (Si(2 alpha_t) - sin^2(alpha_t) / alpha_t). From these: the normalized
resultant probability pi sigma S / I, its reciprocal the occupation, the
0th-order share 1 / S and energy e_o / S, the output probability N I, the
resultant sum pi sigma N S, one order's probability pi sigma sinc^2 / I, and
an order table's totals p_r = pi sigma S / I, e_r = 1 and omega = 1 / p_r.
An error of k ulp is at most k units in the last place of the exact value.

The bounds are the ones the docstrings and the README state, by band of
alpha_t. Below alpha_t = 8, Si(2 alpha_t) runs its power series, which
cancels more the nearer 2 alpha_t is to the switch at 16.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from grating_orders.diffraction import GratingSpec, order_alpha, truncation_alpha
from grating_orders.orders import (
    EPS_TIE,
    MAX_ORDER_TERMS,
    TIE_ULPS,
    _envelope_sum,
    _tie_at,
    normalized_resultant_probability,
    occupation_value,
    order_probability,
    order_table,
    output_probability,
    propagating_orders,
    resultant_sum,
    zero_order_energy,
    zero_order_share,
)

# (top of the band of alpha_t, bound in ulp) for the normalized resultant
# probability and the occupation. Measured at 7,000 seeded points like these:
# largest errors 5.7, 63, 2.3e3, 7.7e4 and 3.7 ulp.
NORMALIZED_BOUNDS = ((2.0, 8), (4.0, 100), (6.0, 4_000), (8.0, 150_000), (math.inf, 6))
# The output probability, an order's probability (beyond what the rounding
# of j sigma costs its sinc^2, ``sinc_sq_condition``) and an order table's
# p_r and omega take the same bounds: measured at 7,000 such points, 3.6,
# 51, 1.8e3, 6.6e4 and 2.0 ulp (output), 4.9, 49, 1.6e3, 6.7e4 and 3.3
# (order), 48, 1.8e3, 7.1e4 and 2.5 (p_r, from alpha_t = pi) and 50, 2.0e3,
# 6.7e4 and 3.0 (omega).
# The share needs no Si: 3.2 ulp measured.
SHARE_BOUND = 4
# Nor do the resultant sum (3.0 ulp measured), the 0th-order energy (2.7 at
# e_o in {0.7, 1, 1.9, 3.7, 1000.3}) and a table's e_r, whose exact value is
# 1 (1 ulp measured).
RESULTANT_BOUND = 4
ENERGY_BOUND = 4
E_R_BOUND = 2
# An order table's columns: p_rj is ``order_probability``'s float at the
# table's alpha_t and takes its bounds (measured beyond the rounding term at
# 7,050 such points: 49, 1.6e3, 6.7e4 and 3.3 ulp, from alpha_t = pi);
# omega_j = e_rj / p_rj is omega with two more roundings and takes the band
# bounds too (50, 2.0e3, 6.6e4 and 3.9); e_rj = p_rj / p_r runs no Si, and
# is within 6 ulp beyond the rounding term (3.8 measured).
E_RJ_BOUND = 6

N_SLITS = 1250
E_O = 3.7
LAMBDA = 633.0

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


def contract_orders(n, sigma):
    """The orders whose probability is checked at a count n: 0, 1, n // 2 and
    n, less the nulls, where j sigma is an integer in floats and the
    package's 0.0 is the model's value by convention."""
    return sorted({j for j in (0, 1, n // 2, n) if j == 0 or not (j * sigma).is_integer()})


def table_spec(at, sigma):
    """The grating of an order table at a contract point; below alpha_t = pi
    its slit would be narrower than the wavelength, and it is refused."""
    return GratingSpec.from_truncation(at, LAMBDA, sigma, N_SLITS)


Exact = namedtuple("Exact", "normalized occupation share output resultant energy orders table columns")


@pytest.fixture(scope="module")
def exact():
    """{(alpha_t, sigma): Exact}, 40-digit mpmath values at the contract points.

    orders maps each of ``contract_orders`` to its order probability; table
    is None or (the table's alpha_t, p_r, omega): a table's alpha_t is
    pi w / lambda, which may differ from the point's by an ulp. columns is
    None or maps each of ``contract_orders`` at the table's own count to its
    (p_rj, e_rj); every omega_j is the table's omega.
    """
    mp = pytest.importorskip("mpmath")
    pts = contract_points()
    out = {}
    with mp.workdps(40):
        for sigma in sorted({s for _, s in pts}):
            mine = [at for at, s in pts if s == sigma]
            tables = {at: truncation_alpha(table_spec(at, sigma)) for at in mine if at >= math.pi}
            top = max(mine + list(tables.values()))
            # in this range the tie is EPS_TIE: the ulp floor and the
            # eighth-spacing cap do not bind
            assert TIE_ULPS * math.ulp(top) < EPS_TIE < math.pi * sigma / 8
            h = mp.pi * mp.mpf(sigma)

            def count(at):
                return int(mp.floor((mp.mpf(at) + mp.mpf(EPS_TIE)) / h))

            def sinc_sq(j):
                return (mp.sin(j * h) / (j * h)) ** 2 if j else mp.mpf(1)

            sums = [mp.mpf(1)]  # S over orders -n..n, by n
            for j in range(1, count(top) + 1):
                sums.append(sums[-1] + 2 * sinc_sq(j))

            def model(at):
                a = mp.mpf(at)
                return sums[count(at)], 2 * (mp.si(2 * a) - mp.sin(a) ** 2 / a)

            for at in mine:
                s, integral = model(at)
                normalized = h * s / integral
                orders = {j: h * sinc_sq(j) / integral for j in contract_orders(count(at), sigma)}
                table = columns = None
                if at in tables:
                    table_s, table_integral = model(tables[at])
                    table = (tables[at], h * table_s / table_integral, table_integral / (h * table_s))
                    columns = {j: (h * sinc_sq(j) / table_integral, sinc_sq(j) / table_s)
                               for j in contract_orders(count(tables[at]), sigma)}
                out[at, sigma] = Exact(normalized, 1 / normalized, 1 / s, N_SLITS * integral,
                                       h * N_SLITS * s, E_O / s, orders, table, columns)
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


def test_output_probability_within_its_band_bounds(exact):
    worst = max((ulps(output_probability(at, N_SLITS), e.output) / normalized_bound(at), at, sigma)
                for (at, sigma), e in exact.items())
    assert worst[0] <= 1.0, worst


def sinc_sq_condition(j, sigma):
    """The ulp that order j's sinc^2 may lose to the rounding of t = j sigma,
    to first order: its relative slope 2 pi |cot(pi t) - 1 / (pi t)| times
    half an ulp of t, in units of 2**-53. It grows without bound near a
    null, where t nears a nonzero integer."""
    if j == 0:
        return 0.0
    t = j * sigma
    return 2.0**53 * math.pi * math.ulp(t) * abs(1.0 / math.tan(math.pi * t) - 1.0 / (math.pi * t))


def test_order_probability_within_its_band_bounds(exact):
    checked = [(at, sigma, j, want) for (at, sigma), e in exact.items() for j, want in e.orders.items()]
    assert len(checked) >= 1500
    worst = max((ulps(order_probability(j, at, sigma), want)
                 / (normalized_bound(at) + sinc_sq_condition(j, sigma)), at, sigma, j)
                for at, sigma, j, want in checked)
    assert worst[0] <= 1.0, worst


@pytest.mark.parametrize("f,field,bound", [
    (lambda at, sigma: resultant_sum(at, sigma, N_SLITS), "resultant", RESULTANT_BOUND),
    (lambda at, sigma: zero_order_energy(at, sigma, E_O), "energy", ENERGY_BOUND),
])
def test_order_sum_scalars_within_their_bounds(exact, f, field, bound):
    worst = max((ulps(f(at, sigma), getattr(e, field)), at, sigma) for (at, sigma), e in exact.items())
    assert worst[0] <= bound, worst


def test_order_table_totals_within_their_bounds(exact):
    tables = [(at, sigma, e.table) for (at, sigma), e in exact.items() if e.table is not None]
    assert len(tables) >= 350
    worst = [(0.0,)] * 3
    for at, sigma, (table_at, p_r, omega) in tables:
        t = order_table(table_spec(at, sigma))
        assert truncation_alpha(t.grating) == table_at
        bound = normalized_bound(table_at)
        worst = [max(w, (ulps(got, want) / b, at, sigma)) for w, got, want, b in zip(
            worst, (t.p_r, t.e_r, t.omega), (p_r, 1, omega), (bound, E_R_BOUND, bound))]
    assert max(worst)[0] <= 1.0, worst


def test_order_table_columns_within_their_bounds(exact):
    # The orders checked are ``contract_orders`` at the table's own count.
    worst = [(0.0,)] * 3
    checked = 0
    for (at, sigma), e in exact.items():
        if e.table is None:
            continue
        t = order_table(table_spec(at, sigma))
        bound = normalized_bound(e.table[0])
        for j, (p_rj, e_rj) in e.columns.items():
            condition = sinc_sq_condition(j, sigma)
            worst = [max(w, (ulps(got, want) / b, at, sigma, j)) for w, got, want, b in zip(
                worst, (t.p_rj[j], t.e_rj[j], t.omega_j[j]), (p_rj, e_rj, e.table[2]),
                (bound + condition, E_RJ_BOUND + condition, bound))]
            checked += 1
    assert checked >= 1200
    assert max(worst)[0] <= 1.0, worst


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


# The Lerch form of the oracle takes about 50 ms a sum at any sigma and any
# n, so it reaches the sigma whose Hurwitz form would take 2**54 terms.
NON_DYADIC_SIGMAS = (0.3, 1e-3, 0.7)


def test_lerch_oracle_equals_the_other_forms():
    pytest.importorskip("mpmath")
    from envelope_oracle import direct_sum, envelope_sum, lerch_sum

    for n in (0, 1, 7, 300):
        for sigma in (*ENVELOPE_SIGMAS, 1 / 32):
            assert abs(lerch_sum(n, sigma) - envelope_sum(n, sigma)) < 1e-40, (n, sigma)
        for sigma in NON_DYADIC_SIGMAS:
            assert abs(lerch_sum(n, sigma) - direct_sum(n, sigma)) < 1e-40, (n, sigma)
    assert abs(lerch_sum(10**6, 1 / 16) - envelope_sum(10**6, 1 / 16)) < 1e-40


@pytest.mark.parametrize("sigma", NON_DYADIC_SIGMAS)
@pytest.mark.parametrize("n", [10, 10**3, 10**5, 10**6])
def test_envelope_sum_within_its_bound_at_non_dyadic_sigma(n, sigma):
    pytest.importorskip("mpmath")
    from envelope_oracle import lerch_sum

    assert ulps(_envelope_sum(n, sigma), lerch_sum(n, sigma)) <= ENVELOPE_BOUND


# One short of MAX_ORDER_TERMS orders a side, where each package sum takes
# about 3 s of CPU, so at two of the non-dyadic sigma: 0.15 and 0.31 ulp
# measured (0.55 at sigma = 0.3).
@pytest.mark.parametrize("sigma", [1e-3, 0.7])
def test_envelope_sum_within_its_bound_at_the_largest_count(sigma):
    pytest.importorskip("mpmath")
    from envelope_oracle import lerch_sum

    n = MAX_ORDER_TERMS - 1
    assert ulps(_envelope_sum(n, sigma), lerch_sum(n, sigma)) <= ENVELOPE_BOUND


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
