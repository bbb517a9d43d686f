import math

import numpy as np
import pytest
from dataset_csv import read_csv
from hypothesis import given, settings, strategies as st
from reference_quadrature import gauss_legendre, sinc_sq_plain

from grating_orders import orders
from grating_orders.diffraction import (
    GratingSpec,
    _sinc_sq_orders,
    order_alpha,
    sinc_sq_at_order,
    truncation_alpha,
)
from grating_orders.figures import write_order_table
from grating_orders.orders import (
    EDGE_OFFSET,
    EPS_TIE,
    MAX_ORDER_TERMS,
    MAX_POINTS,
    _ENVELOPE_MEMO_SIZE,
    _cap,
    _edge,
    _envelope_sum,
    _order_counts,
    _order_terms,
    CURVE_KINDS,
    ProbabilityCurve,
    curve,
    normalized_resultant_probability,
    occupation_value,
    omega_from_delta_p,
    order_probability,
    order_table,
    output_probability,
    propagating_orders,
    resultant_sum,
    zero_order_energy,
    zero_order_share,
)
from grating_orders.quadrature import _SUM_BLOCK, fsum_prefixes

LAMBDA = 633.0
ALPHA_3 = float(order_alpha(3, 0.5))

# Frozen from the 25-digit oracle (sum of sinc^2 strips over the Si-based
# envelope integral), cross-checked against Gauss-Legendre quadrature below.
P_R_BELOW_3 = 0.9722832831
P_R_ABOVE_3 = 1.0206475706
OMEGA_BELOW_3 = 1.0285068327
OMEGA_ABOVE_3 = 0.9797701272
SUM_BELOW_3 = 2.8440358715  # pi/2 * (1 + 2 sinc^2(pi/2))
SUM_ABOVE_3 = 2.9855069321  # ... + 2 sinc^2(3pi/2)
SHARE_UP_TO_3 = 0.5523124172  # 1 / (1 + 2 sinc^2(pi/2))
SHARE_3_TO_5 = 0.5261405726
# The scalar each curve kind samples.
SCALARS = {
    "resultant_probability": normalized_resultant_probability,
    "occupation": occupation_value,
    "zero_order_share": zero_order_share,
    "zero_order_energy": zero_order_energy,
}


def order_counts(alphas, sigma):
    """``_order_counts`` given the scalar counts at the array's ends, as ``curve`` gives them."""
    return _order_counts(alphas, sigma, propagating_orders(alphas.min(), sigma)[-1],
                         propagating_orders(alphas.max(), sigma)[-1])


class TestPropagatingOrders:
    def test_symmetric_window(self):
        assert propagating_orders(2.63 * math.pi / 2, 0.5) == range(-2, 3)
        assert propagating_orders(3.16 * math.pi / 2, 0.5) == range(-3, 4)

    def test_threshold_sides(self):
        assert propagating_orders(ALPHA_3 - 1e-6, 0.5) == range(-2, 3)
        assert propagating_orders(ALPHA_3 + 1e-6, 0.5) == range(-3, 4)

    def test_exact_threshold_tie(self):
        # an order sitting exactly at truncation counts
        assert propagating_orders(ALPHA_3, 0.5) == range(-3, 4)

    def test_boundary_at_pi(self):
        # the +-2nd orders sit exactly at alpha_t = pi (and are envelope null)
        assert propagating_orders(math.pi, 0.5) == range(-2, 3)

    @pytest.mark.parametrize("sigma", [0.3, 1 / 3, 0.5, 0.125])
    def test_order_at_its_own_threshold(self, sigma):
        # An order placed at order_alpha(j) is counted.
        for j in range(1, 20000):
            at = order_alpha(j, sigma)
            assert propagating_orders(at, sigma)[-1] == j

    @pytest.mark.parametrize("sigma", [1e-10, 1e-11])
    def test_tie_stays_below_next_order(self, sigma):
        # orders closer together than EPS_TIE: the tie shrinks to an eighth
        # spacing, so an order at its own threshold admits no later order
        for j in range(1, 2000):
            assert propagating_orders(order_alpha(j, sigma), sigma)[-1] == j

    def test_requires_positive_alpha_t(self):
        with pytest.raises(ValueError):
            propagating_orders(0.0, 0.5)

    @given(st.floats(0.1, 60.0), st.sampled_from([0.5, 0.25, 0.125]))
    @settings(max_examples=200)
    def test_window_matches_rule(self, at, sigma):
        orders = propagating_orders(at, sigma)
        n = orders[-1]
        assert orders == range(-n, n + 1)
        assert n * math.pi * sigma <= at + EPS_TIE
        assert (n + 1) * math.pi * sigma > at + EPS_TIE

    @given(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4), st.floats(1e-3, 0.99))
    @settings(max_examples=300)
    def test_count_never_decreases_with_alpha_t(self, a, b, sigma):
        lo, hi = sorted((a, b))
        assert propagating_orders(lo, sigma)[-1] <= propagating_orders(hi, sigma)[-1]


class TestTieAtEveryMagnitude:
    """An order a few ulp above alpha_t is admitted, however large alpha_t is."""

    @given(st.floats(0.0, math.log10(3e7)), st.floats(0.0, 1.0), st.sampled_from([1, 2, 3]))
    @settings(max_examples=400)
    def test_order_just_below_threshold_is_admitted(self, log_mag, u, ulps):
        # alpha_t of magnitude 1 to 3e7, at any sigma whose order count there
        # stays within MAX_ORDER_TERMS, placed 1 to 3 ulp below order j (a
        # grating built at its own threshold lands up to 3 ulp below).
        mag = 10.0**log_mag
        sigma = min(0.99, max(1e-3, mag / (math.pi * MAX_ORDER_TERMS)) + u * 0.98)
        j = max(1, round(mag / (math.pi * sigma)))
        at = order_alpha(j, sigma)
        for _ in range(ulps):
            at = math.nextafter(at, 0.0)
        assert propagating_orders(at, sigma)[-1] == j
        assert order_counts(np.array([at]), sigma).tolist() == [j]

    def test_grating_built_at_its_own_threshold(self):
        # w = j sigma lambda lands 1 ulp below order j's position; the absolute
        # tie of 1e-9 is lost in rounding at this alpha_t (about 2.5e7).
        spec = GratingSpec(5127303418.2, 0.9, 633.0)
        at = truncation_alpha(spec)
        assert at + EPS_TIE == at and order_alpha(9000006, 0.9) > at
        assert propagating_orders(at, 0.9)[-1] == 9000006
        assert order_counts(np.array([at]), 0.9).tolist() == [9000006]

    def test_small_alpha_keeps_absolute_tie(self):
        # Below about 2**21 the tie is EPS_TIE, as before: an order 0.5e-9
        # above alpha_t counts and one 1.5e-9 above does not.
        for j, sigma in ((3, 0.5), (1000, 0.37), (600000, 0.5)):
            aj = order_alpha(j, sigma)
            assert propagating_orders(aj - 0.5e-9, sigma)[-1] == j
            assert propagating_orders(aj - 1.5e-9, sigma)[-1] == j - 1

    def test_array_cap_equals_scalar(self):
        # Inputs like those above, as arrays: order positions of magnitude 1 to
        # 3e7 and up to 3 ulp below them, the powers of two, where the ulp
        # steps, and the grating built at its own threshold.
        rng = np.random.default_rng(104)
        built = truncation_alpha(GratingSpec(5127303418.2, 0.9, 633.0))
        for sigma in (1e-3, 0.37, 0.5, 0.9, 0.99):
            mags = 10.0 ** rng.uniform(0.0, math.log10(3e7), 500)
            below = [order_alpha(np.maximum(1, np.rint(mags / (math.pi * sigma))).astype(np.int64),
                                 sigma)]
            for _ in range(3):
                below.append(np.nextafter(below[-1], 0.0))
            alphas = np.concatenate([*below, 2.0 ** np.arange(26), [built]])
            assert _cap(alphas, sigma).tolist() == [_cap(a, sigma) for a in alphas.tolist()]
        # Subnormal sigma, where the ulp floor alone would pass the next order:
        # the order positions and the floats either side of them.
        for sigma in (1e-310, 5e-324):
            at = order_alpha(np.arange(1, 200), sigma)
            alphas = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
            assert _cap(alphas, sigma).tolist() == [_cap(a, sigma) for a in alphas.tolist()]

    @pytest.mark.parametrize("sigma", [1e-310, 5e-324])
    def test_tie_stops_short_of_the_next_order_at_subnormal_sigma(self, sigma):
        # At 5e-324 the order spacing pi*sigma is 3 or 4 units of 2**-1074,
        # within the TIE_ULPS floor: the eighth-spacing cap keeps each order's
        # own position at its own count. At 1e-310 the cap does not bind.
        j = np.arange(1, 200)
        at = order_alpha(j, sigma)
        assert [propagating_orders(a, sigma)[-1] for a in at.tolist()] == j.tolist()
        assert order_counts(at, sigma).tolist() == j.tolist()

    @pytest.mark.parametrize("sigma", [1e-8, 1e-9, 1e-11, 5e-324])
    def test_below_edge_sample_stops_short_of_its_order(self, sigma):
        # A curve's below-edge sample lies a quarter spacing under order j
        # where the spacing is small; the tie, capped at an eighth, keeps it
        # at order j - 1.
        j = np.arange(1, 2000)
        below = order_alpha(j, sigma) - _edge(sigma)
        assert [propagating_orders(a, sigma)[-1] for a in below.tolist()] == (j - 1).tolist()
        assert order_counts(below, sigma).tolist() == (j - 1).tolist()


SIGMAS = st.one_of(st.floats(1e-3, 0.99), st.floats(1e-11, 1e-8))


class TestArrayOrderCounts:
    """The array counts of ``curve`` against the scalar propagating_orders."""

    @staticmethod
    def near(x, steps):
        # x and the floats up to ``steps`` ulps either side of it
        pts = [x]
        up = down = x
        for _ in range(steps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            pts += [up, down]
        return pts

    @given(st.integers(1, 10**6), SIGMAS)
    @settings(max_examples=300)
    def test_equal_scalar_at_and_within_tie_of_threshold(self, j, sigma):
        aj = order_alpha(j, sigma)
        tie = orders._tie_at(aj, sigma)
        pts = [p for c in (aj, aj - tie, aj + tie, aj - EDGE_OFFSET, aj + EDGE_OFFSET)
               for p in self.near(c, 3) if p > 0]
        expected = [propagating_orders(p, sigma)[-1] for p in pts]
        assert order_counts(np.array(pts), sigma).tolist() == expected

    @given(st.lists(st.floats(1e-3, 3e3), min_size=1, max_size=50), st.floats(1e-3, 0.99))
    @settings(max_examples=200)
    def test_equal_scalar_anywhere(self, alphas, sigma):
        expected = [propagating_orders(p, sigma)[-1] for p in alphas]
        assert order_counts(np.array(alphas), sigma).tolist() == expected


class TestOutputProbability:
    def test_full_line_limit(self):
        assert output_probability(1e6, 1) == pytest.approx(math.pi, abs=1e-3)

    def test_three_half_pi(self):
        assert output_probability(1.5 * math.pi, 1) == pytest.approx(2.9251104164, rel=1e-9)

    def test_linear_in_slit_count(self):
        assert output_probability(1.5 * math.pi, 4) == 4.0 * output_probability(1.5 * math.pi, 1)

    def test_strictly_increasing(self):
        values = [output_probability(at, 1) for at in np.linspace(0.5, 20.0, 80)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestResultantSum:
    def test_frozen_values_at_third_order_threshold(self):
        assert resultant_sum(ALPHA_3 + 1e-6, 0.5, 1) == pytest.approx(SUM_ABOVE_3, rel=1e-9)
        assert resultant_sum(ALPHA_3 - 1e-6, 0.5, 1) == pytest.approx(SUM_BELOW_3, rel=1e-9)

    def test_linear_in_slit_count(self):
        assert resultant_sum(5.0, 0.5, 7) == pytest.approx(7 * resultant_sum(5.0, 0.5, 1), rel=1e-15)

    def test_dense_sampling_approaches_output_probability(self):
        at = 2.5 * math.pi
        out = output_probability(at, 1)
        devs = [abs(resultant_sum(at, s, 1) / out - 1.0) for s in (0.25, 0.125, 0.0625, 0.03125)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_deviation_bounded_linearly_in_sigma_at_generic_point(self):
        # at a generic truncation the full-line strip sum of sinc^2 is exact
        # (its spectrum is band limited), so only a small boundary term
        # survives; it stays well under C * sigma although it oscillates in
        # size rather than decreasing monotonically (C = 2e-4 has 40% margin
        # over the observed worst case at this point)
        at = 3 * math.pi + 0.1
        for sigma in (0.25, 0.125, 0.0625, 0.03125):
            dev = abs(normalized_resultant_probability(at, sigma) - 1.0)
            assert dev <= 2e-4 * sigma

    @pytest.mark.parametrize("sigma", [1 / 2, 1 / 3, 0.3, 1 / 48])
    def test_full_order_sum_closed_form(self, sigma):
        # sum_{j>=1} sinc^2(j pi sigma) = (1 - sigma) / (2 sigma), from
        # sum cos(j t) / j^2 = pi^2/6 - pi t/2 + t^2/4 on [0, 2 pi]; past
        # order n the terms average 1 / (2 pi^2 sigma^2 j^2), a tail of
        # about 1 / (2 pi^2 sigma^2 n)
        n = 10**5
        head = math.fsum(sinc_sq_at_order(j, sigma) for j in range(1, n + 1))
        tail = 1.0 / (2.0 * math.pi**2 * sigma**2 * n)
        assert head + tail == pytest.approx((1.0 - sigma) / (2.0 * sigma), abs=1e-7)


class TestNormalizedResultantProbability:
    def test_dense_sampling_is_conserving(self):
        # mid-gap truncation for a 1/8 duty cycle
        at = 1.5 * math.pi + math.pi / 16
        assert normalized_resultant_probability(at, 0.125) == pytest.approx(1.0, abs=0.02)

    def test_sparse_sampling_threshold_values(self):
        assert normalized_resultant_probability(ALPHA_3 - 1e-6, 0.5) == pytest.approx(
            P_R_BELOW_3, rel=1e-9
        )
        assert normalized_resultant_probability(ALPHA_3 + 1e-6, 0.5) == pytest.approx(
            P_R_ABOVE_3, rel=1e-9
        )

    def test_cross_checked_by_quadrature_oracle(self):
        at = ALPHA_3 - 1e-6
        expected = SUM_BELOW_3 / gauss_legendre(sinc_sq_plain, -at, at)
        assert normalized_resultant_probability(at, 0.5) == pytest.approx(expected, rel=1e-8)

    def test_domain_requires_first_strip(self):
        with pytest.raises(ValueError, match="pi\\*sigma"):
            normalized_resultant_probability(math.pi / 4, 0.5)

    def test_converges_to_unity_for_coarse_gratings(self):
        assert normalized_resultant_probability(100 * math.pi, 0.5) == pytest.approx(1.0, abs=0.01)


class TestOrderProbability:
    def test_zero_order_at_third_threshold(self):
        assert order_probability(0, ALPHA_3, 0.5) == pytest.approx(0.5370041138, rel=1e-9)

    def test_even_orders_are_exactly_null(self):
        assert order_probability(2, ALPHA_3, 0.5) == 0.0
        assert order_probability(-2, ALPHA_3, 0.5) == 0.0

    def test_symmetric_in_j(self):
        assert order_probability(1, ALPHA_3, 0.5) == order_probability(-1, ALPHA_3, 0.5)

    def test_non_propagating_order_rejected(self):
        with pytest.raises(ValueError, match="not propagating"):
            order_probability(5, ALPHA_3, 0.5)


class TestOccupationValue:
    def test_threshold_pair(self):
        assert occupation_value(ALPHA_3 - 1e-6, 0.5) == pytest.approx(OMEGA_BELOW_3, rel=1e-9)
        assert occupation_value(ALPHA_3 + 1e-6, 0.5) == pytest.approx(OMEGA_ABOVE_3, rel=1e-9)

    def test_against_stated_modulation(self):
        # idealized +-2.5% modulation at the third-order threshold pair
        assert occupation_value(ALPHA_3 - 1e-6, 0.5) == pytest.approx(1.0284, abs=5e-3)
        assert occupation_value(ALPHA_3 + 1e-6, 0.5) == pytest.approx(0.9796, abs=5e-3)

    def test_control_grating_is_ordinary(self):
        assert occupation_value(3.94 * math.pi / 2, 0.5) == pytest.approx(1.0, abs=5e-3)

    def test_asymptote(self):
        assert 0.99 <= occupation_value(100 * math.pi, 0.5) <= 1.01

    @pytest.mark.parametrize("sigma", [1e-300, 1e-200, 1e-160, 1e-155, 5e-324])
    def test_tiny_sigma_keeps_the_small_angle_limit(self, sigma):
        # Seven orders of sinc^2 = 1 over the envelope integral 2 alpha_t =
        # 6 pi sigma. alpha_t is below 2**-511, where sin(alpha)**2 in the
        # closed form would underflow. At the least subnormal sigma pi*sigma
        # rounds to 3 units and alpha_t to 9, so the ratio is still 6/7.
        assert occupation_value(3 * math.pi * sigma, sigma) == pytest.approx(6 / 7, rel=4e-16)

    @given(st.floats(1.8, 40.0), st.sampled_from([0.5, 0.125]))
    @settings(max_examples=150)
    def test_reciprocity(self, at, sigma):
        product = occupation_value(at, sigma) * normalized_resultant_probability(at, sigma)
        assert abs(product - 1.0) <= 1e-12

    @given(st.floats(1.8, 100.0), st.floats(0.01, 0.57))
    @settings(max_examples=200)
    def test_exact_reciprocal(self, at, sigma):
        assert occupation_value(at, sigma) == 1.0 / normalized_resultant_probability(at, sigma)


class TestOmegaFromDeltaP:
    def test_zero_excursion(self):
        assert omega_from_delta_p(0.0, 1.0, "created") == 1.0
        assert omega_from_delta_p(0.0, 1.0, "annihilated") == 1.0

    def test_direction(self):
        assert omega_from_delta_p(0.0276, 1.0, "annihilated") == pytest.approx(
            1.0 / (1.0 - 0.0276), rel=1e-15
        )
        assert omega_from_delta_p(0.0208, 1.0, "created") == pytest.approx(
            1.0 / 1.0208, rel=1e-15
        )

    def test_annihilated_bounded_by_base(self):
        with pytest.raises(ValueError):
            omega_from_delta_p(1.0, 1.0, "annihilated")

    def test_sign_keyword_validated(self):
        with pytest.raises(ValueError):
            omega_from_delta_p(0.01, 1.0, "sideways")

    @given(st.floats(1.8, 30.0))
    @settings(max_examples=100)
    def test_consistent_with_occupation_value(self, at):
        # the probability-excursion route reproduces the occupation route
        p_o = output_probability(at, 1)
        p_r = resultant_sum(at, 0.5, 1)
        sign = "created" if p_r >= p_o else "annihilated"
        omega = omega_from_delta_p(abs(p_r - p_o), p_o, sign)
        assert omega == pytest.approx(occupation_value(at, 0.5), rel=1e-9)


class TestZeroOrderShare:
    def test_only_zero_order(self):
        assert zero_order_share(1.0, 0.5) == 1.0

    def test_step_values(self):
        assert zero_order_share(2.0, 0.5) == pytest.approx(SHARE_UP_TO_3, rel=1e-9)
        assert zero_order_share(6.0, 0.5) == pytest.approx(SHARE_3_TO_5, rel=1e-9)

    def test_piecewise_constant_between_odd_orders(self):
        assert zero_order_share(1.7, 0.5) == zero_order_share(4.6, 0.5)

    def test_no_step_at_even_orders(self):
        a2 = float(order_alpha(2, 0.5))
        assert zero_order_share(a2 - 1e-6, 0.5) == zero_order_share(a2 + 1e-6, 0.5)

    def test_steps_down_at_odd_orders(self):
        for j in (1, 3, 5, 7):
            aj = float(order_alpha(j, 0.5))
            assert zero_order_share(aj + 1e-6, 0.5) < zero_order_share(aj - 1e-6, 0.5)

    @given(st.integers(1, 199), st.sampled_from([1 / 2, 1 / 3, 1 / 4, 0.3, 1 / 16]))
    @settings(max_examples=200)
    def test_steps_exactly_at_non_null_orders(self, j, sigma):
        aj = order_alpha(j, sigma)
        below = zero_order_share(aj - EDGE_OFFSET, sigma)
        above = zero_order_share(aj + EDGE_OFFSET, sigma)
        assert (above != below) == (sinc_sq_at_order(j, sigma) != 0.0)

    def test_energy_is_share_scaled(self):
        assert zero_order_energy(2.0, 0.5, 1.0) == zero_order_share(2.0, 0.5)
        assert zero_order_energy(2.0, 0.5, 2.0) == 2.0 * zero_order_share(2.0, 0.5)

    def test_energy_requires_positive_total(self):
        with pytest.raises(ValueError):
            zero_order_energy(2.0, 0.5, 0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: omega_from_delta_p(math.nan, 1.0, "created"), "delta_p must be finite and >= 0, got nan"),
    (lambda: omega_from_delta_p(math.inf, 1.0, "created"), "delta_p must be finite and >= 0, got inf"),
    (lambda: omega_from_delta_p(0.1, math.inf, "annihilated"), "p_o must be positive and finite, got inf"),
    (lambda: zero_order_energy(2.0, 0.5, math.inf), "e_o must be positive and finite, got inf"),
    (lambda: resultant_sum(2.0, 0.5, 2.5), "n_slits must be an integer >= 1, got 2.5"),
    (lambda: output_probability(2.0, 2.5), "n_slits must be an integer >= 1, got 2.5"),
    (lambda: order_probability(0, 0.1, 0.5),
     f"alpha_t=0.1 below pi*sigma={math.pi * 0.5!r}; order probability is defined for alpha_t >= pi*sigma"),
], ids=["delta_p-nan", "delta_p-inf", "p_o-inf", "e_o-inf", "resultant_sum-n_slits",
        "output_probability-n_slits", "order_probability-below-first-strip"])
def test_scalars_refuse_what_has_no_answer_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# The scalars that take their envelope sum from the memo, each as f(alpha_t, sigma).
MEMOIZED = {
    "occupation_value": occupation_value,
    "normalized_resultant_probability": normalized_resultant_probability,
    "zero_order_share": zero_order_share,
    "zero_order_energy": lambda at, sigma: zero_order_energy(at, sigma, 3.5),
    "resultant_sum": lambda at, sigma: resultant_sum(at, sigma, 257),
}


def memo_points():
    """The benchmark's point-query sigmas at log-uniform alpha_t up to 3e4, and
    at 1-3 ulp either side of order thresholds from j = 2 to 2e4."""
    rng = np.random.default_rng(23)
    pts = []
    for sigma in (0.5, 1 / 3, 0.3, 1 / 8):
        h = math.pi * sigma
        pts += [(at, sigma) for at in np.exp(rng.uniform(math.log(h), math.log(3e4), 6)).tolist()]
        for j in np.exp(rng.uniform(math.log(2), math.log(2e4), 3)).astype(int).tolist():
            up = down = order_alpha(j, sigma)
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                pts += [(up, sigma), (down, sigma)]
    return pts


class TestEnvelopeMemo:
    """``_envelope_sum`` remembers each (order count, sigma) sum: the scalars
    return the floats they return uncached, and each sum runs once."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _envelope_sum.cache_clear()
        yield
        _envelope_sum.cache_clear()

    @staticmethod
    def uncached(f, at, sigma):
        _envelope_sum.cache_clear()
        return f(at, sigma)

    def test_warm_equals_cold_in_either_order(self):
        names = list(MEMOIZED)
        for at, sigma in memo_points():
            want = {name: self.uncached(MEMOIZED[name], at, sigma) for name in names}
            for order in (names, names[::-1]):
                _envelope_sum.cache_clear()
                got = {name: MEMOIZED[name](at, sigma) for name in order}
                assert got == want, (at, sigma)

    def test_float64_sigma_keeps_its_own_entry(self):
        at = 40.0
        for sigma in (0.3, 1 / 8):
            for name, f in MEMOIZED.items():
                # a float and a float64 sigma are equal dict keys, so index by type
                cold = {type(s): self.uncached(f, at, s) for s in (sigma, np.float64(sigma))}
                _envelope_sum.cache_clear()
                for s in (sigma, np.float64(sigma), sigma):
                    got, want = f(at, s), cold[type(s)]
                    assert got == want and type(got) is type(want), (name, type(s))
                assert _envelope_sum.cache_info().currsize == 2

    def test_one_sum_per_order_count(self, monkeypatch):
        calls = []

        def counted(js, sigma):
            calls.extend(js)
            return _sinc_sq_orders(js, sigma)

        monkeypatch.setattr(orders, "_sinc_sq_orders", counted)
        sigma = 0.3
        n = 2000
        at, same_n = order_alpha(n + 0.25, sigma), order_alpha(n + 0.75, sigma)
        for f in MEMOIZED.values():
            f(at, sigma)
        occupation_value(same_n, sigma)
        assert propagating_orders(at, sigma)[-1] == propagating_orders(same_n, sigma)[-1] == n
        assert sorted(calls) == list(range(1, n + 1))

    def test_memo_stays_bounded(self):
        sigma = 0.5
        for n in range(3 * _ENVELOPE_MEMO_SIZE):
            zero_order_share(order_alpha(n + 0.5, sigma), sigma)
        info = _envelope_sum.cache_info()
        assert info.maxsize == _ENVELOPE_MEMO_SIZE
        assert info.currsize <= info.maxsize
        assert info.misses == 3 * _ENVELOPE_MEMO_SIZE


class TestOrderSumBound:
    # The first count over the bound, and one far past any count that could
    # finish: both are refused before a single term is summed.
    TOO_MANY = [order_alpha(MAX_ORDER_TERMS + 1, 0.5), 1e300]

    def test_last_admitted_count(self):
        at = order_alpha(MAX_ORDER_TERMS, 0.5)
        assert propagating_orders(at, 0.5)[-1] == MAX_ORDER_TERMS

    @pytest.mark.parametrize("at", TOO_MANY)
    @pytest.mark.parametrize(
        "f",
        [
            normalized_resultant_probability,
            occupation_value,
            zero_order_share,
            zero_order_energy,
            lambda at, sigma: resultant_sum(at, sigma, 257),
            lambda at, sigma: order_probability(0, at, sigma),
            propagating_orders,
        ],
    )
    def test_scalar_sums_are_bounded(self, f, at):
        with pytest.raises(ValueError, match="order terms"):
            f(at, 0.5)

    @pytest.mark.parametrize("at", TOO_MANY)
    def test_order_table_is_bounded(self, at):
        spec = GratingSpec.from_truncation(at, LAMBDA, 0.5, 257)
        with pytest.raises(ValueError, match="order terms"):
            order_table(spec)

    def test_order_table_row_bound(self):
        # the last accepted row count is not built here; one row more is refused
        n = (MAX_POINTS - 1) // 2
        assert propagating_orders(order_alpha(n, 0.5), 0.5)[-1] == n
        spec = GratingSpec.from_truncation(order_alpha(n + 1, 0.5), LAMBDA, 0.5, 257)
        with pytest.raises(ValueError, match="rows"):
            order_table(spec)


class TestOrderTable:
    @pytest.fixture()
    def g316(self):
        return order_table(GratingSpec.ronchi(1000.0, LAMBDA, 257))

    def test_energy_conserved(self, g316):
        assert g316.e_r == pytest.approx(1.0, abs=1e-9)
        orders = range(1 - len(g316.e_rj), len(g316.e_rj))
        assert math.fsum(g316.e_rj[abs(j)] for j in orders) == pytest.approx(1.0, abs=1e-9)

    def test_row_omegas_equal_table_omega(self, g316):
        assert len(g316.omega_j) == len(g316.p_rj) == len(g316.e_rj)
        for omega_j in g316.omega_j:
            assert omega_j == pytest.approx(g316.omega, abs=1e-9)

    def test_even_rows_null(self, g316):
        for j in range(2, len(g316.p_rj), 2):
            assert g316.p_rj[j] == 0.0
            assert g316.e_rj[j] == 0.0

    def test_symmetric_rows(self, g316, tmp_path):
        _, rows = read_csv(write_order_table(g316, tmp_path / "table.csv").read_bytes())
        by_j = {int(r[0]): r for r in rows}
        assert sorted(by_j) == list(range(1 - len(g316.p_rj), len(g316.p_rj)))
        for j in (1, 2, 3):
            assert by_j[j][1:].tolist() == by_j[-j][1:].tolist()
            assert by_j[j][1:].tolist() == [g316.p_rj[j], g316.e_rj[j], g316.omega_j[j]]

    def test_frozen_totals(self, g316):
        assert g316.p_r == pytest.approx(1.0133720, rel=1e-6)
        assert g316.omega == pytest.approx(0.9868044, rel=1e-6)

    def test_frozen_rows(self, g316):
        assert g316.p_rj[0] == pytest.approx(0.533176133, rel=1e-8)
        assert g316.e_rj[1] == pytest.approx(0.213236742, rel=1e-8)
        assert g316.e_rj[3] == pytest.approx(0.0236929714, rel=1e-8)

    def test_threshold_pair_totals(self):
        lam = LAMBDA
        below = order_table(GratingSpec.from_truncation(ALPHA_3 - 1e-6, lam, 0.5, 257))
        above = order_table(GratingSpec.from_truncation(ALPHA_3 + 1e-6, lam, 0.5, 257))
        assert below.p_r == pytest.approx(P_R_BELOW_3, rel=1e-7)
        assert below.omega == pytest.approx(OMEGA_BELOW_3, rel=1e-7)
        assert above.p_r == pytest.approx(P_R_ABOVE_3, rel=1e-7)
        assert above.omega == pytest.approx(OMEGA_ABOVE_3, rel=1e-7)
        assert len(below.p_rj) == 3  # orders -2..2
        assert len(above.p_rj) == 4  # orders -3..3
        assert above.e_rj[3] == pytest.approx(0.023692971, rel=1e-6)


class TestCurve:
    def test_resultant_curve_shape(self):
        c = curve("resultant_probability", 0.5, (math.pi, 3 * math.pi), 400)
        assert np.all(np.diff(c.abscissa) > 0)
        # upward jumps only at odd orders, decaying with j
        jumps = {}
        for j in (3, 5):
            aj = float(order_alpha(j, 0.5))
            left = c.ordinate[np.searchsorted(c.abscissa, aj - 1e-6)]
            right = c.ordinate[np.searchsorted(c.abscissa, aj + 1e-6)]
            jumps[j] = right - left
        assert jumps[3] > jumps[5] > 0

    def test_threshold_jump_lies_between_its_edge_samples_at_tiny_sigma(self):
        # Order 3's edge samples at 2.75 and 3.25 pi sigma: the one below
        # counts 5 orders, as the grid point at 2.5 does; 7 only from 3 on.
        sigma = 1e-9
        c = curve("occupation", sigma, (order_alpha(2.5, sigma), order_alpha(3.5, sigma)), 5)
        assert (c.abscissa / (math.pi * sigma)).round(12).tolist() == [2.5, 2.75, 3.0, 3.25, 3.5]
        assert order_counts(c.abscissa, sigma).tolist() == [2, 2, 3, 3, 3]
        assert c.ordinate[1] == pytest.approx(1.1, rel=1e-12)
        assert c.ordinate.tolist() == [occupation_value(a, sigma) for a in c.abscissa.tolist()]

    def test_edge_pairs_are_inserted(self):
        c = curve("resultant_probability", 0.5, (math.pi, 3 * math.pi), 50)
        for j in (3, 4, 5):
            aj = float(order_alpha(j, 0.5))
            assert aj - 1e-6 in c.abscissa
            assert aj + 1e-6 in c.abscissa

    def test_non_increasing_between_orders(self):
        c = curve("resultant_probability", 0.5, (math.pi, 3 * math.pi), 800)
        a, v = c.abscissa, c.ordinate
        for j in (2, 3, 4, 5):
            lo = float(order_alpha(j, 0.5)) + 2e-6
            hi = float(order_alpha(j + 1, 0.5)) - 2e-6
            seg = v[(a >= lo) & (a <= hi)]
            assert np.all(np.diff(seg) <= 1e-15)

    def test_jump_magnitude_matches_strip_formula(self):
        from grating_orders.quadrature import sinc_sq_integral

        c = curve("resultant_probability", 0.5, (math.pi, 3 * math.pi), 400)
        aj = float(order_alpha(3, 0.5))
        left = c.ordinate[np.searchsorted(c.abscissa, aj - 1e-6)]
        right = c.ordinate[np.searchsorted(c.abscissa, aj + 1e-6)]
        expected = (
            2 * math.pi * 0.5 * sinc_sq_at_order(3, 0.5)
            / sinc_sq_integral(aj)
        )
        assert right - left == pytest.approx(expected, rel=1e-4)

    def test_occupation_curve_is_reciprocal(self):
        grid = (math.pi, 3 * math.pi)
        p = curve("resultant_probability", 0.5, grid, 300)
        w = curve("occupation", 0.5, grid, 300)
        assert np.array_equal(p.abscissa, w.abscissa)
        assert np.max(np.abs(p.ordinate * w.ordinate - 1.0)) <= 1e-12

    def test_share_curve_is_non_increasing_step_function(self):
        c = curve("zero_order_share", 0.5, (math.pi / 4, 4 * math.pi), 600)
        assert np.all(np.diff(c.ordinate) <= 1e-15)
        assert c.ordinate[0] == 1.0

    def test_energy_curve_is_share_curve(self):
        # unit total output energy: the 0th-order energy is its probability share
        e = curve("zero_order_energy", 0.5, (1.0, 7.0), 50)
        s = curve("zero_order_share", 0.5, (1.0, 7.0), 50)
        assert np.array_equal(e.abscissa, s.abscissa)
        assert np.array_equal(e.ordinate, s.ordinate)

    @pytest.mark.parametrize("sigma", [0.5, 1 / 3, 1 / 16, 1 / 48])
    @pytest.mark.parametrize("kind", CURVE_KINDS)
    def test_ordinates_equal_scalar(self, kind, sigma):
        # The shared order table and the per-count sums give the scalar's
        # float exactly, on both sides of every inserted threshold edge and,
        # for the share kinds, below the first order.
        scalar = SCALARS[kind]
        step = math.pi * sigma
        lo = step if kind in ("resultant_probability", "occupation") else 0.3 * step
        c = curve(kind, sigma, (lo, 41.5 * step), 101)
        alphas = c.abscissa.tolist()
        for j in (2, 17, 41):
            aj = order_alpha(j, sigma)
            assert aj - EDGE_OFFSET in alphas and aj + EDGE_OFFSET in alphas
        assert c.ordinate.tolist() == [scalar(at, sigma) for at in alphas]

    @given(
        st.sampled_from(CURVE_KINDS),
        st.floats(1e-3, 0.99),
        st.floats(1.0, 100.0),
        st.floats(0.01, 60.0),
        st.integers(2, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_curves_equal_scalar(self, kind, sigma, j_lo, j_width, samples):
        scalar = SCALARS[kind]
        lo = j_lo * math.pi * sigma
        hi = lo + j_width * math.pi * sigma
        c = curve(kind, sigma, (lo, hi), samples)
        alphas = c.abscissa.tolist()
        assert alphas[0] == lo and alphas[-1] == hi  # whose counts curve reuses
        assert c.ordinate.tolist() == [scalar(at, sigma) for at in alphas]
        counts = [propagating_orders(at, sigma)[-1] for at in alphas]
        assert order_counts(c.abscissa, sigma).tolist() == counts

    @pytest.mark.parametrize("kind", CURVE_KINDS)
    def test_tiny_sigma_curve_equals_scalar(self, kind):
        # every alpha here is below 2**-511, where the envelope integral is 2
        # alpha; at the least subnormal sigma the order spacing is 3 or 4
        # units, and the grid's rounded step carries inner points past hi
        for sigma in (1e-300, 5e-324):
            c = curve(kind, sigma, (math.pi * sigma, 9.5 * math.pi * sigma), 41)
            want = [SCALARS[kind](at, sigma) for at in c.abscissa.tolist()]
            assert c.ordinate.tolist() == want

    @pytest.mark.parametrize("sigma", [1e-6, 2e-7, 1e-7])
    def test_edge_samples_admit_their_own_order(self, sigma):
        # Orders here are pi*sigma <= 3.2e-6 apart; each edge sample stays
        # within a quarter spacing of its order, on the side it labels.
        step = math.pi * sigma
        c = curve("zero_order_share", sigma, (100.33 * step, 110 * step), 2)
        alphas = c.abscissa.tolist()
        edge = min(EDGE_OFFSET, step / 4)
        for j in range(101, 110):
            aj = order_alpha(j, sigma)
            assert aj - edge in alphas and aj + edge in alphas
            assert propagating_orders(aj + edge, sigma)[-1] == j
            assert propagating_orders(aj - edge, sigma)[-1] == j - 1

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="pi\\*sigma"):
            curve("resultant_probability", 0.5, (math.pi / 4, math.pi), 10)
        with pytest.raises(ValueError):
            curve("zero_order_share", 0.5, (2.0, 1.0), 10)
        with pytest.raises(ValueError):
            curve("zero_order_share", 0.5, (1.0, 2.0), 1)
        # an unknown kind is refused with the kinds there are, before any other check
        with pytest.raises(ValueError) as exc:
            curve("energy", 2.0, (1.0, 2.0), 1)
        assert str(exc.value) == (
            "unknown curve kind 'energy'; expected one of ('resultant_probability', "
            "'occupation', 'zero_order_share', 'zero_order_energy')")

    def test_order_term_budget(self):
        # 2000 samples up to j = 1e12: the top admits more than MAX_ORDER_TERMS orders
        with pytest.raises(ValueError, match="order terms"):
            curve("occupation", 0.5, (0.5 * math.pi, 0.5e12 * math.pi), 2000)
        # orders 1..1000 lie inside and add two edge samples each: one point
        # over MAX_POINTS
        hi = order_alpha(1000, 0.5) + 1.0
        with pytest.raises(ValueError, match="points"):
            curve("zero_order_share", 0.5, (0.01, hi), MAX_POINTS + 1 - 2 * 1000)
        # below the first order the samples alone are over
        with pytest.raises(ValueError, match="points"):
            curve("zero_order_share", 0.5, (0.01, 0.05), 10**8)
        # a sample count too large for a float is refused, not overflowed
        with pytest.raises(ValueError, match="points"):
            curve("zero_order_share", 0.5, (1.0, 2.0), 10**400)

    @pytest.mark.parametrize(
        "lo, hi, samples",
        [
            # 24 points, each admitting about 6.4e5 orders
            (1e6, 1e6 + 10, 10),
            # about 21k points just below the order-10,000 threshold
            (0.5 * math.pi, order_alpha(10_000, 0.5) - 1e-3, 1001),
        ],
    )
    def test_wide_order_ranges_answer(self, lo, hi, samples):
        # Both were refused by the retired estimate, every order up to the
        # top of the range once per point, which exceeds MAX_ORDER_TERMS here.
        assert (samples + 2 * (hi - lo) / (0.5 * math.pi)) * hi / (0.5 * math.pi) > MAX_ORDER_TERMS
        c = curve("occupation", 0.5, (lo, hi), samples)
        assert c.abscissa[0] == lo and c.abscissa[-1] == hi
        for i in (0, c.abscissa.size // 2, c.abscissa.size - 1):
            assert c.ordinate[i] == occupation_value(float(c.abscissa[i]), 0.5)

    def test_probability_curve_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ProbabilityCurve(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite and positive"):
            ProbabilityCurve(np.array([1.0, 2.0]), np.array([1.0, -1.0]))


def test_order_terms_are_the_scalar_terms_across_blocks():
    n = 2 * _SUM_BLOCK + 3
    terms = _order_terms(n, 0.3)
    assert terms.dtype == np.float64
    assert terms.tolist() == [sinc_sq_at_order(j, 0.3) for j in range(n + 1)]


BLOCK_SIGMAS = [0.5, 1 / 3, 0.3, 1 / 8, 0.9, 1e-3, np.float64(0.3)]


class TestScalarOrderBlocks:
    """The scalar order sums take their terms in blocks of ``_sinc_sq_orders``;
    each block edge neither drops nor repeats an order. The reference is the
    numpy body of ``sinc_sq_at_order``, one array of every order."""

    @pytest.fixture(params=[None, 7], ids=["real-block", "block-7"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(orders, "_ORDER_BLOCK", request.param)
        _envelope_sum.cache_clear()
        yield orders._ORDER_BLOCK
        _envelope_sum.cache_clear()

    @pytest.mark.parametrize("sigma", BLOCK_SIGMAS)
    def test_envelope_sum_equals_the_array_terms(self, block, sigma):
        for n in (1, 2, block - 1, block, block + 1, 2 * block + 3):
            terms = sinc_sq_at_order(np.arange(1, n + 1), sigma).tolist()
            assert _envelope_sum(n, sigma) == 1.0 + 2.0 * math.fsum(terms), n

    @pytest.mark.parametrize("sigma", BLOCK_SIGMAS)
    def test_table_columns_are_the_per_order_expressions(self, block, sigma):
        n = 2 * block * math.ceil(1 / (sigma * block)) + 3  # alpha_t >= pi
        t = order_table(GratingSpec.from_truncation(order_alpha(n + 0.5, sigma), LAMBDA, sigma))
        assert len(t.p_rj) == n + 1
        denom = orders.sinc_sq_integral(truncation_alpha(t.grating))
        p_rj = [math.pi * sigma * s / denom for s in sinc_sq_at_order(np.arange(n + 1), sigma).tolist()]
        assert t.p_rj.tolist() == p_rj
        assert t.e_rj.tolist() == [p / t.p_r for p in p_rj]
        assert t.omega_j.tolist() == [e / p if p > 0 else t.omega for p, e in zip(p_rj, t.e_rj)]


class TestPrefixEnvelopes:
    """The envelopes 1 + 2 fsum(terms[1:n + 1]) that ``curve`` takes from ``fsum_prefixes``."""

    @pytest.mark.parametrize("sigma", [1 / 2, 1 / 3, 0.3, 1 / 48])
    def test_equal_fsum_at_every_prefix(self, sigma):
        # At every n, fsum is taken over an error-free expansion of the
        # first n terms (Shewchuk's partials: floats whose exact sum is the
        # exact prefix sum), so it is math.fsum(terms[1:n + 1]) without
        # summing each prefix again; plain fsum checks a sample of n.
        n_max = 10**5
        terms = _order_terms(n_max, sigma)
        got = (1.0 + 2.0 * fsum_prefixes(terms[1:, None], list(range(n_max + 1)))[:, 0]).tolist()
        assert len(got) == n_max + 1 and got[0] == 1.0
        partials = []
        for n, x in enumerate(terms[1:], start=1):
            i = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
            assert got[n] == 1.0 + 2.0 * math.fsum(partials), n
        for n in [*range(200), *range(200, n_max + 1, 997), n_max]:
            assert got[n] == 1.0 + 2.0 * math.fsum(terms[1:n + 1]), n

    def test_sparse_counts(self):
        terms = _order_terms(500, 1 / 48)
        counts = [0, 0, 3, 17, 18, 499, 500]
        assert (1.0 + 2.0 * fsum_prefixes(terms[1:, None], counts)[:, 0]).tolist() == [
            1.0 + 2.0 * math.fsum(terms[1:n + 1]) for n in counts
        ]
