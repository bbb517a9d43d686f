import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grating_orders.diffraction import (
    GratingSpec,
    _sinc_sq_orders,
    alpha_from_theta,
    equivalent_order,
    grating_factor,
    grating_intensity,
    order_alpha,
    sinc_sq,
    sinc_sq_at_order,
    truncation_alpha,
)
from grating_orders.figures import _intensity_rows

LAMBDA = 633.0


def ronchi(w):
    return GratingSpec.ronchi(w, LAMBDA, 4)


class TestGratingSpec:
    def test_valid_ronchi(self):
        spec = ronchi(1000.0)
        assert spec.period_p == 2000.0
        assert spec.duty_sigma == 0.5

    def test_subwavelength_slit_rejected(self):
        with pytest.raises(ValueError, match="sub-wavelength"):
            ronchi(LAMBDA / 2.0)

    def test_slit_count_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            GratingSpec.ronchi(1000.0, LAMBDA, 0)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.25, 1.5])
    def test_duty_cycle_bounds(self, sigma):
        with pytest.raises(ValueError):
            GratingSpec(1000.0, sigma, LAMBDA, 4)

    def test_from_truncation_round_trips(self):
        spec = GratingSpec.from_truncation(3 * math.pi / 2, LAMBDA, 0.5, 4)
        assert float(truncation_alpha(spec)) == pytest.approx(3 * math.pi / 2, rel=1e-15)


class TestAlphaFromTheta:
    def test_zero_angle(self):
        assert float(alpha_from_theta(ronchi(1000.0), 0.0)) == 0.0

    def test_grazing_angle_at_three_halves_wavelength(self):
        spec = ronchi(1.5 * LAMBDA)
        assert float(alpha_from_theta(spec, 90.0)) == pytest.approx(1.5 * math.pi, rel=1e-15)

    def test_thirty_degrees_at_single_wavelength_width(self):
        spec = ronchi(LAMBDA)
        assert float(alpha_from_theta(spec, 30.0)) == pytest.approx(math.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("theta", [-90.01, 90.01, 180.0])
    def test_out_of_range_angle(self, theta):
        with pytest.raises(ValueError, match="theta"):
            alpha_from_theta(ronchi(1000.0), theta)

    @given(st.floats(-90.0, 90.0))
    def test_odd_in_theta(self, theta):
        spec = ronchi(900.0)
        assert float(alpha_from_theta(spec, -theta)) == -float(alpha_from_theta(spec, theta))

    def test_grazing_equals_truncation_exactly(self):
        for w in (633.0, 833.0, 1000.0, 1250.0):
            spec = ronchi(w)
            assert float(alpha_from_theta(spec, 90.0)) == float(truncation_alpha(spec))


class TestTruncationAndOrders:
    def test_truncation_equals_pi_at_w_lambda(self):
        assert float(truncation_alpha(ronchi(LAMBDA))) == pytest.approx(math.pi, rel=1e-15)

    def test_truncation_scales_with_width(self):
        assert float(truncation_alpha(ronchi(833.0))) == pytest.approx(
            math.pi * 833.0 / 633.0, rel=1e-15
        )

    def test_order_alpha_basics(self):
        assert float(order_alpha(0, 0.5)) == 0.0
        assert float(order_alpha(3, 0.5)) == pytest.approx(3 * math.pi / 2, rel=1e-15)
        # the 12th order of a 1/8 duty cycle sits at the same position
        assert float(order_alpha(12, 0.125)) == float(order_alpha(3, 0.5))

    @given(st.integers(-50, 50))
    def test_order_alpha_odd_in_j(self, j):
        assert float(order_alpha(-j, 0.5)) == -float(order_alpha(j, 0.5))

    def test_equivalent_order_of_measured_gratings(self):
        # 2 w / lambda at sigma = 0.5; two of the three stated two-decimal
        # labels are inside +-0.005, the 1250 nm grating truly sits at 3.9494
        values = [equivalent_order(ronchi(w)) for w in (833.0, 1000.0, 1250.0)]
        assert values == pytest.approx([2 * 833 / 633, 2000 / 633, 2500 / 633], rel=1e-14)
        assert abs(values[0] - 2.63) <= 0.005
        assert abs(values[1] - 3.16) <= 0.005
        assert abs(values[2] - 3.9494) <= 0.005

    def test_equivalent_order_matches_truncation_over_order_spacing(self):
        for w, sigma in ((900.0, 0.5), (1100.0, 0.25)):
            spec = GratingSpec(w, sigma, LAMBDA, 4)
            assert equivalent_order(spec) == pytest.approx(
                float(truncation_alpha(spec)) / (math.pi * sigma), rel=1e-13
            )

    def test_inclusion_consistency_with_floor(self):
        # order j fits below truncation iff j <= floor(2w/lambda) at sigma 0.5
        for w in (833.0, 1000.0, 1250.0, 949.5):
            spec = ronchi(w)
            at = float(truncation_alpha(spec))
            n = math.floor(equivalent_order(spec))
            assert float(order_alpha(n, 0.5)) <= at
            assert float(order_alpha(n + 1, 0.5)) > at


class TestSincSq:
    def test_removable_singularity(self):
        assert sinc_sq(0.0) == 1.0

    def test_zero_at_pi(self):
        assert sinc_sq(math.pi) < 1e-30

    def test_half_pi(self):
        assert sinc_sq(math.pi / 2) == pytest.approx(4 / math.pi**2, rel=1e-15)

    def test_series_window_is_continuous(self):
        inside, outside = sinc_sq(0.999e-6), sinc_sq(1.001e-6)
        assert inside == pytest.approx(outside, rel=1e-12)

    @given(st.floats(-200.0, 200.0))
    def test_even_and_bounded(self, a):
        v = sinc_sq(a)
        assert 0.0 <= v <= 1.0
        assert sinc_sq(-a) == v

    def test_order_position_envelope_matches_generic(self):
        for j, sigma in ((1, 0.5), (3, 0.5), (12, 0.125), (5, 0.25)):
            assert sinc_sq_at_order(j, sigma) == pytest.approx(
                sinc_sq(float(order_alpha(j, sigma))), rel=1e-12, abs=1e-300
            )

    def test_envelope_nulls_are_exact_zeros(self):
        for j in (2, 4, -6, 10):
            assert sinc_sq_at_order(j, 0.5) == 0.0
        for j in (8, 16, -24):
            assert sinc_sq_at_order(j, 0.125) == 0.0


class TestGratingFactorAndIntensity:
    def test_origin_value(self):
        assert grating_intensity(0.0, 0.125, 4) == 16.0

    @pytest.mark.parametrize("n_slits", [2, 4, 64, 257])
    @pytest.mark.parametrize("sigma", [0.5, 0.125])
    def test_principal_maxima_scale_as_n_squared(self, n_slits, sigma):
        for j in range(-20, 21):
            a = float(order_alpha(j, sigma))
            ratio = grating_intensity(a, sigma, n_slits) / sinc_sq(a)
            assert ratio == pytest.approx(n_slits**2, rel=1e-9)

    @pytest.mark.parametrize("n_slits", [4, 64, 1000])
    def test_continuous_across_removable_singularity(self, n_slits):
        for j, sigma in ((1, 0.5), (3, 0.5), (7, 0.125)):
            a = float(order_alpha(j, sigma))
            centre = grating_intensity(a, sigma, n_slits)
            for da in (-1e-7, 1e-7):
                assert grating_intensity(a + da, sigma, n_slits) == pytest.approx(
                    centre, rel=1e-4
                )

    def test_frozen_point_values(self):
        # frozen from a 25-digit evaluation of sinc^2 * squared Dirichlet ratio
        assert grating_intensity(math.pi / 16, 0.5, 4) == pytest.approx(
            6.7411245283588, rel=1e-12
        )
        assert grating_intensity(0.3, 0.125, 4) == pytest.approx(
            0.064633357342613, rel=1e-12
        )

    @given(st.floats(-30.0, 30.0), st.sampled_from([0.125, 0.5]), st.sampled_from([2, 4, 64]))
    @settings(max_examples=200)
    def test_bounded_by_n_squared_envelope(self, a, sigma, n_slits):
        assert 0.0 <= grating_intensity(a, sigma, n_slits) <= n_slits**2 * sinc_sq(a) * (1 + 1e-9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            grating_factor(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            grating_factor(1.0, 0.5, 0)
        with pytest.raises(ValueError):
            sinc_sq(float("nan"))


def random_alphas(sigma, rng):
    """About 1,700 alphas: uniform over +-40 pi, log-uniform in magnitude up to
    1e300, within 1e-6 of 0 and of the order positions j pi sigma, |j| <= 40 /
    sigma (half of the latter within 3e-6, across the edge of the series
    window), 0 and the positions themselves, both sides of each edge of the
    sinc^2 window and of the grating-factor window at N = 1, 4 and 257, +-0,
    +-5e-324, +-1e300 and alpha/sigma within an ulp or so of overflow."""
    top = math.ceil(40 / sigma)
    positions = np.arange(-top, top + 1) * math.pi * sigma
    near = rng.choice(positions, 300) + rng.uniform(-1e-6, 1e-6, 300) * ([1.0, 3.0] * 150)
    edges = [1e-6, *(min(1e-6 / sigma, 1e-3 / n) * sigma for n in (1, 4, 257))]
    edges = [e + d * math.ulp(e) for e in edges for d in (-1, 0, 1)]
    largest = np.finfo(float).max * sigma
    special = [0.0, 5e-324, 1e300, largest, np.nextafter(largest, 0), *edges,
               *(p + e for p in rng.choice(positions, 8) for e in edges)]
    return np.concatenate([
        rng.uniform(-40 * math.pi, 40 * math.pi, 700),
        rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-300, 300, 300),
        near,
        rng.choice(positions, 100),
        rng.uniform(-1e-6, 1e-6, 100) * 10.0 ** rng.uniform(-10, 0, 100),
        special,
        np.negative(special),
    ])


class TestArrayKernels:
    """A float gives, bit for bit, its own element of an array call."""

    @pytest.mark.parametrize("sigma", [1 / 8, 0.37, 1 / 2])
    def test_equal_to_scalar_loop(self, sigma):
        alphas = random_alphas(sigma, np.random.default_rng(round(1 / sigma)))
        assert alphas.size >= 1_500 and np.isfinite(alphas / sigma).all()
        points = alphas.tolist()
        kernels = [sinc_sq, *(partial(f, sigma=sigma, n_slits=n)
                              for f in (grating_factor, grating_intensity) for n in (1, 4, 257))]
        for kernel in kernels:
            values = [kernel(a) for a in points]
            assert {type(v) for v in values} == {float}
            assert np.array(values).tobytes() == kernel(alphas).tobytes()

    @pytest.mark.parametrize("sigma,n_slits", [(1 / 8, 1), (0.37, 257), (1 / 2, 4)])
    @pytest.mark.parametrize("include_single", [False, True])
    def test_intensity_rows_equal_scalar_rows(self, sigma, n_slits, include_single):
        rows = _intensity_rows(-25.0, 31.0, 20_001, sigma, n_slits, include_single)
        a = np.linspace(-25.0, 31.0, 20_001)
        single = [sinc_sq(a)] if include_single else []
        expected = np.column_stack([a, *single, n_slits * sinc_sq(a), grating_intensity(a, sigma, n_slits)])
        assert rows.tobytes() == expected.tobytes()
        for row in rows[::97].tolist():  # and every 97th row by float calls
            x = row[0]
            single = [sinc_sq(x)] if include_single else []
            assert row == [x, *single, n_slits * sinc_sq(x), grating_intensity(x, sigma, n_slits)]

    @pytest.mark.parametrize("sigma", [1 / 2, 1 / 3, 0.3, 1 / 8, 1 / 48, 1 - 2**-53])
    def test_order_terms_equal_scalar(self, sigma):
        # every order up to 1e5, then 20,000 sampled orders up to 1e7: the
        # array squares with np.float_power, the scalar with ** 2, and the
        # order sums' block body gives the scalar's floats
        rng = np.random.default_rng(round(1 / sigma))
        j = np.arange(10**5 + 1)
        expected = [sinc_sq_at_order(k, sigma) for k in range(10**5 + 1)]
        assert sinc_sq_at_order(j, sigma).tolist() == expected
        assert _sinc_sq_orders(range(1, 10**5 + 1), sigma) == expected[1:]
        j = rng.integers(10**5, 10**7 + 1, 20_000)
        j = np.concatenate([j, -j, np.arange(-1000, 0)])  # negative orders too
        expected = [sinc_sq_at_order(k, sigma) for k in j.tolist()]
        assert sinc_sq_at_order(j, sigma).tolist() == expected
        assert _sinc_sq_orders(j.tolist(), sigma) == expected
        # 1,500 log-uniform orders from |j sigma| = 2**51, where the block
        # body's reduction stops holding, to the ends of int64, both signs
        top = np.iinfo(np.int64).max
        lo = math.ceil(2**51 / sigma)
        bits = rng.integers(lo.bit_length(), 64, 1500)
        j = np.maximum(rng.integers(1 << (bits - 1), top >> (63 - bits), endpoint=True), lo)
        j = np.concatenate([j, [lo, top], -j, [-top - 1]])
        assert sinc_sq_at_order(j, sigma).tolist() == [sinc_sq_at_order(k, sigma) for k in j.tolist()]
        assert sinc_sq_at_order(np.array([0, 2]), 0.5).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("call,message", [
        (lambda a: grating_factor(a, 1.0, 4), "sigma must lie in (0, 1), got 1.0"),
        (lambda a: grating_intensity(a, 0.5, 0), "n_slits must be an integer >= 1, got 0"),
        (lambda a: grating_intensity(a, 0.5, 2.0), "n_slits must be an integer >= 1, got 2.0"),
        (lambda a: sinc_sq(a * np.inf), "alpha must be finite, got inf"),
        (lambda a: grating_factor(a + np.nan, 0.5, 4), "alpha must be finite, got nan"),
        (lambda a: grating_factor(a / a * 1e308, 1 / 8, 4),
         "alpha/sigma overflows a float at alpha=1e+308, sigma=0.125"),
    ])
    def test_refusals_match_the_scalar(self, call, message):
        for alpha in (1.0, np.array([0.5, 1.0])):
            with pytest.raises(ValueError) as exc:
                call(alpha)
            assert str(exc.value) == message
