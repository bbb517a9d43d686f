import math

import pytest
from hypothesis import given, settings, strategies as st

from grating_orders.diffraction import (
    GratingSpec,
    alpha_from_theta,
    equivalent_order,
    grating_factor,
    grating_intensity,
    order_alpha,
    sinc_sq,
    sinc_sq_at_order,
    truncation_alpha,
)

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
