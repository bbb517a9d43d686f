import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grating_orders.coupling import (
    CouplingScenario,
    PulsePair,
    apparent_omega_annular,
    apparent_omega_finite_reservoir,
    bias_report,
    composed_apparent_omega,
    equilibrated_omega,
    omega_ex,
    synthesize_pulse_train,
)

PAPER_SCENARIO = CouplingScenario(omega_id=1.025, p_ratio=100.0, f_g=0.4, f_r=0.01)

# Frozen from exact rational evaluation of the three bias maps.
EQUILIBRATED = 1.0002475248
APPARENT_FINITE = 1.0247463499
APPARENT_ANNULAR = 1.0249839846
APPARENT_COMPOSED = 1.0247242297


def scenario(**kw) -> CouplingScenario:
    return replace(PAPER_SCENARIO, **kw)


class TestScenarioValidation:
    def test_defaults_are_the_reference_setup(self):
        assert PAPER_SCENARIO.p_ratio == 100.0
        assert PAPER_SCENARIO.eta == 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"omega_id": 0.0},
            {"p_ratio": 0.0},
            {"f_g": 0.0},
            {"f_g": 1.5},
            {"f_r": -0.1},
            {"f_r": 0.5},  # above f_g
            {"eta": 1.5},
        ],
    )
    def test_invalid_parameters(self, kw):
        with pytest.raises(ValueError):
            scenario(**kw)

    def test_degenerate_equal_fractions_allowed(self):
        assert scenario(f_r=0.4).f_r == 0.4


class TestOmegaEx:
    def test_equal_pulses(self):
        assert omega_ex(PulsePair(1.0, 1.0)) == 1.0

    def test_reference_measurement(self):
        assert omega_ex(PulsePair(1.015, 1.000)) == pytest.approx(1.015, rel=1e-15)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_scale_invariance(self, a, b, k):
        assert omega_ex(PulsePair(k * a, k * b)) == pytest.approx(
            omega_ex(PulsePair(a, b)), rel=1e-12
        )

    def test_positive_heights_required(self):
        with pytest.raises(ValueError):
            PulsePair(0.0, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                PulsePair(bad, 1.0)
            with pytest.raises(ValueError, match="finite and positive"):
                PulsePair(1.0, bad)


class TestEquilibratedOmega:
    def test_reference_value(self):
        assert equilibrated_omega(PAPER_SCENARIO) == pytest.approx(EQUILIBRATED, abs=1e-9)
        # printed two-decimal form of the same number
        assert equilibrated_omega(PAPER_SCENARIO) == pytest.approx(1.0002, abs=5e-5)

    def test_ordinary_input_stays_ordinary(self):
        assert equilibrated_omega(scenario(omega_id=1.0)) == 1.0

    def test_depleted_mirror(self):
        assert equilibrated_omega(scenario(omega_id=0.975)) == pytest.approx(
            0.9997524752, abs=1e-9
        )

    @given(st.floats(0.5, 2.0), st.floats(0.01, 1e6))
    @settings(max_examples=200)
    def test_between_input_and_unity(self, omega_id, p_ratio):
        oc = equilibrated_omega(scenario(omega_id=omega_id, p_ratio=p_ratio))
        lo, hi = sorted((omega_id, 1.0))
        assert lo <= oc <= hi
        if omega_id != 1.0:
            assert lo < oc < hi

    @given(st.floats(0.5, 2.0), st.floats(0.01, 1e5), st.floats(1.1, 4.0))
    @settings(max_examples=200)
    def test_deviation_decreases_with_reservoir(self, omega_id, p_ratio, factor):
        near = abs(equilibrated_omega(scenario(omega_id=omega_id, p_ratio=p_ratio)) - 1.0)
        far = abs(
            equilibrated_omega(scenario(omega_id=omega_id, p_ratio=p_ratio * factor)) - 1.0
        )
        if omega_id != 1.0:
            assert far < near


class TestApparentMaps:
    def test_finite_reservoir_reference(self):
        assert apparent_omega_finite_reservoir(PAPER_SCENARIO) == pytest.approx(
            APPARENT_FINITE, abs=1e-9
        )

    def test_finite_reservoir_limit(self):
        assert apparent_omega_finite_reservoir(scenario(p_ratio=1e12)) == pytest.approx(
            1.025, rel=1e-10
        )
        assert apparent_omega_finite_reservoir(scenario(omega_id=1.0)) == 1.0

    def test_annular_reference(self):
        assert apparent_omega_annular(PAPER_SCENARIO) == pytest.approx(APPARENT_ANNULAR, abs=1e-9)

    def test_annular_depleted_reference(self):
        assert apparent_omega_annular(scenario(omega_id=0.975)) == pytest.approx(
            0.9762050031, abs=1e-9
        )

    def test_annular_ideal_separation_limit(self):
        # with no reference leakage the map reduces to 1 / (1 -+ modulation)
        s = scenario(f_r=0.0)
        assert apparent_omega_annular(s) == pytest.approx(1.0 / 0.975, rel=1e-12)

    def test_annular_degenerate_fractions(self):
        assert apparent_omega_annular(scenario(f_r=0.4)) == 1.0

    def test_annular_no_modulation(self):
        assert apparent_omega_annular(scenario(omega_id=1.0)) == 1.0

    def test_composed_reference(self):
        assert composed_apparent_omega(PAPER_SCENARIO) == pytest.approx(
            APPARENT_COMPOSED, abs=1e-9
        )

    def test_composed_limits_recover_single_maps(self):
        # a huge reservoir leaves only the annular bias; a degenerate annulus
        # or a dead coupling path leaves no modulation at all
        assert composed_apparent_omega(scenario(p_ratio=1e14)) == pytest.approx(
            apparent_omega_annular(PAPER_SCENARIO), rel=1e-10
        )
        assert composed_apparent_omega(scenario(f_r=0.4)) == 1.0
        assert composed_apparent_omega(scenario(eta=0.0)) == 1.0

    @given(st.floats(0.9, 1.1), st.floats(1.0, 1e4))
    @settings(max_examples=200)
    def test_finite_reservoir_always_underestimates(self, omega_id, p_ratio):
        s = scenario(omega_id=omega_id, p_ratio=p_ratio)
        assert abs(apparent_omega_finite_reservoir(s) - 1.0) <= abs(omega_id - 1.0) + 1e-15

    @given(
        st.floats(0.9, 1.1),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_annular_underestimates_on_its_valid_domain(self, omega_id, f_g, f_r_frac):
        # the linear-transfer convention delta_e = |omega_id - 1| makes the
        # enriched branch an underestimate only while
        # (f_g - f_r) (1 + modulation) <= f_g; the depleted branch always is
        f_r = f_g * f_r_frac
        s = scenario(omega_id=omega_id, f_g=f_g, f_r=f_r)
        mod = abs(omega_id - 1.0)
        if omega_id > 1.0 and (f_g - f_r) * (1.0 + mod) > f_g:
            return
        assert abs(apparent_omega_annular(s) - 1.0) <= mod + 1e-12

    def test_mirror_symmetry_of_finite_reservoir_map(self):
        up = abs(apparent_omega_finite_reservoir(scenario(omega_id=1.025)) - 1.0)
        down = abs(apparent_omega_finite_reservoir(scenario(omega_id=0.975)) - 1.0)
        assert abs(up - down) < 5e-4

    def test_annular_asymmetry_is_second_order(self):
        # the annular map is mirror-symmetric only to first order; at a 2.5%
        # modulation the residual is about 2 ((f_g-f_r)/f_g * delta)^2
        up = abs(apparent_omega_annular(scenario(omega_id=1.025)) - 1.0)
        down = abs(apparent_omega_annular(scenario(omega_id=0.975)) - 1.0)
        bound = 2.0 * ((0.39 / 0.4) * 0.025) ** 2
        assert abs(up - down) == pytest.approx(bound, rel=0.05)


class TestBiasReport:
    def test_reference_setup_all_insignificant(self):
        report = bias_report(PAPER_SCENARIO)
        assert report.finite_insignificant
        assert report.annular_insignificant
        assert report.composed_insignificant
        assert 0 < report.underestimate_finite < 0.001
        assert 0 < report.underestimate_annular < 0.001
        assert 0 < report.underestimate_composed < 0.001

    def test_small_reservoir_is_significant(self):
        report = bias_report(scenario(p_ratio=1.0))
        assert not report.finite_insignificant
        # equilibration splits the modulation roughly in half
        assert report.omega_finite_reservoir == pytest.approx(1.025 / 1.0125, rel=1e-12)
        assert report.underestimate_finite == pytest.approx(0.0127, abs=5e-4)

    def test_degenerate_fractions_are_significant(self):
        report = bias_report(scenario(f_r=0.4))
        assert report.omega_annular == 1.0
        assert not report.annular_insignificant

    def test_summary_lines_render(self):
        lines = bias_report(PAPER_SCENARIO).summary_lines()
        assert any("insignificant" in line for line in lines)
        assert len(lines) == 5


class TestClosedLoop:
    def test_theoretical_occupations_survive_both_bias_maps(self):
        # full pipeline: model occupation of each reference ruling fed through
        # the reservoir and annulus biases moves by less than 0.001
        from grating_orders.diffraction import GratingSpec, truncation_alpha
        from grating_orders.orders import occupation_value

        for w in (833.0, 1000.0, 1250.0):
            spec = GratingSpec.ronchi(w, 633.0, 257)
            omega_th = occupation_value(float(truncation_alpha(spec)), 0.5)
            composed = composed_apparent_omega(scenario(omega_id=omega_th))
            assert abs(composed - omega_th) < 0.001


class TestSynthesizePulseTrain:
    def test_noise_free_recovery_is_exact(self):
        train = synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=16, noise_sd=0.0)
        assert train.omega_recovered == pytest.approx(train.omega_predicted, rel=1e-12)
        assert train.omega_predicted == pytest.approx(APPARENT_COMPOSED, abs=1e-9)

    def test_baseline_independence(self):
        low = synthesize_pulse_train(1.025, PAPER_SCENARIO, baseline_bias=0.0, cycles=8)
        high = synthesize_pulse_train(1.025, PAPER_SCENARIO, baseline_bias=7.5, cycles=8)
        assert low.omega_recovered == pytest.approx(high.omega_recovered, rel=1e-12)

    def test_deterministic_per_seed(self):
        a = synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=5, noise_sd=0.01, seed=42)
        b = synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=5, noise_sd=0.01, seed=42)
        c = synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=5, noise_sd=0.01, seed=43)
        assert np.array_equal(a.blocked, b.blocked)
        assert np.array_equal(a.coupled, b.coupled)
        assert not np.array_equal(a.blocked, c.blocked)

    def test_square_wave_structure(self):
        train = synthesize_pulse_train(1.025, PAPER_SCENARIO, baseline_bias=0.2, cycles=3)
        block = train.blocked.reshape(3, 32)
        assert np.allclose(block[:, :16], 0.2 + 0.4)
        assert np.allclose(block[:, 16:], 0.2)
        assert train.pulses.dv_g == pytest.approx(0.4, rel=1e-12)

    def test_modest_noise_recovers_reference_modulation(self):
        train = synthesize_pulse_train(
            1.025, PAPER_SCENARIO, cycles=100, noise_sd=0.001, seed=7
        )
        assert train.omega_recovered == pytest.approx(1.025, abs=0.003)

    def test_dispersion_shrinks_with_cycle_count(self):
        def spread(cycles: int) -> float:
            vals = [
                synthesize_pulse_train(
                    1.025, PAPER_SCENARIO, cycles=cycles, noise_sd=0.02, seed=5000 + i
                ).omega_recovered
                for i in range(150)
            ]
            return float(np.std(vals, ddof=1))

        ratio = spread(4) / spread(64)
        # a 16x cycle increase should shrink dispersion about 4x
        assert 3.0 <= ratio <= 5.3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=0)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_sd"):
                synthesize_pulse_train(1.025, PAPER_SCENARIO, noise_sd=bad)
        with pytest.raises(ValueError, match="samples"):
            synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=31_251)
        assert synthesize_pulse_train(1.025, PAPER_SCENARIO, cycles=31_250).blocked.size == 10**6
