"""Acceptance gate: one test per exit criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion together with its runtime. Criterion 1 carries a strict expected
failure for one of its three printed targets; see the note on that test.
"""

import math
import random
import time

import numpy as np
import pytest

from grating_orders import cli
from grating_orders.coupling import (
    CouplingScenario,
    bias_report,
    composed_apparent_omega,
    equilibrated_omega,
    synthesize_pulse_train,
)
from grating_orders.diffraction import (
    GratingSpec,
    equivalent_order,
    order_alpha,
    sinc_sq_at_order,
)
from grating_orders.orders import (
    normalized_resultant_probability,
    occupation_value,
    order_table,
    zero_order_share,
)
from grating_orders.quadrature import (
    Interval,
    adaptive_integrate,
    grating_factor_subinterval_integral,
    si,
)

LAMBDA = 633.0
A3 = float(order_alpha(3, 0.5))


class _Budget:
    """Context manager asserting the stated runtime budget and printing a PASS line."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.3f}s"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.3f}s)")
        return False


def sinc_sq_plain(x: float) -> float:
    return (math.sin(x) / x) ** 2 if x != 0.0 else 1.0


def test_criterion_01_j_equivalent_characterization():
    with _Budget("criterion 1 (j(w) characterization)", 0.5):
        t0 = time.perf_counter()
        values = {
            w: equivalent_order(GratingSpec.ronchi(float(w), LAMBDA, 4))
            for w in (833, 1000, 1250)
        }
        per_call = (time.perf_counter() - t0) / 3
        assert per_call < 1e-3  # stated runtime: under a millisecond per value
        assert values[833] == pytest.approx(2 * 833 / 633, rel=1e-14)
        assert values[1000] == pytest.approx(2000 / 633, rel=1e-14)
        assert values[1250] == pytest.approx(2500 / 633, rel=1e-14)
        assert abs(values[833] - 2.63) <= 0.005
        assert abs(values[1000] - 3.16) <= 0.005
        print(
            "ACCEPTANCE criterion 1 note: 2*1250/633 = "
            f"{values[1250]:.4f}; the two-decimal label 3.94 is off by "
            f"{abs(values[1250] - 3.94):.4f} (> 0.005) - see the strict xfail below"
        )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "2*1250/633 = 3.9494; the stated two-decimal target 3.94 appears to be a "
        "truncation slip (3.95 would round correctly, and the companion alpha_t "
        "value ~6.2045 matches 3.9494*pi/2, not 3.94*pi/2). The +-0.005 band "
        "around 3.94 cannot contain the formula value."
    ),
)
def test_criterion_01_largest_width_two_decimal_label():
    value = equivalent_order(GratingSpec.ronchi(1250.0, LAMBDA, 4))
    assert abs(value - 3.94) <= 0.005


def test_criterion_02_threshold_jump_at_third_order():
    with _Budget("criterion 2 (threshold jump ~5%)", 1.0):
        below = normalized_resultant_probability(A3 - 1e-6, 0.5)
        above = normalized_resultant_probability(A3 + 1e-6, 0.5)
        jump = above - below
        assert jump == pytest.approx(0.048, abs=0.007)
        # same two-sided evaluation with the normalizing integrals taken along
        # the independent adaptive route instead of the Si closed form
        def one_sided(at, n):
            strips = 1.0 + 2.0 * math.fsum(sinc_sq_at_order(j, 0.5) for j in range(1, n + 1))
            denom = adaptive_integrate(sinc_sq_plain, Interval(-at, at), 1e-11).value
            return math.pi * 0.5 * strips / denom

        jump_oracle = one_sided(A3 + 1e-6, 3) - one_sided(A3 - 1e-6, 2)
        assert jump == pytest.approx(jump_oracle, abs=1e-8)


def test_criterion_03_duality_modulation_pair():
    with _Budget("criterion 3 (threshold occupation pair)", 1.0):
        below = occupation_value(A3 - 1e-6, 0.5)
        above = occupation_value(A3 + 1e-6, 0.5)
        # derived oracle values, carried at the stated +-0.005 band
        assert below == pytest.approx(1.0284, abs=0.005)
        assert above == pytest.approx(0.9796, abs=0.005)
        assert below == pytest.approx(1.0285068327, rel=1e-8)
        assert above == pytest.approx(0.9797701272, rel=1e-8)


def test_criterion_04_dense_sampling_conservation():
    with _Budget("criterion 4 (dense-sampling conservation)", 5.0):
        for factor in (1.1, 2.2, 3.3):
            p_r = normalized_resultant_probability(factor * math.pi, 0.125)
            assert abs(p_r - 1.0) <= 0.02
        # Convergence sequence evaluated at alpha_t = 5 pi/2, which sits
        # exactly at a threshold order for all four duty cycles (j = 10, 20,
        # 40, 80), so the boundary term scales cleanly with sigma. At generic
        # alpha_t the full-line strip sum is exact and the remaining boundary
        # term oscillates in sign and size rather than decreasing.
        at = 2.5 * math.pi
        devs = [
            abs(normalized_resultant_probability(at, sigma) - 1.0)
            for sigma in (0.25, 0.125, 0.0625, 0.03125)
        ]
        assert all(a > b for a, b in zip(devs, devs[1:])), devs


def test_criterion_05_interference_factor_subinterval_identity():
    with _Budget("criterion 5 (subinterval identity)", 5.0):
        for n_slits in (4, 64):
            for sigma in (0.125, 0.5):
                value = grating_factor_subinterval_integral(
                    1, sigma, n_slits, frozen_envelope=True
                )
                assert value == pytest.approx(n_slits * math.pi * sigma, rel=1e-6)


def test_criterion_06_sine_integral_against_quadrature():
    with _Budget("criterion 6 (Si oracle agreement)", 5.0):
        rng = random.Random(20260810)
        worst = 0.0
        for _ in range(50):
            x = rng.uniform(0.0, 30 * math.pi)
            oracle = adaptive_integrate(
                lambda t: math.sin(t) / t if t != 0.0 else 1.0, Interval(0.0, x), 1e-10
            )
            worst = max(worst, abs(si(x) - oracle.value))
        assert worst <= 1e-8, worst


def test_criterion_07_rayleigh_step_function():
    with _Budget("criterion 7 (step function)", 1.0):
        expected = {0: 1.0, 1: 0.5523, 3: 0.5261}
        # constant plateaus with steps exactly at the odd order positions
        for j, value in expected.items():
            lo = float(order_alpha(j, 0.5)) + 1e-6 if j else 0.5
            hi = float(order_alpha(j + 1, 0.5)) - 1e-6
            plateau = [zero_order_share(a, 0.5) for a in np.linspace(lo, hi, 40)]
            assert max(plateau) == min(plateau)  # exactly constant
            assert plateau[0] == pytest.approx(value, abs=1e-4)
        # probe just clear of the inclusive rule's 1e-9 tie tolerance
        for j in range(1, 8):
            aj = float(order_alpha(j, 0.5))
            left = zero_order_share(aj - 1e-8, 0.5)
            right = zero_order_share(aj + 1e-8, 0.5)
            if j % 2:
                assert right < left  # a genuine drop at every odd order
            else:
                assert right == left  # exactly no step at even orders


def test_criterion_08_finite_reservoir_bias():
    with _Budget("criterion 8 (finite-reservoir bias)", 0.5):
        scenario = CouplingScenario(omega_id=1.025, p_ratio=100.0, f_g=0.4, f_r=0.01)
        t0 = time.perf_counter()
        omega_c = equilibrated_omega(scenario)
        report = bias_report(scenario)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3  # stated runtime: under a millisecond
        assert omega_c == pytest.approx(1.000248, abs=5e-5)
        assert report.finite_insignificant
        assert report.annular_insignificant
        assert report.composed_insignificant
        assert abs(report.underestimate_finite) < 0.001
        assert abs(report.underestimate_annular) < 0.001
        assert abs(report.underestimate_composed) < 0.001


def test_criterion_09_order_table_consistency():
    with _Budget("criterion 9 (order-table consistency)", 1.0):
        table = order_table(GratingSpec.ronchi(1000.0, LAMBDA, 257))
        orders = range(1 - len(table.p_rj), len(table.p_rj))
        assert math.fsum(table.e_rj[abs(j)] for j in orders) == pytest.approx(1.0, abs=1e-9)
        assert table.e_r == pytest.approx(1.0, abs=1e-9)
        for omega_j in table.omega_j:
            assert omega_j == pytest.approx(table.omega, abs=1e-9)
        for j in range(2, len(table.p_rj), 2):
            assert table.p_rj[j] == 0.0


def test_criterion_10_cli_figures_are_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    with _Budget("criterion 10 (CLI determinism)", 70.0):
        from grating_orders.figures import FIGURE_IDS

        for fid in FIGURE_IDS:
            t0 = time.perf_counter()
            a = tmp_path / f"{fid}_a.csv"
            b = tmp_path / f"{fid}_b.csv"
            assert cli.main(["figure", "--id", fid, "--out", str(a)]) == 0
            assert cli.main(["figure", "--id", fid, "--out", str(b)]) == 0
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"{fid} exceeded 10s for two runs: {elapsed:.2f}s"
            assert a.read_bytes() == b.read_bytes(), f"{fid} not byte-identical"
    capsys.readouterr()
    print("ACCEPTANCE criterion 10: PASS (all figure ids byte-identical)")


def test_criterion_11_synthetic_measurement_loop():
    with _Budget("criterion 11 (synthetic measurement loop)", 30.0):
        scenario = CouplingScenario(omega_id=1.025, p_ratio=100.0, f_g=0.4, f_r=0.01)
        truth = composed_apparent_omega(scenario)

        exact = synthesize_pulse_train(1.025, scenario, cycles=100, noise_sd=0.0)
        assert abs(exact.omega_recovered - truth) <= 1e-12 * truth

        # noise level tuned so 100-cycle recoveries disperse at the +-0.003
        # scale of the reported measurement uncertainty
        noise_sd = 0.024
        recovered = np.array(
            [
                synthesize_pulse_train(
                    1.025, scenario, cycles=100, noise_sd=noise_sd, seed=1000 + i
                ).omega_recovered
                for i in range(200)
            ]
        )
        dispersion = recovered.std(ddof=1)
        assert 0.002 <= dispersion <= 0.004, dispersion
        standard_error = dispersion / math.sqrt(len(recovered))
        assert abs(recovered.mean() - truth) <= standard_error
