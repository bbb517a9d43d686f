"""Inference of occupation values from coupled-beam pulse measurements.

A (possibly enriched or depleted) grating beam is co-propagated with an
ordinary reference beam; equilibration transfers energy between them, and the
occupation value is recovered as the ratio of chopped square-wave pulse
heights measured with the reference beam blocked versus coupled. The maps in
this module quantify the systematic biases of that measurement: a finite
reference reservoir, and partial overlap of both beams in the annular
detector sampling region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .orders import MAX_POINTS

# A bias whose underestimate is below this, in occupation units, is reported
# as insignificant.
SIGNIFICANCE_THRESHOLD = 0.001

# Detector samples in each half of a chopper cycle.
SAMPLES_PER_HALF_CYCLE = 16

__all__ = [
    "CouplingScenario",
    "PulsePair",
    "BiasReport",
    "PulseTrain",
    "omega_ex",
    "equilibrated_omega",
    "apparent_omega_finite_reservoir",
    "apparent_omega_annular",
    "composed_apparent_omega",
    "bias_report",
    "synthesize_pulse_train",
]


@dataclass(frozen=True)
class CouplingScenario:
    """Idealized coupling parameters, all dimensionless.

    ``omega_id`` is the occupation of the grating beam entering the coupling
    path; ``p_ratio`` the reference-to-grating probability ratio (the finite
    reservoir); ``f_g`` and ``f_r`` the fractions of the grating and reference
    beams inside the annular detector sampling region. ``eta`` is a single
    equilibration-efficiency knob scaling the transferred energy (1 = perfect
    coupling); it is a model input, not derived.

    f_r = f_g is allowed as the degenerate no-net-transfer limit.
    """

    omega_id: float = 1.025
    p_ratio: float = 100.0
    f_g: float = 0.4
    f_r: float = 0.01
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega_id) and self.omega_id > 0):
            raise ValueError(f"omega_id must be positive, got {self.omega_id!r}")
        if not (math.isfinite(self.p_ratio) and self.p_ratio > 0):
            raise ValueError(f"p_ratio must be positive, got {self.p_ratio!r}")
        if not 0.0 < self.f_g <= 1.0:
            raise ValueError(f"f_g must lie in (0, 1], got {self.f_g!r}")
        if not 0.0 <= self.f_r <= self.f_g:
            raise ValueError(f"f_r must lie in [0, f_g], got {self.f_r!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class PulsePair:
    """Measured square-wave pulse heights: reference blocked (dv_g) and coupled (dv_gc).

    The detector scale factor cancels in the ratio, so units are arbitrary.
    """

    dv_g: float
    dv_gc: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.dv_g, self.dv_gc)):
            raise ValueError(
                f"pulse heights must be finite and positive, got {self.dv_g!r}, {self.dv_gc!r}"
            )


def omega_ex(pulses: PulsePair) -> float:
    """Experimentally determined occupation value dv_g / dv_gc."""
    return pulses.dv_g / pulses.dv_gc


def equilibrated_omega(scenario: CouplingScenario) -> float:
    """Common occupation after full equilibration with a finite reservoir.

    Probability-weighted mean of the two beams' occupations,
    (omega_id + p_ratio) / (1 + p_ratio): strictly between omega_id and 1,
    approaching 1 as the reservoir grows.
    """
    return (scenario.omega_id + scenario.p_ratio) / (1.0 + scenario.p_ratio)


def apparent_omega_finite_reservoir(scenario: CouplingScenario) -> float:
    """Measured occupation when the coupled beam equilibrates to omega_c, not 1.

    The coupled-state energy omega_c * P_G is treated as P_G by the pulse
    ratio, so the apparent value is omega_id / omega_c: an underestimate of
    the modulation magnitude, vanishing as p_ratio -> inf.
    """
    return scenario.omega_id / equilibrated_omega(scenario)


def _annular_coupled_amplitude(s: CouplingScenario, omega: float) -> float:
    """Annulus-sampled pulse amplitude of a beam at occupation omega once coupled.

    Grating-beam energy is normalized to 1, so the blocked amplitude is f_g.
    """
    amplitude = s.f_g - (s.f_g - s.f_r) * s.eta * (omega - 1.0)
    if amplitude <= 0:
        raise ValueError("modulation too large for the annular-sampling model")
    return amplitude


def apparent_omega_annular(scenario: CouplingScenario) -> float:
    """Measured occupation with both beams partially inside the sampling annulus.

    With grating-beam energy normalized to 1 and transferred energy
    delta_e = eta * |omega_id - 1|, the annulus sees f_g of the grating beam's
    loss (or gain) but also f_r of the reference beam's opposite change,
    leaving f_g / (f_g - (f_g - f_r) * eta * (omega_id - 1)). The signed form
    covers both the enriched (omega_id > 1) and depleted (omega_id < 1) cases;
    f_r = f_g degenerates to no net transfer and an apparent value of 1.
    """
    return scenario.f_g / _annular_coupled_amplitude(scenario, scenario.omega_id)


def composed_apparent_omega(scenario: CouplingScenario) -> float:
    """Both biases applied in sequence: annular map of the finite-reservoir map."""
    return apparent_omega_annular(
        replace(scenario, omega_id=apparent_omega_finite_reservoir(scenario))
    )


@dataclass(frozen=True)
class BiasReport:
    """Idealized versus apparent occupation values and their underestimates.

    Underestimates are idealized modulation magnitude minus apparent
    modulation magnitude, in occupation units; the summary lines give them
    in percentage points. A bias is flagged insignificant when the
    magnitude of its underestimate is below ``SIGNIFICANCE_THRESHOLD``.
    """

    scenario: CouplingScenario
    omega_equilibrated: float
    omega_finite_reservoir: float
    omega_annular: float
    omega_composed: float
    underestimate_finite: float
    underestimate_annular: float
    underestimate_composed: float

    @property
    def finite_insignificant(self) -> bool:
        return abs(self.underestimate_finite) < SIGNIFICANCE_THRESHOLD

    @property
    def annular_insignificant(self) -> bool:
        return abs(self.underestimate_annular) < SIGNIFICANCE_THRESHOLD

    @property
    def composed_insignificant(self) -> bool:
        return abs(self.underestimate_composed) < SIGNIFICANCE_THRESHOLD

    def summary_lines(self) -> list[str]:
        lines = [
            f"idealized omega:        {self.scenario.omega_id:.6f}",
            f"equilibrated omega:     {self.omega_equilibrated:.6f}",
        ]
        for label, omega, under, ok in (
            ("apparent (reservoir):", self.omega_finite_reservoir, self.underestimate_finite,
             self.finite_insignificant),
            ("apparent (annular):", self.omega_annular, self.underestimate_annular,
             self.annular_insignificant),
            ("apparent (composed):", self.omega_composed, self.underestimate_composed,
             self.composed_insignificant),
        ):
            lines.append(
                f"{label:<24}{omega:.6f}  underestimate {100.0 * under:+.4f} pp"
                f" [{'insignificant' if ok else 'SIGNIFICANT'}]"
            )
        return lines


def bias_report(scenario: CouplingScenario) -> BiasReport:
    """Evaluate every bias map for a scenario and flag significance."""
    ideal_mod = abs(scenario.omega_id - 1.0)
    fin = apparent_omega_finite_reservoir(scenario)
    ann = apparent_omega_annular(scenario)
    comp = composed_apparent_omega(scenario)
    return BiasReport(
        scenario=scenario,
        omega_equilibrated=equilibrated_omega(scenario),
        omega_finite_reservoir=fin,
        omega_annular=ann,
        omega_composed=comp,
        underestimate_finite=ideal_mod - abs(fin - 1.0),
        underestimate_annular=ideal_mod - abs(ann - 1.0),
        underestimate_composed=ideal_mod - abs(comp - 1.0),
    )


@dataclass(frozen=True)
class PulseTrain:
    """Synthetic chopped-detector record and the pulse pair recovered from it."""

    blocked: np.ndarray
    coupled: np.ndarray
    pulses: PulsePair
    omega_recovered: float
    omega_predicted: float


def synthesize_pulse_train(
    omega_id: float,
    scenario: CouplingScenario,
    baseline_bias: float = 0.2,
    cycles: int = 100,
    noise_sd: float = 0.0,
    *,
    seed: int = 0,
) -> PulseTrain:
    """Generate the two chopped square-wave records and recover the pulse pair.

    The blocked record pulses at the annulus-sampled grating-beam energy, the
    coupled record at that energy shifted by the net equilibration transfer;
    both sit on ``baseline_bias`` (steady reference-beam residue plus
    background, removed exactly by peak-height differencing). Gaussian noise
    of width ``noise_sd`` is added per sample; per-cycle peak heights are
    averaged over all cycles. Deterministic for a fixed seed. With zero noise
    the recovered occupation equals ``composed_apparent_omega`` of the
    scenario to machine precision.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles!r}")
    if cycles * 2 * SAMPLES_PER_HALF_CYCLE > MAX_POINTS:
        raise ValueError(f"cycles={cycles!r} would take more than {MAX_POINTS:.3g} samples")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    if not math.isfinite(baseline_bias):
        raise ValueError(f"baseline_bias must be finite, got {baseline_bias!r}")

    s = replace(scenario, omega_id=omega_id)
    amp_blocked = s.f_g
    amp_coupled = _annular_coupled_amplitude(s, apparent_omega_finite_reservoir(s))

    m = SAMPLES_PER_HALF_CYCLE
    total = cycles * 2 * m
    rng = np.random.default_rng(seed)
    high = np.zeros(total, dtype=bool)
    high.reshape(cycles, 2 * m)[:, :m] = True

    def record(amplitude: float) -> np.ndarray:
        samples = np.full(total, baseline_bias, dtype=float)
        samples[high] += amplitude
        if noise_sd > 0:
            samples = samples + rng.normal(0.0, noise_sd, total)
        return samples

    blocked = record(amp_blocked)
    coupled = record(amp_coupled)

    def peak_height(samples: np.ndarray) -> float:
        return float(samples[high].mean() - samples[~high].mean())

    pulses = PulsePair(dv_g=peak_height(blocked), dv_gc=peak_height(coupled))
    return PulseTrain(
        blocked=blocked,
        coupled=coupled,
        pulses=pulses,
        omega_recovered=omega_ex(pulses),
        omega_predicted=composed_apparent_omega(s),
    )
