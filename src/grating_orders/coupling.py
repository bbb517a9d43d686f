"""Inference of occupation values from coupled-beam pulse measurements.

A (possibly enriched or depleted) grating beam is co-propagated with an
ordinary reference beam; equilibration transfers energy between them, and the
occupation value is recovered as the ratio of chopped square-wave pulse
heights measured with the reference beam blocked versus coupled. The maps in
this module quantify the systematic biases of that measurement: a finite
reference reservoir, and partial overlap of both beams in the annular
detector sampling region; ``bias_report`` gives each map's apparent value and
underestimate as one row.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

from .orders import MAX_POINTS
from .pulses import PulsePair, omega_ex

# Detector samples in each half of a chopper cycle.
SAMPLES_PER_HALF_CYCLE = 16

__all__ = [
    "CouplingScenario",
    "PulsePair",
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
        if math.isinf(self.omega_id + self.p_ratio):  # equilibrated_omega's numerator
            raise ValueError(f"omega_id + p_ratio overflows a float: "
                             f"{self.omega_id!r} + {self.p_ratio!r}")
        if not 0.0 < self.f_g <= 1.0:
            raise ValueError(f"f_g must lie in (0, 1], got {self.f_g!r}")
        if not 0.0 <= self.f_r <= self.f_g:
            raise ValueError(f"f_r must lie in [0, f_g], got {self.f_r!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")


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
    return scenario.f_g / _annular_coupled_amplitude(
        scenario, apparent_omega_finite_reservoir(scenario))


def bias_report(scenario: CouplingScenario) -> list[tuple[str, float, float]]:
    """One ``(name, apparent omega, underestimate)`` row per bias map.

    The rows are the finite reservoir, the annulus and both composed. An
    underestimate is the idealized modulation magnitude minus the apparent
    one, in occupation units.
    """
    ideal_mod = abs(scenario.omega_id - 1.0)
    return [(name, omega, ideal_mod - abs(omega - 1.0)) for name, omega in (
        ("reservoir", apparent_omega_finite_reservoir(scenario)),
        ("annular", apparent_omega_annular(scenario)),
        ("composed", composed_apparent_omega(scenario)),
    )]


class PulseTrain(namedtuple("PulseTrain", "blocked coupled pulses omega_recovered")):
    """Synthetic chopped-detector record and the pulse pair recovered from it.

    blocked and coupled are the two float64 sample records, pulses the
    ``PulsePair`` of mean pulse heights, omega_recovered its ``omega_ex``.
    """

    __slots__ = ()


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
    background), which peak-height differencing removes. A baseline is refused
    where that differencing, without noise, would not return each pulse height
    h to within 1e-9 h: where ``(baseline_bias + h) - baseline_bias`` loses h
    to rounding. Gaussian noise of width ``noise_sd`` is added per sample;
    per-cycle peak heights are averaged over all cycles. Deterministic for a
    fixed seed. With zero noise the recovered occupation equals
    ``composed_apparent_omega`` of the scenario to machine precision.
    """
    import numpy as np
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles!r}")
    if cycles * 2 * SAMPLES_PER_HALF_CYCLE > MAX_POINTS:
        raise ValueError(f"cycles={cycles!r} would take more than {MAX_POINTS:.3g} samples")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    if not math.isfinite(baseline_bias):
        raise ValueError(f"baseline_bias must be finite, got {baseline_bias!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")

    s = replace(scenario, omega_id=omega_id)
    amp_coupled = _annular_coupled_amplitude(s, apparent_omega_finite_reservoir(s))
    for h in (s.f_g, amp_coupled):
        back = (baseline_bias + h) - baseline_bias
        if abs(back - h) > 1e-9 * h:
            raise ValueError(f"baseline_bias={baseline_bias!r} swamps the pulse height {h!r}: "
                             f"differencing returns {back!r}")

    # Both records at once, by cycle and half-cycle, high half first: noise
    # for the blocked record is drawn before that for the coupled one.
    records = np.empty((2, cycles, 2, SAMPLES_PER_HALF_CYCLE))
    records[:, :, 1] = baseline_bias
    records[0, :, 0] = baseline_bias + s.f_g  # the blocked amplitude
    records[1, :, 0] = baseline_bias + amp_coupled
    # A noise_sd near the float range overflows here, and PulsePair alone refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        if noise_sd > 0:
            records += np.random.default_rng(seed).normal(0.0, noise_sd, records.shape)
        heights = (records[:, :, 0].reshape(2, -1).mean(axis=1)
                   - records[:, :, 1].reshape(2, -1).mean(axis=1))
    blocked, coupled = records.reshape(2, -1)
    pulses = PulsePair(dv_g=float(heights[0]), dv_gc=float(heights[1]))
    return PulseTrain(
        blocked=blocked,
        coupled=coupled,
        pulses=pulses,
        omega_recovered=omega_ex(pulses),
    )
