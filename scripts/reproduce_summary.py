#!/usr/bin/env python3
"""Desk-scale reproduction of the headline numbers.

Prints, for the three reference Ronchi rulings at 633 nm: the j-equivalent
truncation, the theoretical occupation of the propagating orders, the value
expected after the finite-reservoir and annular measurement biases, and a
noisy synthetic pulse-train recovery with its dispersion. Also prints the
idealized threshold pair straddling the third order and the 0th-order
energy staircase.
"""

import sys
from dataclasses import replace

import numpy as np

from grating_orders.coupling import CouplingScenario, composed_apparent_omega, synthesize_pulse_train
from grating_orders.diffraction import GratingSpec, equivalent_order, order_alpha, truncation_alpha
from grating_orders.figures import WAVELENGTH_NM
from grating_orders.orders import occupation_value, zero_order_share

REFERENCE_COUPLING = CouplingScenario()
NOISE_SD = 0.024  # gives ~0.003 dispersion on 100-cycle recoveries
REPS = 60


def recovered_stats(omega_id: float, seed0: int) -> tuple[float, float]:
    scenario = replace(REFERENCE_COUPLING, omega_id=omega_id)
    values = [
        synthesize_pulse_train(
            omega_id, scenario, cycles=100, noise_sd=NOISE_SD, seed=seed0 + i
        ).omega_recovered
        for i in range(REPS)
    ]
    return float(np.mean(values)), float(np.std(values, ddof=1))


def main() -> int:
    print(f"wavelength {WAVELENGTH_NM:.0f} nm, sigma = 0.5 rulings")
    print()
    print("grating      j(w)     omega_th   omega_biased   synthetic recovery")
    for w, seed0 in ((833.0, 100), (1000.0, 200), (1250.0, 300)):
        spec = GratingSpec.ronchi(w, WAVELENGTH_NM)
        j_w = equivalent_order(spec)
        omega_th = occupation_value(truncation_alpha(spec), 0.5)
        scenario = replace(REFERENCE_COUPLING, omega_id=omega_th)
        omega_biased = composed_apparent_omega(scenario)
        mean, sd = recovered_stats(omega_th, seed0)
        print(
            f"w = {w:6.0f} nm  {j_w:6.4f}  {omega_th:9.4f}  {omega_biased:12.4f}"
            f"   {mean:.4f} +- {sd:.4f}"
        )

    print()
    a3 = order_alpha(3, 0.5)
    below = occupation_value(a3 - 1e-6, 0.5)
    above = occupation_value(a3 + 1e-6, 0.5)
    print(f"third-order threshold pair: omega = {below:.4f} (just below) / {above:.4f} (just above)")
    print(f"modulation: {100 * (below - 1):+.2f}% / {100 * (above - 1):+.2f}%")

    print()
    print("0th-order energy staircase (unit output energy):")
    print(f"  0th order alone:               E_r0 = {zero_order_share(0.5, 0.5):.4f}")
    for j in (1, 3, 5, 7):
        at = order_alpha(j, 0.5) + 0.5
        print(f"  after the +-{j} orders appear:   E_r0 = {zero_order_share(at, 0.5):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
