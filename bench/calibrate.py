"""A fixed piece of work that times the machine rather than the program.

On a shared host the CPU time of the same op drifts by a fifth or more from
one phase of the host's load to the next, as other tenants compete for the
core's caches and execution units; phases last minutes, longer than a run.
A timed run therefore runs this calibration between its ops and scales its
op times by ``scale(median calibration)``, the machine's speed over the run
relative to a reference. The scaled times read in reference milliseconds
(``ref_ms``), what the op would take on a machine that runs the
calibration in ``REFERENCE_S``. A slower program moves them; a slower
machine moves op and calibration alike and leaves them nearly in place.

The work is what most of the package's CPU time is made of: interpreted
Python calling small functions, float math, ``math.fsum`` over a generator
and short lists; numpy calls on small arrays are mostly interpreter work
too. Measured against ``dense-sweep`` and ``point-queries`` ops over
minutes of a shared host, this tracks the ops' drift closer than a mix
that adds numpy ufunc rounds. It uses nothing of the package, so no change
to the program moves it.
"""

from __future__ import annotations

import math
from time import thread_time

# CPU time of the calibration on the reference machine (a shared 2-core x86
# VM in a quiet phase), so that ref_ms there reads as CPU milliseconds.
REFERENCE_S = 0.0027

# How strongly op times follow the calibration from one phase of the host
# to the next, in log terms. On the reference machine, over 55 runs of the
# four workloads in which the calibration median ranged from 1.5 to 2.9 ms,
# the slope of log op CPU time against log calibration was 0.3-1.1 and
# mostly 0.6-0.8: this tight loop gains and loses more speed than the
# package's ops do, so scaling by the full ratio over-corrects.
ELASTICITY = 0.6

_ROUNDS = 40
_SIGMA = 0.031


def _term(j: int, sigma: float) -> float:
    t = j * sigma
    r = t - round(t)
    return (math.sin(math.pi * r) / (math.pi * t)) ** 2


def _work() -> float:
    acc = 0.0
    for k in range(_ROUNDS):
        n = 60 + k
        acc += 1.0 + 2.0 * math.fsum(_term(j, _SIGMA) for j in range(1, n + 1))
        acc += len(list(range(-n, n + 1)))
    return acc


def calibrate() -> float:
    """CPU seconds the calibration work takes now."""
    t0 = thread_time()
    _work()
    return thread_time() - t0


def scale(calibration_s: float) -> float:
    """Factor from CPU time to reference time at a median calibration."""
    return (REFERENCE_S / calibration_s) ** ELASTICITY
