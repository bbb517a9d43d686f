"""A measured pulse pair and its occupation value, apart from the ``coupling``
model (which re-exports both) so that ``experiment --dv-g`` runs without it."""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = ["PulsePair", "omega_ex"]


class PulsePair(namedtuple("PulsePair", "dv_g dv_gc")):
    """Measured square-wave pulse heights: reference blocked (dv_g) and coupled (dv_gc).

    The detector scale factor cancels in the ratio, so units are arbitrary.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(math.isfinite(v) and v > 0 for v in self):
            raise ValueError(
                f"pulse heights must be finite and positive, got {self.dv_g!r}, {self.dv_gc!r}"
            )
        return self


def omega_ex(pulses: PulsePair) -> float:
    """Experimentally determined occupation value dv_g / dv_gc."""
    return pulses.dv_g / pulses.dv_gc
