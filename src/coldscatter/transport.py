"""Diffusive radiative transport: diffusion modes and thresholds.

The Monte-Carlo engine is the faithful solver of the full transport
problem; this module carries the reduced diffusion description used for
estimates and cross-checks: the diffusion constant, the growth rate of the
gain-diffusion mode of a uniform sphere (in closed form) and its
random-lasing instability threshold.

Units: lengths in reduced wavelengths, rates in gamma, speeds in c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# unused here; perfbench/spans.py traces transport.lu_factor/lu_solve by name
from scipy.linalg import lu_factor, lu_solve  # noqa: F401

__all__ = [
    "DiffusionModel",
    "GainMode",
    "diffusion_constant",
    "solve_gain_diffusion_sphere",
    "letokhov_threshold",
]


@dataclass(frozen=True)
class DiffusionModel:
    """Coefficients of the scalar diffusion reduction of transport."""
    v_bar: float = 1.0          # spectrally averaged group speed, c units
    l0_bar: float = 1.0         # extinction length
    albedo: float = 1.0
    l_g: float = math.inf       # gain length (+inf: no gain)
    r0: float = 1.0             # sphere radius

    def __post_init__(self):
        # each test is negated so that NaN fails it
        if not 0.0 <= self.albedo <= 1.0:
            raise ValueError(f"albedo must lie in [0, 1], "
                             f"got {self.albedo!r}")
        for name in ("v_bar", "l0_bar", "r0"):
            x = getattr(self, name)
            if not 0.0 < x < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {x!r}")
        if not self.l_g > 0.0:
            raise ValueError(f"l_g must be positive (+inf: no gain), "
                             f"got {self.l_g!r}")


def diffusion_constant(model: DiffusionModel) -> float:
    """Diffusion constant D = l_tr v_bar / 3.

    The dipole pattern has <cos theta> = 0, so l_tr = l0_bar.
    """
    return model.l0_bar * model.v_bar / 3.0


@dataclass
class GainMode:
    growth_rate: float


def solve_gain_diffusion_sphere(model: DiffusionModel) -> GainMode:
    """Dominant mode of dW/dt = D Lap W + (v/l_g - v(1-a)/l0) W on a sphere.

    With the absorbing edge W(r0) = 0 and W regular at the centre, the
    slowest-decaying mode is sin(pi r/r0)/r, and its growth rate is exact:
    g - D pi^2/r0^2 with g = v/l_g - v(1-a)/l0.  It vanishes at the
    Letokhov radius pi sqrt(l_tr l_g/3) when the albedo is 1.
    """
    v = model.v_bar
    g = v / model.l_g - v * (1.0 - model.albedo) / model.l0_bar
    D = diffusion_constant(model)
    return GainMode(growth_rate=g - D * math.pi ** 2 / model.r0 ** 2)


def letokhov_threshold(l_tr: float, l_g: float) -> float:
    """Critical sphere radius r0* = pi sqrt(l_tr l_g / 3)."""
    if not (l_tr > 0 and l_g > 0):  # negated so that NaN fails it
        raise ValueError("lengths must be positive")
    return math.pi * math.sqrt(l_tr * l_g / 3.0)
