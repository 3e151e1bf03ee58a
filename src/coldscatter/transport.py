"""Diffusive radiative transport: diffusion modes and thresholds.

The Monte-Carlo engine is the faithful solver of the full transport
problem; this module carries the reduced diffusion description used for
estimates and cross-checks: the diffusion constant and the gain-diffusion
eigenmode on a sphere with its random-lasing instability threshold.

Units: lengths in reduced wavelengths, rates in gamma, speeds in c.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
# unused here; perfbench/spans.py traces transport.lu_factor/lu_solve by name
from scipy.linalg import lu_factor, lu_solve  # noqa: F401

__all__ = [
    "DiffusionModel",
    "GainMode",
    "diffusion_constant",
    "solve_gain_diffusion_sphere",
    "letokhov_threshold",
]

_GRID_RTOL = 5e-3  # eigenvalue agreement with the half-resolution grid


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
    r: np.ndarray
    W: np.ndarray


def _top_eigenvalue(D: float, g: float, r0: float, n: int) -> float:
    """Top eigenvalue g - (4D/h^2) sin^2(pi/(2(n+1))), h = r0/(n+1), of
    tridiag(D/h^2, g - 2D/h^2, D/h^2) on n points (discrete sine spectrum).
    """
    h = r0 / (n + 1)
    return g - (4.0 * D / h ** 2) * math.sin(math.pi / (2 * (n + 1))) ** 2


def solve_gain_diffusion_sphere(model: DiffusionModel,
                                n_grid: int = 400) -> GainMode:
    """Dominant mode of dW/dt = D Lap W + (v/l_g - v(1-a)/l0) W on a sphere.

    Radial finite differences on u = r W at r_j = j r0/(n_grid+1), with
    the regularity condition u(0) = 0 and the absorbing edge u(r0) = 0 as
    zero ghost values, give a constant-coefficient tridiagonal operator
    whose top eigenpair is known in closed form: :func:`_top_eigenvalue`
    and u_j = sin(pi r_j / r0).  The eigenvalue is validated against the
    half-resolution grid, relative to the largest of |eigenvalue|, v/l_tr
    and the diffusion rate D pi^2/r0^2, and disagreement raises with both
    values reported.  W = u / (|u| r) is positive.
    """
    if not isinstance(n_grid, numbers.Integral) or n_grid < 2:
        raise ValueError(f"n_grid must be an int >= 2, got {n_grid!r}")
    D = diffusion_constant(model)
    v = model.v_bar
    g = v / model.l_g - v * (1.0 - model.albedo) / model.l0_bar
    lam = _top_eigenvalue(D, g, model.r0, n_grid)
    n2 = n_grid // 2
    lam2 = _top_eigenvalue(D, g, model.r0, n2)
    # |lam| vanishes at threshold, and v/l_tr is small when r0 << l_tr;
    # the diffusion term D pi^2/r0^2 sets the scale there
    scale = max(abs(lam), v / model.l0_bar, D * math.pi ** 2 / model.r0 ** 2)
    if abs(lam - lam2) > _GRID_RTOL * scale:
        raise ArithmeticError(
            f"gain-diffusion eigenvalue not grid-converged: {lam2} at "
            f"n={n2} vs {lam} at n={n_grid}")
    j = np.arange(1, n_grid + 1)
    r = (model.r0 / (n_grid + 1)) * j
    u = np.sin((math.pi / (n_grid + 1)) * j)
    W = u / (np.linalg.norm(u) * r)
    return GainMode(growth_rate=lam, r=r, W=W)


def letokhov_threshold(l_tr: float, l_g: float) -> float:
    """Critical sphere radius r0* = pi sqrt(l_tr l_g / 3)."""
    if l_tr <= 0 or l_g <= 0:
        raise ValueError("lengths must be positive")
    return math.pi * math.sqrt(l_tr * l_g / 3.0)
