"""Diffusive radiative transport: diffusion modes and thresholds.

The Monte-Carlo engine is the faithful solver of the full transport
problem; this module carries the reduced diffusion description used for
estimates and cross-checks: the diffusion constant and the gain-diffusion
eigenmode on a sphere with its random-lasing instability threshold.

Units: lengths in reduced wavelengths, rates in gamma, speeds in c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
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
        if not (0.0 <= self.albedo <= 1.0):
            raise ValueError("albedo must lie in [0, 1]")
        if self.l0_bar <= 0 or self.v_bar <= 0 or self.r0 <= 0:
            raise ValueError("lengths and speeds must be positive")


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


def _sphere_matrix(model: DiffusionModel, n: int):
    """Tridiagonal FD operator for u = r W on (0, r0]: du/dt = D u'' + g u.

    Returns ``(diag, offdiag, r)`` of the symmetric tridiagonal matrix.
    Regularity u(0) = 0 and the absorbing edge u(r0) = 0 are both built
    in as zero ghost values.
    """
    D = diffusion_constant(model)
    v = model.v_bar
    g = v / model.l_g - v * (1.0 - model.albedo) / model.l0_bar
    h = model.r0 / (n + 1)
    r = h * np.arange(1, n + 1)
    diag = np.full(n, g - 2.0 * D / h ** 2)
    offdiag = np.full(n - 1, D / h ** 2)
    return diag, offdiag, r


def solve_gain_diffusion_sphere(model: DiffusionModel,
                                n_grid: int = 400) -> GainMode:
    """Dominant mode of dW/dt = D Lap W + (v/l_g - v(1-a)/l0) W on a sphere.

    Radial finite differences on u = r W with the regularity condition at
    the origin and an absorbing edge, W(r0) = 0.  The operator is symmetric
    tridiagonal, so LAPACK's tridiagonal eigensolver gives its top
    eigenpair directly; the eigenvalue is validated against a half-
    resolution grid, and disagreement raises with both values reported.
    """
    d, e, r = _sphere_matrix(model, n_grid)
    lam, u = eigh_tridiagonal(d, e, select="i",
                              select_range=(n_grid - 1, n_grid - 1))
    lam, u = float(lam[0]), u[:, 0]
    n2 = n_grid // 2
    d2, e2, _ = _sphere_matrix(model, n2)
    lam2 = float(eigh_tridiagonal(d2, e2, eigvals_only=True, select="i",
                                  select_range=(n2 - 1, n2 - 1))[0])
    scale = max(abs(lam), model.v_bar / model.l0_bar)
    if abs(lam - lam2) > _GRID_RTOL * scale:
        raise ArithmeticError(
            f"gain-diffusion eigenvalue not grid-converged: {lam2} at "
            f"n={n2} vs {lam} at n={n_grid}")
    W = u / r
    if W.sum() < 0:
        W = -W
    return GainMode(growth_rate=lam, r=r, W=W)


def letokhov_threshold(l_tr: float, l_g: float) -> float:
    """Critical sphere radius r0* = pi sqrt(l_tr l_g / 3)."""
    if l_tr <= 0 or l_g <= 0:
        raise ValueError("lengths must be positive")
    return math.pi * math.sqrt(l_tr * l_g / 3.0)
