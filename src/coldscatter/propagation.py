"""Long-range ray propagation through an anisotropic dressed medium.

Between scattering events the field is carried along the straight ray
by phase integrals of the transverse susceptibility.  The 2x2 amplitude
matrix X they build acts on the local transverse polarization components;
for an isotropic lossless medium it is a pure phase, for a dichroic medium
it mixes and attenuates them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .medium import TransverseChi, local_frame, transverse_decompose

__all__ = [
    "RaySegment",
    "QuadratureError",
    "phase_integrals",
    "amplitude_matrix",
    "director_components",
    "propagate_path",
]

class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class RaySegment:
    """Straight ray chord between two scattering events."""
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=float))
        if self.length <= 0:
            raise ValueError("segment must have positive length")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    @property
    def direction(self) -> np.ndarray:
        return (self.end - self.start) / self.length

    def point(self, s: float) -> np.ndarray:
        return self.start + s * self.direction


def _adaptive_simpson(f, a: float, b: float, rtol: float, max_depth: int):
    """Adaptive Simpson for a callable returning a complex ndarray."""
    fa, fm, fb = f(a), f((a + b) / 2), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(np.max(np.abs(whole)), 1e-30)

    def recurse(a, b, fa, fm, fb, whole, depth):
        m = (a + b) / 2.0
        flm, frm = f((a + m) / 2.0), f((m + b) / 2.0)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = np.max(np.abs(left + right - whole))
        if err <= 15.0 * rtol * max(scale, np.max(np.abs(left + right))):
            return left + right + (left + right - whole) / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"phase integral not converged: residual {err:.3e} "
                f"on [{a}, {b}]")
        return (recurse(a, m, fa, flm, fm, left, depth + 1)
                + recurse(m, b, fm, frm, fb, right, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, 0)


def phase_integrals(segment: RaySegment, sampler, rtol: float = 1e-10,
                    max_depth: int = 40) -> tuple[complex, complex]:
    """Phase integrals (phi0, phi) = 2 pi k * integral of (chi0, chi) ds.

    ``sampler`` maps a position to the pair ``(chi0, chi_len)`` of the
    isotropic part and the complex anisotropy length of the transverse
    susceptibility.  The optical wavenumber is unity in these units.
    """

    def f(s):
        c0, cl = sampler(segment.point(s))
        return np.array([c0, cl], dtype=complex)

    vals = _adaptive_simpson(f, 0.0, segment.length, rtol, max_depth)
    return 2.0 * math.pi * vals[0], 2.0 * math.pi * vals[1]


def director_components(tc: TransverseChi) -> np.ndarray | None:
    """Map Pauli components of the transverse tensor to the director triple.

    The amplitude-matrix parameterization labels the anisotropy axes so
    that (n_x, n_y, n_z) = (-c_z, c_x, -c_y)/chi where (c_x, c_y, c_z) are
    the standard Pauli components; the triple satisfies n.n = 1 in the
    complex bilinear sense.
    """
    if tc.director is None:
        return None
    cx, cy, cz = tc.director
    return np.array([-cz, cx, -cy])


def amplitude_matrix(phi0: complex, phi: complex,
                     director=None) -> np.ndarray:
    """2x2 transverse amplitude matrix for one ray segment.

    With no director (isotropic medium) the matrix is e^{i phi0} I;
    otherwise X = e^{i phi0}[cos(phi) I - i sin(phi) n.sigma] with the
    director components (n_x, n_y, n_z) obeying n.n = 1 bilinearly.
    """
    ph0 = cmath.exp(1j * phi0)
    if director is None or phi == 0:
        return ph0 * np.eye(2, dtype=complex)
    nx, ny, nz = director
    c, s = cmath.cos(phi), cmath.sin(phi)
    return ph0 * np.array([
        [c - 1j * s * nx, 1j * s * (ny + 1j * nz)],
        [1j * s * (ny - 1j * nz), c + 1j * s * nx],
    ])


def propagate_path(chi_sampler, start, direction, length: float,
                   max_segment: float | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Compose the amplitude matrix along a straight path.

    ``chi_sampler`` maps a position to the lab-frame 3x3 susceptibility.
    The path is split into segments no longer than a tenth of the local
    extinction length (the director is then safely slowly varying); each
    segment uses its midpoint director and adaptive phase integrals.
    Returns ``(X_total, frame)``.
    """
    start = np.asarray(start, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    frame = local_frame(u)

    X = np.eye(2, dtype=complex)
    s = 0.0
    while s < length - 1e-15:
        mid_probe = start + (s + min(length - s, 1e-3) / 2) * u
        tc_probe = transverse_decompose(chi_sampler(mid_probe), u, frame=frame)
        im = tc_probe.chi0.imag
        l_ex = 1.0 / (4.0 * math.pi * im) if im > 1e-300 else math.inf
        step = min(length - s, l_ex / 10.0)
        if max_segment is not None:
            step = min(step, max_segment)
        seg = RaySegment(start + s * u, start + (s + step) * u)
        tc_mid = transverse_decompose(
            chi_sampler(seg.point(step / 2.0)), u, frame=frame)

        def sampler(pos):
            tc = transverse_decompose(chi_sampler(pos), u, frame=frame)
            return tc.chi0, tc.chi_len

        phi0, phi = phase_integrals(seg, sampler)
        X = amplitude_matrix(phi0, phi, director_components(tc_mid)) @ X
        s += step
    return X, frame
