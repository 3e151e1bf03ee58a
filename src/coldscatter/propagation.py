"""Long-range ray propagation through an anisotropic dressed medium.

Between scattering events the field is carried along the straight ray by
the phase integrals Phi = 2 pi * integral of T ds of the transverse
susceptibility T = chi0 I + chivec . sigma.  Each segment's 2x2 amplitude
matrix is exp(i Phi0 + i Phivec . sigma), the first Magnus term: it is
exact when the tensors along the segment commute (a fixed or isotropic
anisotropy axis, however its strength and phase vary), and second order
in the segment length otherwise.  For an isotropic lossless medium X is a
pure phase; for a dichroic medium it mixes and attenuates the local
transverse polarization components.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .medium import local_frame, transverse_decompose

__all__ = [
    "QuadratureError",
    "phase_integrals",
    "amplitude_matrix",
    "propagate_path",
]

class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _ray(direction, length: float) -> tuple[np.ndarray, float]:
    """Unit ray direction and length, rejecting a ray that is not one."""
    u = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(u)
    if not (math.isfinite(norm) and norm > 0):
        raise ValueError(f"ray direction must be finite and nonzero: {u}")
    length = float(length)
    if not (math.isfinite(length) and length >= 0):
        raise ValueError(f"ray length must be finite and >= 0: {length}")
    return u / norm, length


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
        if depth >= max_depth or not np.isfinite(err):
            raise QuadratureError(
                f"phase integral not converged: residual {err:.3e} "
                f"on [{a}, {b}]")
        return (recurse(a, m, fa, flm, fm, left, depth + 1)
                + recurse(m, b, fm, frm, fb, right, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, 0)


def phase_integrals(sampler, start, direction, length: float,
                    rtol: float = 1e-10, max_depth: int = 40) -> np.ndarray:
    """2 pi * integral over s in [0, length] of sampler(start + s u).

    ``sampler`` maps a position to a complex array, such as the Pauli
    components (chi0, chi_x, chi_y, chi_z) of the transverse
    susceptibility; ``u`` is the unit vector along ``direction``.  The
    optical wavenumber is unity in these units.
    """
    u, length = _ray(direction, length)
    start = np.asarray(start, dtype=float)

    def f(s):
        return np.asarray(sampler(start + s * u), dtype=complex)

    return 2.0 * math.pi * _adaptive_simpson(f, 0.0, length, rtol, max_depth)


def amplitude_matrix(phi0: complex, phivec) -> np.ndarray:
    """2x2 amplitude matrix exp(i phi0 + i phivec . sigma) of one segment.

    ``phivec`` holds the integrated Pauli components in the standard sigma
    labelling.  With phi^2 = phivec . phivec taken bilinearly,
    X = e^{i phi0}[cos(phi) I + i (sin(phi)/phi) phivec . sigma]; both
    factors are even in phi, so no branch of the square root is chosen,
    and phi = 0 (isotropic or nilpotent) gives sin(phi)/phi = 1.
    """
    px, py, pz = phivec
    phi = cmath.sqrt(px * px + py * py + pz * pz)
    sinc = cmath.sin(phi) / phi if phi != 0 else 1.0
    c, s = cmath.cos(phi), 1j * sinc
    return cmath.exp(1j * phi0) * np.array([
        [c + s * pz, s * (px - 1j * py)],
        [s * (px + 1j * py), c - s * pz],
    ])


def propagate_path(chi_sampler, start, direction, length: float,
                   max_segment: float | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Compose the amplitude matrix along a straight path.

    ``chi_sampler`` maps a position to the lab-frame 3x3 susceptibility.
    The path is split into segments no longer than a tenth of the local
    extinction length (and ``max_segment``); each segment contributes
    :func:`amplitude_matrix` of its adaptive phase integrals.  A path of
    length 0 gives the identity.  Returns ``(X_total, frame)``.
    """
    start = np.asarray(start, dtype=float)
    u, length = _ray(direction, length)
    cap = math.inf if max_segment is None else max_segment
    if not cap > 0:
        raise ValueError(f"max_segment must be positive: {max_segment}")
    frame = local_frame(u)

    def pauli(pos):
        tc = transverse_decompose(chi_sampler(pos), u, frame=frame)
        return np.append(tc.chi0, tc.chivec)

    X = np.eye(2, dtype=complex)
    s = 0.0
    while s < length - 1e-15:
        im = pauli(start + (s + min(length - s, 1e-3) / 2) * u)[0].imag
        l_ex = 1.0 / (4.0 * math.pi * im) if im > 1e-300 else math.inf
        step = min(length - s, l_ex / 10.0, cap)
        phi = phase_integrals(pauli, start + s * u, u, step)
        X = amplitude_matrix(phi[0], phi[1:]) @ X
        s += step
    return X, frame
