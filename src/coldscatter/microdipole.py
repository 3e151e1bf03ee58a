"""Microscopic coupled-dipole solver for frozen atomic configurations.

Builds the non-Hermitian effective Hamiltonian over the singly-excited
basis (scalar model: one state per atom; vector model: three Zeeman
states of an F0=0 -> F=1 transition per atom), solves the resolvent for
scattering amplitudes, and evaluates cross sections through the optical
theorem.  Also provides the self-consistent macroscopic dielectric
function and the exact slab transmission amplitude.

Units: gamma = 1, k = omega/c = 1, lengths in reduced wavelengths.  All
public scattering outputs are reduced amplitudes f (cross sections are
|f|^2 per solid angle and Q0 = 4 pi Im f_forward); quantization-volume
prefactors cancel in these combinations and never appear externally.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import spherical_jn, spherical_yn

__all__ = [
    "Configuration",
    "Epsilon",
    "SlabTransmission",
    "DipoleSolver",
    "RunningAverage",
    "field_green_tensor",
    "build_effective_hamiltonian",
    "self_consistent_epsilon",
    "slab_transmission",
    "random_ball_configuration",
    "gaussian_configuration",
]

CONTACT_FLOOR = 0.05  # reduced wavelengths; dipole model invalid below


def field_green_tensor(R, omega: float = 1.0) -> np.ndarray:
    """Retarded field Green's tensor D_{mu nu}(R) between two dipoles.

    D = -(i(2/3) h0(kR) delta + [X_mu X_nu / R^2 - delta/3] i h2(kR)) with
    spherical Hankel functions of the first kind and k = |omega|/c = 1.
    The far field reduces to -(e^{ikR}/R) times the transverse projector,
    the near field to the static dipole-dipole tensor (delta - 3 RR)/R^3.
    ``R`` may be a stack of separations of shape (..., 3); the result
    then has shape (..., 3, 3).
    """
    R = np.asarray(R, dtype=float)
    r = np.linalg.norm(R, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("field Green's tensor undefined at zero separation")
    k = abs(omega)
    x = k * r
    h0 = (spherical_jn(0, x) + 1j * spherical_yn(0, x))[..., None, None]
    h2 = (spherical_jn(2, x) + 1j * spherical_yn(2, x))[..., None, None]
    rr = R[..., :, None] * R[..., None, :] / r[..., None, None] ** 2
    eye = np.eye(3)
    return -k ** 3 * (1j * (2.0 / 3.0) * h0 * eye
                      + (rr - eye / 3.0) * 1j * h2)


@dataclass(frozen=True)
class Configuration:
    """Frozen positions of N point scatterers plus the model choice.

    The positions are a private read-only copy, so the detuning-independent
    ``coupling`` matrix can be cached on the configuration.
    """
    positions: np.ndarray
    model: str = "vector"
    detuning: float = 0.0
    gamma: float = 1.0
    contact_floor: float = CONTACT_FLOOR

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, ndmin=2)
        if pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        if self.model not in ("scalar", "vector"):
            raise ValueError(f"unknown model {self.model!r}")
        n = len(pos)
        if n > 1:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.sqrt(np.sum(diff ** 2, axis=-1))
            dist[np.arange(n), np.arange(n)] = math.inf
            a, b = np.unravel_index(np.argmin(dist), dist.shape)
            if dist[a, b] <= self.contact_floor:
                raise ValueError(
                    f"atoms {a} and {b} separated by {dist[a, b]:.4g}, "
                    f"below the contact floor {self.contact_floor}")

    def __hash__(self):
        return hash((self.positions.tobytes(), self.model, self.detuning))

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @cached_property
    def coupling(self) -> np.ndarray:
        """Photon-exchange part of the effective Hamiltonian (zero diagonal).

        The vector model uses the full field Green's tensor with basis
        index 3*atom + Cartesian component; the scalar model keeps the
        angular-averaged transverse far-field kernel -(gamma/2) e^{ikR}/(kR).
        Built once per configuration for all pairs a < b and mirrored, so
        the matrix is complex-symmetric.  Read-only.
        """
        pos = self.positions
        n = len(pos)
        a, b = np.triu_indices(n, k=1)
        if self.model == "scalar":
            r = np.linalg.norm(pos[a] - pos[b], axis=-1)
            upper = np.zeros((n, n), dtype=complex)
            upper[a, b] = -0.5 * self.gamma * np.exp(1j * r) / r
        else:
            d0sq = 0.75 * self.gamma  # |<1,q|d_q|0,0>|^2, closed F0=0 -> F=1
            blocks = np.zeros((n, n, 3, 3), dtype=complex)
            blocks[a, b] = d0sq * field_green_tensor(pos[a] - pos[b])
            upper = blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
        coupling = upper + upper.T
        coupling.flags.writeable = False
        return coupling


def build_effective_hamiltonian(config: Configuration,
                                detuning: float | None = None) -> np.ndarray:
    """Non-Hermitian effective Hamiltonian over the singly-excited basis.

    Diagonal entries are (-Delta - i gamma/2); off-diagonal entries carry
    the photon-exchange self-energy ``config.coupling``, which is computed
    once per configuration and shared by every detuning.  The matrix is
    complex-symmetric.
    """
    if detuning is None:
        detuning = config.detuning
    H = config.coupling.copy()
    np.fill_diagonal(H, -detuning - 0.5j * config.gamma)
    return H


class DipoleSolver:
    """Resolvent solver for one configuration at one probe detuning.

    Factorizes (E - H_eff) once (E = 0 in the rotating-frame convention,
    so the diagonal reads Delta + i gamma/2) and reuses the factorization
    across input/output channels.
    """

    def __init__(self, config: Configuration, detuning: float | None = None):
        self.config = config
        self.detuning = config.detuning if detuning is None else detuning
        self.H = build_effective_hamiltonian(config, self.detuning)
        self._lu = lu_factor(-self.H)
        # source normalization: reduced amplitude f such that
        # dsigma/dOmega = |f|^2 and Q0 = 4 pi Im f_forward
        self._pref = 0.75 * config.gamma if config.model == "vector" \
            else 0.5 * config.gamma

    def _source(self, k_in, e_in) -> np.ndarray:
        pos = self.config.positions
        phases = np.exp(1j * pos @ np.asarray(k_in, dtype=float))
        if self.config.model == "scalar":
            return phases.astype(complex)
        return (phases[:, None] * np.asarray(e_in, dtype=complex)).ravel()

    def scattering_amplitude(self, k_in, e_in=None, k_out=None,
                             e_out=None) -> complex:
        """Reduced elastic amplitude f(k_in e_in -> k_out e_out).

        For the scalar model the polarization arguments are ignored.
        ``k_out`` defaults to forward scattering.
        """
        if k_out is None:
            k_out = k_in
        x = lu_solve(self._lu, self._source(k_in, e_in))
        pos = self.config.positions
        out_phases = np.exp(-1j * pos @ np.asarray(k_out, dtype=float))
        if self.config.model == "scalar":
            return -self._pref * complex(out_phases @ x)
        exit_vec = (out_phases[:, None]
                    * np.conj(np.asarray(e_out, dtype=complex))).ravel()
        return -self._pref * complex(exit_vec @ x)

    def total_cross_section(self, k_in, e_in=None) -> float:
        """Q0 via the optical theorem, 4 pi Im f_forward (k = 1)."""
        f = self.scattering_amplitude(k_in, e_in, k_in, e_in)
        return 4.0 * math.pi * f.imag

    def differential_cross_section(self, k_in, e_in, k_out,
                                   e_out=None) -> float:
        """dsigma/dOmega; with ``e_out=None`` summed over exit polarizations."""
        if self.config.model == "scalar":
            return abs(self.scattering_amplitude(k_in, None, k_out)) ** 2
        if e_out is not None:
            return abs(self.scattering_amplitude(k_in, e_in, k_out, e_out)) ** 2
        ko = np.asarray(k_out, dtype=float)
        ko = ko / np.linalg.norm(ko)
        e1 = np.zeros(3)
        e1[np.argmin(np.abs(ko))] = 1.0
        e1 = e1 - (e1 @ ko) * ko
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(ko, e1)
        return sum(abs(self.scattering_amplitude(k_in, e_in, k_out, e)) ** 2
                   for e in (e1, e2))


# ----------------------------------------------------------------------------
# Self-consistent macroscopic dielectric response.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Epsilon:
    epsilon: complex
    chi: complex


def _sc_residual(chi: complex, n0s: float, delta: float, gamma: float):
    """Closed equation for the self-consistent susceptibility.

    chi (Delta + (i gamma/2) sqrt(1 + 4 pi chi)) =
        -(3/4) gamma n0s (1 + (4 pi/3) chi)
    including the local-field (Lorentz-Lorenz) term; n0s is the scaled
    density n0 (2F+1)/[3(2F0+1)].
    """
    root = cmath.sqrt(1.0 + 4.0 * math.pi * chi)
    F = chi * (delta + 0.5j * gamma * root) \
        + 0.75 * gamma * n0s * (1.0 + (4.0 * math.pi / 3.0) * chi)
    dF = (delta + 0.5j * gamma * root
          + chi * 0.5j * gamma * (2.0 * math.pi / root)
          + math.pi * gamma * n0s)
    return F, dF


def self_consistent_epsilon(n0_scaled: float, detuning: float,
                            gamma: float = 1.0, chi_start: complex | None = None,
                            n_steps: int = 40) -> Epsilon:
    """Self-consistent dielectric function at scaled density ``n0_scaled``.

    Solves the closed algebraic equation for chi by Newton iteration with
    a homotopy in density from the dilute limit, which selects the
    physical branch continuously connected to chi -> 0.  ``chi_start``
    short-circuits the homotopy (used for continuity across sweeps).
    """
    if n0_scaled < 0:
        raise ValueError("density must be non-negative")
    if n0_scaled == 0.0:
        return Epsilon(1.0 + 0.0j, 0.0j)

    def newton(chi, n0s):
        for _ in range(100):
            F, dF = _sc_residual(chi, n0s, detuning, gamma)
            step = F / dF
            chi = chi - step
            if abs(step) < 1e-14 * max(abs(chi), 1e-12):
                return chi
        raise ArithmeticError(
            f"self-consistent root tracking failed at n0_scaled={n0s}, "
            f"detuning={detuning}; last iterate chi={chi}")

    if chi_start is not None:
        chi = newton(chi_start, n0_scaled)
    else:
        chi = 0.0j
        for n0s in np.linspace(n0_scaled / n_steps, n0_scaled, n_steps):
            guess = chi if abs(chi) > 0 else \
                -0.75 * gamma * n0s / (detuning + 0.5j * gamma)
            chi = newton(guess, n0s)
    eps = 1.0 + 4.0 * math.pi * chi
    if eps.imag < -1e-9:
        raise ArithmeticError(
            f"unphysical branch (negative absorption) at n0_scaled="
            f"{n0_scaled}, detuning={detuning}: eps={eps}")
    return Epsilon(eps, chi)


@dataclass(frozen=True)
class SlabTransmission:
    amplitude: complex

    @property
    def transmittance(self) -> float:
        return abs(self.amplitude) ** 2


def slab_transmission(epsilon: complex, L: float,
                      omega: float = 1.0) -> SlabTransmission:
    """Exact transmission amplitude of a homogeneous dielectric slab.

    T = 2 sqrt(eps) / (2 sqrt(eps) cos psi - i (1 + eps) sin psi) with
    psi = L sqrt(eps) omega / c (principal branch).
    """
    if L < 0:
        raise ValueError("slab thickness must be non-negative")
    root = cmath.sqrt(epsilon)
    psi = L * root * omega
    denom = 2.0 * root * cmath.cos(psi) - 1j * (1.0 + epsilon) * cmath.sin(psi)
    return SlabTransmission(2.0 * root / denom)


# ----------------------------------------------------------------------------
# Random configurations and averaging.
# ----------------------------------------------------------------------------

def _respace(draw, n: int, floor: float, max_tries: int = 200) -> np.ndarray:
    pos = draw(n)
    for _ in range(max_tries):
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=-1))
        dist[np.arange(n), np.arange(n)] = math.inf
        bad = np.unique(np.nonzero(dist.min(axis=1) <= floor)[0])
        if bad.size == 0:
            return pos
        pos[bad] = draw(bad.size)
    raise RuntimeError("could not satisfy the contact floor; density too high")


def random_ball_configuration(n: int, radius: float, rng: np.random.Generator,
                              model: str = "vector",
                              contact_floor: float = CONTACT_FLOOR
                              ) -> Configuration:
    """Uniform random positions in a ball of the given radius."""

    def draw(m):
        out = np.empty((m, 3))
        got = 0
        while got < m:
            cand = rng.uniform(-radius, radius, size=(2 * (m - got) + 8, 3))
            cand = cand[np.sum(cand ** 2, axis=1) <= radius ** 2]
            take = min(len(cand), m - got)
            out[got:got + take] = cand[:take]
            got += take
        return out

    return Configuration(_respace(draw, n, contact_floor), model=model,
                         contact_floor=contact_floor)


def gaussian_configuration(n: int, r0: float, rng: np.random.Generator,
                           model: str = "vector",
                           contact_floor: float = CONTACT_FLOOR
                           ) -> Configuration:
    """Random positions from an isotropic Gaussian cloud of rms radius r0."""

    def draw(m):
        return rng.normal(scale=r0, size=(m, 3))

    return Configuration(_respace(draw, n, contact_floor), model=model,
                         contact_floor=contact_floor)


class RunningAverage:
    """Welford running mean/variance for configuration averaging."""

    def __init__(self):
        self.n = 0
        self._mean = None
        self._m2 = None

    def push(self, values):
        values = np.asarray(values, dtype=float)
        if self._mean is None:
            self._mean = np.zeros_like(values)
            self._m2 = np.zeros_like(values)
        self.n += 1
        delta = values - self._mean
        self._mean = self._mean + delta / self.n
        self._m2 = self._m2 + delta * (values - self._mean)

    @property
    def mean(self):
        return self._mean

    @property
    def stderr(self):
        if self.n < 2:
            return np.full_like(self._mean, np.inf)
        return np.sqrt(self._m2 / (self.n * (self.n - 1)))
