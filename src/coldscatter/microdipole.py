"""Microscopic coupled-dipole solver for frozen atomic configurations.

Builds the non-Hermitian effective Hamiltonian over the singly-excited
basis (scalar model: one state per atom; vector model: three Zeeman
states of an F0=0 -> F=1 transition per atom), solves the resolvent for
scattering amplitudes, and evaluates cross sections through the optical
theorem.  ``cross_section_spectrum`` gives the total cross section of one
configuration over a detuning grid from one Hessenberg reduction of the
photon-exchange coupling and one banded solve per detuning;
``DipoleSolver`` factorizes the resolvent at a single detuning, serves
any pair of channels, and is the LU oracle of the spectrum.  Also
provides the self-consistent macroscopic dielectric function, as the
principal root of one cubic per detuning, and the exact slab
transmission amplitude.

Configuration averages (the ``coupled-dipole-spectrum`` scenario) draw
their configurations in order from one ``np.random.default_rng(seed)``
stream and solve them one at a time, so memory does not grow with the
number of configurations.  The reported ``stat_err`` is the standard
error of the mean over configurations, inf for a single configuration;
``run.workers`` does not apply to these averages.

Units: gamma = 1, k = omega/c = 1, lengths in reduced wavelengths.  All
public scattering outputs are reduced amplitudes f (cross sections are
|f|^2 per solid angle and Q0 = 4 pi Im f_forward); quantization-volume
prefactors cancel in these combinations and never appear externally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

__all__ = [
    "Configuration",
    "Epsilon",
    "SlabTransmission",
    "DipoleSolver",
    "cross_section_spectrum",
    "field_green_tensor",
    "build_effective_hamiltonian",
    "self_consistent_epsilon",
    "slab_transmission",
    "random_ball_configuration",
    "gaussian_configuration",
]

CONTACT_FLOOR = 0.05  # reduced wavelengths; dipole model invalid below
_RESPACE_TRIES = 200  # redraw rounds for atoms inside the contact floor


def field_green_tensor(R) -> np.ndarray:
    """Retarded field Green's tensor D_{mu nu}(R) between two dipoles.

    D = -(i(2/3) h0(kR) delta + [X_mu X_nu / R^2 - delta/3] i h2(kR)) with
    k = 1 and the spherical Hankel functions of the first kind in closed
    form, h0(x) = -i e^{ix}/x and h2(x) = i e^{ix}(x^2 + 3ix - 3)/x^3.
    The far field reduces to -(e^{ikR}/R) times the transverse projector,
    the near field to the static dipole-dipole tensor (delta - 3 RR)/R^3.
    ``R`` may be a stack of separations of shape (..., 3); the result
    then has shape (..., 3, 3).

    Against scipy's Bessel functions, h0 agrees to 2.2e-16 and h2 to
    6.1e-16 relative over x in [0.05, 1000].  j2 = Re h2 ~ x^2/15 is a
    difference of terms of order 3/x^3 at small x and cancels: near the
    contact floor x = 0.05 its absolute error reaches 3.3e-13 (2e-9 of
    j2), far below the 1/x^3 real part beside it, so no series branch is
    needed.
    """
    R = np.asarray(R, dtype=float)
    r = np.linalg.norm(R, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("field Green's tensor undefined at zero separation")
    e = np.exp(1j * r)
    h0 = (-1j * e / r)[..., None, None]
    h2 = (1j * e * (r * r + 3j * r - 3.0) / r ** 3)[..., None, None]
    rr = R[..., :, None] * R[..., None, :] / r[..., None, None] ** 2
    eye = np.eye(3)
    return -(1j * (2.0 / 3.0) * h0 * eye + (rr - eye / 3.0) * 1j * h2)


def _nearest(pos: np.ndarray) -> np.ndarray:
    """Distance from each of the (N, 3) positions to its nearest other
    one (inf when there is none)."""
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    np.fill_diagonal(dist, math.inf)
    return dist.min(axis=1, initial=math.inf)


@dataclass(frozen=True, eq=False)
class Configuration:
    """Frozen positions of N point scatterers plus the model choice.

    The positions are a private read-only copy, so the detuning-independent
    ``coupling`` matrix can be cached on the configuration.  Equality and
    hashing are by identity.
    """
    positions: np.ndarray
    model: str = "vector"

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, ndmin=2)
        if pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        if self.model not in ("scalar", "vector"):
            raise ValueError(f"unknown model {self.model!r}")
        near = _nearest(pos)
        if np.any(near <= CONTACT_FLOOR):
            a = int(np.argmin(near))
            raise ValueError(
                f"atom {a} is {near[a]:.4g} from its nearest neighbour, "
                f"below the contact floor {CONTACT_FLOOR}")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @cached_property
    def coupling(self) -> np.ndarray:
        """Photon-exchange part of the effective Hamiltonian (zero diagonal).

        The vector model uses the full field Green's tensor with basis
        index 3*atom + Cartesian component; the scalar model keeps the
        angular-averaged transverse far-field kernel -(1/2) e^{ikR}/(kR).
        Built once per configuration for all pairs a < b, each written
        with its mirror (the kernel is symmetric and even in R), so the
        matrix is complex-symmetric.  Read-only.
        """
        pos = self.positions
        n = len(pos)
        a, b = np.triu_indices(n, k=1)
        if self.model == "scalar":
            r = np.linalg.norm(pos[a] - pos[b], axis=-1)
            coupling = np.zeros((n, n), dtype=complex)
            coupling[a, b] = coupling[b, a] = -0.5 * np.exp(1j * r) / r
        else:
            d0sq = 0.75  # |<1,q|d_q|0,0>|^2, closed F0=0 -> F=1
            coupling = np.zeros((3 * n, 3 * n), dtype=complex)
            # (atom, component, atom, component) view of the same memory
            blocks = coupling.reshape(n, 3, n, 3)
            blocks[a, :, b] = blocks[b, :, a] = (
                d0sq * field_green_tensor(pos[a] - pos[b]))
        coupling.flags.writeable = False
        return coupling


def build_effective_hamiltonian(config: Configuration,
                                detuning: float) -> np.ndarray:
    """Non-Hermitian effective Hamiltonian over the singly-excited basis.

    Diagonal entries are (-Delta - i gamma/2); off-diagonal entries carry
    the photon-exchange self-energy ``config.coupling``, which is computed
    once per configuration and shared by every detuning.  The matrix is
    complex-symmetric.
    """
    H = config.coupling.copy()
    np.fill_diagonal(H, -detuning - 0.5j)
    return H


def _plane_wave(config: Configuration, k, e):
    """Plane-wave channel (k, e) on the singly-excited basis, and the
    amplitude prefactor p of the model.

    The vector is exp(i k.r_a) e per atom (one entry per atom in the
    scalar model, which ignores e).  It is the source of an incoming
    channel; the exit vector of an outgoing channel is its complex
    conjugate.  The reduced amplitude is f = -p exit . x with
    (Delta + i gamma/2 - coupling) x = source, normalized so that
    dsigma/dOmega = |f|^2 and Q0 = 4 pi Im f_forward.
    """
    phases = np.exp(1j * config.positions @ np.asarray(k, dtype=float))
    if config.model == "scalar":
        return phases, 0.5
    return (phases[:, None] * np.asarray(e, dtype=complex)).ravel(), 0.75


class DipoleSolver:
    """Resolvent solver for one configuration at a single probe detuning.

    Factorizes (E - H_eff) by dense LU once (E = 0 in the rotating-frame
    convention, so the diagonal reads Delta + i gamma/2) and reuses the
    factorization across input/output channels.  It is the reference
    (oracle) for :func:`cross_section_spectrum`, which is faster over a
    detuning sweep.
    """

    def __init__(self, config: Configuration, detuning: float):
        self.config = config
        self._lu = lu_factor(-build_effective_hamiltonian(config, detuning))

    def scattering_amplitude(self, k_in, e_in=None, k_out=None,
                             e_out=None) -> complex:
        """Reduced elastic amplitude f(k_in e_in -> k_out e_out).

        For the scalar model the polarization arguments are ignored.
        ``k_out`` defaults to forward scattering.
        """
        if k_out is None:
            k_out = k_in
        source, pref = _plane_wave(self.config, k_in, e_in)
        exit_vec = np.conj(_plane_wave(self.config, k_out, e_out)[0])
        return -pref * complex(exit_vec @ lu_solve(self._lu, source))

    def total_cross_section(self, k_in, e_in=None) -> float:
        """Q0 via the optical theorem, 4 pi Im f_forward (k = 1)."""
        f = self.scattering_amplitude(k_in, e_in, k_in, e_in)
        return 4.0 * math.pi * f.imag


def cross_section_spectrum(config: Configuration, detunings, k_in,
                           e_in=None) -> np.ndarray:
    """Total cross section Q0 of one configuration at each detuning.

    Only the diagonal of (Delta + i gamma/2) I - K changes along the
    sweep, with K = ``config.coupling``.  One unitary reduction to upper
    Hessenberg form, K = Q H Q^H (LAPACK zgehrd, blocked), turns every
    system into (Delta + i/2 - H) y = Q^H b, a band of one subdiagonal
    and n - 1 superdiagonals that zgbsv solves in O(n^2) with partial
    pivoting: the frequency-response method of Laub, IEEE Trans. Autom.
    Control 26, 407 (1981).  Q is never formed; its n - 1 reflectors are
    applied to the source b alone, because the forward exit vector is
    conj(b), so f = -p (Q^H b)^H y and Q0 = 4 pi Im f.

    The reduction costs several dense LU factorizations (about five at
    N = 50), so a sweep of very few detunings is faster through
    :class:`DipoleSolver`, the LU oracle this agrees with to rounding.

    Raises ``ValueError`` for a non-finite detuning and
    ``ArithmeticError`` when a shifted system is exactly singular.
    """
    deltas = np.asarray(detunings, dtype=float).ravel()
    if not np.all(np.isfinite(deltas)):
        raise ValueError("detunings must be finite")
    source, pref = _plane_wave(config, k_in, e_in)
    n = len(source)
    lwork = int(lapack.zgehrd_lwork(n)[0].real)
    h, tau, _ = lapack.zgehrd(config.coupling, lwork=lwork)
    rhs = source.reshape(n, 1)
    if n > 1:  # the wrappers reject the empty reflector set of one state
        rhs[1:], _, _ = lapack.zunmqr("L", "C", h[1:, :-1], tau, rhs[1:], 1)
    exit_vec = np.conj(rhs[:, 0])
    # zgbsv band storage for kl = 1, ku = n - 1 holds entry (i, j) at row
    # n + i - j of column j, Fortran offset n + i + j (n + 1): an n x n
    # matrix with leading dimension n + 1.  Below the subdiagonal h holds
    # the reflectors, which stay out; row 0 is LU workspace.
    band = np.zeros((n + 2, n), dtype=complex, order="F")
    np.negative(h, where=~np.tri(n, k=-2, dtype=bool),
                out=band.reshape(-1, order="F")[n:]
                .reshape(n + 1, n, order="F")[:n])
    del h
    work = np.empty_like(band)
    q0 = np.empty(len(deltas))
    for m, delta in enumerate(deltas):
        work[...] = band
        work[n] += delta + 0.5j
        _, _, y, info = lapack.zgbsv(1, n - 1, work, rhs.copy(),
                                     overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise ArithmeticError(
                f"coupled-dipole system singular at detuning {delta!r} "
                f"(zgbsv info {info})")
        q0[m] = 4.0 * math.pi * (-pref * (exit_vec @ y[:, 0])).imag
    return q0


# ----------------------------------------------------------------------------
# Self-consistent macroscopic dielectric response.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Epsilon:
    epsilon: complex | np.ndarray
    chi: complex | np.ndarray


def self_consistent_epsilon(n0_scaled: float, detuning) -> Epsilon:
    """Self-consistent dielectric function at scaled density ``n0_scaled``.

    Solves chi (Delta + (i/2) s) = -(3/4) n0s (1 + (4 pi/3) chi) with
    s = sqrt(eps) = sqrt(1 + 4 pi chi), which includes the local-field
    (Lorentz-Lorenz) term; n0s is the scaled density n0 (2F+1)/[3(2F0+1)].
    ``detuning`` is a scalar or an array; the result has its shape.

    With s = 1 + t and A = Delta + pi n0s this is the cubic
    t^3 + (3 - 2iA) t^2 + (2 - 4iA) t - 6 pi i n0s = 0.  Its roots are
    symmetric under s -> -conj(s), so at most one has Re s > 0: the
    principal-branch root, connected to chi -> 0 in the dilute limit.  In
    u = -i s the cubic is real, (u^2 + 1)(u - 2A) + 6 pi n0s = 0, and is
    solved for all detunings at once by the eigenvalues of its companion
    matrices; the real eigensolver returns a root on the imaginary s axis
    with Im u exactly 0, so Re s > 0 needs no tolerance.  The root is
    recomputed from the other two by Vieta, t = 6 pi i n0s / (t2 t3), so
    chi = t (t + 2)/(4 pi) stays accurate far from resonance.

    Raises ``ArithmeticError`` at the first detuning with no root of
    Re s > 0 (a window slightly blue of resonance that opens between
    n0s = 0.08 and 0.09) or with negative absorption, Im eps < -1e-9.
    """
    if not (n0_scaled >= 0.0 and math.isfinite(n0_scaled)):
        raise ValueError("density must be finite and non-negative")
    deltas = np.asarray(detuning, dtype=float)
    A = deltas.ravel() + math.pi * n0_scaled
    companion = np.zeros((A.size, 3, 3))
    companion[:, 0] = np.stack(
        [2.0 * A, np.full_like(A, -1.0), 2.0 * A - 6.0 * math.pi * n0_scaled],
        axis=-1)
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    # s = i u, sorted (by its negative) so the largest Re s comes first
    s = -np.sort(-1j * np.linalg.eigvals(companion), axis=1)
    others = s[:, 1:] - 1.0
    t = 6j * math.pi * n0_scaled / (others[:, 0] * others[:, 1])
    chi = t * (t + 2.0) / (4.0 * math.pi)
    eps = 1.0 + 4.0 * math.pi * chi
    bad = (s[:, 0].real <= 0.0) | (eps.imag < -1e-9)
    if bad.any():
        raise ArithmeticError(
            f"no physical self-consistent root (Re sqrt(eps) > 0, Im eps "
            f">= 0) at n0_scaled={n0_scaled}, "
            f"detuning={deltas.ravel()[bad.argmax()]}")
    return Epsilon(eps.reshape(deltas.shape)[()],
                   chi.reshape(deltas.shape)[()])


@dataclass(frozen=True)
class SlabTransmission:
    amplitude: complex | np.ndarray

    @property
    def transmittance(self):
        return abs(self.amplitude) ** 2


def slab_transmission(epsilon, L: float) -> SlabTransmission:
    """Exact transmission amplitude of a homogeneous dielectric slab.

    T = 2 s / (2 s cos psi - i (1 + eps) sin psi) with s = sqrt(eps)
    (principal branch) and psi = L s k with k = 1, evaluated as
    T = 4 s p / (4 s + (1 - s)^2 (1 - p^2)) with p = e^{i psi}: cos psi
    and sin psi overflow once Im psi > ~710, where p underflows to 0
    instead, and p = 1 makes T = 1 exactly at L = 0.  ``epsilon`` is a scalar or an array; a real one is taken
    as eps + 0i, so a negative eps has sqrt(eps) on the positive
    imaginary axis.
    """
    if L < 0:
        raise ValueError("slab thickness must be non-negative")
    shape = np.shape(epsilon)
    # 1-d, so a scalar runs through the same array loops as an array
    eps = np.asarray(epsilon, dtype=complex).ravel()
    root = np.sqrt(eps)
    phase = np.exp(1j * L * root)
    denom = 4.0 * root + (1.0 - root) ** 2 * (1.0 - phase ** 2)
    return SlabTransmission((4.0 * root * phase / denom).reshape(shape)[()])


# ----------------------------------------------------------------------------
# Random configurations.
# ----------------------------------------------------------------------------

def _respace(draw, n: int) -> np.ndarray:
    pos = draw(n)
    for _ in range(_RESPACE_TRIES):
        bad = np.nonzero(_nearest(pos) <= CONTACT_FLOOR)[0]
        if bad.size == 0:
            return pos
        pos[bad] = draw(bad.size)
    raise ValueError("could not satisfy the contact floor; density too high")


def random_ball_configuration(n: int, radius: float, rng: np.random.Generator,
                              model: str = "vector") -> Configuration:
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

    return Configuration(_respace(draw, n), model=model)


def gaussian_configuration(n: int, r0: float, rng: np.random.Generator,
                           model: str = "vector") -> Configuration:
    """Random positions from an isotropic Gaussian cloud.

    r0 is the per-axis standard deviation, the same r0 as the density
    profile of ``mcscatter.Cloud``; the rms radius is sqrt(3) r0.
    """

    def draw(m):
        return rng.normal(scale=r0, size=(m, 3))

    return Configuration(_respace(draw, n), model=model)

