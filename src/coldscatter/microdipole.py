"""Microscopic coupled-dipole solver for frozen atomic configurations.

Builds the non-Hermitian effective Hamiltonian over the singly-excited
basis (scalar model: one state per atom; vector model: three Zeeman
states of an F0=0 -> F=1 transition per atom), solves the resolvent for
scattering amplitudes, and evaluates cross sections through the optical
theorem.  ``cross_section_spectrum`` gives the total cross section of one
configuration over a detuning grid from one Hessenberg reduction of the
photon-exchange coupling and one back-substitution that serves every
detuning at once; ``DipoleSolver`` factorizes the resolvent at a single
detuning, serves any pair of channels, and is the LU oracle of the
spectrum.  Also provides the self-consistent macroscopic dielectric
function, as the principal root of one cubic per detuning, and the exact
slab transmission amplitude.

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
# coupling strength p of each model: the scalar kernel's 1/2, and the
# |<1,q|d_q|0,0>|^2 = 3/4 of the vector model's closed F0=0 -> F=1 line
_STRENGTH = {"scalar": 0.5, "vector": 0.75}
_RESPACE_TRIES = 200  # redraw rounds for atoms inside the contact floor


def _green_coefficients(r):
    """Coefficients (alpha, beta) of the field Green's tensor
    D = alpha delta + beta RR/R^2 at distances ``r`` (k = 1).

    With the spherical Hankel functions of the first kind in closed form,
    h0(x) = -i e^{ix}/x and h2(x) = i e^{ix}(x^2 + 3ix - 3)/x^3,
    alpha = -i(2 h0 - h2)/3 = -e^{ir}(r^2 + ir - 1)/r^3 and
    beta = -i h2 = e^{ir}(r^2 + 3ir - 3)/r^3.
    """
    t = np.exp(1j * r) / r ** 3
    r2 = r * r
    return -t * (r2 + 1j * r - 1.0), t * (r2 + 3j * r - 3.0)


def field_green_tensor(R) -> np.ndarray:
    """Retarded field Green's tensor D_{mu nu}(R) between two dipoles.

    D = -(i(2/3) h0(kR) delta + [X_mu X_nu / R^2 - delta/3] i h2(kR)) with
    k = 1, formed as alpha delta + beta RR/R^2 from the closed-form
    coefficients of ``_green_coefficients``, which the coupling of a
    :class:`Configuration` shares.  The far field reduces to
    -(e^{ikR}/R) times the transverse projector, the near field to the
    static dipole-dipole tensor (delta - 3 RR)/R^3.  ``R`` may be a stack
    of separations of shape (..., 3); the result then has shape
    (..., 3, 3).

    Against scipy's Bessel functions the tensor agrees to 2e-15 of its
    largest entry over kR in [0.05, 1000].  Im D holds j2 = Re h2 ~ x^2/15,
    a difference of terms of order 3/x^3 at small x that cancels: near
    the contact floor x = 0.05 its absolute error reaches about 3e-13,
    far below the 1/x^3 real part beside it, so no series branch is
    needed.
    """
    R = np.asarray(R, dtype=float)
    r = np.linalg.norm(R, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("field Green's tensor undefined at zero separation")
    alpha, beta = _green_coefficients(r)
    u = R / r[..., None]
    return (alpha[..., None, None] * np.eye(3)
            + beta[..., None, None] * (u[..., :, None] * u[..., None, :]))


class _ContactError(ValueError):
    """Atoms too close together; ``atoms`` holds each within the floor."""

    def __init__(self, message: str, atoms: np.ndarray):
        super().__init__(message)
        self.atoms = atoms


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
        if pos.shape[1:] != (3,):
            raise ValueError("positions must be an (N, 3) array")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        if self.model not in _STRENGTH:
            raise ValueError(f"unknown model {self.model!r}")
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(dist, math.inf)
        near = dist.min(axis=1, initial=math.inf)
        close = np.flatnonzero(near <= CONTACT_FLOOR)
        if close.size:
            a = int(np.argmin(near))
            raise _ContactError(
                f"atom {a} is {near[a]:.4g} from its nearest neighbour, "
                f"below the contact floor {CONTACT_FLOOR}", close)

    @cached_property
    def coupling(self) -> np.ndarray:
        """Photon-exchange part of the effective Hamiltonian (zero diagonal).

        The vector model uses the full field Green's tensor with basis
        index 3*atom + Cartesian component; the scalar model keeps the
        angular-averaged transverse far-field kernel -(1/2) e^{ikR}/(kR).
        Built once per configuration from the distances of all N^2 atom
        pairs; the vector tensor alpha delta + beta RR/R^2 is written one
        Cartesian component pair at a time through the (atom, component,
        atom, component) view of the result.  The kernel is even in R, so
        the matrix is exactly complex-symmetric.  Read-only.
        """
        pos = self.positions
        n = len(pos)
        diff = pos[:, None, :] - pos[None, :, :]
        r = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(r, 1.0)  # no self-coupling; keeps the diagonal finite
        if self.model == "scalar":
            coupling = -_STRENGTH["scalar"] * np.exp(1j * r) / r
            np.fill_diagonal(coupling, 0.0)
        else:
            alpha, beta = _green_coefficients(r)
            alpha *= _STRENGTH["vector"]
            beta *= _STRENGTH["vector"]
            np.fill_diagonal(alpha, 0.0)
            np.fill_diagonal(beta, 0.0)
            diff /= r[..., None]  # unit vectors, 0 on the diagonal
            coupling = np.empty((3 * n, 3 * n), dtype=complex)
            blocks = coupling.reshape(n, 3, n, 3)
            for mu in range(3):
                for nu in range(3):
                    np.multiply(beta, diff[..., mu] * diff[..., nu],
                                out=blocks[:, mu, :, nu])
                blocks[:, mu, :, mu] += alpha
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
    if config.model == "vector":
        phases = (phases[:, None] * np.asarray(e, dtype=complex)).ravel()
    return phases, _STRENGTH[config.model]


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
    sweep, with K = ``config.coupling``, and the forward exit vector is
    conj(b) for the source b, so f = -p b^H (Delta + i/2 - K)^-1 b.  A
    Householder reflector P (LAPACK zlarfg) maps b to beta e1 and is
    applied to a copy of K from both sides; the unitary reduction of
    P K P^H to upper Hessenberg form H (zgehrd, blocked) leaves e1 fixed,
    so f = -p |beta|^2 [(Delta + i/2 - H)^-1]_11 and Q0 = 4 pi Im f.  This
    is the frequency-response method of Laub, IEEE Trans. Autom. Control
    26, 407 (1981).

    The (1,1) entry comes from Hyman's method (Wilkinson, The Algebraic
    Eigenvalue Problem, 1965, section 7.11), for all M detunings at once:
    rows 2..n of Delta + i/2 - H are a triangle whose diagonal is minus
    the subdiagonal of H, which does not depend on Delta.  So, with
    x_n = 1, back-substitution through those rows needs no pivoting and
    gives the x with (Delta + i/2 - H) x = d e1, where d is row 1 times
    x, and the entry is x_1/d.  The cost is O(n^3) once and O(n^2 M) for
    the sweep.  x can grow by a factor of order |Delta + i/2|/|h_{i,i-1}|
    per row, so each detuning's column is rescaled to a largest entry of
    1 whenever a bound on that growth nears overflow, or below 1 when the
    next row's growth alone would pass it.  An exactly zero subdiagonal
    makes H block upper triangular; the recurrence then stops there,
    since the leading block alone sets the (1,1) entry (a single atom
    gives H = 0).

    The reduction costs several dense LU factorizations (about five at
    N = 50), so a sweep of very few detunings is faster through
    :class:`DipoleSolver`, the LU oracle this agrees with to rounding.

    Raises ``ValueError`` for a non-finite detuning and
    ``ArithmeticError``, naming the detuning, when a shifted system is
    singular (d is 0 or not finite).
    """
    deltas = np.asarray(detunings, dtype=float).ravel()
    if not np.all(np.isfinite(deltas)):
        raise ValueError("detunings must be finite")
    source, pref = _plane_wave(config, k_in, e_in)
    n = len(source)
    beta, tail, tau = lapack.zlarfg(n, source[0], source[1:])
    v = np.concatenate(([1.0], tail))
    work = np.empty(n, dtype=complex)
    # the coupling is exactly symmetric, so its transpose, which is
    # Fortran-ordered, copies straight into the layout LAPACK works in
    h = config.coupling.T.copy(order="F")
    h = lapack.zlarf(v, np.conj(tau), h, work, side="L", overwrite_c=1)
    h = lapack.zlarf(v, tau, h, work, side="R", overwrite_c=1)
    lwork = int(lapack.zgehrd_lwork(n)[0].real)
    h, _, _ = lapack.zgehrd(h, lwork=lwork, overwrite_a=1)
    g11 = _hessenberg_resolvent(h, deltas)
    return 4.0 * math.pi * (-pref * abs(beta) ** 2 * g11).imag


_LOG_BOUND = 690.0  # rescale before an entry could exceed e^690 ~ 1e300


def _hessenberg_resolvent(h, deltas) -> np.ndarray:
    """[(Delta + i/2 - H)^-1]_11 at each detuning by Hyman's method.

    H is the upper Hessenberg part of ``h``; entries below its
    subdiagonal are ignored.  See :func:`cross_section_spectrum`.
    """
    sub = np.diagonal(h, -1)
    zero = np.flatnonzero(sub == 0.0)
    n = int(zero[0]) + 1 if zero.size else len(h)
    z = deltas + 0.5j
    # sqrt(n) ||h||_F bounds the 1-norm of every row of H, so each term
    # that forms the next entry of x is at most e^scale times the largest
    # entry so far, and the entry itself e^scale / |h_{i,i-1}|; growth[i]
    # is the log of the larger of the two
    scale = max(math.log(np.abs(z).max()
                         + math.sqrt(len(h)) * np.linalg.norm(h)), 0.0)
    x = np.empty((n, len(z)), dtype=complex)
    x[-1] = 1.0
    grown = 0.0  # log of the largest entry since the last rescaling
    # a subnormal subdiagonal can still overflow; d is then not finite
    with np.errstate(over="ignore", invalid="ignore"):
        growth = (scale
                  + np.maximum(-np.log(np.abs(sub[:n - 1])), 0.0)).tolist()
        inverse = (-1.0 / sub[:n - 1]).tolist()
        for i in range(n - 1, 0, -1):
            if grown + growth[i - 1] > _LOG_BOUND:
                # to a largest entry of 1, or of e^(bound - growth) when
                # the next entry's own growth would pass the bound
                x[i:] /= np.abs(x[i:]).max(axis=0)
                grown = min(_LOG_BOUND - growth[i - 1], 0.0)
                if grown:
                    x[i:] *= math.exp(grown)
            row = x[i - 1]
            np.matmul(h[i, i:n], x[i:], out=row)
            row -= z * x[i]
            row *= inverse[i - 1]
            grown += growth[i - 1]
        if grown + scale > _LOG_BOUND:
            x /= np.abs(x).max(axis=0)
        d = z * x[0] - h[0, :n] @ x
    bad = (d == 0.0) | ~np.isfinite(d)
    if bad.any():
        raise ArithmeticError(
            f"coupled-dipole system singular at detuning "
            f"{float(deltas[bad.argmax()])!r}")
    return x[0] / d


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

def _respace(draw, n: int, model: str) -> Configuration:
    """n atoms from ``draw(m)``, redrawing those the contact check names."""
    pos = draw(n)
    for _ in range(_RESPACE_TRIES):
        try:
            return Configuration(pos, model=model)
        except _ContactError as exc:
            pos[exc.atoms] = draw(exc.atoms.size)
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

    return _respace(draw, n, model)


def gaussian_configuration(n: int, r0: float, rng: np.random.Generator,
                           model: str = "vector") -> Configuration:
    """Random positions from an isotropic Gaussian cloud.

    r0 is the per-axis standard deviation, the same r0 as the density
    profile of ``mcscatter.Cloud``; the rms radius is sqrt(3) r0.
    """

    def draw(m):
        return rng.normal(scale=r0, size=(m, 3))

    return _respace(draw, n, model)

