r"""Dressed-medium optics: propagators, susceptibility and scattering tensors.

Builds the excited-state Green's function dressed by a control field
(Autler-Townes blocks), the sample susceptibility tensor, the single-atom
scattering tensors, the Pauli-matrix transverse decomposition used by the
ray propagator, kinetic lengths (extinction / scattering / loss-or-gain)
and the effective Raman gain cross section.

The propagator, susceptibility, scattering-tensor, beam chi0 and
extinction kernels take an array of frequencies and return one stack
whose leading axes are those of the frequencies; a scalar frequency is
the 0-d case of the same code.  A whole sweep or table fill is one call,
with no Python loop over frequencies.

All frequencies are in units of gamma, measured in the rotating frame so
that a bare transition m -> n resonates at ``omega = E_n - E_m``.
Densities are atoms per cubed reduced wavelength, and ``k = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .angular import LevelScheme, dipole_q_array, spherical_unit_vectors

__all__ = [
    "PoleProximityError",
    "ControlField",
    "GroundState",
    "TransverseChi",
    "KineticLengths",
    "excited_green",
    "susceptibility",
    "scattering_tensors",
    "local_frame",
    "transverse_decompose",
    "beam_chi0",
    "extinction_cross_section",
    "kinetic_lengths",
    "raman_gain_cross_section",
]


class PoleProximityError(ArithmeticError):
    """The dressed-propagator linear system sits on (or too near) a pole."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ControlField:
    """A quasi-stationary control mode dressing the excited manifold.

    ``rabi`` is the Rabi frequency Omega_c defined with respect to the
    reference transition ``(twice_F0, M0=0) -> (twice_F_ref, M=q)``,
    i.e. the matrix element on that transition is Omega_c/2; couplings to
    all other allowed transitions scale with their dipole elements.
    ``omega_c`` is the control frequency in the rotating frame (resonant
    with transition m' -> n when omega_c = E_n - E_m').
    """
    rabi: float
    omega_c: float
    twice_F0: int
    twice_F_ref: int
    polarization_q: int = 0

    def coupling_vector(self, scheme: LevelScheme, excited_idx: list[int],
                        ground_idx: int) -> np.ndarray:
        """V_{n m'} for the listed excited sublevels, units gamma."""
        d = dipole_q_array(scheme)
        iq = self.polarization_q + 1
        gnd = scheme.ground_sublevels()
        exc = scheme.excited_sublevels()
        # reference element
        ref_g = gnd.index((self.twice_F0, 0))
        ref_e = exc.index((self.twice_F_ref, 2 * self.polarization_q))
        d_ref = d[iq, ref_e, ref_g]
        if d_ref == 0.0:
            raise ValueError("control reference transition is forbidden")
        return (self.rabi / 2.0) * d[iq, np.array(excited_idx), ground_idx] / d_ref


@dataclass(eq=False)
class GroundState:
    """Ground-manifold density matrix and atom density.

    ``rho`` is Hermitian with unit trace over the sublevels enumerated by
    :meth:`LevelScheme.ground_sublevels`; coherences are supported only
    within degenerate Zeeman manifolds.  ``n0`` is the peak density in
    atoms per cubed reduced wavelength.  Equality and hashing are by
    identity.
    """
    rho: np.ndarray
    n0: float = 1.0

    @classmethod
    def isotropic(cls, scheme: LevelScheme, twice_F0: int,
                  n0: float = 1.0) -> "GroundState":
        """Equal populations over the Zeeman sublevels of one ground level."""
        gnd = scheme.ground_sublevels()
        sel = [i for i, (tf, _) in enumerate(gnd) if tf == twice_F0]
        rho = np.zeros((len(gnd), len(gnd)))
        for i in sel:
            rho[i, i] = 1.0 / len(sel)
        return cls(rho=rho, n0=n0)


# ----------------------------------------------------------------------------
# Dressed excited-state propagator.
# ----------------------------------------------------------------------------

class _SchemeTable(NamedTuple):
    excited_energies: np.ndarray
    ground_energies: np.ndarray  # in sublevel order
    d_out: np.ndarray            # (n_ground, 3, n_exc)
    d_in: np.ndarray
    blocks: tuple                # (twice_M, indices) pairs, increasing M


@lru_cache(maxsize=32)
def _scheme_table(scheme: LevelScheme) -> _SchemeTable:
    """The read-only sublevel energies, same-M excited blocks and
    Cartesian dipole rows of ``scheme``: outgoing -e_q'^* d and incoming
    d e_q, so that the scattering tensor of the channel m -> m' is
    alpha^{(m' m)} = d_out[m'] G d_in[m]^T."""
    exc = scheme.excited_sublevels()
    blocks = tuple((tM, tuple(i for i, (_, tm) in enumerate(exc) if tm == tM))
                   for tM in sorted({tm for _, tm in exc}))
    d = dipole_q_array(scheme).transpose(2, 0, 1)  # d[m, q, n]
    eq = spherical_unit_vectors()
    table = _SchemeTable(
        np.array([scheme.excited_energy(tf) for tf, _ in exc]),
        np.array([scheme.ground_energy(tf)
                  for tf, _ in scheme.ground_sublevels()]),
        -(eq.conj().T @ d), eq.T @ d, blocks)
    for a in table[:-1]:  # every field but the blocks
        a.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _dressed_blocks(scheme: LevelScheme, control: ControlField | None):
    """``(indices, v)`` of every same-M excited block the control couples,
    with its index array and read-only coupling vector v; blocks without a
    ground partner M - q in the control's level, or with v = 0, stay
    undressed."""
    if control is None or control.rabi == 0.0:
        return ()
    gnd = scheme.ground_sublevels()
    dressed = []
    for tM, idx in _scheme_table(scheme).blocks:
        partner = (control.twice_F0, tM - 2 * control.polarization_q)
        if partner not in gnd:
            continue
        v = control.coupling_vector(scheme, list(idx), gnd.index(partner))
        if np.any(v):
            v = v.astype(complex)
            v.flags.writeable = False
            dressed.append((np.array(idx), v))
    return tuple(dressed)


def excited_green(scheme: LevelScheme, control: ControlField | None,
                  E) -> np.ndarray:
    """Full excited-manifold Green's function (block-diagonal in M) at
    every energy of ``E``: a stack (*E.shape, n_exc, n_exc) holding the
    undressed diagonal 1/(E - E_n + i gamma/2), with the blocks the
    control couples replaced by their dressed inverses.

    A dressed block is (A - v v^H / delta2)^{-1} with the rank-1 control
    self-energy, by Sherman-Morrison; the closed form is continuous at the
    two-photon resonance delta2 = 0.  Every energy is checked against the
    poles before any block is formed, and the first offending one in
    ``E`` raises :class:`PoleProximityError`.
    """
    E = np.asarray(E)
    energies = _scheme_table(scheme).excited_energies
    a_inv = 1.0 / (E[..., None] - energies + 0.5j * scheme.gamma)
    n = len(energies)
    G = np.zeros(E.shape + (n, n), dtype=complex)
    G[..., np.arange(n), np.arange(n)] = a_inv
    blocks = _dressed_blocks(scheme, control)
    if not blocks:
        return G
    delta2 = E - control.omega_c - scheme.ground_energy(control.twice_F0)
    parts, residual = [], np.full(E.shape, np.inf)
    for idx, v in blocks:
        a = a_inv[..., idx]
        u = a * v
        vAv = u @ v.conj()  # v^H A^{-1} v
        denom = delta2 - vAv
        scale = np.maximum(np.maximum(abs(delta2), abs(vAv)), scheme.gamma)
        residual = np.minimum(residual, abs(denom) / scale)
        parts.append((idx, u, a * v.conj(), denom))
    bad = np.flatnonzero(residual < 1e-12)
    if len(bad):
        raise PoleProximityError(
            "dressed propagator pole at E=%r" % (E.flat[bad[0]].item(),),
            float(residual.flat[bad[0]]))
    for idx, u, w, denom in parts:
        G[..., idx[:, None], idx] += u[..., :, None] * w[..., None, :] \
            / denom[..., None, None]
    return G


# ----------------------------------------------------------------------------
# Susceptibility and scattering tensors.
# ----------------------------------------------------------------------------

def _alpha(scheme: LevelScheme, control: ControlField | None,
           m_out, m_in, omega) -> np.ndarray:
    """Scattering tensors alpha^{(m_out m_in)} = d_out[m_out] G d_in[m_in]^T
    at input frequencies ``omega``, with the three arguments broadcast
    together: a stack (*shape, 3, 3).  G d_in^T is formed once per entry of
    the broadcast (m_in, omega), so a broadcast over m_out adds only the
    outgoing contraction."""
    m_in, omega = np.broadcast_arrays(m_in, omega)
    table = _scheme_table(scheme)
    G = excited_green(scheme, control, omega + table.ground_energies[m_in])
    # einsum's optimized path is a BLAS product where the stack broadcasts
    return np.einsum("...an,...nb->...ab", table.d_out[m_out],
                     G @ table.d_in[m_in].swapaxes(-1, -2), optimize=True)


def scattering_tensors(scheme: LevelScheme, control: ControlField | None,
                       m_in, omega) -> np.ndarray:
    """Single-atom scattering tensors alpha^{(m' m_in)}_{mu' mu} of every
    outgoing channel m' for incoming sublevels ``m_in`` at input
    frequencies ``omega``, broadcast together: a stack
    (*shape, n_ground, 3, 3) indexed by :meth:`LevelScheme.ground_sublevels`,
    rows the outgoing Cartesian index mu', columns the incoming mu."""
    m_in, omega = np.broadcast_arrays(m_in, omega)
    return _alpha(scheme, control,
                  np.arange(len(_scheme_table(scheme).ground_energies)),
                  m_in[..., None], omega[..., None])


def susceptibility(scheme: LevelScheme, ground: GroundState,
                   control: ControlField | None, omega) -> np.ndarray:
    """Sample susceptibility chi_{mu mu'} (Cartesian lab frame) at every
    frequency of ``omega``: a stack (*omega.shape, 3, 3).

    chi = n0 sum rho_{m'm} alpha^{(m m')}, with G at omega + E_m' = omega
    + E_m since coherences lie within degenerate manifolds; only the
    channels with a nonzero rho entry are formed.
    """
    rows, cols = np.nonzero(ground.rho)
    alpha = _alpha(scheme, control, cols, rows, np.asarray(omega)[..., None])
    chi = np.tensordot(ground.rho[rows, cols], np.moveaxis(alpha, -3, 0),
                       axes=1)
    return ground.n0 * chi


def raman_shift(scheme: LevelScheme, m_out, m_in):
    """omega' - omega = E_m - E_m' for the channel m -> m'; the sublevel
    index arrays broadcast together."""
    energies = _scheme_table(scheme).ground_energies
    return energies[m_in] - energies[m_out]


# ----------------------------------------------------------------------------
# Transverse (Pauli) decomposition for a ray.
# ----------------------------------------------------------------------------

def local_frame(direction: np.ndarray) -> np.ndarray:
    """Right-handed frame (rows x, y, z) with z along the ray.

    The local x-axis is the normalized projection of the lab z-axis onto
    the plane transverse to the ray; when the ray is parallel to lab z the
    frame falls back to the lab x-axis.
    """
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    zproj = np.array([0.0, 0.0, 1.0]) - u[2] * u
    norm = np.linalg.norm(zproj)
    if norm < 1e-12:
        x = np.array([1.0, 0.0, 0.0])
    else:
        x = zproj / norm
    y = np.cross(u, x)
    return np.array([x, y, u])


def _pauli(chi_loc: np.ndarray):
    """chi0 and the Pauli components (chi_x, chi_y, chi_z) of the
    transverse 2x2 block of ray-frame tensors chi_loc (..., 3, 3)."""
    t = chi_loc[..., :2, :2]
    chi0 = 0.5 * (t[..., 0, 0] + t[..., 1, 1])
    cz = 0.5 * (t[..., 0, 0] - t[..., 1, 1])
    cx = 0.5 * (t[..., 0, 1] + t[..., 1, 0])
    cy = 0.5j * (t[..., 0, 1] - t[..., 1, 0])
    return chi0, np.stack([cx, cy, cz], axis=-1)


@dataclass
class TransverseChi:
    """Pauli expansion of the susceptibility projected on a ray."""
    chi0: complex
    chivec: np.ndarray  # (chi_x, chi_y, chi_z) Pauli components
    frame: np.ndarray   # rows: local x, y, z axes


def transverse_decompose(chi_lab: np.ndarray, ray_direction,
                         frame: np.ndarray | None = None) -> TransverseChi:
    """Project a lab-frame 3x3 susceptibility onto a ray's transverse plane.

    Returns the Pauli expansion chi0 I + chivec . sigma (standard sigma
    labelling) of the transverse block in the ray frame, and that frame.
    """
    R = local_frame(ray_direction) if frame is None else frame
    chi_loc = R @ np.asarray(chi_lab, dtype=complex) @ R.T
    chi0, chivec = _pauli(chi_loc)
    return TransverseChi(chi0, chivec, R)


# ----------------------------------------------------------------------------
# Kinetic lengths.
# ----------------------------------------------------------------------------

@dataclass
class KineticLengths:
    sigma_ex: float
    sigma_sc: float
    l_ex: float
    l_sc: float
    l_ls: float      # +inf when lossless; negative values indicate gain
    l_g: float       # gain length (= -l_ls when l_ls < 0, else +inf)
    albedo: float


def beam_chi0(scheme: LevelScheme, ground: GroundState,
              control: ControlField | None, omega):
    """Isotropic transverse susceptibility chi0 seen by a beam along +z at
    every frequency of ``omega``; the frame of such a beam is the lab
    frame (:func:`local_frame` of +z is the identity)."""
    return _pauli(susceptibility(scheme, ground, control, omega))[0]


def extinction_cross_section(scheme: LevelScheme, ground: GroundState,
                             control: ControlField | None, omega):
    """Unit-density extinction sigma_ex = 4 pi Im chi0 for a beam along +z
    at every frequency of ``omega``."""
    unit_ground = GroundState(rho=ground.rho, n0=1.0)
    return 4.0 * math.pi * beam_chi0(scheme, unit_ground, control, omega).imag


def kinetic_lengths(scheme: LevelScheme, ground: GroundState,
                    control: ControlField | None, omega: float,
                    extra_gain_sigma: float = 0.0) -> KineticLengths:
    """Extinction, scattering and loss/gain lengths of a beam along +z.

    ``sigma_ex`` is :func:`extinction_cross_section`; ``sigma_sc`` is the
    closed-form total (8 pi/3) sum_m' |alpha^{(m' m)} e|^2, averaged over
    the two transverse polarizations e = x, y and over the populated
    ground sublevels m.  ``extra_gain_sigma`` adds an externally supplied
    stimulated (gain) cross section to the scattering budget, as used by
    the Raman gain-transport scenario.
    """
    sigma_ex = extinction_cross_section(scheme, ground, control, omega)
    pops = np.diag(ground.rho).real
    m = np.nonzero(pops > 0.0)[0]
    transverse = scattering_tensors(scheme, control, m, omega)[..., :2]
    sigma_sc = float(pops[m] @ np.sum(np.abs(transverse) ** 2,
                                      axis=(1, 2, 3)))
    sigma_sc = (8.0 * math.pi / 3.0) * 0.5 * sigma_sc + extra_gain_sigma

    n0 = ground.n0
    inv_lex = n0 * sigma_ex
    inv_lsc = n0 * sigma_sc
    inv_lls = inv_lex - inv_lsc
    l_ex = 1.0 / inv_lex if inv_lex > 0 else math.inf
    l_sc = 1.0 / inv_lsc if inv_lsc > 0 else math.inf
    l_ls = 1.0 / inv_lls if inv_lls != 0 else math.inf
    l_g = -l_ls if l_ls < 0 else math.inf
    albedo = sigma_sc / sigma_ex if sigma_ex > 0 else math.inf
    return KineticLengths(sigma_ex=sigma_ex, sigma_sc=sigma_sc, l_ex=l_ex,
                          l_sc=l_sc, l_ls=l_ls, l_g=l_g, albedo=albedo)


# ----------------------------------------------------------------------------
# Effective Raman gain.
# ----------------------------------------------------------------------------

def raman_gain_cross_section(rabi_bar: float, hpf_splitting: float) -> float:
    """Effective stimulated-Raman gain cross section for pumped atoms at
    the Raman resonance.

    Order-of-magnitude model: the spontaneous Raman rate of a pumped atom
    scales as Vbar^2 gamma / Delta_hpf^2, and stimulation into an occupied
    mode scales the two-level resonant cross section 6 pi by that rate over
    gamma.  The map is monotone in the pump Rabi frequency; its absolute
    normalization is a configured model, not a first-principles result.
    """
    return 6 * math.pi * (rabi_bar ** 2 / hpf_splitting ** 2)
