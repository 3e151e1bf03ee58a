"""Polarization-resolved Monte-Carlo multiple scattering in a Gaussian cloud.

Samples scattering chains through a spherically symmetric Gaussian
density, accumulating order-resolved ladder intensities by next-event
estimation toward each detector, the crossed (interference) contribution
by reverse traversal of each recorded chain, Raman frequency bookkeeping,
and an optional stimulated-gain weight with an instability diagnostic.

Free paths use the closed-form chord optical depth of the Gaussian cloud
(error-function profile) inverted exactly, so no step-size bias enters.
Trajectories draw from counter-based RNG streams keyed by (seed, index)
and accumulators merge in fixed chunk order, making results bit-identical
for any worker count.

Units: gamma = 1, k = 1, lengths in reduced wavelengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np
from scipy.special import erf, erfinv

from .angular import LevelScheme
from .medium import (ControlField, GroundState, extinction_cross_section,
                     raman_shift, scattering_tensors)

__all__ = [
    "Cloud",
    "Detector",
    "MCParams",
    "LadderResult",
    "CbsResult",
    "chord_depth",
    "sample_free_path",
    "sample_entry",
    "scatter_event",
    "chain_pair_amplitudes",
    "simulate_ladder",
    "cbs_enhancement",
    "helicity_vectors",
    "backscatter_detectors",
]

_EIGHT_PI_3 = 8.0 * math.pi / 3.0
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_K_IN = np.array([0.0, 0.0, 1.0])  # incident beam direction
_K_IN.flags.writeable = False
_INSTABILITY_RUN = 3  # consecutive growing orders that flag a runaway


@dataclass(frozen=True)
class Cloud:
    """Gaussian atomic cloud with its internal-state context."""
    scheme: LevelScheme
    n0: float
    r0: float
    ground: GroundState = None
    control: ControlField | None = None

    def __post_init__(self):
        if self.n0 <= 0 or self.r0 <= 0:
            raise ValueError("cloud density and radius must be positive")
        if self.ground is None:
            object.__setattr__(
                self, "ground",
                GroundState.isotropic(self.scheme,
                                      self.scheme.ground[0].twice_F))

    def density(self, p) -> float:
        return self.n0 * math.exp(-float(np.dot(p, p)) / (2 * self.r0 ** 2))

    def sigma0(self) -> float:
        """Resonant cross section 2 pi (2F+1)/(2F0+1) for the main line."""
        tF = self.scheme.excited[0].twice_F
        tF0 = self.scheme.ground[0].twice_F
        return 2.0 * math.pi * (tF + 1.0) / (tF0 + 1.0)

    def b0(self, sigma: float | None = None) -> float:
        """Peak resonant optical depth sqrt(2 pi) n0 sigma0 r0."""
        s = self.sigma0() if sigma is None else sigma
        return math.sqrt(2.0 * math.pi) * self.n0 * s * self.r0


def _chord(cloud: Cloud, p, u, sigma: float):
    """Closest-approach coordinate t0 = p.u and prefactor C of the chord
    through p along u; the optical depth from p + a u to p + b u is
    C [erf((t0 + b)/(sqrt2 r0)) - erf((t0 + a)/(sqrt2 r0))].  ``u`` is one
    unit direction (3,) or a stack (n, 3), giving t0 and C of shape (n,)."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t0 = u.dot(p)
    rho2 = p.dot(p) - t0 * t0
    # one direction keeps libm's exp, whose last bit numpy's vectorised exp
    # does not always match: the free paths, and so the RNG-driven
    # trajectories, stay bit-identical
    exp = np.exp if u.ndim > 1 else math.exp
    C = cloud.n0 * sigma * _SQRT_HALF_PI * cloud.r0 \
        * exp(-rho2 / (2.0 * cloud.r0 ** 2))
    return t0, C


def chord_depth(cloud: Cloud, p, u, sigma: float,
                s: float | None = None) -> float | np.ndarray:
    """Optical depth from p along unit direction u over length s (None: to
    infinity), using the closed-form Gaussian chord integral.  A stack of
    directions u (n, 3) gives the n depths."""
    t0, C = _chord(cloud, p, u, sigma)
    sr2 = _SQRT2 * cloud.r0
    upper = 1.0 if s is None else erf((t0 + s) / sr2)
    return C * (upper - erf(t0 / sr2))


def sample_free_path(cloud: Cloud, p, u, sigma: float, rng) -> float | None:
    """Exact free-path draw along the chord; None means escape."""
    t0, C = _chord(cloud, p, u, sigma)
    sr2 = _SQRT2 * cloud.r0
    tau = rng.exponential()
    base = erf(t0 / sr2)
    if tau >= C * (1.0 - base):
        return None
    return sr2 * erfinv(base + tau / C) - t0


def sample_entry(cloud: Cloud, sigma: float, rng):
    """First interaction point of an incident plane wave along +z.

    The transverse impact point is drawn proportional to the chord depth b
    and accepted with probability (1 - e^{-b})/b, which together weight
    entries by the interaction probability 1 - e^{-b}.  The interaction
    depth along the accepted chord is then drawn from the truncated
    exponential and inverted in closed form.
    """
    p = np.zeros(3)  # impact point (x, y, 0), refilled by every try
    while True:
        p[:2] = rng.normal(scale=cloud.r0, size=2)
        _, C = _chord(cloud, p, _K_IN, sigma)
        b = 2.0 * C
        if b < 1e-300:
            continue
        if rng.random() < -math.expm1(-b) / b:
            break
    tau = -math.log1p(rng.random() * math.expm1(-b))
    p[2] = _SQRT2 * cloud.r0 * erfinv(tau / C - 1.0)
    return p


def scatter_event(tensors: dict, e_in, rng):
    """Sample the outgoing channel, direction and polarization of one event.

    ``tensors`` maps the outgoing ground-channel label to its 3x3
    scattering tensor.  The channel is drawn proportional to its total
    scattered power (8 pi/3)|A e|^2, the direction from the exact dipole
    density |v|^2 - |n.v|^2 with v = A e by rejection, and the outgoing
    polarization is the transverse projection of v.  Returns
    ``(channel, direction, polarization, W_sc)`` where W_sc is the total
    scattering cross section of this event, used for the albedo weight.
    """
    keys = list(tensors.keys())
    vs = [tensors[k] @ e_in for k in keys]
    powers = np.array([_EIGHT_PI_3 * float(np.vdot(v, v).real) for v in vs])
    W_sc = float(powers.sum())
    if len(keys) == 1:
        idx = 0
    else:
        idx = rng.choice(len(keys), p=powers / W_sc)
    v = vs[idx]
    v2 = float(np.vdot(v, v).real)
    while True:
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        proj = abs(np.vdot(n, v)) ** 2
        if rng.random() * v2 < v2 - proj:
            break
    e_out = v - n * (n @ v)
    e_out = e_out / np.linalg.norm(e_out)
    return keys[idx], n, e_out, W_sc


def _transverse_projector(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.eye(3) - np.outer(u, u)


def chain_pair_amplitudes(positions, tensors, e_in, e_out):
    """Direct and reverse internal amplitudes of a recorded chain.

    ``positions`` is the ordered scatterer list r_1..r_N, ``tensors`` the
    per-vertex 3x3 scattering tensors.  The direct amplitude applies the
    vertices in order with transverse projections on every internal
    segment; the reverse amplitude traverses the same geometry backward.
    External phases and attenuations are excluded (the caller supplies
    them); at exact backscattering with reciprocal analyzers the two
    amplitudes coincide chain by chain.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    M_dir = np.array(tensors[0], dtype=complex)
    for j in range(1, n):
        u = positions[j] - positions[j - 1]
        u /= np.linalg.norm(u)
        M_dir = tensors[j] @ _transverse_projector(u) @ M_dir
    M_rev = np.array(tensors[n - 1], dtype=complex)
    for j in range(n - 2, -1, -1):
        u = positions[j] - positions[j + 1]
        u /= np.linalg.norm(u)
        M_rev = tensors[j] @ _transverse_projector(u) @ M_rev
    e_in = np.asarray(e_in, dtype=complex)
    e_out_c = np.conj(np.asarray(e_out, dtype=complex))
    return complex(e_out_c @ M_dir @ e_in), complex(e_out_c @ M_rev @ e_in)


# ----------------------------------------------------------------------------
# Engine configuration and results.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Detector:
    """Far-field detector direction with a polarization analyzer."""
    direction: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", d / np.linalg.norm(d))
        object.__setattr__(self, "polarization",
                           np.asarray(self.polarization, dtype=complex))


@dataclass(frozen=True)
class MCParams:
    detuning: float = 0.0
    n_traj: int = 10000
    seed: int = 0
    max_order: int = 50
    include_crossed: bool = False
    source: str = "beam"             # "beam" or "volume" (pumped subvolume)
    extra_gain_sigma: float = 0.0    # stimulated-gain cross section per atom
    e_in: tuple = (1.0, 0.0, 0.0)
    chunk_size: int = 20000


@dataclass
class LadderResult:
    """Order-resolved detected intensities; index 0 of ``per_order`` is
    unused, order o sits at ``per_order[:, o]``."""
    per_order: np.ndarray            # (n_det, max_order+1) ladder
    crossed_per_order: np.ndarray    # same shape
    stat_err: np.ndarray             # (n_det,) ladder total stderr
    crossed_err: np.ndarray
    escaped_weight: float
    injected_weight: float
    truncated_weight: float
    n_truncated: int
    unstable: bool

    @property
    def ladder_total(self):
        return self.per_order.sum(axis=1)

    @property
    def crossed_total(self):
        return self.crossed_per_order.sum(axis=1)


@dataclass
class CbsResult:
    thetas: np.ndarray
    single: np.ndarray
    ladder: np.ndarray        # multiple-scattering ladder (order >= 2)
    crossed: np.ndarray
    eta: np.ndarray           # (S + L + C)/(S + L)
    eta_multiple: np.ndarray  # 1 + C/L, single scattering excluded
    stat_err: np.ndarray
    raw: LadderResult


# ----------------------------------------------------------------------------
# Medium tables: per-frequency cross sections and tensors.
# ----------------------------------------------------------------------------

class _MediumTables:
    """Caches sigma_ex(omega) and scattering tensors per (m, omega)."""

    def __init__(self, cloud: Cloud):
        self.cloud = cloud
        self._sigma = {}
        self._tensors = {}
        self.populations = np.diag(cloud.ground.rho).real
        self._pop_idx = np.nonzero(self.populations > 0)[0]
        self._pop_p = self.populations[self._pop_idx]

    def sigma_ex(self, omega: float) -> float:
        val = self._sigma.get(omega)
        if val is None:
            val = extinction_cross_section(self.cloud.scheme,
                                           self.cloud.ground,
                                           self.cloud.control, omega)
            if val <= 0:
                raise ArithmeticError(
                    f"non-positive extinction at omega={omega}")
            self._sigma[omega] = val
        return val

    def tensors(self, m: int, omega: float) -> dict:
        key = (m, omega)
        val = self._tensors.get(key)
        if val is None:
            val = scattering_tensors(self.cloud.scheme, self.cloud.control,
                                     m, omega)
            self._tensors[key] = val
        return val

    def sample_sublevel(self, rng) -> int:
        if len(self._pop_idx) == 1:
            return int(self._pop_idx[0])
        return int(rng.choice(self._pop_idx, p=self._pop_p))


# ----------------------------------------------------------------------------
# Core trajectory loop.
# ----------------------------------------------------------------------------

def _run_chunk(cloud: Cloud, params: MCParams, detectors: list[Detector],
               lo: int, hi: int):
    tab = _MediumTables(cloud)
    n_ground = len(cloud.scheme.ground_sublevels())
    # shifts[m'][m]: Raman shift omega' - omega of the channel m -> m'
    shifts = [[raman_shift(cloud.scheme, mp, m) for m in range(n_ground)]
              for mp in range(n_ground)]
    n_det = len(detectors)
    det_dirs = np.array([d.direction for d in detectors])
    det_pols_c = np.conj(np.array([d.polarization for d in detectors]))
    e_in0 = np.asarray(params.e_in, dtype=complex)
    k_sum = _K_IN + det_dirs  # rows k_in + k_out for the interference phase

    ladder = np.zeros((n_det, params.max_order + 1))
    crossed = np.zeros((n_det, params.max_order + 1))
    ladder_tot_sq = np.zeros(n_det)   # per-trajectory sum of squares
    crossed_tot_sq = np.zeros(n_det)
    escaped = 0.0
    truncated_w = 0.0
    n_trunc = 0

    for idx in range(lo, hi):
        rng = np.random.Generator(np.random.Philox(key=[params.seed, idx]))
        omega = params.detuning
        sigma = tab.sigma_ex(omega)
        if params.source == "beam":
            p = sample_entry(cloud, sigma, rng)
            u = _K_IN.copy()
            e = e_in0.copy()
        elif params.source == "volume":
            p = rng.normal(scale=cloud.r0, size=3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            phi = 2.0 * math.pi * rng.random()
            frame = _transverse_projector(u)
            ref = frame @ (np.array([1.0, 0, 0]) if abs(u[0]) < 0.9
                           else np.array([0, 1.0, 0]))
            ref /= np.linalg.norm(ref)
            e = math.cos(phi) * ref + math.sin(phi) * np.cross(u, ref)
            e = e.astype(complex)
            s0 = sample_free_path(cloud, p, u, sigma, rng)
            if s0 is None:
                escaped += 1.0
                continue
            p = p + s0 * u
        else:
            raise ValueError(f"unknown source {params.source!r}")

        w = 1.0
        traj_l = np.zeros(n_det)
        traj_c = np.zeros(n_det)
        M_dir = np.eye(3, dtype=complex)    # product up to previous vertex
        M_revpre = np.eye(3, dtype=complex)
        r_first = p.copy()
        tau_in_first = chord_depth(cloud, r_first, -_K_IN, sigma)
        tau_out_first = None
        order = 0
        while True:
            order += 1
            m = tab.sample_sublevel(rng)
            tensors = tab.tensors(m, omega)

            # next-event estimation toward every detector
            depths = chord_depth(cloud, p, det_dirs, sigma)
            nee = np.zeros(n_det)
            for mp, A in tensors.items():
                amp = det_pols_c @ (A @ e)
                shift = shifts[mp][m]
                if shift == 0.0:
                    d_out = depths
                else:
                    d_out = chord_depth(cloud, p, det_dirs,
                                        tab.sigma_ex(omega - shift))
                nee += np.abs(amp) ** 2 * np.exp(-d_out)
            contrib = w * nee
            ladder[:, order] += contrib
            traj_l += contrib

            if params.include_crossed and order >= 2:
                A = tensors[m]  # the one ground sublevel: elastic vertex
                chain_in = M_dir @ e_in0
                amp_dir = det_pols_c @ (A @ chain_in)
                amp_rev = (det_pols_c @ (M_revpre @ A)) @ e_in0
                dphi = k_sum @ (p - r_first)
                tau_in_here = chord_depth(cloud, p, -_K_IN, sigma)
                att = np.exp(-0.5 * (tau_in_here + tau_out_first
                                     - tau_in_first - depths))
                ratio = (amp_dir * np.conj(amp_rev)
                         * np.exp(1j * dphi)).real * att
                denom = np.abs(amp_dir) ** 2
                ok = denom > 1e-300
                cc = np.zeros(n_det)
                cc[ok] = contrib[ok] * ratio[ok] / denom[ok]
                crossed[:, order] += cc
                traj_c += cc

            # continue the chain
            mp, u_new, e_new, W_sc = scatter_event(tensors, e, rng)
            if order == 1:
                tau_out_first = chord_depth(cloud, r_first, det_dirs, sigma)
            w *= (W_sc + params.extra_gain_sigma) / sigma
            shift = shifts[mp][m]
            if shift != 0.0:
                omega = omega - shift
                sigma = tab.sigma_ex(omega)
            if params.include_crossed:
                A = tensors[mp]
                P = _transverse_projector(u_new)
                M_dir = P @ A @ M_dir
                M_revpre = M_revpre @ A @ P
            e = e_new
            u = u_new
            s = sample_free_path(cloud, p, u, sigma, rng)
            if s is None:
                escaped += w
                break
            p = p + s * u
            if order >= params.max_order or not math.isfinite(w):
                truncated_w += w
                n_trunc += 1
                break
        ladder_tot_sq += traj_l ** 2
        crossed_tot_sq += traj_c ** 2

    return (ladder, crossed, ladder_tot_sq, crossed_tot_sq, escaped,
            truncated_w, n_trunc)


def _chunk_worker(args):
    return _run_chunk(*args)


def simulate_ladder(cloud: Cloud, detectors: list[Detector],
                    params: MCParams, n_workers: int = 1) -> LadderResult:
    """Run the order-resolved ladder (and optional crossed) accumulation.

    Trajectory RNG streams depend only on (seed, trajectory index) and
    chunk results merge in fixed order, so the output is bit-identical
    for any ``n_workers``.  ``extra_gain_sigma`` adds a stimulated-gain
    albedo excess; the ``unstable`` flag reports a growing order-resolved
    tail.  The crossed term is implemented for a non-degenerate ground
    state only; ``include_crossed`` on any other scheme raises ValueError.
    """
    n_ground = len(cloud.scheme.ground_sublevels())
    if params.include_crossed and n_ground > 1:
        raise ValueError(
            "the crossed (CBS) term is implemented only for a "
            f"non-degenerate ground state; this atom has {n_ground} ground "
            "sublevels")
    edges = list(range(0, params.n_traj, params.chunk_size)) + [params.n_traj]
    jobs = [(cloud, params, detectors, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])]
    if n_workers > 1 and len(jobs) > 1:
        with Pool(n_workers) as pool:
            results = pool.map(_chunk_worker, jobs)
    else:
        results = [_run_chunk(*j) for j in jobs]

    n_det = len(detectors)
    ladder = np.zeros((n_det, params.max_order + 1))
    crossed = np.zeros_like(ladder)
    l_sq = np.zeros(n_det)
    c_sq = np.zeros(n_det)
    escaped = 0.0
    trunc_w = 0.0
    n_trunc = 0
    for res in results:  # fixed chunk order
        ladder += res[0]
        crossed += res[1]
        l_sq += res[2]
        c_sq += res[3]
        escaped += res[4]
        trunc_w += res[5]
        n_trunc += res[6]

    n = params.n_traj
    l_tot = ladder.sum(axis=1)
    c_tot = crossed.sum(axis=1)
    l_err = np.sqrt(np.maximum(l_sq / n - (l_tot / n) ** 2, 0.0) / n) * n
    c_err = np.sqrt(np.maximum(c_sq / n - (c_tot / n) ** 2, 0.0) / n) * n

    totals = ladder.sum(axis=0)
    unstable = _detect_instability(totals, _INSTABILITY_RUN)
    if trunc_w > 1e-3 * max(escaped, 1.0):
        unstable = True
    return LadderResult(per_order=ladder, crossed_per_order=crossed,
                        stat_err=l_err, crossed_err=c_err,
                        escaped_weight=escaped, injected_weight=float(n),
                        truncated_weight=trunc_w, n_truncated=n_trunc,
                        unstable=unstable)


def _detect_instability(order_totals: np.ndarray, run: int) -> bool:
    """True when the order-resolved tail grows over ``run`` consecutive
    orders (random-lasing style runaway)."""
    o = order_totals[2:]  # drop the unused 0 slot and single scattering
    o = o[o > 0]
    if len(o) < run + 1:
        return False
    growth = o[1:] > o[:-1]
    streak = 0
    for g in growth:
        streak = streak + 1 if g else 0
        if streak >= run:
            return True
    return False


# ----------------------------------------------------------------------------
# High-level drivers.
# ----------------------------------------------------------------------------

def helicity_vectors():
    """Incoming +z helicity unit vector and the helicity-preserving
    backscatter analyzer (its complex conjugate)."""
    e_in = np.array([1.0, 1j, 0.0]) / math.sqrt(2.0)
    return e_in, np.conj(e_in)


def backscatter_detectors(thetas, polarization) -> list[Detector]:
    """Detectors in the (x, z) plane at angles theta from exact backward."""
    dets = []
    for th in np.atleast_1d(thetas):
        d = np.array([math.sin(th), 0.0, -math.cos(th)])
        dets.append(Detector(direction=d, polarization=polarization))
    return dets


def cbs_enhancement(cloud: Cloud, thetas, params: MCParams,
                    channel: str = "hel_par",
                    n_workers: int = 1) -> CbsResult:
    """Coherent-backscattering enhancement over a theta grid.

    ``channel`` selects the analyzer: helicity preserving ("hel_par"),
    helicity reversing ("hel_perp"), or linear parallel/perpendicular.
    ``eta_multiple`` excludes single scattering, which carries no
    reciprocal partner.
    """
    e_hel, e_hel_det = helicity_vectors()
    if channel == "hel_par":
        e_in, e_det = e_hel, e_hel_det
    elif channel == "hel_perp":
        e_in, e_det = e_hel, e_hel
    elif channel == "lin_par":
        e_in = np.array([1.0, 0.0, 0.0], dtype=complex)
        e_det = e_in
    elif channel == "lin_perp":
        e_in = np.array([1.0, 0.0, 0.0], dtype=complex)
        e_det = np.array([0.0, 1.0, 0.0], dtype=complex)
    else:
        raise ValueError(f"unknown channel {channel!r}")

    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    dets = backscatter_detectors(thetas, e_det)
    run = replace(params, include_crossed=True, e_in=tuple(e_in))
    raw = simulate_ladder(cloud, dets, run, n_workers=n_workers)

    S = raw.per_order[:, 1]
    L = raw.per_order[:, 2:].sum(axis=1)
    C = raw.crossed_per_order[:, 2:].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(S + L > 0, (S + L + C) / (S + L), 1.0)
        eta_m = np.where(L > 0, 1.0 + C / L, 1.0)
    err = np.zeros_like(eta)
    ok = (S + L) > 0
    err[ok] = np.sqrt(raw.stat_err[ok] ** 2 + raw.crossed_err[ok] ** 2) \
        / (S + L)[ok]
    return CbsResult(thetas=thetas, single=S, ladder=L, crossed=C,
                     eta=eta, eta_multiple=eta_m, stat_err=err, raw=raw)

