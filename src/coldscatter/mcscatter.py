"""Polarization-resolved Monte-Carlo multiple scattering in a Gaussian cloud.

Samples scattering chains through a spherically symmetric Gaussian
density, accumulating order-resolved ladder intensities by next-event
estimation toward each detector, the crossed (interference) contribution
of each chain's reversed path, Raman frequency bookkeeping, and an
optional stimulated-gain weight with an instability diagnostic.  The
engine and ``chain_pair_amplitudes`` share one vertex step,
``_chain_step``, and one end vertex, ``_end_amplitudes``.

Free paths use the closed-form chord optical depth of the Gaussian cloud
(error-function profile) inverted exactly, so no step-size bias enters.
The walkers of a chunk, every sweep point of its trajectories, advance
together as arrays, one scattering order per step.  Every draw comes from
a counter-based Philox stream keyed by (seed, trajectory index) with one
counter per (order, slot, retry), so a trajectory sees the same draws at
every sweep point and does not depend on the chunk it runs in, and
accumulators merge in fixed chunk order, making results bit-identical for
any worker count.  Only the beam entry samples by rejection; every
scattering direction is drawn exactly from the dipole pattern, so an order
uses two fixed counters, and one Philox call draws them for a range of
orders, once per distinct trajectory.

Units: gamma = 1, k = 1, lengths in reduced wavelengths.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np
from scipy.special import erf, erfinv

from .angular import LevelScheme
from .medium import (GroundState, extinction_cross_section, raman_shift,
                     scattering_tensors)

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
# walkers per gathered tensor stack in _MediumTables.fields: 144 B per
# channel, so at most 885 kB for the 12 ground channels of Rb85
_FIELD_BLOCK = 512


@dataclass(frozen=True, eq=False)
class Cloud:
    """Gaussian atomic cloud with its internal-state context; equality and
    hashing are by identity."""
    scheme: LevelScheme
    n0: float
    r0: float
    ground: GroundState = None

    def __post_init__(self):
        if not (0.0 < self.n0 < math.inf and 0.0 < self.r0 < math.inf):
            raise ValueError("cloud n0 and r0 must be positive and finite")
        if self.ground is None:
            object.__setattr__(
                self, "ground",
                GroundState.isotropic(self.scheme,
                                      self.scheme.ground[0].twice_F))

    def sigma0(self) -> float:
        """Resonant cross section 2 pi (2F+1)/(2F0+1) for the main line."""
        tF = self.scheme.excited[0].twice_F
        tF0 = self.scheme.ground[0].twice_F
        return 2.0 * math.pi * (tF + 1.0) / (tF0 + 1.0)


# ----------------------------------------------------------------------------
# Counter-based random stream.
# ----------------------------------------------------------------------------

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)
_PHILOX_ROUNDS = 10

# Draw slots: each (order, slot, retry) owns one Philox counter and so four
# uniforms.  Order 0 is the beam entry (slot 0, one retry per rejected impact
# point); an order >= 1 uses its slots 0 and 1, retry 0, drawn together with
# those of the orders after it.


def _philox(key: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Philox4x64-10 (Salmon et al., SC'11) in numpy uint64 arithmetic.

    ``key`` (2, ...) and ``ctr`` (4, ...) broadcast to the four output
    words (4, ...) of each block; this is the block that
    ``np.random.Philox(key=key, counter=ctr - 1).random_raw(4)`` returns.
    The 64 x 64 -> 128-bit products are formed from 32-bit halves.
    """
    even, odd = ctr[0::2], ctr[1::2]
    shape = (2,) + (1,) * (ctr.ndim - 1)
    m, w = _PHILOX_M.reshape(shape), _PHILOX_W.reshape(shape)
    m_lo, m_hi = m & _MASK32, m >> _SHIFT32
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + w
        # high word of even * m by 32-bit halves (Hacker's Delight mulhu);
        # no partial sum exceeds 64 bits
        x_lo = even & _MASK32
        x_hi = even >> _SHIFT32
        t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
        t2 = x_lo * m_hi + (t & _MASK32)
        hi = x_hi * m_hi + (t >> _SHIFT32) + (t2 >> _SHIFT32)
        lo = even * m
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]])


def _live(idx: np.ndarray, n: int):
    """Distinct values of the dense indices ``idx`` (m,) in [0, n), in
    increasing order, and each row's rank among them; the rank is None
    when ``idx`` already is those values in that order."""
    present = np.zeros(n, dtype=bool)
    present[idx] = True
    live = np.flatnonzero(present)
    if np.array_equal(live, idx):
        return live, None
    return live, (np.cumsum(present) - 1)[idx]


def _uniforms(seed: int, traj, order, slot, retry=0) -> np.ndarray:
    """Four uniforms in (0, 1) per trajectory id in ``traj`` (n,): the words
    x of the Philox block keyed by (seed, trajectory) at counter (order,
    slot, retry, 0), as ((x >> 11) + 0.5) 2^-53.  ``order``, ``slot`` and
    ``retry`` broadcast to a counter shape S, and the result is (4, n) + S.
    Every row is drawn; callers with repeated ids (``_run_chunk``,
    ``sample_entry``) pass each id once, as ``_live`` finds them.  A draw
    depends only on its key and counter, never on which other rows are
    drawn with it."""
    traj = np.asarray(traj, dtype=np.uint64)
    order, slot, retry = np.broadcast_arrays(
        *(np.asarray(c, dtype=np.uint64) for c in (order, slot, retry)))
    key = np.empty((2, len(traj)) + (1,) * retry.ndim, dtype=np.uint64)
    key[0] = seed
    key[1] = traj.reshape(key.shape[1:])
    ctr = np.zeros((4, 1) + retry.shape, dtype=np.uint64)
    ctr[0], ctr[1], ctr[2] = order, slot, retry
    return ((_philox(key, ctr) >> _SHIFT11) + 0.5) * 2.0 ** -53


def _normals(u1, u2):
    """Box-Muller: two independent standard normals from two uniforms."""
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)


def _dot3(a, b=None):
    """The sum over a last axis of length 3 of a * b, or of a alone when b
    is None, added as (a0 b0 + a1 b1) + a2 b2: the terms and order of
    ``np.sum(a * b, axis=-1)``, so the same bits, without the set-up of
    numpy's reduction, which over so short an axis costs about ten times
    the arithmetic.  ``a`` and ``b`` broadcast; either may be complex."""
    if b is None:
        return (a[..., 0] + a[..., 1]) + a[..., 2]
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) \
        + a[..., 2] * b[..., 2]


def _dipole_directions(v, x) -> np.ndarray:
    """Unit directions (n, 3) drawn exactly from the density |v|^2 - |n.v|^2
    of the complex fields v (n, 3), with three uniforms x (3, n) per row.

    With v = a + i b the density is |a|^2 (1 - (n.a^)^2) + |b|^2 (1 -
    (n.b^)^2), a mixture of two linear-dipole patterns: x[0] picks the axis
    a^ or b^ by its weight, c = 2 sin(arcsin(2 x[1] - 1)/3) inverts the
    sin^2 CDF (2 + 3c - c^3)/4 of the cosine to the axis, and x[2] is the
    azimuth in the branch-free frame of Duff et al., JCGT 6(1), 2017.
    """
    a2 = _dot3(v.real, v.real)
    b2 = _dot3(v.imag, v.imag)
    axis = np.where((x[0] * (a2 + b2) < a2)[:, None], v.real, v.imag)
    axis /= np.sqrt(_dot3(axis, axis))[:, None]
    c = 2.0 * np.sin(np.arcsin(2.0 * x[1] - 1.0) / 3.0)  # |c| < 1
    s = np.sqrt(1.0 - c * c)
    phi = 2.0 * math.pi * x[2]
    ax, ay, az = axis.T
    sign = np.copysign(1.0, az)
    g = -1.0 / (sign + az)
    h = ax * ay * g
    t1 = np.stack([1.0 + sign * ax * ax * g, sign * h, -sign * ax], axis=-1)
    t2 = np.stack([h, sign + ay * ay * g, -ay], axis=-1)
    return (c[:, None] * axis + (s * np.cos(phi))[:, None] * t1
            + (s * np.sin(phi))[:, None] * t2)


# ----------------------------------------------------------------------------
# Gaussian chords and the samplers.
# ----------------------------------------------------------------------------

def _chord(cloud: Cloud, p, u, sigma):
    """Closest-approach coordinate t0 = p.u and prefactor C of the chord
    through p along u; the optical depth from p + a u to p + b u is
    C [erf((t0 + b)/(sqrt2 r0)) - erf((t0 + a)/(sqrt2 r0))].  Points p,
    unit directions u (..., 3) and ``sigma`` broadcast against each other."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t0 = _dot3(p, u)
    rho2 = _dot3(p, p) - t0 * t0
    C = cloud.n0 * sigma * _SQRT_HALF_PI * cloud.r0 \
        * np.exp(-rho2 / (2.0 * cloud.r0 ** 2))
    return t0, C


def chord_depth(cloud: Cloud, p, u, sigma, s=None):
    """Optical depth from p along unit direction u over length s (None: to
    infinity), using the closed-form Gaussian chord integral.  Points and
    directions (..., 3) broadcast: one point and a stack of n directions
    give n depths, a stack of points (n, 1, 3) and m directions (m, 3) an
    (n, m) array."""
    t0, C = _chord(cloud, p, u, sigma)
    sr2 = _SQRT2 * cloud.r0
    upper = 1.0 if s is None else erf((t0 + s) / sr2)
    return C * (upper - erf(t0 / sr2))


def sample_free_path(cloud: Cloud, p, u, sigma, xi) -> np.ndarray:
    """Exact free-path draws along the chords of walkers at p (n, 3) moving
    along u (n, 3), one uniform ``xi`` (n,) each; escapes are +inf."""
    t0, C = _chord(cloud, p, u, sigma)
    sr2 = _SQRT2 * cloud.r0
    t0, C, tau = np.broadcast_arrays(t0, C, -np.log(xi))
    base = erf(t0 / sr2)
    hit = tau < C * (1.0 - base)
    s = np.full(tau.shape, np.inf)
    s[hit] = sr2 * erfinv(base[hit] + tau[hit] / C[hit]) - t0[hit]
    return s


def sample_entry(cloud: Cloud, sigma, seed: int, traj) -> np.ndarray:
    """First interaction points (n, 3) of an incident plane wave along +z,
    one per trajectory id in ``traj`` (n,), with extinction ``sigma``
    (scalar or (n,)).

    The transverse impact point is drawn proportional to the chord depth b
    and accepted with probability (1 - e^{-b})/b, which together weight
    entries by the interaction probability 1 - e^{-b}.  Try r of a
    trajectory is the draw block (0, 0, r); tries run in blocks of 2, 4,
    8, ... retries, and only trajectories without an accepted try draw the
    next block, once per distinct id of the pending rows (an id may
    repeat, one trajectory entering at several points with their own
    ``sigma``).  The interaction depth along the accepted chord is then
    drawn from the truncated exponential and inverted in closed form.
    """
    def impact(x):  # (x, y, 0) from two normals
        p = np.zeros(x.shape[1:] + (3,))
        p[..., 0], p[..., 1] = _normals(x[0], x[1])
        return cloud.r0 * p

    ids, inv = np.unique(np.asarray(traj), return_inverse=True)
    sigma = np.broadcast_to(sigma, inv.shape)
    x = np.empty((4, len(inv)))
    pending = np.arange(len(inv))
    start, count = 0, 2
    while pending.size:
        live, rank = _live(inv[pending], len(ids))
        tries = _uniforms(seed, ids[live], 0, 0,
                          np.arange(start, start + count))
        if rank is not None:
            tries = tries[:, rank]
        b = 2.0 * _chord(cloud, impact(tries), _K_IN,
                         sigma[pending, None])[1]
        big = b >= 1e-300
        ok = big & (tries[2] * np.where(big, b, 1.0) < -np.expm1(-b))
        hit = np.nonzero(ok.any(axis=1))[0]
        x[:, pending[hit]] = tries[:, hit, ok[hit].argmax(axis=1)]
        pending = np.delete(pending, hit)
        start, count = start + count, 2 * count
    p = impact(x)
    _, C = _chord(cloud, p, _K_IN, sigma)
    tau = -np.log1p(x[3] * np.expm1(-2.0 * C))
    p[:, 2] = _SQRT2 * cloud.r0 * erfinv(tau / C - 1.0)
    return p


def scatter_event(vs: np.ndarray, xi: np.ndarray):
    """Sample the outgoing channel, direction and polarization of one event
    per walker from its four uniforms ``xi`` (4, n).

    ``vs`` (n, n_out, 3) stacks each walker's scattered fields v = A e over
    the outgoing ground channels.  The channel is drawn with ``xi[0]``
    proportional to its total scattered power (8 pi/3)|v|^2, the direction
    exactly from the dipole density |v|^2 - |n.v|^2 with ``xi[1:]``, and
    the outgoing polarization is the transverse projection of v.
    Returns ``(channel, direction, polarization, W_sc)`` arrays, where W_sc
    is the total scattering cross section of each event, used for the
    albedo weight.
    """
    # |v|^2 and |e_out|^2 keep numpy's terms: re^2 + im^2 of a component
    # rounds apart from the real part of its complex product v* v
    powers = _EIGHT_PI_3 * _dot3(vs.real ** 2 + vs.imag ** 2)
    W_sc = powers.sum(axis=1)
    n, n_out = powers.shape
    cum = np.cumsum(powers, axis=1)
    channel = np.minimum(
        np.sum(cum <= xi[0, :, None] * cum[:, -1:], axis=1), n_out - 1)
    del powers, cum
    v = vs[np.arange(n), channel]
    dirs = _dipole_directions(v, xi[1:])
    e_out = v - dirs * _dot3(dirs, v)[:, None]
    e_out /= np.sqrt(_dot3((e_out.conj() * e_out).real))[:, None]
    return channel, dirs, e_out, W_sc


def _chain_step(f_dir, M_rev, A, u):
    """One vertex of a scattering chain, the only chain update: the direct
    field f <- P A f and the reverse product M <- M A P, with the vertex
    tensor A and P = 1 - u u^T the transverse projector of the unit
    direction u to the next vertex.  f (..., 3), M and A (..., 3, 3) and
    u (..., 3) broadcast, for one walker or a stack of them."""
    f = (A @ f_dir[..., None])[..., 0]
    f -= u * _dot3(u, f)[..., None]
    M = M_rev @ A
    M -= (M @ u[..., None]) * u[..., None, :]
    return f, M


def _end_amplitudes(f_dir, M_rev, A, e_in, pols_h):
    """The end vertex A of a chain, the only one: the direct amplitude
    (A f).pols and the reverse (M A e_in).pols, on the analyzer columns
    ``pols_h`` (3, ...) of conjugated polarizations."""
    return ((A @ f_dir[..., None])[..., 0] @ pols_h,
            (M_rev @ (A @ e_in)[..., None])[..., 0] @ pols_h)


def chain_pair_amplitudes(positions, tensors, e_in, e_out):
    """Direct and reverse internal amplitudes of a recorded chain.

    ``positions`` is the ordered scatterer list r_1..r_N, ``tensors`` the
    per-vertex 3x3 scattering tensors A_1..A_N.  The chain is walked
    forward through the engine's own step ``_chain_step``, which carries
    the direct field f = P A_{N-1} ... P A_1 e_in and accumulates the
    reverse product M = A_1 P ... A_{N-1} P, with the transverse projector
    P of every internal segment; its end vertex ``_end_amplitudes`` gives
    direct = e_out^* . A_N f and reverse = e_out^* . M A_N e_in.  External
    phases and attenuations are the caller's; at exact backscattering with
    reciprocal analyzers the two amplitudes coincide chain by chain.
    """
    positions = np.asarray(positions, dtype=float)
    e_in = np.asarray(e_in, dtype=complex)
    f, M = e_in, np.eye(3, dtype=complex)
    for j in range(len(positions) - 1):
        u = positions[j + 1] - positions[j]
        f, M = _chain_step(f, M, tensors[j], u / np.linalg.norm(u))
    return tuple(map(complex, _end_amplitudes(
        f, M, tensors[-1], e_in, np.conj(np.asarray(e_out, dtype=complex)))))


# ----------------------------------------------------------------------------
# Engine configuration and results.
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Detector:
    """Far-field detector direction with a polarization analyzer; equality
    and hashing are by identity."""
    direction: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(d)
        if not 0 < norm < math.inf:
            raise ValueError("detector direction must be finite and non-zero")
        object.__setattr__(self, "direction", d / norm)
        object.__setattr__(self, "polarization",
                           np.asarray(self.polarization, dtype=complex))


@dataclass(frozen=True)
class MCParams:
    detuning: float = 0.0
    n_traj: int = 10000
    seed: int = 0
    max_order: int = 50
    include_crossed: bool = False
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
    escaped_err: float               # escaped_weight stderr
    injected_weight: float
    truncated_weight: float
    n_truncated: int
    unstable: bool

    @property
    def ladder_total(self):
        return self.per_order.sum(axis=1)


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

def _intern(ids: dict, values, fill) -> np.ndarray:
    """Ids of ``values`` in ``ids``, in their shape; the values not yet in
    ``ids`` go to ``fill`` as one sorted list and take the next ids."""
    uniq, inv = np.unique(values, return_inverse=True)
    uniq = uniq.tolist()
    new = [v for v in uniq if v not in ids]
    if new:
        fill(new)
        ids.update(zip(new, range(len(ids), len(ids) + len(new))))
    # NumPy 1.x flattens the inverse of an n-d input, 2.x keeps its shape
    return np.array([ids[v] for v in uniq],
                    dtype=np.intp)[inv].reshape(np.shape(values))


class _MediumTables:
    """Extinction per frequency and, per (frequency, sublevel) key, the
    scattering-tensor stack of every outgoing channel with the frequency
    ids it scatters into.  Frequencies and keys are filled on first use,
    the new ones of a call together and numbered in sorted order, so the
    numbering does not depend on the order of the walkers; walkers carry
    only their ids."""

    def __init__(self, cloud: Cloud):
        self.cloud = cloud
        scheme = cloud.scheme
        self.n_ground = n = len(scheme.ground_sublevels())
        # shifts[m', m]: Raman shift omega' - omega of the channel m -> m'
        m = np.arange(n)
        self.shifts = raman_shift(scheme, m[:, None], m)
        self.populations = np.diag(cloud.ground.rho).real
        self._pop_idx = np.nonzero(self.populations > 0)[0]
        self._pop_cum = np.cumsum(self.populations[self._pop_idx])
        self.omegas = []          # frequency id -> omega
        self.sigma = np.empty(0)  # frequency id -> unit-density sigma_ex
        self._ids = {}
        self._keys = {}           # f * n_ground + m -> key id
        self.stacks = np.empty((0, n, 3, 3), dtype=complex)  # key id -> A
        self.out_ids = np.empty((0, n), dtype=np.intp)  # key id -> f'

    def freq_ids(self, omegas) -> np.ndarray:
        """Frequency ids of ``omegas``, in their shape, registering new
        frequencies with one extinction call."""
        def fill(new):
            val = extinction_cross_section(self.cloud.scheme,
                                           self.cloud.ground, None,
                                           np.array(new))
            if np.any(val <= 0):
                raise ArithmeticError("non-positive extinction at "
                                      f"omega={new[np.argmax(val <= 0)]}")
            self.omegas.extend(new)
            self.sigma = np.concatenate([self.sigma, val])
        return _intern(self._ids, omegas, fill)

    def sublevels(self, xi) -> np.ndarray:
        """Ground sublevels drawn from the populations, one uniform each."""
        k = np.searchsorted(self._pop_cum, xi * self._pop_cum[-1], "right")
        return self._pop_idx[np.minimum(k, len(self._pop_idx) - 1)]

    def keys(self, f, m) -> np.ndarray:
        """Key ids of walkers at frequency ids f in sublevels m, filling
        the new keys with one tensor call."""
        def fill(new):
            f_new, m_new = np.divmod(np.array(new), self.n_ground)
            omega = np.array(self.omegas)[f_new]
            stacks = scattering_tensors(self.cloud.scheme, None, m_new, omega)
            out = self.freq_ids(omega[:, None] + self.shifts[:, m_new].T)
            self.stacks = np.concatenate([self.stacks, stacks])
            self.out_ids = np.concatenate([self.out_ids, out])
        return _intern(self._keys, f * self.n_ground + m, fill)

    def fields(self, kid, e) -> np.ndarray:
        """Scattered fields A e (n, n_ground, 3) of every outgoing channel
        for walkers with key ids ``kid`` and polarizations e (n, 3), one
        product per block of ``_FIELD_BLOCK`` walkers over their gathered
        tensor stacks."""
        vs = np.empty((len(kid), self.n_ground, 3), dtype=complex)
        for b in range(0, len(kid), _FIELD_BLOCK):
            blk = slice(b, b + _FIELD_BLOCK)
            np.einsum("ncij,nj->nci", self.stacks[kid[blk]], e[blk],
                      out=vs[blk])
        return vs


# ----------------------------------------------------------------------------
# Core trajectory loop.
# ----------------------------------------------------------------------------

def _point_sums(pt, values, n_points: int) -> np.ndarray:
    """Sums of the rows of ``values`` (n, ...) over the walkers of each
    point, given the point index ``pt`` (n,) of every row."""
    out = np.zeros((n_points,) + values.shape[1:])
    np.add.at(out, pt, values)
    return out


def _crossed_term(cloud, walk, A, e_in, pols_h, k_sum, depths, ladder):
    """Crossed next-event terms (n, n_det) at an order >= 2: the ladder
    terms times the interference of the direct amplitude A f_dir and the
    reverse M_revpre A e_in through the elastic tensors A, at phase
    (k_in + k_out).(r - r_first) and half the paths' depth difference."""
    amp_dir, amp_rev = _end_amplitudes(walk["f_dir"], walk["M_revpre"], A,
                                       e_in, pols_h)
    dphi = (walk["p"] - walk["r_first"]) @ k_sum
    tau_in = chord_depth(cloud, walk["p"], -_K_IN, walk["sigma"])[:, None]
    att = np.exp(-0.5 * (tau_in + walk["tau_out_first"]
                         - walk["tau_in_first"] - depths))
    ratio = (amp_dir * np.conj(amp_rev) * np.exp(1j * dphi)).real * att
    denom = amp_dir.real ** 2 + amp_dir.imag ** 2
    ok = denom > 1e-300
    return np.where(ok, ladder * ratio / np.where(ok, denom, 1.0), 0.0)


def _run_chunk(cloud: Cloud, points: list[MCParams],
               detectors: list[Detector], lo: int, hi: int) -> dict:
    """Advance the trajectories [lo, hi) of every point together, one order
    per step, and return the chunk's tallies by name.

    Walker i is trajectory lo + i mod (hi - lo) of point i div (hi - lo);
    the walkers of one trajectory share its uniforms at every point, drawn
    once per live trajectory (``_live``).
    The live walkers' state is one mapping ``walk`` of arrays, whose
    ``rows`` gives each walker's index: the trajectory id of its draws and
    the row of its per-trajectory totals.  Its ``x`` holds each walker's
    draws for the orders ahead.  When they run out, one call draws the
    next range of orders: as many as the live walkers are expected to
    last at the last order's loss (live // lost), as fit in the (hi - lo)
    (trajectory, order) pairs that order 1 drew, and as remain up to
    ``max_order``.  An order does next-event estimation toward every
    detector, the scattering event and the free path, then drops escaped
    and truncated walkers from every array of ``walk`` at once.  The
    tallies are ``ladder`` and ``crossed`` (point, detector, order), the
    sums of their squared per-trajectory totals ``ladder_sq`` and
    ``crossed_sq``, and the ``escaped`` and ``truncated`` weight,
    ``n_truncated`` count and ``escaped_sq`` sum of squared escaped
    weights of each point (a trajectory escapes at most once per point).
    """
    params = points[0]
    n_pt, n_tr = len(points), hi - lo
    tab = _MediumTables(cloud)
    n_det = len(detectors)
    det_dirs = np.array([d.direction for d in detectors])
    det_pols_h = np.conj(np.array([d.polarization for d in detectors])).T
    e_in0 = np.asarray(params.e_in, dtype=complex)
    k_sum = (_K_IN + det_dirs).T  # columns k_in + k_out: interference phase
    crossed_on = params.include_crossed
    gains = np.array([q.extra_gain_sigma for q in points])

    tally = {k: np.zeros((n_pt, n_det, params.max_order + 1))
             for k in ("ladder", "crossed")}
    totals = {k: np.zeros((n_pt * n_tr, n_det)) for k in tally}
    tally.update(escaped=np.zeros(n_pt), truncated=np.zeros(n_pt),
                 n_truncated=np.zeros(n_pt, dtype=np.int64),
                 escaped_sq=np.zeros(n_pt))

    rows = np.arange(n_pt * n_tr)
    f = tab.freq_ids([q.detuning for q in points])[rows // n_tr]
    sigma = tab.sigma[f]
    p = sample_entry(cloud, sigma, params.seed, lo + rows % n_tr)
    walk = {"rows": rows, "p": p, "e": np.broadcast_to(e_in0, p.shape),
            "w": np.ones(len(rows)), "f": f, "sigma": sigma,
            "x": np.empty((len(rows), 0, 4, 2))}
    if crossed_on:  # f_dir, M_revpre: the chain up to the previous vertex
        eye = np.broadcast_to(np.eye(3, dtype=complex), (len(rows), 3, 3))
        walk.update(f_dir=walk["e"], M_revpre=eye, r_first=p,
                    tau_in_first=chord_depth(cloud, p, -_K_IN, sigma)[:, None])
    order, n_prev = 0, len(rows)
    while len(walk["rows"]):
        order += 1
        rows, p, sigma = walk["rows"], walk["p"], walk["sigma"]
        pt = rows // n_tr
        if not walk["x"].shape[1]:  # draws (walker, order, word, slot)
            live, rank = _live(rows % n_tr, n_tr)
            lost = n_prev - len(rows)
            n_orders = min(n_tr // len(live),
                           max(len(rows) // lost, 1) if lost else n_tr,
                           params.max_order - order + 1)
            x = _uniforms(params.seed, lo + live,
                          np.arange(order, order + n_orders)[:, None], (0, 1))
            walk["x"] = np.moveaxis(x if rank is None else x[:, rank], 0, 2)
        n_prev = len(rows)
        # slot 0: sublevel, free path, channel, dipole axis; slot 1:
        # direction cosine and azimuth (two words unused)
        x = np.moveaxis(walk["x"][:, 0], 0, 1)
        walk["x"] = walk["x"][:, 1:]
        kid = tab.keys(walk["f"], tab.sublevels(x[0, :, 0]))
        vs = tab.fields(kid, walk["e"])

        # next-event estimation toward every detector; the chord depth is
        # linear in sigma, so one unit-sigma depth serves every channel
        depth1 = chord_depth(cloud, p[:, None, :], det_dirs, 1.0)
        amp = vs @ det_pols_h
        att = np.exp(-tab.sigma[tab.out_ids[kid]][:, :, None]
                     * depth1[:, None, :])
        terms = {"ladder": walk["w"][:, None] * np.sum(
            (amp.real ** 2 + amp.imag ** 2) * att, axis=1)}
        if crossed_on and order == 1:
            walk["tau_out_first"] = sigma[:, None] * depth1
        elif crossed_on:
            terms["crossed"] = _crossed_term(
                cloud, walk, tab.stacks[kid, 0], e_in0, det_pols_h, k_sum,
                sigma[:, None] * depth1, terms["ladder"])
        for k, term in terms.items():
            tally[k][:, :, order] += _point_sums(pt, term, n_pt)
            totals[k][rows] += term
        del amp, att, depth1, terms

        # continue the chain
        mp, u, walk["e"], W_sc = scatter_event(
            vs, np.concatenate([x[2:, :, 0], x[:2, :, 1]]))
        walk["w"] = walk["w"] * (W_sc + gains[pt]) / sigma
        walk["f"] = tab.out_ids[kid, mp]
        walk["sigma"] = tab.sigma[walk["f"]]
        if crossed_on:
            walk["f_dir"], walk["M_revpre"] = _chain_step(
                walk["f_dir"], walk["M_revpre"], tab.stacks[kid, mp], u)
        s = sample_free_path(cloud, p, u, walk["sigma"], x[1, :, 0])
        gone = np.isinf(s)
        trunc = ~gone & ((order >= params.max_order)
                         | ~np.isfinite(walk["w"]))
        for k, lost in (("escaped", gone), ("truncated", trunc)):
            tally[k] += _point_sums(pt[lost], walk["w"][lost], n_pt)
        tally["n_truncated"] += np.bincount(pt[trunc], minlength=n_pt)
        tally["escaped_sq"] += np.bincount(
            pt[gone], weights=walk["w"][gone] ** 2, minlength=n_pt)
        keep = ~(gone | trunc)
        walk = {k: v[keep] for k, v in walk.items()}
        walk["p"] += s[keep, None] * u[keep]  # inf escape paths are gone

    for k, t in totals.items():
        tally[k + "_sq"] = np.sum(t.reshape(n_pt, n_tr, n_det) ** 2, axis=1)
    return tally


def _chunk_worker(args):
    # a worker started by spawn or forkserver does not inherit the
    # caller's numpy error handling, so the job carries it
    err, job = args
    with np.errstate(**err):
        return _run_chunk(*job)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_ladder(cloud: Cloud, detectors: list[Detector], points,
                    n_workers: int = 1) -> list[LadderResult]:
    """Run the order-resolved ladder (and optional crossed) accumulation of
    every point of a sweep; one ``LadderResult`` per point, in order.

    ``points`` is a sequence of ``MCParams`` that differ only in
    ``detuning`` and ``extra_gain_sigma``; any other difference raises
    ValueError.  The walkers of all points advance as one batch, and a
    chunk holds at most ``chunk_size`` walkers (trajectories x points).
    Every draw is keyed by (seed, trajectory index), so a trajectory sees
    the same draws at every point and does not depend on ``n_workers``,
    ``chunk_size`` or the other points; the chunks' named tallies merge by
    name in fixed chunk order, so the output is bit-identical for any
    ``n_workers``.
    ``extra_gain_sigma`` adds a stimulated-gain albedo excess; the
    ``unstable`` flag reports a growing order-resolved tail.  The crossed
    term is implemented for a non-degenerate ground state only;
    ``include_crossed`` on any other scheme raises ValueError.
    """
    points = list(points)
    if not points:
        raise ValueError("simulate_ladder needs at least one point")
    if not len(detectors):
        raise ValueError("simulate_ladder needs at least one detector")
    params = points[0]
    for name in ("n_traj", "max_order"):
        if getattr(params, name) < 1:
            raise ValueError(f"simulate_ladder needs {name} >= 1, got "
                             f"{getattr(params, name)!r}")
    shared = replace(params, detuning=0.0, extra_gain_sigma=0.0)
    for q in points[1:]:
        if replace(q, detuning=0.0, extra_gain_sigma=0.0) != shared:
            raise ValueError("the points of one sweep may differ only in "
                             "detuning and extra_gain_sigma")
    n_ground = len(cloud.scheme.ground_sublevels())
    if params.include_crossed and n_ground > 1:
        raise ValueError(
            "the crossed (CBS) term is implemented only for a "
            f"non-degenerate ground state; this atom has {n_ground} ground "
            "sublevels")
    step = max(params.chunk_size // len(points), 1)
    edges = list(range(0, params.n_traj, step)) + [params.n_traj]
    jobs = [(cloud, points, detectors, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])]
    # a worker holds all walkers of its chunk at once, so workers beyond
    # the jobs or the usable CPUs add memory but no speed
    n_workers = min(n_workers, len(jobs), _usable_cpus())
    if n_workers > 1:
        with Pool(n_workers) as pool:
            err = np.geterr()
            results = pool.map(_chunk_worker, [(err, j) for j in jobs])
    else:
        results = [_run_chunk(*j) for j in jobs]

    # fixed chunk order, each sum starting from chunk 0's array
    tally = {k: sum((r[k] for r in results[1:]), results[0][k])
             for k in results[0]}
    n = params.n_traj
    sums = {"ladder": tally["ladder"].sum(axis=2),
            "crossed": tally["crossed"].sum(axis=2),
            "escaped": tally["escaped"]}
    for k, total in sums.items():  # standard error of the trajectory sum
        tally[k + "_err"] = np.sqrt(np.maximum(
            tally[k + "_sq"] / n - (total / n) ** 2, 0.0) / n) * n
    out = []
    for i in range(len(points)):
        t = {k: v[i] for k, v in tally.items()}
        unstable = _detect_instability(t["ladder"].sum(axis=0),
                                       _INSTABILITY_RUN)
        if t["truncated"] > 1e-3 * max(t["escaped"], 1.0):
            unstable = True
        out.append(LadderResult(
            per_order=t["ladder"], crossed_per_order=t["crossed"],
            stat_err=t["ladder_err"], crossed_err=t["crossed_err"],
            escaped_weight=float(t["escaped"]),
            escaped_err=float(t["escaped_err"]), injected_weight=float(n),
            truncated_weight=float(t["truncated"]),
            n_truncated=int(t["n_truncated"]), unstable=unstable))
    return out


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
    reciprocal partner.  An enhancement whose denominator is zero is NaN:
    ``eta`` (and ``stat_err``) where S + L = 0, ``eta_multiple`` where
    L = 0.
    """
    e_hel, e_hel_det = helicity_vectors()
    x, y, _ = np.eye(3, dtype=complex)
    try:
        e_in, e_det = {"hel_par": (e_hel, e_hel_det),
                       "hel_perp": (e_hel, e_hel),
                       "lin_par": (x, x), "lin_perp": (x, y)}[channel]
    except KeyError:
        raise ValueError(f"unknown channel {channel!r}") from None

    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    dets = backscatter_detectors(thetas, e_det)
    run = replace(params, include_crossed=True, e_in=tuple(e_in))
    raw = simulate_ladder(cloud, dets, [run], n_workers=n_workers)[0]

    S = raw.per_order[:, 1]
    L = raw.per_order[:, 2:].sum(axis=1)
    C = raw.crossed_per_order[:, 2:].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(S + L > 0, (S + L + C) / (S + L), np.nan)
        eta_m = np.where(L > 0, 1.0 + C / L, np.nan)
        err = np.where(S + L > 0, np.sqrt(raw.stat_err ** 2
                                          + raw.crossed_err ** 2) / (S + L),
                       np.nan)
    return CbsResult(thetas=thetas, single=S, ladder=L, crossed=C,
                     eta=eta, eta_multiple=eta_m, stat_err=err, raw=raw)

