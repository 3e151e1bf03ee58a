r"""Angular-momentum algebra and atomic matrix elements.

Clebsch-Gordan coefficients, Wigner 6j symbols, the spherical unit
vectors, electric-dipole matrix elements for alkali hyperfine structure,
and the spontaneous-emission repopulation matrix.

Conventions
-----------
* Condon-Shortley phases throughout.
* Half-integer quantum numbers are stored as doubled integers (``2j``) so
  triangle and projection selection rules are exact integer arithmetic.
* Units: the natural decay rate ``gamma = 1`` and ``k0 = omega0/c = 1``
  (lengths in reduced wavelengths).  Dipole matrix elements are normalized
  so that the total spontaneous decay rate of every excited sublevel is
  ``gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Level",
    "LevelScheme",
    "clebsch_gordan",
    "wigner_6j",
    "spherical_unit_vectors",
    "dipole_matrix_element",
    "dipole_q_array",
    "repopulation_matrix",
]


def _twice(x) -> int:
    """Doubled-integer representation 2x of an integer or half-integer
    momentum; any other value raises ValueError."""
    doubled = 2 * x
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError(f"{x!r} is not an integer or half-integer")
    return int(rounded)


# ----------------------------------------------------------------------------
# Racah closed-form sums with log-factorial stabilization and a memo cache.
# ----------------------------------------------------------------------------

def _lnfac(n: int) -> float:
    if n < 0:
        raise ValueError("factorial of negative integer")
    return math.lgamma(n + 1)


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    """Triangle rule for doubled momenta, including integer-sum parity."""
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def _ln_delta(ta: int, tb: int, tc: int) -> float:
    """Log of the Racah triangle coefficient Delta(a,b,c)."""
    return 0.5 * (
        _lnfac((ta + tb - tc) // 2)
        + _lnfac((ta - tb + tc) // 2)
        + _lnfac((-ta + tb + tc) // 2)
        - _lnfac((ta + tb + tc) // 2 + 1)
    )


@lru_cache(maxsize=None)
def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    if (tj1 + tm1) % 2 != 0 or (tj2 + tm2) % 2 != 0 or (tJ + tM) % 2 != 0:
        raise ValueError("projection and momentum differ by a non-integer")
    if tM != tm1 + tm2 or not _triangle_ok(tj1, tj2, tJ):
        return 0.0

    # Racah's closed form for <j1 m1 j2 m2 | J M>.
    ln_pref = 0.5 * (
        math.log(tJ + 1.0)
        + _lnfac((tj1 + tm1) // 2)
        + _lnfac((tj1 - tm1) // 2)
        + _lnfac((tj2 + tm2) // 2)
        + _lnfac((tj2 - tm2) // 2)
        + _lnfac((tJ + tM) // 2)
        + _lnfac((tJ - tM) // 2)
    ) + _ln_delta(tj1, tj2, tJ)

    k_min = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)

    total = 0.0
    for k in range(k_min, k_max + 1):
        ln_den = (
            _lnfac(k)
            + _lnfac((tj1 + tj2 - tJ) // 2 - k)
            + _lnfac((tj1 - tm1) // 2 - k)
            + _lnfac((tj2 + tm2) // 2 - k)
            + _lnfac((tJ - tj2 + tm1) // 2 + k)
            + _lnfac((tJ - tj1 - tm2) // 2 + k)
        )
        term = math.exp(ln_pref - ln_den)
        total += -term if k % 2 else term
    return total


@lru_cache(maxsize=None)
def _sixj_doubled(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> float:
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for tri in triads:
        if not _triangle_ok(*tri):
            return 0.0

    ln_pref = (
        _ln_delta(ta, tb, tc)
        + _ln_delta(ta, te, tf)
        + _ln_delta(td, tb, tf)
        + _ln_delta(td, te, tc)
    )
    s_abc = (ta + tb + tc) // 2
    s_aef = (ta + te + tf) // 2
    s_dbf = (td + tb + tf) // 2
    s_dec = (td + te + tc) // 2
    q_abde = (ta + tb + td + te) // 2
    q_bcef = (tb + tc + te + tf) // 2
    q_acdf = (ta + tc + td + tf) // 2

    t_min = max(s_abc, s_aef, s_dbf, s_dec)
    t_max = min(q_abde, q_bcef, q_acdf)

    total = 0.0
    for t in range(t_min, t_max + 1):
        ln_den = (
            _lnfac(t - s_abc)
            + _lnfac(t - s_aef)
            + _lnfac(t - s_dbf)
            + _lnfac(t - s_dec)
            + _lnfac(q_abde - t)
            + _lnfac(q_bcef - t)
            + _lnfac(q_acdf - t)
        )
        term = math.exp(ln_pref + _lnfac(t + 1) - ln_den)
        total += -term if t % 2 else term
    return total


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient ``C^{J M}_{j1 m1, j2 m2}``.

    Returns zero when ``M != m1 + m2`` or the triangle rule fails.  Raises
    ``ValueError`` when a projection is not integer-compatible with its
    momentum (``2m`` and ``2j`` of different parity).
    """
    return _cg_doubled(_twice(j1), _twice(m1), _twice(j2), _twice(m2),
                       _twice(J), _twice(M))


def wigner_6j(a, b, c, d, e, f) -> float:
    """Wigner 6j symbol ``{a b c; d e f}``; invalid triads give 0."""
    return _sixj_doubled(_twice(a), _twice(b), _twice(c),
                         _twice(d), _twice(e), _twice(f))


# ----------------------------------------------------------------------------
# The spherical basis.
# ----------------------------------------------------------------------------

def spherical_unit_vectors() -> np.ndarray:
    """Rows are the spherical unit vectors e_q, q = (-1, 0, +1), Cartesian."""
    r2 = math.sqrt(2.0)
    return np.array([
        [1 / r2, -1j / r2, 0],     # e_{-1} = (ex - i ey)/sqrt(2)
        [0, 0, 1],                 # e_0 = ez
        [-1 / r2, -1j / r2, 0],    # e_{+1} = -(ex + i ey)/sqrt(2)
    ], dtype=complex)


# ----------------------------------------------------------------------------
# Level schemes.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Level:
    """One hyperfine level: doubled total momentum and energy in gamma units."""
    twice_F: int
    energy: float = 0.0

    @property
    def F(self) -> float:
        return self.twice_F / 2.0

    def sublevels(self):
        """Doubled projections -2F, ..., +2F in steps of 2."""
        return range(-self.twice_F, self.twice_F + 1, 2)


_TWICE_S = 1  # doubled ground-state electron momentum, J0 = S = 1/2


@dataclass(frozen=True)
class LevelScheme:
    """Hyperfine structure of one optical transition J0=S -> J.

    Ground levels F0 couple S=1/2 with the nuclear spin I; excited levels F
    couple J with I, both given doubled (``twice_J``, ``twice_I``).
    Energies are in gamma units: excited energies are offsets from the
    reference optical frequency (detuning convention), and ground energies
    are hyperfine offsets (<= 0 for the lower level).  When
    ``reduced_elements`` is given (keyed by ``(twice_F, twice_F0)``) it
    overrides the 6j factorization; this supports bare model transitions
    such as F0=0 -> F=1 without a physical (J, I) pair.
    """
    ground: tuple[Level, ...]
    excited: tuple[Level, ...]
    twice_J: int = 3
    twice_I: int = 0
    gamma: float = 1.0
    reduced_elements: tuple[tuple[tuple[int, int], float], ...] | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.reduced_elements is None:
            for lvl in self.ground:
                if not _triangle_ok(_TWICE_S, self.twice_I, lvl.twice_F):
                    raise ValueError(f"ground F0={lvl.F} violates S,I coupling")
            for lvl in self.excited:
                if not _triangle_ok(self.twice_J, self.twice_I, lvl.twice_F):
                    raise ValueError(f"excited F={lvl.F} violates J,I coupling")

    # -- constructors ------------------------------------------------------

    @classmethod
    def simple(cls) -> "LevelScheme":
        """Single closed transition F0=0 -> F=1."""
        # decay-rate sum rule |<F||d||F0>|^2 = 3(2F+1)/4 at gamma = 1
        return cls(ground=(Level(0),), excited=(Level(2),),
                   reduced_elements=(((2, 0), math.sqrt(0.75 * 3)),))

    @classmethod
    def alkali_d2(cls, I, ground_levels, excited_levels) -> "LevelScheme":
        """D2-line scheme (J=3/2) from explicit level lists of (F, energy)."""
        return cls(
            ground=tuple(Level(_twice(F), E) for F, E in ground_levels),
            excited=tuple(Level(_twice(F), E) for F, E in excited_levels),
            twice_I=_twice(I),
        )

    @classmethod
    def rb85_d2(cls) -> "LevelScheme":
        """85Rb D2 line, I=5/2; splittings in units of gamma = 6.0666 MHz.

        Excited energies are referenced to F=4, ground energies to F0=3.
        """
        g = 6.0666
        return cls.alkali_d2(
            I=2.5,
            ground_levels=[(3, 0.0), (2, -3035.732 / g)],
            excited_levels=[
                (4, 0.0),
                (3, -120.640 / g),
                (2, -(120.640 + 63.401) / g),
                (1, -(120.640 + 63.401 + 29.372) / g),
            ],
        )

    @classmethod
    def rb87_d2(cls) -> "LevelScheme":
        """87Rb D2 line, I=3/2; energies referenced to F=3 / F0=2."""
        g = 6.0666
        return cls.alkali_d2(
            I=1.5,
            ground_levels=[(2, 0.0), (1, -6834.683 / g)],
            excited_levels=[
                (3, 0.0),
                (2, -266.650 / g),
                (1, -(266.650 + 156.947) / g),
                (0, -(266.650 + 156.947 + 72.218) / g),
            ],
        )

    @classmethod
    def lambda_rb87(cls) -> "LevelScheme":
        """87Rb Lambda model (J=3/2, I=3/2): the ground levels F0=1 and
        F0=2, 6834.683 MHz above it, with the single excited level F=1."""
        mhz = 1.0 / 6.0666
        return cls(ground=(Level(2, 0.0), Level(4, 6834.683 * mhz)),
                   excited=(Level(2, 0.0),), twice_J=3, twice_I=3)

    # -- sublevel bookkeeping ---------------------------------------------

    def ground_sublevels(self) -> list[tuple[int, int]]:
        """All (twice_F0, twice_M0) pairs in declaration order."""
        return [(lvl.twice_F, tm) for lvl in self.ground for tm in lvl.sublevels()]

    def excited_sublevels(self) -> list[tuple[int, int]]:
        return [(lvl.twice_F, tm) for lvl in self.excited for tm in lvl.sublevels()]

    def ground_energy(self, twice_F0: int) -> float:
        for lvl in self.ground:
            if lvl.twice_F == twice_F0:
                return lvl.energy
        raise KeyError(f"no ground level with F0={twice_F0 / 2}")

    def excited_energy(self, twice_F: int) -> float:
        for lvl in self.excited:
            if lvl.twice_F == twice_F:
                return lvl.energy
        raise KeyError(f"no excited level with F={twice_F / 2}")

    # -- reduced matrix elements ------------------------------------------

    def reduced_dipole(self, twice_F: int, twice_F0: int) -> float:
        """<F || d || F0> normalized so every excited sublevel decays at gamma."""
        if self.reduced_elements is not None:
            for (tf, tf0), red in self.reduced_elements:
                if tf == twice_F and tf0 == twice_F0:
                    return red
            return 0.0
        tJ, tI = self.twice_J, self.twice_I
        if not _triangle_ok(twice_F0, 2, twice_F):
            return 0.0
        # <J||d||S> fixed by the decay-rate sum rule: |<J||d||S>|^2 = 3(2J+1)/4.
        red_JS = math.sqrt(0.75 * (tJ + 1) * self.gamma)
        exponent = (twice_F0 + tJ + tI) // 2 - 1
        sign = -1.0 if exponent % 2 else 1.0
        six = _sixj_doubled(_TWICE_S, tI, twice_F0, twice_F, 2, tJ)
        return (sign * math.sqrt((twice_F + 1.0) * (twice_F0 + 1.0)) * six
                * red_JS)


def dipole_matrix_element(scheme: LevelScheme, F, M, F0, M0, q) -> float:
    """<F, M | d_q | F0, M0> via the Wigner-Eckart theorem.

    Zero unless ``M = M0 + q`` and ``|F - F0| <= 1``.  Units: sqrt(hbar
    gamma) (c/omega0)^(3/2), i.e. dimensionless in the gamma = k0 = 1 system.
    """
    tF, tM = _twice(F), _twice(M)
    tF0, tM0 = _twice(F0), _twice(M0)
    tq = _twice(q)
    if tq not in (-2, 0, 2):
        raise ValueError("q must be -1, 0 or +1")
    if tM != tM0 + tq:
        return 0.0
    red = scheme.reduced_dipole(tF, tF0)
    if red == 0.0:
        return 0.0
    cg = _cg_doubled(tF0, tM0, 2, tq, tF, tM)
    return red / math.sqrt(tF + 1.0) * cg


@lru_cache(maxsize=32)
def dipole_q_array(scheme: LevelScheme) -> np.ndarray:
    """Read-only d[q_index, n_excited, m_ground], q ordered (-1, 0, +1)."""
    exc = scheme.excited_sublevels()
    gnd = scheme.ground_sublevels()
    d = np.zeros((3, len(exc), len(gnd)))
    for iq, q in enumerate((-1, 0, 1)):
        for ie, (tF, tM) in enumerate(exc):
            for ig, (tF0, tM0) in enumerate(gnd):
                if tM == tM0 + 2 * q:
                    d[iq, ie, ig] = dipole_matrix_element(
                        scheme, tF / 2, tM / 2, tF0 / 2, tM0 / 2, q)
    d.flags.writeable = False  # cached: shared by every later caller
    return d


def repopulation_matrix(scheme: LevelScheme, rho_excited: np.ndarray) -> np.ndarray:
    """Ground-state feeding rate from spontaneous decay of ``rho_excited``.

    ``rho_excited`` is indexed by :meth:`LevelScheme.excited_sublevels`; the
    result is indexed by :meth:`LevelScheme.ground_sublevels`.  The trace of
    the output equals ``gamma * Tr(rho_excited)``.
    """
    exc = scheme.excited_sublevels()
    rho = np.asarray(rho_excited, dtype=complex)
    if rho.shape != (len(exc), len(exc)):
        raise ValueError(
            f"rho_excited has shape {rho.shape}, expected {(len(exc), len(exc))}")

    # feeding rate: (4/3) sum_q d_q[e, m0'] rho[e, e'] d_q[e', m0]; the
    # normalization of the reduced elements makes the trace gamma-preserving
    d = dipole_q_array(scheme)
    return (4.0 / 3.0) * np.einsum('qea,ef,qfb->ab', d, rho, d)
