import numpy as np
import pytest

sympy_physics = pytest.importorskip("sympy.physics.wigner")
from sympy import Rational, S

from coldscatter.angular import (
    Level,
    LevelScheme,
    clebsch_gordan,
    dipole_matrix_element,
    repopulation_matrix,
    wigner_6j,
)


def _rat(x):
    return Rational(int(round(2 * x)), 2)


def test_clebsch_gordan_against_sympy():
    rng = np.random.default_rng(7)
    js = [0, 0.5, 1, 1.5, 2, 2.5, 3]
    for _ in range(200):
        j1, j2 = rng.choice(js, 2)
        J = rng.choice(js)
        m1 = rng.integers(-int(2 * j1), int(2 * j1) + 1) / 2
        m2 = rng.integers(-int(2 * j2), int(2 * j2) + 1) / 2
        if (2 * j1 + 2 * m1) % 2 or (2 * j2 + 2 * m2) % 2:
            continue
        if (2 * J) % 2 != (2 * j1 + 2 * j2) % 2:
            continue
        M = m1 + m2
        got = clebsch_gordan(j1, m1, j2, m2, J, M)
        want = float(sympy_physics.clebsch_gordan(
            _rat(j1), _rat(j2), _rat(J), _rat(m1), _rat(m2), _rat(M)))
        assert got == pytest.approx(want, abs=1e-13)


def test_wigner_6j_against_sympy():
    rng = np.random.default_rng(11)
    js = [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]
    checked = 0
    while checked < 150:
        a, b, c, d, e, f = rng.choice(js, 6)
        got = wigner_6j(a, b, c, d, e, f)
        try:
            want = float(sympy_physics.wigner_6j(
                _rat(a), _rat(b), _rat(c), _rat(d), _rat(e), _rat(f)))
        except ValueError:
            want = 0.0
        assert got == pytest.approx(want, abs=1e-13)
        checked += 1


def test_clebsch_gordan_orthogonality():
    # sum_{m1 m2} C^{JM}_{j1m1 j2m2} C^{J'M'}_{j1m1 j2m2} = delta_JJ' delta_MM'
    for j1, j2 in [(1, 1), (1.5, 1), (2, 1.5), (3, 1), (2.5, 1.5), (4, 2)]:
        Jmin, Jmax = abs(j1 - j2), j1 + j2
        Js = [Jmin + k for k in range(int(Jmax - Jmin) + 1)]
        for J in Js:
            for Jp in Js:
                for M in [x - J for x in range(int(2 * J) + 1)]:
                    if abs(M) > Jp:
                        continue
                    total = 0.0
                    for m1 in [x - j1 for x in range(int(2 * j1) + 1)]:
                        m2 = M - m1
                        if abs(m2) > j2:
                            continue
                        total += (clebsch_gordan(j1, m1, j2, m2, J, M)
                                  * clebsch_gordan(j1, m1, j2, m2, Jp, M))
                    expect = 1.0 if J == Jp else 0.0
                    assert abs(total - expect) < 1e-12


def test_wigner_6j_orthogonality():
    # sum_x (2x+1) {a b x; c d p} {a b x; c d q} = delta_pq / (2p+1)
    cases = [(1, 1, 1, 1), (1.5, 0.5, 1.5, 0.5), (2, 1, 2, 1),
             (1.5, 1.5, 1.5, 1.5), (2, 2, 1, 1)]
    for a, b, c, d in cases:
        ps = [abs(a - d) + k for k in range(int(a + d - abs(a - d)) + 1)]
        xs = [abs(a - b) + k for k in range(int(a + b - abs(a - b)) + 1)]
        for p in ps:
            for q in ps:
                total = sum((2 * x + 1) * wigner_6j(a, b, x, c, d, p)
                            * wigner_6j(a, b, x, c, d, q) for x in xs)
                expect = 1.0 / (2 * p + 1) if p == q else 0.0
                assert abs(total - expect) < 1e-12


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(1, 0, 1, 0, 2, 1) == 0.0
    assert clebsch_gordan(1, 1, 1, 1, 3, 2) == 0.0
    with pytest.raises(ValueError):
        clebsch_gordan(1, 0.5, 1, 0, 2, 0.5)


@pytest.mark.parametrize("scheme", [
    LevelScheme.simple(),
    LevelScheme.rb85_d2(),
    LevelScheme.rb87_d2(),
])
def test_decay_rate_sum_rule(scheme):
    """Every excited sublevel decays at exactly gamma:
    (4/3) sum_{F0 M0 q} |<F M|d_q|F0 M0>|^2 = gamma."""
    for tF, tM in scheme.excited_sublevels():
        total = 0.0
        for tF0, tM0 in scheme.ground_sublevels():
            for q in (-1, 0, 1):
                if tM != tM0 + 2 * q:
                    continue
                d = dipole_matrix_element(scheme, tF / 2, tM / 2,
                                          tF0 / 2, tM0 / 2, q)
                total += d * d
        assert abs(4.0 / 3.0 * total - scheme.gamma) < 1e-12


def test_repopulation_preserves_trace_rb85():
    scheme = LevelScheme.rb85_d2()
    ne = len(scheme.excited_sublevels())
    rng = np.random.default_rng(2)
    a = rng.normal(size=(ne, ne)) + 1j * rng.normal(size=(ne, ne))
    rho_e = a @ a.conj().T
    rho_e /= np.trace(rho_e).real
    out = repopulation_matrix(scheme, rho_e)
    assert abs(np.trace(out).real - scheme.gamma) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    w = np.linalg.eigvalsh(out)
    assert w.min() > -1e-12


def test_repopulation_rates_two_level():
    scheme = LevelScheme.simple()
    rho_e = np.eye(3) / 3.0
    out = repopulation_matrix(scheme, rho_e)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(scheme.gamma, abs=1e-14)


def test_halfint_identities():
    # momenta are integers or half-integers, given as int or float
    cg = clebsch_gordan(1.5, 0.5, 2.0, 0, 1.5, 0.5)
    assert cg != 0.0
    assert clebsch_gordan(1.5, 0.5, 2, 0.0, 1.5, 0.5) == cg
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)


def test_level_scheme_energies():
    s = LevelScheme.rb87_d2()
    tFs = sorted(tf for tf, _ in {(l.twice_F, 0) for l in s.excited})
    assert tFs == [0, 2, 4, 6]
    # hyperfine ground splitting is thousands of linewidths
    gs = [s.ground_energy(l.twice_F) for l in s.ground]
    assert max(gs) - min(gs) > 1000


@pytest.mark.parametrize("ground, excited, message", [
    # S = 1/2 and I = 1/2 couple to F0 = 0 or 1, not 2
    (4, 2, "ground F0=2.0 violates S,I coupling"),
    # J = 3/2 and I = 1/2 couple to F = 1 or 2, not 4
    (2, 8, "excited F=4.0 violates J,I coupling"),
])
def test_level_scheme_rejects_uncoupled_levels(ground, excited, message):
    with pytest.raises(ValueError, match=message):
        LevelScheme(ground=(Level(ground),), excited=(Level(excited),),
                    twice_J=3, twice_I=1)


def test_explicit_reduced_elements_are_zero_for_an_absent_pair():
    s = LevelScheme.simple()
    assert s.reduced_dipole(2, 0) > 0
    assert s.reduced_dipole(4, 0) == 0.0
    assert s.reduced_dipole(2, 2) == 0.0
