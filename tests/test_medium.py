import math
import re

import numpy as np
import pytest

from coldscatter.angular import (LevelScheme, dipole_matrix_element,
                                 dipole_q_array, spherical_unit_vectors)
from coldscatter import medium as md


def test_two_level_susceptibility_analytic():
    # F0=0 -> F=1: chi = -(3/4) n0 / (Delta + i/2), isotropic
    sch = LevelScheme.simple()
    g = md.GroundState.isotropic(sch, 0, n0=0.02)
    for delta in (0.0, 0.7, -3.1, 12.0):
        chi = md.susceptibility(sch, g, None, delta)
        expect = -(0.75 * 0.02) / (delta + 0.5j) * np.eye(3)
        assert np.max(np.abs(chi - expect)) < 1e-14


def test_resonant_cross_section_two_level():
    sch = LevelScheme.simple()
    g = md.GroundState.isotropic(sch, 0, n0=0.01)
    kl = md.kinetic_lengths(sch, g, None, 0.0)
    assert kl.sigma_ex == pytest.approx(6 * math.pi, rel=1e-10)
    assert kl.albedo == pytest.approx(1.0, rel=1e-8)
    assert kl.l_ex == pytest.approx(1.0 / (0.01 * 6 * math.pi), rel=1e-8)
    assert kl.l_ls == math.inf or abs(1.0 / kl.l_ls) < 1e-8


def test_resonant_cross_section_scaling_rb85():
    # line-center extinction on an isolated transition F0 -> F scales as
    # (2F+1)/(2F0+1) * 2pi relative to the unit wavenumber
    sch = LevelScheme.rb85_d2()
    g = md.GroundState.isotropic(sch, 6, n0=0.001)  # F0=3 populated
    omega = sch.excited_energy(8) - sch.ground_energy(6)  # F=4 line center
    chi = md.susceptibility(sch, g, None, omega)
    sigma = 4 * math.pi * md.transverse_decompose(chi / 0.001, [0, 0, 1]).chi0.imag
    # other excited levels give small off-resonant corrections
    assert sigma == pytest.approx((9.0 / 7.0) * 2 * math.pi, rel=2e-3)


def test_susceptibility_isotropic_for_isotropic_population():
    sch = LevelScheme.rb87_d2()
    g = md.GroundState.isotropic(sch, 4, n0=0.01)
    chi = md.susceptibility(sch, g, None, 1.7)
    assert np.max(np.abs(chi - chi[0, 0] * np.eye(3))) < 1e-14


def test_scattering_quadrature_matches_closed_form():
    # kinetic_lengths' closed-form sigma_sc equals the angular integral of
    # sum_m' |P_perp alpha e|^2, averaged over e = x, y and the populations
    sch = LevelScheme.rb85_d2()
    g = md.GroundState.isotropic(sch, 6, n0=0.01)
    omega = 0.5
    nodes, weights = np.polynomial.legendre.leggauss(16)
    phis = 2 * math.pi * np.arange(32) / 32
    st = np.sqrt(1 - nodes ** 2)
    dirs = np.stack([np.outer(st, np.cos(phis)).ravel(),
                     np.outer(st, np.sin(phis)).ravel(),
                     np.repeat(nodes, 32)], axis=1)
    w = np.repeat(weights, 32) * (2 * math.pi / 32)
    quad = 0.0
    for m, p in enumerate(np.diag(g.rho)):
        if p == 0:
            continue
        for A in md.scattering_tensors(sch, None, m, omega):
            for e in np.eye(3)[:2]:
                v = A @ e
                dens = np.vdot(v, v).real - np.abs(dirs @ v) ** 2
                quad += 0.5 * p * np.sum(w * dens)
    kl = md.kinetic_lengths(sch, g, None, omega)
    assert kl.sigma_sc == pytest.approx(quad, rel=1e-12)


def _tensor_oracle(sch, ctrl, m_out, m_in, omega):
    """alpha^{(m' m)} by an explicit loop over excited sublevels n, n'."""
    exc = sch.excited_sublevels()
    gnd = sch.ground_sublevels()
    eq = spherical_unit_vectors()
    G = md.excited_green(sch, ctrl, omega + sch.ground_energy(gnd[m_in][0]))
    tF0p, tM0p = gnd[m_out]
    tF0, tM0 = gnd[m_in]
    alpha = np.zeros((3, 3), dtype=complex)
    for n, (tF, tM) in enumerate(exc):
        for n2, (tF2, tM2) in enumerate(exc):
            if G[n, n2] == 0:
                continue
            for iq, q in enumerate((-1, 0, 1)):
                dq = dipole_matrix_element(sch, tF / 2, tM / 2, tF0p / 2,
                                           tM0p / 2, q)
                for ip, p in enumerate((-1, 0, 1)):
                    dp = dipole_matrix_element(sch, tF2 / 2, tM2 / 2,
                                               tF0 / 2, tM0 / 2, p)
                    alpha -= dq * G[n, n2] * dp * np.outer(eq[iq].conj(),
                                                           eq[ip])
    return alpha


@pytest.mark.parametrize("dressed", [False, True])
def test_scattering_tensors_match_explicit_sum(dressed):
    if dressed:  # Lambda scheme with a control field on the upper level
        sch = LevelScheme.lambda_rb87()
        ctrl = md.ControlField(rabi=1.3, omega_c=-sch.ground_energy(4) + 0.2,
                               twice_F0=4, twice_F_ref=2, polarization_q=1)
    else:
        sch, ctrl = LevelScheme.rb87_d2(), None
    n = len(sch.ground_sublevels())
    for omega in (-0.7, 0.4):
        for m in range(n):
            tensors = md.scattering_tensors(sch, ctrl, m, omega)
            assert tensors.shape == (n, 3, 3)
            for mp in range(n):
                expect = _tensor_oracle(sch, ctrl, mp, m, omega)
                assert np.max(np.abs(tensors[mp] - expect)) < 1e-13


def test_susceptibility_is_population_weighted_tensor_sum():
    # a non-isotropic rho with a Zeeman coherence in the upper rb87 level
    sch = LevelScheme.rb87_d2()
    gnd = sch.ground_sublevels()
    i, j = gnd.index((4, -2)), gnd.index((4, 2))
    k = gnd.index((2, 0))
    rho = np.zeros((len(gnd), len(gnd)), dtype=complex)
    rho[i, i], rho[j, j], rho[k, k] = 0.5, 0.3, 0.2
    rho[i, j] = 0.1 + 0.2j
    rho[j, i] = np.conj(rho[i, j])
    g = md.GroundState(rho=rho, n0=0.03)
    omega = 0.8
    chi = md.susceptibility(sch, g, None, omega)
    expect = np.zeros((3, 3), dtype=complex)
    for mp, m in zip(*np.nonzero(rho)):
        # alpha^{(m m')}; E_m = E_m' on every nonzero entry of this rho
        expect += rho[mp, m] * _tensor_oracle(sch, None, m, mp, omega)
    assert np.max(np.abs(chi - 0.03 * expect)) < 1e-15
    assert np.max(np.abs(chi - chi[0, 0] * np.eye(3))) > 1e-6


def test_optical_theorem_off_resonance():
    # without inelastic channels and dressing, albedo stays 1 at any detuning
    sch = LevelScheme.simple()
    g = md.GroundState.isotropic(sch, 0, n0=0.01)
    for delta in (0.0, 2.0, -5.0):
        kl = md.kinetic_lengths(sch, g, None, delta)
        assert kl.albedo == pytest.approx(1.0, abs=1e-7)


def _green_per_block(sch, ctrl, E):
    """Excited-state G assembled block by block over M: each block's
    undressed diagonal, dressed by Sherman-Morrison where the control
    couples it."""
    exc = sch.excited_sublevels()
    gnd = sch.ground_sublevels()
    G = np.zeros((len(exc), len(exc)), dtype=complex)
    for tM in sorted({tm for _, tm in exc}):
        idx = [i for i, (_, tm) in enumerate(exc) if tm == tM]
        a_inv = 1.0 / np.array([E - sch.excited_energy(exc[i][0])
                                + 0.5j * sch.gamma for i in idx])
        g = np.diag(a_inv)
        partner = None if ctrl is None else \
            (ctrl.twice_F0, tM - 2 * ctrl.polarization_q)
        if partner in gnd and ctrl.rabi != 0.0:
            v = ctrl.coupling_vector(sch, idx, gnd.index(partner))
            v = v.astype(complex)
            if np.any(v):
                d2 = E - ctrl.omega_c - sch.ground_energy(ctrl.twice_F0)
                u = a_inv * v
                g = np.diag(a_inv) + np.outer(u, a_inv * v.conj()) \
                    / (d2 - np.vdot(v, u))
        G[np.ix_(idx, idx)] = g
    return G


KINDS = ["two-level", "rb85", "rb87", "lambda-rb87"]


def _scheme_and_control(kind):
    """Each atom kind with a control field that dresses some of its
    excited blocks."""
    return {
        "two-level": (LevelScheme.simple(), md.ControlField(
            rabi=0.8, omega_c=0.3, twice_F0=0, twice_F_ref=2)),
        "rb85": (LevelScheme.rb85_d2(), md.ControlField(
            rabi=1.5, omega_c=-LevelScheme.rb85_d2().ground_energy(4),
            twice_F0=4, twice_F_ref=6, polarization_q=1)),
        "rb87": (LevelScheme.rb87_d2(), md.ControlField(
            rabi=2.0, omega_c=-LevelScheme.rb87_d2().ground_energy(2),
            twice_F0=2, twice_F_ref=4, polarization_q=0)),
        "lambda-rb87": (LevelScheme.lambda_rb87(), md.ControlField(
            rabi=1.3,
            omega_c=-LevelScheme.lambda_rb87().ground_energy(4) + 0.2,
            twice_F0=4, twice_F_ref=2, polarization_q=1)),
    }[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_excited_green_matches_per_block_assembly(kind):
    sch, ctrl = _scheme_and_control(kind)
    for c in (None, ctrl):
        for E in (-0.7, 0.37, 2.5, -3.1 + 0.2j):
            G = md.excited_green(sch, c, E)
            assert np.array_equal(G, _green_per_block(sch, c, E))
            if c is not None:
                assert not np.array_equal(G, md.excited_green(sch, None, E))


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dressed", [False, True], ids=["bare", "dressed"])
def test_batched_kernels_match_scalar_calls(kind, dressed):
    """A frequency grid of any shape gives, frequency by frequency, what
    one 0-d call gives, with the frequency axes first."""
    sch, ctrl = _scheme_and_control(kind)
    ctrl = ctrl if dressed else None
    n = len(sch.ground_sublevels())
    rng = np.random.default_rng(3)
    # populations in every ground level, so several ground energies enter
    g = md.GroundState(rho=np.diag(rng.dirichlet(np.ones(n))), n0=0.02)
    omega = np.linspace(-4.3, 3.9, 12).reshape(3, 4)
    chi = md.susceptibility(sch, g, ctrl, omega)
    assert chi.shape == (3, 4, 3, 3)
    loop = np.array([md.susceptibility(sch, g, ctrl, w)
                     for w in omega.ravel()]).reshape(chi.shape)
    assert _max_rel(chi, loop) <= 1e-14
    m_in = rng.integers(n, size=omega.shape)
    tensors = md.scattering_tensors(sch, ctrl, m_in, omega)
    assert tensors.shape == (3, 4, n, 3, 3)
    loop = np.array([md.scattering_tensors(sch, ctrl, m, w)
                     for m, w in zip(m_in.ravel(), omega.ravel())])
    assert _max_rel(tensors, loop.reshape(tensors.shape)) <= 1e-14
    sigma = md.extinction_cross_section(sch, g, ctrl, omega)
    loop = [md.extinction_cross_section(sch, g, ctrl, w)
            for w in omega.ravel()]
    assert _max_rel(sigma, np.reshape(loop, omega.shape)) <= 1e-14


def _m_block(sch, tM):
    """Indices of the excited sublevels with doubled projection tM."""
    return [i for i, (_, tm) in enumerate(sch.excited_sublevels())
            if tm == tM]


def test_dressed_block_reduces_to_bare():
    sch = LevelScheme.rb87_d2()
    ctrl = md.ControlField(rabi=0.0, omega_c=0.0, twice_F0=4, twice_F_ref=2)
    for tM in (-2, 0, 2):
        block = np.ix_(_m_block(sch, tM), _m_block(sch, tM))
        Gc = md.excited_green(sch, ctrl, 0.3)[block]
        Gb = md.excited_green(sch, None, 0.3)[block]
        assert np.max(np.abs(Gc - Gb)) < 1e-15


def test_dressed_block_against_direct_inverse():
    sch = LevelScheme.rb87_d2()
    ctrl = md.ControlField(rabi=2.0, omega_c=sch.excited_energy(2)
                           - sch.ground_energy(4),
                           twice_F0=4, twice_F_ref=2, polarization_q=0)
    E = 0.37 + 0.0j
    for tM in (-2, 0, 2):
        idx = _m_block(sch, tM)
        G = md.excited_green(sch, ctrl, E)[np.ix_(idx, idx)]
        exc = sch.excited_sublevels()
        gnd = sch.ground_sublevels()
        ig = gnd.index((4, tM))
        v = ctrl.coupling_vector(sch, idx, ig).astype(complex)
        A = np.diag([E - sch.excited_energy(exc[i][0]) + 0.5j for i in idx])
        d2 = E - ctrl.omega_c - sch.ground_energy(4)
        B = A - np.outer(v, v.conj()) / d2
        assert np.max(np.abs(G - np.linalg.inv(B))) < 1e-12


def test_dressed_block_finite_at_two_photon_resonance():
    """At exact two-photon resonance the naive matrix inverse blows up but
    the propagator has a finite limit; it must match the limit from a
    small detuning approach."""
    sch = LevelScheme.lambda_rb87()
    ctrl = md.ControlField(rabi=1.0, omega_c=-sch.ground_energy(4),
                           twice_F0=4, twice_F_ref=2, polarization_q=0)
    G0 = md.excited_green(sch, ctrl, 0.0)
    eps = 1e-7
    Geps = md.excited_green(sch, ctrl, eps)
    assert np.all(np.isfinite(G0))
    assert np.max(np.abs(G0 - Geps)) < 1e-5


def test_pole_proximity_raises():
    """With negligible radiative width the dressed block has near-real
    poles at E = +-|V|; hitting one must raise instead of returning
    garbage."""
    sch = LevelScheme.lambda_rb87()
    bad = LevelScheme(ground=sch.ground, excited=sch.excited,
                      twice_J=sch.twice_J, twice_I=sch.twice_I, gamma=1e-16)
    ctrl = md.ControlField(rabi=1.0, omega_c=-sch.ground_energy(4),
                           twice_F0=4, twice_F_ref=2, polarization_q=0)
    ig = bad.ground_sublevels().index((4, 0))
    vmag = float(abs(ctrl.coupling_vector(bad, _m_block(bad, 0), ig)[0]))
    with pytest.raises(md.PoleProximityError):
        md.excited_green(bad, ctrl, vmag)
    # in a batch, the first pole in the grid (C order) is named
    for grid, first in (([0.3, vmag, -vmag], vmag),
                        ([[0.3, -vmag], [vmag, 0.0]], -vmag)):
        with pytest.raises(md.PoleProximityError,
                           match=re.escape(f"E={first!r}")) as exc:
            md.excited_green(bad, ctrl, grid)
        assert exc.value.residual < 1e-12
    g = md.GroundState.isotropic(bad, 2)
    omega = vmag - bad.ground_energy(2)
    with pytest.raises(md.PoleProximityError, match=re.escape(f"{vmag!r}")):
        md.susceptibility(bad, g, ctrl, np.array([0.3, omega]))


def test_eit_transparency_dip():
    sch = LevelScheme.lambda_rb87()
    g = md.GroundState.isotropic(sch, 2, n0=0.01)
    ctrl = md.ControlField(rabi=1.0, omega_c=-sch.ground_energy(4),
                           twice_F0=4, twice_F_ref=2, polarization_q=0)
    chi_d = md.susceptibility(sch, g, ctrl, 0.0)
    chi_b = md.susceptibility(sch, g, None, 0.0)
    im_d = md.transverse_decompose(chi_d, [0, 0, 1]).chi0.imag
    im_b = md.transverse_decompose(chi_b, [0, 0, 1]).chi0.imag
    assert im_b > 0
    assert im_d / im_b < 1e-10


def test_eit_autler_townes_peaks():
    """With a strong control the absorption shows two peaks near +-rabi/2
    and a dip at two-photon resonance."""
    sch = LevelScheme.lambda_rb87()
    g = md.GroundState.isotropic(sch, 2, n0=0.01)
    ctrl = md.ControlField(rabi=4.0, omega_c=-sch.ground_energy(4),
                           twice_F0=4, twice_F_ref=2, polarization_q=0)
    deltas = np.linspace(-4, 4, 161)
    absn = []
    for d in deltas:
        chi = md.susceptibility(sch, g, ctrl, d)
        absn.append(md.transverse_decompose(chi, [0, 0, 1]).chi0.imag)
    absn = np.array(absn)
    i0 = np.argmin(np.abs(deltas))
    assert absn[i0] < 1e-6 * absn.max()
    left = absn[deltas < -0.5]
    right = absn[deltas > 0.5]
    assert left.max() > 10 * absn[i0] and right.max() > 10 * absn[i0]


def _reconstruct(tc):
    """2x2 transverse tensor chi0*I + chivec . sigma."""
    cx, cy, cz = tc.chivec
    return np.array([[tc.chi0 + cz, cx - 1j * cy],
                     [cx + 1j * cy, tc.chi0 - cz]])


def test_transverse_decompose_isotropic():
    chi = (0.3 + 0.1j) * np.eye(3)
    tc = md.transverse_decompose(chi, [0.2, -0.4, 0.9])
    assert np.max(np.abs(tc.chivec)) < 1e-15
    assert tc.chi0 == pytest.approx(0.3 + 0.1j, abs=1e-14)
    assert np.max(np.abs(_reconstruct(tc) - (0.3 + 0.1j) * np.eye(2))) < 1e-14


def test_transverse_decompose_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        chi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = rng.normal(size=3)
        tc = md.transverse_decompose(chi, u)
        R = tc.frame
        expect = (R @ chi @ R.T)[:2, :2]
        assert np.max(np.abs(_reconstruct(tc) - expect)) < 1e-12
        # frame is right-handed and orthonormal
        assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-12
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_local_frame_z_fallback():
    R = md.local_frame([0, 0, 1.0])
    assert np.allclose(R, np.eye(3))
    R = md.local_frame([0, 0, -1.0])
    assert np.allclose(R[2], [0, 0, -1])
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-12


def test_kinetic_lengths_inverse_additivity():
    sch = LevelScheme.rb85_d2()
    g = md.GroundState.isotropic(sch, 6, n0=0.005)
    omega = sch.excited_energy(8) - sch.ground_energy(6) + 1.0
    kl = md.kinetic_lengths(sch, g, None, omega)
    lhs = 1.0 / kl.l_ex
    rhs = 1.0 / kl.l_sc + (0.0 if kl.l_ls == math.inf else 1.0 / kl.l_ls)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_kinetic_lengths_gain_flag():
    sch = LevelScheme.simple()
    g = md.GroundState.isotropic(sch, 0, n0=0.01)
    kl = md.kinetic_lengths(sch, g, None, 0.0, extra_gain_sigma=2.0)
    assert kl.l_ls < 0
    assert kl.l_g == pytest.approx(-kl.l_ls)
    assert kl.albedo > 1.0


def test_raman_gain_monotone_in_pump():
    vals = [md.raman_gain_cross_section(v, 1126.0) for v in (5, 10, 20, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cached_scheme_arrays_are_read_only():
    # cached per scheme: a write would change every later EIT and
    # medium-table result for that scheme
    sch = LevelScheme.rb85_d2()
    for a in (dipole_q_array(sch), *md._scheme_table(sch)[:-1]):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
