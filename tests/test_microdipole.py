import cmath
import math

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from coldscatter import microdipole as mi


K_IN = np.array([0.0, 0.0, 1.0])
E_X = np.array([1.0, 0.0, 0.0])


def hankel_oracle(n, x):
    """Independent Hankel h_n^(1) via upward recurrence from closed forms."""
    h0 = -1j * cmath.exp(1j * x) / x
    h1 = -(1.0 + 1j / x) * cmath.exp(1j * x) / x
    hs = [h0, h1]
    for m in range(1, n):
        hs.append((2 * m + 1) / x * hs[m] - hs[m - 1])
    return hs[n]


def test_field_green_tensor_value_against_hankel_oracle():
    R = np.array([0.3, -0.5, 0.81])
    r = np.linalg.norm(R)
    h0 = hankel_oracle(0, r)
    h2 = hankel_oracle(2, r)
    rr = np.outer(R, R) / r ** 2
    oracle = -(1j * (2 / 3) * h0 * np.eye(3) + (rr - np.eye(3) / 3) * 1j * h2)
    D = mi.field_green_tensor(R)
    assert np.max(np.abs(D - oracle)) < 1e-12
    # scipy spherical Hankel agrees with the recurrence oracle
    assert abs((spherical_jn(2, r) + 1j * spherical_yn(2, r)) - h2) < 1e-13


def test_field_green_tensor_static_limit():
    R = np.array([0.01, 0.0, 0.0])
    r = np.linalg.norm(R)
    D = mi.field_green_tensor(R)
    static = (np.eye(3) - 3 * np.outer(R, R) / r ** 2) / r ** 3
    assert np.max(np.abs(D.real - static)) / np.max(np.abs(static)) < 0.01


def test_field_green_tensor_far_field():
    # longitudinal component suppressed by 1/kR relative to transverse
    R = np.array([0.0, 0.0, 100.0])
    D = mi.field_green_tensor(R)
    trans = abs(D[0, 0])
    lon = abs(D[2, 2])
    assert trans == pytest.approx(1.0 / 100.0, rel=0.05)
    # longitudinal term 2/(kR)^2 against transverse 1/(kR)
    assert lon / trans == pytest.approx(2.0 / 100.0, rel=0.05)


def test_field_green_tensor_zero_separation_raises():
    with pytest.raises(ValueError):
        mi.field_green_tensor([0.0, 0.0, 0.0])


def test_field_green_tensor_stack_matches_single_calls():
    rng = np.random.default_rng(4)
    R = rng.normal(scale=2.0, size=(2, 5, 3))
    D = mi.field_green_tensor(R)
    assert D.shape == (2, 5, 3, 3)
    for idx in np.ndindex(2, 5):
        single = mi.field_green_tensor(R[idx])
        assert np.max(np.abs(D[idx] - single)) <= 1e-15 * np.max(np.abs(single))
    R[1, 3] = 0.0
    with pytest.raises(ValueError):
        mi.field_green_tensor(R)


def test_configuration_positions_are_a_private_read_only_copy():
    src = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.8]])
    cfg = mi.Configuration(src)
    with pytest.raises(ValueError):
        cfg.positions[0, 0] = 1.0
    src[1, 2] = 3.0
    assert cfg.positions[1, 2] == 0.8


def test_configuration_contact_floor():
    with pytest.raises(ValueError, match="contact floor"):
        mi.Configuration(np.array([[0, 0, 0], [0.01, 0, 0.0]]))
    # exactly at the floor is also rejected
    with pytest.raises(ValueError):
        mi.Configuration(np.array([[0, 0, 0], [0.05, 0, 0.0]]))
    mi.Configuration(np.array([[0, 0, 0], [0.051, 0, 0.0]]))


def test_hamiltonian_single_atom():
    H = mi.build_effective_hamiltonian(
        mi.Configuration(np.zeros((1, 3))), detuning=1.2)
    assert H.shape == (3, 3)
    assert np.allclose(H, (-1.2 - 0.5j) * np.eye(3))
    Hs = mi.build_effective_hamiltonian(
        mi.Configuration(np.zeros((1, 3)), model="scalar"), detuning=1.2)
    assert Hs.shape == (1, 1)
    assert Hs[0, 0] == -1.2 - 0.5j


def test_hamiltonian_complex_symmetric_and_decaying():
    rng = np.random.default_rng(2)
    cfg = mi.random_ball_configuration(12, 4.0, rng)
    H = mi.build_effective_hamiltonian(cfg, detuning=0.0)
    assert np.max(np.abs(H - H.T)) < 1e-14
    lam = np.linalg.eigvals(H)
    assert np.all(lam.imag < 1e-12)


def test_hamiltonian_matches_per_pair_oracle():
    rng = np.random.default_rng(9)
    pos = mi.random_ball_configuration(12, 3.0, rng).positions
    detuning = 0.7
    H = mi.build_effective_hamiltonian(mi.Configuration(pos), detuning)
    oracle = np.zeros((36, 36), dtype=complex)
    Hs = mi.build_effective_hamiltonian(
        mi.Configuration(pos, model="scalar"), detuning)
    oracle_s = np.zeros((12, 12), dtype=complex)
    for a in range(12):
        oracle[3 * a:3 * a + 3, 3 * a:3 * a + 3] = \
            (-detuning - 0.5j) * np.eye(3)
        oracle_s[a, a] = -detuning - 0.5j
        for b in range(12):
            if a != b:
                oracle[3 * a:3 * a + 3, 3 * b:3 * b + 3] = \
                    0.75 * mi.field_green_tensor(pos[a] - pos[b])
                r = float(np.linalg.norm(pos[a] - pos[b]))
                oracle_s[a, b] = -0.5 * cmath.exp(1j * r) / r
    assert np.max(np.abs(H - oracle)) < 1e-13
    assert np.max(np.abs(Hs - oracle_s)) < 1e-13


def test_hamiltonian_detuning_enters_only_the_diagonal():
    rng = np.random.default_rng(10)
    for model in ("vector", "scalar"):
        cfg = mi.random_ball_configuration(10, 3.0, rng, model=model)
        d1, d2 = -0.37, 1.9
        diff = (mi.build_effective_hamiltonian(cfg, d1)
                - mi.build_effective_hamiltonian(cfg, d2))
        assert np.array_equal(diff, (d2 - d1) * np.eye(len(diff)))


def test_hamiltonian_n2_eigenvalues_match_direct_diagonalization():
    cfg = mi.Configuration(np.array([[0, 0, 0], [0, 0, 0.8]]))
    H = mi.build_effective_hamiltonian(cfg, detuning=0.0)
    # direct 6x6 oracle assembled independently from the kernel definition
    D = 0.75 * mi.field_green_tensor(np.array([0, 0, -0.8]))
    oracle = np.zeros((6, 6), dtype=complex)
    oracle[:3, :3] = oracle[3:, 3:] = -0.5j * np.eye(3)
    oracle[:3, 3:] = D
    oracle[3:, :3] = D.T
    ev1 = np.sort_complex(np.linalg.eigvals(H))
    ev2 = np.sort_complex(np.linalg.eigvals(oracle))
    assert np.max(np.abs(ev1 - ev2)) < 1e-12


def test_single_atom_lorentzian():
    cfg = mi.Configuration(np.zeros((1, 3)))
    q0 = mi.DipoleSolver(cfg, 0.0).total_cross_section(K_IN, E_X)
    assert q0 == pytest.approx(6 * math.pi, rel=1e-12)
    q_half = mi.DipoleSolver(cfg, 0.5).total_cross_section(K_IN, E_X)
    assert q_half == pytest.approx(3 * math.pi, rel=1e-12)
    # full Lorentzian profile
    for d in (0.3, -1.7, 4.0):
        q = mi.DipoleSolver(cfg, d).total_cross_section(K_IN, E_X)
        assert q == pytest.approx(6 * math.pi * 0.25 / (d * d + 0.25),
                                  rel=1e-12)


def test_scalar_single_atom_resonance():
    cfg = mi.Configuration(np.zeros((1, 3)), model="scalar")
    f = mi.DipoleSolver(cfg, 0.0).scattering_amplitude(K_IN)
    assert f == pytest.approx(1j, abs=1e-14)
    assert mi.DipoleSolver(cfg, 0.0).total_cross_section(K_IN) == \
        pytest.approx(4 * math.pi, rel=1e-12)


def _scalar_pair_oracle(pos, detuning, k_in, k_out):
    """Closed-form 2x2 inversion for the scalar pair amplitude."""
    r12 = np.linalg.norm(pos[0] - pos[1])
    g = -0.5 * cmath.exp(1j * r12) / r12
    d = detuning + 0.5j
    det = d * d - g * g
    Minv = np.array([[d, g], [g, d]]) / det
    ph_in = np.exp(1j * pos @ k_in)
    ph_out = np.exp(-1j * pos @ k_out)
    return -0.5 * (ph_out @ Minv @ ph_in)


def _vector_pair_oracle(pos, detuning, k_in, e_in, k_out, e_out):
    """Direct 6x6 inversion for the vector pair amplitude."""
    D = 0.75 * mi.field_green_tensor(pos[0] - pos[1])
    M = np.zeros((6, 6), dtype=complex)
    M[:3, :3] = M[3:, 3:] = (detuning + 0.5j) * np.eye(3)
    M[:3, 3:] = -D
    M[3:, :3] = -D.T
    src = np.concatenate([np.exp(1j * pos[0] @ k_in) * e_in,
                          np.exp(1j * pos[1] @ k_in) * e_in]).astype(complex)
    ext = np.concatenate([np.exp(-1j * pos[0] @ k_out) * np.conj(e_out),
                          np.exp(-1j * pos[1] @ k_out) * np.conj(e_out)])
    return -0.75 * (ext @ np.linalg.solve(M, src))


def test_pair_amplitudes_match_inversion_oracles():
    pos = np.array([[0.1, -0.2, 0.0], [0.5, 0.4, 0.9]])
    k_out = np.array([0.6, 0.0, 0.8])
    e_out = np.array([0.0, 1.0, 0.0])
    for d in np.linspace(-10, 10, 200):
        cs = mi.DipoleSolver(
            mi.Configuration(pos, model="scalar"), d)
        f = cs.scattering_amplitude(K_IN, None, k_out)
        assert abs(f - _scalar_pair_oracle(pos, d, K_IN, k_out)) < 1e-12
        cv = mi.DipoleSolver(mi.Configuration(pos), d)
        fv = cv.scattering_amplitude(K_IN, E_X, k_out, e_out)
        assert abs(fv - _vector_pair_oracle(pos, d, K_IN, E_X,
                                            k_out, e_out)) < 1e-12


def test_reciprocity():
    rng = np.random.default_rng(5)
    cfg = mi.random_ball_configuration(8, 3.0, rng)
    sol = mi.DipoleSolver(cfg, 0.4)
    k_out = np.array([0.6, 0.0, 0.8])
    e_out = np.array([0.0, 1.0, 0.0])
    f1 = sol.scattering_amplitude(K_IN, E_X, k_out, e_out)
    f2 = sol.scattering_amplitude(-k_out, e_out, -K_IN, E_X)
    assert abs(f1 - f2) < 1e-12


def test_optical_theorem_closure_single_atom():
    cfg = mi.Configuration(np.zeros((1, 3)))
    sol = mi.DipoleSolver(cfg, 0.0)
    q0 = sol.total_cross_section(K_IN, E_X)
    nodes, w = np.polynomial.legendre.leggauss(24)
    total = 0.0
    nphi = 48
    for ct, wt in zip(nodes, w):
        st = math.sqrt(1 - ct * ct)
        for phi in np.linspace(0, 2 * math.pi, nphi, endpoint=False):
            ko = np.array([st * math.cos(phi), st * math.sin(phi), ct])
            total += wt * (2 * math.pi / nphi) * \
                sol.differential_cross_section(K_IN, E_X, ko)
    assert total == pytest.approx(q0, rel=1e-3)


def test_dipole_radiation_pattern():
    cfg = mi.Configuration(np.zeros((1, 3)))
    sol = mi.DipoleSolver(cfg, 0.0)
    peak = sol.differential_cross_section(K_IN, E_X, np.array([0, 0, 1.0]))
    for theta in (0.4, 1.0, 1.4):
        ko = np.array([math.sin(theta), 0.0, math.cos(theta)])
        # pattern 1 - |k'.e|^2 for linear e along x
        expect = peak * (1 - ko[0] ** 2)
        got = sol.differential_cross_section(K_IN, E_X, ko)
        assert got == pytest.approx(expect, rel=1e-10)


def test_pair_spectrum_shows_shifted_resonances():
    cfg = mi.Configuration(np.array([[0, 0, 0], [0, 0, 0.5]]))
    lam = np.linalg.eigvals(mi.build_effective_hamiltonian(cfg, 0.0))
    # resonances of the spectrum sit at detunings -Re(lambda) (E = 0)
    expected = np.unique(np.round(-lam.real, 6))
    ds = np.linspace(-3, 3, 1201)
    q = [mi.DipoleSolver(cfg, d).total_cross_section(K_IN, E_X) for d in ds]
    q = np.array(q)
    peaks = [ds[i] for i in range(1, len(ds) - 1)
             if q[i] > q[i - 1] and q[i] > q[i + 1]]
    for p in peaks:
        assert np.min(np.abs(expected - p)) < 0.05


def test_scalar_vector_dilute_agreement():
    rng = np.random.default_rng(11)
    n, radius = 40, 10.0  # density ~ 9.5e-3
    scale = math.sqrt(2.0 / 3.0)  # equalize resonant optical depth
    acc_s = mi.RunningAverage()
    acc_v = mi.RunningAverage()
    for _ in range(40):
        pos = mi.random_ball_configuration(n, radius, rng).positions
        qs = mi.DipoleSolver(
            mi.Configuration(pos * scale, model="scalar"), 0.0
        ).total_cross_section(K_IN)
        qv = mi.DipoleSolver(
            mi.Configuration(pos), 0.0).total_cross_section(K_IN, E_X)
        acc_s.push([qs / (4 * math.pi)])
        acc_v.push([qv / (6 * math.pi)])
    # normalized to each model's own single-atom resonant value and at
    # matched optical depth, the collective suppression matches between
    # the two models at dilute density
    assert acc_s.mean[0] == pytest.approx(acc_v.mean[0], rel=0.10)


def test_self_consistent_dilute_limit():
    assert mi.self_consistent_epsilon(0.0, 1.0).epsilon == 1.0
    eps = mi.self_consistent_epsilon(1e-3, 0.0)
    chi_dilute = -(0.75e-3) / 0.5j
    assert abs(eps.chi - chi_dilute) / abs(chi_dilute) < 0.02
    # dilute spectrum: Lorentzian of half-width 1/2 whose peak sits at the
    # first-order displacement of the closed equation.  Expanding to first
    # order in the density, the local-field term moves the pole by
    # -(4 pi/3) A while the collective radiation term contributes +2 pi A
    # to the position and an absorption slope that drags the maximum of
    # Im(chi) further up, to Delta* = (5 pi/3) A with A = (3/4) n0.
    shift = (5 * math.pi / 3) * 0.75e-3
    ds = np.linspace(-0.1, 0.1, 4001)
    ims = np.array([mi.self_consistent_epsilon(1e-3, d).chi.imag for d in ds])
    peak = ds[np.argmax(ims)]
    assert peak == pytest.approx(shift, abs=0.01 * 0.5)


def test_self_consistent_blue_shift_at_dense():
    ds = np.linspace(-2, 2, 161)
    ims = [mi.self_consistent_epsilon(0.05, d).chi.imag for d in ds]
    assert ds[int(np.argmax(ims))] > 0


def test_self_consistent_sweep_continuity():
    ds = np.linspace(-5, 5, 201)
    chi_prev = None
    for d in ds:
        eps = mi.self_consistent_epsilon(0.05, d, chi_start=chi_prev)
        if chi_prev is not None:
            assert abs(eps.chi - chi_prev) < 0.1
        chi_prev = eps.chi


def test_slab_trivials():
    t = mi.slab_transmission(1.0 + 0j, 5.0)
    assert t.transmittance == pytest.approx(1.0, abs=1e-14)
    assert t.amplitude == pytest.approx(cmath.exp(5j), abs=1e-12)
    assert mi.slab_transmission(3.0 + 0.2j, 0.0).amplitude == 1.0


def _transfer_matrix_oracle(eps, L):
    """Independent interface/propagation transfer-matrix product."""
    n = cmath.sqrt(eps)
    r01 = (1 - n) / (1 + n)
    t01 = 2 / (1 + n)
    r10 = -r01
    t10 = 2 * n / (1 + n)
    I01 = np.array([[1, r01], [r01, 1]], dtype=complex) / t01
    I10 = np.array([[1, r10], [r10, 1]], dtype=complex) / t10
    P = np.diag([cmath.exp(-1j * n * L), cmath.exp(1j * n * L)])
    M = I01 @ P @ I10
    return 1.0 / M[0, 0]


def test_slab_against_transfer_matrix_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        eps = 1 + rng.uniform(-0.5, 2.0) + 1j * rng.uniform(0, 1.0)
        L = rng.uniform(0.1, 20.0)
        t = mi.slab_transmission(eps, L).amplitude
        assert abs(t - _transfer_matrix_oracle(eps, L)) < 1e-12


def test_slab_beer_law_dilute():
    n0 = 1e-3
    eps = mi.self_consistent_epsilon(n0, 0.0)
    L = 20.0
    T2 = mi.slab_transmission(eps.epsilon, L).transmittance
    beer = math.exp(-n0 * 6 * math.pi * L)
    assert T2 == pytest.approx(beer, rel=0.01)


def test_random_configurations_respect_floor():
    rng = np.random.default_rng(7)
    for maker, arg in ((mi.random_ball_configuration, 5.0),
                       (mi.gaussian_configuration, 3.0)):
        cfg = maker(40, arg, rng)
        pos = cfg.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=-1))
        dist[np.arange(40), np.arange(40)] = np.inf
        assert dist.min() > cfg.contact_floor


def test_running_average_matches_numpy():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(50, 4))
    acc = mi.RunningAverage()
    for row in data:
        acc.push(row)
    assert np.allclose(acc.mean, data.mean(axis=0))
    assert np.allclose(acc.stderr, data.std(axis=0, ddof=1) / math.sqrt(50))
