import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from coldscatter import microdipole as mi
from coldscatter.config import parse_text
from coldscatter.scenarios import run_scenario


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


def test_field_green_tensor_matches_scipy_bessel_reference():
    # closed-form Hankel functions against scipy's from the contact floor
    # to the far field; Im D holds j0 and j2, and j2 cancels at small x
    x = np.geomspace(0.05, 1000.0, 2001)
    rng = np.random.default_rng(7)
    u = rng.normal(size=(x.size, 3))
    R = u / np.linalg.norm(u, axis=1)[:, None] * x[:, None]
    r = np.linalg.norm(R, axis=1)[:, None, None]
    h0 = spherical_jn(0, r) + 1j * spherical_yn(0, r)
    h2 = spherical_jn(2, r) + 1j * spherical_yn(2, r)
    rr = R[:, :, None] * R[:, None, :] / r ** 2
    eye = np.eye(3)
    oracle = -(1j * (2 / 3) * h0 * eye + (rr - eye / 3) * 1j * h2)
    D = mi.field_green_tensor(R)
    err = np.abs(D - oracle).max(axis=(1, 2))
    assert np.all(err <= 2e-15 * np.abs(oracle).max(axis=(1, 2)))
    assert np.abs(D.imag - oracle.imag).max() <= 1e-12


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


@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (2, 3, 1)])
def test_configuration_rejects_positions_not_n_by_3(shape):
    with pytest.raises(ValueError,
                       match=r"positions must be an \(N, 3\) array"):
        mi.Configuration(np.zeros(shape))


def test_configuration_rejects_an_unknown_model():
    with pytest.raises(ValueError, match="unknown model 'tensor'"):
        mi.Configuration(np.zeros((1, 3)), model="tensor")


def test_configuration_equality_and_hash_by_identity():
    pos = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    a, b = mi.Configuration(pos), mi.Configuration(pos)
    assert a == a
    assert a != b
    table = {a: "a", b: "b"}
    assert table[a] == "a" and table[b] == "b"


def test_configuration_contact_floor():
    with pytest.raises(ValueError, match="contact floor"):
        mi.Configuration(np.array([[0, 0, 0], [0.01, 0, 0.0]]))
    # exactly at the floor is also rejected
    with pytest.raises(ValueError):
        mi.Configuration(np.array([[0, 0, 0], [0.05, 0, 0.0]]))
    mi.Configuration(np.array([[0, 0, 0], [0.051, 0, 0.0]]))


def test_contact_error_names_every_atom_within_the_floor():
    # two separate close pairs, (0, 1) and (2, 3); atom 4 is clear.  The
    # message names the closest atom, and the error carries all four, the
    # atoms a random draw redraws
    pos = np.array([[0, 0, 0], [0, 0, 0.03], [5, 0, 0], [5, 0.04, 0],
                    [0, 5, 0.0]])
    with pytest.raises(ValueError) as exc:
        mi.Configuration(pos)
    assert str(exc.value) == ("atom 0 is 0.03 from its nearest neighbour, "
                              "below the contact floor 0.05")
    assert sorted(exc.value.atoms.tolist()) == [0, 1, 2, 3]


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


def _summed_cross_section(sol, k_in, e_in, k_out):
    """dsigma/dOmega summed over two transverse exit polarizations."""
    ko = k_out / np.linalg.norm(k_out)
    e1 = np.zeros(3)
    e1[np.argmin(np.abs(ko))] = 1.0
    e1 = e1 - (e1 @ ko) * ko
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(ko, e1)
    return sum(abs(sol.scattering_amplitude(k_in, e_in, k_out, e)) ** 2
               for e in (e1, e2))


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
                _summed_cross_section(sol, K_IN, E_X, ko)
    assert total == pytest.approx(q0, rel=1e-3)


def test_dipole_radiation_pattern():
    cfg = mi.Configuration(np.zeros((1, 3)))
    sol = mi.DipoleSolver(cfg, 0.0)
    peak = _summed_cross_section(sol, K_IN, E_X, np.array([0, 0, 1.0]))
    for theta in (0.4, 1.0, 1.4):
        ko = np.array([math.sin(theta), 0.0, math.cos(theta)])
        # pattern 1 - |k'.e|^2 for linear e along x
        expect = peak * (1 - ko[0] ** 2)
        got = _summed_cross_section(sol, K_IN, E_X, ko)
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
    qs_all, qv_all = [], []
    for _ in range(40):
        pos = mi.random_ball_configuration(n, radius, rng).positions
        qs = mi.DipoleSolver(
            mi.Configuration(pos * scale, model="scalar"), 0.0
        ).total_cross_section(K_IN)
        qv = mi.DipoleSolver(
            mi.Configuration(pos), 0.0).total_cross_section(K_IN, E_X)
        qs_all.append(qs / (4 * math.pi))
        qv_all.append(qv / (6 * math.pi))
    # normalized to each model's own single-atom resonant value and at
    # matched optical depth, the collective suppression matches between
    # the two models at dilute density
    assert np.mean(qs_all) == pytest.approx(np.mean(qv_all), rel=0.10)


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
        eps = mi.self_consistent_epsilon(0.05, d)
        if chi_prev is not None:
            assert abs(eps.chi - chi_prev) < 0.1
        chi_prev = eps.chi


# 0 and a log grid of +-Delta over [1e-3, 1e4]
_LOG_DETUNINGS = np.concatenate(
    [-np.logspace(-3, 4, 71)[::-1], [0.0], np.logspace(-3, 4, 71)])


@pytest.mark.parametrize("n0s", [1e-6, 1e-3, 0.05, 0.08])
def test_self_consistent_satisfies_closed_equation(n0s):
    res = mi.self_consistent_epsilon(n0s, _LOG_DETUNINGS)
    for d, chi in zip(_LOG_DETUNINGS, res.chi):
        s = cmath.sqrt(1.0 + 4.0 * math.pi * chi)
        lhs = chi * (d + 0.5j * s)
        rhs = -0.75 * n0s * (1.0 + (4.0 * math.pi / 3.0) * chi)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (d, chi)
        assert s.real > 0


def test_self_consistent_array_matches_scalar_calls():
    ds = np.concatenate([_LOG_DETUNINGS, np.linspace(-5, 5, 101)])
    for n0s in (0.0, 1e-6, 0.05, 0.08):
        res = mi.self_consistent_epsilon(n0s, ds)
        assert res.epsilon.shape == res.chi.shape == ds.shape
        for i, d in enumerate(ds):
            one = mi.self_consistent_epsilon(n0s, float(d))
            assert one.epsilon == res.epsilon[i]
            assert one.chi == res.chi[i]


@pytest.mark.parametrize("n0s, delta", [(0.1, 0.68), (0.2, 0.8), (0.2, 1.2)])
def test_self_consistent_raises_where_no_physical_root(n0s, delta):
    # all three roots of the cubic lie on the imaginary sqrt(eps) axis
    with pytest.raises(ArithmeticError, match=f"detuning={delta}"):
        mi.self_consistent_epsilon(n0s, [-1.0, delta, 2.0])


def test_self_consistent_root_exists_up_to_n0s_008():
    ds = np.linspace(-50, 50, 10001)
    for n0s in (1e-4, 0.02, 0.05, 0.08):
        mi.self_consistent_epsilon(n0s, ds)


@pytest.mark.parametrize("n0s", [-1e-3, math.inf, math.nan])
def test_self_consistent_rejects_bad_density(n0s):
    with pytest.raises(ValueError):
        mi.self_consistent_epsilon(n0s, 0.0)


def test_slab_array_matches_scalar_calls_and_principal_branch():
    rng = np.random.default_rng(5)
    eps = np.concatenate([[-4.0, -0.5, 2.5],
                          1 + rng.uniform(-0.5, 2.0, 20)
                          + 1j * rng.uniform(0, 1.0, 20)])
    L = 3.7
    amp = mi.slab_transmission(eps, L).amplitude
    for i, e in enumerate(eps):
        one = mi.slab_transmission(e, L).amplitude
        assert one == amp[i]
        assert abs(one - _transfer_matrix_oracle(e, L)) < 1e-12
    # a real negative eps takes the cmath principal branch, sqrt(-4) = 2i
    root = cmath.sqrt(-4.0)
    psi = L * root
    direct = 2 * root / (2 * root * cmath.cos(psi)
                         - 1j * (1 - 4.0) * cmath.sin(psi))
    assert mi.slab_transmission(-4.0, L).amplitude == \
        pytest.approx(direct, rel=1e-14)


def test_slab_trivials():
    t = mi.slab_transmission(1.0 + 0j, 5.0)
    assert t.transmittance == pytest.approx(1.0, abs=1e-14)
    assert t.amplitude == pytest.approx(cmath.exp(5j), abs=1e-12)
    assert mi.slab_transmission(3.0 + 0.2j, 0.0).amplitude == 1.0
    for L in (-1e-300, math.nan):
        with pytest.raises(ValueError, match="thickness must be non-negative"):
            mi.slab_transmission(1.0 + 0j, L)


@pytest.mark.parametrize("density, thickness", [
    (0.01, 1e4), (0.05, 3000.0), (0.001, 1e5), (0.05, 1e6)])
def test_thick_slab_transmittance_is_finite(density, thickness):
    # Im psi > ~710 overflows cos psi and sin psi, where the amplitude
    # itself underflows toward 0
    grid = np.linspace(-5.0, 5.0, 21)
    eps = mi.self_consistent_epsilon(density, grid).epsilon
    T = mi.slab_transmission(eps, thickness).transmittance
    assert np.isfinite(T).all()
    assert ((T >= 0.0) & (T <= 1.0)).all()


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
        assert dist.min() > mi.CONTACT_FLOOR


@pytest.mark.parametrize("model", ["vector", "scalar"])
@pytest.mark.parametrize("maker, size", [
    (mi.random_ball_configuration, 1.2),
    (mi.random_ball_configuration, 6.2),
    (mi.gaussian_configuration, 1.5),
])
@pytest.mark.parametrize("n_atoms", [1, 6, 50])
def test_spectrum_matches_lu_oracle(model, maker, size, n_atoms):
    rng = np.random.default_rng(n_atoms)
    conf = maker(n_atoms, size, rng, model=model)
    deltas = [-1000.0, -2.0, -0.4, 0.0, 0.25, 1.5, 1000.0]
    got = mi.cross_section_spectrum(conf, deltas, K_IN, E_X)
    ref = np.array([mi.DipoleSolver(conf, d).total_cross_section(K_IN, E_X)
                    for d in deltas])
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


def test_spectrum_rejects_non_finite_detuning():
    conf = mi.random_ball_configuration(6, 2.0, np.random.default_rng(1))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            mi.cross_section_spectrum(conf, [0.0, bad], K_IN, E_X)


def test_spectrum_raises_on_singular_system():
    # Delta + i/2 - H is exactly singular at Delta = +-1: the recurrence
    # gives x = (1, 1) there and row 1 times x is exactly 0
    h = np.array([[0.5j, 1.0], [1.0, 0.5j]], order="F")
    with pytest.raises(ArithmeticError, match=r"singular at detuning 1\.0"):
        mi._hessenberg_resolvent(h, np.array([0.0, 1.0, -1.0]))
    g11 = mi._hessenberg_resolvent(h, np.array([0.0, 2.0]))
    assert g11[0] == 0.0
    assert g11[1] == pytest.approx(np.linalg.inv(
        (2.0 + 0.5j) * np.eye(2) - h)[0, 0], rel=1e-15)


def test_hessenberg_resolvent_rescales_before_the_last_row():
    # a subdiagonal of 1e-300 makes x_1 ~ |Delta| 1e300; at |Delta| >= 1e7
    # d = (Delta + i/2) x_1 - ... overflows unless x is rescaled first, and
    # from |Delta| ~ 1e9 on x_1 itself does unless x_2 is scaled below 1
    h = np.array([[0.3 + 0.2j, 2.0], [1e-300, -0.7j]], order="F")
    deltas = np.array([0.0, 1e7, -3e7, 1e9, -1e10, 1e100])
    got = mi._hessenberg_resolvent(h, deltas)
    (a, b), (c, e) = h
    z = deltas + 0.5j
    ref = (z - e) / ((z - a) * (z - e) - b * c)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_hessenberg_resolvent_stops_at_zero_subdiagonal():
    # h[3, 2] = 0 leaves H block upper triangular: the recurrence stops
    # there, where dividing by that subdiagonal would give no finite x
    rng = np.random.default_rng(6)
    n = 7
    h = np.asfortranarray(rng.normal(size=(n, n))
                          + 1j * rng.normal(size=(n, n)))
    h[3, 2] = 0.0
    deltas = np.array([-3.0, -0.2, 0.0, 0.9, 40.0])
    got = mi._hessenberg_resolvent(h, deltas)
    upper = np.triu(h, -1)  # entries below the subdiagonal are ignored
    ref = np.array([np.linalg.inv((d + 0.5j) * np.eye(n) - upper)[0, 0]
                    for d in deltas])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_dense_spectrum_matches_lu_oracle():
    # N = 200 at n0 = 0.5 (n = 600 states): unscaled, the recurrence at
    # Delta = -40 grows past the largest float, so this needs rescaling
    n_atoms = 200
    radius = (3 * n_atoms / (4 * math.pi * 0.5)) ** (1 / 3)
    conf = mi.random_ball_configuration(n_atoms, radius,
                                        np.random.default_rng(200))
    deltas = [-40.0, 0.0, 0.7]
    got = mi.cross_section_spectrum(conf, deltas, K_IN, E_X)
    ref = np.array([mi.DipoleSolver(conf, d).total_cross_section(K_IN, E_X)
                    for d in deltas])
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


@pytest.mark.parametrize("model", ["vector", "scalar"])
def test_coupling_is_exactly_symmetric(model):
    conf = mi.random_ball_configuration(30, 3.0, np.random.default_rng(8),
                                        model=model)
    coupling = conf.coupling
    assert np.array_equal(coupling, coupling.T)
    assert not np.diagonal(coupling).any()


def test_coupling_peak_memory_is_bounded_by_its_result():
    # N = 600: a 51.8 MB (1800, 1800) result; staging all pairs' (3, 3)
    # tensors peaked at 3.1 times that, the component-wise build at 1.5
    conf = mi.random_ball_configuration(600, 7.0, np.random.default_rng(3))
    tracemalloc.start()
    try:
        coupling = conf.coupling
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * coupling.nbytes


def _dipole_spectrum(n_configs, n_atoms=6, radius=2.0, n_det=4, seed=3,
                     geometry="ball"):
    cfg = parse_text(
        "[run]\nscenario = coupled-dipole-spectrum\nseed = %d\n"
        "[dipole]\nn_atoms = %d\nradius = %r\nn_configs = %d\n"
        "geometry = %s\n[sweep]\nstart = -1\nstop = 1\nn = %d\n"
        % (seed, n_atoms, radius, n_configs, geometry, n_det))
    return cfg, run_scenario(cfg)


@pytest.mark.parametrize("n_configs, geometry", [
    pytest.param(1, "ball", id="1"),
    pytest.param(3, "ball", id="3"),
    # the radius is the Gaussian's per-axis standard deviation r0
    pytest.param(3, "gaussian", id="3-gaussian"),
])
def test_configuration_average_matches_per_configuration_spectra(n_configs,
                                                                 geometry):
    factory = mi.random_ball_configuration if geometry == "ball" \
        else mi.gaussian_configuration
    cfg, record = _dipole_spectrum(n_configs, geometry=geometry)
    deltas = [row.sweep_value for row in record.rows]
    rng = np.random.default_rng(cfg["run"]["seed"])
    spectra = np.array([
        mi.cross_section_spectrum(conf, deltas, K_IN, E_X)
        for conf in (factory(6, 2.0, rng) for _ in range(n_configs))])
    values = np.array([row.value for row in record.rows])
    errs = np.array([row.stat_err for row in record.rows])
    if n_configs == 1:
        assert np.array_equal(values, spectra[0])
        assert np.all(errs == math.inf)
    else:
        mean = np.mean(spectra, axis=0)
        sem = np.std(spectra, axis=0, ddof=1) / math.sqrt(n_configs)
        assert np.allclose(values, mean, rtol=1e-13, atol=0.0)
        assert np.allclose(errs, sem, rtol=1e-13, atol=0.0)


def test_configuration_average_memory_does_not_grow_with_n_configs():
    def peak(n_configs):
        tracemalloc.start()
        try:
            _dipole_spectrum(n_configs, n_atoms=60, radius=6.6, n_det=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.3 * peak(1)
