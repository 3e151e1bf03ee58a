import cmath
import math

import numpy as np
import pytest
from scipy.special import erf

from coldscatter import propagation as pr
from coldscatter.medium import transverse_decompose


def random_real_director(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def test_phase_integrals_vacuum():
    seg = pr.RaySegment([0, 0, 0], [0, 0, 10.0])
    phi0, phi = pr.phase_integrals(seg, lambda p: (0.0, 0.0))
    assert phi0 == 0.0 and phi == 0.0


def test_phase_integrals_homogeneous():
    chi0 = 0.01 + 0.002j
    chil = 0.003 - 0.001j
    L = 7.3
    seg = pr.RaySegment([1, 2, 3], np.array([1, 2, 3]) + L * np.array([0, 1, 0.0]))
    phi0, phi = pr.phase_integrals(seg, lambda p: (chi0, chil))
    assert phi0 == pytest.approx(2 * math.pi * chi0 * L, rel=1e-12)
    assert phi == pytest.approx(2 * math.pi * chil * L, rel=1e-12)


def test_phase_integrals_gaussian_chord_erf_oracle():
    chi_pk = 0.004 + 0.001j
    r0 = 3.0
    L = 12.0
    seg = pr.RaySegment([0, 0, -L], [0, 0, L])

    def sampler(p):
        return chi_pk * math.exp(-np.dot(p, p) / (2 * r0 ** 2)), 0.0

    phi0, _ = pr.phase_integrals(seg, sampler, rtol=1e-12)
    exact = 2 * math.pi * chi_pk * math.sqrt(2 * math.pi) * r0 * erf(
        L / (math.sqrt(2) * r0))
    assert abs(phi0 - exact) / abs(exact) < 1e-10


def test_phase_integrals_nonconvergence_raises():
    seg = pr.RaySegment([0, 0, 0], [0, 0, 1.0])

    def rough(p):
        # oscillation far faster than the refinement budget allows
        return math.sin(4e3 * p[2]), 0.0

    with pytest.raises(pr.QuadratureError):
        pr.phase_integrals(seg, rough, rtol=1e-14, max_depth=5)


def test_amplitude_matrix_isotropic_branch():
    X = pr.amplitude_matrix(0.3 + 0.1j, 0.0, None)
    assert np.allclose(X, cmath.exp(1j * (0.3 + 0.1j)) * np.eye(2))
    X2 = pr.amplitude_matrix(0.0, 0.0, None)
    assert np.allclose(X2, np.eye(2))


def test_amplitude_matrix_unitarity_lossless():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        phi0, phi = rng.normal(size=2)
        n = random_real_director(rng)
        X = pr.amplitude_matrix(phi0, phi, n)
        assert np.max(np.abs(X.conj().T @ X - np.eye(2))) < 1e-12


def test_amplitude_matrix_matrix_exponential_identity():
    # X = e^{i phi0} exp(-i phi n.sigma) with the documented sigma labeling
    from scipy.linalg import expm
    rng = np.random.default_rng(23)
    for _ in range(50):
        phi0 = rng.normal() + 1j * rng.normal() * 0.1
        phi = rng.normal() + 1j * rng.normal() * 0.1
        n = random_real_director(rng)
        # the director labeling pairs (n_x, n_y, n_z) with (sz, -sx, sy)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        ns = n[0] * sz - n[1] * sx + n[2] * sy
        X = pr.amplitude_matrix(phi0, phi, n)
        oracle = cmath.exp(1j * phi0) * expm(-1j * phi * ns)
        assert np.max(np.abs(X - oracle)) < 1e-10


def test_amplitude_matrix_norm_bound():
    rng = np.random.default_rng(29)
    for _ in range(200):
        phi0 = rng.normal() + 1j * rng.normal()
        phi = rng.normal() + 1j * rng.normal()
        n = random_real_director(rng)
        X = pr.amplitude_matrix(phi0, phi, n)
        bound = math.exp(abs(phi0.imag) + abs(phi.imag))
        assert np.linalg.norm(X, 2) <= bound * (1 + 1e-12)


def test_amplitude_matrix_semigroup():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = random_real_director(rng) + 0.05j * rng.normal(size=3)
        n = n / np.sqrt(np.sum(n * n))  # bilinear normalization
        p0a, pa = rng.normal(size=2) + 0.1j * rng.normal(size=2)
        p0b, pb = rng.normal(size=2) + 0.1j * rng.normal(size=2)
        Xa = pr.amplitude_matrix(p0a, pa, n)
        Xb = pr.amplitude_matrix(p0b, pb, n)
        Xab = pr.amplitude_matrix(p0a + p0b, pa + pb, n)
        assert np.max(np.abs(Xb @ Xa - Xab)) < 1e-10


def test_director_components_bilinear_norm():
    rng = np.random.default_rng(37)
    for _ in range(50):
        chi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        tc = transverse_decompose(chi, rng.normal(size=3))
        n = pr.director_components(tc)
        if n is not None:
            assert np.sum(n * n) == pytest.approx(1.0 + 0j, abs=1e-10)


def test_propagate_path_homogeneous_isotropic_beer():
    chi0 = 0.0005 + 0.0008j
    chi = chi0 * np.eye(3)
    l_ex = 1.0 / (4 * math.pi * chi0.imag)
    R = 5 * l_ex
    X, frame = pr.propagate_path(lambda p: chi, [0, 0, 0], [0, 0, 1], R)
    # Beer attenuation of the amplitude: e^{-R/2l_ex}
    expect = math.exp(-R / (2 * l_ex))
    assert abs(X[0, 0]) == pytest.approx(expect, rel=1e-10)
    assert abs(X[1, 1]) == pytest.approx(expect, rel=1e-10)
    assert abs(X[0, 1]) < 1e-14


def test_propagate_path_splitting_invariance():
    rng = np.random.default_rng(41)
    base = rng.normal(size=(3, 3)) * 0.001 + 1j * rng.normal(size=(3, 3)) * 0.0005

    def chi(p):
        mod = 1.0 + 0.3 * math.sin(0.05 * p[2]) + 0.1 * math.cos(0.04 * p[0])
        return base * mod

    X1, _ = pr.propagate_path(chi, [0.3, -0.2, 0], [0.1, 0.2, 1.0], 40.0,
                              max_segment=10.0)
    X2, _ = pr.propagate_path(chi, [0.3, -0.2, 0], [0.1, 0.2, 1.0], 40.0,
                              max_segment=1.25)
    assert np.max(np.abs(X1 - X2)) < 1e-9
