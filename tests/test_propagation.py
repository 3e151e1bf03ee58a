import cmath
import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import erf

from coldscatter import propagation as pr

SIGMA = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)


def pauli_matrix(chi0, chivec):
    """chi0 I + chivec . sigma in the standard sigma labelling."""
    return chi0 * np.eye(2) + np.tensordot(chivec, SIGMA, axes=1)


def lab_chi(chi0, chivec):
    """Lab-frame tensor whose transverse block seen along +z (local frame
    = lab frame) is chi0 I + chivec . sigma."""
    chi = chi0 * np.eye(3, dtype=complex)
    chi[:2, :2] = pauli_matrix(chi0, chivec)
    return chi


def oracle(phi0, phivec):
    return cmath.exp(1j * phi0) * expm(1j * np.tensordot(phivec, SIGMA,
                                                         axes=1))


def test_phase_integrals_vacuum():
    phi = pr.phase_integrals(lambda p: np.zeros(2), [0, 0, 0], [0, 0, 1],
                             10.0)
    assert np.array_equal(phi, np.zeros(2))


def test_phase_integrals_homogeneous():
    chi = np.array([0.01 + 0.002j, 0.003 - 0.001j, 0.0, -0.002j])
    L = 7.3
    # the direction need not be a unit vector
    phi = pr.phase_integrals(lambda p: chi, [1, 2, 3], [0, 2.5, 0], L)
    assert np.max(np.abs(phi - 2 * math.pi * chi * L)) < 1e-12 * abs(phi[0])


def test_phase_integrals_gaussian_chord_erf_oracle():
    chi_pk = 0.004 + 0.001j
    r0 = 3.0
    L = 12.0

    def sampler(p):
        return chi_pk * math.exp(-np.dot(p, p) / (2 * r0 ** 2))

    phi0 = pr.phase_integrals(sampler, [0, 0, -L], [0, 0, 1], 2 * L,
                              rtol=1e-12)
    exact = 2 * math.pi * chi_pk * math.sqrt(2 * math.pi) * r0 * erf(
        L / (math.sqrt(2) * r0))
    assert abs(phi0 - exact) / abs(exact) < 1e-10


def test_phase_integrals_nonconvergence_raises():
    def rough(p):
        # oscillation far faster than the refinement budget allows
        return math.sin(4e3 * p[2])

    with pytest.raises(pr.QuadratureError):
        pr.phase_integrals(rough, [0, 0, 0], [0, 0, 1], 1.0, rtol=1e-14,
                           max_depth=5)
    # a non-finite integrand fails at once, not after 2^max_depth samples
    with pytest.raises(pr.QuadratureError, match="residual nan"):
        pr.phase_integrals(lambda p: math.nan, [0, 0, 0], [0, 0, 1], 1.0)


@pytest.mark.parametrize("bad", [
    dict(length=-5.0), dict(length=math.nan), dict(length=math.inf),
    dict(direction=[0, 0, 0]), dict(direction=[0, math.nan, 1]),
    dict(direction=[math.inf, 0, 1])])
def test_ray_input_checks(bad):
    ray = dict(direction=[0, 0, 1], length=1.0) | bad
    chi = lab_chi(1e-3 + 1e-4j, [1e-4, 0, 0])
    with pytest.raises(ValueError):
        pr.propagate_path(lambda p: chi, [0, 0, 0], **ray)
    with pytest.raises(ValueError):
        pr.phase_integrals(lambda p: np.ones(4), [0, 0, 0], **ray)


def test_zero_length_ray_is_identity():
    chi = lab_chi(1e-3 + 1e-4j, [1e-4, 0, 0])
    X, _ = pr.propagate_path(lambda p: chi, [0, 0, 0], [1, 1, 0], 0.0)
    assert np.array_equal(X, np.eye(2))
    phi = pr.phase_integrals(lambda p: np.ones(4), [0, 0, 0], [1, 0, 0], 0)
    assert np.array_equal(phi, np.zeros(4))


@pytest.mark.parametrize("max_segment", [0.0, -1.0, math.nan])
def test_nonpositive_max_segment_raises(max_segment):
    chi = lab_chi(1e-3 + 1e-4j, [1e-4, 0, 0])
    with pytest.raises(ValueError):
        pr.propagate_path(lambda p: chi, [0, 0, 0], [0, 0, 1], 1.0,
                          max_segment=max_segment)


def test_amplitude_matrix_isotropic_branch():
    X = pr.amplitude_matrix(0.3 + 0.1j, np.zeros(3))
    assert np.allclose(X, cmath.exp(1j * (0.3 + 0.1j)) * np.eye(2))
    X2 = pr.amplitude_matrix(0.0, np.zeros(3))
    assert np.array_equal(X2, np.eye(2))


def test_amplitude_matrix_unitarity_lossless():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        X = pr.amplitude_matrix(rng.normal(), rng.normal(size=3))
        assert np.max(np.abs(X.conj().T @ X - np.eye(2))) < 1e-12


def test_amplitude_matrix_matrix_exponential_identity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        phi0 = rng.normal() + 1j * rng.normal() * 0.1
        phivec = rng.normal(size=3) + 1j * rng.normal(size=3)
        X = pr.amplitude_matrix(phi0, phivec)
        assert np.max(np.abs(X - oracle(phi0, phivec))) < 1e-10
        # a null vector (phivec . phivec = 0): phivec . sigma is nilpotent
        e1, e2 = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        null = (rng.normal() + 1j * rng.normal()) * (e1 + 1j * e2)
        assert abs(np.sum(null * null)) < 1e-12 * np.sum(abs(null) ** 2)
        X = pr.amplitude_matrix(phi0, null)
        assert np.max(np.abs(X - oracle(phi0, null))) < 1e-10


def test_amplitude_matrix_norm_bound():
    # ||exp(A)|| <= exp(max eig of (A + A^H)/2); for A = i phi0 + i phivec
    # . sigma that is -Im phi0 + |Im phivec|
    rng = np.random.default_rng(29)
    for _ in range(200):
        phi0 = rng.normal() + 1j * rng.normal()
        phivec = rng.normal(size=3) + 1j * rng.normal(size=3)
        X = pr.amplitude_matrix(phi0, phivec)
        bound = math.exp(-phi0.imag + np.linalg.norm(phivec.imag))
        assert np.linalg.norm(X, 2) <= bound * (1 + 1e-12)


def test_amplitude_matrix_semigroup():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = rng.normal(size=3) + 0.05j * rng.normal(size=3)
        p0a, pa = rng.normal(size=2) + 0.1j * rng.normal(size=2)
        p0b, pb = rng.normal(size=2) + 0.1j * rng.normal(size=2)
        Xa = pr.amplitude_matrix(p0a, pa * n)
        Xb = pr.amplitude_matrix(p0b, pb * n)
        Xab = pr.amplitude_matrix(p0a + p0b, (pa + pb) * n)
        assert np.max(np.abs(Xb @ Xa - Xab)) < 1e-10


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


# Media with commuting transverse tensors along a 4 lambda-bar ray on +z:
# (Pauli vector at z, its integral over [0, 4]).  The exact propagator is
# exp(2 pi i * integral of T dz).
CHI0 = 1e-4 + 2e-5j
_W = 1j * math.pi / 12  # 15 degrees per lambda-bar
COMMUTING_MEDIA = {
    # lossless linear birefringence whose sign flips mid-ray
    "sign-flip": (lambda z: [1e-3 * (z - 1), 0, 0], [4e-3, 0, 0]),
    # complex anisotropy of phase 60 + 15 z degrees: the phase of
    # chivec . chivec crosses the branch cut of the principal square root
    "branch-cut": (lambda z: [0, 0, 1e-3 * cmath.exp(1j * math.pi / 3 + _W * z)],
                   [0, 0, 1e-3 * cmath.exp(1j * math.pi / 3)
                    * (cmath.exp(4 * _W) - 1) / _W]),
    # chi_xy = 2e-3, chi_yx = 0: chivec . chivec = 0, yet not isotropic
    "nilpotent": (lambda z: [1e-3, 1e-3j, 0], [4e-3, 4e-3j, 0]),
}


@pytest.mark.parametrize("max_segment", [None, 0.3])
@pytest.mark.parametrize("medium", COMMUTING_MEDIA)
def test_propagate_path_exact_for_commuting_tensors(medium, max_segment):
    chivec, integral = COMMUTING_MEDIA[medium]
    X, _ = pr.propagate_path(lambda p: lab_chi(CHI0, chivec(p[2])),
                             [0, 0, 0], [0, 0, 1], 4.0,
                             max_segment=max_segment)
    exact = expm(2j * math.pi * pauli_matrix(4 * CHI0, integral))
    assert np.max(np.abs(X - exact)) < 1e-12


def test_propagate_path_twisted_medium_second_order():
    # linear birefringence a whose axis turns at 0.3 rad per lambda-bar:
    # the tensors along the ray do not commute
    a, chi0, L, twist = 4e-3, 1e-3 + 2e-4j, 30.0, 0.3

    def chivec(z):
        return a * np.array([np.sin(2 * twist * z), 0 * z,
                             np.cos(2 * twist * z)])

    n = 30_000
    z = (np.arange(n) + 0.5) * (L / n)
    steps = expm(2j * math.pi * (L / n) * pauli_matrix(chi0, chivec(z).T))
    exact = reduce(lambda X, step: step @ X, steps, np.eye(2))

    def error(max_segment):
        X, _ = pr.propagate_path(lambda p: lab_chi(chi0, chivec(p[2])),
                                 [0, 0, 0], [0, 0, 1], L,
                                 max_segment=max_segment)
        return np.max(np.abs(X - exact))

    # one segment: 0.032, where the midpoint-director rule gave 0.63
    assert error(None) < 0.05
    assert error(1.0) < error(5.0) / 10
