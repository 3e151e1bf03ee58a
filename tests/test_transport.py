import itertools
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from coldscatter import transport as tr


def test_diffusion_constant():
    m = tr.DiffusionModel(v_bar=0.5, l0_bar=2.0)
    assert tr.diffusion_constant(m) == pytest.approx(2.0 * 0.5 / 3.0)


def test_rayleigh_dipole_anisotropy_zero():
    # <cos theta> of the dipole pattern 1 - |k'.e|^2 vanishes by symmetry
    nodes, w = np.polynomial.legendre.leggauss(64)
    num = 0.0
    den = 0.0
    for ct, wt in zip(nodes, w):
        st = math.sqrt(1 - ct * ct)
        for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            k = np.array([st * math.cos(phi), st * math.sin(phi), ct])
            pat = 1.0 - k[0] ** 2  # e along x, propagation along z
            num += wt * pat * ct
            den += wt * pat
    assert abs(num / den) < 1e-12


def test_sphere_fundamental_mode_absorbing():
    m = tr.DiffusionModel(v_bar=1.0, l0_bar=1.0, r0=30.0)
    D = tr.diffusion_constant(m)
    mode = tr.solve_gain_diffusion_sphere(m)
    expect = -D * math.pi ** 2 / m.r0 ** 2
    assert mode.growth_rate == pytest.approx(expect, rel=5e-3)


@pytest.mark.parametrize("l_g, v_bar",
                         itertools.product((0.5, 9.5, 1e4), (0.3, 1.0)))
def test_sphere_rate_vanishes_at_letokhov_radius(l_g, v_bar):
    l_tr = 1.3
    m = tr.DiffusionModel(v_bar=v_bar, l0_bar=l_tr, l_g=l_g,
                          r0=tr.letokhov_threshold(l_tr, l_g))
    diffusion_rate = tr.diffusion_constant(m) * math.pi ** 2 / m.r0 ** 2
    rate = tr.solve_gain_diffusion_sphere(m).growth_rate
    assert abs(rate) <= 1e-12 * diffusion_rate


def test_letokhov_threshold_formula():
    assert tr.letokhov_threshold(2.0, 2.0) == pytest.approx(
        2.0 * math.pi / math.sqrt(3.0))
    assert tr.letokhov_threshold(1.0, 1e12) > 1e5
    with pytest.raises(ValueError):
        tr.letokhov_threshold(0.0, 1.0)
    # NaN fails every comparison
    for args in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="lengths must be positive"):
            tr.letokhov_threshold(*args)


def test_letokhov_threshold_monotone():
    vals_g = [tr.letokhov_threshold(1.0, lg) for lg in (1, 2, 5, 10)]
    vals_t = [tr.letokhov_threshold(lt, 3.0) for lt in (1, 2, 5, 10)]
    assert all(b > a for a, b in zip(vals_g, vals_g[1:]))
    assert all(b > a for a, b in zip(vals_t, vals_t[1:]))


def test_sphere_instability_crossing_matches_letokhov():
    l_tr, l_g = 1.0, 12.0
    r_star = tr.letokhov_threshold(l_tr, l_g)

    def rate(r0):
        m = tr.DiffusionModel(v_bar=1.0, l0_bar=l_tr, l_g=l_g, r0=r0)
        return tr.solve_gain_diffusion_sphere(m).growth_rate

    assert rate(0.95 * r_star) < 0
    assert rate(1.05 * r_star) > 0
    # bisect the sign change and compare to the closed-form radius
    lo, hi = 0.9 * r_star, 1.1 * r_star
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if rate(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(r_star, rel=0.02)


# The closed-form rate is checked against an independent discretisation:
# radial finite differences on u = r W at r_j = j r0/(n+1), with u(0) =
# u(r0) = 0, whose top eigenvalue lies above the continuum rate by the
# sine-grid gap D (pi^2/r0^2 - (4/h^2) sin^2(pi/(2(n+1)))).

def _dense_sphere_operator(m, n):
    """Reference dense FD operator on u = r W, absorbing edge u(r0) = 0."""
    D = tr.diffusion_constant(m)
    v = m.v_bar
    g = v / m.l_g - v * (1.0 - m.albedo) / m.l0_bar
    h = m.r0 / (n + 1)
    A = (np.diag(np.full(n, g - 2 * D / h ** 2))
         + np.diag(np.full(n - 1, D / h ** 2), 1)
         + np.diag(np.full(n - 1, D / h ** 2), -1))
    return A, h * np.arange(1, n + 1)


def _grid_gap(m, n):
    """Top grid eigenvalue minus the continuum rate, for n grid points."""
    h = m.r0 / (n + 1)
    return tr.diffusion_constant(m) * (
        math.pi ** 2 / m.r0 ** 2
        - (4.0 / h ** 2) * math.sin(math.pi / (2 * (n + 1))) ** 2)


def test_eigenvalue_grid_convergence():
    # the 200- and 400-point grid eigenvalues converge on the closed-form
    # rate from above, at second order in the grid spacing
    m = tr.DiffusionModel(v_bar=1.0, l0_bar=1.0, r0=15.0)
    rate = tr.solve_gain_diffusion_sphere(m).growth_rate
    err = [np.linalg.eigvalsh(_dense_sphere_operator(m, n)[0])[-1] - rate
           for n in (200, 400)]
    assert 0 < err[1] < err[0]
    assert err[0] / err[1] == pytest.approx((401 / 201) ** 2, rel=1e-3)
    assert err[1] / abs(rate) < 5e-3


def test_sphere_absorbing_matches_exact_discrete_eigenvalue():
    n = 400
    # strong gain keeps the eigenvalue well away from the cancellation
    # floor eps * |A| of any eigensolver
    m = tr.DiffusionModel(v_bar=1.0, l0_bar=1.5, albedo=0.9, l_g=0.5,
                          r0=12.0)
    D = tr.diffusion_constant(m)
    g = m.v_bar / m.l_g - m.v_bar * (1 - m.albedo) / m.l0_bar
    h = m.r0 / (n + 1)
    # top eigenvalue of tridiag(1, -2, 1): 2 cos(pi/(n+1)) - 2
    exact = g - (D / h ** 2) * 4 * math.sin(math.pi / (2 * (n + 1))) ** 2
    got = tr.solve_gain_diffusion_sphere(m).growth_rate
    # the grid sits above the continuum by D pi^4/(12 (n+1)^2 r0^2) to
    # leading order in the spacing
    leading = D * math.pi ** 4 / (12 * (n + 1) ** 2 * m.r0 ** 2)
    assert exact - got == pytest.approx(leading, rel=1e-4)


@pytest.mark.parametrize("r0", [5.0, 20.0])
def test_sphere_mode_matches_dense_eigensolve(r0):
    n = 300
    m = tr.DiffusionModel(v_bar=0.8, l0_bar=1.0, albedo=0.95, l_g=12.0,
                          r0=r0)
    A, r = _dense_sphere_operator(m, n)
    scale = np.max(np.abs(A).sum(axis=1))
    lam, u = np.linalg.eigh(A)
    rate = tr.solve_gain_diffusion_sphere(m).growth_rate
    assert abs(rate + _grid_gap(m, n) - lam[-1]) <= 1e-12 * scale
    # the top eigenvector is the stated mode, u = r W with W = sin(pi r/r0)/r
    u = u[:, -1] if u[:, -1].sum() > 0 else -u[:, -1]
    oracle = np.sin(math.pi * r / r0)
    np.testing.assert_allclose(u, oracle / np.linalg.norm(oracle),
                               rtol=1e-9, atol=1e-12)


def _assert_matches_lapack(m, n):
    """Closed-form rate against scipy's tridiagonal eigensolver on n points."""
    A, _ = _dense_sphere_operator(m, n)
    lam = eigh_tridiagonal(np.diag(A), np.diag(A, 1), eigvals_only=True,
                           select="i", select_range=(n - 1, n - 1))
    rate = tr.solve_gain_diffusion_sphere(m).growth_rate
    assert abs(rate + _grid_gap(m, n) - lam[0]) <= (
        1e-12 * np.abs(A).sum(1).max())


@pytest.mark.parametrize("n_grid", [2, 3, 8, 101, 400])
def test_sphere_closed_form_matches_lapack(n_grid):
    for r0, l_g, albedo, v_bar in itertools.product(
            (12.0, 30.0), (0.5, 9.5, math.inf), (0.8, 1.0), (0.3, 1.0)):
        m = tr.DiffusionModel(v_bar=v_bar, l0_bar=1.0, albedo=albedo,
                              l_g=l_g, r0=r0)
        _assert_matches_lapack(m, n_grid)


def test_sphere_closed_form_matches_lapack_on_benchmark_sweep():
    # the analytic workload's diffusion-threshold sweep: l_tr = 1,
    # l_g = 9.5, radii bracketing the Letokhov radius
    for r0 in np.linspace(4.4, 6.8, 41):
        m = tr.DiffusionModel(v_bar=1.0, l0_bar=1.0, l_g=9.5, r0=float(r0))
        _assert_matches_lapack(m, 400)


def test_sphere_near_threshold_with_radius_far_below_l_tr():
    # at r0 << l_tr the rate balances gain against D pi^2/r0^2 ~ 3e4, not
    # v/l_tr = 1; the sign changes once between r0 = 0.0099 and 0.0100
    rates = [tr.solve_gain_diffusion_sphere(tr.DiffusionModel(
        l0_bar=1.0, l_g=3e-5, r0=r0)).growth_rate
        for r0 in (0.0099, 0.00993, 0.0100)]
    assert rates[0] < 0.0 < rates[2]
    assert rates[0] < rates[1] < rates[2]


@pytest.mark.parametrize("field, value", [
    ("r0", math.nan), ("r0", math.inf), ("r0", 0.0),
    ("v_bar", math.nan), ("v_bar", math.inf), ("v_bar", -1.0),
    ("l0_bar", math.nan), ("l0_bar", math.inf), ("l0_bar", 0.0),
    ("albedo", math.nan), ("albedo", 1.5),
    ("l_g", math.nan), ("l_g", -math.inf), ("l_g", 0.0), ("l_g", -9.5),
])
def test_diffusion_model_rejects_invalid_field(field, value):
    with pytest.raises(ValueError, match=field):
        tr.DiffusionModel(**{field: value})
