import importlib.util
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.special import exp1
from scipy.stats import kstest

from coldscatter.angular import Level, LevelScheme
from coldscatter.medium import (GroundState, extinction_cross_section,
                                kinetic_lengths, raman_shift,
                                scattering_tensors)
from coldscatter import mcscatter as mc

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
RECORDED = json.loads(regen.ENVIRONMENT.read_text(encoding="utf-8"))


def peak_depth(cloud):
    """Peak resonant optical depth b0 = sqrt(2 pi) n0 sigma0 r0."""
    return math.sqrt(2 * math.pi) * cloud.n0 * cloud.sigma0() * cloud.r0


def two_level_cloud(b0=5.0, r0=8.0):
    sch = LevelScheme.simple()
    n0 = b0 / (math.sqrt(2 * math.pi) * 6 * math.pi * r0)
    return mc.Cloud(scheme=sch, n0=n0, r0=r0)


@pytest.mark.parametrize("key", [(0, 0), (10, 3999), (2 ** 64 - 1, 12345),
                                 (123456789, 2 ** 63 + 7)])
def test_philox_matches_numpy_bit_for_bit(key):
    counters = [(0, 0, 0, 0), (1, 0, 0, 0), (7, 3, 2, 0),
                (2 ** 64 - 1, 0, 0, 0), (2 ** 64 - 1, 2 ** 64 - 1, 5, 9),
                (11, 22, 33, 2 ** 64 - 1)]
    for c in counters:
        # numpy's generator steps its counter by one before each block
        c_int = sum(w << (64 * i) for i, w in enumerate(c))
        ref = np.random.Philox(key=np.array(key, dtype=np.uint64),
                               counter=np.array(c, dtype=np.uint64)
                               ).random_raw(4)
        nxt = [(c_int + 1) >> (64 * i) & (2 ** 64 - 1) for i in range(4)]
        ours = mc._philox(np.array(key, dtype=np.uint64)[:, None],
                          np.array(nxt, dtype=np.uint64)[:, None])
        assert np.array_equal(ours[:, 0], ref)
    # the stream's uniforms are ((x >> 11) + 0.5) 2^-53 of those words
    raw = np.random.Philox(key=np.array(key, dtype=np.uint64),
                           counter=np.array([4, 1, 2, 0], dtype=np.uint64)
                           ).random_raw(4)
    expect = ((raw >> np.uint64(11)) + 0.5) * 2.0 ** -53
    assert np.array_equal(mc._uniforms(key[0], [key[1]], 5, 1, 2)[:, 0],
                          expect)


def test_order_block_matches_separate_draws():
    # a call draws slots 0 and 1 for every order of the range it is given
    # (here a range of one order); each block depends only on its counter
    traj = np.arange(50)
    fused = mc._uniforms(21, traj, 4, (0, 1))
    assert fused.shape == (4, 50, 2)
    for slot in (0, 1):
        assert np.array_equal(fused[:, :, slot],
                              mc._uniforms(21, traj, 4, slot))
    # and on its key: a trajectory drawn alone equals its row in a batch,
    # so results do not depend on the chunk a trajectory runs in
    for t in (0, 17, 49):
        assert np.array_equal(mc._uniforms(21, [t], 4, (0, 1))[:, 0],
                              fused[:, t])


def test_multi_order_draw_matches_per_order_draws():
    # one call draws slots 0 and 1 of a range of orders for every row it
    # is given, in the caller's order, repeated and sparse ids alike
    for traj in ([5, 3, 5, 9, 3, 3, 12, 0], [2 ** 40, 7, 2 ** 40]):
        orders = np.arange(2, 7)
        x = mc._uniforms(21, traj, orders[:, None], (0, 1))
        assert x.shape == (4, len(traj), len(orders), 2)
        for i, t in enumerate(traj):
            for j, o in enumerate(orders):
                assert np.array_equal(x[:, i, j],
                                      mc._uniforms(21, [t], o, (0, 1))[:, 0])
    # the beam entry of a repeated id matches its entry drawn alone
    cloud = mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.04, r0=8.0)
    traj = np.array([4, 1, 4, 4, 1])
    sigma = np.array([3.0, 5.0, 3.0, 7.0, 5.0])
    p = mc.sample_entry(cloud, sigma, 9, traj)
    for i in range(len(traj)):
        assert np.array_equal(
            p[i], mc.sample_entry(cloud, sigma[i], 9, traj[i:i + 1])[0])


def test_cloud_b0():
    # sigma0, which sets the peak depth b0, is the resonant extinction
    cloud = two_level_cloud(b0=5.0)
    assert cloud.sigma0() == pytest.approx(6 * math.pi)
    assert cloud.sigma0() == pytest.approx(
        extinction_cross_section(cloud.scheme, cloud.ground, None, 0.0),
        rel=1e-14)


def test_chord_depth_matches_quadrature():
    cloud = two_level_cloud()
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.normal(scale=5.0, size=3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        s_max = 12.0
        ss = np.linspace(0, s_max, 4001)
        # n0 exp(-|q|^2 / 2 r0^2) along the chord q = p + s u
        dens = [cloud.n0 * math.exp(-float(np.dot(q, q)) / (2 * cloud.r0 ** 2))
                for q in (p + s * u for s in ss)]
        quad = trapezoid(dens, ss) * 6 * math.pi
        assert mc.chord_depth(cloud, p, u, 6 * math.pi, s_max) == \
            pytest.approx(quad, rel=1e-6)


def test_chord_depth_stack_matches_single_directions():
    cloud = two_level_cloud()
    rng = np.random.default_rng(20)
    p = rng.normal(scale=5.0, size=3)
    U = rng.normal(size=(9, 3))
    U /= np.linalg.norm(U, axis=1)[:, None]
    for s in (None, 7.5):
        stacked = mc.chord_depth(cloud, p, U, 6 * math.pi, s)
        assert stacked.shape == (9,)
        single = [mc.chord_depth(cloud, p, u, 6 * math.pi, s) for u in U]
        np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=0)


def _uniforms(seed, n):
    """Four uniforms (4, n), one block per trajectory 0..n-1, from the
    engine's stream."""
    return mc._uniforms(seed, np.arange(n), 1, 0)


def test_free_path_zero_cross_section_escapes():
    cloud = two_level_cloud()
    s = mc.sample_free_path(cloud, np.zeros((20, 3)), [0, 0, 1.0], 0.0,
                            _uniforms(1, 20)[1])
    assert np.all(s == np.inf)


def test_free_path_exponential_in_homogeneous_core():
    # huge cloud: the density is constant over many mean free paths,
    # so free paths from the center must follow the exponential law
    sch = LevelScheme.simple()
    cloud = mc.Cloud(scheme=sch, n0=1e-2, r0=1e5)
    l_ex = 1.0 / (1e-2 * 6 * math.pi)
    n = 20000
    draws = mc.sample_free_path(cloud, np.zeros((n, 3)), [0, 0, 1.0],
                                6 * math.pi, _uniforms(2, n)[1])
    assert np.all(np.isfinite(draws))  # no escapes from the core
    stat = kstest(draws, "expon", args=(0, l_ex))
    assert stat.pvalue > 0.01


def test_escape_probability_matches_chord_depth():
    cloud = two_level_cloud(b0=2.0)
    p0 = np.array([1.0, -2.0, -10 * cloud.r0])
    u = np.array([0.0, 0.0, 1.0])
    b = mc.chord_depth(cloud, p0, u, 6 * math.pi)
    n = 40000
    escapes = np.count_nonzero(np.isinf(mc.sample_free_path(
        cloud, np.tile(p0, (n, 1)), u, 6 * math.pi, _uniforms(3, n)[1])))
    expect = math.exp(-b)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(escapes / n - expect) < 3 * sigma + 1e-9


def test_entry_sampler_impact_parameter_distribution():
    cloud = two_level_cloud(b0=3.0)
    p = mc.sample_entry(cloud, 6 * math.pi, 4, np.arange(20000))
    rho = np.hypot(p[:, 0], p[:, 1])
    # marginal density prop. to rho (1 - e^{-b(rho)})
    grid = np.linspace(0, 6 * cloud.r0, 4000)
    b = peak_depth(cloud) * np.exp(-grid ** 2 / (2 * cloud.r0 ** 2))
    pdf = grid * (-np.expm1(-b))
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    stat = kstest(rho, lambda x: np.interp(x, grid, cdf))
    assert stat.pvalue > 0.01


def test_scatter_event_dipole_pattern_chi2():
    alpha = -(0.75) / 0.5j
    n = 100000
    vs = np.broadcast_to(alpha * np.array([1.0, 0, 0]), (n, 1, 3))
    _, u, e_out, _ = mc.scatter_event(vs, _uniforms(5, n))
    cos_x = u[:, 0]
    # outgoing polarization is transverse and lies along P_perp v
    assert np.max(np.abs(np.sum(u * e_out, axis=1))) < 1e-12
    # chi^2 against the dipole density p(t) = (3/8)(1 - t^2) * 2
    edges = np.linspace(-1, 1, 21)
    counts, _ = np.histogram(cos_x, edges)
    probs = np.diff(0.5 * (edges - edges ** 3 / 3) * 1.5 + 0.5)
    chi2 = np.sum((counts - n * probs) ** 2 / (n * probs))
    # 19 dof: the 1% critical value is 36.2
    assert chi2 < 36.2

    # elliptical field: the density |v|^2 - |n.v|^2 has the second moments
    # E[n n^T] = (2/5) I - (1/5) Re(v v^H)/|v|^2
    v = (0.4 - 0.9j) * np.array([1.0, 0.6j, 0.3])
    n = 400000
    _, u, e_out, _ = mc.scatter_event(np.broadcast_to(v, (n, 1, 3)),
                                      _uniforms(25, n))
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.sum(u * e_out, axis=1))) < 1e-12
    nn = u[:, :, None] * u[:, None, :]
    exact = 0.4 * np.eye(3) - 0.2 * np.outer(v, v.conj()).real \
        / np.vdot(v, v).real
    sd = nn.reshape(n, 9).std(axis=0).reshape(3, 3) / math.sqrt(n)
    assert np.all(np.abs(nn.mean(axis=0) - exact) < 4 * sd)


def test_scatter_event_total_weight_matches_kinetic_lengths():
    sch = LevelScheme.rb85_d2()
    gs = GroundState.isotropic(sch, 6, n0=1.0)
    omega = sch.excited_energy(8) - sch.ground_energy(6)
    kl = kinetic_lengths(sch, gs, None, omega)
    cloud = mc.Cloud(scheme=sch, n0=1e-3, r0=10.0, ground=gs)
    tab = mc._MediumTables(cloud)
    # population-averaged scattered power equals sigma_sc analytically
    m = np.nonzero(tab.populations)[0]
    kid = tab.keys(tab.freq_ids(np.full(len(m), omega)), m)
    e = np.broadcast_to(np.array([1.0, 0, 0], dtype=complex), (len(m), 3))
    vs = tab.fields(kid, e)
    _, _, _, w_sc = mc.scatter_event(vs, _uniforms(6, len(m)))
    total = np.dot(tab.populations[m], w_sc)
    assert total == pytest.approx(kl.sigma_sc, rel=1e-3)


def test_elastic_channel_keeps_frequency():
    sch = LevelScheme.simple()
    assert raman_shift(sch, 0, 0) == 0.0


@pytest.mark.parametrize("field", ["n0", "r0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_cloud_rejects_non_positive_or_non_finite_size(field, bad):
    # a NaN or infinite cloud would fail every entry try, so sample_entry
    # would draw ever larger blocks without end
    kwargs = {"n0": 0.01, "r0": 8.0, field: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        mc.Cloud(LevelScheme.simple(), **kwargs)


def test_raman_shift_broadcasts_sublevel_arrays():
    sch = LevelScheme.rb85_d2()
    n = len(sch.ground_sublevels())
    m = np.arange(n)
    table = raman_shift(sch, m[:, None], m)
    energies = np.array([sch.ground_energy(tf)
                         for tf, _ in sch.ground_sublevels()])
    assert np.array_equal(table, energies[None, :] - energies[:, None])
    assert np.array_equal(table, [[raman_shift(sch, mp, mi) for mi in m]
                                  for mp in m])
    assert np.array_equal(mc._MediumTables(mc.Cloud(sch, 0.01, 8.0)).shifts,
                          table)


def test_energy_conservation_closed_transition():
    cloud = two_level_cloud(b0=5.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
        n_traj=3000, seed=7, max_order=100000, chunk_size=1000)])[0]
    assert res.escaped_weight / res.injected_weight == \
        pytest.approx(1.0, abs=1e-6)
    assert res.n_truncated == 0


@pytest.mark.parametrize("n_workers", [1, 2])
def test_truncated_and_escaped_weight_balance(n_workers):
    # max_order = 3 truncates many walkers; with no gain every injected
    # unit of weight leaves the chunk either escaped or truncated
    cloud = mc.Cloud(scheme=LevelScheme.simple(), n0=0.05, r0=8.0)
    e_hel, e_det = mc.helicity_vectors()
    dets = mc.backscatter_detectors([0.0, 0.1], e_det)
    base = mc.MCParams(n_traj=500, seed=5, max_order=3, chunk_size=400,
                       include_crossed=True, e_in=tuple(e_hel))
    results = mc.simulate_ladder(
        cloud, dets, [replace(base, detuning=d) for d in (0.0, 0.5, 2.0)],
        n_workers=n_workers)
    for res in results:
        assert res.n_truncated > 0
        assert res.escaped_weight + res.truncated_weight == pytest.approx(
            res.injected_weight, rel=1e-12, abs=0)


def test_order_range_capped_by_max_order_truncates_as_per_order_draws(
        monkeypatch):
    # a thick cloud keeps walkers long enough that a range of orders drawn
    # ahead would pass max_order = 10 and stops there; truncation counts
    # and weights are those of one draw call per order (the values below)
    cloud = two_level_cloud(b0=12.0)
    e_hel, e_det = mc.helicity_vectors()
    dets = mc.backscatter_detectors([0.0, 0.1], e_det)
    base = mc.MCParams(n_traj=2000, seed=9, max_order=10,
                       include_crossed=True, e_in=tuple(e_hel))
    points = [base, replace(base, detuning=0.5)]
    ranges, draw = [], mc._uniforms

    def recorded(seed, traj, order, slot, retry=0):
        ranges.append(np.ravel(order).tolist())
        return draw(seed, traj, order, slot, retry)

    monkeypatch.setattr(mc, "_uniforms", recorded)
    res = mc.simulate_ladder(cloud, dets, points)
    capped, ranges[:] = list(ranges), []
    free = mc.simulate_ladder(cloud, dets,
                              [replace(q, max_order=50) for q in points])
    assert max(max(o) for o in capped) == 10
    assert any(o[-1] == 10 and len(f) > len(o) for o, f in zip(capped, ranges)
               if o[0] == f[0])
    assert [r.n_truncated for r in res] == [165, 35]
    assert [r.truncated_weight for r in res] == pytest.approx(
        [164.99999999999866, 34.99999999999974], rel=1e-12, abs=0)
    # the orders up to the cap are those of an uncapped run, bit for bit
    for a, b in zip(res, free):
        assert np.array_equal(a.per_order, b.per_order[:, :11])
        assert np.array_equal(a.crossed_per_order,
                              b.crossed_per_order[:, :11])


def test_each_draw_call_gets_each_trajectory_once(monkeypatch):
    # a 3-point sweep holds every trajectory of a chunk three times; the
    # beam entry and the order draws pass each id once per call, and the
    # results are those of an unobserved run, bit for bit
    cloud = mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.04, r0=8.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0.0, 0.0]))
    points = [mc.MCParams(detuning=d, n_traj=200, seed=4, chunk_size=100)
              for d in (-1.0, 0.0, 1.0)]
    plain = mc.simulate_ladder(cloud, dets, points)
    ids, draw = [], mc._uniforms

    def recorded(seed, traj, order, slot, retry=0):
        ids.append(np.asarray(traj))
        return draw(seed, traj, order, slot, retry)

    monkeypatch.setattr(mc, "_uniforms", recorded)
    observed = mc.simulate_ladder(cloud, dets, points)
    assert len(ids) >= 14  # 7 chunks, each with entry and order draws
    assert all(len(np.unique(t)) == len(t) for t in ids)
    for a, b in zip(plain, observed):
        for name, value in vars(a).items():
            assert np.array_equal(value, getattr(b, name)), name


def test_value_types_compare_by_identity():
    d, e = np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0])
    a, b = mc.Detector(d, e), mc.Detector(d, e)
    rb85 = LevelScheme.rb85_d2()
    c1, c2 = mc.Cloud(rb85, 0.04, 8.0), mc.Cloud(rb85, 0.04, 8.0)
    for x, y in ((a, b), (c1, c2), (c1.ground, c2.ground)):
        assert x == x and x != y
        assert {x: 1, y: 2}[y] == 2
    for bad in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite and non-zero"):
            mc.Detector(bad, e)


def test_thin_limit_order_ratio_slope():
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    ratios = []
    for b0 in (0.05, 0.1):
        cloud = two_level_cloud(b0=b0, r0=8.0)
        res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
            n_traj=60000, seed=8, chunk_size=20000)])[0]
        po = res.per_order.sum(axis=0)
        ratios.append(po[2] / po[1])
    assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.10)


def test_order_distribution_unimodal_decay():
    cloud = two_level_cloud(b0=5.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
        n_traj=40000, seed=9, chunk_size=20000)])[0]
    po = res.per_order.sum(axis=0)[1:]
    po = po[po > 0]
    peak = int(np.argmax(po))
    # decays monotonically (after smoothing statistics) beyond the peak
    tail = po[peak:]
    assert tail[-1] < 0.05 * tail[0]
    assert not res.unstable


def test_determinism_across_workers():
    cloud = two_level_cloud(b0=3.0)
    e_hel, e_det = mc.helicity_vectors()
    dets = mc.backscatter_detectors([0.0, 0.1], e_det)
    params = mc.MCParams(n_traj=4000, seed=10, chunk_size=500,
                         include_crossed=True, e_in=tuple(e_hel))
    r1 = mc.simulate_ladder(cloud, dets, [params], n_workers=1)[0]
    r3 = mc.simulate_ladder(cloud, dets, [params], n_workers=3)[0]
    assert np.array_equal(r1.per_order, r3.per_order)
    assert np.array_equal(r1.crossed_per_order, r3.crossed_per_order)
    assert r1.escaped_weight == r3.escaped_weight
    assert r1.escaped_err == r3.escaped_err
    # the same trajectories in one chunk: sums differ only by rounding
    one = mc.simulate_ladder(cloud, dets,
                             [replace(params, chunk_size=4000)])[0]
    for a, b in ((one.per_order, r1.per_order),
                 (one.crossed_per_order, r1.crossed_per_order)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
    assert one.escaped_weight == pytest.approx(r1.escaped_weight, rel=1e-12)


def _rb85_sweep():
    cloud = mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.0387, r0=8.0)
    base = mc.MCParams(n_traj=120, seed=22, chunk_size=20000)
    return cloud, [replace(base, detuning=d) for d in (-2.0, 0.0, 0.5, 3.0)]


def _gain_sweep():
    # crossed bookkeeping on, so the crossed accumulators are compared too
    cloud = two_level_cloud(b0=4.0)
    e_hel, _ = mc.helicity_vectors()
    base = mc.MCParams(n_traj=400, seed=23, chunk_size=20000, max_order=300,
                       include_crossed=True, e_in=tuple(e_hel))
    return cloud, [replace(base, extra_gain_sigma=g * 6 * math.pi)
                   for g in (0.0, 0.2, 0.5)]


def _assert_results_close(got, ref, rtol):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        for name in ("per_order", "crossed_per_order", "stat_err",
                     "crossed_err"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                       rtol=rtol, atol=0)
        for name in ("escaped_weight", "truncated_weight"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=rtol, abs=0)
        assert a.injected_weight == b.injected_weight
        assert a.n_truncated == b.n_truncated
        assert a.unstable == b.unstable


@pytest.mark.parametrize("sweep", [_rb85_sweep, _gain_sweep])
def test_sweep_matches_per_point_runs(sweep):
    cloud, points = sweep()
    e_det = np.conj(np.asarray(points[0].e_in, dtype=complex))
    dets = mc.backscatter_detectors([0.0, 0.2], e_det)
    together = mc.simulate_ladder(cloud, dets, points)
    alone = [mc.simulate_ladder(cloud, dets, [q])[0] for q in points]
    _assert_results_close(together, alone, 1e-12)
    # the points differ, so the comparison is not between equal results
    assert together[0].per_order.sum() != together[-1].per_order.sum()


@pytest.mark.parametrize("sweep", [_rb85_sweep, _gain_sweep])
def test_sweep_deterministic_across_workers_and_chunks(sweep):
    cloud, points = sweep()
    dets = mc.backscatter_detectors([0.0], np.conj(
        np.asarray(points[0].e_in, dtype=complex)))
    # 100 walkers a chunk: 25 or 33 trajectories of the sweep
    small = [replace(q, chunk_size=100) for q in points]
    r1 = mc.simulate_ladder(cloud, dets, small, n_workers=1)
    r3 = mc.simulate_ladder(cloud, dets, small, n_workers=3)
    for a, b in zip(r1, r3):
        assert np.array_equal(a.per_order, b.per_order)
        assert np.array_equal(a.crossed_per_order, b.crossed_per_order)
        assert np.array_equal(a.stat_err, b.stat_err)
        assert a.escaped_weight == b.escaped_weight
        assert a.truncated_weight == b.truncated_weight
    for size in (7, 1000):
        other = mc.simulate_ladder(
            cloud, dets, [replace(q, chunk_size=size) for q in points])
        _assert_results_close(other, r1, 1e-12)


@pytest.mark.parametrize("change", [
    {"n_traj": 11}, {"seed": 1}, {"max_order": 7}, {"include_crossed": True},
    {"e_in": (0.0, 1.0, 0.0)}, {"chunk_size": 10},
])
def test_sweep_points_differ_only_in_detuning_and_gain(change):
    cloud = two_level_cloud(b0=1.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    base = mc.MCParams(n_traj=10, seed=3)
    ok = [base, replace(base, detuning=1.0, extra_gain_sigma=0.5)]
    assert len(mc.simulate_ladder(cloud, dets, ok)) == 2
    with pytest.raises(ValueError, match="may differ only in"):
        mc.simulate_ladder(cloud, dets, ok + [replace(base, **change)])
    with pytest.raises(ValueError, match="at least one point"):
        mc.simulate_ladder(cloud, dets, [])


def test_empty_detector_list_raises_before_any_chunk(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(mc, "_run_chunk", no_chunk)
    with pytest.raises(ValueError, match="at least one detector"):
        mc.simulate_ladder(two_level_cloud(b0=1.0), [],
                           [mc.MCParams(n_traj=10, seed=3)])


@pytest.mark.parametrize("n_chunks", [3, 12])
def test_pool_size_capped_by_jobs_and_cpus(monkeypatch, n_chunks):
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(j) for j in jobs]

    monkeypatch.setattr(mc, "Pool", RecordingPool)
    cloud = two_level_cloud(b0=1.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0.0, 0.0]))
    params = mc.MCParams(n_traj=20 * n_chunks, seed=3, chunk_size=20)
    mc.simulate_ladder(cloud, dets, [params], n_workers=64)
    cpus = mc._usable_cpus()
    assert 1 <= cpus <= os.cpu_count()
    expect = min(64, n_chunks, cpus)
    assert sizes == ([expect] if expect > 1 else [])


def test_variance_scaling():
    cloud = two_level_cloud(b0=3.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    errs = []
    ns = [4000, 8000, 16000, 32000]
    for i, n in enumerate(ns):
        res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
            n_traj=n, seed=100 + i, chunk_size=2000)])[0]
        # stderr of the mean intensity
        errs.append(res.stat_err[0] / n)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_chain_reciprocity_exact():
    rng = np.random.default_rng(11)
    alpha = -(0.75) / (0.3 + 0.5j)
    e_hel, e_det = mc.helicity_vectors()
    e_lin = np.array([1.0, 0, 0], dtype=complex)
    for e_in, e_out in ((e_hel, e_det), (e_lin, e_lin)):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pos = rng.normal(scale=5.0, size=(n, 3))
            tensors = [alpha * np.eye(3)] * n
            ad, ar = mc.chain_pair_amplitudes(pos, tensors, e_in, e_out)
            assert abs(ad - ar) <= 1e-10 * max(abs(ad), 1e-30)


def _projected_chain(positions, tensors):
    """Reference direct and reverse chain products, written out with the
    explicit projectors 1 - u u^T: A_N P_{N-1} ... P_1 A_1 and
    A_1 P_1 ... P_{N-1} A_N."""
    factors = [tensors[0]]
    for j in range(1, len(positions)):
        u = positions[j] - positions[j - 1]
        u = u / np.linalg.norm(u)
        factors += [np.eye(3) - np.outer(u, u), tensors[j]]
    return np.linalg.multi_dot(factors[::-1]), np.linalg.multi_dot(factors)


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_chain_amplitudes_match_projected_products_for_general_tensors():
    # random complex, non-symmetric vertex tensors, as a Zeeman-degenerate
    # transition gives, and random analyzers
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        pos = rng.normal(scale=5.0, size=(n, 3))
        tensors = list(_random_complex(rng, (n, 3, 3)))
        e_in, e_out = _random_complex(rng, (2, 3))
        direct, reverse = _projected_chain(pos, tensors)
        got = mc.chain_pair_amplitudes(pos, tensors, e_in, e_out)
        for amp, ref in zip(got, (direct, reverse)):
            ref = np.conj(e_out) @ ref @ e_in
            worst = max(worst, abs(amp - ref) / abs(ref))
    assert worst <= 1e-13


def test_chain_step_on_a_stack_equals_single_walkers():
    rng = np.random.default_rng(32)
    K = 17
    f = _random_complex(rng, (K, 3))
    M, A = _random_complex(rng, (2, K, 3, 3))
    u = rng.normal(size=(K, 3))
    u /= np.linalg.norm(u, axis=-1)[:, None]
    f_all, M_all = mc._chain_step(f, M, A, u)
    assert f_all.shape == (K, 3) and M_all.shape == (K, 3, 3)
    for k in range(K):
        f_k, M_k = mc._chain_step(f[k], M[k], A[k], u[k])
        np.testing.assert_allclose(f_all[k], f_k, rtol=1e-14, atol=0)
        np.testing.assert_allclose(M_all[k], M_k, rtol=1e-14, atol=0)


def _assert_same_sum(got, want, magnitude):
    """Bit for bit where the golden records were made, as they require.
    Elsewhere numpy may add three terms in another order, so within the
    rounding bound of any order, 4u times the sum of the terms'
    magnitudes (u = 2^-53), in each real part."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if regen.environment() == RECORDED:
        assert got.tobytes() == want.tobytes()
    else:
        tol = 4 * 2.0 ** -53 * magnitude
        assert np.all(np.abs(got.real - want.real) <= tol)
        assert np.all(np.abs(got.imag - want.imag) <= tol)


def test_dot3_is_numpys_sum_over_the_last_axis():
    rng = np.random.default_rng(33)

    def wide(shape):  # spread over 8 decades, so the order of adding shows
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, shape)

    def check(a, b):
        _assert_same_sum(mc._dot3(a, b), np.sum(a * b, axis=-1),
                         np.sum(np.abs(a * b), axis=-1))

    check(wide((500, 1, 3)), wide((7, 3)))  # real . real, broadcast
    check(wide((500, 3)), wide((500, 3)) + 1j * wide((500, 3)))
    for _ in range(200):  # single vectors, as chain_pair_amplitudes has
        check(wide(3), wide(3))
        check(wide(3), wide(3) + 1j * wide(3))
    x = wide((500, 12, 3))
    _assert_same_sum(mc._dot3(x), np.sum(x, axis=-1),
                     np.sum(np.abs(x), axis=-1))
    # the norm scatter_event divides e_out by
    e = wide((500, 3)) + 1j * wide((500, 3))
    _assert_same_sum(np.sqrt(mc._dot3((e.conj() * e).real)),
                     np.linalg.norm(e, axis=-1), np.linalg.norm(e, axis=-1))


def test_escaped_err_matches_seed_spread():
    # 20 seeds of a gain sweep; the escaped fraction's reported standard
    # error against its seed-to-seed spread.  Measured with these seeds:
    # RMS error / SD 0.92 at gain 0.05 sigma0 and 0.86 at 0.2 (over 200
    # seeds 1.00 and 0.98); the largest error at zero gain, where every
    # trajectory escapes with weight 1, was 4.7e-10 (the rounding floor
    # of the one-pass variance)
    cloud = two_level_cloud(b0=6.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    gains = (0.0, 0.05, 0.2)
    frac, err = [], []
    for seed in range(20):
        base = mc.MCParams(n_traj=1000, seed=seed)
        res = mc.simulate_ladder(cloud, dets, [
            replace(base, extra_gain_sigma=g * cloud.sigma0())
            for g in gains])
        frac.append([r.escaped_weight / r.injected_weight for r in res])
        err.append([r.escaped_err / r.injected_weight for r in res])
    frac, err = np.array(frac), np.array(err)
    assert np.all(err[:, 0] <= 1e-9)
    ratio = np.sqrt(np.mean(err[:, 1:] ** 2, axis=0)) \
        / np.std(frac[:, 1:], axis=0, ddof=1)
    assert np.all((0.7 < ratio) & (ratio < 1.4)), ratio


def test_cbs_enhancement_two_at_backscatter():
    cloud = two_level_cloud(b0=5.0)
    cbs = mc.cbs_enhancement(cloud, [0.0], mc.MCParams(
        n_traj=30000, seed=12, chunk_size=10000), channel="hel_par")
    # helicity-preserving: single scattering is forbidden and the
    # reverse amplitude is exact, so the multiple-order enhancement is 2
    assert cbs.single[0] == pytest.approx(0.0, abs=1e-20)
    assert cbs.eta_multiple[0] == pytest.approx(2.0, abs=1e-10)


def test_cbs_cone_decays_and_far_angle_unity():
    # large cloud: q l >> 1 at the far angle, so the interference washes
    # out completely and only the incoherent background survives
    cloud = two_level_cloud(b0=5.0, r0=40.0)
    thetas = [0.0, 0.02, 0.06, 1.2]
    cbs = mc.cbs_enhancement(cloud, thetas, mc.MCParams(
        n_traj=60000, seed=13, chunk_size=20000), channel="hel_par")
    eta = cbs.eta_multiple
    assert eta[0] > eta[1] > eta[2]
    assert abs(eta[3] - 1.0) < 3 * cbs.stat_err[3] + 0.02


def test_eta_at_least_one_all_channels():
    cloud = two_level_cloud(b0=3.0)
    for channel in ("hel_par", "hel_perp", "lin_par", "lin_perp"):
        cbs = mc.cbs_enhancement(cloud, [0.0], mc.MCParams(
            n_traj=20000, seed=14, chunk_size=10000), channel=channel)
        assert cbs.eta[0] >= 1.0 - 3 * cbs.stat_err[0] - 0.01


def test_eta_is_nan_without_multiple_scattering():
    # helicity preserving with single scattering only: S = L = 0 at every
    # angle, so neither enhancement has a denominator
    cloud = two_level_cloud(b0=3.0)
    cbs = mc.cbs_enhancement(cloud, [0.0, 0.1, 0.3], mc.MCParams(
        n_traj=2000, seed=24, max_order=1), channel="hel_par")
    assert np.all(cbs.single == 0.0) and np.all(cbs.ladder == 0.0)
    assert np.all(np.isnan(cbs.eta))
    assert np.all(np.isnan(cbs.eta_multiple))
    assert np.all(np.isnan(cbs.stat_err))
    # with single scattering, eta is defined and eta_multiple is not
    lin = mc.cbs_enhancement(cloud, [0.0], mc.MCParams(
        n_traj=2000, seed=24, max_order=1), channel="lin_par")
    assert lin.single[0] > 0 and lin.eta[0] == 1.0
    assert np.isnan(lin.eta_multiple[0])


def test_crossed_term_refused_for_degenerate_ground_state():
    # the crossed term is implemented for one ground sublevel only; Rb must
    # not silently report eta = 1
    cloud = mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.02, r0=8.0)
    with pytest.raises(ValueError, match="non-degenerate ground state"):
        mc.cbs_enhancement(cloud, [0.0], mc.MCParams(n_traj=10))
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    with pytest.raises(ValueError, match="non-degenerate ground state"):
        mc.simulate_ladder(cloud, dets,
                           [mc.MCParams(n_traj=10, include_crossed=True)])


def test_gain_weight_bookkeeping():
    # per-event amplification factor is (W_sc + sigma_g)/sigma_ex; for a
    # closed transition W_sc = sigma_ex so k events grow the weight by
    # (1 + g)^k, matching exp(l_ex/l_g) = e^{gk} within 1% for small g
    g = 0.05
    assert (1 + g) == pytest.approx(math.exp(g), rel=0.01)
    cloud = two_level_cloud(b0=4.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    sigma_g = g * 6 * math.pi
    res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
        n_traj=5000, seed=16, chunk_size=2500, extra_gain_sigma=sigma_g,
        max_order=10000)])[0]
    res0 = mc.simulate_ladder(cloud, dets, [mc.MCParams(
        n_traj=5000, seed=16, chunk_size=2500, max_order=10000)])[0]
    # escaped weight exceeds unity under gain, and the per-order mean
    # amplification matches (1+g)^order on the order-resolved ratios
    assert res.escaped_weight > res0.escaped_weight
    po = res.per_order.sum(axis=0)
    po0 = res0.per_order.sum(axis=0)
    for o in range(2, 8):
        if po0[o] > 0:
            assert po[o] / po0[o] == pytest.approx((1 + g) ** (o - 1),
                                                   rel=1e-9)


def test_instability_flag_monotone_in_gain():
    cloud = two_level_cloud(b0=6.0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0, 0]))
    flags = []
    for g in (0.0, 0.1, 0.3, 0.6):
        res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
            n_traj=4000, seed=17, chunk_size=2000,
            extra_gain_sigma=g * 6 * math.pi, max_order=400)])[0]
        flags.append(res.unstable)
    assert flags == sorted(flags)  # once unstable, stays unstable
    assert not flags[0]
    assert flags[-1]


def test_instability_detector_unit():
    decaying = np.array([0.0, 5, 3, 2, 1, 0.5, 0.2])
    growing = np.array([0.0, 5, 3, 2, 2.5, 3.0, 3.5, 4.0])
    assert not mc._detect_instability(decaying, 3)
    assert mc._detect_instability(growing, 3)


def test_raman_photon_frequency_and_extinction():
    # Lambda atom with a 3 gamma ground splitting, F0 = 1 populated, probe
    # 3 gamma above its line: the Raman photon of F0 = 1 -> 2 lands at
    # omega + E_m - E_m' = 0, on resonance, and leaves the cloud strongly
    # attenuated.  Single scattering toward exact backscattering has the
    # closed form sum_m p_m sum_m' |e* A e|^2 sigma/(sigma + sigma'_m')
    # Ein((sigma + sigma'_m') D0) / Ein(sigma D0), with D0 the unit-sigma
    # column through the centre and Ein(z) = gamma_E + ln z + E1(z).
    sch = LevelScheme(ground=(Level(2, 0.0), Level(4, 3.0)),
                      excited=(Level(2, 0.0),),
                      twice_J=3, twice_I=3)
    cloud = mc.Cloud(scheme=sch, n0=0.1, r0=8.0)
    omega = 3.0
    e = np.array([1.0, 0, 0], dtype=complex)
    d0 = cloud.n0 * math.sqrt(2 * math.pi) * cloud.r0

    def ein(z):
        return np.euler_gamma + math.log(z) + exp1(z)

    def single(sign):
        sig = extinction_cross_section(sch, cloud.ground, None, omega)
        pops = np.diag(cloud.ground.rho).real
        total = 0.0
        for m in np.nonzero(pops)[0]:
            for mp, A in enumerate(scattering_tensors(sch, None, m, omega)):
                sig_p = extinction_cross_section(
                    sch, cloud.ground, None,
                    omega + sign * raman_shift(sch, mp, m))
                total += pops[m] * abs(e.conj() @ A @ e) ** 2 \
                    * sig / (sig + sig_p) * ein((sig + sig_p) * d0) \
                    / ein(sig * d0)
        return total

    res = mc.simulate_ladder(
        cloud, mc.backscatter_detectors([0.0], e),
        [mc.MCParams(detuning=omega, n_traj=20000, seed=19, max_order=1)])[0]
    mean = res.ladder_total[0] / res.injected_weight
    err = res.stat_err[0] / res.injected_weight
    assert abs(mean - single(+1)) < 4 * err
    assert abs(single(-1) - single(+1)) > 20 * err  # the sign is resolved


def test_medium_table_frequency_ids_keep_their_shape():
    # the outgoing channels of a step's new keys arrive as a 2-d array
    tab = mc._MediumTables(mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.04,
                                    r0=8.0))
    grid = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
    ids = tab.freq_ids(grid)
    assert ids.shape == (3, 4)
    assert np.array_equal(ids, tab.freq_ids(grid.ravel()).reshape(3, 4))
    assert tab.freq_ids(0.0).shape == ()


def test_medium_tables_do_not_depend_on_key_arrival():
    # rb85 over a detuning sweep, two steps: the walkers of a step register
    # their new keys together, or one at a time in sorted key order, with
    # the same ids, frequencies, extinctions and tensor stacks
    cloud = mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.04, r0=8.0)
    rng = np.random.default_rng(8)
    together, alone = mc._MediumTables(cloud), mc._MediumTables(cloud)
    f = together.freq_ids(np.repeat(np.linspace(-5.0, 5.0, 6), 9))
    assert np.array_equal(alone.freq_ids(np.linspace(-5.0, 5.0, 6)),
                          np.arange(6))
    for _ in range(2):
        m = together.sublevels(rng.random(len(f)))
        kid = together.keys(f, m)
        order = np.argsort(f * together.n_ground + m, kind="stable")
        for i in order:
            alone.keys(f[i:i + 1], m[i:i + 1])
        assert np.array_equal(alone.keys(f, m), kid)
        # the next step starts from every outgoing channel of this one
        f = together.out_ids[kid].ravel()
    assert together.omegas == alone.omegas
    assert np.array_equal(together.out_ids, alone.out_ids)
    assert np.allclose(together.sigma, alone.sigma, rtol=1e-14, atol=0)
    assert np.allclose(together.stacks, alone.stacks, rtol=1e-14, atol=0)


def test_medium_table_fields_by_walker_block():
    # rb85 over a detuning sweep: more walkers than one block and dozens of
    # keys; each walker's fields are its own tensor stack times its e
    cloud = mc.Cloud(scheme=LevelScheme.rb85_d2(), n0=0.04, r0=8.0)
    tab = mc._MediumTables(cloud)
    rng = np.random.default_rng(3)
    n = 2 * mc._FIELD_BLOCK + 77
    f = tab.freq_ids(rng.choice(np.linspace(-5.0, 5.0, 11), n))
    kid = tab.keys(f, tab.sublevels(rng.random(n)))
    assert len(np.unique(kid)) > 50
    e = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    vs = tab.fields(kid, e)
    # einsum sums the three products as the fields do; matmul rounds its
    # complex sums otherwise, by at most an ulp or two
    ref = np.stack([np.einsum("cij,j->ci", tab.stacks[k], e[i])
                    for i, k in enumerate(kid)])
    assert np.array_equal(vs, ref)
    np.testing.assert_allclose(
        vs, np.stack([tab.stacks[k] @ e[i] for i, k in enumerate(kid)]),
        rtol=1e-14, atol=1e-15)
    # the shared incident polarization of order 1 is a broadcast view
    e_in = np.broadcast_to(e[0], e.shape)
    assert np.array_equal(tab.fields(kid, e_in),
                          np.einsum("ncij,j->nci", tab.stacks[kid], e[0]))
