"""Acceptance suite: one pass/fail line per criterion on stdout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; without ``-s`` they appear in the captured output.
"""

import cmath
import math
import time

import numpy as np
import pytest

from coldscatter import medium as md
from coldscatter import microdipole as mi
from coldscatter import mcscatter as mc
from coldscatter import propagation as pp
from coldscatter import protocols as pr
from coldscatter import transport as tr
from coldscatter.angular import LevelScheme, clebsch_gordan, \
    repopulation_matrix, wigner_6j

from test_microdipole import _scalar_pair_oracle, _vector_pair_oracle, \
    _transfer_matrix_oracle


def _report(idx, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"\ncriterion {idx:02d} {status}: {desc}{tail}", flush=True)
    assert ok, f"criterion {idx} failed: {desc} {tail}"


def test_criterion_01_single_atom_resonance():
    t0 = time.perf_counter()
    cfg = mi.Configuration(np.zeros((1, 3)), model="vector")
    q0 = mi.DipoleSolver(cfg, 0.0).total_cross_section(
        np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    rel = abs(q0 - 6 * math.pi) / (6 * math.pi)
    dt = time.perf_counter() - t0
    _report(1, "single-atom resonant cross section 6 pi",
            rel < 1e-10 and dt < 1.0, f"rel={rel:.2e}, {dt:.2f}s")


def test_criterion_02_two_atom_oracle():
    t0 = time.perf_counter()
    pos = np.array([[0.1, -0.2, 0.0], [0.5, 0.4, 0.9]])
    k_in = np.array([0.0, 0.0, 1.0])
    e_in = np.array([1.0, 0.0, 0.0], dtype=complex)
    k_out = np.array([0.6, 0.0, 0.8])
    e_out = np.array([0.0, 1.0, 0.0], dtype=complex)
    worst = 0.0
    for d in np.linspace(-10, 10, 200):
        fs = mi.DipoleSolver(mi.Configuration(pos, model="scalar"),
                             d).scattering_amplitude(k_in, None, k_out)
        worst = max(worst, abs(fs - _scalar_pair_oracle(pos, d, k_in, k_out)))
        fv = mi.DipoleSolver(mi.Configuration(pos), d).scattering_amplitude(
            k_in, e_in, k_out, e_out)
        worst = max(worst, abs(fv - _vector_pair_oracle(
            pos, d, k_in, e_in, k_out, e_out)))
    dt = time.perf_counter() - t0
    _report(2, "two-atom amplitudes vs direct inversion over 200 detunings",
            worst < 1e-12 and dt < 5.0, f"max|dT|={worst:.2e}, {dt:.2f}s")


def test_criterion_03_reciprocity_and_cbs():
    t0 = time.perf_counter()
    # per-chain reciprocity on 100 fixed chains
    rng = np.random.default_rng(42)
    alpha = -(0.75) / (0.3 + 0.5j)
    e_hel, e_det = mc.helicity_vectors()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        positions = rng.normal(scale=6.0, size=(n, 3))
        tensors = [alpha * np.eye(3)] * n
        ad, ar = mc.chain_pair_amplitudes(positions, tensors, e_hel, e_det)
        worst = max(worst, abs(ad - ar) / max(abs(ad), 1e-30))
    chains_ok = worst < 1e-10

    # MC enhancement at exact backscattering, helicity preserving,
    # single scattering excluded, 1e6 trajectories at b0 = 5
    r0 = 8.0
    cloud = mc.Cloud(scheme=LevelScheme.simple(),
                     n0=5.0 / (math.sqrt(2 * math.pi) * 6 * math.pi * r0),
                     r0=r0)
    cbs = mc.cbs_enhancement(
        cloud, [0.0],
        mc.MCParams(n_traj=1_000_000, seed=3, chunk_size=50_000),
        channel="hel_par", n_workers=8)
    eta = float(cbs.eta_multiple[0])
    sig = max(float(cbs.stat_err[0]), 1e-12)
    eta_ok = abs(eta - 2.0) < 3 * sig
    dt = time.perf_counter() - t0
    _report(3, "chain reciprocity 1e-10 and eta(0) = 2 within 3 sigma",
            chains_ok and eta_ok and dt < 600.0,
            f"worst={worst:.2e}, eta={eta:.6f}+/-{sig:.1e}, {dt:.1f}s")


def test_criterion_04_letokhov_threshold():
    t0 = time.perf_counter()
    l_tr = 1.0
    worst = 0.0
    for l_g in (3.0, 9.5, 30.0):
        r_star = tr.letokhov_threshold(l_tr, l_g)

        def rate(r0):
            m = tr.DiffusionModel(v_bar=1.0, l0_bar=l_tr, l_g=l_g, r0=r0)
            return tr.solve_gain_diffusion_sphere(m).growth_rate

        lo, hi = 0.9 * r_star, 1.1 * r_star
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if rate(mid) < 0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(0.5 * (lo + hi) - r_star) / r_star)
    dt = time.perf_counter() - t0
    _report(4, "diffusive instability radius matches pi sqrt(l_tr l_g/3)",
            worst < 0.02 and dt < 30.0, f"worst rel={worst:.4f}, {dt:.1f}s")


def test_criterion_05_energy_conservation():
    t0 = time.perf_counter()
    worst = 0.0
    for b0 in (1.0, 5.0, 20.0):
        r0 = 8.0
        cloud = mc.Cloud(
            scheme=LevelScheme.simple(),
            n0=b0 / (math.sqrt(2 * math.pi) * 6 * math.pi * r0), r0=r0)
        dets = mc.backscatter_detectors([0.0], np.array([1.0, 0.0, 0.0]))
        res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
            n_traj=20000, seed=5, chunk_size=10000, max_order=1_000_000)])[0]
        worst = max(worst, abs(res.escaped_weight / res.injected_weight - 1))
    dt = time.perf_counter() - t0
    _report(5, "ladder transport escapes all injected weight at b0 in "
            "{1, 5, 20}", worst < 1e-6 and dt < 300.0,
            f"worst={worst:.2e}, {dt:.1f}s")


def test_criterion_06_eit_window():
    t0 = time.perf_counter()
    sch = LevelScheme.lambda_rb87()
    gs = md.GroundState.isotropic(sch, 2, n0=0.01)
    ctrl = md.ControlField(rabi=1.0, omega_c=-sch.ground_energy(4),
                           twice_F0=4, twice_F_ref=2, polarization_q=0)
    dressed = md.transverse_decompose(
        md.susceptibility(sch, gs, ctrl, 0.0), [0, 0, 1]).chi0.imag
    bare = md.transverse_decompose(
        md.susceptibility(sch, gs, None, 0.0), [0, 0, 1]).chi0.imag
    ratio = dressed / bare
    dt = time.perf_counter() - t0
    _report(6, "EIT dip below 10% of the undressed line center",
            ratio < 0.1 and dt < 1.0, f"ratio={ratio:.2e}, {dt:.2f}s")


def _mie_extinction(eps, x):
    """Extinction cross section of a homogeneous sphere, k = 1.

    Standard Lorenz-Mie series; the logarithmic derivative of the
    internal Riccati-Bessel function comes from downward recurrence.
    """
    m = cmath.sqrt(eps)
    mx = m * x
    nmax = int(x + 4 * x ** (1 / 3) + 10)
    D = np.zeros(nmax + 16, dtype=complex)
    for n in range(nmax + 15, 0, -1):
        D[n - 1] = n / mx - 1.0 / (D[n] + n / mx)
    psi_nm1, chi_nm1 = math.cos(x), -math.sin(x)
    psi, chi = math.sin(x), math.cos(x)
    s = 0.0
    for n in range(1, nmax + 1):
        psin = (2 * n - 1) / x * psi - psi_nm1
        chin = (2 * n - 1) / x * chi - chi_nm1
        xin = psin - 1j * chin
        xinm1 = psi - 1j * chi
        da = D[n] / m + n / x
        db = D[n] * m + n / x
        a = (da * psin - psi) / (da * xin - xinm1)
        b = (db * psin - psi) / (db * xin - xinm1)
        s += (2 * n + 1) * (a + b).real
        psi_nm1, chi_nm1 = psi, chi
        psi, chi = psin, chin
    return 2 * math.pi * s


def _parabolic_peak(x, y, half_window):
    i = int(np.argmax(y))
    sel = np.abs(x - x[i]) <= half_window
    c = np.polyfit(x[sel], y[sel], 2)
    return -0.5 * c[1] / c[0]


def test_criterion_07_selfconsistent_vs_microscopic():
    t0 = time.perf_counter()
    n0s = 0.05
    n_atoms = 50
    radius = (3 * n_atoms / (4 * math.pi * n0s)) ** (1 / 3)
    rng = np.random.default_rng(7)
    configs = [mi.random_ball_configuration(n_atoms, radius, rng)
               for _ in range(40)]
    k_in = np.array([0.0, 0.0, 1.0])
    e_in = np.array([1.0, 0.0, 0.0], dtype=complex)
    deltas = np.linspace(-1.5, 1.5, 25)
    micro = np.array([
        np.mean([mi.DipoleSolver(c, float(d)).total_cross_section(k_in, e_in)
                 for c in configs]) for d in deltas])
    peak_micro = _parabolic_peak(deltas, micro, 0.5)

    fine = np.linspace(-1.5, 1.5, 121)
    sigma_mac = []
    im_chi = []
    for d in fine:
        eps = mi.self_consistent_epsilon(n0s, float(d))
        chi = eps.chi
        sigma_mac.append(_mie_extinction(eps.epsilon, radius))
        im_chi.append(chi.imag)
    peak_mac = _parabolic_peak(fine, np.array(sigma_mac), 0.5)
    blue = fine[int(np.argmax(im_chi))] > 0
    dt = time.perf_counter() - t0
    _report(7, "N=50 averaged spectra track the self-consistent sphere "
            "within gamma/2 with a blue-shifted bulk resonance",
            abs(peak_micro - peak_mac) < 0.5 and blue and dt < 1200.0,
            f"micro={peak_micro:+.3f}, macro={peak_mac:+.3f}, "
            f"bulk blue={blue}, {dt:.1f}s")


def test_criterion_08_slab_transmission():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        eps = 1 + rng.uniform(-0.5, 2.0) + 1j * rng.uniform(0, 1.0)
        L = rng.uniform(0.1, 20.0)
        T2 = mi.slab_transmission(eps, L).transmittance
        T2o = abs(_transfer_matrix_oracle(eps, L)) ** 2
        worst = max(worst, abs(T2 - T2o))
    n0 = 1e-3
    L = 20.0
    eps = mi.self_consistent_epsilon(n0, 0.0)
    beer_rel = abs(mi.slab_transmission(eps.epsilon, L).transmittance
                   / math.exp(-n0 * 6 * math.pi * L) - 1)
    dt = time.perf_counter() - t0
    _report(8, "slab transmission matches the transfer-matrix oracle and "
            "Beer's law when dilute",
            worst < 1e-12 and beer_rel < 0.01 and dt < 1.0,
            f"oracle={worst:.2e}, Beer rel={beer_rel:.4f}, {dt:.2f}s")


def test_criterion_09_angular_algebra():
    t0 = time.perf_counter()
    worst = 0.0
    twice = range(0, 9)  # all momenta <= 4 in half-integer steps
    for tj1 in twice:
        for tj2 in twice:
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tJp in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tM in range(-tJ, tJ + 1, 2):
                        if abs(tM) > tJp:
                            continue
                        s = sum(
                            clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2,
                                           (tM - tm1) / 2, tJ / 2, tM / 2)
                            * clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2,
                                             (tM - tm1) / 2, tJp / 2, tM / 2)
                            for tm1 in range(-tj1, tj1 + 1, 2))
                        worst = max(worst, abs(s - (tJ == tJp)))
    # 6j orthogonality on a momenta <= 4 sample
    for (ta, tb, tc, td) in ((2, 2, 2, 2), (3, 1, 2, 4), (4, 4, 4, 4),
                             (8, 6, 4, 2), (5, 3, 8, 6)):
        tf_min = max(abs(ta - td), abs(tb - tc))
        tf_max = min(ta + td, tb + tc)
        for tf in range(tf_min, tf_max + 1, 2):
            for tfp in range(tf_min, tf_max + 1, 2):
                tx_min = max(abs(ta - tb), abs(tc - td))
                tx_max = min(ta + tb, tc + td)
                s = sum(
                    (tx + 1) * (tf + 1)
                    * wigner_6j(ta / 2, tb / 2, tx / 2, tc / 2, td / 2,
                                tf / 2)
                    * wigner_6j(ta / 2, tb / 2, tx / 2, tc / 2, td / 2,
                                tfp / 2)
                    for tx in range(tx_min, tx_max + 1, 2))
                worst = max(worst, abs(s - (tf == tfp)))
    # repopulation preserves the excited-state trace at rate gamma
    sch = LevelScheme.rb85_d2()
    ne = len(sch.excited_sublevels())
    rho = np.eye(ne) / ne
    trace_err = abs(np.trace(repopulation_matrix(sch, rho)) - 1.0)
    dt = time.perf_counter() - t0
    _report(9, "angular-momentum orthogonality sums and repopulation trace",
            worst < 1e-12 and trace_err < 1e-12 and dt < 10.0,
            f"worst={worst:.2e}, trace err={trace_err:.2e}, {dt:.1f}s")


def test_criterion_10_phase_integral_unitarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_u = 0.0
    for _ in range(1000):
        phi0 = complex(rng.normal(), 0.0)
        phi = complex(rng.normal(), 0.0)
        director = rng.normal(size=3)
        director /= np.linalg.norm(director)
        X = pp.amplitude_matrix(phi0, phi * director)
        worst_u = max(worst_u, float(np.linalg.norm(
            X.conj().T @ X - np.eye(2))))

    # composition invariance under path splitting: the same path chopped
    # into coarse vs fine segments must compose to the same matrix
    base = rng.normal(size=(3, 3)) * 0.001 \
        + 1j * rng.normal(size=(3, 3)) * 0.0005

    def chi_sampler(p):
        mod = 1.0 + 0.3 * math.sin(0.05 * p[2]) + 0.1 * math.cos(0.04 * p[0])
        return base * mod

    X1, _ = pp.propagate_path(chi_sampler, [0.3, -0.2, 0.0],
                              [0.1, 0.2, 1.0], 40.0, max_segment=10.0)
    X2, _ = pp.propagate_path(chi_sampler, [0.3, -0.2, 0.0],
                              [0.1, 0.2, 1.0], 40.0, max_segment=1.25)
    worst_s = float(np.max(np.abs(X1 - X2)))
    dt = time.perf_counter() - t0
    _report(10, "amplitude matrices unitary for real media and invariant "
            "under path splitting",
            worst_u < 1e-10 and worst_s < 1e-9 and dt < 5.0,
            f"unitarity={worst_u:.2e}, splitting={worst_s:.2e}, {dt:.1f}s")


def test_criterion_11_gain_transport_instability():
    t0 = time.perf_counter()
    r0 = 8.0
    cloud = mc.Cloud(
        scheme=LevelScheme.simple(),
        n0=6.0 / (math.sqrt(2 * math.pi) * 6 * math.pi * r0), r0=r0)
    dets = mc.backscatter_detectors([0.0], np.array([1.0, 0.0, 0.0]))
    hpf = 6834.683 / 6.0666
    flags = []
    for rabi in (0.0, 300.0, 500.0, 800.0, 1200.0):
        sigma_g = md.raman_gain_cross_section(rabi, hpf)
        res = mc.simulate_ladder(cloud, dets, [mc.MCParams(
            n_traj=4000, seed=11, chunk_size=2000, max_order=400,
            extra_gain_sigma=sigma_g)])[0]
        flags.append(res.unstable)
    monotone = flags == sorted(flags)
    dt = time.perf_counter() - t0
    _report(11, "order-resolved tail flips from decaying to growing with "
            "pump strength", monotone and not flags[0] and flags[-1]
            and dt < 900.0, f"flags={flags}, {dt:.1f}s")


def test_criterion_12_psi_minus_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for n_bar in (0.1, 1.0, 10.0):
        state = pr.PsiMinusState.with_norm_tolerance(n_bar, tol=1e-9)
        worst = max(worst, abs(1.0 - state.norm_squared()))
    dt = time.perf_counter() - t0
    _report(12, "anti-correlated state normalization under the tail bound",
            worst < 1e-9 and dt < 1.0, f"worst={worst:.2e}, {dt:.2f}s")
