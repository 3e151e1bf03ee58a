"""Output checks, one per scenario, each by a route independent of the
code that produced the number.

Each check reads the rows the program wrote to its CSV and returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import random

import numpy as np

from workloads import L_G, L_TR


def read_rows(csv_path) -> list[dict]:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return [{"sweep_value": float(r["sweep_value"]),
                 "value": float(r["value"]),
                 "stat_err": float(r["stat_err"]),
                 "channel": r["channel"]}
                for r in csv.DictReader(fh)]


def _channel(rows, name):
    rows = [r for r in rows if r["channel"] == name]
    return (np.array([r["sweep_value"] for r in rows]),
            np.array([r["value"] for r in rows]),
            np.array([r["stat_err"] for r in rows]))


def check_cbs_cone(rows, cfg) -> list[str]:
    """Two-level CBS: eta(0) = 2 within 3 sigma (reciprocity with no single
    scattering in the helicity-preserving channel); every eta finite and
    >= 1."""
    theta, eta, err = _channel(rows, cfg["detection"]["channel"])
    problems = []
    if len(eta) != cfg["detection"]["n_theta"] or theta[0] != 0.0:
        return [f"expected {cfg['detection']['n_theta']} angles from 0, "
                f"got {theta.tolist()}"]
    if not np.all(np.isfinite(eta)):
        problems.append("non-finite eta")
    elif np.any(eta < 1.0):
        problems.append(f"eta below 1: {eta.min()!r}")
    if not abs(eta[0] - 2.0) <= 3.0 * err[0]:
        problems.append(f"eta(0) = {eta[0]!r} +/- {err[0]!r} is not 2 "
                        "within 3 sigma")
    return problems


def check_ladder_spectrum(rows, cfg) -> list[str]:
    """Every ladder intensity finite and positive; the backscattered
    intensity peaks within half a linewidth of the F=3 -> F'=4 line."""
    delta, value, _ = _channel(rows, "ladder")
    if len(value) != cfg["sweep"]["n"]:
        return [f"expected {cfg['sweep']['n']} detunings, got {len(value)}"]
    if not np.all(np.isfinite(value)) or np.any(value <= 0.0):
        return ["ladder intensity not finite and positive"]
    peak = delta[int(np.argmax(value))]
    if abs(peak) > 0.5:
        return [f"ladder peak at detuning {peak!r}, not within 0.5 of 0"]
    return []


def dipole_cross_section(positions, detuning: float) -> float:
    """Total cross section of a vector coupled-dipole configuration by a
    dense direct solve, x-polarized light along +z.

    The field Green tensor uses the closed forms of the spherical Hankel
    functions, h0(x) = -i e^{ix}/x and h2(x) = i e^{ix}/x (1 + 3i/x -
    3/x^2), built for all pairs at once; Q = 4 pi Im f through the optical
    theorem.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    R = pos[:, None, :] - pos[None, :, :]
    r = np.linalg.norm(R, axis=-1)
    np.fill_diagonal(r, 1.0)
    phase = np.exp(1j * r)
    h0 = -1j * phase / r
    h2 = 1j * phase / r * (1.0 + 3j / r - 3.0 / r ** 2)
    eye = np.eye(3)
    rr = R[:, :, :, None] * R[:, :, None, :] / r[:, :, None, None] ** 2
    G = -(1j * (2.0 / 3.0) * h0[:, :, None, None] * eye
          + (rr - eye / 3.0) * 1j * h2[:, :, None, None])
    G[np.arange(n), np.arange(n)] = 0.0
    H = 0.75 * G.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    H[np.diag_indices(3 * n)] = -detuning - 0.5j
    e_in = np.array([1.0, 0.0, 0.0])
    source = (np.exp(1j * pos[:, 2])[:, None] * e_in).ravel()
    x = np.linalg.solve(-H, source)
    exit_vec = (np.exp(-1j * pos[:, 2])[:, None] * e_in).ravel()
    return 4.0 * math.pi * (-0.75 * (exit_vec @ x)).imag


def check_coupled_dipole_spectrum(rows, cfg) -> list[str]:
    """One (configuration, detuning) cross section, chosen by the seed,
    reproduced to 1e-10 by :func:`dipole_cross_section`.  The
    configuration is redrawn from the run seed by the package's own
    sampler: the check is of the solver, not of the sampling."""
    from coldscatter.microdipole import random_ball_configuration

    d = cfg["dipole"]
    delta, value, _ = _channel(rows, "cross_section")
    if len(value) != cfg["sweep"]["n"] or d["n_configs"] != 1:
        return ["dipole check expects one configuration per sweep point"]
    rng = np.random.default_rng(cfg["run"]["seed"])
    conf = random_ball_configuration(d["n_atoms"], d["radius"], rng,
                                     model=d["model"])
    i = random.Random(cfg["run"]["seed"]).randrange(len(value))
    ref = dipole_cross_section(conf.positions, float(delta[i]))
    if not abs(value[i] - ref) <= 1e-10 * abs(ref):
        return [f"cross section at detuning {delta[i]!r} is {value[i]!r}, "
                f"direct solve gives {ref!r}"]
    return []


def check_eit_spectrum(rows, cfg) -> list[str]:
    """Im chi at the two-photon resonance (detuning 0) below 10% of the
    sweep maximum."""
    delta, im_chi, _ = _channel(rows, "im_chi")
    at_zero = im_chi[np.abs(delta) < 1e-12]
    if len(at_zero) != 1 or not np.all(np.isfinite(im_chi)):
        return ["no finite Im chi at the two-photon resonance"]
    if not at_zero[0] < 0.1 * im_chi.max():
        return [f"no EIT window: Im chi(0) = {at_zero[0]!r}, sweep maximum "
                f"{im_chi.max()!r}"]
    return []


def check_selfconsistent_slab(rows, cfg) -> list[str]:
    """Every slab transmittance in [0, 1]."""
    _, T, _ = _channel(rows, "transmittance")
    if len(T) != cfg["sweep"]["n"] or not np.all((T >= 0.0) & (T <= 1.0)):
        return ["slab transmittance outside [0, 1]"]
    return []


def check_diffusion_threshold(rows, cfg) -> list[str]:
    """Linearly interpolated zero of the growth rate within 2% of the
    Letokhov radius pi sqrt(l_tr l_g / 3)."""
    r, rate, _ = _channel(rows, "growth_rate")
    up = np.nonzero((rate[:-1] < 0.0) & (rate[1:] >= 0.0))[0]
    if len(up) != 1:
        return ["growth rate does not change sign once over the sweep"]
    i = up[0]
    r_zero = r[i] - rate[i] * (r[i + 1] - r[i]) / (rate[i + 1] - rate[i])
    r_star = math.pi * math.sqrt(L_TR * L_G / 3.0)
    if abs(r_zero - r_star) > 0.02 * r_star:
        return [f"growth-rate zero at r = {r_zero!r}, expected {r_star!r}"]
    return []


CHECKS = {
    "cbs-cone": check_cbs_cone,
    "ladder-spectrum": check_ladder_spectrum,
    "coupled-dipole-spectrum": check_coupled_dipole_spectrum,
    "eit-spectrum": check_eit_spectrum,
    "selfconsistent-slab": check_selfconsistent_slab,
    "diffusion-threshold": check_diffusion_threshold,
}
