"""Scenario engines behind the CLI: dispatch, sweeps, result records."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .angular import LevelScheme
from .config import ScenarioConfig, config_hash
from .medium import ControlField, GroundState, beam_chi0
from .microdipole import cross_section_spectrum, gaussian_configuration, \
    random_ball_configuration, self_consistent_epsilon, slab_transmission
from .transport import DiffusionModel, solve_gain_diffusion_sphere
from .protocols import PsiMinusState, mz_signal
from . import mcscatter as mc

__all__ = ["ResultRecord", "ResultRow", "run_scenario"]


class ResultRow(NamedTuple):
    """One output row.  Its fields hold Python scalars (float, int, str
    or None), never numpy ones, so a row formats as its digits."""

    sweep_var: str
    value: float
    stat_err: float = 0.0
    order: int | None = None
    channel: str = ""
    sweep_value: float = 0.0


@dataclass
class ResultRecord:
    scenario: str
    config_hash: str
    version: str
    seed: int
    rows: list = field(default_factory=list)
    wall_time: float = 0.0
    complete: bool = True


_SCHEMES = {
    "two-level": LevelScheme.simple,
    "rb85": LevelScheme.rb85_d2,
    "rb87": LevelScheme.rb87_d2,
    "lambda-rb87": LevelScheme.lambda_rb87,
}


def _scheme(kind: str) -> LevelScheme:
    return _SCHEMES[kind]()


def _cloud(cfg: ScenarioConfig) -> mc.Cloud:
    return mc.Cloud(scheme=_scheme(cfg["atom"]["kind"]),
                    n0=cfg["cloud"]["n0"], r0=cfg["cloud"]["r0"])


def _sweep_grid(cfg: ScenarioConfig) -> np.ndarray:
    s = cfg["sweep"]
    return np.linspace(s["start"], s["stop"], s["n"])


def _mc_params(cfg: ScenarioConfig, **kw) -> mc.MCParams:
    m = cfg["mc"]
    return mc.MCParams(n_traj=m["trajectories"], max_order=m["max_order"],
                       chunk_size=m["chunk_size"], seed=cfg["run"]["seed"],
                       **kw)


_BACKWARD_X = mc.backscatter_detectors([0.0], np.array([1.0, 0.0, 0.0]))


def _rows(sweep_var: str, grid: np.ndarray, *columns):
    """At each point of ``grid``, one row per ``(channel, values, errs)``
    column of arrays over ``grid`` (``errs`` None: exact values).  Each
    array goes through ``.tolist()``, so the fields are Python scalars."""
    points = grid.tolist()
    cols = [(channel, values.tolist(),
             [0.0] * len(points) if errs is None else errs.tolist())
            for channel, values, errs in columns]
    for i, x in enumerate(points):
        for channel, values, errs in cols:
            yield ResultRow(sweep_var, values[i], errs[i], None, channel, x)


def _run_cbs_cone(cfg, progress):
    cloud = _cloud(cfg)
    det = cfg["detection"]
    thetas = np.linspace(0.0, det["theta_max"], det["n_theta"])
    res = mc.cbs_enhancement(cloud, thetas, _mc_params(cfg),
                             channel=det["channel"],
                             n_workers=cfg["run"]["workers"])
    if np.isnan(res.eta).any():
        raise ArithmeticError(
            "no scattered light of any order reaches the detectors at "
            f"theta = {thetas[np.isnan(res.eta)].tolist()}, so the CBS "
            "enhancement is undefined there")
    return _rows("theta", thetas, (det["channel"], res.eta, res.stat_err))


def _run_ladder_spectrum(cfg, progress):
    grid = _sweep_grid(cfg)
    results = mc.simulate_ladder(
        _cloud(cfg), _BACKWARD_X,
        [_mc_params(cfg, detuning=d) for d in grid.tolist()],
        n_workers=cfg["run"]["workers"])
    return _rows("detuning", grid, (
        "ladder", np.array([res.ladder_total[0] for res in results]),
        np.array([res.stat_err[0] for res in results])))


def _run_gain_transport(cfg, progress):
    cloud = _cloud(cfg)
    sigma0 = cloud.sigma0()
    grid = _sweep_grid(cfg)
    results = mc.simulate_ladder(
        cloud, _BACKWARD_X,
        [_mc_params(cfg, extra_gain_sigma=g * sigma0) for g in grid.tolist()],
        n_workers=cfg["run"]["workers"])
    injected = np.array([res.injected_weight for res in results])
    return _rows(
        "gain", grid,
        ("escaped_fraction",
         np.array([res.escaped_weight for res in results]) / injected,
         np.array([res.escaped_err for res in results]) / injected),
        ("unstable", np.array([res.unstable for res in results], dtype=float),
         None))


def _run_eit_spectrum(cfg, progress):
    sch = _scheme(cfg["atom"]["kind"])
    if len(sch.ground) < 2:
        raise ValueError("eit-spectrum needs a multi-ground-level atom "
                         "(use atom.kind = lambda-rb87)")
    ctrl = ControlField(rabi=cfg["control"]["rabi"],
                        omega_c=-sch.ground_energy(sch.ground[1].twice_F),
                        twice_F0=sch.ground[1].twice_F,
                        twice_F_ref=sch.excited[0].twice_F,
                        polarization_q=cfg["control"]["polarization_q"])
    gs = GroundState.isotropic(sch, sch.ground[0].twice_F,
                               n0=cfg["cloud"]["n0"])
    grid = _sweep_grid(cfg)
    chi0 = beam_chi0(sch, gs, ctrl, grid)
    return _rows("detuning", grid, ("im_chi", chi0.imag, None),
                 ("re_chi", chi0.real, None))


def _run_coupled_dipole_spectrum(cfg, progress):
    d = cfg["dipole"]
    rng = np.random.default_rng(cfg["run"]["seed"])
    factory = random_ball_configuration if d["geometry"] == "ball" \
        else gaussian_configuration
    grid = _sweep_grid(cfg)
    n = d["n_configs"]
    k_in = np.array([0.0, 0.0, 1.0])
    e_in = np.array([1.0, 0.0, 0.0], dtype=complex)
    spectra = np.empty((n, len(grid)))
    for c in range(n):
        # one configuration, with its cached coupling, in memory at a time
        conf = factory(d["n_atoms"], d["radius"], rng, model=d["model"])
        # the scalar model ignores e_in
        spectra[c] = cross_section_spectrum(conf, grid, k_in, e_in)
        del conf
        progress(f"configuration {c + 1}/{n}")
    # ddof=1 is undefined for one configuration
    err = spectra.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 \
        else np.full(len(grid), np.inf)
    return _rows("detuning", grid,
                 ("cross_section", spectra.mean(axis=0), err))


def _run_selfconsistent_slab(cfg, progress):
    s = cfg["slab"]
    grid = _sweep_grid(cfg)
    eps = self_consistent_epsilon(s["density"], grid)
    T = slab_transmission(eps.epsilon, s["thickness"])
    return _rows("detuning", grid, ("transmittance", T.transmittance, None))


def _run_diffusion_threshold(cfg, progress):
    d = cfg["diffusion"]
    for r0 in _sweep_grid(cfg).tolist():
        model = DiffusionModel(v_bar=d["v_bar"], l0_bar=d["l_tr"],
                               albedo=d["albedo"], l_g=d["l_g"], r0=r0)
        yield ResultRow("radius",
                        solve_gain_diffusion_sphere(model).growth_rate,
                        channel="growth_rate", sweep_value=r0)


def _run_protocol_utils(cfg, progress):
    p = cfg["protocol"]
    for n_bar in _sweep_grid(cfg).tolist():
        state = PsiMinusState.with_norm_tolerance(n_bar, tol=1e-9)
        yield ResultRow("n_bar", 1.0 - state.norm_squared(),
                        channel="norm_deficit", sweep_value=n_bar)
    yield ResultRow("n_atoms", mz_signal(p["i_mean"], p["xi"], p["n_atoms"]),
                    channel="mz_signal", sweep_value=p["n_atoms"])


# runner(cfg, progress) -> iterable of ResultRows; run_scenario alone
# collects, checks and reports them
_DISPATCH = {
    "cbs-cone": _run_cbs_cone,
    "ladder-spectrum": _run_ladder_spectrum,
    "gain-transport": _run_gain_transport,
    "eit-spectrum": _run_eit_spectrum,
    "coupled-dipole-spectrum": _run_coupled_dipole_spectrum,
    "selfconsistent-slab": _run_selfconsistent_slab,
    "diffusion-threshold": _run_diffusion_threshold,
    "protocol-utils": _run_protocol_utils,
}


def run_scenario(cfg: ScenarioConfig, progress=lambda msg: None
                 ) -> ResultRecord:
    """Execute a validated config and return its result record.

    Each row the scenario yields is checked as it arrives.  A row whose
    value is not finite, or whose ``stat_err`` is NaN or negative,
    raises ArithmeticError; an infinite ``stat_err`` (that of a single
    dipole configuration) is kept.  On that or any other engine error
    the record (marked incomplete) rides on the exception as ``record``
    and holds the rows before it.  Once all rows are in, ``progress``
    gets their count.
    """
    record = ResultRecord(scenario=cfg.scenario, config_hash=config_hash(cfg),
                          version=__version__, seed=cfg["run"]["seed"])
    t0 = time.perf_counter()
    try:
        # an overflow or an invalid operation inside an engine shows up
        # in its result, which the finite-row check below judges
        with np.errstate(over="ignore", invalid="ignore"):
            for row in _DISPATCH[cfg.scenario](cfg, progress):
                if not (math.isfinite(row.value) and row.stat_err >= 0):
                    raise ArithmeticError(
                        f"{cfg.scenario} gives {row.channel} = "
                        f"{row.value!r} (stat_err {row.stat_err!r}) at "
                        f"{row.sweep_var} = {row.sweep_value!r}, not a "
                        f"finite result")
                record.rows.append(row)
    except Exception as exc:
        record.complete = False
        exc.record = record
        raise
    finally:
        record.wall_time = time.perf_counter() - t0
    progress(f"{len(record.rows)} rows")
    return record
