"""Workload definitions: seeded INI scenario text and the work each pass does.

Every input the program sees is INI text generated here from the
benchmark seed; nothing else reaches the package.  The physics of each
workload is fixed; the seed picks the Monte-Carlo and configuration
streams and jitters the analytic sweep grids, so that different seeds
give different inputs of the same size.

Only the standard library is imported, so that a set-up probe pays the
package import alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Passes are kept short (about a second on one core) so that a run holds
# a dozen or more: on a shared host the median of many short passes
# spreads far less from run to run than that of a few long ones.  300
# trajectories per detuning keep the per-detuning medium-table refill
# near the 12% of ladder time seen in a profile; 11 points span the
# default +-5 gamma range in steps of 1 gamma.
CBS_TRAJECTORIES = 2000
LADDER_TRAJECTORIES = 300
LADDER_POINTS = 11
DIPOLE_DETUNINGS = 25
EIT_POINTS = 161
SLAB_POINTS = 161
DIFFUSION_POINTS = 41

# Criterion-04 physics: r* = pi sqrt(l_tr l_g / 3) ~= 5.59.
L_TR = 1.0
L_G = 9.5


@dataclass(frozen=True)
class Workload:
    name: str
    inis: tuple          # INI texts run in order; one pass runs them all
    work: int            # work units per pass (see ``unit``)
    unit: str            # trajectories, solves or points
    run_seed: int        # the run.seed handed to the program


def _header(scenario: str, seed: int) -> str:
    return f"[run]\nscenario = {scenario}\nseed = {seed}\nworkers = 1\n"


def cbs_twolevel(seed: int) -> Workload:
    run_seed = random.Random(seed).randrange(2 ** 31)
    ini = _header("cbs-cone", run_seed) + (
        "[atom]\nkind = two-level\n"
        "[cloud]\nn0 = 0.0166\nr0 = 8\n"
        "[detection]\nchannel = hel_par\ntheta_max = 0.3\nn_theta = 7\n"
        f"[mc]\ntrajectories = {CBS_TRAJECTORIES}\n")
    return Workload("cbs-twolevel", (ini,), CBS_TRAJECTORIES, "trajectories",
                    run_seed)


def ladder_rb85(seed: int) -> Workload:
    run_seed = random.Random(seed).randrange(2 ** 31)
    # mc.chunk_size stays at its default, so the medium tables are
    # refilled once per detuning as a user's run refills them
    ini = _header("ladder-spectrum", run_seed) + (
        "[atom]\nkind = rb85\n"
        "[cloud]\nn0 = 0.0387\nr0 = 8\n"
        f"[sweep]\nstart = -5\nstop = 5\nn = {LADDER_POINTS}\n"
        f"[mc]\ntrajectories = {LADDER_TRAJECTORIES}\n")
    return Workload("ladder-rb85", (ini,),
                    LADDER_POINTS * LADDER_TRAJECTORIES, "trajectories",
                    run_seed)


def dipole_dense(seed: int) -> Workload:
    run_seed = random.Random(seed).randrange(2 ** 31)
    # N = 50 in a ball of radius 6.2: n0 lambda-bar^3 = 0.05 (criterion 07)
    ini = _header("coupled-dipole-spectrum", run_seed) + (
        "[dipole]\nn_atoms = 50\nradius = 6.2\nmodel = vector\n"
        "n_configs = 1\ngeometry = ball\n"
        f"[sweep]\nstart = -1.5\nstop = 1.5\nn = {DIPOLE_DETUNINGS}\n")
    return Workload("dipole-dense", (ini,), DIPOLE_DETUNINGS, "solves",
                    run_seed)


def analytic_sweeps(seed: int) -> Workload:
    rnd = random.Random(seed)
    run_seed = rnd.randrange(2 ** 31)
    # symmetric odd-point grid: the two-photon resonance (detuning 0 for
    # a control tuned to the upper ground level) is always a grid point
    eit_span = rnd.uniform(4.0, 6.0)
    slab_shift = rnd.uniform(-0.5, 0.5)
    r_shift = rnd.uniform(-0.2, 0.2)
    eit = _header("eit-spectrum", run_seed) + (
        "[atom]\nkind = lambda-rb87\n"
        "[control]\nrabi = 1\n"
        f"[sweep]\nstart = {-eit_span!r}\nstop = {eit_span!r}\n"
        f"n = {EIT_POINTS}\n")
    slab = _header("selfconsistent-slab", run_seed) + (
        "[slab]\ndensity = 0.05\n"
        f"[sweep]\nstart = {-5.0 + slab_shift!r}\nstop = {5.0 + slab_shift!r}\n"
        f"n = {SLAB_POINTS}\n")
    diffusion = _header("diffusion-threshold", run_seed) + (
        f"[diffusion]\nl_tr = {L_TR!r}\nl_g = {L_G!r}\n"
        f"[sweep]\nstart = {4.6 + r_shift!r}\nstop = {6.6 + r_shift!r}\n"
        f"n = {DIFFUSION_POINTS}\n")
    return Workload("analytic-sweeps", (eit, slab, diffusion),
                    EIT_POINTS + SLAB_POINTS + DIFFUSION_POINTS, "points",
                    run_seed)


WORKLOADS = {
    "cbs-twolevel": cbs_twolevel,
    "ladder-rb85": ladder_rb85,
    "dipole-dense": dipole_dense,
    "analytic-sweeps": analytic_sweeps,
}
