#!/usr/bin/env python3
"""Self-check of the benchmark's own arithmetic and output checks.

    python3 perfbench/selfcheck.py

Checks self-time arithmetic on a synthetic span tree, that every output
check accepts the program's real output and rejects a deliberately wrong
one, that the independent dipole solve agrees with the package's solver,
and that the metric lists match BENCHMARK.json.  Exits non-zero on the
first failure.
"""

import copy
import json
import math
import sys

import run  # pins BLAS threads before numpy is imported
from checks import CHECKS, dipole_cross_section
from spans import layer_table, self_times
from workloads import WORKLOADS


def check_self_times():
    # root [0, 10] with children A [1, 4], B [3, 6] (overlapping A) and
    # C [8, 12] (running past the root); A has a child A1 [2, 3]
    spans = [["root", 0.0, 10.0, -1, 0], ["A", 1.0, 4.0, 0, 0],
             ["A1", 2.0, 3.0, 1, 0], ["B", 3.0, 6.0, 0, 0],
             ["C", 8.0, 12.0, 0, 0]]
    got = self_times(spans)
    want = [10.0 - 5.0 - 2.0, 3.0 - 1.0, 1.0, 3.0, 4.0]
    assert got == want, f"self times {got} != {want}"
    table = layer_table(spans + [["A", 20.0, 21.5, -1, 1]], {(1, "A.x"): 2.0})
    assert table[0]["A.calls"] == 1 and table[1]["A.calls"] == 1
    assert table[1]["A.s"] == 1.5 and table[1]["A.x"] == 2.0


def program_output(mods, ini):
    config, scenarios, _ = mods
    cfg = config.parse_text(ini)
    record = scenarios.run_scenario(cfg)
    rows = [{"sweep_value": r.sweep_value, "value": r.value,
             "stat_err": r.stat_err, "channel": r.channel}
            for r in record.rows]
    return cfg, rows


def expect(cfg, rows, ok, what):
    problems = CHECKS[cfg.scenario](rows, cfg)
    assert (not problems) == ok, f"{cfg.scenario} {what}: {problems}"


def spoil(rows, channel, fn):
    bad = copy.deepcopy(rows)
    for r in bad:
        if r["channel"] == channel:
            fn(r)
    return bad


def check_outputs(mods):
    config = mods[0]

    cfg, rows = program_output(mods, WORKLOADS["cbs-twolevel"](1).inis[0])
    expect(cfg, rows, True, "real output")
    expect(cfg, spoil(rows, "hel_par",
                      lambda r: r.update(value=r["value"] - 0.5)),
           False, "eta(0) = 1.5")
    expect(cfg, spoil(rows, "hel_par", lambda r: r.update(value=0.9)),
           False, "eta below 1")

    # the ladder check on synthetic spectra: a Lorentzian at 0 passes,
    # one centred at +3 does not
    cfg = config.parse_text(WORKLOADS["ladder-rb85"](1).inis[0])
    line = [{"sweep_value": d, "value": 1.0 / (1.0 + d * d), "stat_err": 0.0,
             "channel": "ladder"} for d in [-5.0 + i for i in range(11)]]
    expect(cfg, line, True, "Lorentzian at 0")
    expect(cfg, spoil(line, "ladder", lambda r: r.update(
        value=1.0 / (1.0 + (r["sweep_value"] - 3.0) ** 2))),
        False, "peak at +3")
    expect(cfg, spoil(line, "ladder", lambda r: r.update(value=-1.0)),
           False, "negative intensity")

    # a small dipole cloud keeps this quick; the check redraws it from
    # the run seed and reproduces one point to 1e-10
    ini = WORKLOADS["dipole-dense"](1).inis[0].replace(
        "n_atoms = 50", "n_atoms = 8").replace("radius = 6.2", "radius = 3")
    cfg, rows = program_output(mods, ini)
    expect(cfg, rows, True, "real output")
    expect(cfg, spoil(rows, "cross_section",
                      lambda r: r.update(value=r["value"] * (1 + 1e-8))),
           False, "values off by 1e-8")
    from coldscatter.microdipole import DipoleSolver, Configuration
    pos = [[0.0, 0.0, 0.0], [0.7, 0.2, -0.3], [-0.4, 1.1, 0.5]]
    ref = DipoleSolver(Configuration(pos), 0.3).total_cross_section(
        [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    got = dipole_cross_section(pos, 0.3)
    assert math.isclose(got, ref, rel_tol=1e-12), (got, ref)

    eit, slab, diffusion = WORKLOADS["analytic-sweeps"](1).inis
    cfg, rows = program_output(mods, eit)
    expect(cfg, rows, True, "real output")
    peak = max(r["value"] for r in rows if r["channel"] == "im_chi")
    expect(cfg, spoil(rows, "im_chi", lambda r: r.update(value=peak)
                      if abs(r["sweep_value"]) < 1e-12 else None),
           False, "no EIT dip")
    cfg, rows = program_output(mods, slab)
    expect(cfg, rows, True, "real output")
    expect(cfg, spoil(rows, "transmittance", lambda r: r.update(value=1.2)),
           False, "transmittance 1.2")
    cfg, rows = program_output(mods, diffusion)
    expect(cfg, rows, True, "real output")
    expect(cfg, spoil(rows, "growth_rate", lambda r: r.update(
        value=r["sweep_value"] - 1.05 * math.pi * math.sqrt(9.5 / 3.0))),
        False, "threshold 5% high")


def check_metric_lists():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, listed in (("end_to_end", run.END_TO_END),
                        ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        assert declared == list(listed), f"{key} differs from BENCHMARK.json"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def main():
    check_self_times()
    check_outputs(run._import_package())
    check_metric_lists()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
