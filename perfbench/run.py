#!/usr/bin/env python3
"""coldscatter benchmark: scenario workloads run the way ``coldscatter run``
runs them, in one process, with output checks and an optional span trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from anywhere inside a source checkout; the package is imported
from the checkout's ``src``.  One pass parses the workload's generated
INI text and calls ``scenarios.run_scenario`` and ``cli.emit_results``
for each of its scenarios; passes repeat over the same input until
``--seconds`` have passed.  Every pass is checked (``checks.py``).  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Results, span files and layer tables go to
``.perfbench_out/`` in the checkout.  ``--workload all`` runs every
workload in turn and prints each metric by name and unit.  The exit code
is 0 only when every output check passed.
"""

import os

# Pin BLAS/OpenMP threads before anything imports numpy: with default
# threading a first N = 50 LU call measured 124 ms against 0.6 ms.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from checks import CHECKS, read_rows  # noqa: E402
from spans import Tracer, layer_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5      # fresh processes timed per run for setup_s
MIN_PASSES = 3        # per untraced run; a traced run makes at least 5
MAX_SPANS = 300_000   # a traced run stops tracing once it holds this many
TIMEOUT_S = 120       # for one set-up probe or one child run

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_CALLS_S = ("calls", "count"), ("s", "s")
_CALLS_SELF = ("calls", "count"), ("self_s", "s")
PER_LAYER = tuple(
    (f"{layer}.{suffix}", unit) for layer, suffixes in (
        ("mcscatter.scatter_event", _CALLS_SELF),
        ("mcscatter.sample_free_path", _CALLS_SELF),
        ("mcscatter.sample_entry", _CALLS_SELF),
        ("mcscatter.chord_depth", _CALLS_SELF),
        ("mcscatter.simulate_ladder", (("s", "s"), ("self_s", "s"))),
        ("mcscatter", (("events_per_traj", "events/traj"),
                       ("events_per_s", "1/s"))),
        ("medium.scattering_tensors", _CALLS_S),
        ("medium.susceptibility", _CALLS_S),
        ("medium.raman_shift", _CALLS_S),
        ("medium.transverse_decompose", _CALLS_S),
        ("medium", (("table_fills_per_event", "fills/event"),)),
        ("angular.LevelScheme.ground_sublevels", _CALLS_S),
        ("angular.dipole_matrix_element", _CALLS_S),
        ("microdipole.build_effective_hamiltonian", _CALLS_SELF),
        ("microdipole.field_green_tensor", _CALLS_S),
        ("microdipole.random_ball_configuration", _CALLS_S),
        ("microdipole.lu_factor", _CALLS_S + (("gflop_computed", "GFLOP"),)),
        ("microdipole.lu_solve", _CALLS_S),
        ("microdipole.self_consistent_epsilon", _CALLS_S),
        ("transport.solve_gain_diffusion_sphere", _CALLS_S),
        ("transport.lu_factor", (("calls", "count"),)),
        ("transport.lu_solve", (("calls", "count"),)),
        ("transport", (("iters_per_solve", "iters/solve"),)),
        ("config.parse_text", (("s", "s"),)),
        ("cli.emit_results", (("s", "s"), ("bytes", "B"))),
        ("trace", (("overhead_frac", "ratio"),)),
    ) for suffix, unit in suffixes)


def _import_package():
    """Import coldscatter from this checkout's src, and nowhere else."""
    if not (SRC / "coldscatter" / "__init__.py").is_file():
        raise SystemExit(f"error: no coldscatter source under {SRC}")
    sys.path.insert(0, str(SRC))
    import coldscatter
    from coldscatter import cli, config, scenarios
    if Path(coldscatter.__file__).resolve().parent != SRC / "coldscatter":
        raise SystemExit(f"error: imported coldscatter from "
                         f"{coldscatter.__file__}, not from {SRC}")
    return config, scenarios, cli


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "coldscatter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"blas_threads": THREADS, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "source_sha256": digest.hexdigest()}


def measure_setup(name: str, seed: int):
    """Wall time from spawning a fresh interpreter until it has imported
    the package and parsed the workload config, once per probe, and the
    calibration sampled around the probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", name, "--seed", str(seed)]
    times, cal = [], calibrate.Calibration()
    cal.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe exited with {code}")
        cal.sample()
    return times, cal


def run_pass(workload, mods, out_dir, cal):
    """One pass: parse, run and emit every scenario of the workload.

    Returns the time spent in run_scenario + emit_results, less the
    calibration samples taken at the scenarios' progress reports, and
    per scenario ``(config, csv_path)`` or ``(config_or_None, exception)``.
    """
    config, scenarios, cli = mods
    elapsed = 0.0
    outputs = []
    for ini in workload.inis:
        cfg = None
        paused = []
        try:
            cfg = config.parse_text(ini)
            t0 = time.perf_counter()
            record = scenarios.run_scenario(
                cfg, progress=lambda msg: paused.append(cal.sample_if_due()))
            csv_path, _ = cli.emit_results(record, cfg, out_dir)
            elapsed += time.perf_counter() - t0 - sum(paused)
            outputs.append((cfg, csv_path))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((cfg, exc))
    return elapsed, outputs


def check_output(cfg, result) -> list[str]:
    """Problems with one scenario call: its exception, or what its
    output check found."""
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    return [f"{cfg.scenario}: {p}"
            for p in CHECKS[cfg.scenario](read_rows(result), cfg)]


def _passes(seconds: float, minimum: int):
    """Yield pass indices until ``seconds`` have passed and at least
    ``minimum`` passes have run."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        yield i
        i += 1


def per_layer_metrics(tracer, workload, traced_runs, run_s, overhead):
    table = layer_table(tracer.spans, tracer.totals)
    rows = [table[i] for i in traced_runs]

    def med(key):
        return statistics.median(row.get(key, 0.0) for row in rows)

    events = med("mcscatter.scatter_event.calls")
    fills = med("medium.scattering_tensors.calls") \
        + med("medium.susceptibility.calls")
    spheres = med("transport.solve_gain_diffusion_sphere.calls")
    derived = {
        "mcscatter.events_per_traj":
            events / workload.work if workload.unit == "trajectories"
            else 0.0,
        "mcscatter.events_per_s": events / run_s,
        "medium.table_fills_per_event": fills / events if events else 0.0,
        "transport.iters_per_solve":
            med("transport.lu_solve.calls") / spheres if spheres else 0.0,
        "trace.overhead_frac": overhead,
    }
    return {name: derived[name] if name in derived else med(name)
            for name, _ in PER_LAYER}


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    setup, setup_cal = ([], None) if trace else measure_setup(name, seed)
    mods = _import_package()
    env = environment()
    tracer = Tracer() if trace else None

    out_dir = OUT / f"{name}-seed{seed}"
    passes = []     # (index, traced, seconds, ok), one per pass
    cal = calibrate.Calibration()
    cal.sample()
    attempted = failed = 0
    problems = []
    # a traced run starts with an untraced warm-up pass, then alternates
    # traced and untraced passes while the span store has room
    for i in _passes(seconds, 5 if trace else MIN_PASSES):
        traced = trace and i % 2 == 1 and len(tracer.spans) < MAX_SPANS
        if traced:
            tracer.run_id = i
            tracer.install()
        try:
            elapsed, outputs = run_pass(workload, mods, out_dir, cal)
        finally:
            if traced:
                tracer.uninstall()
        ok = True
        for cfg, result in outputs:
            found = check_output(cfg, result)
            attempted += 1
            failed += bool(found)
            ok = ok and not found
            problems.extend(f"pass {i}: {p}" for p in found)
        passes.append((i, traced, elapsed, ok))
        cal.sample()

    # a traced run's first pass is an untraced warm-up and is not timed
    timed = [p for p in passes if p[3] and not (trace and p[0] == 0)]
    untraced = [p[2] for p in timed if not p[1]]
    metrics = {}
    if not failed:
        run_s = cal.scale(untraced)
        if trace:
            # overhead: each traced pass against the untraced pass after
            # it, so both sides have as many samples from the same period
            traced_runs = [p[0] for p in timed if p[1]]
            paired = statistics.median(p[2] for p in timed if not p[1]
                                       and p[0] - 1 in traced_runs)
            traced_s = statistics.median(p[2] for p in timed if p[1])
            values = per_layer_metrics(tracer, workload, traced_runs, run_s,
                                       traced_s / paired - 1.0)
            units = dict(PER_LAYER)
        else:
            values = {
                "setup_s": setup_cal.scale(setup),
                "run_s": run_s,
                "work_per_s": workload.work / run_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(stem.with_suffix(".spans.tsv"))
        _write_layer_table(stem.with_suffix(".layers.txt"), metrics)
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": name, "seed": seed, "run_seed": workload.run_seed,
        "seconds": seconds, "trace": int(trace), "environment": env,
        "work_per_pass": workload.work, "work_unit": workload.unit,
        "inis": workload.inis, "calibration_nominal_s": calibrate.NOMINAL_S,
        "setup_wall_s": setup,
        "setup_kernel_s": setup_cal.times if setup_cal else [],
        "passes": [{"index": p[0], "traced": p[1], "wall_s": p[2],
                    "ok": p[3]} for p in passes],
        "kernel_s": cal.times,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics}, indent=2) + "\n")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"# {name} seed={seed} run.seed={workload.run_seed} "
          f"passes={len(passes)} timed={len(timed)} "
          f"work/pass={workload.work} {workload.unit} "
          f"failed_frac={failed / max(attempted, 1)!r}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for key, m in metrics.items():
        print(f"# {key} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _write_layer_table(path, metrics):
    with open(path, "w", encoding="utf-8") as fh:
        for key, m in metrics.items():
            fh.write(f"{key:52s} {m['value']:>16.6g} {m['unit']}\n")


def bench_all(seed: int, seconds: int, trace: int) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TIMEOUT_S + 3 * seconds)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        code = code or (0 if ok else 1)
        print(f"{name}: correct={ok} attempted={result.get('attempted')} "
              f"failed={result.get('failed')}")
        for key, m in result.get("metrics", {}).items():
            print(f"  {key:52s} {m['value']!r} {m['unit']}")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="import and parse only, then print 'ready' "
                        "(times set-up in a fresh process)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, args.trace)
    if args.probe:
        config, _, _ = _import_package()
        for ini in WORKLOADS[args.workload](args.seed).inis:
            config.parse_text(ini)
        print("ready", flush=True)
        return 0
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
