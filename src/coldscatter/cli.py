"""Command-line front end: ``coldscatter run`` and ``coldscatter validate``.

Exit codes: 0 success, 1 configuration error, 2 numeric/engine error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, ScenarioConfig, canonical_text, \
    config_hash, override_run, parse_config
from .scenarios import ResultRecord, run_scenario

__all__ = ["main", "emit_results"]

CSV_HEADER = ["sweep_var", "sweep_value", "value", "stat_err", "order",
              "channel"]


def _csv_body(record: ResultRecord) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for row in record.rows:
        w.writerow([row.sweep_var, repr(row.sweep_value), repr(row.value),
                    repr(row.stat_err),
                    "" if row.order is None else row.order, row.channel])
    return buf.getvalue()


def _finite(fields: dict) -> dict:
    """``fields`` with each non-finite float spelled as its repr ("inf",
    "-inf", "nan"): RFC 8259 JSON has no such numbers."""
    return {key: repr(val) if isinstance(val, float)
            and not math.isfinite(val) else val
            for key, val in fields.items()}


def _json_body(record: ResultRecord, config: ScenarioConfig) -> str:
    doc = {
        "scenario": record.scenario,
        "version": record.version,
        "seed": record.seed,
        "config_hash": record.config_hash,
        "config": {"scenario": config.scenario,
                   "values": {section: _finite(keys) for section, keys
                              in config.values.items()}},
        "complete": record.complete,
        "wall_time_s": round(record.wall_time, 3),
        "rows": [_finite(vars(r)) for r in record.rows],
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def emit_results(record: ResultRecord, config: ScenarioConfig,
                 out_dir) -> tuple[Path, Path]:
    """Write <scenario>.csv and <scenario>.json; bit-stable for identical
    runs (wall time lives only in the JSON metadata)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = record.scenario + ("" if record.complete else ".incomplete")
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    csv_path.write_text(_csv_body(record), encoding="utf-8")
    json_path.write_text(_json_body(record, config), encoding="utf-8")
    return csv_path, json_path


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coldscatter",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--seed", type=int, help="override run.seed")
    run.add_argument("--workers", type=int, help="override run.workers")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress reporting")

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("config", help="path to the config file")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = parse_config(args.config)
            print(f"OK: {cfg.scenario} (hash {config_hash(cfg)[:12]})")
            print(canonical_text(cfg), end="")
            return 0

        cfg = override_run(parse_config(args.config), seed=args.seed,
                           workers=args.workers, out=args.out)
        out_dir = cfg["run"]["out"]
        progress = (lambda msg: None) if args.quiet else \
            (lambda msg: print(f"[{cfg.scenario}] {msg}", file=sys.stderr))
        try:
            record = run_scenario(cfg, progress=progress)
        except (ArithmeticError, ValueError, FloatingPointError) as exc:
            # persist whatever was computed before the failure
            partial = getattr(exc, "record", None)
            if partial is not None and partial.rows:
                emit_results(partial, cfg, out_dir)
            print(f"error [{cfg.scenario}]: {exc}", file=sys.stderr)
            return 2
        csv_path, json_path = emit_results(record, cfg, out_dir)
        print(csv_path)
        print(json_path)
        return 0
    except FileNotFoundError as exc:
        # the only file we read is the config; writes mkdir their parents
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
