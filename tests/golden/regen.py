"""Rewrite the golden records: run every config in this directory and
write the CSV it produces next to it, with the environment it ran in.

    PYTHONPATH=src python tests/golden/regen.py

A change that rewrites a record lists in CHANGES.md which records moved
and by how much.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy
import scipy

from coldscatter.cli import _render
from coldscatter.config import parse_config
from coldscatter.scenarios import run_scenario

HERE = Path(__file__).resolve().parent
ENVIRONMENT = HERE / "environment.json"


def environment() -> dict:
    """The fingerprint of the environment the records must match
    exactly: the Python, numpy and scipy versions and the machine."""
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine()}


def configs() -> list[Path]:
    return sorted(HERE.glob("*.ini"))


def render(ini: Path) -> str:
    """The CSV text of the config ``ini``, as ``coldscatter run`` writes
    it."""
    cfg = parse_config(ini)
    return _render(run_scenario(cfg), cfg)[0]


def main():
    for ini in configs():
        ini.with_suffix(".csv").write_text(render(ini), encoding="utf-8",
                                           newline="")
    ENVIRONMENT.write_text(json.dumps(environment(), indent=2,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
