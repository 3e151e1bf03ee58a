"""Golden records: every config in ``tests/golden`` runs through
``run_scenario`` and the CSV renderer and must reproduce the CSV
committed next to it.  ``tests/golden/regen.py`` rewrites them.

In the environment the records were made in (``environment.json``) the
text must match exactly.  Elsewhere, as with the oldest numpy and scipy
the project admits, the rows must match field for field: analytic and
coupled-dipole numbers to 1e-12 of the largest magnitude in their
channel (values that come from a cancellation carry only that absolute
accuracy), and Monte-Carlo values within 4 combined standard errors,
since an ulp can flip one sampling decision.  If an environment that
matches the recorded fingerprint ever rounds differently (a CPU whose
BLAS kernels differ), widen the fingerprint in ``regen.environment``;
do not loosen the comparison.
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from coldscatter.config import SCENARIOS, parse_config
from coldscatter.scenarios import run_scenario

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RECORDED = json.loads(regen.ENVIRONMENT.read_text(encoding="utf-8"))
MONTE_CARLO = {"cbs-cone", "ladder-spectrum", "gain-transport"}
RTOL = 1e-12
N_SIGMA = 4.0


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _agree(expected: str, actual: str, monte_carlo: bool):
    """Assert the tolerance comparison of two CSV texts."""
    exp, act = _rows(expected), _rows(actual)
    assert len(act) == len(exp)
    numeric = ("sweep_value", "value", "stat_err")
    scale = {}
    for row in exp:
        for key in numeric:
            v = abs(float(row[key]))
            if math.isfinite(v):
                k = (row["channel"], key)
                scale[k] = max(scale.get(k, 0.0), v)
    for e, a in zip(exp, act):
        for key in ("sweep_var", "order", "channel"):
            assert a[key] == e[key], (e, a)
        for key in numeric:
            if monte_carlo and key == "stat_err":
                continue  # sampled, and used below as the tolerance
            x, y = float(e[key]), float(a[key])
            tol = RTOL * scale.get((e["channel"], key), 0.0)
            if monte_carlo and key == "value":
                tol += N_SIGMA * math.hypot(float(e["stat_err"]),
                                            float(a["stat_err"]))
            assert x == y or abs(x - y) <= tol, (key, e, a)


def test_golden_records_cover_every_scenario():
    configs = regen.configs()
    assert {parse_config(ini).scenario for ini in configs} == set(SCENARIOS)
    assert all(ini.with_suffix(".csv").is_file() for ini in configs)


@pytest.mark.parametrize("ini", regen.configs(), ids=lambda p: p.stem)
def test_golden_record(ini):
    expected = ini.with_suffix(".csv").read_text(encoding="utf-8")
    actual = regen.render(ini)
    if regen.environment() == RECORDED:
        assert actual == expected
    else:
        _agree(expected, actual,
               parse_config(ini).scenario in MONTE_CARLO)


@pytest.mark.parametrize("ini", regen.configs(), ids=lambda p: p.stem)
def test_golden_rows_hold_python_scalars(ini):
    # a numpy scalar would be written as 'np.float64(0.1)' under numpy 2
    # but as '0.1' under numpy 1, where the tolerance path would pass it
    rows = run_scenario(parse_config(ini)).rows
    assert rows
    for row in rows:
        assert {type(v) for v in row} <= {float, int, str, type(None)}, row


def test_tolerance_path_accepts_its_own_record_and_rejects_a_move():
    # the comparison used away from the recorded environment
    ini = regen.HERE / "diffusion-threshold.ini"
    text = ini.with_suffix(".csv").read_text(encoding="utf-8")
    _agree(text, text, monte_carlo=False)
    rows = _rows(text)
    value = float(rows[0]["value"])
    moved = text.replace(rows[0]["value"], repr(value * (1.0 + 1e-11)), 1)
    with pytest.raises(AssertionError):
        _agree(text, moved, monte_carlo=False)
