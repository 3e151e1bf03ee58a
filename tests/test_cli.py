import csv
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coldscatter
from coldscatter import cli, scenarios
from coldscatter import config as cf
from coldscatter.scenarios import ResultRecord, ResultRow, run_scenario


MINIMAL = "[run]\nscenario = protocol-utils\n\n[sweep]\nstart = 0.5\nstop = 2\nn = 3\n"


def test_parse_minimal_fills_defaults():
    cfg = cf.parse_text(MINIMAL)
    assert cfg.scenario == "protocol-utils"
    assert cfg["run"]["seed"] == 0
    assert cfg["protocol"]["xi"] == 0.01
    # only [run] and the sections the scenario reads
    assert sorted(cfg.values) == ["protocol", "run", "sweep"]


def test_all_errors_reported_not_first_only():
    bad = ("[run]\nscenario = nope\nseed = -1\n\n"
           "[cloud]\nn0 = -2\nradius_mm = 5\n")
    with pytest.raises(cf.ConfigError) as exc:
        cf.parse_text(bad)
    msgs = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 4
    assert "run.scenario" in msgs
    assert "run.seed" in msgs
    assert "cloud.n0" in msgs
    assert "cloud.radius_mm" in msgs


def test_unknown_key_suggestion():
    with pytest.raises(cf.ConfigError) as exc:
        cf.parse_text("[run]\nscenario = cbs-cone\n\n[cloud]\nn_0 = 0.1\n")
    assert any("did you mean cloud.n0" in e for e in exc.value.errors)


def test_unknown_section_suggestion():
    with pytest.raises(cf.ConfigError) as exc:
        cf.parse_text("[run]\nscenario = cbs-cone\n\n[clouds]\nn0 = 0.1\n")
    assert any("did you mean [cloud]" in e for e in exc.value.errors)


def test_missing_scenario():
    with pytest.raises(cf.ConfigError) as exc:
        cf.parse_text("[run]\nseed = 3\n")
    assert any("run.scenario is required" in e for e in exc.value.errors)


def test_type_errors_named():
    with pytest.raises(cf.ConfigError) as exc:
        cf.parse_text("[run]\nscenario = cbs-cone\nseed = 1.5\n")
    assert any("run.seed" in e for e in exc.value.errors)


@pytest.mark.parametrize("raw, value", [
    ("123456789012345678", 123456789012345678),
    ("9007199254740993", 2 ** 53 + 1),
    ("18446744073709551615", 2 ** 64 - 1),
    ("1e3", 1000),
    ("2.0e4", 20000),
])
def test_integer_keys_parse_exactly(raw, value):
    cfg = cf.parse_text(f"[run]\nscenario = cbs-cone\nseed = {raw}\n")
    assert cfg["run"]["seed"] == value


@pytest.mark.parametrize("raw", ["123456789012345678.5", "1e-3", "nan",
                                 "inf", "1e999999999", "0x10"])
def test_non_integers_are_parse_errors(raw):
    with pytest.raises(cf.ConfigError) as exc:
        cf.parse_text(f"[run]\nscenario = cbs-cone\nseed = {raw}\n")
    assert exc.value.errors == [f"run.seed: cannot parse {raw!r} as int"]


def test_largest_seed_runs_and_the_next_is_a_config_error(tmp_path, capsys):
    text = ("[run]\nscenario = cbs-cone\nseed = {}\n[detection]\n"
            "n_theta = 2\n[mc]\ntrajectories = 20\n")
    p = tmp_path / "c.ini"
    p.write_text(text.format(2 ** 64 - 1))
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "cbs-cone.json").read_text())
    assert doc["seed"] == 2 ** 64 - 1
    p.write_text(text.format(2 ** 64))
    out = tmp_path / "over"
    assert cli.main(["run", str(p), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: run.seed: 18446744073709551616 violates: "
        "in [0, 2^64)\n")
    assert not out.exists()


def test_canonicalization_round_trip():
    cfg = cf.parse_text(MINIMAL)
    text = cf.canonical_text(cfg)
    again = cf.parse_text(text)
    assert again == cfg
    assert cf.canonical_text(again) == text


@pytest.mark.parametrize("out", ["it's", "C:\\data", 'say "hi"',
                                 'it\'s "C:\\data"'])
def test_string_values_keep_their_text(tmp_path, capsys, out):
    text = MINIMAL.replace("[run]\n", f"[run]\nout = {out}\n")
    cfg = cf.parse_text(text)
    assert cfg["run"]["out"] == out
    assert f"\nout = {out}\n" in cf.canonical_text(cfg)
    assert cf.parse_text(cf.canonical_text(cfg)) == cfg
    p = tmp_path / "c.ini"
    p.write_text(text)
    assert cli.main(["validate", str(p)]) == 0
    assert f"\nout = {out}\n" in capsys.readouterr().out


# config_hash of the golden configs, and of the benchmark's at seed 1 (its
# inis in order): how canonical_text writes a value must not move the
# hash of a config already in use
_GOLDEN_HASHES = {
    "cbs-cone":
        "6ae4af1aa7947bc4bda812748b2a93f3469d5f6db4c0288f8ef902afaf67696a",
    "coupled-dipole-spectrum":
        "b260b653b2063fa85a2a304595a84b388a1740a2c25b18a765ca4934367b01c9",
    "diffusion-threshold":
        "7d71c36a2fbc40eb3afa3547077402b964b00e3dddcc9fbebd13c78d15b98ec6",
    "eit-spectrum":
        "5be7a443866f9f21b460565f2294c761015b192ee16be448aed11db3214e562d",
    "gain-transport":
        "da753322ed484dd8eb0790bb90f670b8f1d5560b54199b4b1d709362c35fb031",
    "ladder-spectrum":
        "14c27d825069fb310992a69b4590aa5b1be8a1e74b88ddcbb81b856a524d7a4b",
    "protocol-utils":
        "621a780c8aa3e1c23a6bed30f081bec991223286934d13a806d996519f072eef",
    "selfconsistent-slab":
        "b3b254cd66ce215664333791fabb4fd431d90f3a4df9d6f89fd1affe8a617d10",
}
_BENCHMARK_HASHES = {
    "cbs-twolevel": (
        "f1289942663a9ec7d1f182c137ffe8f7d046c4ffd64f66611845df7d7ac112c1",),
    "ladder-rb85": (
        "e37e954b2a56dd9d4d33e3ff9fdf0b943cb8348bf5210d3da9b1f2f1a6e6a022",),
    "dipole-dense": (
        "3d45dedf3db702d979288d4fb7cdd614702c97f4784f9159735fd7afac54a266",),
    "analytic-sweeps": (
        "c63fae494446aa615d1e8b6245922ff0541ad6d3d22897d9ce88b12c05a318d9",
        "4594dc131d7f10dd7c73ed2bd0ea26d7d6dd02672fb764274f1e34e510d78b27",
        "9ef386b433cb53149a2df7f525176e05cadd05ab6010fcec966069bc084cd71a"),
}


def test_config_hashes_of_golden_and_benchmark_configs_are_pinned(
        monkeypatch):
    root = Path(__file__).parent.parent
    assert {ini.stem: cf.config_hash(cf.parse_config(ini))
            for ini in (root / "tests" / "golden").glob("*.ini")} == \
        _GOLDEN_HASHES
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert {name: tuple(cf.config_hash(cf.parse_text(ini))
                        for ini in make(1).inis)
            for name, make in workloads.WORKLOADS.items()} == \
        _BENCHMARK_HASHES


@pytest.mark.parametrize("text, message", [
    ("scenario = cbs-cone\n",
     "syntax error: File contains no section headers. "),
    ("[cloud]\nn0 = 1\n", "missing required section [run]"),
], ids=["no-section-header", "no-run-section"])
def test_config_without_a_run_section_is_refused(tmp_path, capsys, text,
                                                 message):
    p = tmp_path / "c.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["validate", str(p)]) == 1
    assert cli.main(["run", str(p), "--out", str(out)]) == 1
    # one line from each command, each a config error
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1], err
    assert err[0].startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 5\n[run]\nscenario = protocol-utils\n",
    "[DEFAULT]\nxi = 5\n[run]\nscenario = protocol-utils\n"
    "[protocol]\ni_mean = 2\n",
], ids=["run-key", "protocol-key"])
def test_a_default_section_is_refused(tmp_path, capsys, text):
    # configparser would copy [DEFAULT]'s keys into every section
    p = tmp_path / "c.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["validate", str(p)]) == 1
    assert cli.main(["run", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: unknown section [DEFAULT]"] * 2, err
    assert not out.exists()


def test_config_hash_semantics():
    a = cf.parse_text(MINIMAL)
    b = cf.parse_text(MINIMAL.replace("n = 3", "n = 3") + "\n# comment\n")
    c = cf.parse_text(MINIMAL.replace("stop = 2", "stop = 3"))
    assert cf.config_hash(a) == cf.config_hash(b)
    assert cf.config_hash(a) != cf.config_hash(c)
    # where the output goes and how many workers run it is not physics
    d = cf.parse_text(MINIMAL.replace(
        "[run]\n", "[run]\nout = elsewhere/x\nworkers = 2\n"))
    assert d["run"]["workers"] == 2
    assert cf.config_hash(a) == cf.config_hash(d)
    # seeds beyond 2^53 that a float would merge hash apart, in a
    # scenario that draws from its seed
    e, f = (cf.parse_text(f"[run]\nscenario = cbs-cone\nseed = {s}\n")
            for s in (2 ** 53, 2 ** 53 + 1))
    assert cf.config_hash(e) != cf.config_hash(f)


def _table(scenario):
    """The (section, key) pairs config.py lists as read by ``scenario``."""
    return set(cf._entries(*cf._READS[scenario]))


class _RecordingSection(dict):
    """A config section that notes each key read from it."""

    def __init__(self, section, keys, read):
        super().__init__(keys)
        self.section, self.read = section, read

    def __getitem__(self, key):
        self.read.add((self.section, key))
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "ini", sorted((Path(__file__).parent / "golden").glob("*.ini")),
    ids=lambda ini: ini.stem)
def test_each_runner_reads_exactly_the_keys_of_its_table_entry(ini):
    cfg = cf.parse_config(ini)
    read = set()
    recording = cf.ScenarioConfig(cfg.scenario, {
        section: _RecordingSection(section, keys, read)
        for section, keys in cfg.values.items()})
    # under the error handling run_scenario gives the runners
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(scenarios._DISPATCH[cfg.scenario](recording,
                                                      lambda msg: None))
    # run.workers decides how many processes share the work, not its
    # result (test_cli_worker_count_does_not_change_results)
    assert read - {("run", "workers")} == _table(cfg.scenario)


# a valid value other than every scenario's default, for each key but
# run.scenario
_OTHER_VALUES = {
    "run.seed": "7", "run.workers": "2", "run.out": "elsewhere",
    "atom.kind": "rb87", "cloud.n0": "0.02", "cloud.r0": "8",
    "control.rabi": "1", "control.polarization_q": "1",
    "detection.channel": "lin_perp", "detection.theta_max": "0.2",
    "detection.n_theta": "3",
    "sweep.start": "0.5", "sweep.stop": "2", "sweep.n": "3",
    "mc.trajectories": "100", "mc.max_order": "10", "mc.chunk_size": "50",
    "dipole.n_atoms": "4", "dipole.radius": "3", "dipole.model": "scalar",
    "dipole.n_configs": "1", "dipole.geometry": "gaussian",
    "slab.thickness": "5", "slab.density": "0.05",
    "diffusion.l_tr": "2", "diffusion.l_g": "inf", "diffusion.v_bar": "0.5",
    "diffusion.albedo": "0.9",
    "protocol.xi": "0.5", "protocol.i_mean": "2", "protocol.n_atoms": "10",
}
_DRAWS_FROM_SEED = {"cbs-cone", "ladder-spectrum", "gain-transport",
                    "coupled-dipole-spectrum"}


@pytest.mark.parametrize("scenario", cf.SCENARIOS)
def test_a_key_moves_the_hash_if_and_only_if_the_scenario_reads_it(
        scenario):
    assert set(_OTHER_VALUES) == {f"{section}.{key}" for section, keys
                                  in cf._SCHEMA.items() for key in keys
                                  } - {"run.scenario"}
    table = _table(scenario)
    # a deterministic scenario's hash does not depend on run.seed
    assert (("run", "seed") in table) == (scenario in _DRAWS_FROM_SEED)
    head = f"[run]\nscenario = {scenario}\n"
    base = cf.parse_text(head)
    for name, value in _OTHER_VALUES.items():
        section, key = name.split(".")
        text = head + ("" if section == "run" else f"[{section}]\n") + \
            f"{key} = {value}\n"
        if section != "run" and (section, key) not in table:
            with pytest.raises(cf.ConfigError) as exc:
                cf.parse_text(text)
            assert exc.value.errors == [f"{scenario} does not read {name}"]
            continue
        cfg = cf.parse_text(text)
        assert cfg[section][key] != base[section][key], name
        # run.out and run.workers never enter the hash
        assert (cf.config_hash(cfg) != cf.config_hash(base)) == \
            ((section, key) in table), name


@pytest.mark.parametrize("text, keys", [
    ("[run]\nscenario = coupled-dipole-spectrum\n[atom]\nkind = rb85\n",
     ["atom.kind"]),
    ("[run]\nscenario = selfconsistent-slab\n[atom]\nkind = rb85\n",
     ["atom.kind"]),
    ("[run]\nscenario = ladder-spectrum\n[detection]\nchannel = lin_perp\n",
     ["detection.channel"]),
    ("[run]\nscenario = eit-spectrum\n[cloud]\nr0 = 5\n", ["cloud.r0"]),
    ("[run]\nscenario = coupled-dipole-spectrum\n[atom]\nkind = rb85\n"
     "[protocol]\nxi = 0.5\n", ["atom.kind", "protocol.xi"]),
], ids=["dipole-rb85", "slab-rb85", "ladder-channel", "eit-r0",
        "dipole-two-keys"])
def test_a_key_the_scenario_does_not_read_is_refused(tmp_path, capsys, text,
                                                     keys):
    p = tmp_path / "c.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["validate", str(p)]) == 1
    assert cli.main(["run", str(p), "--out", str(out)]) == 1
    scenario = text.splitlines()[1].removeprefix("scenario = ")
    lines = [f"config error: {scenario} does not read {key}" for key in keys]
    assert capsys.readouterr().err.splitlines() == lines + lines
    assert not out.exists()


def test_a_string_value_on_two_lines_is_refused(tmp_path, capsys):
    # configparser joins a continuation line to the value, and the text
    # validate echoes would not parse again
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL.replace("[run]\n", "[run]\nout = a\n  b\n"))
    message = "run.out: 'a\\nb' violates: output directory, on one line"
    assert cli.main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    with pytest.raises(cf.ConfigError) as exc:
        cf.override_run(cf.parse_text(MINIMAL), out="a\nb")
    assert exc.value.errors == [message]


def test_a_syntax_error_names_the_config_file(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = cbs-cone\n[run]\n")
    assert cli.main(["validate", str(p)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: syntax error: ")
    assert repr(str(p)) in err[0]


def test_every_scenario_validates_on_defaults():
    for scenario in cf.SCENARIOS:
        cfg = cf.parse_text(f"[run]\nscenario = {scenario}\n")
        assert cfg.scenario == scenario


@pytest.mark.parametrize("scenario, extra", [
    ("gain-transport", "[mc]\ntrajectories = 40\n"),
    ("diffusion-threshold", ""),
    ("protocol-utils", ""),
])
def test_non_detuning_sweeps_run_on_default_range(scenario, extra):
    cfg = cf.parse_text(f"[run]\nscenario = {scenario}\n"
                        f"[sweep]\nn = 3\n{extra}")
    assert cfg["sweep"]["start"] >= 0
    record = run_scenario(cfg)
    assert record.complete
    if scenario == "diffusion-threshold":
        # the default range brackets the threshold of the default lengths
        rates = [r.value for r in record.rows]
        assert rates[0] < 0 < rates[-1]


@pytest.mark.parametrize("scenario", ["gain-transport", "diffusion-threshold",
                                      "protocol-utils"])
def test_out_of_domain_sweep_is_a_config_error(tmp_path, capsys, scenario):
    p = tmp_path / "c.ini"
    p.write_text(f"[run]\nscenario = {scenario}\n[sweep]\nstart = -1\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 1
    assert "sweep.start" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("scenario, extra, keys", [
    ("ladder-spectrum", "[sweep]\nstart = nan\n", ["sweep.start"]),
    ("protocol-utils", "[protocol]\ni_mean = inf\nxi = inf\n",
     ["protocol.i_mean", "protocol.xi"]),
    ("cbs-cone", "[cloud]\nn0 = inf\nr0 = inf\n[detection]\n"
     "theta_max = inf\n", ["cloud.n0", "cloud.r0", "detection.theta_max"]),
    ("gain-transport", "[sweep]\nstop = inf\n", ["sweep.stop"]),
    ("eit-spectrum", "[control]\nrabi = inf\n", ["control.rabi"]),
    ("coupled-dipole-spectrum", "[dipole]\nradius = inf\n",
     ["dipole.radius"]),
    ("selfconsistent-slab", "[slab]\nthickness = inf\ndensity = inf\n",
     ["slab.thickness", "slab.density"]),
    ("diffusion-threshold", "[diffusion]\nl_tr = inf\nv_bar = inf\n",
     ["diffusion.l_tr", "diffusion.v_bar"]),
    ("protocol-utils", "[protocol]\nn_atoms = inf\ni_mean = -inf\n",
     ["protocol.n_atoms", "protocol.i_mean"]),
], ids=["ladder-nan-start", "protocol-inf", "cbs-inf", "gain-inf-stop",
        "eit-inf-rabi", "dipole-inf-radius", "slab-inf", "diffusion-inf",
        "protocol-minus-inf"])
def test_non_finite_floats_are_config_errors(tmp_path, capsys, scenario,
                                             extra, keys):
    # validated only: a nan detuning sweep, once run, never finishes
    p = tmp_path / "c.ini"
    p.write_text(f"[run]\nscenario = {scenario}\n{extra}")
    assert cli.main(["validate", str(p)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert sorted(line.split(":")[1].strip() for line in err) == sorted(keys)


def test_infinite_gain_length_means_no_gain(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = diffusion-threshold\n"
                 "[diffusion]\nl_g = inf\n[sweep]\nn = 5\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    csv = (tmp_path / "diffusion-threshold.csv").read_text().splitlines()
    rates = [float(line.split(",")[2]) for line in csv[1:]]
    assert len(rates) == 5
    assert all(-math.inf < r < 0 for r in rates)


def test_ladder_at_an_extreme_detuning_fails_without_output(tmp_path,
                                                             capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = ladder-spectrum\n[sweep]\nstart = 1e200\n"
                 "stop = 1e200\nn = 1\n[mc]\ntrajectories = 20\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error [ladder-spectrum]: non-positive extinction at omega=1e+200\n")
    assert not out.exists()


def test_cbs_cone_on_rb85_fails_without_output(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = cbs-cone\n[atom]\nkind = rb85\n"
                 "[mc]\ntrajectories = 10\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 2
    assert "non-degenerate ground state" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cbs_cone_with_undefined_eta_fails_without_output(tmp_path, capsys):
    # max_order = 1 in the helicity-preserving channel: no light reaches
    # the detectors, so eta = (S + L + C)/(S + L) is 0/0
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = cbs-cone\n[detection]\nn_theta = 3\n"
                 "[mc]\ntrajectories = 200\nmax_order = 1\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [cbs-cone]: ")
    assert "undefined" in err
    assert not list(tmp_path.glob("*.csv"))


def test_contact_floor_failure_is_a_numeric_error(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = coupled-dipole-spectrum\n"
                 "[dipole]\nn_atoms = 400\nradius = 0.3\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [coupled-dipole-spectrum]: ")
    assert "contact floor" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_selfconsistent_slab_without_physical_root_writes_nothing(
        tmp_path, capsys):
    # at density 0.2 the sweep crosses the window 0.70 < Delta < 1.29
    # where the self-consistent equation has no root with Re sqrt(eps) > 0
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = selfconsistent-slab\n"
                 "[slab]\ndensity = 0.2\n"
                 "[sweep]\nstart = -2\nstop = 2\nn = 41\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [selfconsistent-slab]: ")
    assert "Re sqrt(eps) > 0" in err
    assert not out.exists()


def test_engine_failure_mid_sweep_writes_incomplete_record(tmp_path, capsys,
                                                          monkeypatch):
    solve = scenarios.solve_gain_diffusion_sphere
    calls = []

    def fail_on_third(model):
        calls.append(model.r0)
        if len(calls) == 3:
            raise ArithmeticError("injected failure")
        return solve(model)

    monkeypatch.setattr(scenarios, "solve_gain_diffusion_sphere",
                        fail_on_third)
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = diffusion-threshold\n"
                 "[sweep]\nstart = 4\nstop = 6\nn = 3\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 2
    assert "injected failure" in capsys.readouterr().err
    with open(tmp_path / "diffusion-threshold.incomplete.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sweep_value"]) for r in rows] == calls[:2]
    doc = json.loads(
        (tmp_path / "diffusion-threshold.incomplete.json").read_text())
    assert doc["complete"] is False
    assert len(doc["rows"]) == 2
    assert not (tmp_path / "diffusion-threshold.csv").exists()
    assert not (tmp_path / "diffusion-threshold.json").exists()


def _incomplete_rows(out, scenario):
    with open(out / f"{scenario}.incomplete.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("scenario, ini, kept", [
    # weights overflow at gain 1e300: escaped_fraction = inf, stat_err nan
    ("gain-transport", "[sweep]\nstart = 0\nstop = 1e300\nn = 2\n"
     "[mc]\ntrajectories = 50\n", [0.0, 0.0]),
    # the dressed propagator overflows at rabi = 1e155: chi = nan at 0
    ("eit-spectrum", "[control]\nrabi = 1e155\n[sweep]\nn = 3\n",
     [-5.0, -5.0]),
], ids=["gain-transport", "eit-spectrum"])
def test_non_finite_result_stops_the_record_before_it(tmp_path, capsys,
                                                      scenario, ini, kept):
    p = tmp_path / "c.ini"
    p.write_text(f"[run]\nscenario = {scenario}\n{ini}")
    code = cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error [{scenario}]: ")
    assert "not a finite result" in err[0]
    rows = _incomplete_rows(tmp_path, scenario)
    assert [float(r["sweep_value"]) for r in rows] == kept
    assert all(math.isfinite(float(r[k])) for r in rows
               for k in ("value", "stat_err"))
    assert not (tmp_path / f"{scenario}.csv").exists()


_GAIN_OVERFLOW = ("[sweep]\nstart = 0\nstop = 1e300\nn = 2\n"
                  "[mc]\ntrajectories = 50\n")


@pytest.mark.parametrize("scenario, ini, workers", [
    ("gain-transport", _GAIN_OVERFLOW, 1),
    # two jobs on two spawned workers, which do not inherit the parent's
    # numpy error handling; the pool runs on a machine of any size
    ("gain-transport", _GAIN_OVERFLOW + "chunk_size = 50\n", 2),
    # the dressed propagator overflows at every detuning of this sweep
    ("eit-spectrum", "[atom]\nkind = lambda-rb87\n[control]\nrabi = 1e155\n"
     "[sweep]\nstart = -2\nstop = 2\nn = 5\n", 1),
], ids=["gain-transport", "gain-transport-spawned-workers", "eit-spectrum"])
def test_numpy_warnings_stay_inside_the_engine(tmp_path, scenario, ini,
                                               workers):
    # under -W error a numpy RuntimeWarning escaping the engine would end
    # the run in a traceback with exit 1; the finite-row check must judge
    p = tmp_path / "c.ini"
    p.write_text(f"[run]\nscenario = {scenario}\n{ini}")
    out = tmp_path / "out"
    script = (
        "import multiprocessing, sys\n"
        "from coldscatter import cli, mcscatter\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    mcscatter._usable_cpus = lambda: 2\n"
        f"    sys.exit(cli.main(['run', {str(p)!r}, '--out', {str(out)!r},"
        f" '--workers', '{workers}', '--quiet']))\n")
    src = str(Path(coldscatter.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error [{scenario}]"), err
    if scenario == "gain-transport":
        rows = _incomplete_rows(out, scenario)
        assert [float(r["sweep_value"]) for r in rows] == [0.0, 0.0]
        assert all(math.isfinite(float(r[k])) for r in rows
                   for k in ("sweep_value", "value", "stat_err"))
    else:  # the first point fails, so there is nothing to keep
        assert not out.exists() or not any(out.iterdir())


def test_nan_or_negative_stat_err_is_an_engine_error(monkeypatch):
    def rows(cfg, progress):
        return [ResultRow("radius", 1.0, math.inf),
                ResultRow("radius", 2.0, stat_err),
                ResultRow("radius", 3.0)]

    for stat_err in (math.nan, -1e-300):
        monkeypatch.setitem(scenarios._DISPATCH, "diffusion-threshold",
                            rows)
        with pytest.raises(ArithmeticError) as exc:
            run_scenario(cf.parse_text(
                "[run]\nscenario = diffusion-threshold\n"))
        # an infinite stat_err (one dipole configuration) is kept
        assert [r.value for r in exc.value.record.rows] == [1.0]
        assert not exc.value.record.complete


def test_allocation_failure_is_an_engine_error(tmp_path, capsys,
                                               monkeypatch):
    # the 200000-atom coupling cannot be allocated; the factory raises
    # instead, so the test allocates nothing
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(scenarios, "random_ball_configuration", no_memory)
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = coupled-dipole-spectrum\n"
                 "[dipole]\nn_atoms = 200000\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "error [coupled-dipole-spectrum]: MemoryError\n"
    assert [q.name for q in tmp_path.iterdir()] == ["c.ini"]


def test_run_scenario_protocol_rows():
    record = run_scenario(cf.parse_text(MINIMAL))
    assert record.complete
    deficits = [r for r in record.rows if r.channel == "norm_deficit"]
    assert len(deficits) == 3
    assert all(abs(r.value) < 1e-9 for r in deficits)


def test_cli_validate_ok(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL)
    assert cli.main(["validate", str(p)]) == 0
    assert "OK: protocol-utils" in capsys.readouterr().out


def test_cli_exit_code_config_error(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = bogus\n")
    assert cli.main(["validate", str(p)]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.main(["validate", str(tmp_path / "missing.ini")]) == 1


def test_cli_exit_code_numeric_error(tmp_path, capsys):
    # at density 0.2 the sweep enters the window with no physical
    # self-consistent root: an engine error at run time -> exit code 2
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = selfconsistent-slab\n[slab]\n"
                 "density = 0.2\n[sweep]\nstart = -2\nstop = 2\nn = 41\n")
    assert cli.main(["validate", str(p)]) == 0
    assert cli.main(["run", str(p), "--out", str(tmp_path)]) == 2
    assert "selfconsistent-slab" in capsys.readouterr().err


def test_eit_with_one_ground_level_is_a_config_error(tmp_path, capsys):
    # eit-spectrum demands an atom with two ground levels: its default
    # atom is lambda-rb87, and an explicit two-level atom fails
    # validation, so validate and run both exit 1
    assert cf.parse_text("[run]\nscenario = eit-spectrum\n")["atom"] == \
        {"kind": "lambda-rb87"}
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = eit-spectrum\n[atom]\nkind = two-level\n")
    assert cli.main(["validate", str(p)]) == 1
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count("atom.kind: 'two-level' violates") == 2
    assert not list(tmp_path.glob("*.csv"))
    # the engine still refuses it from a direct call
    cfg = cf.parse_text("[run]\nscenario = eit-spectrum\n")
    cfg.values["atom"]["kind"] = "two-level"
    with pytest.raises(ValueError, match="multi-ground-level"):
        run_scenario(cfg)


def test_cli_exit_code_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL)
    code = cli.main(["run", str(p), "--out", str(blocker / "sub"), "--quiet"])
    assert code == 3
    assert "I/O error" in capsys.readouterr().err


def test_cli_run_byte_identical(tmp_path, capsys, monkeypatch):
    cfgtext = ("[run]\nscenario = cbs-cone\n\n[cloud]\nn0 = 0.0166\nr0 = 8\n\n"
               "[mc]\ntrajectories = 2000\nchunk_size = 500\n\n"
               "[detection]\nn_theta = 2\n")
    p = tmp_path / "c.ini"
    p.write_text(cfgtext)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(p), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", str(p), "--out", str(out2), "--quiet"]) == 0
    capsys.readouterr()
    assert (out1 / "cbs-cone.csv").read_bytes() == \
        (out2 / "cbs-cone.csv").read_bytes()
    doc = json.loads((out1 / "cbs-cone.json").read_text())
    assert doc["seed"] == 0
    assert doc["complete"] is True
    assert len(doc["config_hash"]) == 64


def test_cli_worker_count_does_not_change_results(tmp_path, capsys):
    cfgtext = ("[run]\nscenario = cbs-cone\n\n[cloud]\nn0 = 0.0166\nr0 = 8\n\n"
               "[mc]\ntrajectories = 2000\nchunk_size = 500\n\n"
               "[detection]\nn_theta = 2\n")
    p = tmp_path / "c.ini"
    p.write_text(cfgtext)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["run", str(p), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", str(p), "--out", str(out2), "--quiet",
                     "--workers", "3"]) == 0
    capsys.readouterr()
    assert (out1 / "cbs-cone.csv").read_bytes() == \
        (out2 / "cbs-cone.csv").read_bytes()


def test_out_flag_is_not_overridden_by_the_environment(tmp_path, capsys,
                                                       monkeypatch):
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL)
    other = tmp_path / "other"
    monkeypatch.setenv("COLDSCATTER_OUT", str(other))
    assert cli.main(["run", str(p), "--out", str(tmp_path / "target"),
                     "--quiet"]) == 0
    capsys.readouterr()
    assert (tmp_path / "target" / "protocol-utils.csv").exists()
    assert not other.exists()


def test_seed_override_changes_hashed_config(tmp_path, capsys):
    # a scenario that draws its configurations from the seed
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = coupled-dipole-spectrum\n"
                 + SMALL_CONFIGS["coupled-dipole-spectrum"])
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    assert cli.main(["run", str(p), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", str(p), "--out", str(out2), "--quiet",
                     "--seed", "7"]) == 0
    capsys.readouterr()
    d1 = json.loads((out1 / "coupled-dipole-spectrum.json").read_text())
    d2 = json.loads((out2 / "coupled-dipole-spectrum.json").read_text())
    assert d2["seed"] == 7
    assert d1["config_hash"] != d2["config_hash"]


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "run.seed: -1 violates: in [0, 2^64)"),
    ("--seed", "18446744073709551616",
     "run.seed: 18446744073709551616 violates: in [0, 2^64)"),
    ("--workers", "0", "run.workers: 0 violates: > 0"),
    ("--workers", "-4", "run.workers: -4 violates: > 0"),
])
def test_run_overrides_pass_the_config_checks(tmp_path, capsys, flag, value,
                                              message):
    # an override is checked like the same key in the config file
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL)
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet",
                     flag, value]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*.json"))


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("text, section, key", [
    # l_g = inf (no gain) is the one infinite value a config accepts
    ("[run]\nscenario = diffusion-threshold\n[diffusion]\nl_g = inf\n"
     "[sweep]\nstart = 4\nstop = 6\nn = 3\n", "config", "l_g"),
    # one configuration has no standard error: stat_err is inf
    ("[run]\nscenario = coupled-dipole-spectrum\n[dipole]\nn_atoms = 3\n"
     "radius = 2\nn_configs = 1\n[sweep]\nstart = 0\nstop = 0\nn = 1\n",
     "rows", "stat_err"),
], ids=["infinite-l_g", "one-configuration"])
def test_json_record_is_standard_json(tmp_path, capsys, text, section, key):
    p = tmp_path / "c.ini"
    p.write_text(text)
    assert cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    doc = json.loads(path.read_text(), parse_constant=_no_constant)
    if section == "config":
        assert doc["config"]["values"]["diffusion"][key] == "inf"
    else:
        assert [row[key] for row in doc["rows"]] == ["inf"]


def _reference_csv(record):
    """The CSV text as the csv module writes it, row by row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cli.CSV_HEADER)
    for row in record.rows:
        w.writerow([row.sweep_var, repr(row.sweep_value), repr(row.value),
                    repr(row.stat_err),
                    "" if row.order is None else row.order, row.channel])
    return buf.getvalue()


def _reference_finite(fields):
    return {key: repr(val) if isinstance(val, float)
            and not math.isfinite(val) else val
            for key, val in fields.items()}


def _reference_json(record, config):
    """The JSON text as json.dumps writes the whole record at once."""
    doc = {
        "scenario": record.scenario,
        "version": record.version,
        "seed": record.seed,
        "config_hash": record.config_hash,
        "config": {"scenario": config.scenario,
                   "values": {section: _reference_finite(keys)
                              for section, keys in config.values.items()}},
        "complete": record.complete,
        "wall_time_s": round(record.wall_time, 3),
        "rows": [_reference_finite(r._asdict()) for r in record.rows],
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def _assert_renders_as_reference(record, config):
    csv_text, json_text = cli._render(record, config)
    assert csv_text == _reference_csv(record)
    assert json_text == _reference_json(record, config)


EIT_161 = ("[run]\nscenario = eit-spectrum\n[atom]\nkind = lambda-rb87\n"
           "[control]\nrabi = 1\n[sweep]\nstart = -5\nstop = 5\nn = 161\n")

ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05,
              1.5e300, 0.1]
ODD_TEXTS = ["", "a,b", 'say "hi"', "back\\slash", "line\nbreak", "\u0394"]


def _adversarial_rows():
    rows = []
    orders = itertools.cycle([None, 0, 2])
    for x in ODD_FLOATS:
        rows += [ResultRow("detuning", x, order=next(orders), channel="c"),
                 ResultRow("detuning", 1.0, stat_err=x, order=next(orders)),
                 ResultRow("detuning", 1.0, order=next(orders),
                           sweep_value=x)]
    rows.append(ResultRow("n_atoms", 2.5, channel="mz_signal",
                          sweep_value=1000))
    for text in ODD_TEXTS:
        rows += [ResultRow(text, 0.5, order=next(orders), channel="c"),
                 ResultRow("detuning", 0.5, order=next(orders),
                           channel=text),
                 ResultRow(text, math.nan, order=next(orders),
                           channel=text)]
    return rows


def test_json_rows_match_csv_rows(tmp_path):
    # the 161-point EIT sweep of the benchmark's analytic workload, plus
    # one non-finite row, through the writer of both records
    cfg = cf.parse_text(EIT_161)
    record = run_scenario(cfg)
    assert len(record.rows) == 322
    record.rows.append(ResultRow("detuning", math.nan, stat_err=math.inf,
                                 order=2, channel="im_chi"))
    csv_path, json_path = cli.emit_results(record, cfg, tmp_path)
    text = json_path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text, parse_constant=_no_constant)
    with open(csv_path, newline="", encoding="utf-8") as f:
        header, *csv_rows = list(csv.reader(f))
    assert header == cli.CSV_HEADER
    assert len(doc["rows"]) == len(csv_rows) == 323

    def field(value):
        if value is None:
            return ""
        return value if isinstance(value, str) else repr(value)

    for row, csv_row in zip(doc["rows"], csv_rows):
        assert [field(row[key]) for key in header] == csv_row
    assert doc["rows"][-1]["value"] == "nan"
    assert doc["rows"][-1]["stat_err"] == "inf"
    # byte for byte what csv.writer and json.dumps write, also for
    # non-finite, subnormal and signed-zero floats, an integer sweep
    # value and text that needs quoting or escaping
    assert csv_path.read_bytes() == _reference_csv(record).encode()
    assert json_path.read_bytes() == _reference_json(record, cfg).encode()
    record.rows += _adversarial_rows()
    _assert_renders_as_reference(record, cfg)


SMALL_CONFIGS = {
    "cbs-cone": "[mc]\ntrajectories = 100\n[detection]\nn_theta = 3\n",
    "ladder-spectrum": "[mc]\ntrajectories = 50\n[sweep]\nn = 3\n",
    "gain-transport": "[mc]\ntrajectories = 50\n[sweep]\nn = 3\n",
    "eit-spectrum": "[atom]\nkind = lambda-rb87\n[sweep]\nn = 5\n",
    "coupled-dipole-spectrum": "[dipole]\nn_atoms = 4\nradius = 3\n"
                               "n_configs = 1\n[sweep]\nn = 3\n",
    "selfconsistent-slab": "[sweep]\nn = 5\n",
    "diffusion-threshold": "[diffusion]\nl_g = inf\n[sweep]\nstart = 4\n"
                           "stop = 6\nn = 3\n",
    "protocol-utils": "[sweep]\nn = 3\n",
}


@pytest.mark.parametrize("scenario", sorted(cf.SCENARIOS))
def test_every_scenario_renders_as_reference(scenario):
    cfg = cf.parse_text(f"[run]\nscenario = {scenario}\n"
                        f"{SMALL_CONFIGS[scenario]}")
    record = run_scenario(cfg)
    assert record.rows
    _assert_renders_as_reference(record, cfg)
    record.rows.clear()
    _assert_renders_as_reference(record, cfg)


@pytest.mark.parametrize("scenario", sorted(cf.SCENARIOS))
def test_progress_lines(tmp_path, capsys, scenario):
    # without --quiet: a line after each dipole configuration (an O(n^3)
    # reduction), and one once the scenario's rows are in
    p = tmp_path / "c.ini"
    p.write_text(f"[run]\nscenario = {scenario}\n"
                 f"{SMALL_CONFIGS[scenario]}")
    assert cli.main(["run", str(p), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    with open(tmp_path / f"{scenario}.csv", newline="") as fh:
        n_rows = len(list(csv.DictReader(fh)))
    n = cf.parse_config(p)["dipole"]["n_configs"] \
        if scenario == "coupled-dipole-spectrum" else 0
    assert err == [f"[{scenario}] configuration {c}/{n}"
                   for c in range(1, n + 1)] + [f"[{scenario}] {n_rows} rows"]


_EIT_SMALL = cf.parse_text("[run]\nscenario = eit-spectrum\n[atom]\n"
                           "kind = lambda-rb87\n[sweep]\nn = 3\n")
_NUMBERS = st.floats() | st.integers() | st.booleans()
# what csv quoting and JSON escaping treat apart, and some they do not;
# a fixed alphabet spares the Unicode table st.text() would build first
_TEXT = st.text(st.sampled_from(
    ',"\\\n\r\t\x00\x1f aZ0.-e\u0394\u2028\udc80\U0001f600'), max_size=8)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(rows=st.lists(st.builds(
    ResultRow, sweep_var=_TEXT, value=_NUMBERS, stat_err=_NUMBERS,
    order=st.none() | st.integers(), channel=_TEXT,
    sweep_value=_NUMBERS), max_size=6),
    complete=st.booleans())
def test_render_matches_reference_on_random_rows(rows, complete):
    record = ResultRecord("eit-spectrum", "0" * 64, "0.0", 3, rows=rows,
                          wall_time=0.0125, complete=complete)
    _assert_renders_as_reference(record, _EIT_SMALL)
