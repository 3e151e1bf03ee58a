import json

import pytest

from coldscatter import cli
from coldscatter import config as cf
from coldscatter.scenarios import run_scenario


MINIMAL = "[run]\nscenario = protocol-utils\n\n[sweep]\nstart = 0.5\nstop = 2\nn = 3\n"


def test_parse_minimal_fills_defaults():
    cfg = cf.parse_text(MINIMAL)
    assert cfg.scenario == "protocol-utils"
    assert cfg["run"]["seed"] == 0
    assert cfg["mc"]["trajectories"] == 20000
    assert cfg["protocol"]["xi"] == 0.01


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


def test_canonicalization_round_trip():
    cfg = cf.parse_text(MINIMAL)
    text = cf.canonical_text(cfg)
    again = cf.parse_text(text)
    assert again == cfg
    assert cf.canonical_text(again) == text


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
    # eit-spectrum demands a multi-ground-level atom; two-level fails at
    # run time with an engine error -> exit code 2
    p = tmp_path / "c.ini"
    p.write_text("[run]\nscenario = eit-spectrum\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path)]) == 2
    assert "eit-spectrum" in capsys.readouterr().err


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


def test_env_var_output_override(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("COLDSCATTER_OUT", str(env_out))
    assert cli.main(["run", str(p), "--out", str(tmp_path / "ignored"),
                     "--quiet"]) == 0
    capsys.readouterr()
    assert (env_out / "protocol-utils.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_override_changes_hashed_config(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text(MINIMAL)
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    assert cli.main(["run", str(p), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", str(p), "--out", str(out2), "--quiet",
                     "--seed", "7"]) == 0
    capsys.readouterr()
    d1 = json.loads((out1 / "protocol-utils.json").read_text())
    d2 = json.loads((out2 / "protocol-utils.json").read_text())
    assert d2["seed"] == 7
    assert d1["config_hash"] != d2["config_hash"]
