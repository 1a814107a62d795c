import json

import numpy as np
import pytest

from gmclab import cli


def run_cli(argv):
    return cli.main(argv)


def write_cfg(path, **overrides):
    cfg = {
        "kernel": {"dimension": 1, "lambda2": 0.5, "scale": 1.0},
        "mollifier": {"kind": "gaussian", "epsilon": 2 ** -7},
        "grid": {"n": 2 ** 12, "length": 4.0},
        "ladder": {"eps0": 2 ** -5, "shells": 2},
        "replicas": 2,
        "seed": 42,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_simulate_writes_and_replays(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("field_r0000.bin", "measure_r0001.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["digest"] == json.loads(
        (out2 / "manifest.json").read_text())["digest"]
    assert len(manifest["outputs"]) == 4


def test_simulate_refuses_d4_at_gate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, kernel={"dimension": 4, "lambda2": 1.0, "scale": 1.0})
    code = run_cli(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "x")])
    assert code == cli.EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["error"] == "GateError"
    assert "positив" in doc["message"] or "positiv" in doc["message"]


def test_simulate_refuses_critical_lam2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, kernel={"dimension": 1, "lambda2": 2.0, "scale": 1.0})
    code = run_cli(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "x")])
    assert code == cli.EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["error"] == "ValidationError"


def test_estimate_zeta_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg,
              grid={"n": 2 ** 13, "length": 4.0},
              mollifier={"kind": "gaussian", "epsilon": 2 ** -9},
              replicas=40,
              estimate={"p_list": [0.5, 2.0],
                        "c_list": [2.0 ** -k for k in range(7, 2, -1)]})
    out = tmp_path / "rep"
    code = run_cli(["estimate", "--config", str(cfg), "--kind", "zeta",
                    "--out", str(out)])
    assert code == 0
    assert (out / "zeta_report.csv").exists()
    side = json.loads((out / "zeta_report.csv.json").read_text())
    assert "2.0" in side["zeta_hat"]
    assert abs(float(side["zeta_analytic"]["2.0"]) - 1.5) < 1e-12
    text = capsys.readouterr().out
    assert "analytic 1.5" in text


def test_estimate_scale_invariance_refuses_remainder(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg,
              kernel={"dimension": 1, "lambda2": 0.5, "scale": 1.0,
                      "remainder": {"kind": "constant", "value": 0.2}},
              estimate={"side": 0.5, "c": 0.5, "eps_a": 2 ** -5})
    code = run_cli(["estimate", "--config", str(cfg), "--kind",
                    "scale-invariance", "--out", str(tmp_path / "y")])
    assert code == cli.EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "pure log kernel" in doc["message"]


def test_estimate_degeneracy_two_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg,
              grid={"n": 2 ** 12, "length": 4.0},
              ladder={"eps0": 2 ** -3, "shells": 5},
              replicas=40,
              estimate={"lam2_list": [0.75, 3.0], "alpha": 0.5,
                        "region_side": 1.0})
    out = tmp_path / "deg"
    code = run_cli(["estimate", "--config", str(cfg), "--kind", "degeneracy",
                    "--out", str(out)])
    assert code == 0
    lines = (out / "degeneracy.csv").read_text().strip().splitlines()
    assert len(lines) == 3    # header + one row per lam2


def test_estimate_mrw(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, replicas=5,
              mollifier={"kind": "gaussian", "epsilon": 2 ** -7},
              estimate={"t_max": 1.0, "n_times": 64})
    out = tmp_path / "mrw"
    code = run_cli(["estimate", "--config", str(cfg), "--kind", "mrw",
                    "--out", str(out)])
    assert code == 0
    lines = (out / "mrw_paths.csv").read_text().strip().splitlines()
    assert lines[0] == "replica,t,X"
    assert len(lines) == 1 + 5 * 64


def test_estimate_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg)
    code = run_cli(["estimate", "--config", str(cfg)])
    assert code == cli.EXIT_VALIDATION


def test_oracles_zero_budget_warns_not_fails(tmp_path, capsys):
    code = run_cli(["oracles", "--budget", "0", "--seed", "3",
                    "--out", str(tmp_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "inconclusive" in text
    doc = json.loads((tmp_path / "oracle_report.json").read_text())
    assert doc["inconclusive"]


def test_oracles_small_budget_passes(tmp_path, capsys):
    code = run_cli(["oracles", "--budget", "60000", "--seed", "5",
                    "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "oracle_report.json").read_text())
    assert doc["all_certified_pass"]


def test_missing_config_is_validation_error(tmp_path, capsys):
    code = run_cli(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_VALIDATION


def test_threads_flag_does_not_change_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out1),
                    "--threads", "1"]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out2),
                    "--threads", "2"]) == 0
    assert (out1 / "field_r0000.bin").read_bytes() \
        == (out2 / "field_r0000.bin").read_bytes()


@pytest.mark.parametrize("command, overrides, env", [
    ("simulate", {"grid": {"n": "lots", "length": 4.0}}, None),
    ("simulate", {"grid": {"n": 2 ** 12, "length": "long"}}, None),
    ("simulate", {"grid": {"n": 1e400, "length": 4.0}}, None),
    ("simulate", {"grid": {"n": 2 ** 12, "length": 4.0,
                           "origin": ["left"]}}, None),
    ("simulate", {"ladder": {"eps0": "coarse", "shells": 2}}, None),
    ("simulate", {"ladder": {"eps0": 2 ** -5, "shells": "two"}}, None),
    ("simulate", {"ladder": {"eps0": 2 ** -5, "shells": 2,
                             "factor": [2]}}, None),
    ("simulate", {"ladder": {"epsilons": [0.1, "fine"]}}, None),
    ("simulate", {"kernel": {"dimension": "one", "lambda2": 0.5}}, None),
    ("simulate", {"kernel": {"dimension": 1, "lambda2": "half"}}, None),
    ("simulate", {"seed": "forty-two"}, None),
    ("simulate", {"replicas": None}, None),
    ("simulate", {}, "abc"),
    ("estimate", {"seed": [42]}, None),
    ("estimate", {"replicas": "many"}, None),
])
def test_non_numeric_settings_are_refused(tmp_path, capsys, monkeypatch,
                                          command, overrides, env):
    if env is not None:
        monkeypatch.setenv("GMC_LAB_THREADS", env)
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, **overrides)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "estimate":
        argv += ["--kind", "mrw"]
    assert run_cli(argv) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"
