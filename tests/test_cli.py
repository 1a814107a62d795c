import csv
import json

import numpy as np
import pytest

from gmclab import cli
from gmclab import field as fd


def run_cli(argv):
    return cli.main(argv)


DROP = object()   # an override that leaves its section out of the config


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
    cfg = {k: v for k, v in cfg.items() if v is not DROP}
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
    assert manifest["synthesis"] == fd.SYNTHESIS


def test_simulate_refuses_d4_at_gate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, kernel={"dimension": 4, "lambda2": 1.0, "scale": 1.0})
    code = run_cli(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "x")])
    assert code == cli.EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["error"] == "GateError"
    assert "positив" in doc["message"] or "positiv" in doc["message"]


def test_simulate_refuses_negative_constant_remainder(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, kernel={"dimension": 1, "lambda2": 1.0, "scale": 1.0,
                           "remainder": {"kind": "constant", "value": -3.0}})
    code = run_cli(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "x")])
    assert code == cli.EXIT_VALIDATION
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "GateError"


def test_simulate_refuses_small_negative_constant_remainder(tmp_path, capsys):
    # f - 0.1 has a negative spectral atom at xi = 0, although the torus
    # zero-mode weight stays positive
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, kernel={"dimension": 1, "lambda2": 1.0, "scale": 1.0,
                           "remainder": {"kind": "constant", "value": -0.1}},
              grid={"n": 2 ** 14, "length": 4.0})
    code = run_cli(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "x")])
    assert code == cli.EXIT_VALIDATION
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "GateError"


def test_estimate_dissipation_rows_carry_mean_eps(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, kernel={"dimension": 3, "lambda2": 0.5, "scale": 1.0},
              mollifier=DROP, grid={"n": 32}, replicas=3,
              estimate={"kind": "dissipation", "mean_eps": 2.0,
                        "radii": [0.5, 0.45, 0.4]})
    out = tmp_path / "o"
    assert run_cli(["estimate", "--config", str(cfg), "--out",
                    str(out)]) == cli.EXIT_OK
    with open(out / "dissipation_samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert {r["mean_eps"] for r in rows} == {"2.0"}


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


# `seed` is None, or a value for --seed
@pytest.mark.parametrize("command, overrides, seed", [
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
    ("estimate", {"estimate": {"kind": "zeta", "p_list": ["half"]}}, None),
    ("estimate", {"estimate": {"kind": "zeta", "c_list": 0.1}}, None),
    ("estimate", {"estimate": {"kind": "scale-invariance",
                               "side": "half"}}, None),
    ("estimate", {"estimate": {"kind": "scale-invariance", "c": None}}, None),
    ("estimate", {"estimate": {"kind": "scale-invariance",
                               "eps_a": [0.01]}}, None),
    ("estimate", {"estimate": {"kind": "degeneracy",
                               "region_side": "one"}}, None),
    ("estimate", {"estimate": {"kind": "degeneracy", "alpha": "half"}}, None),
    ("estimate", {"estimate": {"kind": "degeneracy", "lam2_list": ["x"]},
                  "ladder": {"eps0": 2 ** -5, "shells": 5}}, None),
    ("estimate", {"estimate": {"kind": "dissipation",
                               "mean_eps": "unit"}}, None),
    ("estimate", {"estimate": {"kind": "dissipation",
                               "radii": ["half"]}}, None),
    ("estimate", {"estimate": {"kind": "mrw", "t_max": "long"}}, None),
    ("estimate", {"estimate": {"kind": "mrw", "n_times": "many"}}, None),
])
def test_non_numeric_settings_are_refused(tmp_path, capsys, command,
                                          overrides, seed):
    flags = () if seed is None else ("--seed", seed)
    assert_refused(tmp_path, capsys, command, overrides, flags)


D3_KERNEL = {"dimension": 3, "lambda2": 0.5, "scale": 1.0}
# a ladder long enough for degeneracy_scan, so that only the setting under
# test can refuse the run
DEGENERACY_LADDER = {"eps0": 2 ** -5, "shells": 4}
# three radii that a 32^3 grid resolves, so that only the setting under
# test can refuse the run
DISSIPATION = {"kind": "dissipation", "radii": [0.5, 0.45, 0.4]}


@pytest.mark.parametrize("command, overrides, flags", [
    ("estimate", {"estimate": {"kind": "mrw", "n_times": -5}}, []),
    ("estimate", {"estimate": {"kind": "mrw", "n_times": 0}}, []),
    ("estimate", {"estimate": {"kind": "mrw", "t_max": 0.0}}, []),
    ("estimate", {"estimate": {"kind": "mrw", "t_max": -1.0}}, []),
    ("estimate", {"estimate": {"kind": "zeta", "regions": "spheres"}}, []),
    ("estimate", {"estimate": {"kind": "zeta"}}, ["--replicas", "-1"]),
    ("estimate", {"estimate": {"kind": "zeta"}, "replicas": 0}, []),
    ("estimate", {"estimate": {"kind": "scale-invariance"}, "replicas": 0},
     []),
    ("estimate", {"estimate": {"kind": "mrw"}, "replicas": 0}, []),
    ("simulate", {}, ["--replicas", "-3"]),
    ("estimate", {"estimate": {"kind": "zeta", "p_list": []}}, []),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
                  "estimate": {"kind": "dissipation", "radii": []}}, []),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
                  "estimate": {"kind": "dissipation", "radii": [0.5, 0.5]}},
     []),
    ("estimate", {"grid": {"n": 32},
                  "estimate": {"kind": "dissipation",
                               "radii": [0.5, 0.45, 0.4]}}, []),
    ("estimate", {"kernel": {**D3_KERNEL, "remainder": {"kind": "constant",
                                                        "value": 0.7}},
                  "grid": {"n": 32},
                  "estimate": {"kind": "dissipation",
                               "radii": [0.5, 0.45, 0.4]}}, []),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
                  "estimate": {"kind": "dissipation",
                               "radii": [0.5, 0.5, 0.4]}}, []),
    ("estimate", {"kernel": {"dimension": 1, "lambda2": 0.5, "scale": 1.0,
                             "remainder": {"kind": "constant", "value": 0.5}},
                  "ladder": {"eps0": 2 ** -5, "shells": 4},
                  "estimate": {"kind": "degeneracy"}}, []),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32, "length": 9.0},
                  "mollifier": DROP, "estimate": DISSIPATION}, []),
    ("estimate", {"kernel": D3_KERNEL,
                  "grid": {"n": 32, "origin": [0.0, 0.0, 0.0]},
                  "mollifier": DROP, "estimate": DISSIPATION}, []),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32},
                  "mollifier": {"kind": "gaussian", "epsilon": 0.3},
                  "estimate": DISSIPATION}, []),
    ("simulate", {}, ["--seed", "-1"]),
    ("simulate", {"seed": -1}, []),
    ("estimate", {"estimate": {"kind": "mrw"}}, ["--seed", "-3"]),
    ("simulate", {"kernel": {"dimension": 1, "lambda2": float("inf"),
                             "scale": 1.0}, "grid": {"n": 1024}}, []),
    ("simulate", {"kernel": {"dimension": 1, "lambda2": 0.5,
                             "scale": float("inf")}, "grid": {"n": 1024}},
     []),
    ("simulate", {"kernel": {"dimension": 1, "lambda2": 0.5, "scale": 1.0,
                             "remainder": {"kind": "constant",
                                           "value": float("inf")}},
                  "grid": {"n": 1024}}, []),
    ("estimate", {"estimate": {"kind": "zeta"}, "replicas": 1}, []),
    ("estimate", {"estimate": {"kind": "scale-invariance"}, "replicas": 1},
     []),
    ("estimate", {"estimate": {"kind": "degeneracy"},
                  "ladder": DEGENERACY_LADDER}, ["--replicas", "1"]),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
                  "estimate": DISSIPATION, "replicas": 1}, []),
    ("simulate", {"ladder": {"epsilons": [float("nan")]},
                  "grid": {"n": 1024}}, []),
    ("simulate", {"ladder": {"epsilons": [float("inf"), 0.01]},
                  "grid": {"n": 1024}}, []),
    ("simulate", {"grid": {"n": 1024, "length": float("inf")}}, []),
    ("estimate", {"mollifier": {"kind": "gaussian", "epsilon": float("inf")},
                  "estimate": {"kind": "mrw"}}, []),
    ("estimate", {"estimate": {"kind": "scale-invariance",
                               "eps_a": float("inf")}}, []),
    ("estimate", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
                  "estimate": {"kind": "dissipation",
                               "radii": [float("inf"), 0.45]}}, []),
    ("estimate", {"estimate": {"kind": "scale-invariance",
                               "side": float("nan")}}, []),
    ("estimate", {"ladder": DEGENERACY_LADDER,
                  "estimate": {"kind": "degeneracy",
                               "region_side": float("nan")}}, []),
    ("simulate", {"grid": {"n": 1024.7}}, []),
    ("simulate", {"replicas": 1.9, "grid": {"n": 1024}}, []),
    ("simulate", {"seed": 3.5, "grid": {"n": 1024}}, []),
    ("simulate", {"ladder": {"eps0": 2 ** -5, "shells": 0.9},
                  "grid": {"n": 1024}}, []),
    ("simulate", {"grid": {"n": 1024.7}, "replicas": 1.9, "seed": 3.5,
                  "ladder": {"eps0": 2 ** -5, "shells": 0.9}}, []),
    ("simulate", {"replicas": True, "grid": {"n": 1024}}, []),
    ("simulate", {"kernel": {"dimension": 1.5, "lambda2": 0.5,
                             "scale": 1.0}, "grid": {"n": 1024}}, []),
    ("estimate", {"estimate": {"kind": "mrw", "n_times": 10.9}}, []),
], ids=["n_times-negative", "n_times-zero", "t_max-zero", "t_max-negative",
        "regions-unknown", "zeta-replicas-negative", "zeta-replicas-zero",
        "scale-invariance-replicas-zero", "mrw-replicas-zero",
        "simulate-replicas-negative", "zeta-p_list-empty",
        "dissipation-radii-empty", "dissipation-radii-repeated",
        "dissipation-dimension-1", "dissipation-remainder",
        "dissipation-radii-repeated-among-distinct", "degeneracy-remainder",
        "dissipation-grid-length", "dissipation-grid-origin",
        "dissipation-mollifier", "simulate-seed-flag-negative",
        "simulate-seed-negative", "mrw-seed-flag-negative",
        "lambda2-infinite", "scale-infinite", "remainder-constant-infinite",
        "zeta-replicas-one", "scale-invariance-replicas-one",
        "degeneracy-replicas-one", "dissipation-replicas-one",
        "epsilons-nan", "epsilons-infinite", "grid-length-infinite",
        "mrw-mollifier-epsilon-infinite", "scale-invariance-eps_a-infinite",
        "dissipation-radius-infinite", "scale-invariance-side-nan",
        "degeneracy-region_side-nan", "grid-n-fractional",
        "replicas-fractional", "seed-fractional", "shells-fractional",
        "all-four-fractional", "replicas-bool", "dimension-fractional",
        "n_times-fractional"])
def test_out_of_range_settings_are_refused(tmp_path, capsys,
                                           command, overrides, flags):
    assert_refused(tmp_path, capsys, command, overrides, flags)


def test_integral_float_counts_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, replicas=2.0, seed=3.0, grid={"n": 1024.0, "length": 4.0})
    out = tmp_path / "o"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "field_r0000.bin", "field_r0001.bin", "manifest.json",
        "measure_r0000.bin", "measure_r0001.bin"]
    assert fd.read_field(out / "field_r0001.bin").seed == 3


def test_mrw_runs_on_one_replica(tmp_path, capsys):
    # mrw reports a mean over paths; the kinds that estimate a spread
    # need two replicas (the "-replicas-one" cases above)
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, replicas=1, estimate={"kind": "mrw", "n_times": 16})
    assert run_cli(["estimate", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 0
    assert "mrw: 1 paths" in capsys.readouterr().out


CELLS = [2.0 ** -k for k in range(7, 2, -1)]


@pytest.mark.parametrize("overrides", [
    {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
     "estimate": {**DISSIPATION, "mean_eps": -1}},
    {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
     "estimate": {**DISSIPATION, "mean_eps": 0}},
    {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
     "estimate": {**DISSIPATION, "mean_eps": float("inf")}},
    {"estimate": {"kind": "zeta", "p_list": [float("nan")]}},
    {"estimate": {"kind": "zeta", "c_list": [float("nan"), *CELLS[1:]]}},
    {"ladder": DEGENERACY_LADDER,
     "estimate": {"kind": "degeneracy", "lam2_list": []}},
    {"ladder": DEGENERACY_LADDER,
     "estimate": {"kind": "degeneracy", "alpha": -1}},
    {"ladder": DEGENERACY_LADDER,
     "estimate": {"kind": "degeneracy", "alpha": 1}},
    {"ladder": DEGENERACY_LADDER,
     "estimate": {"kind": "degeneracy", "alpha": 5}},
], ids=["mean_eps-negative", "mean_eps-zero", "mean_eps-infinite",
        "p_list-nan", "c_list-nan", "lam2_list-empty", "alpha-negative",
        "alpha-one", "alpha-five"])
def test_estimate_parameters_out_of_range_are_refused(tmp_path, capsys,
                                                      overrides):
    assert_refused(tmp_path, capsys, "estimate", overrides)


@pytest.mark.parametrize("key, overrides", [
    ("side", {"estimate": {"kind": "scale-invariance", "side": -0.5}}),
    ("side", {"estimate": {"kind": "scale-invariance", "side": float("inf")}}),
    ("eps_a", {"estimate": {"kind": "scale-invariance", "eps_a": 0.0}}),
    ("eps_a", {"estimate": {"kind": "scale-invariance",
                            "eps_a": float("nan")}}),
    ("region_side", {"ladder": DEGENERACY_LADDER,
                     "estimate": {"kind": "degeneracy", "region_side": 0}}),
    ("region_side", {"ladder": DEGENERACY_LADDER,
                     "estimate": {"kind": "degeneracy",
                                  "region_side": float("-inf")}}),
    ("radii", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
               "estimate": {**DISSIPATION, "radii": [0.5, -0.25, 0.4]}}),
    ("radii", {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
               "estimate": {**DISSIPATION, "radii": [0.5, 0.45, 0.0]}}),
    ("t_max", {"estimate": {"kind": "mrw", "t_max": float("inf")}}),
    ("t_max", {"estimate": {"kind": "mrw", "t_max": float("nan")}}),
    ("lam2_list", {"ladder": DEGENERACY_LADDER,
                   "estimate": {"kind": "degeneracy",
                                "lam2_list": [0.5, float("nan")]}}),
    ("lam2_list", {"ladder": DEGENERACY_LADDER,
                   "estimate": {"kind": "degeneracy", "lam2_list": [-1.0]}}),
], ids=["side-negative", "side-infinite", "eps_a-zero", "eps_a-nan",
        "region_side-zero", "region_side-minus-infinity", "radius-negative",
        "radius-zero", "t_max-infinite", "t_max-nan", "lam2_list-nan",
        "lam2_list-negative"])
def test_estimate_lengths_out_of_range_are_refused_by_name(tmp_path, capsys,
                                                           key, overrides):
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, **overrides)
    code = run_cli(["estimate", "--config", str(cfg), "--out",
                    str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ValidationError"
    assert doc["message"].startswith(f"estimate.{key} must be finite and > 0")


ESTIMATE_KINDS = {
    "zeta": {"estimate": {"kind": "zeta"}},
    "scale-invariance": {"estimate": {"kind": "scale-invariance"}},
    "mrw": {"estimate": {"kind": "mrw"}},
    "dissipation": {"kernel": D3_KERNEL, "grid": {"n": 32}, "mollifier": DROP,
                    "estimate": DISSIPATION},
}


@pytest.mark.parametrize("kind", list(ESTIMATE_KINDS))
@pytest.mark.parametrize("ladder", ["fine", {"eps0": "coarse", "shells": 2}],
                         ids=["ladder-string", "eps0-string"])
def test_every_estimate_kind_refuses_a_malformed_ladder(tmp_path, capsys,
                                                        kind, ladder):
    assert_refused(tmp_path, capsys, "estimate",
                   {**ESTIMATE_KINDS[kind], "ladder": ladder})


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("overrides, flags", [
    ({"grid": {"n": 2 ** 12, "length": 4.0, "origin": [0.0]}}, []),
    ({"ladder": {"eps0": 2 ** -5, "shells": 2, "factor": 3.0}}, []),
    ({}, ["--threads", "2"]),
], ids=["grid-origin", "ladder-factor", "threads"])
def test_removed_settings_are_refused(tmp_path, capsys, command, overrides,
                                      flags):
    assert_refused(tmp_path, capsys, command,
                   {**overrides, "estimate": {"kind": "zeta"}}, flags)


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--out", "{file}"],
    ["estimate", "--kind", "mrw", "--config", "{cfg}", "--out", "{file}"],
    ["oracles", "--budget", "0", "--out", "{file}"],
    ["oracles", "--budget", "0", "--seed", "-2", "--out", "{dir}"],
    ["oracles", "--budget", "-5", "--out", "{dir}"],
], ids=["simulate-out-file", "estimate-out-file", "oracles-out-file",
        "oracles-seed-negative", "oracles-budget-negative"])
def test_out_file_and_negative_oracle_settings_are_refused(tmp_path, capsys,
                                                          argv):
    cfg, taken = tmp_path / "cfg.json", tmp_path / "taken"
    write_cfg(cfg)
    taken.write_text("")
    argv = [a.format(cfg=cfg, file=taken, dir=tmp_path / "o") for a in argv]
    assert_one_refusal(capsys, run_cli(argv))


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--bogus", "1"],
    ["estimate", "--config", "{cfg}", "--kind", "nope"],
    ["oracles", "--budget", "x"],
    ["simulate", "--config", "{dir}"],
    ["estimate", "--config", "{latin1}", "--kind", "mrw"],
], ids=["unknown-flag", "unknown-kind", "budget-not-integer",
        "config-directory", "config-not-utf8"])
def test_usage_errors_and_unreadable_configs_are_refused(tmp_path, capsys,
                                                         argv):
    cfg, latin1 = tmp_path / "cfg.json", tmp_path / "latin1.json"
    write_cfg(cfg)
    latin1.write_bytes('{"seed": 42, "note": "\u00e9"}'.encode("latin-1"))
    argv = [a.format(cfg=cfg, dir=tmp_path, latin1=latin1) for a in argv]
    assert_one_refusal(capsys, run_cli(argv))


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def assert_refused(tmp_path, capsys, command, overrides, flags=()):
    """The command exits 2 with one JSON line naming a ValidationError."""
    cfg = tmp_path / "cfg.json"
    write_cfg(cfg, **overrides)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"),
            *flags]
    if command == "estimate":
        argv += ["--kind", overrides.get("estimate", {}).get("kind", "mrw")]
    assert_one_refusal(capsys, run_cli(argv))


def assert_one_refusal(capsys, code):
    assert code == cli.EXIT_VALIDATION
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"


@pytest.mark.parametrize("argv, shape", [
    (["simulate"], lambda cfg: [cfg]),
    (["simulate"], lambda cfg: {**cfg, "grid": 5}),
    (["simulate"], lambda cfg: {**cfg, "ladder": "fine"}),
    (["estimate", "--kind", "mrw"], lambda cfg: {**cfg, "estimate": [1]}),
    (["simulate"], lambda cfg: {**cfg, "mollifier": 3}),
    (["simulate"], lambda cfg: {**cfg, "kernel": {**cfg["kernel"],
                                                  "remainder": "zero"}}),
], ids=["top-level-list", "grid-number", "ladder-string", "estimate-list",
        "mollifier-number", "remainder-string"])
def test_malformed_config_shapes_are_refused(tmp_path, capsys, argv, shape):
    """A config, or a section of it, that is not a JSON object exits 2 with
    one JSON line, not with a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(shape(write_cfg(cfg))))
    code = run_cli([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"
