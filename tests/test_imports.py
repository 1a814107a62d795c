"""What importing and running gmclab loads, checked in fresh interpreters,
and what its modules import, checked in their source.

pytest and other test modules load scipy.integrate themselves, so each load
check runs in a child process that starts from nothing but the interpreter.
"""
import ast
import importlib
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# scipy.integrate and what it pulls in; gmclab needs only scipy.fft and
# scipy.special until a quadrature runs
HEAVY = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.spatial"]


def run_fresh(code, *args):
    """Run `code` in a new interpreter and return what it prints as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


CLI_RUN = """
import json, sys
import gmclab, gmclab.cli as cli
cfg, out = sys.argv[1], sys.argv[2]
codes = [cli.main(["simulate", "--config", cfg, "--replicas", "1",
                   "--out", out + "/simulate"]),
         cli.main(["estimate", "--config", cfg, "--kind", "zeta",
                   "--out", out + "/zeta"])]
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules)}))
"""


def test_cli_runs_load_no_quadrature_modules(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"dimension": 1, "lambda2": 0.5, "scale": 1.0},
        "grid": {"n": 2 ** 12, "length": 4.0}, "replicas": 2, "seed": 3}))
    got = run_fresh(CLI_RUN, str(cfg), str(tmp_path))
    assert got["codes"] == [0, 0]
    assert [m for m in HEAVY if m in got["loaded"]] == []


QUAD_CALLERS = """
import json, sys
import numpy as np
from gmclab import kernels, oracles
before = "scipy.integrate" in sys.modules
cone = kernels.eval_cone_kernel(1.0, 1.0, 2, 0.5)
diag = kernels.mollifier_diagnostics(kernels.MollifierSpec("gaussian", 0.1, 1))
gauss = lambda v: np.exp(-v * v) / np.sqrt(np.pi)
log_int, _ = oracles._log_kernel_integral(gauss, 9.0, 90.0)
envelope = oracles.proof_envelope(gauss, 9.0)
print(json.dumps({"before": before, "after": "scipy.integrate" in sys.modules,
                  "values": [cone, diag["mass"], log_int, envelope]}))
"""


def test_quadrature_callers_load_quad_on_first_use():
    got = run_fresh(QUAD_CALLERS)
    assert not got["before"] and got["after"]
    cone, mass, log_int, envelope = got["values"]
    assert cone > 0
    assert abs(mass - 1.0) < 1e-8
    assert 0 < abs(log_int) <= envelope


def test_every_imported_name_is_used():
    # a name a module imports but never reads is a leftover of a deleted
    # path; __init__ re-exports, and __future__ imports change the parser
    unused = []
    for name in sorted(os.listdir(os.path.join(SRC, "gmclab"))):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, "gmclab", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unused += [f"{name}: {a.asname or a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
    assert unused == []


def test_public_names_are_declared_where_they_live():
    # a name the package re-exports is in its module's __all__, and every
    # __all__ entry of every module names something the module defines
    with open(os.path.join(SRC, "gmclab", "__init__.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    undeclared, unresolved = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 1 and
                node.module in ("kernels", "spectral", "field", "measure",
                                "estimators")):
            declared = importlib.import_module(f"gmclab.{node.module}").__all__
            undeclared += [f"{node.module}.{a.name}" for a in node.names
                           if a.name not in declared]
    for name in sorted(os.listdir(os.path.join(SRC, "gmclab"))):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        module = importlib.import_module(f"gmclab.{name[:-3]}")
        unresolved += [f"{name}: {n}" for n in getattr(module, "__all__", [])
                       if not hasattr(module, n)]
    assert undeclared == [] and unresolved == []
