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

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


def run_fresh(code, *args):
    """Run `code` in a new interpreter and return what it prints as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


SCIPY_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""

# d = 1 and d = 3 run on numpy alone: the FFTs are numpy.fft's and the sine
# integral is gmclab's own
NUMPY_ONLY_RUNS = {
    "import-cli": "import gmclab.cli\n",
    "cli-d1-simulate-estimate": """
import json, sys
import gmclab.cli as cli
cfg, out = sys.argv[1], sys.argv[2]
with open(cfg, "w") as fh:
    json.dump({"kernel": {"dimension": 1, "lambda2": 0.5, "scale": 1.0},
               "grid": {"n": 2 ** 12, "length": 4.0}, "replicas": 2,
               "seed": 3}, fh)
codes = [cli.main(["simulate", "--config", cfg, "--replicas", "1",
                   "--out", out + "/simulate"]),
         cli.main(["estimate", "--config", cfg, "--kind", "zeta",
                   "--out", out + "/zeta"])]
assert codes == [0, 0], codes
""",
    "dissipation-d3": """
from gmclab import estimators
samples, _ = estimators.run_dissipation(1.0, 1.0, [0.5, 0.25], seed=1,
                                        n_replicas=1, n_side=32,
                                        eps_ratio=0.8)
assert len(samples) == 2
""",
}


@pytest.mark.parametrize("run", sorted(NUMPY_ONLY_RUNS))
def test_d1_and_d3_runs_load_no_scipy(run, tmp_path):
    got = run_fresh(NUMPY_ONLY_RUNS[run] + SCIPY_LOADED,
                    str(tmp_path / "cfg.json"), str(tmp_path))
    assert got == []


# the d = 2 and d = 4 transforms need scipy.special's Bessel functions and
# the sup-moment oracle its inverse normal CDF, imported where they run
SPECIAL_CALLERS = {
    "logplus-hat-d2": ("from gmclab import spectral",
                       "spectral.logplus_hat(1.0, 2)"),
    "sup-moment-growth": ("from gmclab import oracles",
                          "oracles.sup_moment_growth(1.0, 0.5, "
                          "n_samples=1000).detail['x_hat']"),
}


@pytest.mark.parametrize("caller", sorted(SPECIAL_CALLERS))
def test_special_function_callers_load_scipy_special_on_first_use(caller):
    imports, call = SPECIAL_CALLERS[caller]
    got = run_fresh(f"""
import json, math, sys
{imports}
before = "scipy.special" in sys.modules
value = float({call})
print(json.dumps([before, "scipy.special" in sys.modules,
                  math.isfinite(value)]))
""")
    assert got == [False, True, True]


def test_table_gate_loads_no_numpy_ma():
    # np.unique imports numpy.ma on first use (numpy 2.4), 8-18 ms of a
    # set-up; the gate's check grid and transforms must not
    got = run_fresh("""
import json, sys
from gmclab import field, kernels
before = "numpy.ma" in sys.modules
kernel = kernels.KernelSpec(1, 0.5, 1.0,
                            kernels.cone_remainder_table(0.5, 1.0, 1))
field.build_ladder(kernel, kernels.MollifierSpec("gaussian", 2 ** -8, 1),
                   (2 ** -4, 2 ** -8))
print(json.dumps([before, "numpy.ma" in sys.modules]))
""")
    assert got[1] == got[0]


QUAD_CALLERS = """
import json, sys
import numpy as np
from gmclab import kernels, oracles
before = "scipy.integrate" in sys.modules
cone = kernels.eval_cone_kernel(1.0, 1.0, 2, 0.5)
gauss = lambda v: np.exp(-v * v) / np.sqrt(np.pi)
log_int, _ = oracles._log_kernel_integral(gauss, 9.0, 90.0)
print(json.dumps({"before": before, "after": "scipy.integrate" in sys.modules,
                  "values": [cone, log_int]}))
"""


def test_quadrature_callers_load_quad_on_first_use():
    got = run_fresh(QUAD_CALLERS)
    assert not got["before"] and got["after"]
    cone, log_int = got["values"]
    assert cone > 0
    # ln(z/(z-v)) = v/z + v^2/(2z^2) + ...: for this profile (variance 1/2)
    # the integral is 1/(4z^2) up to a z^-4 term
    assert abs(log_int - 1.0 / (4 * 9.0 ** 2)) < 1e-4


def test_every_imported_name_is_used():
    # a name a module imports but never reads is a leftover of a deleted
    # path; __future__ imports change the parser
    unused = []
    for name in sorted(os.listdir(os.path.join(SRC, "gmclab"))):
        if not name.endswith(".py"):
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
    # every __all__ entry of every module names something the module
    # defines
    unresolved = []
    for name in sorted(os.listdir(os.path.join(SRC, "gmclab"))):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        module = importlib.import_module(f"gmclab.{name[:-3]}")
        unresolved += [f"{name}: {n}" for n in getattr(module, "__all__", [])
                       if not hasattr(module, n)]
    assert unresolved == []


def read_names(folder, strings=False):
    """Every name a folder's modules read (an ast.Name or the attribute of
    an ast.Attribute), and with `strings` their string constants too."""
    path = os.path.join(ROOT, folder)
    files = [path] if path.endswith(".py") else [
        os.path.join(path, f) for f in sorted(os.listdir(path))
        if f.endswith(".py") and f != "__init__.py"]
    read = set()
    for name in files:
        with open(name, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif strings and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    read.add(node.value)
    return read


def test_every_public_name_has_a_reader():
    # a public name that only unit tests read is a capability that no
    # workload, command, demo or acceptance criterion reaches; perfbench
    # spans functions by name, so its string constants count as reads
    read = (read_names("src/gmclab") | read_names("demos")
            | read_names("tests/test_acceptance.py")
            | read_names("perfbench", strings=True))
    unread = [f"{module}.{name}" for module in
              ("kernels", "spectral", "field", "measure", "estimators",
               "oracles")
              for name in importlib.import_module(f"gmclab.{module}").__all__
              if name not in read]
    assert unread == []
