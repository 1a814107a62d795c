"""Values do not depend on the BLAS thread count: the same computations run
in two fresh interpreters, one at OPENBLAS_NUM_THREADS=1 and one at 2, and
their bytes are compared with ==."""
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")

# a plan's stage variances, a d = 1 box trace, a d = 3 ball mass of about
# 29,000 cells and a table transform out to 20,000 panels: sizes at which
# a threaded BLAS splits its dot products
VALUES = """
import json
import numpy as np
from gmclab import field as fd, kernels as kn, measure as ms, spectral as sp

def hexed(values):
    return np.asarray(values, dtype=float).tobytes().hex()

out = {}
moll = kn.MollifierSpec("gaussian", 2 ** -10, 1)
plan = fd.SpectralPlan(
    fd.build_ladder(kn.KernelSpec(1, 0.5, 1.0), moll, (2 ** -4, 2 ** -10)),
    fd.GridSpec(1, 2 ** 16, 4.0))
out["stage_variance"] = hexed(plan.stage_variance)
out["box_trace"] = hexed(ms.convergence_trace(
    plan, ms.Box((-1.0,), (1.0,)), seed=3, n_replicas=2).masses)
moll3 = kn.MollifierSpec("gaussian", 2 ** -4, 3)
plan3 = fd.SpectralPlan(
    fd.build_ladder(kn.KernelSpec(3, 0.5, 1.0), moll3, (2 ** -4,)),
    fd.GridSpec(3, 64, 2.0))
measure = ms.exponentiate(plan3.sample(5, 0))
out["ball_mass"] = hexed(ms.region_mass(measure, ms.Ball((0.0,) * 3, 0.6)))
table = kn.Remainder("table", radii=[0.0, 0.5, 1.0], values=[0.3, 0.1, 0.0])
out["radial_fourier_grid"] = hexed(sp.radial_fourier_grid(
    table, 1, [0.0, 3.5, 20000.0], 1.0))
print(json.dumps(out))
"""


def values_at(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(
               [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", VALUES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_values_do_not_depend_on_the_blas_thread_count():
    one, two = values_at(1), values_at(2)
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
