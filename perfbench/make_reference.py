"""Record the reference outputs of every workload at its default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload call once at its default seed and full replica budget,
requires its recomputation check to pass, and stores the numeric outputs
per unit in perfbench/reference.json together with the commit they came
from.  run.py accepts agreement within workloads.REL_TOL.  Rerun it only
when a change is meant to alter sampled values, and say so.
"""

import json
import shutil
import sys

import run


def main(names):
    sys.path.insert(0, str(run.SRC))
    import workloads
    path = run.HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    scratch = run.ROOT / ".perfbench_tmp" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(workloads.WORKLOADS):
            W = workloads.WORKLOADS[name]
            wl = W(W.default_seed, str(scratch))
            out = wl.outputs(wl.call())
            bad = wl.cross_check(out)
            if bad:
                raise SystemExit(f"{name}: recomputation disagrees: {bad}")
            ref[name] = {"seed": W.default_seed, "replicas": wl.replicas,
                         "commit": run.git_commit(),
                         "units": {u: workloads.numbers(row)
                                   for u, row in sorted(out.items())}}
            print(f"{name}: {len(out)} units")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
