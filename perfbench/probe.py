"""Set-up probe for one workload, run in a fresh process by run.py.

    python3 perfbench/probe.py WORKLOAD SEED SCRATCH REPLICAS

Prints {"setup_s": ...} as its last line: the time to import gmclab and
build every ladder and SpectralPlan the workload's call builds.  A fresh
process keeps import and plan caches from carrying over into `run_s`.
With WORKLOAD "-" it only imports gmclab, which warms the byte-code and
file caches before the timed probes.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    name, seed, scratch, replicas = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import gmclab  # noqa: F401
    if name != "-":
        import workloads
        workloads.WORKLOADS[name](int(seed), scratch,
                                  int(replicas) or None).setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
