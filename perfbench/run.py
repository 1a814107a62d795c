"""gmclab benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

With --trace 0 it times the set-up in fresh processes (`setup_s`, median
of SETUP_REPEATS), then repeats the workload call at its fixed replica
budget for --seconds after one warm-up call, each call pinned to the next
usable CPU in turn (`run_s`, median), and reports the run process's peak
memory.  With --trace 1 it alternates traced and untraced calls for
--seconds and reports the per-layer metrics of the traced ones.  Either way every call's outputs are checked: against the
recorded reference at the default seed, by recomputation for every seed,
and bit for bit against the warm-up call (so traced equals untraced).

Output: an environment record, one line per metric with its unit, and as
the last line {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PERTURB = 1e-6   # relative change --perturb applies to one checked output
THREAD_VARS = ("GMC_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the acceptance seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replicas", type=int, default=None,
                    help="replica budget (default: the workload's own); "
                         "smaller budgets are for the self-test")
    ap.add_argument("--perturb", action="store_true",
                    help="change one output of the last call, to show the "
                         "check counts it")
    return ap.parse_args(argv)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment(thread_env):
    import numpy
    import scipy
    from gmclab import field
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": field.default_workers(),
        "thread_env": thread_env,
        "caches": cache_sizes(),
        "commit": git_commit(),
    }


def setup_times(name, seed, scratch, replicas):
    """One import-only warm-up probe, then SETUP_REPEATS timed probes."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        probe_dir = scratch / f"probe{i}"
        probe_dir.mkdir()
        res = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name if i else "-",
             str(seed), str(probe_dir), str(replicas or 0)],
            capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        if i:
            times.append(json.loads(res.stdout.strip().splitlines()[-1])
                         ["setup_s"])
    return times


def one_call(wl):
    """(wall seconds, outputs or None, error or None) of one workload call."""
    start = time.perf_counter()
    try:
        res = wl.call()
    except Exception as exc:                      # counted as failed outputs
        return time.perf_counter() - start, None, repr(exc)
    wall = time.perf_counter() - start
    try:
        return wall, wl.outputs(res), None
    except Exception as exc:
        return wall, None, repr(exc)


def check(wl, calls, reference, perturb):
    """(attempted, failed, reasons) over every call's outputs.

    The warm-up call's outputs must be finite, positive where they are
    masses, agree with the reference within workloads.REL_TOL at the
    default seed and pass the workload's recomputation; every later call
    must reproduce them bit for bit.
    """
    from workloads import numbers, rel_close
    if perturb and calls[-1][1]:
        out = dict(calls[-1][1])
        unit = next(iter(out))
        row = list(out[unit])
        row[0] *= 1.0 + PERTURB
        out[unit] = tuple(row)
        calls[-1] = (calls[-1][0], out, calls[-1][2])
    first, reasons = calls[0][1], {}
    if first is None:
        n = len(calls) * max(len(reference or ()), 1)
        return n, n, {"call": calls[0][2]}
    for unit, row in first.items():
        if not all(math.isfinite(v) for v in numbers(row)):
            reasons[unit] = "not finite"
        elif not all(v > 0 for v in wl.positive(unit, row)):
            reasons[unit] = "mass not positive"
    for unit, want in (reference or {}).items():
        got = first.get(unit)
        if got is None:
            reasons[unit] = "missing"
        elif not all(rel_close(a, b) for a, b in zip(numbers(got), want)):
            reasons[unit] = f"{numbers(got)} differs from reference {want}"
    try:
        reasons.update(wl.cross_check(first))
    except Exception as exc:
        reasons["cross_check"] = repr(exc)
    units = set(first) | set(reference or ())
    bad = set(reasons)
    attempted = failed = 0
    for _, out, err in calls:
        attempted += len(units)
        if out is None:
            failed += len(units)
            reasons.setdefault("call", err)
            continue
        for unit in units:
            if unit in bad or out.get(unit) != first.get(unit):
                failed += 1
                reasons.setdefault(unit, "differs from the warm-up call")
    if "cross_check" in reasons:
        attempted += 1
        failed += 1
    return attempted, failed, reasons


def load_reference(name, seed, default_seed, replicas):
    """Reference rows of the units this run produces, at the default seed.
    Replica units are keyed by replica index, so a smaller budget checks a
    prefix; units summarising all replicas need the recorded budget."""
    if seed != default_seed:
        return None
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)[name]

    def produced(unit):
        last = unit.rsplit("/", 1)[-1]
        if last.startswith("r") and last[1:].isdigit():
            return int(last[1:]) < replicas
        return replicas == ref["replicas"]

    return {u: v for u, v in ref["units"].items() if produced(u)}


def run_plain(wl, seconds):
    """Warm-up, then calls for `seconds`, each pinned to the next usable CPU
    in turn.  A shared host lends each virtual CPU's core to other tenants
    for seconds at a time, slowing every call on it by up to 1.8x; with
    short calls spread over the CPUs, the median call (`run_s`) depends
    less on which CPU a run happened to stay on."""
    cpus = sorted(os.sched_getaffinity(0))
    calls = [one_call(wl)]                        # warm-up, untimed
    start = time.perf_counter()
    try:
        for k in itertools.count():
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            calls.append(one_call(wl))
            if time.perf_counter() - start >= seconds:
                return calls
    finally:
        os.sched_setaffinity(0, cpus)


def run_traced(wl, seconds, spans_path):
    """Alternate traced and untraced calls after an untraced warm-up;
    wrappers are installed only around the traced calls."""
    import tracing
    tracer = tracing.Tracer()
    calls, traced, plain = [one_call(wl)], [], []
    start = time.perf_counter()
    run = 0
    while True:
        run += 1
        if run % 2:
            with tracer:
                tracer.run = run
                calls.append(one_call(wl))
            traced.append((run, calls[-1][0]))
        else:
            calls.append(one_call(wl))
            plain.append(calls[-1][0])
        if time.perf_counter() - start >= seconds and plain:
            break
    tracer.write_spans(spans_path)
    profiles = [tracing.run_profile(tracer, r, wall) for r, wall in traced]
    overhead = statistics.median(w for _, w in traced) - statistics.median(plain)
    metrics = tracing.per_layer_metrics(profiles, overhead)
    repeat = all(tracing.counts_of(p) == tracing.counts_of(profiles[0])
                 for p in profiles)
    return calls, metrics, repeat


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gmclab" / "__init__.py").is_file():
        print(f"perfbench: no gmclab sources at {SRC}", file=sys.stderr)
        return 2
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    # a closed loop with one client: one FFT worker (the library default)
    # and one BLAS thread, whose idle spinning would otherwise occupy a
    # second core between calls; set before numpy loads, inherited by the
    # set-up probes
    os.environ.pop("GMC_LAB_THREADS", None)
    for var in THREAD_VARS[1:]:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import gmclab
    if not Path(gmclab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: gmclab imported from {gmclab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    W = workloads.WORKLOADS[args.workload]
    seed = W.default_seed if args.seed is None else args.seed
    scratch = ROOT / ".perfbench_tmp" / f"{W.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = W(seed, str(scratch), args.replicas)
        reference = load_reference(W.name, seed, W.default_seed, wl.replicas)
        print(json.dumps({"environment": environment(thread_env),
                          "workload": W.name, "seed": seed,
                          "replicas": wl.replicas, "seconds": args.seconds,
                          "trace": args.trace}))
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            calls, metrics, repeat = run_traced(
                wl, args.seconds, out_dir / f"spans-{W.name}-seed{seed}.jsonl")
        else:
            setup = setup_times(W.name, seed, scratch, args.replicas)
            calls = run_plain(wl, args.seconds)
            timed = [c[0] for c in calls[1:]]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": (statistics.median(setup), "s"),
                       "run_s": (statistics.median(timed), "s"),
                       "peak_rss_mb": (rss_mb, "MB")}
            repeat = True
        attempted, failed, reasons = check(wl, calls, reference, args.perturb)
        if not repeat:
            attempted, failed = attempted + 1, failed + 1
            reasons["counts"] = "computed counts differ between traced calls"
        if args.trace:
            metrics["failed_frac"] = (failed / attempted, "fraction")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for unit, why in sorted(reasons.items()):
        print(f"FAILED {unit}: {why}")
    timed = [c[0] for c in calls[1:]]
    print(f"calls: {len(timed)} timed after one warm-up, {wl.replicas} "
          f"replicas each; wall s min {min(timed):.4f} median "
          f"{statistics.median(timed):.4f} max {max(timed):.4f}")
    if not args.trace:
        print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)}")
    print(f"checked outputs: {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.6g})")
    if args.trace:
        print("counts (unit count or bytes) are computed from array sizes "
              "at the call boundary, not measured")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (ref, what) in W.baseline.items():
        if name in metrics:
            print(f"ROADMAP baseline {name}: {metrics[name][0]:.1f} ms here, "
                  f"{ref:.0f} ms at the re-anchor ({what})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
