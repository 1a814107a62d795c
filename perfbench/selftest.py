"""Self-test of the benchmark at a tiny budget.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload, at its default seed with one or two replicas and a 1 s
window:

- an untraced and a traced run each print every metric BENCHMARK.json
  declares for its mode, with the declared unit, both as a text line and
  in the final JSON line, and find no failed output;
- a second traced run repeats every count (unit count or bytes) exactly;
- a run with --perturb counts the one changed output in failed_frac.

Then a directory holding only BENCHMARK.json and the benchmark's files
must make the benchmark exit non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys

import run

TINY = {"dissipation-3d": 1}       # replicas; the rest run two


def bench(args, cwd=run.ROOT):
    res = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    return res.returncode, res.stdout.strip().splitlines(), res.stderr


def result(workload, trace, *extra):
    code, lines, err = bench(["--workload", workload, "--seconds", "1",
                              "--trace", str(trace), "--replicas",
                              str(TINY.get(workload, 2)), *extra])
    assert code == 0, f"{workload} trace {trace}: exit {code}\n{err}"
    return lines, json.loads(lines[-1])


def declared(spec, lines, res, what):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"{what}: metrics {got} != declared {want}"
    for name, unit in want.items():
        assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}")
                   for l in lines), f"{what}: no text line for {name} [{unit}]"


def counts(res):
    return {k: v["value"] for k, v in res["metrics"].items()
            if v["unit"] in ("count", "bytes")}


def check_workload(cfg, workload):
    for trace, spec in ((0, cfg["end_to_end"]), (1, cfg["per_layer"])):
        lines, res = result(workload, trace)
        declared(spec, lines, res, f"{workload} trace {trace}")
        assert res["correct"] and res["failed"] == 0, \
            f"{workload} trace {trace}: failed outputs\n" + "\n".join(lines)
    _, again = result(workload, 1)
    assert counts(again) == counts(res), \
        f"{workload}: counts differ between runs: {counts(res)} {counts(again)}"
    _, bad = result(workload, 1, "--perturb")
    assert not bad["correct"] and bad["failed"] == 1, \
        f"{workload}: perturbed output not counted: {bad}"
    assert bad["metrics"]["failed_frac"]["value"] == 1 / bad["attempted"]
    print(f"selftest {workload}: ok")


def check_bare():
    bare = run.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        code, lines, _ = bench(["--workload", "mrw-1d", "--seed", "1",
                                "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0, "benchmark ran without the program's sources"
    assert not any(l.startswith('{"correct"') for l in lines), lines
    print("selftest bare directory: exits", code, "without a result")


def main(names):
    cfg = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in names or [w["name"] for w in cfg["workloads"]]:
        check_workload(cfg, workload)
    check_bare()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
