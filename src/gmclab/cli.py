"""Command-line front end: seeded reproducible runs and report emission.

    gmclab simulate --config cfg.json [--seed S] [--replicas N] [--out DIR]
    gmclab estimate --config cfg.json --kind zeta|scale-invariance|...
    gmclab oracles  [--seed S] [--budget N] [--out DIR]

Configuration is a JSON object (kernel, mollifier, grid, ladder,
replicas, seed, per-command parameters; each section an object);
flags override the file.  One set-up parses every section for every
command and report kind: `seed` >= 0, `out` a directory; `grid.origin`
(the grid is centred on 0) and `ladder.factor` (a non-dyadic ladder is
`ladder.epsilons`) are refused.  The config digest goes into the
`simulate` manifest and every `estimate` report's JSON, but not into
`mrw_paths.csv` or `dissipation_samples.csv` (ROADMAP item 1(a));
rerunning a manifest reproduces byte-identical binaries.  Exit codes: 0
success, 2 validation error, 3 certified oracle/acceptance failure.
`oracles` takes `--seed` and `--budget` >= 0.  Every refusal, a usage
error (an unknown flag, a flag value that is not an integer) and a config
file that cannot be read included, prints one JSON line and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import estimators as est
from . import field as fd
from . import kernels as kn
from . import measure as ms
from . import oracles as oc
from .errors import (GateError, ValidationError, parse_count, parse_number,
                     parse_object)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3


def _fail(exc):
    """A refusal: one JSON line naming the error and its detail, exit 2."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "detail", None):
        doc["detail"] = {k: repr(v) for k, v in exc.detail.items()}
    print(json.dumps(doc))
    return EXIT_VALIDATION


def _config_digest(cfg):
    doc = {k: v for k, v in cfg.items() if k != "out"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_object(json.load(fh), "config")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None


def _section(cfg, name):
    """The object cfg[name] ({} when absent); anything else is refused."""
    return parse_object(cfg.get(name, {}), name)


def _parse_kernel_gate(cfg):
    """(KernelSpec, MollifierSpec); the kernel raises its own gates."""
    try:
        return kn.spec_from_json({**_section(cfg, "kernel"),
                                  "mollifier": _section(cfg, "mollifier")})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"kernel or mollifier config: {exc}") from None


def _floats(values):
    return tuple(float(v) for v in values)


def _grid_from(cfg, spec):
    g = _section(cfg, "grid")
    if "origin" in g:
        raise ValidationError("grid.origin is not a setting: the grid is "
                              "centred on 0")
    return fd.GridSpec(dimension=spec.dimension,
                       n=parse_number(g.get("n", 2 ** 12), int, "grid.n"),
                       length=parse_number(g.get("length", 4.0), float,
                                           "grid.length"))


def _epsilons_from(cfg):
    lad = _section(cfg, "ladder")
    if "factor" in lad:
        raise ValidationError("ladder.factor is not a setting: give a "
                              "non-dyadic schedule as ladder.epsilons")
    if "epsilons" in lad:
        return parse_number(lad["epsilons"], _floats, "ladder.epsilons")
    return fd.geometric_schedule(
        parse_number(lad.get("eps0", 2 ** -4), float, "ladder.eps0"),
        parse_number(lad.get("shells", 0), int, "ladder.shells"))


def _out_dir(out):
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"out must be a directory: {exc}") from None
    return out


def _apply_overrides(cfg, args):
    for name in ("seed", "replicas", "out"):
        if getattr(args, name) is not None:
            cfg[name] = getattr(args, name)


def _setup(args, replicas, least):
    """(cfg, kernel, mollifier, grid, epsilons, seed, replicas, out, digest)
    for any command; `replicas` defaults as given and is at least `least`."""
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args)
    spec, moll = _parse_kernel_gate(cfg)
    return (cfg, spec, moll, _grid_from(cfg, spec), _epsilons_from(cfg),
            parse_count(cfg.get("seed", 0), "seed", 0),
            parse_count(cfg.get("replicas", replicas), "replicas", least),
            _out_dir(cfg.get("out", ".")), _config_digest(cfg))


def cmd_simulate(args):
    cfg, spec, moll, grid, epsilons, seed, replicas, out, digest = \
        _setup(args, 1, 0)
    ladder = fd.build_ladder(spec, moll, epsilons)
    plan = fd.SpectralPlan(ladder, grid)
    names = []
    for rep in range(replicas):
        sample = plan.sample(seed, rep)
        measure = ms.exponentiate(sample)
        fname = f"field_r{rep:04d}.bin"
        mname = f"measure_r{rep:04d}.bin"
        fd.write_field(os.path.join(out, fname), sample)
        ms.write_measure(os.path.join(out, mname), measure)
        names.extend([fname, mname])
    manifest = {"config": cfg, "digest": digest, "outputs": names,
                "ladder_digest": ladder.digest, "synthesis": fd.SYNTHESIS}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"simulate: {len(names)} files in {out} (digest {digest})")
    return EXIT_OK


def cmd_estimate(args):
    cfg, spec, moll, grid, epsilons, seed, n, out, digest = \
        _setup(args, 100, 1)
    params = _section(cfg, "estimate")
    kind = args.kind or params.get("kind")

    def param(name, default, convert=float):
        return parse_number(params.get(name, default), convert,
                            f"estimate.{name}")

    def length(name, default, convert=float):
        """A length or lam2, or a list of them: each finite and > 0."""
        value = param(name, default, convert)
        if not all(0 < v < np.inf for v in np.atleast_1d(value)):
            raise ValidationError(f"estimate.{name} must be finite and > 0, "
                                  f"got {value!r}")
        return value

    def emit(report, name, lines):
        report.meta["config_digest"] = digest
        report.write(os.path.join(out, name))
        for line in lines:
            print(line)

    if kind in ("zeta", "scale-invariance", "degeneracy", "dissipation") \
            and n < 2:
        raise ValidationError(f"{kind} estimates a spread across replicas: "
                              f"set replicas >= 2, got {n}")
    if kind in ("degeneracy", "dissipation") and not spec.remainder.is_zero:
        raise ValidationError(f"{kind} runs the pure log kernel: leave out "
                              "kernel.remainder")
    if kind == "zeta":
        report = est.moment_scaling(
            spec, moll, grid,
            p_list=param("p_list", [0.5, 1.0, 2.0], _floats),
            c_list=param("c_list", [2.0 ** -k for k in range(7, 2, -1)],
                         _floats),
            seed=seed, n_replicas=n,
            regions=params.get("regions", "boxes"))
        emit(report, "zeta_report.csv", [
            f"zeta p={p}: fitted {slope:.4f} +- {se:.4f} "
            f"(analytic {report.zeta_analytic[p]:.4f}, R2={r2:.3f})"
            for p, (slope, se, r2) in sorted(report.zeta_hat.items())])
    elif kind == "scale-invariance":
        report = est.run_scale_invariance(
            spec, moll.kind, grid,
            side=length("side", spec.scale / 2),
            c=param("c", 0.5),
            eps_a=length("eps_a", moll.epsilon),
            seed=seed, n_replicas=n)
        emit(report, "scale_invariance.json", [
            f"scale-invariance c={report.c}: mean shift "
            f"{report.mean_shift:.4f} (target {report.mean_shift_target:.4f}), "
            f"variance gain {report.var_gain:.4f} "
            f"(target {report.var_gain_target:.4f}), "
            f"KS rejected: {report.ks_rejected}"])
    elif kind == "degeneracy":
        region_side = length("region_side", 1.0)
        region = ms.Box((0.0,) * spec.dimension,
                        (region_side,) * spec.dimension)
        report = est.degeneracy_scan(
            length("lam2_list", [spec.lam2], _floats),
            spec.dimension, spec.scale, moll.kind, grid,
            epsilons, region,
            alpha=param("alpha", 0.5),
            seed=seed, n_replicas=n)
        emit(report, "degeneracy.csv", [
            f"lam2={f.lam2}: " + ("plateau" if f.plateau else
                                  f"decay exponent {f.exponent:.4f} "
                                  f"(predicted {f.predicted:.4f})")
            for f in report.fits])
    elif kind == "dissipation":
        mean_eps = param("mean_eps", 1.0)
        radii = length("radii", [0.5, 0.25, 0.125, 0.0625], _floats)
        if spec.dimension != 3:
            raise ValidationError("dissipation runs in d = 3: set "
                                  "kernel.dimension to 3")
        grid_cfg = _section(cfg, "grid")
        ignored = ["grid.length"] if "length" in grid_cfg else []
        ignored += ["mollifier"] if "mollifier" in cfg else []
        if ignored:
            raise ValidationError(
                "dissipation sizes each radius's torus and mollifier itself: "
                f"leave out {', '.join(ignored)}")
        samples, report = est.run_dissipation(
            lam2=spec.lam2, scale=spec.scale, radii=radii,
            seed=seed, n_replicas=n, mean_eps=mean_eps,
            n_side=parse_number(grid_cfg.get("n", 2 ** 7), int, "grid.n"))
        ms.write_dissipation_csv(os.path.join(out, "dissipation_samples.csv"),
                                 samples, mean_eps)
        emit(report, "dissipation.csv", [
            f"dissipation: Var(ln eps_l) slope {report.slope:.4f} "
            f"+- {report.slope_se:.4f} (lam2 = {spec.lam2})"])
    elif kind == "mrw":
        t_max = length("t_max", 1.0)
        n_times = parse_count(params.get("n_times", 1024), "estimate.n_times",
                              1)
        times = np.linspace(0.0, t_max, n_times + 1)[1:]
        plan = fd.SpectralPlan(fd.build_ladder(spec, moll, (moll.epsilon,)),
                               grid)
        paths = []
        for rep in range(n):
            sample = plan.sample(seed, rep)
            measure = ms.exponentiate(sample)
            paths.append(ms.mrw_path(measure, times, seed))
        ms.write_mrw_csv(os.path.join(out, "mrw_paths.csv"), times, paths)
        x2 = np.mean([p[-1] ** 2 for p in paths])
        print(f"mrw: {n} paths, E[X({times[-1]:.2f})^2] = {x2:.4f} "
              f"(target {times[-1]:.2f})")
    else:
        raise ValidationError(f"unknown report kind {kind!r}")
    return EXIT_OK


def cmd_oracles(args):
    seed = parse_count(args.seed or 0, "seed", 0)
    budget = parse_count(args.budget, "budget", 0)
    out = _out_dir(args.out or ".")
    verdicts = oc.run_all(seed=seed, mc_samples=budget)
    doc = oc.verdicts_to_json(verdicts, os.path.join(out, "oracle_report.json"))
    n_pass = sum(1 for v in verdicts if v.certified and v.passed)
    n_fail = sum(1 for v in verdicts if v.certified and not v.passed)
    n_inc = len(doc["inconclusive"])
    for v in verdicts:
        state = ("inconclusive" if v.inconclusive
                 else ("pass" if v.passed else "FAIL"))
        print(f"{v.name}: {state} (margin {v.margin:.3g}, "
              f"budget {v.budget:.3g})")
    print(f"oracles: {n_pass} certified pass, {n_fail} certified fail, "
          f"{n_inc} inconclusive")
    return EXIT_FAILURE if n_fail else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValidationError, so it is refused like any
    other setting; the subcommands' parsers share the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    ap = _Parser(
        prog="gmclab",
        description="log-correlated Gaussian fields, multiplicative chaos "
                    "measures, and their statistical verification")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write field + measure binaries")
    sim.add_argument("--config", required=True)
    est_p = sub.add_parser("estimate", help="run a statistical report")
    est_p.add_argument("--config", required=True)
    est_p.add_argument("--kind", choices=["zeta", "scale-invariance",
                                          "degeneracy", "dissipation", "mrw"])
    orc = sub.add_parser("oracles", help="appendix-lemma validation battery")
    orc.add_argument("--budget", type=int, default=400_000,
                     help="Monte Carlo samples per oracle (0: skip MC)")
    for p in (sim, est_p, orc):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    for p in (sim, est_p):
        p.add_argument("--replicas", type=int, default=None)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)   # a command is required
        command = {"simulate": cmd_simulate, "estimate": cmd_estimate,
                   "oracles": cmd_oracles}[args.command]
        return command(args)
    except (ValidationError, GateError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
