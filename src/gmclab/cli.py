"""Command-line front end: seeded reproducible runs and report emission.

    gmclab simulate --config cfg.json [--seed S] [--replicas N] [--out DIR]
    gmclab estimate --config cfg.json --kind zeta|scale-invariance|...
    gmclab oracles  [--seed S] [--budget N] [--out DIR]

Configuration is a JSON document (kernel, mollifier, grid, ladder,
replicas, seed, per-command parameters); command-line flags override the
file.  Every output embeds the config digest, and rerunning a manifest
reproduces byte-identical binaries.  Exit codes: 0 success, 2 validation
error, 3 certified oracle/acceptance failure.  GMC_LAB_THREADS (or
--threads) sets FFT worker count and never changes results.
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
from . import spectral as sp
from .errors import GateError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3


def _fail(code, exc_or_msg, **detail):
    msg = str(exc_or_msg)
    doc = {"error": type(exc_or_msg).__name__ if isinstance(exc_or_msg, Exception)
           else "error", "message": msg}
    detail.update(getattr(exc_or_msg, "detail", {}) or {})
    if detail:
        doc["detail"] = {k: repr(v) for k, v in detail.items()}
    print(json.dumps(doc))
    return code


def _config_digest(cfg):
    doc = {k: v for k, v in cfg.items() if k != "out"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _number(value, convert, name):
    """convert(value) for a numeric setting; a value that does not convert
    is refused with a ValidationError naming the setting."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be a number, got {value!r}") from None


def _parse_kernel_gate(cfg):
    """Kernel parsing with the spectral positivity gate in front: a log
    kernel in d >= 4 is refused because its spectral density oscillates in
    sign (no admissible synthesis), before KernelSpec validation."""
    kcfg = cfg.get("kernel", {})
    d = _number(kcfg.get("dimension", 1), int, "kernel.dimension")
    if d >= 4:
        raise GateError(
            "positivity gate: the log kernel is not positive definite for "
            "d >= 4 (sign-oscillating spectral density); synthesis refused",
            dimension=d)
    try:
        return kn.spec_from_json({**kcfg,
                                  "mollifier": cfg.get("mollifier", {})})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"kernel or mollifier config: {exc}") from None


def _floats(values):
    return tuple(float(v) for v in values)


def _grid_from(cfg):
    g = cfg.get("grid", {})
    origin = g.get("origin")
    return fd.GridSpec(dimension=int(cfg.get("kernel", {}).get("dimension", 1)),
                       n=_number(g.get("n", 2 ** 12), int, "grid.n"),
                       length=_number(g.get("length", 4.0), float,
                                      "grid.length"),
                       origin=_number(origin, _floats, "grid.origin")
                       if origin else None)


def _epsilons_from(cfg):
    lad = cfg.get("ladder", {})
    if "epsilons" in lad:
        return _number(lad["epsilons"], _floats, "ladder.epsilons")
    return fd.geometric_schedule(
        _number(lad.get("eps0", 2 ** -4), float, "ladder.eps0"),
        _number(lad.get("shells", 0), int, "ladder.shells"),
        _number(lad.get("factor", 2.0), float, "ladder.factor"))


def _positivity_certificate(spec: kn.KernelSpec):
    """Grid certificate for kernels with a nontrivial remainder; the pure
    log part is nonnegative by the closed forms."""
    if spec.remainder.kind != "table":
        return True
    prof = lambda r: kn.eval_kernel(spec, np.maximum(r, 1e-12))
    grid = sp.default_check_grid(spec.scale)
    rep = sp.check_positive_definite(prof, spec.dimension, grid,
                                     support=spec.scale)
    if rep.certificate != sp.CERT_NONNEGATIVE:
        raise GateError("positivity gate: kernel spectral density is not "
                        "certified nonnegative", certificate=rep.certificate)
    return True


def cmd_simulate(args):
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args)
    spec, moll = _parse_kernel_gate(cfg)
    _positivity_certificate(spec)
    grid = _grid_from(cfg)
    epsilons = _epsilons_from(cfg)
    seed = _number(cfg.get("seed", 0), int, "seed")
    replicas = _number(cfg.get("replicas", 1), int, "replicas")
    ladder = fd.build_ladder(spec, moll, epsilons)
    plan = fd.SpectralPlan(ladder, grid)
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    digest = _config_digest(cfg)
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
                "ladder_digest": ladder.digest}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"simulate: {len(names)} files in {out} (digest {digest})")
    return EXIT_OK


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "replicas", None) is not None:
        cfg["replicas"] = args.replicas
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    threads = getattr(args, "threads", None)
    if threads is None:
        threads = os.environ.get("GMC_LAB_THREADS")
    if threads is not None:
        fd.set_workers(_number(threads, int, "thread count"))


def cmd_estimate(args):
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args)
    spec, moll = _parse_kernel_gate(cfg)
    grid = _grid_from(cfg)
    seed = _number(cfg.get("seed", 0), int, "seed")
    n = _number(cfg.get("replicas", 100), int, "replicas")
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    digest = _config_digest(cfg)
    params = cfg.get("estimate", {})
    kind = args.kind or params.get("kind")

    if kind == "zeta":
        report = est.moment_scaling(
            spec, moll, grid,
            p_list=params.get("p_list", [0.5, 1.0, 2.0]),
            c_list=params.get("c_list", [2.0 ** -k for k in range(7, 2, -1)]),
            seed=seed, n_replicas=n,
            regions=params.get("regions", "boxes"))
        report.meta["config_digest"] = digest
        path = os.path.join(out, "zeta_report.csv")
        report.write(path)
        for p, (slope, se, r2) in sorted(report.zeta_hat.items()):
            print(f"zeta p={p}: fitted {slope:.4f} +- {se:.4f} "
                  f"(analytic {report.zeta_analytic[p]:.4f}, R2={r2:.3f})")
    elif kind == "scale-invariance":
        report = est.run_scale_invariance(
            spec, moll.kind, grid,
            side=float(params.get("side", spec.scale / 2)),
            c=float(params.get("c", 0.5)),
            eps_a=float(params.get("eps_a", moll.epsilon)),
            seed=seed, n_replicas=n)
        report.meta["config_digest"] = digest
        report.write(os.path.join(out, "scale_invariance.json"))
        print(f"scale-invariance c={report.c}: mean shift "
              f"{report.mean_shift:.4f} (target {report.mean_shift_target:.4f}), "
              f"variance gain {report.var_gain:.4f} "
              f"(target {report.var_gain_target:.4f}), "
              f"KS rejected: {report.ks_rejected}")
    elif kind == "degeneracy":
        region_side = float(params.get("region_side", 1.0))
        region = ms.Box((0.0,) * spec.dimension,
                        (region_side,) * spec.dimension)
        report = est.degeneracy_scan(
            params.get("lam2_list", [spec.lam2]),
            spec.dimension, spec.scale, moll.kind, grid,
            _epsilons_from(cfg), region,
            alpha=float(params.get("alpha", 0.5)),
            seed=seed, n_replicas=n)
        report.meta["config_digest"] = digest
        report.write(os.path.join(out, "degeneracy.csv"))
        for f in report.fits:
            verdict = "plateau" if f.plateau else \
                f"decay exponent {f.exponent:.4f} (predicted {f.predicted:.4f})"
            print(f"lam2={f.lam2}: {verdict}")
    elif kind == "dissipation":
        samples, report = est.run_dissipation(
            lam2=spec.lam2, scale=spec.scale,
            radii=params.get("radii", [0.5, 0.25, 0.125, 0.0625]),
            seed=seed, n_replicas=n,
            mean_eps=float(params.get("mean_eps", 1.0)),
            n_side=int(cfg.get("grid", {}).get("n", 2 ** 7)))
        report.meta["config_digest"] = digest
        report.write(os.path.join(out, "dissipation.csv"))
        rows = []
        for l, vals in samples.items():
            for v in vals:
                rows.append(ms.DissipationSample(center=(0.0, 0.0, 0.0),
                                                 radius=l, mean_dissipation=1.0,
                                                 value=float(v)))
        ms.write_dissipation_csv(os.path.join(out, "dissipation_samples.csv"),
                                 rows)
        print(f"dissipation: Var(ln eps_l) slope {report.slope:.4f} "
              f"+- {report.slope_se:.4f} (lam2 = {spec.lam2})")
    elif kind == "mrw":
        times = np.linspace(0.0, float(params.get("t_max", 1.0)),
                            int(params.get("n_times", 1024)) + 1)[1:]
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
    budget = args.budget if args.budget is not None else 400_000
    verdicts = oc.run_all(seed=args.seed or 0, mc_samples=budget)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
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


def build_parser():
    ap = argparse.ArgumentParser(
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
    orc.add_argument("--budget", type=int, default=None,
                     help="Monte Carlo samples per oracle (0: skip MC)")
    for p in (sim, est_p, orc):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
    for p in (sim, est_p):
        p.add_argument("--replicas", type=int, default=None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "oracles":
            return cmd_oracles(args)
    except (ValidationError, GateError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        return _fail(EXIT_VALIDATION, exc)
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
