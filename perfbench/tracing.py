"""Spans around gmclab's public callables, recorded from outside the library.

A `Tracer` replaces each callable in `TARGETS` by a timing wrapper at every
name that binds it: a module attribute, a name imported into another module
(`measure` imports `write_grid_file`, `estimators` imports `build_ladder`,
`field` imports `kernel_hat`), or a method on its class.  Patching only the
defining attribute would miss calls made through the other names.

Each span records (name, start, end, parent, run id) and is kept in memory;
`write_spans` stores them when the benchmark ends.  The wrappers read only
`time.perf_counter` and the arguments and results they pass through, so no
random stream is touched and traced outputs stay bit-identical.

Counts are computed from array sizes at the call boundary, never timed, so
they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("field", "spectral", "kernels", "measure", "estimators", "cli")


def _sample_counts(args, kwargs, out):
    # plan.sample at stage k sums k+1 shells, one inverse FFT and one
    # standard normal per grid point each
    shells = out.stage + 1
    points = shells * out.values.size
    return {"field.shell_transforms": shells, "field.sample_transforms": shells,
            "field.points_transformed": points, "field.normals_drawn": points}


def _refine_counts(args, kwargs, out):
    return {"field.shell_transforms": 1,
            "field.points_transformed": out.values.size,
            "field.normals_drawn": out.values.size}


def _write_counts(args, kwargs, out):
    # write_grid_file(path, grid, values, header_extra): float64 payload
    return {"field.bytes_written": 8 * _size(args[2])}


def _logplus_counts(args, kwargs, out):
    return {"spectral.logplus_hat_points": _size(args[0])}


def _mrw_counts(args, kwargs, out):
    return {"measure.normals_drawn": _size(args[1])}


def _size(a):
    return int(np.size(a))


# (layer, span name, module, attribute path, counter)
TARGETS = (
    ("field", "build_ladder", "gmclab.field", "build_ladder", None),
    ("field", "plan", "gmclab.field", "SpectralPlan.__init__", None),
    ("field", "sample", "gmclab.field", "SpectralPlan.sample", _sample_counts),
    ("field", "refine", "gmclab.field", "SpectralPlan.refine", _refine_counts),
    ("field", "write", "gmclab.field", "write_grid_file", _write_counts),
    ("spectral", "logplus_hat", "gmclab.spectral", "logplus_hat",
     _logplus_counts),
    ("spectral", "radial_fourier", "gmclab.spectral", "radial_fourier", None),
    ("spectral", "check_positive_definite", "gmclab.spectral",
     "check_positive_definite", None),
    ("kernels", "kernel_hat", "gmclab.kernels", "kernel_hat", None),
    ("measure", "exponentiate", "gmclab.measure", "exponentiate", None),
    ("measure", "region_mass", "gmclab.measure", "region_mass", None),
    ("measure", "mrw_path", "gmclab.measure", "mrw_path", _mrw_counts),
    ("measure", "convergence_trace", "gmclab.measure", "convergence_trace",
     None),
    ("estimators", "run_dissipation", "gmclab.estimators", "run_dissipation",
     None),
    ("estimators", "degeneracy_scan", "gmclab.estimators", "degeneracy_scan",
     None),
    ("cli", "main", "gmclab.cli", "main", None),
)


def _gmclab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gmclab" or n.startswith("gmclab."))]


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit.
    Set `run` to the call's id before calling into gmclab."""

    def __init__(self):
        self.spans = []               # (name, start, end, parent, run)
        self.counts = defaultdict(lambda: defaultdict(int))  # run -> key -> n
        self.run = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run = tracer.run
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, run)
            if counter is not None:
                for key, n in counter(args, kwargs, out).items():
                    tracer.counts[run][key] += n
            return out

        return traced

    def __enter__(self):
        mods = _gmclab_modules()
        for layer, short, modname, attr, counter in TARGETS:
            name = f"{layer}.{short}"
            owner = sys.modules[modname]
            if "." in attr:       # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, counter))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, counter)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        return self

    def __exit__(self, *exc):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()
        self.run = None
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def run_profile(tracer, run, wall_s):
    """Per-layer figures of one traced workload call.

    Inclusive time and call count per span name, self time per span name
    (span minus the time its child spans cover), self time per layer as a
    share of the call's wall time, and the computed counts.
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans)
             if s is not None and s[4] == run]
    child = defaultdict(float)
    for _, (name, start, end, parent, _) in spans:
        if parent >= 0:
            child[parent] += end - start
    incl = defaultdict(float)
    self_s = defaultdict(float)
    durs = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, _) in spans:
        dur = end - start
        incl[name] += dur
        self_s[name] += dur - child[i]
        durs[name].append(dur)
        layer_self[name.split(".")[0]] += dur - child[i]
    return {
        "incl": incl, "self": self_s, "durs": durs,
        "share": {layer: t / wall_s for layer, t in layer_self.items()},
        "counts": dict(tracer.counts[run]), "spans": len(spans),
    }


# (metric, unit, how, span name or count key); "incl" and "self" sum the
# call's spans of that name, "p50" is the median span in ms, "calls" counts
# spans and "count" reads a computed count.
PER_LAYER = (
    ("field.sample_s", "s", "incl", "field.sample"),
    ("field.sample_calls", "count", "calls", "field.sample"),
    ("field.sample_ms_p50", "ms", "p50", "field.sample"),
    ("field.transforms_per_sample", "count", "per_sample",
     "field.sample_transforms"),
    ("field.shell_transforms", "count", "count", "field.shell_transforms"),
    ("field.points_transformed", "count", "count", "field.points_transformed"),
    ("field.normals_drawn", "count", "count", "field.normals_drawn"),
    ("field.refine_s", "s", "incl", "field.refine"),
    ("field.refine_calls", "count", "calls", "field.refine"),
    ("field.plan_s", "s", "incl", "field.plan"),
    ("field.build_ladder_s", "s", "incl", "field.build_ladder"),
    ("field.plan_calls", "count", "calls", "field.plan"),
    ("field.write_s", "s", "incl", "field.write"),
    ("field.bytes_written", "bytes", "count", "field.bytes_written"),
    ("spectral.logplus_hat_s", "s", "incl", "spectral.logplus_hat"),
    ("spectral.logplus_hat_points", "count", "count",
     "spectral.logplus_hat_points"),
    ("spectral.radial_fourier_s", "s", "incl", "spectral.radial_fourier"),
    ("spectral.radial_fourier_calls", "count", "calls",
     "spectral.radial_fourier"),
    ("spectral.check_positive_definite_s", "s", "incl",
     "spectral.check_positive_definite"),
    ("kernels.kernel_hat_s", "s", "incl", "kernels.kernel_hat"),
    ("measure.mrw_path_s", "s", "incl", "measure.mrw_path"),
    ("measure.mrw_path_ms_p50", "ms", "p50", "measure.mrw_path"),
    ("measure.normals_drawn", "count", "count", "measure.normals_drawn"),
    ("measure.region_mass_s", "s", "incl", "measure.region_mass"),
    ("measure.exponentiate_s", "s", "incl", "measure.exponentiate"),
    ("measure.convergence_trace_self_s", "s", "self",
     "measure.convergence_trace"),
    ("estimators.run_dissipation_self_s", "s", "self",
     "estimators.run_dissipation"),
    ("estimators.degeneracy_scan_self_s", "s", "self",
     "estimators.degeneracy_scan"),
    ("cli.main_self_s", "s", "self", "cli.main"),
) + tuple((f"{layer}.share", "fraction", "share", layer) for layer in LAYERS)


def _figure(p, how, key):
    if how == "incl":
        return p["incl"].get(key, 0.0)
    if how == "self":
        return p["self"].get(key, 0.0)
    if how == "p50":
        d = p["durs"].get(key)
        return 1000.0 * statistics.median(d) if d else 0.0
    if how == "share":
        return p["share"][key]
    calls = len(p["durs"].get("field.sample", ()))
    if how == "per_sample":
        return p["counts"].get(key, 0) / calls if calls else 0.0
    if how == "calls":
        return len(p["durs"].get(key, ()))
    return p["counts"].get(key, 0)


def per_layer_metrics(profiles, overhead_s):
    """Each PER_LAYER metric as the median over the traced calls (counts
    agree between calls, which the caller checks with `counts_of`), plus
    the tracing overhead and the span count."""
    m = {name: (float(statistics.median(_figure(p, how, key)
                                        for p in profiles)), unit)
         for name, unit, how, key in PER_LAYER}
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (float(profiles[0]["spans"]), "count")
    return m


def counts_of(profile):
    """The exactly repeatable part of a profile: counts and call counts."""
    return (sorted(profile["counts"].items()),
            sorted((k, len(v)) for k, v in profile["durs"].items()),
            profile["spans"])
