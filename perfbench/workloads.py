"""The four benchmark workloads, each driving gmclab's public entry points.

A workload is built from its seed and a scratch directory inside the
checkout.  It offers

    setup()        build every ladder and SpectralPlan its call builds
                   (timed in a fresh process for `setup_s`)
    call()         the timed workload call at its fixed replica budget
    outputs(res)   the checked values of one call, {unit: tuple}
    cross_check(o) failures found by recomputing a few units another way,
                   {unit: reason}; holds for every seed

One replica at a time and FFT workers at the library default: a closed loop
with one client.  The default seeds are the acceptance suite's, so the
recorded reference values apply to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

from gmclab import cli
from gmclab import estimators as est
from gmclab import field as fd
from gmclab import kernels as kn
from gmclab import measure as ms

REL_TOL = 1e-9   # reference agreement: round-off changes must still pass


def rel_close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Dissipation:
    """Acceptance criterion 7 at a smaller replica budget: four d=3 plans
    on 128^3 grids, then four samples per replica, one per radius."""

    name = "dissipation-3d"
    default_seed = 555
    replicas = 2
    radii = (0.5, 0.25, 0.125, 0.0625)
    lam2, scale, n_side, eps_ratio, wrap_margin = 1.0, 1.0, 2 ** 7, 0.4, 0.1
    baseline = {"field.sample_ms_p50": (147.0, "d=3 128^3 plan.sample")}

    def __init__(self, seed, scratch, replicas=None):
        self.seed = seed
        self.replicas = replicas or self.replicas

    def _plan(self, l):
        # the grid and mollifier run_dissipation builds for radius l
        grid = fd.GridSpec(3, self.n_side, self.scale + 2.0 * l + self.wrap_margin)
        eps = self.eps_ratio * l
        ladder = fd.build_ladder(kn.KernelSpec(3, self.lam2, self.scale),
                                 kn.MollifierSpec("gaussian", eps, 3), (eps,))
        return fd.SpectralPlan(ladder, grid)

    def setup(self):
        for l in self.radii:
            self._plan(l)

    def call(self):
        samples, _ = est.run_dissipation(
            lam2=self.lam2, scale=self.scale, radii=list(self.radii),
            seed=self.seed, n_replicas=self.replicas, n_side=self.n_side,
            eps_ratio=self.eps_ratio, wrap_margin=self.wrap_margin)
        return samples

    def outputs(self, samples):
        return {f"l={l!r}/r{rep}": (float(v),)
                for l in self.radii for rep, v in enumerate(samples[l])}

    def positive(self, unit, row):
        return row

    def cross_check(self, outputs):
        # eps_l of the smallest radius, replica 0, through exponentiate and
        # region_mass; run_dissipation keys radius i (largest first) by seed+i
        i, l = len(self.radii) - 1, sorted(self.radii, reverse=True)[-1]
        plan = self._plan(l)
        ball = ms.Ball((0.0, 0.0, 0.0), l)
        m = ms.exponentiate(plan.sample(self.seed + i, 0))
        want = ms.region_mass(m, ball) / ms.region_volume(plan.grid, ball)
        unit = f"l={l!r}/r0"
        if not rel_close(outputs[unit][0], want):
            return {unit: f"eps_l {outputs[unit][0]!r} != recomputed {want!r}"}
        return {}


class Mrw:
    """The acceptance-8 quadratic-variation loop: per replica one d=1 sample,
    exponentiate, mrw_path at 8192 times, quadratic_variation, region_mass."""

    name = "mrw-1d"
    default_seed = 314
    path_seed = 55         # the Brownian stream's seed in acceptance 8
    replicas = 2
    baseline = {"measure.mrw_path_ms_p50": (80.0, "mrw_path at 8192 times")}

    def __init__(self, seed, scratch, replicas=None):
        self.seed = seed
        self.replicas = replicas or self.replicas
        self.times = np.linspace(0.0, 1.0, 2 ** 13 + 1)[1:]
        self.box = ms.Box((0.0,), (1.0,))

    def setup(self):
        return fd.SpectralPlan(
            fd.build_ladder(kn.KernelSpec(1, 0.5, 1.0),
                            kn.MollifierSpec("gaussian", 2.0 ** -9, 1),
                            (2.0 ** -9,)),
            fd.GridSpec(1, 2 ** 14, 4.0))

    def _replica(self, plan, rep):
        m = ms.exponentiate(plan.sample(self.seed, rep))
        x = ms.mrw_path(m, self.times, seed=self.path_seed)
        mass = ms.region_mass(m, self.box)
        return m, x, mass

    def call(self):
        plan = self.setup()
        out = []
        for rep in range(self.replicas):
            _, x, mass = self._replica(plan, rep)
            out.append((float(x[-1]), mass,
                        *(ms.quadratic_variation(x, e) / mass
                          for e in (4, 2, 1))))
        return out

    def outputs(self, rows):
        return {f"r{rep}": row for rep, row in enumerate(rows)}

    def positive(self, unit, row):
        return row[1:]            # the mass and the variation ratios

    def cross_check(self, outputs):
        # replica 0: the mass of [0, 1] summed cell by cell with covered
        # fractions, and the quadratic variations from the path's increments
        m, x, _ = self._replica(self.setup(), 0)
        h = m.grid.step
        left = m.grid.axis_coordinates(0) - h / 2.0
        cover = np.clip((np.minimum(left + h, 1.0) - np.maximum(left, 0.0)) / h,
                        0.0, 1.0)
        mass = float(np.sum(m.cell_masses * cover))
        want = (float(x[-1]), mass,
                *(float(np.sum(np.diff(x[::e], prepend=0.0) ** 2)) / mass
                  for e in (4, 2, 1)))
        got = outputs["r0"]
        if not all(rel_close(a, b) for a, b in zip(got, want)):
            return {"r0": f"{got!r} != recomputed {want!r}"}
        return {}


class Degeneracy:
    """Acceptance criterion 3: degeneracy_scan over lam2 in {3.0, 0.5} on a
    2^16 grid along the ladder 2^-2 .. 2^-11, box [0, 1], alpha 0.5."""

    name = "degeneracy-1d"
    default_seed = 2024
    replicas = 4
    lam2s = (3.0, 0.5)
    baseline = {}

    def __init__(self, seed, scratch, replicas=None):
        self.seed = seed
        self.replicas = replicas or self.replicas
        self.grid = fd.GridSpec(1, 2 ** 16, 4.0)
        self.eps = fd.geometric_schedule(2.0 ** -2, 9)
        self.box = ms.Box((0.0,), (1.0,))

    def _plan(self, lam2):
        return fd.SpectralPlan(fd.build_ladder(
            kn.KernelSpec(1, lam2, 1.0),
            kn.MollifierSpec("gaussian", self.eps[-1], 1), self.eps), self.grid)

    def setup(self):
        for lam2 in self.lam2s:
            self._plan(lam2)

    def call(self):
        # degeneracy_scan reports fits only; keep the mass traces it computes
        traces = []
        orig = ms.convergence_trace

        def keep(*args, **kwargs):
            traces.append(orig(*args, **kwargs))
            return traces[-1]

        ms.convergence_trace = keep
        try:
            report = est.degeneracy_scan(
                list(self.lam2s), 1, 1.0, "gaussian", self.grid, self.eps,
                self.box, alpha=0.5, seed=self.seed, n_replicas=self.replicas)
        finally:
            ms.convergence_trace = orig
        return report, traces

    def outputs(self, result):
        report, traces = result
        out = {}
        for fit, trace in zip(report.fits, traces):
            out[f"lam2={fit.lam2!r}/fit"] = (fit.exponent, fit.exponent_se,
                                             fit.drift)
            for rep, row in enumerate(trace.masses):
                out[f"lam2={fit.lam2!r}/r{rep}"] = tuple(map(float, row))
        return out

    def positive(self, unit, row):
        return () if unit.endswith("/fit") else row

    def cross_check(self, outputs):
        # replica 0 sampled directly at the first and last stage (refine is
        # bit-identical to direct sampling) and reduced through region_mass
        bad = {}
        for lam2 in self.lam2s:
            plan, unit = self._plan(lam2), f"lam2={lam2!r}/r0"
            for k in (0, len(self.eps) - 1):
                m = ms.exponentiate(plan.sample(self.seed, 0, stage=k))
                want = ms.region_mass(m, self.box)
                if not rel_close(outputs[unit][k], want):
                    bad[unit] = f"stage {k}: {outputs[unit][k]!r} != {want!r}"
        return bad


class Simulate:
    """`gmclab simulate` in-process through cli.main: d=1, 2^16 grid, cone
    table remainder, ladder from 2^-3 with 10 shells, two binaries per
    replica written to a scratch directory and removed after the call."""

    name = "simulate-1d"
    default_seed = 42
    replicas = 4
    baseline = {"field.sample_ms_p50": (33.0, "10-shell d=1 2^16 ladder sample")}

    def __init__(self, seed, scratch, replicas=None):
        self.seed = seed
        self.replicas = replicas or self.replicas
        self.scratch = scratch
        self.config = os.path.join(scratch, "simulate.json")
        self._calls = 0
        cfg = {
            "kernel": {"dimension": 1, "lambda2": 0.5, "scale": 1.0,
                       "remainder": kn.cone_remainder_table(0.5, 1.0, 1).to_json()},
            "mollifier": {"kind": "gaussian", "epsilon": 2.0 ** -13},
            "grid": {"n": 2 ** 16, "length": 4.0},
            "ladder": {"eps0": 2.0 ** -3, "shells": 10},
            "seed": seed,
        }
        with open(self.config, "w") as fh:
            json.dump(cfg, fh)

    def _simulate(self, config, out, replicas):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", config, "--out", out,
                             "--replicas", str(replicas)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"gmclab simulate exited with {code}")

    def setup(self):
        # replicas 0: the gates, the ladder and the plan, no binaries
        out = os.path.join(self.scratch, "setup")
        self._simulate(self.config, out, 0)
        shutil.rmtree(out)

    def call(self):
        self._calls += 1
        out = os.path.join(self.scratch, f"run{self._calls}")
        self._simulate(self.config, out, self.replicas)
        return out

    def outputs(self, out):
        try:
            with open(os.path.join(out, "manifest.json")) as fh:
                self.manifest = json.load(fh)
            return {f"r{rep}": _grid_sums(out, rep)
                    for rep in range(self.replicas)}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def positive(self, unit, row):
        return row[1:3]           # field sum of squares, measure sum

    def cross_check(self, outputs):
        # replay: the manifest's config rerun gives byte-identical binaries,
        # and each measure is exp(field - variance/2) * cell volume
        cfg = os.path.join(self.scratch, "replay.json")
        with open(cfg, "w") as fh:
            json.dump(self.manifest["config"], fh)
        out = os.path.join(self.scratch, "replay")
        bad = {}
        try:
            self._simulate(cfg, out, self.replicas)
            for rep in range(self.replicas):
                unit = f"r{rep}"
                if _grid_sums(out, rep) != outputs[unit]:
                    bad[unit] = "replay binaries differ"
            f = fd.read_field(os.path.join(out, "field_r0000.bin"))
            m = ms.read_measure(os.path.join(out, "measure_r0000.bin"))
            want = np.exp(f.values - f.variance / 2.0) * f.grid.cell_volume
            if not np.allclose(m.cell_masses, want, rtol=1e-12, atol=0.0):
                bad["r0"] = "measure is not exp(field - variance/2) * h"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return bad


def _grid_sums(out, rep):
    """(sum, sum of squares) of the field, sum of the measure, and the
    digests of both binaries for one replica."""
    row, digests = [], []
    for kind in ("field", "measure"):
        path = os.path.join(out, f"{kind}_r{rep:04d}.bin")
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
        _, _, values = fd.read_grid_file(path)
        row.append(float(np.sum(values)))
        if kind == "field":
            row.append(float(np.sum(values * values)))
    return (*row, *digests)


WORKLOADS = {w.name: w for w in (Dissipation, Mrw, Degeneracy, Simulate)}


def numbers(row):
    """The numeric entries of an output row (digests are compared exactly
    between calls but are not part of the reference)."""
    return [v for v in row if isinstance(v, float)]
