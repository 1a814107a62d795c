"""The multiplicative chaos measure and its two applied derivatives.

A FieldSample X with exact lattice variance v becomes the measure with
cell masses exp(X - v/2) * cell_volume (midpoint rule, `_cell_masses`).
Because v is the exact variance of the synthesized field, the ensemble
mean of every region mass equals its discrete volume exactly, and region
masses along the shell ladder form a martingale.

Regions are boxes or balls; boundary cells enter with their covered
volume fraction (exact per-axis overlap on a box's slab, `_slab`; 3^d
subsampling of the cells of a ball's bounding slab).  Every region mass
in gmclab goes through one pair: `_region_weights` checks a region
against a grid and builds its weights once, and `_RegionWeights.mass`
contracts the masses of the region's selected cells with them;
`_tile_masses` sums the whole-cell tiles of the moment-scaling window.
The weights carry the region's bounding slab as a `window` and, for a
ball, the flat index of its cells within it as `local` (a box's cells
are the whole window): `_RegionWeights.cells` selects them from values
over the window, so cell masses of a whole grid enter as
`cells(masses[window])`, and samples drawn for one region are drawn on
the window (`SpectralPlan.sample(..., window=weights.window)`), so only
the nodes the region reads are transformed and only its cells are
exponentiated (`cells(values)`).  `convergence_trace` is the one loop
that draws replicas this way and reduces them to region masses; the
estimators' dissipation, scale invariance and degeneracy ensembles all
come from it.

On top of the d=1 measure sits the time-changed Brownian path
X(t) = B(m[0,t]).  The dissipation variables eps_l of the d=3 measure are
defined once, in `estimators.run_dissipation`: <eps> m(B(0,l)) divided by
the ball's discrete volume, which keeps E eps_l = <eps> exactly; this
module only writes them (`write_dissipation_csv`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .field import (FieldSample, GridSpec, SpectralPlan, _PROVENANCE,
                    _philox, read_grid_file, write_grid_file)
from .report import write_table

__all__ = [
    "ChaosMeasure",
    "Box",
    "Ball",
    "exponentiate",
    "region_mass",
    "region_volume",
    "TraceResult",
    "convergence_trace",
    "mrw_path",
    "quadratic_variation",
    "write_measure",
    "read_measure",
    "write_mrw_csv",
    "write_dissipation_csv",
]


@dataclass(frozen=True)
class ChaosMeasure:
    """Cell masses of m_eps over a grid, tagged with its provenance."""

    grid: GridSpec
    epsilon: float
    cell_masses: np.ndarray
    seed: int
    replica: int
    stage: int
    ladder_digest: str
    variance_used: float

    def __post_init__(self):
        self.cell_masses.setflags(write=False)


def _cell_masses(values, variance, cell_volume):
    """m_eps(cell) = exp(X(x_cell) - v/2) * cell_volume, in one array."""
    t = values - variance / 2.0
    np.exp(t, out=t)
    t *= cell_volume
    return t


def exponentiate(sample: FieldSample) -> ChaosMeasure:
    """The measure of a sample, normalized by the exact variance v carried
    by the sample; deterministic given the sample.  A windowed sample has
    no whole-grid measure: `convergence_trace` reduces its region's cells."""
    if sample.window is not None:
        raise ValidationError("a windowed sample covers only part of its "
                              "grid and has no whole-grid measure")
    masses = _cell_masses(sample.values, sample.variance,
                          sample.grid.cell_volume)
    return ChaosMeasure(grid=sample.grid, epsilon=sample.epsilon,
                        cell_masses=masses, seed=sample.seed,
                        replica=sample.replica, stage=sample.stage,
                        ladder_digest=sample.ladder_digest,
                        variance_used=sample.variance)


# ----------------------------------------------------------------------
# regions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi) or not np.all(np.isfinite(lo + hi)) \
                or any(b <= a for a, b in zip(lo, hi)):
            raise ValidationError("box needs finite bounds, lo < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self):
        return len(self.lo)

    def bounds(self):
        return self.lo, self.hi


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(v) for v in np.atleast_1d(self.center))
        if not (np.all(np.isfinite(center)) and 0 < self.radius < np.inf):
            raise ValidationError("ball needs a finite centre and a finite "
                                  "positive radius")
        object.__setattr__(self, "center", center)

    @property
    def dimension(self):
        return len(self.center)

    def bounds(self):
        return (tuple(c - self.radius for c in self.center),
                tuple(c + self.radius for c in self.center))


def _check_region_inside(grid: GridSpec, region, margin):
    lo, hi = region.bounds()
    if region.dimension != grid.dimension:
        raise ValidationError("region and grid dimensions differ")
    for ax in range(grid.dimension):
        gmin = grid.origin[ax] - grid.step / 2.0
        gmax = grid.origin[ax] + grid.length - grid.step / 2.0
        if lo[ax] < gmin + margin or hi[ax] > gmax - margin:
            raise ValidationError(
                f"region escapes the grid interior on axis {ax} "
                f"(margin {margin:g})")


def _slab(grid: GridSpec, lo, hi):
    """(slices, fractions): per axis, the run of cells that [lo, hi]
    covers and the covered length fraction of each cell
    [x_i - h/2, x_i + h/2) in it."""
    h, cells, fractions = grid.step, [], []
    for ax in range(grid.dimension):
        # only the cells that can touch [lo, hi], with one to spare a side
        a = max(math.floor((lo[ax] - grid.origin[ax]) / h) - 1, 0)
        z = min(math.ceil((hi[ax] - grid.origin[ax]) / h) + 2, grid.n)
        x = grid.origin[ax] + h * np.arange(a, z)
        cover = (np.minimum(x + h / 2.0, hi[ax])
                 - np.maximum(x - h / 2.0, lo[ax]))
        w = np.clip(cover / h, 0.0, 1.0)
        nz = np.flatnonzero(w > 0)
        cells.append(slice(a + int(nz[0]), a + int(nz[-1]) + 1))
        fractions.append(w[nz[0]:nz[-1] + 1])
    return tuple(cells), tuple(fractions)


_SUBDIV = 3  # per-axis subsampling of boundary cells of a ball
_CHUNK = 4096  # boundary cells whose subsamples are evaluated at once


def _ball_weights(grid: GridSpec, ball: Ball):
    """(slab, flat index, weights) for the covered-volume fractions: the
    ball's bounding slab, which is the only part scanned (no cell outside
    it is covered), and the flat index, within it, of the cells wholly
    inside, then of the boundary cells, each in flat order.  A boundary
    cell's 3^d subsample distances add the per-axis squares in axis order,
    broadcast over the subsamples of every axis, _CHUNK cells at a time."""
    d = grid.dimension
    h = grid.step
    slab, _ = _slab(grid, *ball.bounds())
    axes = [grid.axis_coordinates(ax)[slab[ax]] - ball.center[ax]
            for ax in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    dist2 = sum(m * m for m in mesh)
    half_diag = h * np.sqrt(d) / 2.0
    # a cell lies wholly inside only when the ball can hold its diagonal
    inside = (ball.radius >= half_diag) \
        & (dist2 <= (ball.radius - half_diag) ** 2)
    boundary = np.flatnonzero((dist2 < (ball.radius + half_diag) ** 2)
                              & ~inside)
    sub = ((np.arange(_SUBDIV) + 0.5) / _SUBDIV - 0.5) * h
    frac = np.empty(boundary.size)
    for a in range(0, boundary.size, _CHUNK):
        coords = np.unravel_index(boundary[a:a + _CHUNK], dist2.shape)
        sub2 = 0.0             # (cells, subsample of axis 0, ..., of d-1)
        for ax in range(d):
            x = axes[ax][coords[ax]][:, None] + sub   # (cells, subsample)
            sub2 = sub2 + (x * x).reshape((-1,) + (1,) * ax + (_SUBDIV,)
                                          + (1,) * (d - 1 - ax))
        frac[a:a + _CHUNK] = np.mean((sub2 <= ball.radius ** 2).reshape(
            len(coords[0]), _SUBDIV ** d), axis=1)
    keep = frac > 0
    local = np.concatenate([np.flatnonzero(inside), boundary[keep]])
    weights = np.concatenate([np.ones(np.count_nonzero(inside)), frac[keep]])
    return slab, local, weights


@dataclass(frozen=True)
class _RegionWeights:
    """Covered volume fractions of the cells a region touches.  `window`
    is one slice(lo, hi) of nodes per axis that bounds those cells (the
    region's bounding slab), the window to draw a sample on
    (`SpectralPlan.sample(..., window=...)`); `local` is None for a Box,
    whose cells are the whole window, and for a Ball the flat index of its
    touched cells within the window (`cells` selects them as one run);
    each vector in `fractions` contracts one leading axis."""

    window: tuple
    local: np.ndarray
    fractions: tuple
    cell_volume: float

    @property
    def volume(self):
        """Sum of covered cell fractions times the cell volume."""
        return float(np.prod([np.sum(w) for w in self.fractions])) \
            * self.cell_volume

    def cells(self, values):
        """The region's cells of `values`, an array over the window: all
        of it for a Box, a Ball's touched cells as one flat run."""
        return values if self.local is None else \
            values.reshape(-1)[self.local]

    def mass(self, cells):
        """Region mass from the masses of the selected cells,
        `cells(masses[window])`, contracted over a contiguous copy so
        that every caller rounds alike; the contractions run without
        BLAS, so no mass depends on its thread count."""
        vals = np.ascontiguousarray(cells)
        for w in self.fractions:
            vals = np.einsum("i...,i->...", vals, w)
        return float(vals)


def _tile_masses(masses, lo, k, w):
    """Masses of the k^d cubes of w^d whole cells that tile
    masses[lo:lo + k w, ...] along every axis, in row-major tile order."""
    d = masses.ndim
    tiles = masses[(slice(lo, lo + k * w),) * d].reshape((k, w) * d)
    return tiles.sum(axis=tuple(range(1, 2 * d, 2)))


def _region_weights(grid: GridSpec, region, margin) -> _RegionWeights:
    """Check that a Box or Ball stays inside the grid interior by `margin`
    and build its weights."""
    if not isinstance(region, (Box, Ball)):
        raise ValidationError("region must be a Box or a Ball")
    _check_region_inside(grid, region, margin)
    if isinstance(region, Ball):
        slab, local, w = _ball_weights(grid, region)
        return _RegionWeights(slab, local, (w,), grid.cell_volume)
    slab, fractions = _slab(grid, region.lo, region.hi)
    return _RegionWeights(slab, None, fractions, grid.cell_volume)


def region_volume(grid: GridSpec, region):
    """Discrete volume of a region: sum of covered cell fractions times
    the cell volume (the exact normalizer of the mean-measure law)."""
    return _region_weights(grid, region, 0.0).volume


def region_mass(measure: ChaosMeasure, region, margin=None):
    """Mass of a box or ball; boundary cells weighted by covered volume
    fraction.  The region must stay inside the grid interior by at least
    one mollification width (override with `margin`)."""
    margin = measure.epsilon if margin is None else margin
    weights = _region_weights(measure.grid, region, margin)
    return weights.mass(weights.cells(measure.cell_masses[weights.window]))


# ----------------------------------------------------------------------
# convergence along the ladder
# ----------------------------------------------------------------------

@dataclass
class TraceResult:
    """Region masses of a convergence trace, and the region's discrete
    volume (its covered cell fractions times the cell volume)."""

    masses: np.ndarray        # (replica, stage)
    volume: float


def convergence_trace(plan: SpectralPlan, region, seed, n_replicas):
    """Per-replica region mass at every ladder stage, each replica drawn
    at stage 0 on the region's window and refined one shell at a time.
    This is the one loop from replicas to the masses of one region: a
    single-stage plan gives one mass per replica (`run_dissipation`, the
    scale-invariance box masses).  Non-convergence is data, not an
    error."""
    lad, grid = plan.ladder, plan.grid
    masses = np.empty((n_replicas, lad.n_stages))
    weights = _region_weights(grid, region, 0.0)
    cell_volume = grid.cell_volume
    for rep in range(n_replicas):
        sample = plan.sample(seed, rep, stage=0, window=weights.window)
        for k in range(lad.n_stages):
            if k:
                sample = plan.refine(sample)
            masses[rep, k] = weights.mass(_cell_masses(
                weights.cells(sample.values), sample.variance, cell_volume))
        del sample   # let it go before the next replica is drawn
    return TraceResult(masses=masses, volume=weights.volume)


# ----------------------------------------------------------------------
# multifractal random walk
# ----------------------------------------------------------------------

def mrw_path(measure: ChaosMeasure, times, seed):
    """X(t_i) = B_(m[0, t_i]) for a d=1 measure and an independent
    Brownian stream: increments are centered Gaussians with variance
    m(t_(i-1), t_i], drawn from a stream keyed by (seed, replica).  The
    times must be non-empty, increasing, positive and inside the grid."""
    if measure.grid.dimension != 1:
        raise ValidationError("the random walk is built on a d=1 measure")
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0)
            or times[0] <= 0):
        raise ValidationError("times must be increasing and positive")
    _check_region_inside(measure.grid, Box((0.0,), (float(times[-1]),)),
                         measure.epsilon)
    cum = _cumulative_mass(measure, np.concatenate([[0.0], times]))
    dm = np.diff(cum)
    rng = _philox(seed, measure.replica, 1 << 20)
    increments = rng.standard_normal(len(dm)) * np.sqrt(dm)
    return np.cumsum(increments)


def _cumulative_mass(measure: ChaosMeasure, positions):
    """m[0, p] for each position, linear in p within a cell: the cumulative
    cell masses at the n + 1 cell edges, interpolated (clamped outside)."""
    grid, n = measure.grid, measure.grid.n
    edges = np.empty(n + 1)
    edges[:n] = grid.axis_coordinates(0)
    edges[:n] -= grid.step / 2.0
    edges[n] = edges[n - 1] + grid.step
    cum = np.zeros(n + 1)
    np.cumsum(measure.cell_masses, out=cum[1:])
    return np.interp(positions, edges, cum) - np.interp(0.0, edges, cum)


def quadratic_variation(path, every=1):
    """Realized quadratic variation of a sampled path at a partition that
    keeps every `every`-th point."""
    x = np.asarray(path, dtype=float)[::every]
    inc = np.diff(x, prepend=0.0)
    return float(np.sum(inc * inc))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def write_measure(path, measure: ChaosMeasure):
    write_grid_file(path, measure.grid, measure.cell_masses, {
        "kind": "measure", "variance_used": measure.variance_used,
        **{k: getattr(measure, k) for k in _PROVENANCE}})


def read_measure(path):
    header, grid, values = read_grid_file(path)
    if header.get("kind") != "measure":
        raise ValidationError("grid file does not hold a measure")
    return ChaosMeasure(grid=grid, cell_masses=values,
                        variance_used=header["variance_used"],
                        **{k: header[k] for k in _PROVENANCE})


def write_mrw_csv(path, times, paths):
    """Columns t, X (one block per replica, replica index first)."""
    write_table(path, ["replica", "t", "X"],
                [(rep, t, v) for rep, x in enumerate(paths)
                 for t, v in zip(times, x)])


def write_dissipation_csv(path, samples, mean_eps):
    """Columns l, replica, eps_l, mean_eps for `run_dissipation`'s samples
    {l: eps_l per replica}, radii in the dict's order; every ball is
    centred at the origin."""
    write_table(path, ["l", "replica", "eps_l", "mean_eps"],
                [(l, rep, v, mean_eps) for l, values in samples.items()
                 for rep, v in enumerate(values)])
