"""The multiplicative chaos measure and its two applied derivatives.

A FieldSample X with exact lattice variance v becomes the measure with
cell masses exp(X - v/2) * cell_volume (midpoint rule, `_cell_masses`).
Because v is the exact variance of the synthesized field, the ensemble
mean of every region mass equals its discrete volume exactly, and region
masses along the shell ladder form a martingale.

Regions are boxes or balls; boundary cells enter with their covered
volume fraction (exact per-axis overlap for boxes, 3^d subsampling for
balls).  Every region mass in gmclab goes through one pair:
`_region_weights` checks a region against a grid and builds its weights
once, and `_RegionWeights.mass` reduces cell masses, or the covered cells
of a FieldSample, with them.

On top of the d=1 measure sits the time-changed Brownian path
X(t) = B(m[0,t]); on the d=3 measure sit the normalized ball masses
eps_l = 3 <eps> / (4 pi l^3) * m(B(x,l)).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .field import FieldSample, GridSpec, SpectralPlan, read_grid_file, write_grid_file

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
    "DissipationSample",
    "dissipation_samples",
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

    @property
    def total_mass(self):
        return float(np.sum(self.cell_masses))


def _cell_masses(values, variance, cell_volume):
    """m_eps(cell) = exp(X(x_cell) - v/2) * cell_volume."""
    return np.exp(values - variance / 2.0) * cell_volume


def exponentiate(sample: FieldSample) -> ChaosMeasure:
    """The measure of a sample, normalized by the exact variance v carried
    by the sample; deterministic given the sample."""
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
        if len(lo) != len(hi) or any(b <= a for a, b in zip(lo, hi)):
            raise ValidationError("box needs lo < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self):
        return len(self.lo)

    def bounds(self):
        return self.lo, self.hi

    def volume(self):
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(v) for v in np.atleast_1d(self.center))
        if not (self.radius > 0):
            raise ValidationError("ball radius must be positive")
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


_SUBDIV = 3  # per-axis subsampling of boundary cells of a ball


def _ball_weights(grid: GridSpec, ball: Ball):
    """(cell index arrays, weights) for the covered-volume fractions."""
    d = grid.dimension
    h = grid.step
    axes = [grid.axis_coordinates(ax) - ball.center[ax] for ax in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    dist2 = sum(m * m for m in mesh)
    half_diag = h * np.sqrt(d) / 2.0
    inside = dist2 <= (ball.radius - half_diag) ** 2
    maybe = (dist2 < (ball.radius + half_diag) ** 2) & ~inside
    idx_in = np.flatnonzero(inside)
    idx_b = np.flatnonzero(maybe)
    coords = np.unravel_index(idx_b, grid.shape)
    centers = np.stack([axes[ax][coords[ax]] for ax in range(d)], axis=-1)
    offs = (np.arange(_SUBDIV) + 0.5) / _SUBDIV - 0.5
    sub = np.stack(np.meshgrid(*([offs] * d), indexing="ij"),
                   axis=-1).reshape(-1, d) * h
    pts = centers[:, None, :] + sub[None, :, :]
    frac = np.mean(np.sum(pts * pts, axis=-1) <= ball.radius ** 2, axis=1)
    keep = frac > 0
    indices = np.concatenate([idx_in, idx_b[keep]])
    weights = np.concatenate([np.ones(len(idx_in)), frac[keep]])
    return np.unravel_index(indices, grid.shape), weights


@dataclass(frozen=True)
class _RegionWeights:
    """Covered volume fractions of the cells a region touches: `cells`
    selects a Box's bounding slab or a Ball's touched cells (as one flat
    run), and each vector in `fractions` contracts one leading axis."""

    cells: tuple
    fractions: tuple
    cell_volume: float

    @property
    def volume(self):
        """Sum of covered cell fractions times the cell volume."""
        return float(np.prod([np.sum(w) for w in self.fractions])) \
            * self.cell_volume

    def mass(self, source):
        """Region mass from an array of cell masses, or from a FieldSample,
        of which only the selected cells are exponentiated."""
        if isinstance(source, FieldSample):
            vals = _cell_masses(source.values[self.cells], source.variance,
                                self.cell_volume)
        else:
            vals = source[self.cells]
        for w in self.fractions:
            vals = np.tensordot(vals, w, axes=([0], [0]))
        return float(vals)


def _region_weights(grid: GridSpec, region, margin) -> _RegionWeights:
    """Check that a Box or Ball stays inside the grid interior by `margin`
    and build its weights."""
    if not isinstance(region, (Box, Ball)):
        raise ValidationError("region must be a Box or a Ball")
    _check_region_inside(grid, region, margin)
    if isinstance(region, Ball):
        cells, w = _ball_weights(grid, region)
        return _RegionWeights(cells, (w,), grid.cell_volume)
    # a Box: covered length fraction of every cell [x_i - h/2, x_i + h/2)
    # along each axis, cut to the cells it touches
    h, cells, fractions = grid.step, [], []
    for ax in range(grid.dimension):
        x = grid.axis_coordinates(ax)
        cover = (np.minimum(x + h / 2.0, region.hi[ax])
                 - np.maximum(x - h / 2.0, region.lo[ax]))
        w = np.clip(cover / h, 0.0, 1.0)
        nz = np.flatnonzero(w > 0)
        cells.append(slice(nz[0], nz[-1] + 1))
        fractions.append(w[nz[0]:nz[-1] + 1])
    return _RegionWeights(tuple(cells), tuple(fractions), grid.cell_volume)


def region_volume(grid: GridSpec, region):
    """Discrete volume of a region: sum of covered cell fractions times
    the cell volume (the exact normalizer of the mean-measure law)."""
    return _region_weights(grid, region, 0.0).volume


def region_mass(measure: ChaosMeasure, region, margin=None):
    """Mass of a box or ball; boundary cells weighted by covered volume
    fraction.  The region must stay inside the grid interior by at least
    one mollification width (override with `margin`)."""
    margin = measure.epsilon if margin is None else margin
    return _region_weights(measure.grid, region, margin).mass(
        measure.cell_masses)


# ----------------------------------------------------------------------
# convergence along the ladder
# ----------------------------------------------------------------------

@dataclass
class TraceResult:
    epsilons: tuple
    masses: np.ndarray        # (replica, stage)
    median: np.ndarray
    cauchy_profile: np.ndarray  # successive relative changes of the median
    plateau: bool


def convergence_trace(plan: SpectralPlan, region, seed, n_replicas,
                      rel_tol=0.05):
    """Per-replica region mass at every ladder stage plus a plateau
    diagnostic: plateau when the median's relative change stays below
    rel_tol over the last two successive shells.  Non-convergence is data,
    not an error."""
    lad, grid = plan.ladder, plan.grid
    n_stages = lad.n_stages
    masses = np.empty((n_replicas, n_stages))
    weights = _region_weights(grid, region, 0.0)
    for rep in range(n_replicas):
        sample = plan.sample(seed, rep, stage=0)
        masses[rep, 0] = weights.mass(sample)
        for k in range(1, n_stages):
            sample = plan.refine(sample)
            masses[rep, k] = weights.mass(sample)
    med = np.median(masses, axis=0)
    profile = np.abs(np.diff(med) / np.maximum(med[:-1], 1e-300))
    plateau = bool(n_stages >= 3 and np.all(profile[-2:] < rel_tol))
    return TraceResult(epsilons=lad.epsilons, masses=masses, median=med,
                       cauchy_profile=profile, plateau=plateau)


# ----------------------------------------------------------------------
# multifractal random walk
# ----------------------------------------------------------------------

def mrw_path(measure: ChaosMeasure, times, seed):
    """X(t_i) = B_(m[0, t_i]) for a d=1 measure and an independent
    Brownian stream: increments are centered Gaussians with variance
    m(t_(i-1), t_i], drawn from a stream keyed by (seed, replica)."""
    if measure.grid.dimension != 1:
        raise ValidationError("the random walk is built on a d=1 measure")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0) or times[0] <= 0:
        raise ValidationError("times must be increasing and positive")
    grid = measure.grid
    _check_region_inside(grid, Box((0.0,), (float(times[-1]),)),
                         measure.epsilon)
    edges = np.concatenate([[0.0], times])
    cum = _cumulative_mass(measure, edges)
    dm = np.diff(cum)
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=(int(measure.replica), 1 << 20))
    rng = np.random.Generator(np.random.Philox(seq))
    increments = rng.standard_normal(len(dm)) * np.sqrt(dm)
    return np.cumsum(increments)


def _cumulative_mass(measure: ChaosMeasure, positions):
    """m[0, p] for each position via cell cumulative sums plus an exact
    fractional end cell."""
    grid = measure.grid
    h = grid.step
    left_edges = grid.axis_coordinates(0) - h / 2.0
    cells = measure.cell_masses
    cum = np.concatenate([[0.0], np.cumsum(cells)])

    def mass_below(p):
        j = np.clip(np.searchsorted(left_edges, p, side="right") - 1,
                    0, grid.n - 1)
        return cum[j] + np.clip((p - left_edges[j]) / h, 0.0, 1.0) * cells[j]

    return mass_below(np.asarray(positions, dtype=float)) - mass_below(0.0)


def quadratic_variation(path, every=1):
    """Realized quadratic variation of a sampled path at a partition that
    keeps every `every`-th point."""
    x = np.asarray(path, dtype=float)[::every]
    inc = np.diff(x, prepend=0.0)
    return float(np.sum(inc * inc))


# ----------------------------------------------------------------------
# Kolmogorov-Obukhov dissipation variables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationSample:
    center: tuple
    radius: float
    mean_dissipation: float
    value: float


def dissipation_samples(measure: ChaosMeasure, centers, radius, mean_eps):
    """eps_l = 3 <eps> / (4 pi l^3) * m(B(x, l)) for each center; the
    measure must be three-dimensional and every ball must stay inside the
    safe interior."""
    if measure.grid.dimension != 3:
        raise ValidationError("dissipation variables live on a d=3 measure")
    out = []
    norm = 3.0 * mean_eps / (4.0 * np.pi * radius ** 3)
    for c in np.atleast_2d(np.asarray(centers, dtype=float)):
        ball = Ball(tuple(c), radius)
        mass = region_mass(measure, ball)
        out.append(DissipationSample(center=tuple(c), radius=radius,
                                     mean_dissipation=mean_eps,
                                     value=norm * mass))
    return out


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def write_measure(path, measure: ChaosMeasure):
    write_grid_file(path, measure.grid, measure.cell_masses, {
        "kind": "measure", "epsilon": measure.epsilon,
        "variance_used": measure.variance_used, "seed": measure.seed,
        "replica": measure.replica, "stage": measure.stage,
        "ladder_digest": measure.ladder_digest})


def read_measure(path):
    header, grid, values = read_grid_file(path)
    if header.get("kind") != "measure":
        raise ValidationError("grid file does not hold a measure")
    return ChaosMeasure(grid=grid, epsilon=header["epsilon"],
                        cell_masses=values, seed=header["seed"],
                        replica=header["replica"], stage=header["stage"],
                        ladder_digest=header["ladder_digest"],
                        variance_used=header["variance_used"])


def write_mrw_csv(path, times, paths):
    """Columns t, X (one block per replica, replica index first)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica", "t", "X"])
        for rep, x in enumerate(paths):
            for t, v in zip(times, x):
                writer.writerow([rep, repr(float(t)), repr(float(v))])


def write_dissipation_csv(path, samples):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "l", "eps_l"])
        for s in samples:
            writer.writerow([repr(v) for v in (*s.center, s.radius, s.value)])
