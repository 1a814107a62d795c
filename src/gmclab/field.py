"""Synthesis of the mollified log-correlated Gaussian field on a torus.

The field at mollification scale eps_k is assembled from independent
spectral shells

    w_base(xi) = fhat(xi) * theta_hat(eps_0 xi)
    w_k(xi)    = fhat(xi) * (theta_hat(eps_k xi) - theta_hat(eps_(k-1) xi))

which are nonnegative because theta_hat decreases, and telescope to
fhat * theta_hat(eps_k .).  Refining eps_k -> eps_(k+1) adds one
independent shell, so region masses of the exponentiated measure form a
martingale along the ladder.

Each shell is drawn on the discrete frequency lattice xi_j = j / L with
one real standard normal per mode and the phase (cos - sin); the resulting
grid covariance is exactly

    C(x - y) = sum_j w(|xi_j|) / L^d * cos(2 pi xi_j . (x - y)),

the circulant embedding of the mollified covariance up to periodization.
The exact lattice variance sum_j w_j / L^d is carried on every sample and
is the normalizer that makes the measure mean exactly Lebesgue.

The weights are radial, so a plan evaluates the ladder once per distinct
lattice radius: on |j| / L in d = 1, and on sqrt(k2) / L for every integer
k2 = sum_i j_i^2 up to d (n/2)^2 in d >= 2.  All shells share one
evaluation of fhat there (`ShellLadder.weights`).  In d = 1 that table,
on the half line |j| = 0..n/2, is the amplitudes itself.  In d >= 2 the
amplitudes are gathered from it onto the half-lattice, the leading d - 1
axes folded to min(j, n - j) and the last axis whole, one axis-0 row at a
time and only on the rows the band reaches.  Each shell's normals are
multiplied through mirrored blocks (`_slabs`): lattice entries j read the
half-lattice at min(j, n - j), on the whole line in d = 1 and on the
leading axes in d >= 2 (`_mirror_blocks`).  The sum
sum_j b_j (cos - sin)(2 pi j . x / n) of a real array b is a Hartley
transform, computed from one real forward FFT F of b (the values of
numpy.fft's `rfftn` with the c2c on axis 0 first, to the bit) as Re F +
Im F on the stored half-spectrum and Re F - Im F on its mirror image
(Hermitian symmetry).
The transform is linear, so a sample at stage K adds its shells'
coefficients b_k = amp_k g_k in stage order and transforms the sum once;
`refine` continues that sum.  `SYNTHESIS` names this algorithm in every
field file and `simulate` manifest.

The band: a plan keeps the lattice radii up to the largest, K, whose
summed (finest-stage) weight exceeds 1e-32 of the largest, an amplitude
of 1e-16 of the largest, which float64 cannot resolve against it.  Every
shell's weight beyond K is 0, and the lattice variance is the kept weight;
the dropped variance is recorded on the plan.  In d >= 2 (d = 1 is one
line) a plan holds amplitudes only on the axis-0 rows j0^2 <= K, the
normals are multiplied only on the lines that can hold a mode with
k2 <= K, and the transform runs only on those lines, into a buffer of
the band's axis-0 rows.

The sum is built and transformed in slabs of rows along axis 0
(`_slabs`): each shell draws a slab's normals from its own stream, and
the slab goes straight into the transform's first pass, so in d >= 2 no
whole-lattice array of normals or coefficients exists unless a refine
can follow, which keeps the sum.  A region reduction reads only the nodes
of its region's bounding slab, so a sample can be drawn on such a window
(one slice of nodes per axis): the transform keeps only the columns and
rows that the window and its mirror image read (`_hartley`; the whole
grid is the window that reads every row), and only the lines inside the
band; its axis-0 pass runs a few columns at a time through one n-row
scratch.  The windowed values equal the whole grid's to the bit.

Randomness: counter-based Philox streams keyed by (seed, replica, shell),
so replicas and shells are reproducible and order-independent.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GateError, ValidationError
from .kernels import KernelSpec, MollifierSpec, kernel_hat, spec_to_json
from .spectral import sphere_area

__all__ = [
    "SYNTHESIS",
    "GridSpec",
    "ShellLadder",
    "build_ladder",
    "geometric_schedule",
    "SpectralPlan",
    "FieldSample",
    "write_grid_file",
    "read_grid_file",
    "write_field",
    "read_field",
]

SYNTHESIS = "rfftn-hartley-4"

# a plan keeps the lattice radii whose weight exceeds this fraction of its
# largest: the amplitude threshold 1e-16, below float64's resolution
_BAND_FLOOR = 1e-32


def default_workers():
    """The FFT worker count, always 1: `_hartley` runs numpy.fft, which
    has one.  Kept only for the benchmark's environment record, which
    reads it."""
    return 1


def _philox(seed, *key):
    """The counter-based Philox generator keyed by (seed, *key)."""
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid centred on 0: n points per side (power of two) and
    physical side length `length`.  Node i sits at origin + i*step, with
    origin = -length/2 on every axis, and is the centre of the cell
    [node - step/2, node + step/2)."""

    dimension: int
    n: int
    length: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValidationError("grid dimension must be 1, 2 or 3")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValidationError("points per side must be a power of two >= 4")
        if not 0 < self.length < np.inf:
            raise ValidationError("side length must be finite and positive")

    @property
    def origin(self):
        return (-self.length / 2.0,) * self.dimension

    @property
    def step(self):
        return self.length / self.n

    @property
    def shape(self):
        return (self.n,) * self.dimension

    @property
    def cell_volume(self):
        return self.step ** self.dimension

    @property
    def nyquist(self):
        return self.n / (2.0 * self.length)

    def axis_coordinates(self, axis=0):
        """Node coordinates along one axis."""
        return self.origin[axis] + self.step * np.arange(self.n)

    def to_json(self):
        return {"dimension": self.dimension, "n": self.n,
                "length": self.length, "origin": list(self.origin)}

    @staticmethod
    def from_json(doc):
        grid = GridSpec(dimension=int(doc["dimension"]), n=int(doc["n"]),
                        length=float(doc["length"]))
        if doc.get("origin") != list(grid.origin):
            raise ValidationError(f"grid origin {doc.get('origin')!r} is not "
                                  f"the centred {list(grid.origin)!r}")
        return grid


def geometric_schedule(eps0, n_shells):
    """Dyadic ladder eps_k = eps0 * 2^-k, k = 0..n_shells; `build_ladder`
    takes any other decreasing schedule as it is."""
    if not eps0 > 0:
        raise ValidationError("need eps0 > 0")
    return tuple(eps0 * 2.0 ** (-k) for k in range(n_shells + 1))


class ShellLadder:
    """Decreasing scale sequence with per-shell radial spectral weights."""

    def __init__(self, kernel: KernelSpec, mollifier: MollifierSpec, epsilons):
        epsilons = tuple(float(e) for e in epsilons)
        if len(epsilons) < 1 or not all(0 < e < np.inf for e in epsilons):
            raise ValidationError("epsilon schedule must be finite and positive")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise ValidationError("epsilon schedule must be strictly decreasing")
        if mollifier.dimension != kernel.dimension:
            raise ValidationError("kernel and mollifier dimensions differ")
        self.kernel = kernel
        self.mollifier = mollifier
        self.epsilons = epsilons
        self._fhat = kernel_hat(kernel)

    @property
    def n_stages(self):
        """Stages 0..K; stage k has mollification scale epsilons[k]."""
        return len(self.epsilons)

    def weights(self, xi, fh=None):
        """Every shell's radial weight on |xi| values, in stage order, from
        one evaluation of fhat (or `fh`, fhat on xi, when the caller has
        it) and one of theta_hat(eps_k .) per scale; only the previous
        scale's theta_hat is held between shells."""
        xi = np.asarray(xi, dtype=float)
        if fh is None:
            fh = self._fhat(xi)
        prev = None
        for eps in self.epsilons:
            th = self.mollifier.theta_hat(eps * xi)
            yield fh * th if prev is None else fh * (th - prev)
            prev = th

    def telescoped(self, stage, xi):
        """Total density after `stage` refinements: fhat * theta_hat(eps_k .),
        fhat evaluated only where theta_hat is not 0 (the product is 0
        there already)."""
        xi = np.asarray(xi, dtype=float)
        th = self.mollifier.theta_hat(self.epsilons[stage] * xi)
        live = th > 0.0
        th[live] *= self._fhat(xi[live])
        return th

    def to_json(self):
        doc = spec_to_json(self.kernel, self.mollifier)
        doc["epsilons"] = list(self.epsilons)
        return doc

    @functools.cached_property
    def digest(self):
        """Hash of `to_json`, worked out once: every sample and refine
        reads it, and a ladder does not change once built."""
        payload = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def build_ladder(kernel: KernelSpec, mollifier: MollifierSpec, epsilons):
    """Validated ladder; rejects schedules whose shell weights go negative
    beyond -1e-12 (signals a non-monotone theta_hat or a negative fhat)."""
    ladder = ShellLadder(kernel, mollifier, epsilons)
    probe = np.geomspace(1e-3 / kernel.scale, 4.0 / epsilons[-1], 512)
    fh = ladder._fhat(probe)      # for the finest density and every shell
    finest = fh * mollifier.theta_hat(ladder.epsilons[-1] * probe)
    scale0 = float(np.max(np.abs(finest))) + 1e-300
    for k, w in enumerate(ladder.weights(probe, fh)):
        if np.min(w) < -1e-12 * scale0:
            raise GateError("negative shell weight", stage=k,
                            min_weight=float(np.min(w)))
    return ladder


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSample:
    """One realization of X_eps on a grid, with its shell history.

    `values` holds every node, or only the nodes of `window` (one
    slice(lo, hi) of nodes per axis) for a sample drawn for a region
    reduction; a windowed sample cannot be exponentiated or written.
    `_spectrum` is the running sum of the shells' spectral coefficients
    on the whole lattice, kept only while `SpectralPlan.refine` can add
    another shell; it is never written to a file."""

    grid: GridSpec
    epsilon: float
    values: np.ndarray
    variance: float           # exact lattice variance of the synthesis
    seed: int
    replica: int
    stage: int
    ladder_digest: str
    window: tuple = None
    _spectrum: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        if self._spectrum is not None:
            self._spectrum.setflags(write=False)


def _fold(n):
    """Lattice modes per folded index m = 0..n/2 of one axis: 1 at m = 0
    and m = n/2, else 2 (j and n - j)."""
    m = np.arange(n // 2 + 1)
    return np.where((m == 0) | (m == n // 2), 1, 2)


def _half_lattice(grid: GridSpec):
    """(index, fold, radii): the table `radii` of lattice radii |xi| and
    how the half-lattice reads it.  In d = 1 the table is by |j| (n/2 + 1
    radii, where a k2 table would need (n/2)^2 entries) and the
    half-lattice is the half line m = min(j, n - j) = 0..n/2, the table's
    own entries: `index` is m and `fold` _fold(n), the lattice modes each
    entry stands for.  In d >= 2 the table
    is by the integer k2 = sum_i j_i^2 (d (n/2)^2 + 1 radii, not all of
    them on the lattice) and the half-lattice folds the leading d - 1 axes
    to m = min(j, n - j) in 0..n/2 by the lattice's mirror symmetry, the
    last axis whole; `index` and `fold` describe one of its axis-0 rows,
    shape (n/2+1,)*(d-2) + (n,): row m0 reads the table at m0^2 + index,
    and each of its modes stands for _fold(n)[m0] * fold lattice modes
    (`fold` broadcastable to `index`)."""
    d, h = grid.dimension, grid.n // 2
    m = np.arange(h + 1)
    if d == 1:
        return m, _fold(grid.n), m / grid.length
    j = np.fft.ifftshift(np.arange(-h, h))
    fold = functools.reduce(np.multiply.outer, [_fold(grid.n)] * (d - 2),
                            np.array(1))
    index = sum(np.meshgrid(*([m * m] * (d - 2)), j * j, indexing="ij",
                            sparse=True))
    return (index, fold[..., None],
            np.sqrt(np.arange(d * h * h + 1)) / grid.length)


def _mirror_blocks(n, d, lo=0, hi=None, *, band):
    """(dst, src) slice pairs that expand a half-lattice array onto the
    lattice rows lo..hi-1 (default every row) along axis 0 of the n^d
    lattice, dst counting rows from lo: along each leading axis, lattice
    rows 0..n/2 read rows 0..n/2 and rows n/2+1..n-1 read rows n/2-1..1
    (m = min(j, n - j)).  Only the lines that can hold a mode with
    k2 = sum_i m_i^2 <= band are covered: the axis-0 rows with
    m^2 <= band and, in d = 3, for each run of them, the axis-1 columns
    with m^2 <= band - m0^2, m0 the run's row nearest 0 (the last axis is
    whole).  These are the lines `_hartley` transforms.  Every row range
    gives at most 2^(d-1) pairs; in d = 1 one pair of empty tuples."""
    if d == 1:
        return [((), ())]
    h, hi = n // 2, n if hi is None else hi
    top = min(math.isqrt(band), h)
    rows = []                                    # (dst, src, m0 nearest 0)
    a, z = lo, min(hi, top + 1)                  # rows read where they are
    if a < z:
        rows.append((slice(a - lo, z - lo), slice(a, z), a))
    a, z = max(lo, h + 1, n - top), hi           # rows read at n - j
    if a < z:
        rows.append((slice(a - lo, z - lo), slice(n - a, n - z, -1),
                     n - z + 1))
    return [((dst,) + d_rest, (src,) + s_rest) for dst, src, m0 in rows
            for d_rest, s_rest in _mirror_blocks(
                n, d - 1, band=band - m0 * m0)]


_SLAB_ROWS = 8    # axis-0 rows per slab, axis-1 columns per axis-0 c2c


def _slabs(n, d, band):
    """(rows, blocks) for each slab of the n^d lattice, in order: `rows`
    is a slice of _SLAB_ROWS rows along axis 0 and `blocks` the
    `_mirror_blocks` of its lines that can hold a mode with k2 <= band.
    In d = 1 the one slab is the whole line, and its blocks expand the
    half line onto it: entries 0..n/2 read where they are and entries
    n/2+1..n-1 read at n - j (the line is transformed whole, so every
    entry is multiplied)."""
    if d == 1:
        h = n // 2
        yield slice(0, n), [((slice(0, h + 1),), (slice(0, h + 1),)),
                            ((slice(h + 1, n),), (slice(h - 1, 0, -1),))]
        return
    for lo in range(0, n, _SLAB_ROWS):
        hi = min(n, lo + _SLAB_ROWS)
        yield slice(lo, hi), _mirror_blocks(n, d, lo, hi, band=band)


def _window(grid: GridSpec, window):
    """`window` as one slice(lo, hi) of nodes per axis, or None when it is
    absent or covers the whole grid."""
    if window is None:
        return None
    if len(window) != grid.dimension:
        raise ValidationError("a window needs one node slice per axis")
    out = []
    for s in window:
        if not isinstance(s, slice) or s.step not in (None, 1):
            raise ValidationError("a window's slices must have step 1")
        lo, hi, _ = s.indices(grid.n)
        if lo >= hi:
            raise ValidationError("a window must hold at least one node "
                                  "per axis")
        out.append(slice(lo, hi))
    out = tuple(out)
    return None if out == (slice(0, grid.n),) * grid.dimension else out


def _span(n, parts):
    """slice from the least to the greatest transform index sign * x mod n
    that the nodes x = a..z-1 of each (sign, a, z) in `parts` read; -x mod
    n is monotone on 1..n-1, so nodes a, 1 and z - 1 bound it."""
    ends = [sign * x % n for sign, a, z in parts for x in (a, 1, z - 1)
            if a <= x < z]
    return slice(min(ends), max(ends) + 1)


def _read_blocks(k0, n, start, lo, hi, sign):
    """(dst, src) slice pairs: window nodes x = lo..hi-1 (dst, counted from
    the window's `start`) read the transform at (sign * x mod n), found at
    src, counted from the axis's least kept index k0.  x -> -x mod n keeps
    0 and reverses 1..n-1, so a mirrored node 0 reads on its own."""
    pieces = [(lo, hi)] if sign > 0 or lo > 0 else [(0, 1), (1, hi)]
    pairs = []
    for a, z in pieces:
        if a >= z:
            continue
        p0, p1 = sign * a % n - k0, sign * (z - 1) % n - k0
        step = 1 if p1 >= p0 else -1
        stop = p1 + step
        pairs.append((slice(a - start, z - start),
                      slice(p0, stop if stop >= 0 else None, step)))
    return pairs


@functools.lru_cache(maxsize=256)
def _unfolding(n, bounds):
    """How `_hartley` reads the window with per-axis node bounds (lo, hi)
    of an n^d grid, worked out once per window: (read, blocks).  `read`
    is, per axis, the slice of transform indices kept, from the least to
    the greatest that the window and its mirror image read (so disjoint
    direct and mirrored rows keep the rows between them too); `blocks`
    lists (op, dst, src) with `op` np.add for nodes read at x and
    np.subtract for nodes read at -x mod n."""
    h = n // 2
    lo, hi = bounds[-1]
    # last-axis nodes read at x (direct) and at -x mod n (mirrored)
    parts = [(1, np.add, lo, min(hi, h + 1)),
             (-1, np.subtract, max(lo, h + 1), hi)]
    parts = [p for p in parts if p[2] < p[3]]
    read = [_span(n, [(sign, a, z) for sign, *_ in parts])
            for a, z in bounds[:-1]]
    read.append(_span(n, [(sign, u, v) for sign, _, u, v in parts]))
    blocks = []
    for sign, op, u, v in parts:
        axes = [_read_blocks(r.start, n, a, a, z, sign)
                for r, (a, z) in zip(read, bounds[:-1])]
        axes.append(_read_blocks(read[-1].start, n, lo, u, v, sign))
        for pairs in itertools.product(*axes):
            blocks.append((op, tuple(t for t, _ in pairs),
                           tuple(s for _, s in pairs)))
    return tuple(read), tuple(blocks)


def _hartley(slabs, shape, window=None, *, band):
    """sum_j b_j (cos - sin)(2 pi j . x / n) at the nodes x of `window`
    (one slice(lo, hi) per axis, default every node) of a real float64
    array b of `shape`, n points per axis, read as `slabs`: its
    consecutive row blocks along axis 0, in order.  In d = 1 b is one
    slab, the whole line, and the whole grid's result is written into it;
    in d >= 2 each slab is read once, before the next is asked for, so a
    slab may be a buffer that the next one overwrites.  In d >= 2 b must
    be zero at every mode whose k2 = sum_i j_i^2 (j_i = min(i, n - i))
    exceeds `band` (d (n/2)^2 for the whole lattice), and only the lines of
    `_mirror_blocks(..., band)` are read, so the others may hold anything.

    The transform F holds sum_j b_j (cos - i sin), so the sum is Re F +
    Im F at a node x whose last index m <= n/2 (stored), and Re F - Im F
    at (-x mod n) otherwise, whose last index n - m is stored (F(-x) =
    conj F(x) for real b).  F is computed line by line with numpy.fft: an
    r2c along the last axis, run slab by slab on the lines of
    `_mirror_blocks(..., band)`, each keeping only the columns the
    window reads, into a band buffer that holds only the axis-0 rows with
    j0^2 <= band (those at n - j0 after those at j0), so neither b nor the
    whole r2c output is ever built; then a c2c along each of the axes
    0..d-2 in that order, keeping the rows that the window and its mirror
    image read (every row and every stored column for the whole grid).
    The axis-0 c2c runs through an n-row scratch on at most _SLAB_ROWS
    axis-1 columns at a time, in d = 3 only on the columns j1^2 <= band
    (the others hold only zeros), and its kept rows go back into the band
    buffer when it has room for them.  Lines that hold only zeros are
    left out, their transforms being zeros, so the values equal those
    unfolded from numpy's `rfftn(b)`, to the bit, when it is given the
    leading axes in the order d-2..0 (it runs their c2c last listed
    first).
    """
    d, n = len(shape), shape[-1]
    bounds = tuple((s.start, s.stop) for s in window or (slice(0, n),) * d)
    read, blocks = _unfolding(n, bounds)
    out = None
    if d == 1:
        (out,) = slabs            # the line, and the whole grid's result
        f = np.fft.rfft(out)[read[-1]]
    else:
        top = math.isqrt(band)    # lattice rows beyond it sit `shift` up
        rows = min(n, 2 * top + 1)                # the band's axis-0 rows
        f = np.zeros((rows,) + shape[1:-1]
                     + np.arange(n // 2 + 1)[read[-1]].shape, complex)
        shift, lo = n - rows, 0
        for slab in slabs:
            for dst, _ in _mirror_blocks(n, d, lo, lo + len(slab),
                                         band=band):
                a = lo + dst[0].start
                a -= shift if a > top else 0
                f[(slice(a, a + dst[0].stop - dst[0].start),) + dst[1:]] = \
                    np.fft.rfft(slab[dst], axis=-1)[..., read[-1]]
            lo += len(slab)
        del slab                  # let the last slab go before the c2c
        # in d = 3 only the axis-1 columns with j1^2 <= band hold data
        cols = ([dst for (dst,), _ in _mirror_blocks(n, 2, band=band)]
                if d == 3 else [slice(0, f.shape[1])])
        f = _rows_c2c(f, n, top, read[0], cols)
        if d == 3:
            f = np.fft.fft(f, axis=1, out=f)[:, read[1]]
    re, im = f.real, f.imag
    if out is None or window is not None:
        out = np.empty([z - a for a, z in bounds])
    for op, dst, src in blocks:
        op(re[src], im[src], out=out[dst])
    return out


def _rows_c2c(f, n, top, rows, cols):
    """The c2c along axis 0 of a band buffer `f` (the lattice rows 0..top,
    then those at n - top..n - 1), run on the axis-1 column slices `cols`
    at most _SLAB_ROWS columns at a time through an n-row scratch whose
    other rows are zero; returns the lattice rows `rows` of the result,
    written back into `f` when it has that many rows."""
    span = rows.stop - rows.start
    res = f[:span] if len(f) >= span else np.zeros((span,) + f.shape[1:],
                                                    complex)
    scratch = np.empty((n, _SLAB_ROWS) + f.shape[2:], complex)
    k, gap = top + 1, n - len(f) + top + 1    # scratch rows k..gap-1 are 0
    for c in cols:
        for a in range(c.start, c.stop, _SLAB_ROWS):
            blk = slice(a, min(a + _SLAB_ROWS, c.stop))
            s = scratch[:, :blk.stop - a]
            s[:k] = f[:k, blk]
            s[k:gap] = 0
            s[gap:] = f[k:, blk]
            res[:, blk] = np.fft.fft(s, axis=0, out=s)[rows]
    return res


class SpectralPlan:
    """Precomputed per-shell amplitudes for one (ladder, grid) pair.

    Build one plan per (ladder, grid) pair and draw every replica and
    stage from it with `sample` and `refine`.  The plan evaluates the
    shells' radial weights once per distinct lattice radius (see
    `_half_lattice`), with one evaluation of fhat for all of them, and
    holds the amplitudes sqrt(w / L^d) on the half-lattice: `amps` holds
    one array per stage, folded by the lattice's mirror symmetry.  In
    d = 1 it is the stage's radial table itself, shape (n/2 + 1,), indexed
    by |j|, computed in place.  In d >= 2 it is gathered from the table one
    axis-0 row at a time, the leading axes folded, shape
    (top + 1,) + (n/2+1,)*(d-2) + (n,), with top = min(isqrt(band), n/2):
    the rows beyond hold only zero weight and are not stored.  The
    per-radius mode counts weigh each half-lattice mode by the lattice
    modes it stands for (in d >= 2 one row's counts, moved to each row's
    m0^2), so no lattice-sized index exists.  A shell is then a Philox
    stream of standard normals g and the product g * amp, through the
    mirrored blocks of `_slabs`; `sample`
    adds the shells' products in stage order, one slab of axis-0 rows at
    a time, and runs one real FFT on the sum as the slabs arrive, which
    gives the (cos - sin) sum (see `_coefficients` and `_hartley`).
    A sample that can still be refined keeps that spectral sum, and
    `refine` adds the next shell to it and transforms once more, so a
    refined sample is bit-identical to one drawn at its stage.  A constant
    remainder g = c >= 0 (`KernelSpec` refuses c < 0) is a delta of mass c
    at xi = 0, absent from `kernel_hat`: stage 0 carries it as zero-mode
    weight c L^d.

    `band` is the plan's cut K, in units of the radius table: the largest
    k2 = sum_i j_i^2 (d >= 2) or |j| (d = 1) whose summed clipped weight
    exceeds _BAND_FLOOR of the table's largest (a k2 that no lattice mode
    has only widens the band, as its weight reaches no mode).  Every stage's weight beyond it is
    set to 0 before the amplitudes are gathered, so `amps`,
    `stage_variance` and `discrete_covariance` hold the kept weight, and
    `dropped_variance` is the lattice variance the cut removed.  In d >= 2
    only the lines of a slab that `_hartley` transforms, those that can
    hold a mode with k2 <= K (`_mirror_blocks`), are multiplied.  Every
    shell still draws its normals on the whole lattice, so no normal
    depends on the band.
    """

    def __init__(self, ladder: ShellLadder, grid: GridSpec):
        if grid.dimension != ladder.kernel.dimension:
            raise ValidationError("grid and kernel dimensions differ")
        self.ladder = ladder
        self.grid = grid
        index, fold, radii = _half_lattice(grid)
        modes = np.bincount(index.ravel(),                        # per radius
                            np.broadcast_to(fold, index.shape).ravel(),
                            radii.size).astype(np.int64)
        if grid.dimension > 1:        # one row's counts, moved to each row
            row, modes = modes, np.zeros_like(modes)
            at = np.flatnonzero(row)
            for m0, f0 in enumerate(_fold(grid.n)):
                modes[at + m0 * m0] += f0 * row[at]
        cell = 1.0 / grid.length ** grid.dimension   # spectral cell d xi
        rem = ladder.kernel.remainder
        tables = []                         # clipped radial weight per shell
        spectrum = 0.0                      # and its sum over the shells
        clipped = 0.0
        for k, w in enumerate(ladder.weights(radii)):
            if k == 0 and rem.kind == "constant":
                w[0] += rem.value * grid.length ** grid.dimension  # radius 0
            neg = w < 0
            if np.any(neg):
                clipped += -float(modes[neg] @ w[neg]) * cell
                w = np.where(neg, 0.0, w)
            tables.append(w)
            spectrum = spectrum + w
        heavy = np.flatnonzero(spectrum > _BAND_FLOOR * spectrum.max())
        self.band = int(heavy[-1]) if heavy.size else 0
        self.dropped_variance = float(modes[self.band + 1:]
                                      @ spectrum[self.band + 1:]) * cell
        spectrum[self.band + 1:] = 0.0
        self._spectrum = spectrum           # kept weight, all shells
        self.amps = []
        self.stage_variance = []            # per-shell variance increments
        while tables:                       # each table goes once gathered
            w = tables.pop(0)
            w[self.band + 1:] = 0.0
            self.stage_variance.append(float(modes @ w) * cell)
            w *= cell
            self.amps.append(self._gather(np.sqrt(w, out=w), index))
        trace = self.total_variance + self.dropped_variance
        if clipped > 1e-8 * max(trace, 1e-300):
            raise GateError("embedding weights substantially negative",
                            clipped_mass=clipped, trace=trace)
        self._check_resolution()

    def _gather(self, table, index):
        """A radial `table` read at a `_half_lattice` index: in d = 1 the
        table itself, which is the half line; in d >= 2 on the axis-0 rows
        m0 <= min(isqrt(band), n/2) only (`_mirror_blocks` reads no
        other), row m0 at m0^2 + index, one row at a time."""
        if self.grid.dimension == 1:
            return table
        top = min(math.isqrt(self.band), self.grid.n // 2)
        out = np.empty((top + 1,) + index.shape)
        for m0 in range(top + 1):
            out[m0] = table[index + m0 * m0]
        return out

    def _check_resolution(self):
        """Nyquist must carry the finest shell: the continuum spectral mass
        beyond the axis Nyquist frequency stays below 1e-4 of the
        variance.  Returns that tail mass."""
        lad, grid = self.ladder, self.grid
        d = grid.dimension
        nyq = grid.nyquist
        surf = sphere_area(d)
        s = np.geomspace(nyq, nyq * 64.0, 2048)
        dens = np.maximum(lad.telescoped(lad.n_stages - 1, s), 0.0)
        tail = float(np.trapezoid(surf * s ** (d - 1) * dens, s))
        total = float(self.total_variance) + 1e-300
        if tail > 1e-4 * total:
            raise GateError("grid cannot resolve the ladder's spectral "
                            "support (raise n or stop the ladder earlier)",
                            tail_mass=tail, variance=total, nyquist=nyq)
        return tail

    @property
    def total_variance(self):
        return sum(self.stage_variance)

    def variance_through(self, stage):
        """Exact lattice variance of the field at stage `stage`."""
        return float(sum(self.stage_variance[:stage + 1]))

    def _coefficients(self, seed, replica, shells, base=None, keep=None):
        """The slabs (see `_slabs`) of the sum of the spectral
        coefficients amp_k g_k of `shells`, in stage order, then plus
        `base`, a sample's kept sum.  Each shell draws its normals g_k slab
        by slab from its own Philox stream, and consecutive draws continue
        the stream as one draw on the whole lattice would, so each slab is
        that of the whole-lattice sum, to the bit, on the lines that
        `_hartley` transforms (the `_mirror_blocks` of the band); the other
        lines, which it does not read, are not multiplied.  With `keep`, a
        zeroed lattice array, those lines of the sum are also written
        there.  The slabs share one buffer."""
        n, d = self.grid.n, self.grid.dimension
        gens = [_philox(seed, replica, k) for k in shells]
        amps = [self.amps[k] for k in shells]
        slab = g = None
        for rows, blocks in _slabs(n, d, self.band):
            size = (rows.stop - rows.start,) + self.grid.shape[1:]
            for i, (gen, amp) in enumerate(zip(gens, amps)):
                c = gen.standard_normal(size, out=g if i else slab)
                for dst, src in blocks:
                    c[dst] *= amp[src]
                if i == 0:
                    slab = c
                else:
                    g = c
                    slab += g
            if base is not None:
                slab += base[rows]
            if keep is not None:
                for dst, _ in blocks:
                    keep[rows][dst] = slab[dst]
            yield slab

    def _field_sample(self, seed, replica, stage, window, base=None):
        """The sample at `stage` on `window`, from one transform of the
        spectral sum streamed slab by slab: every shell through `stage`,
        or only shell `stage` added to `base` in a refine.  The sum is
        kept on the sample while a refine can follow."""
        keep = (np.zeros(self.grid.shape)
                if stage + 1 < self.ladder.n_stages else None)
        shells = range(stage + 1) if base is None else (stage,)
        values = _hartley(self._coefficients(seed, replica, shells, base,
                                             keep),
                          self.grid.shape, window, band=self.band)
        return FieldSample(grid=self.grid, epsilon=self.ladder.epsilons[stage],
                           values=values,
                           variance=self.variance_through(stage),
                           seed=seed, replica=replica, stage=stage,
                           ladder_digest=self.ladder.digest, window=window,
                           _spectrum=keep)

    def sample(self, seed, replica=0, stage=None, window=None) -> FieldSample:
        """Field at ladder stage `stage` (default: the finest), at every
        node or only on `window`, one slice(lo, hi) of nodes per axis (a
        region's `_RegionWeights.window`).  The normals are drawn on the
        whole lattice either way, so a windowed sample equals the whole
        grid's sample sliced to the window, to the bit."""
        window = _window(self.grid, window)
        if stage is None:
            stage = self.ladder.n_stages - 1
        if not (0 <= stage < self.ladder.n_stages):
            raise ValidationError("stage outside the ladder")
        return self._field_sample(int(seed), int(replica), stage, window)

    def refine(self, sample: FieldSample) -> FieldSample:
        """One more shell: X_(k+1) = X_k + independent increment, added to
        the sample's spectral sum, so the result is bit-identical to
        `sample` at stage k + 1 on the sample's window."""
        nxt = sample.stage + 1
        if nxt >= self.ladder.n_stages:
            raise ValidationError("shell index exhausted")
        if sample.ladder_digest != self.ladder.digest:
            raise ValidationError("sample was built from a different ladder")
        if sample.grid != self.grid:
            raise ValidationError("sample was drawn on a different grid")
        if sample._spectrum is None:
            raise ValidationError("sample carries no spectral sum (one read "
                                  "from a file cannot be refined)")
        return self._field_sample(sample.seed, sample.replica, nxt,
                                  sample.window, sample._spectrum)

    def discrete_covariance(self):
        """Exact grid covariance of the field the plan synthesizes at its
        finest stage, as an array over lag indices: the transform, as one
        slab, of the sum of the clipped shell weights, whose even weight
        leaves only the cosine part."""
        grid = self.grid
        index, _, _ = _half_lattice(grid)
        cell = 1.0 / grid.length ** grid.dimension
        half = self._gather(self._spectrum * cell, index)
        b = np.zeros(grid.shape)
        for rows, blocks in _slabs(grid.n, grid.dimension, self.band):
            for dst, src in blocks:
                b[rows][dst] = half[src]
        return _hartley([b], grid.shape, band=self.band)


# ----------------------------------------------------------------------
# binary grid format: one JSON header line + raw little-endian float64
# ----------------------------------------------------------------------

def write_grid_file(path, grid: GridSpec, values, header_extra):
    """The header line, then the payload written from the contiguous <f8
    array's own buffer (no copy of it as bytes)."""
    header = {"format": "gmclab-grid-v1", "grid": grid.to_json()}
    header.update(header_extra)
    data = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(data)


def read_grid_file(path):
    """(header, grid, values), the payload read straight into `values`
    once its length, from the file's size, is exactly the grid's."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("format") != "gmclab-grid-v1":
            raise ValidationError(f"not a gmclab grid file: {path}")
        grid = GridSpec.from_json(header["grid"])
        need = 8 * grid.n ** grid.dimension
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != need:
            raise ValidationError(f"grid file {path}: {size} payload bytes, "
                                  f"its header's grid needs {need}")
        values = np.empty(grid.shape, dtype="<f8")
        if fh.readinto(values) != need:
            raise ValidationError(f"grid file {path}: payload shorter than "
                                  f"its size")
    return header, grid, values


# the provenance in field and measure file headers, as attribute names
_PROVENANCE = ("epsilon", "seed", "replica", "stage", "ladder_digest")


def write_field(path, sample: FieldSample):
    if sample.window is not None:
        raise ValidationError("a windowed sample holds only part of its "
                              "grid and cannot be written")
    write_grid_file(path, sample.grid, sample.values, {
        "kind": "field", "variance": sample.variance, "synthesis": SYNTHESIS,
        **{k: getattr(sample, k) for k in _PROVENANCE}})


def read_field(path):
    header, grid, values = read_grid_file(path)
    if header.get("kind") != "field":
        raise ValidationError("grid file does not hold a field")
    return FieldSample(grid=grid, values=values, variance=header["variance"],
                       **{k: header[k] for k in _PROVENANCE})
