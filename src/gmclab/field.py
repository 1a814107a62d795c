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

Randomness: counter-based Philox streams keyed by (seed, replica, shell),
so replicas and shells are reproducible and order-independent.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .errors import GateError, ValidationError
from .kernels import KernelSpec, MollifierSpec, kernel_hat, spec_to_json

__all__ = [
    "GridSpec",
    "ShellLadder",
    "build_ladder",
    "geometric_schedule",
    "SpectralPlan",
    "FieldSample",
    "write_grid_file",
    "read_grid_file",
    "default_workers",
]

_WORKERS = None


def default_workers():
    """FFT worker count; affects wall time only, never values."""
    global _WORKERS
    if _WORKERS is None:
        try:
            _WORKERS = max(1, int(os.environ.get("GMC_LAB_THREADS", "1")))
        except ValueError:
            _WORKERS = 1
    return _WORKERS


def set_workers(n):
    global _WORKERS
    _WORKERS = max(1, int(n))


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: n points per side (power of two), physical side
    length `length`, cell centers at origin + (i + 1/2 offsets handled by
    callers; here nodes sit at origin + i*step)."""

    dimension: int
    n: int
    length: float
    origin: tuple = None

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValidationError("grid dimension must be 1, 2 or 3")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValidationError("points per side must be a power of two >= 4")
        if not (self.length > 0):
            raise ValidationError("side length must be positive")
        if self.origin is None:
            object.__setattr__(self, "origin",
                               (-self.length / 2.0,) * self.dimension)
        else:
            origin = tuple(float(v) for v in np.atleast_1d(self.origin))
            if len(origin) != self.dimension:
                raise ValidationError("origin must have one entry per axis")
            object.__setattr__(self, "origin", origin)

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

    def check_wraparound(self, kernel_scale, extent):
        """Torus-size invariant: length >= 2R + extent of the evaluation
        window, so no wrapped image of the kernel reaches the window."""
        if self.length < 2.0 * kernel_scale + extent - 1e-12:
            raise ValidationError(
                f"side length {self.length} below 2R + extent = "
                f"{2 * kernel_scale + extent} (wrap-around exclusion)")

    def to_json(self):
        return {"dimension": self.dimension, "n": self.n,
                "length": self.length, "origin": list(self.origin)}

    @staticmethod
    def from_json(doc):
        return GridSpec(dimension=int(doc["dimension"]), n=int(doc["n"]),
                        length=float(doc["length"]),
                        origin=tuple(doc["origin"]) if doc.get("origin") else None)


def geometric_schedule(eps0, n_shells, factor=2.0):
    """Default dyadic ladder eps_k = eps0 * factor^-k, k = 0..n_shells."""
    if not (eps0 > 0 and factor > 1):
        raise ValidationError("need eps0 > 0 and factor > 1")
    return tuple(eps0 * factor ** (-k) for k in range(n_shells + 1))


class ShellLadder:
    """Decreasing scale sequence with per-shell radial spectral weights."""

    def __init__(self, kernel: KernelSpec, mollifier: MollifierSpec, epsilons):
        epsilons = tuple(float(e) for e in epsilons)
        if len(epsilons) < 1 or any(e <= 0 for e in epsilons):
            raise ValidationError("epsilon schedule must be positive")
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

    def weight(self, stage, xi):
        """Radial spectral weight of one shell on |xi| values."""
        xi = np.asarray(xi, dtype=float)
        fh = self._fhat(xi)
        m = self.mollifier
        if stage == 0:
            w = fh * m.theta_hat(self.epsilons[0] * xi)
        else:
            w = fh * (m.theta_hat(self.epsilons[stage] * xi)
                      - m.theta_hat(self.epsilons[stage - 1] * xi))
        return w

    def telescoped(self, stage, xi):
        """Total density after `stage` refinements: fhat * theta_hat(eps_k .)."""
        xi = np.asarray(xi, dtype=float)
        return self._fhat(xi) * self.mollifier.theta_hat(self.epsilons[stage] * xi)

    def to_json(self):
        doc = spec_to_json(self.kernel, self.mollifier)
        doc["epsilons"] = list(self.epsilons)
        return doc

    @property
    def digest(self):
        payload = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def build_ladder(kernel: KernelSpec, mollifier: MollifierSpec, epsilons):
    """Validated ladder; rejects schedules whose shell weights go negative
    beyond -1e-12 (signals a non-monotone theta_hat or a negative fhat)."""
    ladder = ShellLadder(kernel, mollifier, epsilons)
    probe = np.geomspace(1e-3 / kernel.scale, 4.0 / epsilons[-1], 512)
    scale0 = float(np.max(np.abs(ladder.telescoped(ladder.n_stages - 1, probe)))) + 1e-300
    for k in range(ladder.n_stages):
        w = ladder.weight(k, probe)
        if np.min(w) < -1e-12 * scale0:
            raise GateError("negative shell weight", stage=k,
                            min_weight=float(np.min(w)))
    return ladder


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSample:
    """One realization of X_eps on a grid, with its shell history."""

    grid: GridSpec
    epsilon: float
    values: np.ndarray
    variance: float           # exact lattice variance of the synthesis
    seed: int
    replica: int
    stage: int
    ladder_digest: str

    def __post_init__(self):
        self.values.setflags(write=False)


def _lattice_radii(grid: GridSpec):
    freqs = [np.fft.fftfreq(grid.n, d=grid.step) for _ in range(grid.dimension)]
    if grid.dimension == 1:
        return np.abs(freqs[0])
    mesh = np.meshgrid(*freqs, indexing="ij", sparse=True)
    return np.sqrt(sum(f * f for f in mesh))


class SpectralPlan:
    """Precomputed per-shell amplitudes for one (ladder, grid) pair.

    Build one plan per (ladder, grid) pair and draw every replica and
    stage from it with `sample` and `refine`: a plan evaluates each
    shell's spectral weight on the whole frequency lattice, which costs
    more than drawing a sample.
    """

    def __init__(self, ladder: ShellLadder, grid: GridSpec,
                 clip_tolerance=1e-8, tail_tolerance=1e-4):
        if grid.dimension != ladder.kernel.dimension:
            raise ValidationError("grid and kernel dimensions differ")
        self.ladder = ladder
        self.grid = grid
        xi = _lattice_radii(grid)
        cell = 1.0 / grid.length ** grid.dimension   # spectral cell d xi
        self.amps = []
        self.stage_variance = []            # per-shell variance increments
        trace = 0.0
        clipped = 0.0
        for k in range(ladder.n_stages):
            w = ladder.weight(k, xi)
            neg = w < 0
            if np.any(neg):
                clipped += -float(np.sum(w[neg])) * cell
                w = np.where(neg, 0.0, w)
            inc = float(np.sum(w)) * cell
            trace += inc
            self.amps.append(np.sqrt(w * cell))
            self.stage_variance.append(inc)
        if clipped > clip_tolerance * max(trace, 1e-300):
            raise GateError("embedding weights substantially negative",
                            clipped_mass=clipped, trace=trace)
        self._check_resolution(tail_tolerance)

    def _check_resolution(self, tol):
        """Nyquist must carry the finest shell: bound the continuum
        spectral mass beyond the axis Nyquist frequency."""
        lad, grid = self.ladder, self.grid
        d = grid.dimension
        nyq = grid.nyquist
        surf = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
        s = np.geomspace(nyq, nyq * 64.0, 2048)
        dens = np.maximum(lad.telescoped(lad.n_stages - 1, s), 0.0)
        tail = float(np.trapezoid(surf * s ** (d - 1) * dens, s))
        total = float(self.total_variance) + 1e-300
        if tail > tol * total:
            raise GateError("grid cannot resolve the ladder's spectral "
                            "support (raise n or stop the ladder earlier)",
                            tail_mass=tail, variance=total, nyquist=nyq)

    @property
    def total_variance(self):
        return sum(self.stage_variance)

    def variance_through(self, stage):
        """Exact lattice variance of the field at stage `stage`."""
        return float(sum(self.stage_variance[:stage + 1]))

    def _shell_field(self, seed, replica, stage):
        seq = np.random.SeedSequence(entropy=int(seed),
                                     spawn_key=(int(replica), int(stage)))
        rng = np.random.Generator(np.random.Philox(seq))
        g = rng.standard_normal(self.grid.shape)
        a = (g * self.amps[stage]).astype(np.complex128)
        a *= (1.0 + 1.0j)
        out = sfft.ifftn(a, workers=default_workers())
        return out.real * self.grid.n ** self.grid.dimension

    def sample(self, seed, replica=0, stage=None) -> FieldSample:
        """Field at ladder stage `stage` (default: the finest)."""
        if stage is None:
            stage = self.ladder.n_stages - 1
        if not (0 <= stage < self.ladder.n_stages):
            raise ValidationError("stage outside the ladder")
        x = np.zeros(self.grid.shape)
        for k in range(stage + 1):
            x += self._shell_field(seed, replica, k)
        return FieldSample(grid=self.grid, epsilon=self.ladder.epsilons[stage],
                           values=x, variance=self.variance_through(stage),
                           seed=int(seed), replica=int(replica), stage=stage,
                           ladder_digest=self.ladder.digest)

    def refine(self, sample: FieldSample) -> FieldSample:
        """One more shell: X_(k+1) = X_k + independent increment."""
        nxt = sample.stage + 1
        if nxt >= self.ladder.n_stages:
            raise ValidationError("shell index exhausted")
        if sample.ladder_digest != self.ladder.digest:
            raise ValidationError("sample was built from a different ladder")
        x = sample.values + self._shell_field(sample.seed, sample.replica, nxt)
        return replace(sample, epsilon=self.ladder.epsilons[nxt], values=x,
                       variance=self.variance_through(nxt), stage=nxt)

    def discrete_covariance(self):
        """Exact grid covariance as an array over lag indices (via FFT of
        the total spectral mass at the finest stage)."""
        xi = _lattice_radii(self.grid)
        w = np.maximum(self.ladder.telescoped(self.ladder.n_stages - 1, xi), 0.0)
        cell = 1.0 / self.grid.length ** self.grid.dimension
        cov = sfft.ifftn(w * cell, workers=default_workers()).real
        return cov * self.grid.n ** self.grid.dimension


# ----------------------------------------------------------------------
# binary grid format: one JSON header line + raw little-endian float64
# ----------------------------------------------------------------------

def write_grid_file(path, grid: GridSpec, values, header_extra):
    header = {"format": "gmclab-grid-v1", "grid": grid.to_json()}
    header.update(header_extra)
    data = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(data.tobytes())


def read_grid_file(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    if header.get("format") != "gmclab-grid-v1":
        raise ValidationError(f"not a gmclab grid file: {path}")
    grid = GridSpec.from_json(header["grid"])
    need = 8 * grid.n ** grid.dimension
    if len(raw) != need:
        raise ValidationError(f"grid file {path}: {len(raw)} payload bytes, "
                              f"its header's grid needs {need}")
    values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).copy()
    return header, grid, values


def write_field(path, sample: FieldSample):
    write_grid_file(path, sample.grid, sample.values, {
        "kind": "field", "epsilon": sample.epsilon,
        "variance": sample.variance, "seed": sample.seed,
        "replica": sample.replica, "stage": sample.stage,
        "ladder_digest": sample.ladder_digest})


def read_field(path):
    header, grid, values = read_grid_file(path)
    if header.get("kind") != "field":
        raise ValidationError("grid file does not hold a field")
    return FieldSample(grid=grid, epsilon=header["epsilon"], values=values,
                       variance=header["variance"], seed=header["seed"],
                       replica=header["replica"], stage=header["stage"],
                       ladder_digest=header["ladder_digest"])
