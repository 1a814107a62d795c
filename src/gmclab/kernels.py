"""Covariance kernels of log type and their mollifiers.

The central object is the radial profile

    f(r) = lam2 * ln+(R / r) + g(r),

with intermittency lam2 > 0 (lam2 != 2d), integral scale R and a bounded
continuous remainder g.  The cone construction and the sigma-positive layer
decompositions live here too, as do the two built-in mollifiers (gaussian
and Fejer) and the mollified covariance q_eps = theta_eps * f computed
through the spectral product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import GateError, ValidationError, parse_number, parse_object

__all__ = [
    "Remainder",
    "KernelSpec",
    "MollifierSpec",
    "eval_kernel",
    "eval_cone_kernel",
    "cone_remainder_table",
    "sigma_positive_layer",
    "kernel_hat",
    "mollified_covariance",
    "spec_to_json",
    "spec_from_json",
]


# ----------------------------------------------------------------------
# remainder profiles
# ----------------------------------------------------------------------

class Remainder:
    """Bounded continuous radial remainder g.

    kind 'zero', 'constant' (value) or 'table' (radii + values, linear
    interpolation, clamped below the first radius and 0 beyond the last,
    the support that `kernel_hat` transforms and the positivity
    certificate integrates over; `cone_remainder_table` builds the
    bounded part of the cone-construction kernel as one).
    """

    def __init__(self, kind="zero", value=0.0, radii=None, values=None):
        if kind not in ("zero", "constant", "table"):
            raise ValidationError(f"unknown remainder kind {kind!r}")
        self.kind = kind
        self.value = float(value)
        if kind == "table":
            radii = np.asarray(radii, dtype=float)
            values = np.asarray(values, dtype=float)
            if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 2:
                raise ValidationError("table remainder needs matching 1-d arrays")
            if np.any(np.diff(radii) <= 0):
                raise ValidationError("table radii must be increasing")
            self.radii, self.values = radii, values
        else:
            self.radii = self.values = None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "constant":
            return np.full_like(r, self.value)
        return np.interp(r, self.radii, self.values, right=0.0)

    @property
    def sup(self):
        """Recorded bound sup |g|."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return abs(self.value)
        return float(np.max(np.abs(self.values)))

    @property
    def is_zero(self):
        return self.kind == "zero" or (self.kind == "constant" and self.value == 0.0)

    def to_json(self):
        doc = {"kind": self.kind}
        if self.kind == "constant":
            doc["value"] = self.value
        elif self.kind == "table":
            doc["table"] = [self.radii.tolist(), self.values.tolist()]
        return doc

    @staticmethod
    def from_json(doc):
        kind = doc.get("kind", "zero")
        if kind == "table":
            radii, values = doc["table"]
            return Remainder("table", radii=radii, values=values)
        return Remainder(kind, value=doc.get("value", 0.0))


@dataclass(frozen=True)
class KernelSpec:
    """f(r) = lam2 * ln+(R/r) + g(r) in dimension d (1..3).

    A non-finite lam2, scale or remainder value is refused; d >= 4 and a
    constant remainder c < 0 are not positive definite and raise GateError
    here; `kernel_hat` certifies a table remainder."""

    dimension: int
    lam2: float
    scale: float = 1.0
    remainder: Remainder = field(default_factory=Remainder)

    def __post_init__(self):
        d = self.dimension
        if d not in (1, 2, 3):
            if isinstance(d, (int, np.integer)) and d > 3:
                raise GateError(
                    "positivity gate: the log kernel is not positive definite "
                    "for d >= 4 (sign-oscillating spectral density); "
                    "synthesis refused", dimension=d)
            raise ValidationError("kernel dimension must be 1, 2 or 3")
        if not (np.isfinite(self.lam2) and self.lam2 > 0):
            raise ValidationError("intermittency lam2 must be finite and "
                                  "positive")
        if self.lam2 == 2.0 * d:
            raise ValidationError("lam2 = 2d is excluded (degenerate critical point)")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError("integral scale must be finite and "
                                  "positive")
        rem = self.remainder
        if not np.isfinite(rem.sup):
            raise ValidationError("remainder values must be finite")
        if rem.kind == "constant" and rem.value < 0:
            raise GateError("positivity gate: a negative constant remainder "
                            "is a negative atom of the spectral measure at "
                            "xi = 0", value=rem.value)


def eval_kernel(spec: KernelSpec, r):
    """Kernel value lam2 * max(ln(R/r), 0) + g(r).

    r = 0 returns the distinguished singular value (inf); callers never
    feed it onward, the mollified covariance is the finite object.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValidationError("radius must be nonnegative")
    out = np.empty_like(r)
    zero = r == 0
    out[zero] = np.inf
    nz = ~zero
    out[nz] = spec.lam2 * np.maximum(np.log(spec.scale / r[nz]), 0.0) \
        + spec.remainder(r[nz])
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# cone construction
# ----------------------------------------------------------------------

def _lens(d, radius, dist):
    """d-volume of the intersection of two d-balls of equal radius."""
    radius = np.asarray(radius, dtype=float)
    dist = np.asarray(dist, dtype=float)
    open_ = dist < 2.0 * radius
    out = np.zeros(np.broadcast(radius, dist).shape)
    r = np.broadcast_to(radius, out.shape)[open_]
    s = np.broadcast_to(dist, out.shape)[open_]
    if d == 2:
        out[open_] = 2.0 * r * r * np.arccos(s / (2.0 * r)) \
            - 0.5 * s * np.sqrt(4.0 * r * r - s * s)
    else:  # d == 3, the only other dimension eval_cone_kernel passes
        out[open_] = np.pi * (4.0 * r + s) * (2.0 * r - s) ** 2 / 12.0
    return out


def eval_cone_kernel(lam2, T, d, r):
    """Cone-intersection kernel lam2 * integral over C(0) n C(x) of
    dy dt / t^(d+1), radial in |x|, zero for |x| >= T.

    d = 1 reduces to lam2 * ln+(T/|x|) in closed form; d = 2, 3 integrate
    the closed-form lens section in t by deterministic adaptive quadrature
    (relative tolerance 1e-10; non-convergence raises GateError with the
    achieved bound).
    """
    if d not in (1, 2, 3):
        raise ValidationError("cone kernel defined for d in {1, 2, 3}")
    if T <= 0 or lam2 <= 0:
        raise ValidationError("need T > 0 and lam2 > 0")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValidationError("radius must be nonnegative")
    if d == 1:
        with np.errstate(divide="ignore"):
            out = lam2 * np.maximum(np.log(T / np.where(r == 0, np.nan, r)), 0.0)
        out = np.where(r == 0, np.inf, out)
        return float(out[0]) if scalar else out

    # imported where quad runs: scipy.integrate loads scipy.optimize,
    # .sparse and .linalg, which no other path needs
    from scipy.integrate import quad
    out = np.empty_like(r)
    for i, s in enumerate(r):
        if s >= T:
            out[i] = 0.0
            continue
        if s == 0.0:
            out[i] = np.inf
            continue
        def integrand(t):
            return _lens(d, t / 2.0, s) / t ** (d + 1)
        val, err = quad(integrand, s, T, epsabs=1e-13, epsrel=1e-10, limit=200)
        if err > max(1e-10 * abs(val), 1e-9):
            raise GateError("cone quadrature did not converge",
                            achieved=err, value=val, r=float(s))
        # constant section above height T contributes in closed form
        out[i] = lam2 * (val + float(_lens(d, T / 2.0, s)) / (d * T ** d))
    return float(out[0]) if scalar else out


def cone_remainder_table(lam2, T, d, n=257):
    """Tabulate g_cone = f_cone - lam2*ln+(T/r) on (0, T] as a Remainder."""
    radii = np.geomspace(T * 1e-4, T, n)
    vals = eval_cone_kernel(lam2, T, d, radii) \
        - lam2 * np.maximum(np.log(T / radii), 0.0)
    radii = np.concatenate([[0.0], radii])
    vals = np.concatenate([[vals[0]], vals])
    return Remainder("table", radii=radii, values=vals)


# ----------------------------------------------------------------------
# sigma-positive layers
# ----------------------------------------------------------------------

def sigma_positive_layer(n, d, T, r):
    """n-th layer of the sigma-positive decomposition of ln+(T/r).

    Uses nu_S(dt) = 1_[0,S)(t) dt/t^2 + delta_S/S with S = T^mu and the
    Kuttner-Golubov exponents mu = 1 (d=1), mu = 1/2 (d=2):

        ln+(T/r) = (1/mu) * integral (t - r^mu)_+ nu_S(dt)

    split over the bands [S/n, S/(n-1)).  Band 1 is [S, inf) and carries
    the atom.  Each layer is nonnegative, continuous and nonincreasing in
    r, and vanishes for r >= T; the partial sums reach ln+(T/r) exactly
    once S/n < r^mu.
    """
    if n < 1:
        raise ValidationError("layer index must be >= 1")
    if d not in (1, 2):
        raise ValidationError("layers implemented for d in {1, 2}")
    if T <= 0:
        raise ValidationError("T must be positive")
    mu = 1.0 if d == 1 else 0.5
    S = T ** mu
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValidationError("radius must be nonnegative")
    s = r ** mu
    if n == 1:
        out = np.maximum(S - s, 0.0) / S / mu
        return float(out[0]) if scalar else out
    a, b = S / n, S / (n - 1)
    lo = np.maximum(a, s)
    out = np.where(s >= b, 0.0, np.log(b / lo) + s * (1.0 / b - 1.0 / lo))
    out = out / mu
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# mollifiers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MollifierSpec:
    """Positive-definite unit-mass smoothing profile at scale epsilon.

    gaussian: theta(x) = exp(-|x|^2/2) / (2 pi)^(d/2), theta_hat(u) =
    exp(-2 pi^2 u^2).  fejer (d = 1 only): theta(x) = (sin(pi x)/(pi x))^2,
    theta_hat(u) = (1 - |u|)_+.  Both have theta_hat decreasing in |u| with
    theta_hat(0) = 1.
    """

    kind: str
    epsilon: float
    dimension: int = 1

    def __post_init__(self):
        if self.kind not in ("gaussian", "fejer"):
            raise ValidationError(f"unknown mollifier kind {self.kind!r}")
        if not 0 < self.epsilon < np.inf:
            raise ValidationError("mollifier epsilon must be finite and positive")
        if self.kind == "fejer" and self.dimension != 1:
            raise ValidationError("the built-in Fejer profile is one-dimensional")
        if self.dimension not in (1, 2, 3):
            raise ValidationError("mollifier dimension must be 1, 2 or 3")

    # unscaled profiles -------------------------------------------------
    def theta(self, r):
        """Spatial profile as a function of |x| (unit scale)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-r * r / 2.0) / (2.0 * np.pi) ** (self.dimension / 2.0)
        return np.sinc(r) ** 2  # np.sinc(x) = sin(pi x)/(pi x)

    def theta_hat(self, u):
        """Radial spectral profile (unit scale), decreasing, value 1 at 0."""
        u = np.asarray(np.abs(u), dtype=float)
        if self.kind == "gaussian":
            return np.exp(-2.0 * np.pi ** 2 * u * u)
        return np.maximum(1.0 - u, 0.0)

    # scaled objects ----------------------------------------------------
    def theta_hat_eps(self, xi):
        """Fourier transform of theta^eps at radial frequency xi."""
        return self.theta_hat(self.epsilon * np.asarray(xi, dtype=float))

    def spectral_cutoff(self):
        """Frequency beyond which theta_hat_eps falls below 1e-18."""
        if self.kind == "fejer":
            return 1.0 / self.epsilon
        return math.sqrt(math.log(1.0 / 1e-18) / (2.0 * np.pi ** 2)) \
            / self.epsilon

    def to_json(self):
        return {"kind": self.kind, "epsilon": self.epsilon}


# ----------------------------------------------------------------------
# spectral density of a kernel and the mollified covariance
# ----------------------------------------------------------------------

_TABLE_HATS = {}


def _table_hat(spec: KernelSpec):
    """The density of a table-remainder kernel, lam2 times the closed-form
    transform of ln+(R/r) plus the table's, once it is certified, cached
    on (lam2, d, R, table) so that equal kernels share one entry.

    One `radial_fourier_grid` call over the table's support transforms
    the table on `default_check_grid(R)` and on the 401 points of its
    interpolant, together (each entry as a one-point call gives it).
    The density must be certified nonnegative on the check grid, with
    the table quadrature's bounds (the closed form carries none), or
    GateError is raised and nothing is cached; the plans then sample the
    interpolant."""
    rem, d, R, lam2 = spec.remainder, spec.dimension, spec.scale, spec.lam2
    key = (lam2, d, R, rem.radii.tobytes(), rem.values.tobytes())
    if key in _TABLE_HATS:
        return _TABLE_HATS[key]
    support = float(rem.radii[-1])
    check = spectral.default_check_grid(R)
    s_grid = np.concatenate([[0.0], np.geomspace(1e-3 / support,
                                                 60.0 / support, 400)])
    xi = np.concatenate([check, s_grid])
    order = np.argsort(xi, kind="stable")
    vals, errs = np.empty_like(xi), np.empty_like(xi)
    vals[order], errs[order] = spectral.radial_fourier_grid(rem, d, xi[order],
                                                            support)
    cert = spectral.certify_sign(
        check, lam2 * spectral.logplus_hat(check, d, T=R) + vals[:check.size],
        errs[:check.size], R)
    if cert != spectral.CERT_NONNEGATIVE:
        raise GateError("positivity gate: kernel spectral density is not "
                        "certified nonnegative", certificate=cert)
    vals = vals[check.size:]

    def fhat(s):
        s = np.asarray(s, dtype=float)
        ghat = np.interp(s, s_grid, vals)
        # beyond the tabulated range the transform has decayed below the
        # table resolution; clamp to the last computed magnitude envelope
        ghat = np.where(s > s_grid[-1], vals[-1] * (s_grid[-1] / np.maximum(s, s_grid[-1])) ** d, ghat)
        return lam2 * spectral.logplus_hat(s, d, T=R) + ghat

    _TABLE_HATS[key] = fhat
    return fhat


def kernel_hat(spec: KernelSpec):
    """Radial spectral density of the kernel as a vectorized callable.

    The ln+ part is closed form; a tabulated remainder contributes through
    a cached quadrature interpolant once the kernel passes its positivity
    certificate (`_table_hat`), so every plan gets that gate.  A constant
    remainder carries a delta at 0 which is handled additively by the
    covariance routines and is deliberately absent here.
    """
    if spec.remainder.kind == "table":
        return _table_hat(spec)
    lam2, R, d = spec.lam2, spec.scale, spec.dimension

    def fhat(s):
        return lam2 * spectral.logplus_hat(s, d, T=R)

    return fhat


def mollified_covariance(spec: KernelSpec, moll: MollifierSpec, r):
    """q_eps(r) = (theta^eps * f)(r) via the spectral product.

    Finite for every r including 0; q_eps(0) is the continuum variance
    (measures normalize with the lattice variance `SpectralPlan` carries).
    Raises GateError when the spectral tail truncated beyond the mollifier
    cutoff exceeds 1e-9.
    """
    if moll.dimension != spec.dimension:
        raise ValidationError("kernel and mollifier dimensions differ")
    d = spec.dimension
    fhat = kernel_hat(spec)
    s_max = moll.spectral_cutoff()

    def product(s):
        return fhat(s) * moll.theta_hat_eps(s)

    # truncation-tail estimate: |fhat| <= C/s^d style envelope at the cutoff
    tail = abs(float(fhat(np.asarray(s_max)))) * moll.theta_hat_eps(s_max) \
        * spectral.sphere_area(d) * s_max ** d
    if tail > 1e-9:
        raise GateError("spectral tail truncation above tolerance",
                        tail=tail, tolerance=1e-9, cutoff=s_max)

    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    vals = spectral.radial_fourier_grid(product, d, r_arr, s_max)[0]
    if spec.remainder.kind == "constant":
        vals = vals + spec.remainder.value
    return float(vals[0]) if np.asarray(r).ndim == 0 else vals


# ----------------------------------------------------------------------
# JSON document (kernel + mollifier)
# ----------------------------------------------------------------------

def spec_to_json(spec: KernelSpec, moll: MollifierSpec):
    return {
        "dimension": spec.dimension,
        "lambda2": spec.lam2,
        "scale": spec.scale,
        "remainder": spec.remainder.to_json(),
        "mollifier": moll.to_json(),
    }


def spec_from_json(doc):
    """(KernelSpec, MollifierSpec) from a parsed kernel section, a dict
    as `spec_to_json` writes it; every value passes the specs' checks."""
    for name in ("remainder", "mollifier"):
        parse_object(doc.get(name, {}), name)
    spec = KernelSpec(dimension=parse_number(doc["dimension"], int,
                                             "kernel.dimension"),
                      lam2=float(doc["lambda2"]),
                      scale=float(doc.get("scale", 1.0)),
                      remainder=Remainder.from_json(doc.get("remainder", {})))
    m = doc.get("mollifier", {})
    moll = MollifierSpec(kind=m.get("kind", "gaussian"),
                         epsilon=float(m.get("epsilon", 1e-2)),
                         dimension=spec.dimension)
    return spec, moll
