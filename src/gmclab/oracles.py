"""Brute-force validators for the interpolation/comparison lemmas.

Small Gaussian vectors (n <= 4) are handled by tensor Gauss-Hermite
quadrature, which turns the exact inequalities into certifiable numeric
statements: a verdict is pass/fail only when the margin clears the
quadrature (or Monte Carlo) error budget, otherwise it is inconclusive.

The lemma-level objects:

* interpolation derivative: with Z_i(t) = sqrt(t) X_i + sqrt(1-t) Y_i,
  d/dt E[phi(sum_i p_i e^(Z_i - var/2))] equals the double-sum formula in
  the covariance gaps times E[e^(Z_i+Z_j-...) phi''(W)];
* convex comparison: entrywise larger covariances raise E[F(weighted
  lognormal sum)] for convex F;
* sup comparison: with equal variances, larger off-diagonal covariances
  lower E[F(sup)] for increasing F;
* sup moment growth: for iid N(0, lam2 ln n) the normalized exponential
  sup has mean O(n^(x p)) with x < 1, for p below max(2/lam2, 1);
* log-convolution tail: sup_(|z|>A) of integral |theta(v)| ln|z/(z-v)| dv
  vanishes as A grows, for profiles with the d+gamma decay bound.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .estimators import _wls_line
from .field import _philox

__all__ = [
    "GaussianVectorSpec",
    "OracleVerdict",
    "interpolation_derivative_check",
    "convex_comparison_check",
    "sup_comparison_check",
    "sup_moment_growth",
    "log_convolution_tail",
    "run_all",
    "verdicts_to_json",
]


@dataclass(frozen=True)
class GaussianVectorSpec:
    """Centered Gaussian vector with positive mixture weights."""

    covariance: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if cov.shape[0] != cov.shape[1]:
            raise ValidationError("covariance must be square")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValidationError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(cov)
        if eig.min() < -1e-12:
            raise ValidationError(f"covariance not PSD (eigmin={eig.min():.3g})")
        object.__setattr__(self, "covariance", cov)
        w = (np.ones(cov.shape[0]) if self.weights is None
             else np.asarray(self.weights, dtype=float))
        if w.shape != (cov.shape[0],) or np.any(w <= 0):
            raise ValidationError("weights must be positive, one per entry")
        object.__setattr__(self, "weights", w)

    @property
    def size(self):
        return self.covariance.shape[0]


@dataclass
class OracleVerdict:
    name: str
    passed: bool              # meaningful only when certified
    certified: bool           # margin resolved beyond the error budget
    margin: float
    budget: float
    detail: dict = field(default_factory=dict)

    @property
    def inconclusive(self):
        return not self.certified

    def to_json(self):
        def plain(v):
            if isinstance(v, (int, float, np.floating, np.integer)):
                return float(v)
            return v
        return {"name": self.name, "passed": bool(self.passed),
                "certified": bool(self.certified),
                "margin": float(self.margin), "budget": float(self.budget),
                "detail": {k: plain(v) for k, v in self.detail.items()}}


# ----------------------------------------------------------------------
# Gauss-Hermite machinery
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gh_nodes(dim, order):
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / np.sqrt(2.0 * np.pi)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wg = np.meshgrid(*([w] * dim), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wg], axis=-1), axis=-1)
    return nodes, weights


def _sqrt_psd(cov):
    eigval, eigvec = np.linalg.eigh(cov)
    return eigvec @ np.diag(np.sqrt(np.maximum(eigval, 0.0)))


def _gh_mean(stat, cov, weights, order):
    """E[stat(terms)] by tensor Gauss-Hermite quadrature, where terms holds
    p_i e^(Z_i - var_i/2) at the nodes of Z ~ N(0, cov), one row a node."""
    nodes, gw = _gh_nodes(cov.shape[0], order)
    z = nodes @ _sqrt_psd(cov).T
    terms = weights[None, :] * np.exp(z - np.diag(cov)[None, :] / 2.0)
    return float(gw @ stat(terms))


_PHI = {
    "power": (lambda u, a: u ** a,
              lambda u, a: a * (a - 1.0) * u ** (a - 2.0)),
    "exp_neg": (lambda u, a: np.exp(-u),
                lambda u, a: np.exp(-u)),
    "square": (lambda u, a: u * u,
               lambda u, a: np.full_like(u, 2.0)),
}


def _named(table, spec, what):
    """(table[spec[0]], its parameter spec[1] or 0.0) for a named test
    function such as ('power', 0.4) or ('square',)."""
    if spec[0] not in table:
        raise ValidationError(f"unsupported {what} function {spec!r}")
    return table[spec[0]], float(spec[1]) if len(spec) > 1 else 0.0


_GH_ORDER = 48  # Gauss-Hermite nodes per dimension; budgets also use 56
_FD_STEP = 5e-4  # central-difference step; the budget also uses half of it


def interpolation_derivative_check(spec_x: GaussianVectorSpec,
                                   spec_y: GaussianVectorSpec,
                                   phi, t):
    """Residual between the finite-difference derivative of
    E[phi(sum p_i exp(Z_i(t) - var/2))] and the covariance-gap formula
    1/2 E[phi''(W) sum_ij (cx - cy)_ij u_i u_j], u_i = p_i e^(Z_i - var/2).

    Both sides are tensor Gauss-Hermite expectations (48 nodes per
    dimension), the formula one quadrature of its whole double sum; the
    budget combines the Richardson estimate of the central difference
    error with the quadrature difference at 48 and 56 nodes.
    """
    if spec_x.size != spec_y.size or spec_x.size > 3:
        raise ValidationError("interpolation check needs matching n <= 3")
    if not (0.0 < t < 1.0):
        raise ValidationError("t must lie in (0, 1)")
    if not np.allclose(spec_x.weights, spec_y.weights):
        raise ValidationError("weight sequences must agree")
    (f, fdd), alpha = _named(_PHI, phi, "test")
    if phi[0] == "power" and not (0.0 < alpha < 1.0):
        raise ValidationError("power test function needs alpha in (0, 1)")
    cx, cy, p = spec_x.covariance, spec_y.covariance, spec_x.weights

    def phi_of_t(tt, order=_GH_ORDER):
        return _gh_mean(lambda terms: f(terms.sum(axis=1), alpha),
                        tt * cx + (1.0 - tt) * cy, p, order)

    def fd(h):
        return (phi_of_t(t + h) - phi_of_t(t - h)) / (2 * h)

    lhs = fd(_FD_STEP)
    lhs_half = fd(_FD_STEP / 2.0)
    fd_err = abs(lhs - lhs_half) * 4.0 / 3.0

    def rhs_at(order=_GH_ORDER):
        return 0.5 * _gh_mean(
            lambda u: np.einsum("ni,ij,nj->n", u, cx - cy, u)
            * fdd(u.sum(axis=1), alpha), t * cx + (1.0 - t) * cy, p, order)

    rhs = rhs_at()
    quad_err = abs(rhs - rhs_at(_GH_ORDER + 8)) \
        + abs(phi_of_t(t) - phi_of_t(t, _GH_ORDER + 8)) / _FD_STEP
    residual = abs(lhs - rhs)
    budget = fd_err + quad_err + 1e-11
    return OracleVerdict(
        name="interpolation-derivative", passed=residual <= budget,
        certified=bool(np.isfinite(budget)),
        margin=budget - residual, budget=budget,
        detail={"residual": residual, "fd_value": lhs, "formula_value": rhs,
                "fd_error": fd_err, "quadrature_error": quad_err,
                "t": t, "fd_step": _FD_STEP})


_CONVEX_F = {
    "square": lambda u, a: u * u,
    "call": lambda u, a: np.maximum(u - a, 0.0),
    "power15": lambda u, a: u ** 1.5,
}


def convex_comparison_check(spec_x: GaussianVectorSpec,
                            spec_y: GaussianVectorSpec,
                            F=("square",)):
    """E[F(sum p_i e^(X_i - var/2))] <= same under Y, for convex F >= 0,
    when E[X_i X_j] <= E[Y_i Y_j] entrywise.  Quadrature both sides."""
    if spec_x.size != spec_y.size or spec_x.size > 3:
        raise ValidationError("comparison check needs matching n <= 3")
    if not np.allclose(spec_x.weights, spec_y.weights):
        raise ValidationError("weight sequences must agree")
    gap = spec_y.covariance - spec_x.covariance
    if gap.min() < -1e-12:
        raise ValidationError("need E[X_i X_j] <= E[Y_i Y_j] entrywise")
    fn, arg = _named(_CONVEX_F, F, "convex")

    def side(cov, order=_GH_ORDER):
        return _gh_mean(lambda terms: fn(terms.sum(axis=1), arg), cov,
                        spec_x.weights, order)

    left, right = side(spec_x.covariance), side(spec_y.covariance)
    budget = abs(left - side(spec_x.covariance, _GH_ORDER + 8)) \
        + abs(right - side(spec_y.covariance, _GH_ORDER + 8)) + 1e-12
    margin = right - left
    return OracleVerdict(
        name="convex-comparison", passed=margin >= -budget,
        certified=True, margin=margin, budget=budget,
        detail={"left": left, "right": right, "F": list(map(str, F))})


_SUP_F = {
    "positive_part": lambda u, a: np.maximum(u, 0.0),
    "identity": lambda u, a: u,
}


def sup_comparison_check(spec_x: GaussianVectorSpec,
                         spec_y: GaussianVectorSpec,
                         F=("positive_part",), seed=0, n_samples=10 ** 6):
    """E[F(sup Y)] <= E[F(sup X)] for increasing F, equal diagonals and
    off-diagonal E[X_i X_j] <= E[Y_i Y_j].  Paired Monte Carlo with a
    3-sigma certification rule; verdicts inside the noise are flagged
    inconclusive rather than pass/fail."""
    n = spec_x.size
    if n != spec_y.size or n > 4:
        raise ValidationError("sup comparison needs matching n <= 4")
    if not np.allclose(np.diag(spec_x.covariance), np.diag(spec_y.covariance),
                       atol=1e-12):
        raise ValidationError("diagonals must agree")
    off = (spec_y.covariance - spec_x.covariance)[~np.eye(n, dtype=bool)]
    if off.min() < -1e-12:
        raise ValidationError("need off-diagonal E[X_i X_j] <= E[Y_i Y_j]")
    fn, arg = _named(_SUP_F, F, "increasing")
    if n_samples < 100:
        return OracleVerdict(name="sup-comparison", passed=False,
                             certified=False, margin=0.0, budget=np.inf,
                             detail={"reason": "no Monte Carlo budget"})
    rng = _philox(seed, 3)
    g = rng.standard_normal((n_samples, n))
    sup_x = fn((g @ _sqrt_psd(spec_x.covariance).T).max(axis=1), arg)
    sup_y = fn((g @ _sqrt_psd(spec_y.covariance).T).max(axis=1), arg)
    diff = sup_x - sup_y   # paired through common normals
    margin = float(diff.mean())
    se = float(diff.std() / np.sqrt(n_samples))
    return OracleVerdict(
        name="sup-comparison", passed=margin >= 0.0,
        certified=abs(margin) > 3.0 * se, margin=margin, budget=3.0 * se,
        detail={"se": se, "F": list(map(str, F)), "samples": n_samples})


def sup_moment_growth(lam2, p, seed=0, n_samples=400_000):
    """Fitted growth exponent of E[sup_i exp(p X_i - p lam2/2 ln n)] over
    iid X_i ~ N(0, lam2 ln n), for n = 2^6, 2^8, ..., 2^16.

    Only the sup enters, so each draw is exact through the inverse CDF of
    the max of n uniforms; the fit certifies an exponent x_hat < 1 when
    slope/p + 3 SE/p stays below 1.  Requires p < max(2/lam2, 1).
    """
    if lam2 <= 0 or lam2 == 2.0:
        raise ValidationError("need lam2 > 0, lam2 != 2")
    if not (0 < p < max(2.0 / lam2, 1.0)):
        raise ValidationError("p must lie below max(2/lam2, 1)")
    if n_samples < 100:
        return OracleVerdict(name="sup-moment-growth", passed=False,
                             certified=False, margin=0.0, budget=np.inf,
                             detail={"reason": "no Monte Carlo budget"})
    # imported where it runs, so no other path loads scipy
    from scipy.special import ndtri
    rng = _philox(seed, 4)
    lens, means, ses = [], [], []
    n_values = [2 ** k for k in range(6, 17, 2)]
    for n in n_values:
        sigma = np.sqrt(lam2 * np.log(n))
        u = rng.random(n_samples)
        # max of n uniforms: V = U^(1/n); complement computed stably
        tail = -np.expm1(np.log(u) / n)
        m = -sigma * ndtri(np.clip(tail, 1e-300, 1.0))
        vals = np.exp(p * m - p * lam2 / 2.0 * np.log(n))
        means.append(float(vals.mean()))
        ses.append(float(vals.std() / np.sqrt(n_samples)))
        lens.append(np.log(n))
    slope, _, slope_se, _ = _wls_line(lens, np.log(means),
                                      np.asarray(ses) / np.asarray(means))
    x_hat = slope / p
    x_se = slope_se / p
    margin = 1.0 - (x_hat + 3.0 * x_se)
    return OracleVerdict(
        name="sup-moment-growth", passed=x_hat + 3.0 * x_se < 1.0,
        certified=x_se < 0.25, margin=margin, budget=3.0 * x_se,
        detail={"x_hat": x_hat, "x_se": x_se, "slope": slope, "p": p,
                "lam2": lam2, "samples": n_samples,
                "n_grid": n_values})


# ----------------------------------------------------------------------
# log-convolution tail (mollifier admissibility lemma)
# ----------------------------------------------------------------------

def _log_kernel_integral(theta_abs, z, x_max):
    import warnings
    # imported where quad runs: scipy.integrate loads scipy.optimize,
    # .sparse and .linalg, which no other path needs
    from scipy.integrate import quad
    with warnings.catch_warnings():
        # the log singularity at v = z caps the achievable tolerance; the
        # reported quadrature error is carried into the verdict
        warnings.simplefilter("ignore")
        val, err = quad(lambda v: theta_abs(v) * np.log(abs(z / (z - v))),
                        -x_max, x_max, points=[0.0, z], limit=800)
    return val, err


def log_convolution_tail(theta_abs, a_list, decay_c, decay_gamma):
    """sup over |z| > A of |integral |theta(v)| ln|z/(z-v)| dv| for each A,
    taken over six z log-spaced on [A, 8A].

    theta_abs is |theta| as a 1-d profile with the decay bound
    |theta(v)| <= C/(1+|v|^(1+gamma)), C = decay_c and gamma = decay_gamma
    as the caller states them; the quadrature tail beyond the
    finite window is bounded through that envelope and added to the
    reported value.
    """
    out = {}
    for a in sorted(a_list):
        zs = a * np.power(8.0, np.arange(6) / 5.0)
        sup_val = 0.0
        for z in zs:
            x_max = max(10.0 * z, 64.0)
            val, err = _log_kernel_integral(theta_abs, z, x_max)
            # envelope tail: int_(x_max)^inf C v^(-1-gamma)(ln v + ln z) dv
            tail = decay_c * (np.log(x_max) + 1.0 / decay_gamma
                              + np.log(z)) / (decay_gamma * x_max ** decay_gamma)
            sup_val = max(sup_val, abs(val) + abs(err) + tail)
        out[float(a)] = float(sup_val)
    return out


# ----------------------------------------------------------------------
# the battery of `gmclab oracles` and of acceptance criterion 9
# ----------------------------------------------------------------------

_PAIR_SCALE = 0.6  # entry scale of the random admissible covariances


def _random_admissible_pair(rng, n):
    a = rng.standard_normal((n, n)) * _PAIR_SCALE / np.sqrt(n)
    cx = a @ a.T
    b = (0.25 + np.abs(rng.standard_normal((n, n)))) * _PAIR_SCALE / np.sqrt(n)
    bump = b @ b.T   # nonnegative entries, PSD, bounded away from zero
    return (GaussianVectorSpec(cx, np.ones(n)),
            GaussianVectorSpec(cx + bump, np.ones(n)))


def _sup_pair(rng, n):
    """Specs (X, Y) for the sup comparison: Y lifts every covariance of X
    by a positive rank-one term, then takes X's diagonal back, and both
    get the identity times max(0, 1e-9 - eigmin(cy)) so that Y is PSD."""
    base = rng.standard_normal((n, n)) * 0.5 / np.sqrt(n)
    cx = base @ base.T
    lift = 0.3 + np.abs(rng.standard_normal((n, 1))) * 0.4
    cy = cx + lift @ lift.T
    cy = cy - np.diag(np.diag(cy) - np.diag(cx))   # equalize diagonals
    bump = max(0.0, 1e-9 - float(np.linalg.eigvalsh(cy).min()))
    return (GaussianVectorSpec(cx + np.eye(n) * bump),
            GaussianVectorSpec(cy + np.eye(n) * bump))


def _battery(rng, n_random, sup_seed, sup_samples, growth):
    """The oracle battery, every instance drawn from `rng` in order: four
    interpolation cases, `n_random` convex and `n_random` sup instances
    (sup instance i on Monte Carlo seed sup_seed + i with `sup_samples`
    draws), sup-moment growth at lam2 = 1 and 4 with the (seed, samples)
    pairs of `growth`, and the log-convolution tail."""
    verdicts = []

    # interpolation derivative on fixed instances
    for n, phi, t in [(1, ("power", 0.4), 0.3), (2, ("power", 0.4), 0.5),
                      (2, ("exp_neg",), 0.7), (3, ("power", 0.25), 0.5)]:
        sx, sy = _random_admissible_pair(rng, n)
        v = interpolation_derivative_check(sx, sy, phi, t)
        v.name += f"(n={n},phi={phi[0]})"
        verdicts.append(v)

    # comparison corollaries on randomized admissible instances
    for i in range(n_random):
        n = int(rng.integers(1, 4))
        sx, sy = _random_admissible_pair(rng, n)
        F = [("square",), ("call", 1.0), ("power15",)][i % 3]
        v = convex_comparison_check(sx, sy, F)
        v.name += f"#{i}"
        verdicts.append(v)

    for i in range(n_random):
        sx, sy = _sup_pair(rng, int(rng.integers(2, 5)))
        v = sup_comparison_check(sx, sy, ("positive_part",),
                                 seed=sup_seed + i, n_samples=sup_samples)
        v.name += f"#{i}"
        verdicts.append(v)

    for (lam2, p), (seed, samples) in zip([(1.0, 1.5), (4.0, 0.9)], growth):
        verdicts.append(sup_moment_growth(lam2, p, seed=seed,
                                          n_samples=samples))

    gauss = lambda v: np.exp(-v * v / 2.0) / np.sqrt(2.0 * np.pi)
    sups = log_convolution_tail(gauss, (10.0, 100.0, 1000.0),
                                decay_c=0.6, decay_gamma=2.0)
    vals = [sups[a] for a in sorted(sups)]
    dec = all(b < a for a, b in zip(vals, vals[1:]))
    verdicts.append(OracleVerdict(
        name="log-convolution-tail", passed=dec, certified=True,
        margin=min(a - b for a, b in zip(vals, vals[1:])) if dec else -1.0,
        budget=0.0, detail={"sup_by_A": {str(k): v for k, v in sups.items()}}))
    return verdicts


def run_all(seed=0, mc_samples=400_000, n_random=20):
    """The full oracle battery; returns a list of OracleVerdicts.  The
    acceptance suite (criterion 9) runs the same battery on its own
    stream, seeds and budgets."""
    return _battery(_philox(seed, 9), n_random, seed, mc_samples,
                    [(seed, mc_samples), (seed + 1, mc_samples)])


def verdicts_to_json(verdicts, path=None):
    doc = {"oracles": [v.to_json() for v in verdicts],
           "all_certified_pass": all(v.passed for v in verdicts if v.certified),
           "inconclusive": [v.name for v in verdicts if v.inconclusive]}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
    return doc
