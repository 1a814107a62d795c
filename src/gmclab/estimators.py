"""Statistical verification of the measure's quantitative laws.

Covers the structure-function exponents

    zeta_p = (d + lam2/2) p - lam2 p^2 / 2,

moment scaling fits, the generalized scale-invariance test, the
degeneracy dichotomy across lam2 = 2d, and the lognormal statistics of
coarse-grained dissipation.

Moment estimation near the heavy-tail boundary p* = 2d/lam2 uses a
defensive mixture importance sampler: with probability 1 - PLAIN_FRACTION
the field is shifted by s * C(. - x0) (a Cameron-Martin element whose
likelihood ratio is exp(s X(x0) - s^2 C(0)/2)), with x0 uniform over the
evaluation window and s from a small grid reaching past max(p).  The
weighted estimator is unbiased by Girsanov and keeps the near-p* tails in
view at desk-scale replica counts; plain Monte Carlo provably misses them
(the sample mean of m(c)^p loses the u^(-p*) tail at any feasible n).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .field import GridSpec, SpectralPlan, _philox, build_ladder
from .kernels import KernelSpec, MollifierSpec
from .report import write_table
from . import measure as ms

__all__ = [
    "zeta",
    "p_star",
    "MomentRow",
    "ScalingReport",
    "moment_scaling",
    "ScaleInvarianceReport",
    "scale_invariance_test",
    "run_scale_invariance",
    "DegeneracyFit",
    "DegeneracyReport",
    "degeneracy_scan",
    "DissipationReport",
    "lognormality_report",
    "run_dissipation",
]

_TILT_KEY = (1 << 20) + 1   # rng spawn slot for tilt decisions
_OMEGA_KEY = (1 << 20) + 2  # rng slot for the scale-invariance comparison

PLAIN_FRACTION = 0.4  # share of untilted replicas in the tilt mixture
FLAG_REL_SE = 0.5     # a moment whose standard error exceeds this share of
                      # it is flagged as a heavy-tail point
KS_LEVEL = 0.01       # level of the permutation-calibrated KS test


# ----------------------------------------------------------------------
# analytic quantities
# ----------------------------------------------------------------------

def zeta(p, d, lam2):
    """Structure function zeta_p = (d + lam2/2) p - lam2 p^2 / 2."""
    p = np.asarray(p, dtype=float)
    out = (d + lam2 / 2.0) * p - lam2 * p * p / 2.0
    return float(out) if out.ndim == 0 else out


def p_star(d, lam2):
    """The unique p > 1 with zeta_p = d, namely 2d/lam2 (needs lam2 < 2d)."""
    if not (0 < lam2 < 2 * d):
        raise ValidationError("p* > 1 exists only for 0 < lam2 < 2d")
    return 2.0 * d / lam2


def _wls_line(x, y, se):
    """Weighted least squares y = a x + b; returns a, b, se_a, r2."""
    x, y, se = map(np.asarray, (x, y, se))
    w = 1.0 / np.maximum(se, 1e-12) ** 2
    A = np.vstack([x, np.ones_like(x)]).T
    cov = np.linalg.inv(A.T @ (w[:, None] * A))
    beta = cov @ A.T @ (w * y)
    resid = y - A @ beta
    tot = y - np.average(y, weights=w)
    r2 = 1.0 - float(np.sum(w * resid ** 2) / max(np.sum(w * tot ** 2), 1e-300))
    return float(beta[0]), float(beta[1]), float(np.sqrt(cov[0, 0])), r2


def _var_se(x):
    """Standard error of the sample variance of x (from its fourth central
    moment)."""
    n = len(x)
    m2 = x.var(ddof=1)
    m4 = float(((x - x.mean()) ** 4).mean())
    return np.sqrt(max(m4 - m2 * m2 * (n - 3) / (n - 1), 0.0) / n)


# ----------------------------------------------------------------------
# moment scaling
# ----------------------------------------------------------------------

@dataclass
class MomentRow:
    p: float
    c: float
    moment: float
    se: float
    flagged: bool = False


@dataclass
class ScalingReport:
    rows: list
    zeta_hat: dict        # p -> (slope, slope_se, r2)
    zeta_analytic: dict   # p -> analytic value
    scale_range: tuple
    meta: dict = field(default_factory=dict)

    def write(self, csv_path):
        write_table(csv_path, ["p", "c", "moment", "se", "flagged"],
                    [(r.p, r.c, r.moment, r.se, r.flagged) for r in self.rows],
                    {"zeta_hat": {str(p): v for p, v in self.zeta_hat.items()},
                     "zeta_analytic": {str(p): v for p, v
                                       in self.zeta_analytic.items()},
                     "scale_range": list(self.scale_range), **self.meta})


def _tilt_strengths(p_max, d, lam2):
    """Graded tilt ladder reaching just past the heavy-moment boundary."""
    if p_max <= 1:
        return ()
    top = p_max + 1.5
    if lam2 < 2 * d:
        top = min(top, p_star(d, lam2) + 0.5)
    return (0.5 * top, 0.75 * top, top)


def moment_scaling(kernel: KernelSpec, mollifier: MollifierSpec,
                   grid: GridSpec, p_list, c_list, seed, n_replicas,
                   regions="boxes"):
    """Fit zeta_hat_p from box (or ball) masses over the scale grid.

    Positive p must stay below p*; negative p are estimated on balls.
    Scales must lie in [8 * grid.step, R/4] and span >= 4 values over at
    least 1.2 decades; each is snapped to w whole cells.  Everything is
    measured in the window of half-width (L - 2R)/2 about the origin,
    whose nodes run over the index range [i_lo, i_hi) on every axis; a
    window that holds no whole box of the largest scale is refused.
    Box masses at width w are the whole-cell cubes tiling the window from
    i_lo (`measure._tile_masses`); balls sit on a grid of centers 2c
    apart.  Returns a ScalingReport with per-(p, c) sample moments
    (importance-weighted for max(p) > 1), flags for heavy-tail points and
    weighted log-log fits per p.
    """
    d = kernel.dimension
    p_list = [float(p) for p in p_list]
    c_list = sorted(float(c) for c in c_list)
    if regions not in ("boxes", "balls"):
        raise ValidationError(
            f"regions must be 'boxes' or 'balls', got {regions!r}")
    _refuse_replicas_below(1, n_replicas)
    if not p_list:
        raise ValidationError("p_list must hold at least one moment")
    if not np.all(np.isfinite(p_list + c_list)):
        raise ValidationError(f"p_list and c_list must be finite, got "
                              f"p_list={p_list!r}, c_list={c_list!r}")
    if len(c_list) < 4:
        raise ValidationError("need at least 4 scales for the fit")
    if np.log10(c_list[-1] / c_list[0]) < 1.2 - 1e-9:
        raise ValidationError("scale grid must span at least 1.2 decades")
    if c_list[0] < 8 * grid.step - 1e-12:
        raise ValidationError("smallest scale below 8 grid steps")
    if c_list[-1] > kernel.scale / 4 + 1e-12:
        raise ValidationError("largest scale above R/4")
    pstar = p_star(d, kernel.lam2) if kernel.lam2 < 2 * d else np.inf
    for p in p_list:
        if p > 0 and p >= pstar:
            raise ValidationError(f"moment p={p} not below p*={pstar}")
        if p < 0 and regions != "balls":
            raise ValidationError("negative moments are estimated on balls")

    h = grid.step
    halfwidth = (grid.length - 2 * kernel.scale) / 2.0
    if halfwidth <= 0:
        raise ValidationError("grid too small: no usable window inside 2R")
    axis = grid.axis_coordinates(0)
    i_lo = int(np.searchsorted(axis, -halfwidth))
    i_hi = int(np.searchsorted(axis, halfwidth))
    W, window = i_hi - i_lo, (slice(i_lo, i_hi),) * d

    # snap scales to whole cells; the snapped values enter the fit
    widths = sorted({max(1, int(round(c / h))) for c in c_list})
    cs = [w * h for w in widths]
    if (W - 1) // widths[-1] < 1:
        raise ValidationError(
            f"window L - 2R = {2 * halfwidth:g} is narrower than the largest "
            f"scale {cs[-1]:g}")

    ladder = build_ladder(kernel, mollifier, (mollifier.epsilon,))
    plan = SpectralPlan(ladder, grid)
    tilts = _tilt_strengths(max(p_list), d, kernel.lam2)
    if tilts:
        cov = plan.discrete_covariance()
        c0 = float(cov.flat[0])
        comp_w = (1.0 - PLAIN_FRACTION) / len(tilts)

    balls = {}
    if regions == "balls":
        for c in cs:
            balls[c] = [ms._region_weights(grid, ms.Ball(ctr, c), 0.0)
                        for ctr in _ball_centers(grid, halfwidth, c)]

    acc = {(p, c): np.empty(n_replicas) for p in p_list for c in cs}
    wgt = np.ones(n_replicas)
    var = plan.total_variance
    for rep in range(n_replicas):
        x = plan.sample(seed, rep).values
        if tilts:
            rng = _philox(seed, rep, _TILT_KEY)
            u = rng.random()
            if u >= PLAIN_FRACTION:
                j = min(int((u - PLAIN_FRACTION) / comp_w), len(tilts) - 1)
                k0 = rng.integers(W ** d)
                shift = np.add(np.unravel_index(k0, (W,) * d), i_lo)
                x = x + tilts[j] * np.roll(cov, shift, axis=tuple(range(d)))
            den = PLAIN_FRACTION
            for s in tilts:
                den += comp_w * float(np.mean(np.exp(np.clip(
                    s * x[window] - s * s * c0 / 2.0, -700, 700))))
            wgt[rep] = 1.0 / den
        masses = ms._cell_masses(x, var, grid.cell_volume)
        for c, w in zip(cs, widths):
            if regions == "boxes":
                bm = ms._tile_masses(masses, i_lo, (W - 1) // w, w)
            else:
                bm = np.array([b.mass(b.cells(masses[b.window]))
                               for b in balls[c]])
            for p in p_list:
                acc[(p, c)][rep] = float(np.mean(bm ** p))

    rows, zeta_hat, zeta_an = [], {}, {}
    for p in p_list:
        lE, lc, ses = [], [], []
        for c in cs:
            prod = wgt * acc[(p, c)]
            est = float(np.mean(prod))
            se = float(np.std(prod) / np.sqrt(n_replicas))
            flagged = se > FLAG_REL_SE * abs(est)
            rows.append(MomentRow(p=p, c=c, moment=est, se=se, flagged=flagged))
            lE.append(np.log(est))
            lc.append(np.log(c))
            ses.append(se / est)
        slope, _, slope_se, r2 = _wls_line(lc, lE, ses)
        zeta_hat[p] = (slope, slope_se, r2)
        zeta_an[p] = zeta(p, d, kernel.lam2)

    return ScalingReport(
        rows=rows, zeta_hat=zeta_hat, zeta_analytic=zeta_an,
        scale_range=(cs[0], cs[-1]),
        meta={"seed": seed, "replicas": n_replicas, "grid": grid.to_json(),
              "ladder_digest": ladder.digest, "regions": regions,
              "tilt_strengths": list(tilts),
              "plain_fraction": PLAIN_FRACTION if tilts else 1.0,
              "epsilon": mollifier.epsilon})


def _ball_centers(grid, halfwidth, radius):
    """Centres of touching balls of `radius` packed on a cubic lattice in
    [-halfwidth, halfwidth]^d, in row-major order."""
    step = 2.0 * radius
    n_side = max(1, int(np.floor(2 * halfwidth / step)))
    offs = (np.arange(n_side) - (n_side - 1) / 2.0) * step
    return list(itertools.product(offs.tolist(), repeat=grid.dimension))


# ----------------------------------------------------------------------
# generalized scale invariance
# ----------------------------------------------------------------------

@dataclass
class ScaleInvarianceReport:
    c: float
    dimension: int
    lam2: float
    mean_shift: float
    mean_shift_se: float
    mean_shift_target: float
    var_gain: float
    var_gain_se: float
    var_gain_target: float
    ks_stat: float
    ks_critical: float
    ks_rejected: bool
    n: tuple
    meta: dict = field(default_factory=dict)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2)


def _ks_two_sample(a, b):
    allv = np.sort(np.concatenate([a, b]))
    ca = np.searchsorted(np.sort(a), allv, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), allv, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def scale_invariance_test(ln_mass_a, ln_mass_ca, c, d, lam2, seed,
                          n_permutations=400):
    """Compare ln m(cA) against ln m(A) + Omega_c in distribution.

    Omega_c ~ Normal(-(d + lam2/2) ln(1/c), lam2 ln(1/c)) is drawn from a
    seeded stream and added to the A-ensemble; the two-sample KS statistic
    is calibrated by label permutation (the null ensemble itself) at level
    KS_LEVEL, per the equality-in-law statement.  Also reports the direct
    mean-shift and variance-gain estimates with their standard errors.
    """
    a = np.asarray(ln_mass_a, dtype=float)
    b = np.asarray(ln_mass_ca, dtype=float)
    if not (0 < c <= 1):
        raise ValidationError("c must lie in (0, 1]")
    ln1c = np.log(1.0 / c)
    target_shift = -(d + lam2 / 2.0) * ln1c
    target_gain = lam2 * ln1c

    shift = float(b.mean() - a.mean())
    shift_se = float(np.hypot(a.std() / np.sqrt(len(a)),
                              b.std() / np.sqrt(len(b))))

    gain = float(b.var(ddof=1) - a.var(ddof=1))
    gain_se = float(np.hypot(_var_se(a), _var_se(b)))

    rng = _philox(seed, 0, _OMEGA_KEY)
    omega = rng.normal(target_shift, np.sqrt(max(target_gain, 0.0)), len(a))
    s1 = a + omega
    obs = _ks_two_sample(s1, b)
    pool = np.concatenate([s1, b])
    perm = np.empty(n_permutations)
    for i in range(n_permutations):
        rng.shuffle(pool)
        perm[i] = _ks_two_sample(pool[:len(a)], pool[len(a):])
    crit = float(np.quantile(perm, 1.0 - KS_LEVEL))

    return ScaleInvarianceReport(
        c=c, dimension=d, lam2=lam2,
        mean_shift=shift, mean_shift_se=shift_se,
        mean_shift_target=target_shift,
        var_gain=gain, var_gain_se=gain_se, var_gain_target=target_gain,
        ks_stat=obs, ks_critical=crit, ks_rejected=bool(obs > crit),
        n=(len(a), len(b)))


def run_scale_invariance(kernel: KernelSpec, mollifier_kind, grid: GridSpec,
                         side, c, eps_a, seed, n_replicas,
                         n_permutations=400):
    """Generate the two matched ensembles and run the comparison.

    A = [0, side]^d with sqrt(d) * side <= R (all pair distances inside
    the log range, the regime where the rescaling identity
    q_(c eps)(c x) = lam2 ln(1/c) + q_eps(x) is exact); cA masses are
    sampled at mollification c * eps_a so both ensembles see the same
    relative smoothing.  Requires the pure log kernel (g = 0) and c in
    (0, 1], both checked before any replica is drawn.
    """
    if not 0 < c <= 1:
        raise ValidationError(f"c must lie in (0, 1], got {c!r}")
    _refuse_replicas_below(2, n_replicas)
    if not kernel.remainder.is_zero:
        raise ValidationError(
            "scale invariance holds for the pure log kernel only (g = 0)")
    d = kernel.dimension
    if side * np.sqrt(d) > kernel.scale + 1e-12:
        raise ValidationError("region diameter exceeds the integral scale")
    ln_a = _ln_box_masses(kernel, mollifier_kind, grid, side, eps_a,
                          seed, n_replicas)
    ln_ca = _ln_box_masses(kernel, mollifier_kind, grid, c * side, c * eps_a,
                           seed + 1, n_replicas)
    rep = scale_invariance_test(ln_a, ln_ca, c, d, kernel.lam2, seed,
                                n_permutations)
    rep.meta.update({"grid": grid.to_json(), "side": side, "eps_a": eps_a,
                     "seed": seed, "replicas": n_replicas,
                     "mollifier": mollifier_kind})
    return rep


def _refuse_replicas_below(least, n_replicas):
    """A mean over replicas needs one replica or more, and the spread
    across replicas that an estimate's standard errors and tests read
    needs two or more."""
    if n_replicas < least:
        raise ValidationError(f"the estimate needs n_replicas >= {least}, "
                              f"got {n_replicas!r}")


def _ln_box_masses(kernel, mollifier_kind, grid, side, eps, seed, n):
    moll = MollifierSpec(mollifier_kind, eps, kernel.dimension)
    plan = SpectralPlan(build_ladder(kernel, moll, (eps,)), grid)
    box = ms.Box((0.0,) * kernel.dimension, (side,) * kernel.dimension)
    return np.log(ms.convergence_trace(plan, box, seed, n).masses[:, 0])


# ----------------------------------------------------------------------
# degeneracy scan across lam2 = 2d
# ----------------------------------------------------------------------

PLATEAU_TOL = 0.05  # relative change per shell below which a run plateaus


@dataclass
class DegeneracyFit:
    lam2: float
    alpha: float
    exponent: float          # b in E[m_eps^alpha] ~ eps^b  (b > 0: decay)
    exponent_se: float
    predicted: float         # d - zeta_alpha
    drift: float             # max relative change over the last two shells
    plateau: bool


@dataclass
class DegeneracyReport:
    fits: list
    epsilons: tuple
    meta: dict = field(default_factory=dict)

    def write(self, csv_path):
        write_table(csv_path, ["lam2", "alpha", "exponent", "exponent_se",
                               "predicted", "drift", "plateau"],
                    [(f.lam2, f.alpha, f.exponent, f.exponent_se, f.predicted,
                      f.drift, f.plateau) for f in self.fits],
                    {"epsilons": list(self.epsilons), **self.meta})


def degeneracy_scan(lam2_list, dimension, scale, mollifier_kind,
                    grid: GridSpec, epsilons, region, alpha, seed,
                    n_replicas):
    """Fit the decay exponent of E[m_eps(region)^alpha] along the ladder.

    Sign convention fixed against brute-force simulation: the reported
    exponent is b in E ~ eps^b, so b approx d - zeta_alpha > 0 (mass
    decaying as eps -> 0) above the threshold and b approx 0 with a
    plateau below it: a plateau when the moment's relative change over the
    last two shells stays below `PLATEAU_TOL`.
    """
    _refuse_replicas_below(2, n_replicas)
    if len(epsilons) < 5:
        raise ValidationError("ladder needs enough shells to see decay")
    if len(lam2_list) == 0:
        raise ValidationError("lam2_list must hold at least one lam2")
    if not 0 < alpha < 1:
        # E m = |A| is conserved at alpha = 1: no decay shows at alpha >= 1
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    fits = []
    for lam2 in lam2_list:
        kernel = KernelSpec(dimension, float(lam2), scale)
        moll = MollifierSpec(mollifier_kind, epsilons[-1], dimension)
        plan = SpectralPlan(build_ladder(kernel, moll, epsilons), grid)
        trace = ms.convergence_trace(plan, region, seed, n_replicas)
        E = np.mean(trace.masses ** alpha, axis=0)
        SE = np.std(trace.masses ** alpha, axis=0) / np.sqrt(n_replicas)
        slope, _, slope_se, _ = _wls_line(np.log(epsilons), np.log(E),
                                          SE / E)
        drift = float(np.max(np.abs(np.diff(E[-3:]) / E[-3:-1])))
        fits.append(DegeneracyFit(
            lam2=float(lam2), alpha=float(alpha),
            exponent=slope, exponent_se=slope_se,
            predicted=dimension - zeta(alpha, dimension, lam2),
            drift=drift, plateau=bool(drift < PLATEAU_TOL)))
    return DegeneracyReport(
        fits=fits, epsilons=tuple(epsilons),
        meta={"seed": seed, "replicas": n_replicas, "alpha": alpha,
              "grid": grid.to_json(), "mollifier": mollifier_kind})


# ----------------------------------------------------------------------
# Kolmogorov-Obukhov lognormality
# ----------------------------------------------------------------------

@dataclass
class DissipationReport:
    radii: tuple
    variances: tuple
    variance_ses: tuple
    means: tuple
    mean_ses: tuple
    slope: float
    slope_se: float
    intercept: float
    skew_z: tuple           # skewness z-scores of ln eps_l per radius
    meta: dict = field(default_factory=dict)

    def write(self, csv_path):
        write_table(csv_path, ["l", "var_ln_eps", "var_se", "mean_eps",
                               "mean_se", "skew_z"],
                    zip(self.radii, self.variances, self.variance_ses,
                        self.means, self.mean_ses, self.skew_z),
                    {"slope": self.slope, "slope_se": self.slope_se,
                     "intercept": self.intercept, **self.meta})


def lognormality_report(samples_by_radius, scale):
    """Fit Var(ln eps_l) = lam2 * ln(R/l) + A across radii.

    samples_by_radius maps l -> array of eps_l draws.  Also reports the
    mean of eps_l (should equal <eps>) and skewness z-scores of ln eps_l
    as the normality diagnostic.
    """
    radii = sorted(samples_by_radius, reverse=True)
    V, SEv, means, mses, skz = [], [], [], [], []
    for l in radii:
        x = np.log(np.asarray(samples_by_radius[l], dtype=float))
        n = len(x)
        m2 = x.var(ddof=1)
        cen = x - x.mean()
        V.append(m2)
        SEv.append(_var_se(x))
        e = np.exp(x)
        means.append(float(e.mean()))
        mses.append(float(e.std() / np.sqrt(n)))
        skew = float((cen ** 3).mean() / m2 ** 1.5)
        skz.append(skew / np.sqrt(6.0 / n))
    slope, intercept, slope_se, _ = _wls_line(np.log(scale / np.asarray(radii)),
                                              V, SEv)
    return DissipationReport(
        radii=tuple(float(l) for l in radii), variances=tuple(map(float, V)),
        variance_ses=tuple(map(float, SEv)), means=tuple(means),
        mean_ses=tuple(mses), slope=slope, slope_se=slope_se,
        intercept=intercept, skew_z=tuple(map(float, skz)))


def run_dissipation(lam2, scale, radii, seed, n_replicas, mean_eps=1.0,
                    n_side=2 ** 7, eps_ratio=0.4, wrap_margin=0.1):
    """Per-radius ensembles of eps_l, mollified at a fixed fraction of l.

    The mollification scale eps = eps_ratio * l tracks the observation
    scale, so every ball is a rescaled copy of one base experiment: the
    pure log kernel satisfies q_(c eps)(c x) = lam2 ln(1/c) + q_eps(x) on
    the ball, hence Var(ln eps_l) = lam2 ln(R/l) + A exactly, with no
    l-dependent mollification bias in the fitted slope.

    Each radius gets the smallest torus with zero wrap-around
    contamination (the log kernel vanishes beyond R, so periodic images
    at distance >= L - 2l >= R + margin contribute nothing), which keeps
    eps resolved: eps >= 2.5 * step is enforced.  The slope fit needs at
    least two radii, each given once, and at least one replica.
    """
    _refuse_replicas_below(1, n_replicas)
    if len(radii) < 2 or len(set(radii)) != len(radii):
        raise ValidationError(f"the Var(ln eps_l) fit needs two or more "
                              f"distinct radii, each once, got {radii!r}")
    if not (np.isfinite(mean_eps) and mean_eps > 0):
        raise ValidationError(f"mean_eps must be finite and > 0, got "
                              f"{mean_eps!r}")
    kernel = KernelSpec(3, lam2, scale)
    samples = {}
    for i, l in enumerate(sorted(radii, reverse=True)):
        L = scale + 2.0 * l + wrap_margin
        grid = GridSpec(3, n_side, L)
        eps = eps_ratio * l
        if eps < 2.5 * grid.step:
            raise ValidationError(
                f"radius {l:g} unresolved: eps = {eps:g} below 2.5 steps "
                f"({2.5 * grid.step:g}); raise eps_ratio or n_side")
        moll = MollifierSpec("gaussian", eps, 3)
        plan = SpectralPlan(build_ladder(kernel, moll, (eps,)), grid)
        trace = ms.convergence_trace(plan, ms.Ball((0.0, 0.0, 0.0), l),
                                     seed + i, n_replicas)
        samples[float(l)] = mean_eps * trace.masses[:, 0] / trace.volume
    report = lognormality_report(samples, scale)
    report.meta.update({"lam2": lam2, "seed": seed, "replicas": n_replicas,
                        "n_side": n_side, "eps_ratio": eps_ratio,
                        "mean_eps": mean_eps})
    return samples, report
