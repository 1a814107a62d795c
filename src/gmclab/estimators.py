"""Statistical verification of the measure's quantitative laws.

Covers the structure-function exponents

    zeta_p = (d + lam2/2) p - lam2 p^2 / 2,

moment scaling fits, the generalized scale-invariance test, the
degeneracy dichotomy across lam2 = 2d, and the lognormal statistics of
coarse-grained dissipation.

Moment estimation near the heavy-tail boundary p* = 2d/lam2 uses a
defensive mixture importance sampler: with some probability the field is
shifted by s * C(. - x0) (a Cameron-Martin element whose likelihood ratio
is exp(s X(x0) - s^2 C(0)/2)), with x0 uniform over the evaluation window
and s from a small grid reaching past max(p).  The weighted estimator is
unbiased by Girsanov and keeps the near-p* tails in view at desk-scale
replica counts; plain Monte Carlo provably misses them (the sample mean
of m(c)^p loses the u^(-p*) tail at any feasible n).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .field import GridSpec, SpectralPlan, build_ladder
from .kernels import KernelSpec, MollifierSpec
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

    def write(self, csv_path, sidecar_path=None):
        with open(csv_path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["p", "c", "moment", "se", "flagged"])
            for r in self.rows:
                wr.writerow([r.p, repr(r.c), repr(r.moment), repr(r.se),
                             int(r.flagged)])
        side = sidecar_path or str(csv_path) + ".json"
        with open(side, "w") as fh:
            json.dump({
                "zeta_hat": {str(p): v for p, v in self.zeta_hat.items()},
                "zeta_analytic": {str(p): v for p, v in self.zeta_analytic.items()},
                "scale_range": list(self.scale_range),
                **self.meta}, fh, indent=2)


def _summed_area(masses):
    out = masses
    for ax in range(masses.ndim):
        out = np.cumsum(out, axis=ax)
    return out


def _box_sums_nd(sat, starts, w):
    """Box sums from a summed-area table for cubic boxes of w cells whose
    lower corners run over the index grid `starts` along each axis."""
    d = sat.ndim
    pads = np.pad(sat, [(1, 0)] * d)
    total = None
    for corner in range(1 << d):
        idx = [starts + w if corner >> ax & 1 else starts for ax in range(d)]
        sign = (-1) ** (d - bin(corner).count("1"))
        grids = np.meshgrid(*idx, indexing="ij")
        term = pads[tuple(grids)]
        total = term * sign if total is None else total + term * sign
    return total


def default_tilt_strengths(p_max, d, lam2):
    """Graded tilt ladder reaching just past the heavy-moment boundary."""
    if p_max <= 1:
        return ()
    top = p_max + 1.5
    if lam2 < 2 * d:
        top = min(top, p_star(d, lam2) + 0.5)
    return (0.5 * top, 0.75 * top, top)


def moment_scaling(kernel: KernelSpec, mollifier: MollifierSpec,
                   grid: GridSpec, p_list, c_list, seed, n_replicas,
                   regions="boxes", window_halfwidth=None,
                   tilt_strengths=None, plain_fraction=0.4,
                   flag_rel_se=0.5):
    """Fit zeta_hat_p from box (or ball) masses over the scale grid.

    Positive p must stay below p*; negative p are estimated on balls.
    Scales must lie in [8 * grid.step, R/4] and span >= 4 values over at
    least 1.2 decades.  Returns a ScalingReport with per-(p, c) sample
    moments (importance-weighted for p > 1), flags for heavy-tail points,
    and weighted log-log fits per p.
    """
    d = kernel.dimension
    p_list = [float(p) for p in p_list]
    c_list = sorted(float(c) for c in c_list)
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

    ladder = build_ladder(kernel, mollifier, (mollifier.epsilon,))
    plan = SpectralPlan(ladder, grid)
    h = grid.step
    if window_halfwidth is None:
        window_halfwidth = (grid.length - 2 * kernel.scale) / 2.0
    if window_halfwidth <= 0:
        raise ValidationError("grid too small: no usable window inside 2R")
    grid.check_wraparound(kernel.scale, 2 * window_halfwidth)
    axis = grid.axis_coordinates(0)
    i_lo = int(np.searchsorted(axis, -window_halfwidth))
    i_hi = int(np.searchsorted(axis, window_halfwidth))

    if tilt_strengths is None:
        tilt_strengths = default_tilt_strengths(max(p_list), d, kernel.lam2)
    tilt_strengths = tuple(tilt_strengths)
    use_tilt = len(tilt_strengths) > 0
    if use_tilt:
        cov = plan.discrete_covariance()
        c0 = float(cov.flat[0])
        win_flat = _window_flat_indices(grid, i_lo, i_hi)
        comp_w = (1.0 - plain_fraction) / len(tilt_strengths)

    # snap scales to whole cells; the snapped values enter the fit
    widths = sorted({max(1, int(round(c / h))) for c in c_list})
    cs = [w * h for w in widths]

    balls = {}
    if regions == "balls":
        for c, w in zip(cs, widths):
            centers = _ball_centers(grid, window_halfwidth, c)
            balls[c] = [ms._region_weights(grid, ms.Ball(ctr, c), 0.0)
                        for ctr in centers]

    acc = {(p, c): np.empty(n_replicas) for p in p_list for c in cs}
    wgt = np.ones(n_replicas)
    var = plan.total_variance
    for rep in range(n_replicas):
        sample = plan.sample(seed, rep)
        x = sample.values
        if use_tilt:
            rng = _stream(seed, rep, _TILT_KEY)
            u = rng.random()
            if u >= plain_fraction:
                j = min(int((u - plain_fraction) / comp_w), len(tilt_strengths) - 1)
                k0 = win_flat[rng.integers(len(win_flat))]
                shift = np.unravel_index(k0, grid.shape)
                x = x + tilt_strengths[j] * np.roll(cov, shift,
                                                    axis=tuple(range(d)))
            den = plain_fraction
            xw = x.reshape(-1)[win_flat]
            for s in tilt_strengths:
                den += comp_w * float(np.mean(
                    np.exp(np.clip(s * xw - s * s * c0 / 2.0, -700, 700))))
            wgt[rep] = 1.0 / den
        masses = ms._cell_masses(x, var, grid.cell_volume)
        if regions == "boxes":
            sat = _summed_area(masses)
            for c, w in zip(cs, widths):
                starts = np.arange(i_lo, i_hi - w, w)
                bm = _box_sums_nd(sat, starts, w).ravel()
                for p in p_list:
                    acc[(p, c)][rep] = float(np.mean(bm ** p))
        else:
            for c in cs:
                bm = np.array([b.mass(masses) for b in balls[c]])
                for p in p_list:
                    acc[(p, c)][rep] = float(np.mean(bm ** p))

    rows, zeta_hat, zeta_an = [], {}, {}
    for p in p_list:
        lE, lc, ses = [], [], []
        for c in cs:
            prod = wgt * acc[(p, c)]
            est = float(np.mean(prod))
            se = float(np.std(prod) / np.sqrt(n_replicas))
            flagged = se > flag_rel_se * abs(est)
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
              "tilt_strengths": list(tilt_strengths),
              "plain_fraction": plain_fraction if use_tilt else 1.0,
              "epsilon": mollifier.epsilon})


def _stream(seed, replica, slot):
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=(int(replica), int(slot)))
    return np.random.Generator(np.random.Philox(seq))


def _window_flat_indices(grid, i_lo, i_hi):
    sl = np.arange(i_lo, i_hi)
    if grid.dimension == 1:
        return sl
    grids = np.meshgrid(*([sl] * grid.dimension), indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in grids], grid.shape)


def _ball_centers(grid, halfwidth, radius):
    step = 2.0 * radius
    n_side = max(1, int(np.floor(2 * halfwidth / step)))
    offs = (np.arange(n_side) - (n_side - 1) / 2.0) * step
    if grid.dimension == 1:
        return [(o,) for o in offs]
    grids = np.meshgrid(*([offs] * grid.dimension), indexing="ij")
    return [tuple(float(g.ravel()[i]) for g in grids)
            for i in range(grids[0].size)]


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
            json.dump({k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in self.__dict__.items()}, fh, indent=2)


def _ks_two_sample(a, b):
    allv = np.sort(np.concatenate([a, b]))
    ca = np.searchsorted(np.sort(a), allv, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), allv, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def scale_invariance_test(ln_mass_a, ln_mass_ca, c, d, lam2, seed,
                          n_permutations=400, level=0.01):
    """Compare ln m(cA) against ln m(A) + Omega_c in distribution.

    Omega_c ~ Normal(-(d + lam2/2) ln(1/c), lam2 ln(1/c)) is drawn from a
    seeded stream and added to the A-ensemble; the two-sample KS statistic
    is calibrated by label permutation (the null ensemble itself), per the
    equality-in-law statement.  Also reports the direct mean-shift and
    variance-gain estimates with their standard errors.
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

    def var_se(x):
        m2 = x.var(ddof=1)
        m4 = float(((x - x.mean()) ** 4).mean())
        return np.sqrt(max(m4 - m2 * m2 * (len(x) - 3) / (len(x) - 1), 0.0)
                       / len(x))

    gain = float(b.var(ddof=1) - a.var(ddof=1))
    gain_se = float(np.hypot(var_se(a), var_se(b)))

    rng = _stream(seed, 0, _OMEGA_KEY)
    omega = rng.normal(target_shift, np.sqrt(max(target_gain, 0.0)), len(a))
    s1 = a + omega
    obs = _ks_two_sample(s1, b)
    pool = np.concatenate([s1, b])
    perm = np.empty(n_permutations)
    for i in range(n_permutations):
        rng.shuffle(pool)
        perm[i] = _ks_two_sample(pool[:len(a)], pool[len(a):])
    crit = float(np.quantile(perm, 1.0 - level))

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
    relative smoothing.  Requires the pure log kernel (g = 0).
    """
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


def _ln_box_masses(kernel, mollifier_kind, grid, side, eps, seed, n):
    moll = MollifierSpec(mollifier_kind, eps, kernel.dimension)
    plan = SpectralPlan(build_ladder(kernel, moll, (eps,)), grid)
    box = ms.Box((0.0,) * kernel.dimension, (side,) * kernel.dimension)
    weights = ms._region_weights(grid, box, 0.0)
    return np.array([np.log(weights.mass(plan.sample(seed, rep)))
                     for rep in range(n)])


# ----------------------------------------------------------------------
# degeneracy scan across lam2 = 2d
# ----------------------------------------------------------------------

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

    def write(self, csv_path, sidecar_path=None):
        with open(csv_path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["lam2", "alpha", "exponent", "exponent_se",
                         "predicted", "drift", "plateau"])
            for f in self.fits:
                wr.writerow([f.lam2, f.alpha, repr(f.exponent),
                             repr(f.exponent_se), repr(f.predicted),
                             repr(f.drift), int(f.plateau)])
        side = sidecar_path or str(csv_path) + ".json"
        with open(side, "w") as fh:
            json.dump({"epsilons": list(self.epsilons), **self.meta},
                      fh, indent=2)


def degeneracy_scan(lam2_list, dimension, scale, mollifier_kind,
                    grid: GridSpec, epsilons, region, alpha, seed,
                    n_replicas, plateau_tol=0.05):
    """Fit the decay exponent of E[m_eps(region)^alpha] along the ladder.

    Sign convention fixed against brute-force simulation: the reported
    exponent is b in E ~ eps^b, so b approx d - zeta_alpha > 0 (mass
    decaying as eps -> 0) above the threshold and b approx 0 with a
    plateau below it.
    """
    if len(epsilons) < 5:
        raise ValidationError("ladder needs enough shells to see decay")
    fits = []
    for lam2 in lam2_list:
        kernel = KernelSpec(dimension, float(lam2), scale)
        moll = MollifierSpec(mollifier_kind, epsilons[-1], dimension)
        plan = SpectralPlan(build_ladder(kernel, moll, epsilons), grid)
        trace = ms.convergence_trace(plan, region, seed, n_replicas,
                                     rel_tol=plateau_tol)
        E = np.mean(trace.masses ** alpha, axis=0)
        SE = np.std(trace.masses ** alpha, axis=0) / np.sqrt(n_replicas)
        slope, _, slope_se, _ = _wls_line(np.log(epsilons), np.log(E),
                                          SE / E)
        drift = float(np.max(np.abs(np.diff(E[-3:]) / E[-3:-1])))
        fits.append(DegeneracyFit(
            lam2=float(lam2), alpha=float(alpha),
            exponent=slope, exponent_se=slope_se,
            predicted=dimension - zeta(alpha, dimension, lam2),
            drift=drift, plateau=bool(drift < plateau_tol)))
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

    def write(self, csv_path, sidecar_path=None):
        with open(csv_path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["l", "var_ln_eps", "var_se", "mean_eps", "mean_se",
                         "skew_z"])
            for row in zip(self.radii, self.variances, self.variance_ses,
                           self.means, self.mean_ses, self.skew_z):
                wr.writerow([repr(float(v)) for v in row])
        side = sidecar_path or str(csv_path) + ".json"
        with open(side, "w") as fh:
            json.dump({"slope": self.slope, "slope_se": self.slope_se,
                       "intercept": self.intercept, **self.meta}, fh,
                      indent=2)


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
        m4 = float((cen ** 4).mean())
        V.append(m2)
        SEv.append(np.sqrt(max(m4 - m2 * m2 * (n - 3) / (n - 1), 0.0) / n))
        e = np.exp(x)
        means.append(float(e.mean()))
        mses.append(float(e.std() / np.sqrt(n)))
        skew = float((cen ** 3).mean() / m2 ** 1.5)
        skz.append(skew / np.sqrt(6.0 / n))
    slope, intercept, slope_se, _ = _wls_line(np.log(scale / np.asarray(radii)),
                                              V, np.asarray(SEv) / 1.0)
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
    eps resolved: eps >= 2.5 * step is enforced.
    """
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
        ball = ms._region_weights(grid, ms.Ball((0.0, 0.0, 0.0), l), 0.0)
        samples[float(l)] = np.array([
            mean_eps * ball.mass(plan.sample(seed + i, rep)) / ball.volume
            for rep in range(n_replicas)])
    report = lognormality_report(samples, scale)
    report.meta.update({"lam2": lam2, "seed": seed, "replicas": n_replicas,
                        "n_side": n_side, "eps_ratio": eps_ratio,
                        "mean_eps": mean_eps})
    return samples, report
