"""Acceptance suite: the quantitative laws at desk scale.

Each test prints one PASS/FAIL line (run with -s to see them live).
Tolerances are pinned here, not recalibrated: fitted structure-function
exponents against (d + lam2/2) p - lam2 p^2/2, scale-invariance shift and
gain at 3 standard errors, the degeneracy dichotomy across lam2 = 2d,
mollifier independence of the limit moments, the positive-definiteness
dichotomy in the dimension, the martingale normalization of region
masses, the lognormal dissipation slope, the time-change law of the
random walk, and the Gaussian-comparison oracle battery.
"""

import numpy as np
import pytest

from gmclab import estimators as est
from gmclab import field as fd
from gmclab import kernels as kn
from gmclab import measure as ms
from gmclab import oracles as oc
from gmclab import spectral as sp


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok


# ----------------------------------------------------------------------
# 1. structure-function reproduction
# ----------------------------------------------------------------------

def test_structure_function_exponents():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 2.0 ** -13, 1)
    grid = fd.GridSpec(1, 2 ** 16, 2.5)
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    ps = [0.5, 1.0, 2.0, 3.0]
    tol = {0.5: 0.10, 1.0: 0.10, 2.0: 0.10, 3.0: 0.15}
    rep = est.moment_scaling(kernel, moll, grid, ps, cs, seed=2027,
                             n_replicas=2000)
    ok_all = True
    details = []
    for p in ps:
        slope, se, _ = rep.zeta_hat[p]
        target = rep.zeta_analytic[p]
        ok = abs(slope - target) <= tol[p]
        ok_all &= ok
        details.append(f"p={p}: {slope:.4f} vs {target:.4f} (tol {tol[p]})")
    assert report("1 structure functions", ok_all, "; ".join(details))


# ----------------------------------------------------------------------
# 2. generalized scale invariance, d = 1 and d = 3
# ----------------------------------------------------------------------

def _scale_invariance_case(d, lam2, grid, eps_a, n, seed):
    kernel = kn.KernelSpec(d, lam2, 1.0)
    rep = est.run_scale_invariance(kernel, "gaussian", grid, side=0.5,
                                   c=0.5, eps_a=eps_a, seed=seed,
                                   n_replicas=n, n_permutations=300)
    ok_shift = abs(rep.mean_shift - rep.mean_shift_target) \
        <= 3 * rep.mean_shift_se
    ok_gain = abs(rep.var_gain - rep.var_gain_target) <= 3 * rep.var_gain_se
    ok_ks = not rep.ks_rejected
    detail = (f"d={d}: shift {rep.mean_shift:.3f}/{rep.mean_shift_target:.3f}"
              f"±{rep.mean_shift_se:.3f}, gain {rep.var_gain:.3f}/"
              f"{rep.var_gain_target:.3f}±{rep.var_gain_se:.3f}, "
              f"KS rej={rep.ks_rejected}")
    return ok_shift and ok_gain and ok_ks, detail


def test_scale_invariance():
    ok1, d1 = _scale_invariance_case(1, 0.5, fd.GridSpec(1, 2 ** 16, 4.0),
                                     eps_a=2.0 ** -8, n=700, seed=808)
    grid3 = fd.GridSpec(3, 2 ** 7, 3.0)
    ok3, d3 = _scale_invariance_case(3, 1.0, grid3,
                                     eps_a=4.0 * grid3.step, n=320, seed=809)
    assert report("2 scale invariance", ok1 and ok3, d1 + " | " + d3)


# ----------------------------------------------------------------------
# 3. degeneracy dichotomy
# ----------------------------------------------------------------------

def test_degeneracy_dichotomy():
    grid = fd.GridSpec(1, 2 ** 16, 4.0)
    eps = fd.geometric_schedule(2.0 ** -2, 9)   # 2^-2 .. 2^-11
    region = ms.Box((0.0,), (1.0,))
    rep = est.degeneracy_scan([3.0, 0.5], 1, 1.0, "gaussian", grid, eps,
                              region, alpha=0.5, seed=2024, n_replicas=500)
    hot = [f for f in rep.fits if f.lam2 == 3.0][0]
    cold = [f for f in rep.fits if f.lam2 == 0.5][0]
    # supercritical: fitted decay exponent within 30% of d - zeta_alpha
    rel_err = abs(hot.exponent - hot.predicted) / hot.predicted
    ok_hot = rel_err <= 0.30
    ok_cold = cold.plateau and cold.drift < 0.05
    detail = (f"lam2=3: exponent {hot.exponent:.4f} vs {hot.predicted:.4f} "
              f"(rel err {rel_err:.2f}); lam2=0.5: drift {cold.drift:.3f}")
    assert report("3 degeneracy dichotomy", ok_hot and ok_cold, detail)


# ----------------------------------------------------------------------
# 4. mollifier independence (uniqueness)
# ----------------------------------------------------------------------

def test_mollifier_independence():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    grid = fd.GridSpec(1, 2 ** 16, 4.0)
    alpha, eps, n = 0.4, 2.0 ** -11, 2500
    box = ms.Box((0.0,), (1.0,))
    stats = {}
    for kind in ("gaussian", "fejer"):
        moll = kn.MollifierSpec(kind, eps, 1)
        plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (eps,)), grid)
        vals = ms.convergence_trace(plan, box, 777, n).masses[:, 0] ** alpha
        stats[kind] = (vals.mean(), vals.std() / np.sqrt(n))
    gap = abs(stats["gaussian"][0] - stats["fejer"][0])
    budget = 3.0 * float(np.hypot(stats["gaussian"][1], stats["fejer"][1]))
    detail = (f"E[m^0.4] gauss {stats['gaussian'][0]:.5f} vs fejer "
              f"{stats['fejer'][0]:.5f}, gap {gap:.5f} < {budget:.5f}")
    assert report("4 mollifier independence", gap < budget, detail)


# ----------------------------------------------------------------------
# 5. positive-definiteness dichotomy
# ----------------------------------------------------------------------

def test_spectral_dichotomy():
    prof = lambda r: np.where(r < 1.0,
                              np.log(1.0 / np.maximum(r, 1e-300)), 0.0)
    certs = {}
    agree = None
    for d in (1, 2, 3, 4):
        repd = sp.check_positive_definite(prof, d, support=1.0)
        certs[d] = repd.certificate
        if d == 3:
            closed = sp.logplus_hat(repd.xi, 3)
            agree = float(np.max(np.abs(repd.fhat - closed)))
    ok = (certs[1] == certs[2] == certs[3] == sp.CERT_NONNEGATIVE
          and certs[4] == sp.CERT_OSCILLATING and agree <= 1e-8)
    detail = (f"certs d1..d4 = {[certs[d] for d in (1, 2, 3, 4)]}, "
              f"d=3 closed-form agreement {agree:.2e}")
    assert report("5 positive-definiteness dichotomy", ok, detail)


# ----------------------------------------------------------------------
# 6. martingale normalization along the ladder
# ----------------------------------------------------------------------

def test_martingale_normalization():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 2.0 ** -10, 1)
    plan = fd.SpectralPlan(
        fd.build_ladder(kernel, moll, fd.geometric_schedule(2.0 ** -4, 6)),
        fd.GridSpec(1, 2 ** 14, 4.0))
    tr = ms.convergence_trace(plan, ms.Box((0.0,), (1.0,)), seed=606,
                              n_replicas=500)
    ok = True
    worst_mean, worst_inc = 0.0, 0.0
    for k in range(tr.masses.shape[1]):
        col = tr.masses[:, k]
        z = abs(col.mean() - 1.0) / (col.std() / np.sqrt(len(col)))
        worst_mean = max(worst_mean, z)
        ok &= z <= 3.0
    incs = np.diff(tr.masses, axis=1)
    for k in range(incs.shape[1]):
        col = incs[:, k]
        z = abs(col.mean()) / (col.std() / np.sqrt(len(col)))
        worst_inc = max(worst_inc, z)
        ok &= z <= 3.0
    detail = (f"worst |z| mean-mass {worst_mean:.2f}, "
              f"worst |z| increment {worst_inc:.2f} (3-sigma rule)")
    assert report("6 martingale normalization", ok, detail)


# ----------------------------------------------------------------------
# 7. Kolmogorov-Obukhov statistics
# ----------------------------------------------------------------------

def test_dissipation_lognormality():
    radii = [0.5, 0.25, 0.125, 0.0625]
    _, rep = est.run_dissipation(lam2=1.0, scale=1.0, radii=radii,
                                 seed=555, n_replicas=600)
    ok_slope = abs(rep.slope - 1.0) <= 0.15
    ok_mean = all(abs(m - 1.0) <= 3 * se
                  for m, se in zip(rep.means, rep.mean_ses))
    detail = (f"Var(ln eps_l) slope {rep.slope:.4f}±{rep.slope_se:.4f} "
              f"(target 1.0±0.15), means "
              + ", ".join(f"{m:.3f}±{se:.3f}"
                          for m, se in zip(rep.means, rep.mean_ses)))
    assert report("7 dissipation lognormality", ok_slope and ok_mean, detail)


# ----------------------------------------------------------------------
# 8. multifractal random walk
# ----------------------------------------------------------------------

def test_mrw_time_change():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 2.0 ** -9, 1)
    grid = fd.GridSpec(1, 2 ** 14, 4.0)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (2.0 ** -9,)), grid)

    # second-moment law E[X(t)^2] = t
    targets = np.array([0.25, 0.5, 1.0])
    n = 600
    x2 = np.empty((n, 3))
    for r in range(n):
        m = ms.exponentiate(plan.sample(313, r))
        x = ms.mrw_path(m, targets, seed=99)
        x2[r] = x ** 2
    ok_var = True
    zs = []
    for j, t in enumerate(targets):
        se = x2[:, j].std() / np.sqrt(n)
        z = abs(x2[:, j].mean() - t) / se
        zs.append(z)
        ok_var &= z <= 3.0

    # realized quadratic variation -> per-replica mass as the partition
    # halves twice: unbiased ratio within 2% at every level, dispersion
    # shrinking with refinement
    n_times = 2 ** 13
    times = np.linspace(0.0, 1.0, n_times + 1)[1:]
    n_qv = 400
    ratios = {4: [], 2: [], 1: []}
    for r in range(n_qv):
        m = ms.exponentiate(plan.sample(314, r))
        x = ms.mrw_path(m, times, seed=55)
        mass = ms.region_mass(m, ms.Box((0.0,), (1.0,)))
        for every in (4, 2, 1):
            ratios[every].append(ms.quadratic_variation(x, every) / mass)
    ok_qv = True
    rms = {}
    for every in (4, 2, 1):
        arr = np.asarray(ratios[every])
        rms[every] = float(np.sqrt(np.mean((arr - 1.0) ** 2)))
        ok_qv &= abs(arr.mean() - 1.0) <= 0.02
    ok_qv &= rms[1] < rms[2] < rms[4]
    detail = (f"E[X(t)^2] z-scores {['%.2f' % z for z in zs]}; QV mean "
              f"ratios {[round(np.mean(ratios[e]), 4) for e in (4, 2, 1)]}, "
              f"rms {[round(rms[e], 3) for e in (4, 2, 1)]}")
    assert report("8 MRW time change", ok_var and ok_qv, detail)


# ----------------------------------------------------------------------
# 9. appendix oracle battery
# ----------------------------------------------------------------------

def test_oracle_battery():
    # the battery of `gmclab oracles`, on its own stream, seeds and budgets
    verdicts = oc._battery(np.random.Generator(np.random.Philox(9)), 20,
                           sup_seed=1000, sup_samples=10 ** 6,
                           growth=[(41, 600000), (42, 2500000)])
    interp, convex, sup, growth = (
        [v for v in verdicts if v.name.startswith(kind)]
        for kind in ("interpolation-derivative", "convex-comparison",
                     "sup-comparison", "sup-moment-growth"))
    (tail,) = [v for v in verdicts if v.name == "log-convolution-tail"]
    vals = list(tail.detail["sup_by_A"].values())   # A = 10, 100, 1000
    ok = (all(v.passed for v in interp)
          and all(v.passed and v.margin > v.budget for v in convex)
          and all(v.passed and v.certified for v in sup + growth)
          and tail.passed)
    notes = ["interpolation residuals within budget",
             f"convex margins > 0 (min {min(v.margin for v in convex):.3g})",
             f"sup margins certified (min {min(v.margin for v in sup):.3g})",
             f"growth x_hat {growth[0].detail['x_hat']:.3f}, "
             f"{growth[1].detail['x_hat']:.3f} < 1",
             f"tail sups {['%.2e' % v for v in vals]} decreasing"]
    assert report("9 oracle battery", ok, "; ".join(notes))
