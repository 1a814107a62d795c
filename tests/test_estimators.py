import itertools

import numpy as np
import pytest

from gmclab import estimators as est
from gmclab import field as fd
from gmclab import kernels as kn
from gmclab import measure as ms
from gmclab.errors import ValidationError


# ----------------------------------------------------------------------
# analytic pieces
# ----------------------------------------------------------------------

def test_zeta_values():
    assert est.zeta(1.0, 1, 0.5) == 1.0
    assert est.zeta(1.0, 3, 1.7) == 3.0          # zeta_1 = d by cancellation
    assert est.zeta(0.0, 2, 0.9) == 0.0
    assert abs(est.zeta(2.0, 1, 0.5) - 1.5) < 1e-15
    assert abs(est.zeta(3.0, 1, 0.5) - 1.5) < 1e-15
    assert abs(est.zeta(-1.0, 1, 0.5) + 1.5) < 1e-15


def test_zeta_concavity():
    p = np.linspace(-2, 4, 41)
    z = est.zeta(p, 1, 0.5)
    assert np.all(np.diff(z, 2) < 1e-12)


def test_p_star():
    assert est.p_star(1, 0.5) == 4.0
    assert est.p_star(3, 2.0) == 3.0
    assert abs(est.zeta(est.p_star(1, 0.5), 1, 0.5) - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        est.p_star(1, 2.0)
    with pytest.raises(ValidationError):
        est.p_star(1, 3.0)


# ----------------------------------------------------------------------
# moment scaling
# ----------------------------------------------------------------------

def _small_setup(lam2=0.5, n=2 ** 13, eps=2 ** -9):
    kernel = kn.KernelSpec(1, lam2, 1.0)
    moll = kn.MollifierSpec("gaussian", eps, 1)
    grid = fd.GridSpec(1, n, 4.0)
    return kernel, moll, grid


def test_moment_scaling_validations():
    kernel, moll, grid = _small_setup()
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    with pytest.raises(ValidationError):   # p >= p*
        est.moment_scaling(kernel, moll, grid, [4.0], cs, 1, 10)
    with pytest.raises(ValidationError):   # negative p needs balls
        est.moment_scaling(kernel, moll, grid, [-1.0], cs, 1, 10)
    with pytest.raises(ValidationError):   # too few scales
        est.moment_scaling(kernel, moll, grid, [1.0], cs[:3], 1, 10)
    with pytest.raises(ValidationError):   # span below 1.2 decades
        est.moment_scaling(kernel, moll, grid, [1.0],
                           [0.02, 0.04, 0.08, 0.16], 1, 10)
    with pytest.raises(ValidationError):   # above R/4
        est.moment_scaling(kernel, moll, grid, [1.0],
                           [0.02, 0.08, 0.2, 0.5], 1, 10)


def no_plan(*args, **kwargs):
    raise AssertionError("a plan was built")


def test_moment_scaling_refuses_empty_ensemble(monkeypatch):
    kernel, moll, grid = _small_setup()
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError, match="n_replicas >= 1, got 0"):
        est.moment_scaling(kernel, moll, grid, [1.0], cs, 1, 0)


@pytest.mark.parametrize("p_list, c_list", [
    ([np.nan], [2.0 ** -k for k in range(7, 2, -1)]),
    ([1.0, -np.inf], [2.0 ** -k for k in range(7, 2, -1)]),
    ([1.0], [2.0 ** -7, np.nan, 2.0 ** -5, 2.0 ** -4, 2.0 ** -3]),
], ids=["p-nan", "p-minus-inf", "c-nan"])
def test_moment_scaling_refuses_non_finite_entries(monkeypatch, p_list,
                                                   c_list):
    kernel, moll, grid = _small_setup()
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError, match="finite"):
        est.moment_scaling(kernel, moll, grid, p_list, c_list, 1, 4,
                           regions="balls")


@pytest.mark.parametrize("regions", ["boxes", "balls"])
def test_moment_scaling_refuses_window_narrower_than_largest_scale(regions):
    # L - 2R = 0.1 < 2^-3: no whole box of the largest scale fits
    kernel, moll, _ = _small_setup()
    grid = fd.GridSpec(1, 2 ** 13, 2.1)
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    with pytest.raises(ValidationError, match="narrower"):
        est.moment_scaling(kernel, moll, grid, [1.0, 2.0], cs, 1, 4,
                           regions=regions)


def test_moment_scaling_ball_moments_are_region_masses_in_d2():
    # p = 1 and one replica: each row is the mean ball mass, balls on the
    # d = 2 lattice of centres that `_ball_centers` lays out
    kernel = kn.KernelSpec(2, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 2.0 ** -8, 2)
    grid = fd.GridSpec(2, 2 ** 11, 2.5)
    cs = [2.0 ** -k for k in range(6, 1, -1)]
    rep = est.moment_scaling(kernel, moll, grid, [1.0], cs, seed=5,
                             n_replicas=1, regions="balls")
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (moll.epsilon,)),
                           grid)
    m = ms.exponentiate(plan.sample(5, 0))
    halfwidth = (grid.length - 2 * kernel.scale) / 2.0
    assert len(rep.rows) == len(cs)
    for row in rep.rows:
        centers = est._ball_centers(grid, halfwidth, row.c)
        assert len(centers) == max(1, int(halfwidth // row.c)) ** 2
        want = np.mean([ms.region_mass(m, ms.Ball(ctr, row.c), margin=0.0)
                        for ctr in centers])
        assert abs(row.moment - want) <= 1e-12 * want


def test_moment_scaling_mean_slope_is_dimension():
    kernel, moll, grid = _small_setup()
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    rep = est.moment_scaling(kernel, moll, grid, [1.0], cs, seed=7,
                             n_replicas=150)
    slope, se, r2 = rep.zeta_hat[1.0]
    assert abs(slope - 1.0) < max(4 * se, 0.02)
    assert rep.zeta_analytic[1.0] == 1.0
    assert r2 > 0.999
    assert all(np.isfinite(r.se) for r in rep.rows)


def test_moment_scaling_importance_sampling_unbiased_mean():
    # the weighted estimator must still return E[m(c)] = c for p = 1
    # even when tilted components are active
    kernel, moll, grid = _small_setup()
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    rep = est.moment_scaling(kernel, moll, grid, [1.0, 2.0], cs, seed=11,
                             n_replicas=300)
    for row in rep.rows:
        if row.p == 1.0:
            assert abs(row.moment - row.c) < 4 * row.se + 1e-4


def test_moment_scaling_second_moment_against_quadrature():
    # independent oracle: E[m(c)^2] = 2 int_0^c (c-x) e^(q_eps(x)) dx
    import warnings
    from scipy.integrate import quad
    kernel, moll, grid = _small_setup()
    xs = np.concatenate([[0.0], np.geomspace(moll.epsilon / 64, 0.3, 200)])
    qs = kn.mollified_covariance(kernel, moll, xs)

    def q(x):
        return np.interp(x, xs, qs) if x <= 0.3 \
            else 0.5 * max(np.log(1.0 / x), 0.0)

    c = 2.0 ** -4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exact, _ = quad(lambda x: 2 * (c - x) * np.exp(q(x)), 0, c, limit=300)
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    rep = est.moment_scaling(kernel, moll, grid, [2.0], cs, seed=13,
                             n_replicas=400)
    row = [r for r in rep.rows if abs(r.c - c) < 1e-12 and r.p == 2.0][0]
    assert abs(row.moment - exact) < 4 * row.se + 0.01 * exact


@pytest.mark.parametrize("d, n", [(1, 2 ** 12), (2, 2 ** 11)])
def test_box_moments_are_mean_tile_masses(d, n):
    # p = 1 and one replica: no tilt and unit weight, so each row is the
    # mean of the Box masses of the w-cell cubes that tile the window
    # [i_lo, i_hi) from i_lo along every axis
    kernel = kn.KernelSpec(d, 0.5, 1.0)
    grid = fd.GridSpec(d, n, 2.5)
    h = grid.step
    moll = kn.MollifierSpec("gaussian", 4 * h, d)
    cs = [8 * h * 2 ** k for k in range(5)]
    rep = est.moment_scaling(kernel, moll, grid, [1.0], cs, seed=21,
                             n_replicas=1)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (moll.epsilon,)),
                           grid)
    measure = ms.exponentiate(plan.sample(21, 0))
    axis = grid.axis_coordinates(0)
    halfwidth = (grid.length - 2 * kernel.scale) / 2
    i_lo, i_hi = np.searchsorted(axis, [-halfwidth, halfwidth])
    assert len(rep.rows) == len(cs)
    for row in rep.rows:
        w = int(round(row.c / h))
        edges = axis[i_lo:i_hi:w] - h / 2   # tile corners per axis
        k = (i_hi - i_lo - 1) // w
        tiles = [ms.Box(lo, hi) for lo, hi in zip(
            itertools.product(edges[:k], repeat=d),
            itertools.product(edges[1:k + 1], repeat=d))]
        want = np.mean([ms.region_mass(measure, b, margin=0.0)
                        for b in tiles])
        assert abs(row.moment - want) <= 1e-12 * want


def test_negative_moment_on_balls():
    kernel, moll, grid = _small_setup()
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    rep = est.moment_scaling(kernel, moll, grid, [-1.0], cs, seed=5,
                             n_replicas=250, regions="balls")
    slope, se, _ = rep.zeta_hat[-1.0]
    # zeta_(-1) = -1.5 for d=1, lam2=0.5; negative moments are light-tailed
    assert abs(slope - (-1.5)) < max(4 * se, 0.15)


def test_scaling_report_io(tmp_path):
    kernel, moll, grid = _small_setup()
    cs = [2.0 ** -k for k in range(7, 2, -1)]
    rep = est.moment_scaling(kernel, moll, grid, [0.5], cs, seed=3,
                             n_replicas=30)
    path = tmp_path / "scaling.csv"
    rep.write(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,c,moment,se,flagged"
    assert len(lines) == 1 + len(cs)
    import json
    side = json.loads((tmp_path / "scaling.csv.json").read_text())
    assert "zeta_hat" in side and "ladder_digest" in side


# ----------------------------------------------------------------------
# scale invariance
# ----------------------------------------------------------------------

def test_scale_invariance_pure_statistics_null():
    rng = np.random.default_rng(1)
    n = 3000
    d, lam2, c = 1, 0.5, 0.5
    mu, sig = -0.3, 0.4
    ln_a = rng.normal(mu, sig, n)
    omega = rng.normal(-(d + lam2 / 2) * np.log(2.0),
                       np.sqrt(lam2 * np.log(2.0)), n)
    ln_ca = rng.normal(mu, sig, n) + omega
    rep = est.scale_invariance_test(ln_a, ln_ca, c, d, lam2, seed=2)
    assert abs(rep.mean_shift - rep.mean_shift_target) < 3 * rep.mean_shift_se
    assert abs(rep.var_gain - rep.var_gain_target) < 3 * rep.var_gain_se
    assert not rep.ks_rejected


def test_scale_invariance_detects_wrong_law():
    rng = np.random.default_rng(4)
    n = 4000
    ln_a = rng.normal(0.0, 0.5, n)
    ln_ca = rng.normal(0.0, 0.5, n)      # no shift at all
    rep = est.scale_invariance_test(ln_a, ln_ca, 0.5, 1, 0.5, seed=9)
    assert rep.ks_rejected


def test_scale_invariance_trivial_c():
    rng = np.random.default_rng(8)
    n = 2000
    ln_a = rng.normal(0.0, 0.5, n)
    ln_ca = rng.normal(0.0, 0.5, n)
    rep = est.scale_invariance_test(ln_a, ln_ca, 1.0, 1, 0.5, seed=10)
    assert rep.mean_shift_target == 0.0
    assert rep.var_gain_target == 0.0
    assert not rep.ks_rejected


def test_run_scale_invariance_refuses_remainder():
    kernel = kn.KernelSpec(1, 0.5, 1.0, kn.Remainder("constant", 0.2))
    grid = fd.GridSpec(1, 2 ** 10, 4.0)
    with pytest.raises(ValidationError):
        est.run_scale_invariance(kernel, "gaussian", grid, side=0.5, c=0.5,
                                 eps_a=2 ** -5, seed=1, n_replicas=10)


def test_run_scale_invariance_refuses_wide_region():
    kernel = kn.KernelSpec(3, 1.0, 1.0)
    grid = fd.GridSpec(3, 2 ** 5, 3.0)
    with pytest.raises(ValidationError):
        est.run_scale_invariance(kernel, "gaussian", grid, side=0.9, c=0.5,
                                 eps_a=0.2, seed=1, n_replicas=10)


@pytest.mark.parametrize("n", [1, 0])
def test_run_scale_invariance_refuses_fewer_than_two_replicas(monkeypatch, n):
    # one replica gives a variance of one sample per region
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    grid = fd.GridSpec(1, 2 ** 10, 4.0)
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError, match=f"got {n}"):
        est.run_scale_invariance(kernel, "gaussian", grid, side=0.5, c=0.5,
                                 eps_a=2 ** -5, seed=1, n_replicas=n)


@pytest.mark.parametrize("c", [0.0, 1.5])
def test_run_scale_invariance_refuses_c_before_drawing(monkeypatch, c):
    # refused by name before any draw: c = 0 would otherwise reach
    # MollifierSpec as the epsilon c * eps_a, and c = 1.5 would reach
    # scale_invariance_test only after both ensembles
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    grid = fd.GridSpec(1, 2 ** 10, 4.0)

    def no_trace(*args, **kwargs):
        raise AssertionError("an ensemble was drawn")

    monkeypatch.setattr(ms, "convergence_trace", no_trace)
    with pytest.raises(ValidationError,
                       match=rf"^c must lie in \(0, 1\], got {c!r}$"):
        est.run_scale_invariance(kernel, "gaussian", grid, side=0.5, c=c,
                                 eps_a=2 ** -5, seed=1, n_replicas=4)


def test_run_scale_invariance_small_d1():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    grid = fd.GridSpec(1, 2 ** 13, 4.0)
    rep = est.run_scale_invariance(kernel, "gaussian", grid, side=0.5,
                                   c=0.5, eps_a=2 ** -7, seed=21,
                                   n_replicas=250, n_permutations=200)
    assert abs(rep.mean_shift - rep.mean_shift_target) < 4 * rep.mean_shift_se
    assert abs(rep.var_gain - rep.var_gain_target) < 4 * rep.var_gain_se
    assert not rep.ks_rejected


@pytest.mark.parametrize("d, n", [(1, 2 ** 12), (2, 64), (3, 32)])
def test_ln_box_masses_are_region_masses_of_whole_grid_samples(d, n):
    kernel = kn.KernelSpec(d, 0.5, 1.0)
    grid = fd.GridSpec(d, n, 3.0)
    got = est._ln_box_masses(kernel, "gaussian", grid, 0.5, 0.3, 7, 4)
    plan = fd.SpectralPlan(fd.build_ladder(
        kernel, kn.MollifierSpec("gaussian", 0.3, d), (0.3,)), grid)
    box = ms.Box((0.0,) * d, (0.5,) * d)
    want = [np.log(ms.region_mass(ms.exponentiate(plan.sample(7, rep)), box,
                                  margin=0.0)) for rep in range(4)]
    assert got.tolist() == want


# ----------------------------------------------------------------------
# degeneracy scan
# ----------------------------------------------------------------------

def test_degeneracy_scan_shapes_and_plateau():
    grid = fd.GridSpec(1, 2 ** 12, 4.0)
    eps = fd.geometric_schedule(2 ** -3, 5)
    region = ms.Box((0.0,), (1.0,))
    rep = est.degeneracy_scan([0.5], 1, 1.0, "gaussian", grid, eps, region,
                              alpha=0.5, seed=6, n_replicas=120)
    fit = rep.fits[0]
    assert fit.plateau
    assert abs(fit.exponent) < 0.05
    assert abs(fit.predicted - (1.0 - est.zeta(0.5, 1, 0.5))) < 1e-12


def test_degeneracy_scan_needs_shells():
    grid = fd.GridSpec(1, 2 ** 10, 4.0)
    region = ms.Box((0.0,), (1.0,))
    with pytest.raises(ValidationError):
        est.degeneracy_scan([0.5], 1, 1.0, "gaussian", grid,
                            (0.1, 0.05), region, 0.5, 1, 10)


@pytest.mark.parametrize("lam2_list, alpha", [
    ([], 0.5), ([0.5], -1.0), ([0.5], 0.0), ([0.5], 1.0), ([0.5], 5.0),
    ([0.5], np.nan),
], ids=["lam2-empty", "alpha-negative", "alpha-zero", "alpha-one",
        "alpha-five", "alpha-nan"])
def test_degeneracy_scan_refuses_inputs(monkeypatch, lam2_list, alpha):
    grid = fd.GridSpec(1, 2 ** 10, 4.0)
    eps = fd.geometric_schedule(2 ** -3, 5)
    region = ms.Box((0.0,), (1.0,))
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError):
        est.degeneracy_scan(lam2_list, 1, 1.0, "gaussian", grid, eps,
                            region, alpha, 1, 10)


@pytest.mark.parametrize("n", [1, 0])
def test_degeneracy_scan_refuses_fewer_than_two_replicas(monkeypatch, n):
    # one replica gives an exponent_se of round-off, from a single sample
    grid = fd.GridSpec(1, 2 ** 10, 4.0)
    eps = fd.geometric_schedule(2 ** -3, 5)
    region = ms.Box((0.0,), (1.0,))
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError, match=f"got {n}"):
        est.degeneracy_scan([0.5], 1, 1.0, "gaussian", grid, eps, region,
                            alpha=0.5, seed=1, n_replicas=n)


def test_degeneracy_report_io(tmp_path):
    grid = fd.GridSpec(1, 2 ** 11, 4.0)
    eps = fd.geometric_schedule(2 ** -3, 4)
    region = ms.Box((0.0,), (1.0,))
    rep = est.degeneracy_scan([0.5], 1, 1.0, "gaussian", grid, eps, region,
                              alpha=0.5, seed=6, n_replicas=30)
    rep.write(tmp_path / "deg.csv")
    lines = (tmp_path / "deg.csv").read_text().strip().splitlines()
    assert lines[0].startswith("lam2,alpha,exponent")
    assert len(lines) == 2


# ----------------------------------------------------------------------
# lognormality of dissipation
# ----------------------------------------------------------------------

def test_lognormality_report_recovers_slope():
    # synthetic lognormal samples with the exact law sigma_l^2 =
    # lam2 ln(R/l) + A and unit mean
    rng = np.random.default_rng(12)
    lam2, A, R = 1.0, 0.2, 1.0
    samples = {}
    for l in (0.5, 0.25, 0.125, 0.0625):
        s2 = lam2 * np.log(R / l) + A
        samples[l] = np.exp(rng.normal(-s2 / 2.0, np.sqrt(s2), 4000))
    rep = est.lognormality_report(samples, R)
    assert abs(rep.slope - lam2) < 4 * rep.slope_se
    assert abs(rep.intercept - A) < 0.15
    for m, se in zip(rep.means, rep.mean_ses):
        assert abs(m - 1.0) < 4 * se
    for z in rep.skew_z:
        assert abs(z) < 4.0


def test_lognormality_zero_intermittency_slope():
    rng = np.random.default_rng(3)
    samples = {l: np.exp(rng.normal(0.0, 0.05, 2000))
               for l in (0.5, 0.25, 0.125)}
    rep = est.lognormality_report(samples, 1.0)
    assert abs(rep.slope) < 4 * rep.slope_se + 1e-3


def test_dissipation_constant_for_tiny_intermittency():
    samples, _ = est.run_dissipation(1e-10, 1.0, [0.5, 0.4], seed=3,
                                     n_replicas=2, mean_eps=2.0,
                                     n_side=2 ** 5)
    for vals in samples.values():
        np.testing.assert_allclose(vals, 2.0, rtol=1e-4)


def test_dissipation_refuses_repeated_radius(monkeypatch):
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError):
        est.run_dissipation(1.0, 1.0, [0.5, 0.5, 0.4], seed=1,
                            n_replicas=2, n_side=2 ** 5)


def test_dissipation_refuses_empty_ensemble(monkeypatch):
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError, match="n_replicas >= 1, got 0"):
        est.run_dissipation(1.0, 1.0, [0.5, 0.4], seed=1, n_replicas=0,
                            n_side=2 ** 5)


@pytest.mark.parametrize("mean_eps", [-1.0, 0.0, np.inf, np.nan])
def test_dissipation_refuses_mean_eps(monkeypatch, mean_eps):
    monkeypatch.setattr(est, "SpectralPlan", no_plan)
    with pytest.raises(ValidationError, match="mean_eps"):
        est.run_dissipation(1.0, 1.0, [0.5, 0.4], seed=1, n_replicas=2,
                            mean_eps=mean_eps, n_side=2 ** 5)


def test_dissipation_mean_normalization():
    # the discrete ball volume makes E eps_l = <eps> exactly
    samples, _ = est.run_dissipation(1.0, 1.0, [0.5, 0.4], seed=41,
                                     n_replicas=100, mean_eps=2.0,
                                     n_side=2 ** 5)
    for vals in samples.values():
        assert abs(vals.mean() - 2.0) < 3 * vals.std() / np.sqrt(len(vals))


def test_dissipation_samples_are_region_masses_of_whole_grid_samples():
    # run_dissipation builds, for radius i (largest first), the torus
    # L = R + 2l + 0.1 at n_side, a Gaussian mollifier at 0.4 l and seed + i
    samples, _ = est.run_dissipation(1.0, 1.0, [0.4, 0.5], seed=41,
                                     n_replicas=3, mean_eps=2.0,
                                     n_side=2 ** 5)
    for i, l in enumerate((0.5, 0.4)):
        grid = fd.GridSpec(3, 2 ** 5, 1.0 + 2.0 * l + 0.1)
        moll = kn.MollifierSpec("gaussian", 0.4 * l, 3)
        plan = fd.SpectralPlan(fd.build_ladder(
            kn.KernelSpec(3, 1.0, 1.0), moll, (0.4 * l,)), grid)
        ball = ms.Ball((0.0, 0.0, 0.0), l)
        want = [2.0 * ms.region_mass(ms.exponentiate(plan.sample(41 + i, rep)),
                                     ball, margin=0.0)
                / ms.region_volume(grid, ball) for rep in range(3)]
        assert samples[l].tolist() == want


def test_dissipation_report_io(tmp_path):
    rng = np.random.default_rng(5)
    samples = {l: np.exp(rng.normal(0.0, 0.3, 200))
               for l in (0.5, 0.25, 0.125, 0.0625)}
    rep = est.lognormality_report(samples, 1.0)
    rep.write(tmp_path / "diss.csv")
    lines = (tmp_path / "diss.csv").read_text().strip().splitlines()
    assert len(lines) == 5
