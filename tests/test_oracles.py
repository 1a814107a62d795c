import numpy as np
import pytest

from gmclab import oracles as oc
from gmclab.errors import ValidationError


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_gaussian_vector_spec_validation():
    with pytest.raises(ValidationError):
        oc.GaussianVectorSpec([[1.0, 0.9], [0.9, 0.5]])   # not PSD
    with pytest.raises(ValidationError):
        oc.GaussianVectorSpec([[1.0, 0.2], [0.1, 1.0]])   # not symmetric
    with pytest.raises(ValidationError):
        oc.GaussianVectorSpec([[1.0]], weights=[-1.0])
    spec = oc.GaussianVectorSpec([[1.0, 0.5], [0.5, 1.0]])
    assert spec.size == 2
    np.testing.assert_array_equal(spec.weights, [1.0, 1.0])


# ----------------------------------------------------------------------
# interpolation derivative (Gaussian interpolation identity)
# ----------------------------------------------------------------------

def test_interpolation_identical_specs_both_sides_zero():
    s = oc.GaussianVectorSpec([[0.6, 0.1], [0.1, 0.4]])
    v = oc.interpolation_derivative_check(s, s, ("power", 0.4), 0.5)
    assert abs(v.detail["fd_value"]) < 1e-9
    assert v.detail["formula_value"] == 0.0
    assert v.passed


def test_interpolation_n1_square_closed_form():
    # phi(u) = u^2: Phi(t) = e^(t a + (1-t) b), derivative (a-b) Phi(t)
    a, b, t = 0.8, 0.3, 0.4
    sx = oc.GaussianVectorSpec([[a]])
    sy = oc.GaussianVectorSpec([[b]])
    v = oc.interpolation_derivative_check(sx, sy, ("square",), t)
    closed = (a - b) * np.exp(t * a + (1 - t) * b)
    assert abs(v.detail["formula_value"] - closed) < 1e-10
    assert abs(v.detail["fd_value"] - closed) < 1e-6
    assert v.passed


@pytest.mark.parametrize("phi", [("power", 0.4), ("exp_neg",)])
def test_interpolation_n2_residual_within_budget(phi):
    sx = oc.GaussianVectorSpec([[0.5, 0.0], [0.0, 0.5]])
    sy = oc.GaussianVectorSpec([[0.5, 0.3], [0.3, 0.5]])
    for t in (0.25, 0.5, 0.75):
        v = oc.interpolation_derivative_check(sx, sy, phi, t)
        assert v.passed
        assert v.detail["residual"] <= v.budget


def test_interpolation_residual_shrinks_like_h_squared(monkeypatch):
    sx = oc.GaussianVectorSpec([[0.5, 0.0], [0.0, 0.5]])
    sy = oc.GaussianVectorSpec([[0.5, 0.3], [0.3, 0.5]])
    r = []
    for h in (2e-2, 1e-2):
        monkeypatch.setattr(oc, "_FD_STEP", h)
        v = oc.interpolation_derivative_check(sx, sy, ("power", 0.4), 0.5)
        assert v.detail["fd_step"] == h
        r.append(abs(v.detail["fd_value"] - v.detail["formula_value"]))
    # central differences: error ratio ~ 4 at half step
    assert r[1] < r[0]
    assert r[0] / max(r[1], 1e-16) > 2.0


def test_interpolation_infinite_quadrature_difference_is_not_certified(
        monkeypatch):
    # the 56-node expectations come out infinite, so the 48/56 difference
    # that bounds the quadrature error is infinite too
    gh_mean = oc._gh_mean

    def diverging(stat, cov, weights, order):
        return np.inf if order > oc._GH_ORDER else gh_mean(stat, cov,
                                                           weights, order)

    monkeypatch.setattr(oc, "_gh_mean", diverging)
    sx = oc.GaussianVectorSpec([[0.5, 0.0], [0.0, 0.5]])
    sy = oc.GaussianVectorSpec([[0.5, 0.3], [0.3, 0.5]])
    v = oc.interpolation_derivative_check(sx, sy, ("power", 0.4), 0.5)
    assert v.detail["quadrature_error"] == np.inf
    assert not v.certified and v.inconclusive


def test_interpolation_formula_is_the_per_pair_sum_n3():
    # 1/2 sum_ij (cx - cy)_ij E[u_i u_j phi''(W)], one quadrature per pair
    cx = np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]])
    cy = cx + np.array([[0.2, 0.1, 0.15], [0.1, 0.1, 0.05],
                        [0.15, 0.05, 0.2]])
    p, a, t = np.array([1.0, 0.5, 2.0]), 0.25, 0.3
    v = oc.interpolation_derivative_check(oc.GaussianVectorSpec(cx, p),
                                          oc.GaussianVectorSpec(cy, p),
                                          ("power", a), t)
    cov = t * cx + (1.0 - t) * cy
    ref = 0.0
    for i in range(3):
        for j in range(3):
            ref += 0.5 * (cx - cy)[i, j] * oc._gh_mean(
                lambda u, i=i, j=j: u[:, i] * u[:, j] * a * (a - 1.0)
                * u.sum(axis=1) ** (a - 2.0), cov, p, oc._GH_ORDER)
    assert ref != 0.0
    assert v.detail["formula_value"] == pytest.approx(ref, rel=1e-12, abs=0)
    assert v.passed


@pytest.mark.parametrize("check, message", [
    (lambda s, F: oc.interpolation_derivative_check(s, s, F, 0.5),
     "unsupported test function"),
    (lambda s, F: oc.convex_comparison_check(s, s, F),
     "unsupported convex function"),
    (lambda s, F: oc.sup_comparison_check(s, s, F),
     "unsupported increasing function"),
], ids=["interpolation", "convex", "sup"])
def test_unknown_test_function_is_refused(check, message):
    s = oc.GaussianVectorSpec([[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(ValidationError, match=message):
        check(s, ("cube",))


def test_interpolation_validations():
    s1 = oc.GaussianVectorSpec([[1.0]])
    s2 = oc.GaussianVectorSpec([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        oc.interpolation_derivative_check(s1, s2, ("power", 0.4), 0.5)
    with pytest.raises(ValidationError):
        oc.interpolation_derivative_check(s1, s1, ("power", 1.4), 0.5)
    with pytest.raises(ValidationError):
        oc.interpolation_derivative_check(s1, s1, ("power", 0.4), 1.5)


# ----------------------------------------------------------------------
# convex comparison
# ----------------------------------------------------------------------

def test_convex_equal_specs_zero_margin():
    s = oc.GaussianVectorSpec([[0.5, 0.2], [0.2, 0.5]])
    v = oc.convex_comparison_check(s, s, ("square",))
    assert abs(v.margin) < 1e-12
    assert v.passed


def test_convex_n2_square_closed_form():
    # E[(sum p_i e^(X_i - s_i^2/2))^2] = sum p_i^2 e^(s_i^2)
    #                                    + 2 p1 p2 e^(rho)
    sx = oc.GaussianVectorSpec([[0.5, 0.0], [0.0, 0.5]])
    sy = oc.GaussianVectorSpec([[0.5, 0.3], [0.3, 0.5]])
    v = oc.convex_comparison_check(sx, sy, ("square",))
    assert abs(v.margin - 2.0 * (np.exp(0.3) - 1.0)) < 1e-10
    assert v.passed and v.margin > v.budget


def test_convex_n1_variance_ordering():
    sx = oc.GaussianVectorSpec([[0.3]])
    sy = oc.GaussianVectorSpec([[0.9]])
    v = oc.convex_comparison_check(sx, sy, ("square",))
    assert abs(v.margin - (np.exp(0.9) - np.exp(0.3))) < 1e-10


@pytest.mark.parametrize("F", [("square",), ("call", 1.0), ("power15",)])
def test_convex_holds_on_seeded_instances(F):
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(5):
        n = int(rng.integers(1, 4))
        sx, sy = oc._random_admissible_pair(rng, n)
        v = oc.convex_comparison_check(sx, sy, F)
        assert v.passed
        assert v.margin > -v.budget


def test_convex_rejects_non_dominated():
    sx = oc.GaussianVectorSpec([[0.5, 0.2], [0.2, 0.5]])
    sy = oc.GaussianVectorSpec([[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(ValidationError):
        oc.convex_comparison_check(sx, sy, ("square",))


# ----------------------------------------------------------------------
# sup comparison
# ----------------------------------------------------------------------

def test_sup_equal_specs_margin_exactly_zero():
    s = oc.GaussianVectorSpec([[1.0, 0.3], [0.3, 1.0]])
    v = oc.sup_comparison_check(s, s, ("positive_part",), seed=1,
                                n_samples=20000)
    assert v.margin == 0.0       # paired through common normals


def test_sup_n2_closed_form_margin():
    # E[max] = sigma sqrt((1-rho)/pi) for centered equal-variance pairs
    sx = oc.GaussianVectorSpec([[1.0, 0.0], [0.0, 1.0]])
    sy = oc.GaussianVectorSpec([[1.0, 0.5], [0.5, 1.0]])
    v = oc.sup_comparison_check(sx, sy, ("identity",), seed=3,
                                n_samples=400000)
    exact = np.sqrt(1.0 / np.pi) - np.sqrt(0.5 / np.pi)
    assert v.certified and v.passed
    assert abs(v.margin - exact) < 2 * v.budget


def test_sup_n3_random_admissible_holds():
    sx, sy = oc._sup_pair(np.random.Generator(np.random.Philox(11)), 3)
    v = oc.sup_comparison_check(sx, sy, ("positive_part",), seed=5,
                                n_samples=300000)
    assert v.passed
    assert v.certified


def test_sup_zero_budget_is_inconclusive():
    s = oc.GaussianVectorSpec([[1.0, 0.0], [0.0, 1.0]])
    s2 = oc.GaussianVectorSpec([[1.0, 0.5], [0.5, 1.0]])
    v = oc.sup_comparison_check(s, s2, ("positive_part",), seed=1,
                                n_samples=0)
    assert v.inconclusive


def test_sup_validations():
    sx = oc.GaussianVectorSpec([[1.0, 0.0], [0.0, 2.0]])
    sy = oc.GaussianVectorSpec([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValidationError):
        oc.sup_comparison_check(sx, sy)          # diagonals differ


# ----------------------------------------------------------------------
# sup moment growth
# ----------------------------------------------------------------------

def test_growth_exponent_tiny_p():
    # exponent x p vanishes linearly with p (x stays below 1)
    p = 0.05
    v = oc.sup_moment_growth(1.0, p, seed=2, n_samples=100000)
    assert abs(v.detail["slope"]) < p
    assert v.passed


def test_growth_exponent_below_limit_both_regimes():
    v = oc.sup_moment_growth(1.0, 1.5, seed=4, n_samples=400000)
    assert v.passed and v.certified
    assert v.detail["x_hat"] < 1.0
    v = oc.sup_moment_growth(4.0, 0.9, seed=6, n_samples=2000000)
    assert v.passed and v.certified


def test_growth_validations():
    with pytest.raises(ValidationError):
        oc.sup_moment_growth(1.0, 2.5)   # p >= 2/lam2
    with pytest.raises(ValidationError):
        oc.sup_moment_growth(4.0, 1.1)   # p >= 1
    with pytest.raises(ValidationError):
        oc.sup_moment_growth(2.0, 0.5)   # lam2 = 2 excluded


# ----------------------------------------------------------------------
# log-convolution tail
# ----------------------------------------------------------------------

def test_log_tail_gaussian_decreasing():
    gauss = lambda v: np.exp(-v * v / 2.0) / np.sqrt(2.0 * np.pi)
    sups = oc.log_convolution_tail(gauss, (1e2, 1e4), 0.6, 2.0)
    assert sups[1e4] < sups[1e2]


def test_log_tail_compact_support_vanishes():
    tri = lambda v: np.maximum(1.0 - np.abs(v), 0.0)
    sups = oc.log_convolution_tail(tri, (10.0, 100.0, 1000.0), 1.0, 10.0)
    vals = [sups[a] for a in sorted(sups)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 5e-3


# ----------------------------------------------------------------------
# aggregated battery
# ----------------------------------------------------------------------

def test_run_all_small_budget():
    verdicts = oc.run_all(seed=1, mc_samples=50000, n_random=4)
    certified_failures = [v for v in verdicts if v.certified and not v.passed]
    assert not certified_failures
    doc = oc.verdicts_to_json(verdicts)
    assert doc["all_certified_pass"]


def test_run_all_zero_budget_inconclusive_mc():
    verdicts = oc.run_all(seed=1, mc_samples=0, n_random=2)
    mc_names = [v.name for v in verdicts
                if v.name.startswith(("sup-comparison", "sup-moment"))]
    inconclusive = [v.name for v in verdicts if v.inconclusive]
    assert set(mc_names) <= set(inconclusive)
    assert not [v for v in verdicts if v.certified and not v.passed]
