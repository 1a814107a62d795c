import json

import numpy as np
import pytest
from scipy.integrate import quad

from gmclab import kernels as kn
from gmclab import spectral as sp
from gmclab.errors import GateError, ValidationError


# ----------------------------------------------------------------------
# eval_kernel
# ----------------------------------------------------------------------

def test_eval_kernel_at_scale_vanishes():
    spec = kn.KernelSpec(1, 1.0, 1.0)
    assert kn.eval_kernel(spec, 1.0) == 0.0


def test_eval_kernel_plain_log_value():
    spec = kn.KernelSpec(3, 2.0, 1.0)
    assert abs(kn.eval_kernel(spec, np.exp(-1.0)) - 2.0) < 1e-14


def test_eval_kernel_remainder_only_outside_support():
    spec = kn.KernelSpec(1, 1.0, 1.0, kn.Remainder("constant", 0.3))
    assert abs(kn.eval_kernel(spec, 2.0) - 0.3) < 1e-15


def test_table_remainder_is_zero_beyond_its_last_radius():
    # the tail that kernel_hat transforms and the certificate integrates
    spec = kn.KernelSpec(1, 1.0, 1.0,
                         kn.Remainder("table", radii=[0.0, 1.0],
                                      values=[-0.1, -0.1]))
    assert kn.eval_kernel(spec, 1.5) == 0.0
    assert kn.eval_kernel(spec, 0.5) == np.log(2.0) - 0.1


def test_eval_kernel_singular_sentinel():
    spec = kn.KernelSpec(1, 1.0, 1.0)
    assert np.isinf(kn.eval_kernel(spec, 0.0))


def test_eval_kernel_monotone_without_remainder():
    spec = kn.KernelSpec(2, 0.7, 1.3)
    r = np.linspace(1e-4, 3.0, 500)
    v = kn.eval_kernel(spec, r)
    assert np.all(np.diff(v) <= 1e-14)


def test_kernel_spec_validation():
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, 2.0, 1.0)      # lam2 = 2d
    with pytest.raises(GateError):
        kn.KernelSpec(4, 1.0, 1.0)      # sign-oscillating spectral density
    with pytest.raises(ValidationError):
        kn.KernelSpec(0, 1.0, 1.0)      # dimension
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, -0.5, 1.0)
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, 0.5, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kernel_spec_refuses_non_finite_numbers(bad):
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, bad, 1.0)
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, 0.5, bad)
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, 0.5, 1.0, kn.Remainder("constant", value=bad))
    with pytest.raises(ValidationError):
        kn.KernelSpec(1, 0.5, 1.0, kn.Remainder("table", radii=[0.0, 1.0],
                                                values=[bad, 0.0]))


# ----------------------------------------------------------------------
# cone construction
# ----------------------------------------------------------------------

def test_cone_d1_is_pure_log():
    assert abs(kn.eval_cone_kernel(1.0, 1.0, 1, 0.5) - np.log(2.0)) < 1e-14
    assert abs(kn.eval_cone_kernel(2.5, 2.0, 1, 0.5) - 2.5 * np.log(4.0)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cone_vanishes_at_scale(d):
    assert kn.eval_cone_kernel(1.0, 1.0, d, 1.0) == 0.0
    assert kn.eval_cone_kernel(1.0, 1.0, d, 1.7) == 0.0
    assert kn.eval_cone_kernel(1.0, 1.0, d, 0.0) == np.inf


def _cone_brute_force_d2(s, T=1.0, ny=301, nt=1200):
    """Independent dense-grid quadrature over (y, t) of the cone overlap."""
    ys = np.linspace(-T, T, ny)
    dy = ys[1] - ys[0]
    y1, y2 = np.meshgrid(ys, ys, indexing="ij")
    ts = np.geomspace(max(s, 1e-3) * 0.999, T, nt)
    tm = np.sqrt(ts[1:] * ts[:-1])
    dt = np.diff(ts)
    total = 0.0
    for t, w in zip(tm, dt):
        rt = t / 2.0
        inside = (y1 ** 2 + y2 ** 2 <= rt * rt) \
            & ((y1 - s) ** 2 + y2 ** 2 <= rt * rt)
        total += inside.sum() * dy * dy * w / t ** 3
    rt = T / 2.0
    inside = (y1 ** 2 + y2 ** 2 <= rt * rt) \
        & ((y1 - s) ** 2 + y2 ** 2 <= rt * rt)
    total += inside.sum() * dy * dy / (2.0 * T ** 2)
    return total


def test_cone_d2_against_dense_grid():
    for s in (0.3, 0.5, 0.8):
        brute = _cone_brute_force_d2(s)
        lens = kn.eval_cone_kernel(1.0, 1.0, 2, s)
        assert abs(brute - lens) < 5e-4


def test_cone_d2_log_plus_bounded_remainder():
    # Example decomposition: f_cone = ln+(T/r) + g with g bounded;
    # check the remainder is bounded on a grid and the value at r = 0.5
    # sits within sup|g| of ln 2.
    rem = kn.cone_remainder_table(1.0, 1.0, 2, n=65)
    assert np.isfinite(rem.sup)
    v = kn.eval_cone_kernel(1.0, 1.0, 2, 0.5)
    assert abs(v - np.log(2.0)) <= rem.sup + 1e-9


def test_cone_d3_scaling_in_lam2():
    a = kn.eval_cone_kernel(1.0, 1.0, 3, 0.4)
    b = kn.eval_cone_kernel(3.0, 1.0, 3, 0.4)
    assert abs(b - 3.0 * a) < 1e-10


# ----------------------------------------------------------------------
# sigma-positive layers
# ----------------------------------------------------------------------

def test_layer_vanishes_beyond_scale():
    for n in (1, 2, 5):
        assert kn.sigma_positive_layer(n, 1, 1.0, 1.2) == 0.0


@pytest.mark.parametrize("d,r,target", [
    (1, 0.5, np.log(2.0)),
    (2, 0.25, np.log(4.0)),
])
def test_layer_partial_sums_reach_log(d, r, target):
    # oracle: the layers integrate (t - r^mu)+ against nu over bands, so
    # the total is the direct quadrature of the full integral
    mu = 1.0 if d == 1 else 0.5
    s = r ** mu
    direct, _ = quad(lambda t: (t - s) / t ** 2, s, 1.0)
    direct += (1.0 - s)  # atom at T^mu = 1 with mass 1
    direct /= mu
    assert abs(direct - target) < 1e-12
    partial = sum(kn.sigma_positive_layer(n, d, 1.0, r) for n in range(1, 80))
    assert abs(partial - target) < 1e-12


def test_layer_sum_exact_at_finite_depth():
    # bands below r^mu contribute nothing: the sum terminates exactly
    r = 0.5
    full = sum(kn.sigma_positive_layer(n, 1, 1.0, r) for n in range(1, 3))
    assert abs(full - np.log(2.0)) < 1e-14


def test_layers_nonnegative_nonincreasing():
    r = np.linspace(0.0, 1.5, 400)
    for d in (1, 2):
        for n in (1, 2, 3, 7):
            v = kn.sigma_positive_layer(n, d, 1.0, r)
            assert np.all(v >= 0)
            assert np.all(np.diff(v) <= 1e-14)


def test_layer_validation():
    with pytest.raises(ValidationError):
        kn.sigma_positive_layer(0, 1, 1.0, 0.5)
    with pytest.raises(ValidationError):
        kn.sigma_positive_layer(1, 3, 1.0, 0.5)


# ----------------------------------------------------------------------
# mollifiers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind,dim", [("gaussian", 1), ("gaussian", 2),
                                      ("gaussian", 3), ("fejer", 1)])
def test_mollifier_admissibility(kind, dim):
    # the shells take theta_hat as a unit-mass profile that decreases in |u|
    moll = kn.MollifierSpec(kind, 0.05, dim)
    assert moll.theta_hat(0.0) == 1.0
    th = moll.theta_hat(np.linspace(0.0, 4.0, 512))
    assert np.all(np.diff(th) <= 1e-15)
    # theta transforms to theta_hat; the Fejer profile decays as 1/r^2, so
    # its transform needs a long support and carries its truncation error
    support, tol = (12.0, 1e-12) if kind == "gaussian" else (2000.0, 2e-4)
    u = np.array([0.0, 0.3, 0.6, 1.2])
    got, _ = sp.radial_fourier_grid(moll.theta, dim, u, support)
    assert np.max(np.abs(got - moll.theta_hat(u))) < tol


def test_fejer_restricted_to_d1():
    with pytest.raises(ValidationError):
        kn.MollifierSpec("fejer", 0.05, 2)


def test_mollifier_validation():
    with pytest.raises(ValidationError):
        kn.MollifierSpec("gaussian", 0.0, 1)
    with pytest.raises(ValidationError):
        kn.MollifierSpec("boxcar", 0.1, 1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            kn.MollifierSpec("gaussian", bad, 1)


# ----------------------------------------------------------------------
# mollified covariance
# ----------------------------------------------------------------------

def _real_space_convolution(spec, moll, x, half_width=40.0):
    """Independent oracle: q_eps(x) = int theta(v) f(x - eps v) dv in d=1."""
    eps = moll.epsilon

    def integrand(v):
        r = abs(x - eps * v)
        f = spec.lam2 * max(np.log(spec.scale / r), 0.0) if r > 0 else 60.0
        return moll.theta(np.array([abs(v)]))[0] * f

    sing = x / eps
    pts = [p for p in (sing, 0.0) if -half_width < p < half_width]
    val, err = quad(integrand, -half_width, half_width, points=pts, limit=800)
    return val


def test_mollified_covariance_matches_real_space_oracle():
    spec = kn.KernelSpec(1, 1.0, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.01, 1)
    for r in (0.5, 0.1):
        spectral = kn.mollified_covariance(spec, moll, r)
        direct = _real_space_convolution(spec, moll, r)
        assert abs(spectral - direct) < 1e-6
    # mollification barely moves the kernel away from the singularity
    assert abs(kn.mollified_covariance(spec, moll, 0.5) - np.log(2.0)) < 0.01


def test_mollified_covariance_at_zero_log_divergence():
    spec = kn.KernelSpec(1, 1.0, 1.0)
    offsets = []
    for eps in (1e-2, 1e-3):
        moll = kn.MollifierSpec("gaussian", eps, 1)
        offsets.append(kn.mollified_covariance(spec, moll, 0.0)
                       - np.log(1.0 / eps))
    # q_eps(0) = ln(1/eps) + Q(0) + o(1): the offset stabilizes
    assert abs(offsets[0] - offsets[1]) < 0.01
    assert all(abs(o) < 2.0 for o in offsets)


def test_mollified_covariance_vanishes_beyond_support():
    spec = kn.KernelSpec(1, 1.0, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.01, 1)
    assert abs(kn.mollified_covariance(spec, moll, 1.5)) < 1e-6


def test_mollified_covariance_converges_to_kernel():
    spec = kn.KernelSpec(1, 0.8, 1.0)
    r = 0.3
    gaps = []
    for eps in (1e-2, 1e-3):
        moll = kn.MollifierSpec("gaussian", eps, 1)
        gaps.append(abs(kn.mollified_covariance(spec, moll, r)
                        - kn.eval_kernel(spec, r)))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-4


def test_mollified_covariance_fejer_and_constant_remainder():
    spec = kn.KernelSpec(1, 1.0, 1.0, kn.Remainder("constant", 0.25))
    moll = kn.MollifierSpec("fejer", 0.01, 1)
    v = kn.mollified_covariance(spec, moll, 0.5)
    assert abs(v - (np.log(2.0) + 0.25)) < 0.01


def test_dimension_mismatch_rejected():
    spec = kn.KernelSpec(2, 1.0, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.01, 1)
    with pytest.raises(ValidationError):
        kn.mollified_covariance(spec, moll, 0.5)


# ----------------------------------------------------------------------
# JSON document
# ----------------------------------------------------------------------

def test_spec_json_roundtrip():
    spec = kn.KernelSpec(2, 0.7, 1.5, kn.Remainder("constant", 0.1))
    moll = kn.MollifierSpec("gaussian", 0.02, 2)
    doc = json.dumps(kn.spec_to_json(spec, moll))
    parsed = json.loads(doc)
    assert set(parsed) == {"dimension", "lambda2", "scale", "remainder",
                           "mollifier"}
    spec2, moll2 = kn.spec_from_json(parsed)
    assert spec2.dimension == 2 and spec2.lam2 == 0.7 and spec2.scale == 1.5
    assert spec2.remainder.value == 0.1
    assert moll2.kind == "gaussian" and moll2.epsilon == 0.02


@pytest.mark.parametrize("section", ["remainder", "mollifier"])
@pytest.mark.parametrize("value", ["zero", None])
def test_spec_json_refuses_a_section_that_is_not_an_object(section, value):
    with pytest.raises(ValidationError, match=f"{section} must be a JSON"):
        kn.spec_from_json({"dimension": 1, "lambda2": 0.5, section: value})


def test_spec_json_table_remainder_roundtrip():
    radii = np.linspace(0.0, 1.0, 8)
    vals = 0.2 * np.cos(radii)
    spec = kn.KernelSpec(1, 0.5, 1.0,
                         kn.Remainder("table", radii=radii, values=vals))
    moll = kn.MollifierSpec("fejer", 0.05, 1)
    spec2, moll2 = kn.spec_from_json(kn.spec_to_json(spec, moll))
    assert spec2.remainder.kind == "table"
    assert abs(spec2.remainder(0.5) - spec.remainder(0.5)) < 1e-15


def test_remainder_transform_cached_on_table_contents():
    radii = np.linspace(0.0, 1.0, 9)

    def spec(values):
        return kn.KernelSpec(1, 0.5, 1.0, kn.Remainder(
            "table", radii=radii.copy(), values=values))

    before = len(kn._TABLE_HATS)
    a = kn.kernel_hat(spec(0.17 * np.cos(radii)))
    b = kn.kernel_hat(spec(0.17 * np.cos(radii)))
    c = kn.kernel_hat(spec(0.23 * np.cos(radii)))
    assert len(kn._TABLE_HATS) == before + 2
    assert a(0.0) == b(0.0)
    assert a(0.0) != c(0.0)


def _gate_verdict(spec):
    try:
        kn._table_hat(spec)
    except GateError as exc:
        return exc.detail["certificate"]
    return sp.CERT_NONNEGATIVE


@pytest.mark.parametrize("make", [
    lambda: kn.KernelSpec(1, 0.5, 1.0, kn.cone_remainder_table(0.5, 1.0, 1)),
    lambda: kn.KernelSpec(2, 0.5, 1.0, kn.cone_remainder_table(0.5, 1.0, 2)),
    lambda: kn.KernelSpec(3, 0.5, 1.0, kn.cone_remainder_table(0.5, 1.0, 3)),
    lambda: kn.KernelSpec(1, 0.5, 1.0, kn.Remainder(
        "table", radii=[0.0, 0.3, 0.7, 1.0], values=[0.4, 0.25, 0.1, 0.0])),
    # 0.1 ln+(1/r) - 0.3 (1 - r)_+: negative at xi = 0, positive beyond
    lambda: kn.KernelSpec(1, 0.1, 1.0, kn.Remainder(
        "table", radii=[0.0, 1.0], values=[-0.3, 0.0])),
], ids=["cone-d1", "cone-d2", "cone-d3", "table-d1", "indeterminate-d1"])
def test_table_gate_verdict_matches_the_full_profile_certificate(
        make, monkeypatch):
    # the gate certifies lam2 logplus_hat + the table's transform; the full
    # profile through eval_kernel and the quadrature gives the same verdict
    monkeypatch.setattr(kn, "_TABLE_HATS", {})
    spec = make()
    full = sp.check_positive_definite(
        lambda r: kn.eval_kernel(spec, np.maximum(r, 1e-12)),
        spec.dimension, support=spec.scale).certificate
    assert _gate_verdict(spec) == full
    if spec.lam2 == 0.1:
        assert full == sp.CERT_INDETERMINATE
    else:
        assert full == sp.CERT_NONNEGATIVE


def test_table_gate_integrates_the_table_beyond_the_log_scale(monkeypatch):
    # a remainder that reaches past R: the gate transforms all of it, as
    # kernel_hat does, and agrees with the full profile integrated over the
    # table's support; the profile cut at R jumps there and oscillates
    monkeypatch.setattr(kn, "_TABLE_HATS", {})
    rem = kn.Remainder("table", radii=[0.0, 0.5, 1.5],
                       values=[-0.05, -0.02, 0.0])
    spec = kn.KernelSpec(3, 0.5, 1.0, rem)

    def full(support):
        return sp.check_positive_definite(
            lambda r: kn.eval_kernel(spec, np.maximum(r, 1e-12)), 3,
            support=support).certificate

    assert _gate_verdict(spec) == full(1.5) == sp.CERT_NONNEGATIVE
    assert full(1.0) == sp.CERT_OSCILLATING
