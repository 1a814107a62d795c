import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmclab import field as fd
from gmclab import kernels as kn
from gmclab.errors import GateError, ValidationError


def make_plan(lam2=0.5, eps0=2 ** -4, shells=4, n=2 ** 12, length=4.0,
              kind="gaussian"):
    kernel = kn.KernelSpec(1, lam2, 1.0)
    moll = kn.MollifierSpec(kind, eps0 * 2.0 ** -shells, 1)
    ladder = fd.build_ladder(kernel, moll,
                             fd.geometric_schedule(eps0, shells))
    grid = fd.GridSpec(1, n, length)
    return fd.SpectralPlan(ladder, grid), ladder, grid


# ----------------------------------------------------------------------
# grid and ladder
# ----------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValidationError):
        fd.GridSpec(1, 100, 4.0)       # not a power of two
    with pytest.raises(ValidationError):
        fd.GridSpec(1, 64, -1.0)
    with pytest.raises(ValidationError):
        fd.GridSpec(5, 64, 4.0)
    g = fd.GridSpec(2, 64, 4.0)
    assert g.origin == (-2.0, -2.0)
    assert g.step == 0.0625
    with pytest.raises(ValidationError):
        g.check_wraparound(kernel_scale=1.5, extent=1.5)


def test_geometric_schedule():
    eps = fd.geometric_schedule(0.25, 3)
    assert eps == (0.25, 0.125, 0.0625, 0.03125)
    with pytest.raises(ValidationError):
        fd.geometric_schedule(-1.0, 3)


def test_ladder_single_base_shell():
    _, ladder, _ = make_plan(shells=0)
    assert ladder.n_stages == 1
    xi = np.array([0.5, 1.0, 3.0])
    fh = kn.kernel_hat(ladder.kernel)(xi)
    np.testing.assert_allclose(ladder.weight(0, xi),
                               fh * ladder.mollifier.theta_hat(ladder.epsilons[0] * xi),
                               rtol=1e-14)


def test_gaussian_shell_weight_formula():
    _, ladder, _ = make_plan(shells=3)
    xi = np.array([0.7, 2.0])
    fh = kn.kernel_hat(ladder.kernel)(xi)
    for k in (1, 2):
        e_hi, e_lo = ladder.epsilons[k], ladder.epsilons[k - 1]
        expected = fh * (np.exp(-2 * np.pi ** 2 * (e_hi * xi) ** 2)
                         - np.exp(-2 * np.pi ** 2 * (e_lo * xi) ** 2))
        np.testing.assert_allclose(ladder.weight(k, xi), expected, rtol=1e-13)
        assert np.all(ladder.weight(k, xi) >= 0)


def test_ladder_telescoping_identity():
    _, ladder, _ = make_plan(shells=5)
    xi = np.array([1.0])
    total = sum(ladder.weight(k, xi) for k in range(ladder.n_stages))
    assert abs(total - ladder.telescoped(ladder.n_stages - 1, xi)) < 1e-12


def test_ladder_rejects_bad_schedules():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.01, 1)
    with pytest.raises(ValidationError):
        fd.build_ladder(kernel, moll, (0.1, 0.2))       # increasing
    with pytest.raises(ValidationError):
        fd.build_ladder(kernel, moll, (0.1, -0.05))


def test_ladder_rejects_negative_weights():
    class WigglyMollifier:
        kind = "wiggly"
        dimension = 1
        epsilon = 0.01

        def theta_hat(self, u):
            u = np.abs(np.asarray(u, dtype=float))
            return np.exp(-u * u) * (1.0 + 0.5 * np.sin(8.0 * u))

    kernel = kn.KernelSpec(1, 0.5, 1.0)
    with pytest.raises(GateError):
        fd.build_ladder(kernel, WigglyMollifier(), (0.5, 0.25))


# ----------------------------------------------------------------------
# synthesis determinism and coupling
# ----------------------------------------------------------------------

def test_bit_identical_replay():
    plan, _, _ = make_plan()
    a = plan.sample(42, 7)
    b = plan.sample(42, 7)
    assert np.array_equal(a.values, b.values)
    c = plan.sample(43, 7)
    assert not np.array_equal(a.values, c.values)


def test_refinement_matches_direct_synthesis():
    plan, _, _ = make_plan(shells=4)
    s = plan.sample(11, 3, stage=0)
    for _ in range(4):
        s = plan.refine(s)
    direct = plan.sample(11, 3)
    assert np.array_equal(s.values, direct.values)
    assert s.epsilon == direct.epsilon
    assert s.variance == direct.variance


def test_refine_exhausts():
    plan, _, _ = make_plan(shells=1)
    s = plan.sample(1, 0)
    with pytest.raises(ValidationError):
        plan.refine(s)


def test_workers_do_not_change_values():
    plan, _, _ = make_plan(n=2 ** 10, shells=3)
    fd.set_workers(1)
    a = plan.sample(5, 0)
    fd.set_workers(2)
    b = plan.sample(5, 0)
    fd.set_workers(1)
    assert np.array_equal(a.values, b.values)


# ----------------------------------------------------------------------
# law checks (ensemble statistics)
# ----------------------------------------------------------------------

def test_lattice_variance_matches_continuum():
    plan, ladder, _ = make_plan(shells=4)
    q0 = kn.field_variance(ladder.kernel,
                           kn.MollifierSpec("gaussian", ladder.epsilons[-1], 1))
    assert abs(plan.total_variance - q0) < 1e-6


def test_discrete_covariance_matches_continuum_lag():
    plan, ladder, grid = make_plan(shells=4)
    cov = plan.discrete_covariance()
    lag = int(round(0.5 / grid.step))
    q = kn.mollified_covariance(ladder.kernel,
                                kn.MollifierSpec("gaussian",
                                                 ladder.epsilons[-1], 1), 0.5)
    assert abs(cov[lag] - q) < 1e-6
    far = int(round(1.8 / grid.step))
    assert abs(cov[far]) < 1e-6


def test_ensemble_variance_and_covariance():
    plan, _, grid = make_plan(n=2 ** 11)
    n = 400
    lag = int(round(0.5 / grid.step))
    v0, c05 = np.empty(n), np.empty(n)
    for r in range(n):
        s = plan.sample(314, r)
        v0[r] = s.values[100] ** 2
        c05[r] = s.values[100] * s.values[100 + lag]
    cov = plan.discrete_covariance()
    se_v = v0.std() / np.sqrt(n)
    se_c = c05.std() / np.sqrt(n)
    assert abs(v0.mean() - plan.total_variance) < 3 * se_v
    assert abs(c05.mean() - cov[lag]) < 3 * se_c


def test_field_mean_and_gaussianity():
    plan, _, _ = make_plan(n=2 ** 10, shells=3)
    n = 60
    pts = []
    for r in range(n):
        s = plan.sample(2718, r)
        pts.append(s.values[::64])     # 16 well separated points
    x = np.concatenate(pts)
    x = x / np.sqrt(plan.total_variance)
    m = len(x)
    se_mean = x.std() / np.sqrt(n)     # conservative: replica count
    assert abs(x.mean()) < 4 * se_mean
    skew = np.mean(x ** 3)
    kurt = np.mean(x ** 4) - 3.0
    assert abs(skew) < 4 * np.sqrt(15.0 / m) * 4
    assert abs(kurt) < 4 * np.sqrt(96.0 / m) * 4


def test_shell_increment_independent_of_past():
    plan, _, _ = make_plan(n=2 ** 10, shells=3)
    n = 300
    prods = np.empty(n)
    for r in range(n):
        s0 = plan.sample(99, r, stage=2)
        s1 = plan.refine(s0)
        inc = s1.values - s0.values
        prods[r] = s0.values[123] * inc[123]
    se = prods.std() / np.sqrt(n)
    assert abs(prods.mean()) < 3 * se
    # increment variance matches the shell weight integral
    var_inc = plan.stage_variance[3]
    incs = np.empty(n)
    for r in range(n):
        s0 = plan.sample(98, r, stage=2)
        incs[r] = (plan.refine(s0).values - s0.values)[7] ** 2
    assert abs(incs.mean() - var_inc) < 3 * incs.std() / np.sqrt(n)


def test_stationarity_spatial_vs_ensemble():
    plan, _, grid = make_plan(n=2 ** 12)
    n = 50
    lag = int(round(0.25 / grid.step))
    spatial = np.empty(n)
    for r in range(n):
        v = plan.sample(31, r).values
        spatial[r] = np.mean(v * np.roll(v, -lag))
    cov = plan.discrete_covariance()
    se = spatial.std() / np.sqrt(n)
    assert abs(spatial.mean() - cov[lag]) < 4 * se


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------

def test_resolution_gate_trips():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 1e-5, 1)
    ladder = fd.build_ladder(kernel, moll, (1e-5,))
    grid = fd.GridSpec(1, 256, 4.0)    # nyquist 32 << 1/eps
    with pytest.raises(GateError):
        fd.SpectralPlan(ladder, grid)


def test_dimension_mismatch():
    kernel = kn.KernelSpec(2, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.05, 2)
    ladder = fd.build_ladder(kernel, moll, (0.05,))
    with pytest.raises(ValidationError):
        fd.SpectralPlan(ladder, fd.GridSpec(1, 256, 4.0))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_field_binary_roundtrip(tmp_path):
    plan, _, _ = make_plan(n=2 ** 8, eps0=2 ** -3, shells=1)
    s = plan.sample(77, 0)
    path = tmp_path / "field.bin"
    fd.write_field(path, s)
    back = fd.read_field(path)
    assert np.array_equal(back.values, s.values)
    assert back.epsilon == s.epsilon
    assert back.variance == s.variance
    assert back.ladder_digest == s.ladder_digest
    assert back.grid == s.grid
    # header is a single JSON line followed by raw little-endian float64
    with open(path, "rb") as fh:
        header = fh.readline()
        import json
        doc = json.loads(header)
        assert doc["format"] == "gmclab-grid-v1"
        raw = np.frombuffer(fh.read(), dtype="<f8")
    assert raw.shape[0] == s.grid.n


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), log_n=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_file_roundtrip(tmp_path_factory, d, log_n, seed):
    grid = fd.GridSpec(d, 2 ** log_n, 3.0)
    values = np.random.default_rng(seed).normal(size=grid.shape)
    path = tmp_path_factory.mktemp("grid") / "g.bin"
    fd.write_grid_file(path, grid, values, {"kind": "field", "seed": seed})
    header, back_grid, back = fd.read_grid_file(path)
    assert back_grid == grid
    assert header["seed"] == seed
    assert np.array_equal(back, values)


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(1, 8 * 4 ** 2))
@example(cut=8)
@example(cut=3)
def test_truncated_grid_file_refused(tmp_path_factory, cut):
    grid = fd.GridSpec(2, 4, 3.0)
    path = tmp_path_factory.mktemp("grid") / "g.bin"
    fd.write_grid_file(path, grid, np.ones(grid.shape), {"kind": "field"})
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    with pytest.raises(ValidationError):
        fd.read_grid_file(path)


def test_read_rejects_wrong_kind(tmp_path):
    plan, _, _ = make_plan(n=2 ** 8, eps0=2 ** -3, shells=1)
    s = plan.sample(77, 0)
    path = tmp_path / "field.bin"
    fd.write_field(path, s)
    from gmclab import measure as ms
    with pytest.raises(ValidationError):
        ms.read_measure(path)


def test_d2_synthesis_variance_and_measure():
    kernel = kn.KernelSpec(2, 0.7, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.05, 2)
    ladder = fd.build_ladder(kernel, moll, (0.1, 0.05))
    grid = fd.GridSpec(2, 2 ** 8, 4.0)
    plan = fd.SpectralPlan(ladder, grid)
    q0 = kn.field_variance(kernel, moll)
    assert abs(plan.total_variance - q0) < 1e-6
    n = 40
    vals = np.array([plan.sample(19, r).values[10, 20] for r in range(n)])
    se = vals.var() * np.sqrt(2.0 / n)
    assert abs(vals.var() - plan.total_variance) < 3.5 * se
