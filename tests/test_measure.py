import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmclab import field as fd
from gmclab import kernels as kn
from gmclab import measure as ms
from gmclab.errors import ValidationError


def make_measure(lam2=0.5, n=2 ** 12, length=4.0, eps=2 ** -6, seed=1,
                 replica=0, dimension=1):
    kernel = kn.KernelSpec(dimension, lam2, 1.0)
    moll = kn.MollifierSpec("gaussian", eps, dimension)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (eps,)),
                           fd.GridSpec(dimension, n, length))
    return plan, ms.exponentiate(plan.sample(seed, replica))


# ----------------------------------------------------------------------
# exponentiation
# ----------------------------------------------------------------------

def test_vanishing_intermittency_gives_lebesgue():
    _, m = make_measure(lam2=1e-10)
    np.testing.assert_allclose(m.cell_masses, m.grid.cell_volume, rtol=1e-4)


def test_masses_strictly_positive():
    _, m = make_measure()
    assert np.all(m.cell_masses > 0)


def test_total_mass_matches_sum():
    _, m = make_measure()
    assert abs(m.total_mass - m.cell_masses.sum()) < 1e-12


def test_mean_region_mass_is_volume():
    plan, _ = make_measure()
    n = 300
    box = ms.Box((0.0,), (1.0,))
    vals = np.empty(n)
    for r in range(n):
        vals[r] = ms.region_mass(ms.exponentiate(plan.sample(55, r)), box)
    se = vals.std() / np.sqrt(n)
    assert abs(vals.mean() - 1.0) < 3 * se


# ----------------------------------------------------------------------
# regions
# ----------------------------------------------------------------------

def test_box_additivity_exact():
    _, m = make_measure()
    a = ms.region_mass(m, ms.Box((0.0,), (0.5,)))
    b = ms.region_mass(m, ms.Box((0.5,), (1.0,)))
    whole = ms.region_mass(m, ms.Box((0.0,), (1.0,)))
    assert abs((a + b) - whole) < 1e-12 * max(whole, 1.0)


def test_full_grid_mass():
    _, m = make_measure()
    g = m.grid
    lo = g.origin[0] - g.step / 2.0
    box = ms.Box((lo + g.step,), (lo + g.length - g.step,))
    inner = ms.region_mass(m, box, margin=0.0)
    assert inner < m.total_mass
    assert inner > 0.98 * m.total_mass


def test_region_volume_matches_geometry():
    g = fd.GridSpec(2, 2 ** 8, 4.0)
    vol = ms.region_volume(g, ms.Box((0.0, -0.3), (0.7, 0.4)))
    assert abs(vol - 0.7 * 0.7) < 1e-10
    ball = ms.Ball((0.1, 0.0), 0.5)
    vol_b = ms.region_volume(g, ball)
    assert abs(vol_b - np.pi * 0.25) < np.pi * 0.25 * 5e-3


def test_fractional_boundary_cells():
    g = fd.GridSpec(1, 2 ** 6, 4.0)
    # box ends midway through cells: volume still exact
    vol = ms.region_volume(g, ms.Box((0.01,), (0.99,)))
    assert abs(vol - 0.98) < 1e-12


def test_ball_mass_consistent_under_refinement():
    vals = []
    for n in (2 ** 6, 2 ** 7):
        kernel = kn.KernelSpec(3, 0.5, 1.0)
        moll = kn.MollifierSpec("gaussian", 0.1, 3)
        plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (0.1,)),
                               fd.GridSpec(3, n, 3.0))
        m = ms.exponentiate(plan.sample(7, 0))
        h = m.grid.step
        vals.append(ms.region_mass(m, ms.Ball((0.0, 0.0, 0.0), 3.2 * h),
                                   margin=0.0)
                    / ms.region_volume(m.grid, ms.Ball((0.0, 0.0, 0.0), 3.2 * h)))
    # density at comparable physical radius is grid-stable at the few
    # percent level (the two radii differ, so compare loosely)
    assert np.isfinite(vals).all()
    assert vals[0] > 0 and vals[1] > 0


def test_region_escapes_interior():
    _, m = make_measure()
    with pytest.raises(ValidationError):
        ms.region_mass(m, ms.Box((1.5,), (2.5,)))
    with pytest.raises(ValidationError):
        ms.region_mass(m, ms.Box((-3.0,), (0.0,)))


def test_region_dimension_mismatch():
    _, m = make_measure()
    with pytest.raises(ValidationError):
        ms.region_mass(m, ms.Box((0.0, 0.0), (0.5, 0.5)))


# ----------------------------------------------------------------------
# convergence trace
# ----------------------------------------------------------------------

def test_trace_constant_for_tiny_intermittency():
    kernel = kn.KernelSpec(1, 1e-10, 1.0)
    moll = kn.MollifierSpec("gaussian", 2 ** -7, 1)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll,
                                           fd.geometric_schedule(2 ** -4, 3)),
                           fd.GridSpec(1, 2 ** 10, 4.0))
    tr = ms.convergence_trace(plan, ms.Box((0.0,), (1.0,)), seed=3,
                              n_replicas=20)
    np.testing.assert_allclose(tr.masses, 1.0, rtol=1e-4)
    assert tr.plateau


def test_trace_martingale_mean_and_stability():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 2 ** -9, 1)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll,
                                           fd.geometric_schedule(2 ** -4, 5)),
                           fd.GridSpec(1, 2 ** 12, 4.0))
    tr = ms.convergence_trace(plan, ms.Box((0.0,), (1.0,)), seed=17,
                              n_replicas=200)
    for k in range(tr.masses.shape[1]):
        col = tr.masses[:, k]
        assert abs(col.mean() - 1.0) < 3 * col.std() / np.sqrt(len(col))
    incs = np.diff(tr.masses, axis=1)
    for k in range(incs.shape[1]):
        col = incs[:, k]
        assert abs(col.mean()) < 3 * col.std() / np.sqrt(len(col))
    assert tr.cauchy_profile.shape == (5,)


@pytest.mark.parametrize("region", [ms.Box((-0.31,), (0.77,)),
                                    ms.Ball((0.1,), 0.45)])
def test_trace_matches_region_mass_of_each_stage(region):
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 2 ** -7, 1)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll,
                                           fd.geometric_schedule(2 ** -4, 3)),
                           fd.GridSpec(1, 2 ** 10, 4.0))
    tr = ms.convergence_trace(plan, region, seed=8, n_replicas=3)
    for r in range(3):
        for k in range(plan.ladder.n_stages):
            m = ms.exponentiate(plan.sample(8, r, stage=k))
            want = ms.region_mass(m, region, margin=0.0)
            assert abs(tr.masses[r, k] - want) <= 1e-12 * want


# ----------------------------------------------------------------------
# multifractal random walk
# ----------------------------------------------------------------------

def test_mrw_reduces_to_brownian_for_tiny_intermittency():
    plan, _ = make_measure(lam2=1e-10, n=2 ** 12)
    times = np.linspace(0.0, 1.0, 65)[1:]
    n = 200
    finals = np.empty(n)
    incs = []
    for r in range(n):
        m = ms.exponentiate(plan.sample(23, r))
        x = ms.mrw_path(m, times, seed=1000)
        finals[r] = x[-1]
        incs.append(np.diff(x, prepend=0.0))
    incs = np.asarray(incs)
    dt = times[1] - times[0]
    var_inc = incs.var()
    assert abs(var_inc - dt) < 5 * dt / np.sqrt(incs.size)
    assert abs(finals.var() - 1.0) < 5 * np.sqrt(2.0 / n)


def test_mrw_second_moment_tower_property():
    plan, _ = make_measure(lam2=0.5, n=2 ** 13, eps=2 ** -8)
    times = np.array([0.25, 0.5, 1.0])
    n = 400
    x2 = np.empty((n, 3))
    for r in range(n):
        m = ms.exponentiate(plan.sample(29, r))
        x = ms.mrw_path(m, times, seed=77)
        x2[r] = x ** 2
    for j, t in enumerate(times):
        se = x2[:, j].std() / np.sqrt(n)
        assert abs(x2[:, j].mean() - t) < 3 * se


def test_mrw_quadratic_variation_converges_to_mass():
    plan, _ = make_measure(lam2=0.5, n=2 ** 13, eps=2 ** -8)
    n_times = 2 ** 11
    times = np.linspace(0.0, 1.0, n_times + 1)[1:]
    n = 60
    ratios = {1: [], 2: [], 4: []}
    for r in range(n):
        m = ms.exponentiate(plan.sample(31, r))
        x = ms.mrw_path(m, times, seed=13)
        mass = ms.region_mass(m, ms.Box((0.0,), (1.0,)))
        for every in (4, 2, 1):
            qv = ms.quadratic_variation(x, every=every)
            ratios[every].append(qv / mass)
    spread = {k: np.std(np.asarray(v) - 1.0) for k, v in ratios.items()}
    # conditional variance of QV halves with the partition step
    assert spread[1] < spread[2] < spread[4]
    for every in (1, 2, 4):
        se = spread[every] / np.sqrt(n)
        assert abs(np.mean(ratios[every]) - 1.0) < 4 * se


def test_mrw_requires_d1_and_interior():
    plan, m3 = make_measure(dimension=3, n=2 ** 5, length=3.0, eps=0.2)
    with pytest.raises(ValidationError):
        ms.mrw_path(m3, np.array([0.25]), seed=1)
    _, m1 = make_measure()
    with pytest.raises(ValidationError):
        ms.mrw_path(m1, np.array([3.5]), seed=1)


_, _CUM_MEASURE = make_measure(n=2 ** 10)
_CUM_EDGE = 0.5 - 2.0 ** -9     # a cell edge of the 2^10-point grid


@settings(max_examples=200, deadline=None)
@given(t=st.floats(1e-3, 1.5))
@example(t=_CUM_EDGE)
@example(t=_CUM_EDGE + 2.0 ** -8)
def test_cumulative_mass_matches_box_mass(t):
    # m[0, t] is a difference of cumulative sums from the grid's edge, so
    # its round-off scales with the grid's total mass
    m = _CUM_MEASURE
    cum = ms._cumulative_mass(m, np.array([t]))[0]
    want = ms.region_mass(m, ms.Box((0.0,), (t,)), margin=0.0)
    assert abs(cum - want) <= 1e-12 * m.total_mass


def test_mrw_path_reproducible():
    _, m = make_measure()
    times = np.linspace(0.0, 1.0, 17)[1:]
    a = ms.mrw_path(m, times, seed=5)
    b = ms.mrw_path(m, times, seed=5)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# dissipation variables
# ----------------------------------------------------------------------

def test_dissipation_constant_for_tiny_intermittency():
    _, m = make_measure(lam2=1e-10, dimension=3, n=2 ** 6, length=3.0,
                        eps=0.1)
    out = ms.dissipation_samples(m, [(0.0, 0.0, 0.0)], 0.4, mean_eps=2.0)
    ball = ms.Ball((0.0, 0.0, 0.0), 0.4)
    disc = ms.region_volume(m.grid, ball) / ((4.0 / 3.0) * np.pi * 0.4 ** 3)
    assert abs(out[0].value - 2.0 * disc) < 1e-3


def test_dissipation_mean_normalization():
    kernel = kn.KernelSpec(3, 1.0, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.1, 3)
    plan = fd.SpectralPlan(fd.build_ladder(kernel, moll, (0.1,)),
                           fd.GridSpec(3, 2 ** 6, 3.0))
    n = 100
    vals = np.empty(n)
    for r in range(n):
        m = ms.exponentiate(plan.sample(41, r))
        vals[r] = ms.dissipation_samples(m, [(0.0, 0.0, 0.0)], 0.4,
                                         mean_eps=1.0)[0].value
    se = vals.std() / np.sqrt(n)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_dissipation_requires_d3():
    _, m = make_measure()
    with pytest.raises(ValidationError):
        ms.dissipation_samples(m, [(0.0,)], 0.1, 1.0)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_measure_binary_roundtrip(tmp_path):
    _, m = make_measure(n=2 ** 8, eps=2 ** -4)
    path = tmp_path / "measure.bin"
    ms.write_measure(path, m)
    back = ms.read_measure(path)
    assert np.array_equal(back.cell_masses, m.cell_masses)
    assert back.variance_used == m.variance_used


def test_csv_exports(tmp_path):
    _, m = make_measure(n=2 ** 8, eps=2 ** -4)
    times = np.linspace(0.0, 1.0, 9)[1:]
    paths = [ms.mrw_path(m, times, seed=2)]
    p1 = tmp_path / "mrw.csv"
    ms.write_mrw_csv(p1, times, paths)
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "replica,t,X"
    assert len(lines) == 1 + len(times)

    samples = [ms.DissipationSample((0.0, 0.0, 0.0), 0.25, 1.0, 0.9)]
    p2 = tmp_path / "diss.csv"
    ms.write_dissipation_csv(p2, samples)
    lines = p2.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,l,eps_l"
    assert len(lines) == 2
