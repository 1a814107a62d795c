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
    assert inner < m.cell_masses.sum()
    assert inner > 0.98 * m.cell_masses.sum()


def test_region_volume_matches_geometry():
    g = fd.GridSpec(2, 2 ** 8, 4.0)
    vol = ms.region_volume(g, ms.Box((0.0, -0.3), (0.7, 0.4)))
    assert abs(vol - 0.7 * 0.7) < 1e-10
    ball = ms.Ball((0.1, 0.0), 0.5)
    vol_b = ms.region_volume(g, ball)
    assert abs(vol_b - np.pi * 0.25) < np.pi * 0.25 * 5e-3


def test_small_ball_covers_part_of_one_cell():
    # radius below half a cell diagonal: no cell is wholly inside
    g = fd.GridSpec(3, 8, 3.0)
    vol = ms.region_volume(g, ms.Ball((0.0, 0.0, 0.0), 0.1))
    assert 0.0 < vol < g.cell_volume


def _whole_grid_ball_weights(grid, ball):
    """Reference: 3^d subsampling scanned over every cell of the grid; the
    cells wholly inside, then the covered boundary cells, in flat order."""
    d, h, r = grid.dimension, grid.step, ball.radius
    axes = [grid.axis_coordinates(ax) - ball.center[ax] for ax in range(d)]
    dist2 = sum(m * m for m in np.meshgrid(*axes, indexing="ij", sparse=True))
    half_diag = h * np.sqrt(d) / 2.0
    inside = (r >= half_diag) & (dist2 <= (r - half_diag) ** 2)
    idx_b = np.flatnonzero((dist2 < (r + half_diag) ** 2) & ~inside)
    coords = np.unravel_index(idx_b, grid.shape)
    centers = np.stack([axes[ax][coords[ax]] for ax in range(d)], axis=-1)
    offs = (np.arange(3) + 0.5) / 3 - 0.5
    sub = np.stack(np.meshgrid(*([offs] * d), indexing="ij"),
                   axis=-1).reshape(-1, d) * h
    pts = centers[:, None, :] + sub[None, :, :]
    frac = np.mean(np.sum(pts * pts, axis=-1) <= r ** 2, axis=1)
    flat = np.concatenate([np.flatnonzero(inside), idx_b[frac > 0]])
    weights = np.concatenate([np.ones(np.count_nonzero(inside)),
                              frac[frac > 0]])
    return np.unravel_index(flat, grid.shape), weights


@pytest.mark.parametrize("d, n, center, radius", [
    (1, 2 ** 8, (0.013,), 0.41),
    (2, 2 ** 6, (0.013, -0.21), 0.41),
    (2, 2 ** 7, (-0.5, 0.33), 0.05),
    (3, 2 ** 5, (0.1, -0.05, 0.02), 0.3),
    (3, 2 ** 3, (0.01, 0.02, 0.03), 0.1),
    (3, 2 ** 6, (0.01, -0.02, 0.03), 1.0),   # more boundary cells than
])                                            # one subsampling chunk
def test_ball_weights_match_whole_grid_subsampling(d, n, center, radius):
    grid = fd.GridSpec(d, n, 3.0)
    ball = ms.Ball(center, radius)
    weights = ms._region_weights(grid, ball, 0.0)
    cells, fractions = _whole_grid_ball_weights(grid, ball)
    if d == 3 and n == 2 ** 6:
        assert np.count_nonzero(fractions < 1) > ms._CHUNK
    shape = [s.stop - s.start for s in weights.window]
    got = [i + s.start for i, s in
           zip(np.unravel_index(weights.local, shape), weights.window)]
    assert len(got) == d
    for g, want in zip(got, cells):
        assert np.array_equal(g, want)
    assert np.array_equal(weights.fractions[0], fractions)


def dissipation_plan(l, n, epsilons):
    """`estimators.run_dissipation`'s plan for the ball of radius l (lam2
    and R 1, the torus R + 2l + 0.1, the mollifier at 0.4 l) at n points
    per side, on the ladder `epsilons`."""
    ladder = fd.build_ladder(kn.KernelSpec(3, 1.0, 1.0),
                             kn.MollifierSpec("gaussian", 0.4 * l, 3),
                             epsilons)
    return fd.SpectralPlan(ladder, fd.GridSpec(3, n, 1.0 + 2 * l + 0.1))


@pytest.mark.parametrize("region", [
    ms.Box((-0.3, 0.1), (0.45, 0.2)),
    ms.Ball((0.013, -0.21), 0.41),
    ms.Ball((0.0, 0.0, 0.0), 0.5),
], ids=["box", "ball", "dissipation-ball"])
def test_windowed_sample_mass_is_region_mass(region):
    if region.dimension == 3:
        plan = dissipation_plan(region.radius, 2 ** 5, (0.4 * region.radius,))
    else:
        plan = fd.SpectralPlan(
            fd.build_ladder(kn.KernelSpec(2, 0.5, 1.0),
                            kn.MollifierSpec("gaussian", 0.2, 2), (0.2,)),
            fd.GridSpec(2, 2 ** 6, 3.0))
    # the trace draws replica 1 on the region's window, the measure the
    # whole grid, and both reduce the same cells in the same order
    trace = ms.convergence_trace(plan, region, 4, 2)
    whole = ms.exponentiate(plan.sample(4, 1))
    assert trace.masses[1, 0] == ms.region_mass(whole, region, margin=0.0)


def test_region_spanning_the_grid_takes_the_whole_grid_sample():
    # a window covering the whole grid is drawn as the whole grid
    grid = fd.GridSpec(1, 2 ** 6, 4.0)
    plan = fd.SpectralPlan(
        fd.build_ladder(kn.KernelSpec(1, 0.5, 1.0),
                        kn.MollifierSpec("gaussian", 0.2, 1), (0.2,)), grid)
    box = ms.Box((-2.0 - grid.step / 2,), (2.0 - grid.step / 2,))
    trace = ms.convergence_trace(plan, box, 4, 1)
    m = ms.exponentiate(plan.sample(4, 0))
    assert trace.masses[0, 0] == ms.region_mass(m, box, margin=0.0)


@pytest.mark.parametrize("make", [
    lambda bad: ms.Box((bad,), (1.0,)),
    lambda bad: ms.Box((0.0, 0.0), (1.0, bad)),
    lambda bad: ms.Ball((0.0, bad), 0.5),
    lambda bad: ms.Ball((0.0,), bad),
], ids=["box-lo", "box-hi", "ball-centre", "ball-radius"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_regions_refuse_non_finite_bounds(make, bad):
    with pytest.raises(ValidationError, match="finite"):
        make(bad)


def _whole_axis_slab(grid, lo, hi):
    """`measure._slab` as the cover formula on every node of each axis."""
    h, cells, fractions = grid.step, [], []
    for ax in range(grid.dimension):
        x = grid.axis_coordinates(ax)
        w = np.clip((np.minimum(x + h / 2.0, hi[ax])
                     - np.maximum(x - h / 2.0, lo[ax])) / h, 0.0, 1.0)
        nz = np.flatnonzero(w > 0)
        cells.append(slice(int(nz[0]), int(nz[-1]) + 1))
        fractions.append(w[nz[0]:nz[-1] + 1])
    return tuple(cells), tuple(fractions)


@pytest.mark.parametrize("d, n", [(1, 64), (1, 2 ** 14), (2, 64), (3, 32)])
def test_slab_scans_only_the_cells_near_the_region(d, n):
    # the cells of a box, and their covered fractions, equal those of the
    # whole-axis scan to the bit, for boxes reaching both ends of the grid
    grid = fd.GridSpec(d, n, 4.0)
    gmin, gmax = -2.0 - grid.step / 2.0, 2.0 - grid.step / 2.0
    rng = np.random.default_rng(n + d)
    boxes = [((gmin,) * d, (gmax,) * d),
             ((gmin + 1e-12,) * d, (gmin + grid.step,) * d),
             ((gmax - 0.7 * grid.step,) * d, (gmax,) * d)]
    for _ in range(50):
        lo = rng.uniform(gmin, gmax, d)
        boxes.append((tuple(lo), tuple(rng.uniform(lo, gmax))))
    for lo, hi in boxes:
        got, want = ms._slab(grid, lo, hi), _whole_axis_slab(grid, lo, hi)
        assert got[0] == want[0]
        assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))


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


@pytest.mark.parametrize("region", [ms.Box((-0.31,), (0.77,)),
                                    ms.Ball((0.1,), 0.45),
                                    ms.Ball((0.0, 0.0, 0.0), 0.5)])
def test_trace_matches_region_mass_of_each_stage(region):
    if region.dimension == 3:
        plan = dissipation_plan(region.radius, 2 ** 5, (0.4, 0.3, 0.2))
    else:
        kernel = kn.KernelSpec(1, 0.5, 1.0)
        moll = kn.MollifierSpec("gaussian", 2 ** -7, 1)
        plan = fd.SpectralPlan(
            fd.build_ladder(kernel, moll, fd.geometric_schedule(2 ** -4, 3)),
            fd.GridSpec(1, 2 ** 10, 4.0))
    tr = ms.convergence_trace(plan, region, seed=8, n_replicas=3)
    for r in range(3):
        for k in range(plan.ladder.n_stages):
            m = ms.exponentiate(plan.sample(8, r, stage=k))
            assert tr.masses[r, k] == ms.region_mass(m, region, margin=0.0)


def test_trace_holds_one_replica_at_a_time():
    """tracemalloc peak of a trace on run_dissipation's l = 0.5 plan and
    ball at 128^3, in n^3 float64 lattices: 0.520 at one replica, and
    0.628 at two and three while a replica's windowed sample stayed alive
    through the next draw.  More replicas must not raise it (at 64^3 the
    peak is set elsewhere and cannot show this)."""
    import tracemalloc

    n, ball = 128, ms.Ball((0.0, 0.0, 0.0), 0.5)
    plan = dissipation_plan(ball.radius, n, (0.2,))
    ms.convergence_trace(plan, ball, 555, 1)   # warm caches

    def peak(n_replicas):
        tracemalloc.start()
        try:
            ms.convergence_trace(plan, ball, 555, n_replicas)
            return tracemalloc.get_traced_memory()[1] / (8 * n ** 3)
        finally:
            tracemalloc.stop()

    one = peak(1)
    for n_replicas in (2, 3):
        assert abs(peak(n_replicas) - one) <= 0.01 * one, n_replicas


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


def test_mrw_refuses_empty_times():
    _, m = make_measure(n=2 ** 8, eps=2 ** -4)
    with pytest.raises(ValidationError, match="increasing and positive"):
        ms.mrw_path(m, [], seed=1)


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
    assert abs(cum - want) <= 1e-12 * m.cell_masses.sum()


def test_mrw_path_reproducible():
    _, m = make_measure()
    times = np.linspace(0.0, 1.0, 17)[1:]
    a = ms.mrw_path(m, times, seed=5)
    b = ms.mrw_path(m, times, seed=5)
    assert np.array_equal(a, b)


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

    samples = {0.5: np.array([0.9, 1.1]), 0.25: np.array([0.7, 1.3])}
    p2 = tmp_path / "diss.csv"
    ms.write_dissipation_csv(p2, samples, 2.0)
    lines = p2.read_text().strip().splitlines()
    assert lines[0] == "l,replica,eps_l,mean_eps"
    assert lines[1:] == ["0.5,0,0.9,2.0", "0.5,1,1.1,2.0",
                         "0.25,0,0.7,2.0", "0.25,1,1.3,2.0"]
