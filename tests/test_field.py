import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmclab import field as fd
from gmclab import kernels as kn
from gmclab import measure as ms
from gmclab import spectral as sp
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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            fd.GridSpec(1, 64, bad)
    g = fd.GridSpec(2, 64, 4.0)
    assert g.origin == (-2.0, -2.0)
    assert g.step == 0.0625


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("origin", [lambda d: [0.0] * d,
                                    lambda d: [-1.5] * (d - 1) + [-1.4],
                                    lambda d: None],
                         ids=["zero", "one-axis-off", "null"])
def test_grid_is_centred_and_files_must_say_so(tmp_path, d, origin):
    grid = fd.GridSpec(d, 4, 3.0)
    assert grid.to_json()["origin"] == [-1.5] * d
    path = tmp_path / "g.bin"
    fd.write_grid_file(path, grid, np.ones(grid.shape), {"kind": "field"})
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["grid"]["origin"] = origin(d)
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(ValidationError):
        fd.read_grid_file(path)


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
    np.testing.assert_allclose(list(ladder.weights(xi))[0],
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
        got = list(ladder.weights(xi))[k]
        np.testing.assert_allclose(got, expected, rtol=1e-13)
        assert np.all(got >= 0)


def test_ladder_telescoping_identity():
    _, ladder, _ = make_plan(shells=5)
    xi = np.array([1.0])
    total = sum(ladder.weights(xi))
    assert abs(total - ladder.telescoped(ladder.n_stages - 1, xi)) < 1e-12


def test_ladder_weights_are_the_shell_formula_bit_for_bit():
    _, ladder, _ = make_plan(shells=3)
    xi = np.linspace(0.0, 60.0, 257)
    fh = kn.kernel_hat(ladder.kernel)(xi)
    th = [ladder.mollifier.theta_hat(e * xi) for e in ladder.epsilons]
    want = [fh * th[0]] + [fh * (th[k] - th[k - 1])
                           for k in range(1, ladder.n_stages)]
    got = list(ladder.weights(xi))
    assert len(got) == ladder.n_stages
    for k in range(ladder.n_stages):
        assert np.array_equal(got[k], want[k])


@pytest.mark.parametrize("kind, eps", [("gaussian", 2.0 ** -9),
                                       ("fejer", 1.0 / 2100.0)])
def test_plan_gates_read_fhat_once_and_only_where_theta_hat_lives(
        kind, eps, monkeypatch):
    # build_ladder evaluates fhat once on its 512-point probe, and the
    # resolution tail only where theta_hat(eps xi) is not 0 (the product is
    # 0 there); the gates' scale0 and tail equal those from fhat on every
    # point, to the bit
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec(kind, eps, 1)
    grid = fd.GridSpec(1, 2 ** 14, 4.0)
    fhat = kn.kernel_hat(kernel)
    points = []

    def counting_kernel_hat(spec):
        def counted(s):
            points.append(np.size(s))
            return fhat(s)
        return counted

    monkeypatch.setattr(fd, "kernel_hat", counting_kernel_hat)
    ladder = fd.build_ladder(kernel, moll, (eps,))
    assert points == [512]
    probe = np.geomspace(1e-3, 4.0 / eps, 512)
    assert np.array_equal(ladder.telescoped(0, probe),
                          fhat(probe) * moll.theta_hat(eps * probe))
    points.clear()
    plan = fd.SpectralPlan(ladder, grid)
    s = np.geomspace(grid.nyquist, grid.nyquist * 64.0, 2048)
    live = int(np.count_nonzero(moll.theta_hat(eps * s)))
    assert 0 < live < s.size
    assert points == [grid.n // 2 + 1, live]
    every = np.maximum(fhat(s) * moll.theta_hat(eps * s), 0.0)
    assert plan._check_resolution() == float(np.trapezoid(2.0 * every, s))


def test_ladder_rejects_bad_schedules():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.01, 1)
    with pytest.raises(ValidationError):
        fd.build_ladder(kernel, moll, (0.1, 0.2))       # increasing
    with pytest.raises(ValidationError):
        fd.build_ladder(kernel, moll, (0.1, -0.05))
    for bad in [(np.nan,), (np.inf, 0.01), (0.1, np.nan)]:
        with pytest.raises(ValidationError, match="finite"):
            fd.build_ladder(kernel, moll, bad)


class WigglyMollifier:
    """A non-monotone theta_hat: its shell weights go negative."""
    kind = "wiggly"
    dimension = 1
    epsilon = 0.01

    def theta_hat(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        return np.exp(-u * u) * (1.0 + 0.5 * np.sin(8.0 * u))


def test_ladder_rejects_negative_weights():
    kernel = kn.KernelSpec(1, 0.5, 1.0)
    with pytest.raises(GateError):
        fd.build_ladder(kernel, WigglyMollifier(), (0.5, 0.25))


def test_plan_refuses_substantially_negative_embedding_weights():
    # past build_ladder's probe: the plan clips 0.146 of a 3.44 trace
    ladder = fd.ShellLadder(kn.KernelSpec(1, 0.5, 1.0), WigglyMollifier(),
                            (0.05, 0.025))
    with pytest.raises(GateError) as exc:
        fd.SpectralPlan(ladder, fd.GridSpec(1, 2 ** 10, 4.0))
    assert exc.value.detail["clipped_mass"] > 1e-8 * exc.value.detail["trace"]


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


def test_spectrum_is_kept_only_while_a_refine_can_follow():
    plan, _, _ = make_plan(shells=2)
    s = plan.sample(8, 1, stage=0)
    assert s._spectrum is not None and not s._spectrum.flags.writeable
    assert "_spectrum" not in repr(s)
    s = plan.refine(plan.refine(s))
    assert s.stage == 2 and s._spectrum is None
    assert plan.sample(8, 1)._spectrum is None


def test_refine_refuses_a_sample_read_from_a_file(tmp_path):
    plan, _, _ = make_plan(n=2 ** 8, eps0=2 ** -3, shells=2)
    path = tmp_path / "field.bin"
    fd.write_field(path, plan.sample(77, 0, stage=0))
    back = fd.read_field(path)
    assert back._spectrum is None
    with pytest.raises(ValidationError):
        plan.refine(back)


def test_refine_refuses_a_sample_from_another_grid():
    plan, ladder, _ = make_plan(n=2 ** 10, shells=2)
    other = fd.SpectralPlan(ladder, fd.GridSpec(1, 2 ** 10, 5.0))
    with pytest.raises(ValidationError):
        plan.refine(other.sample(3, 0, stage=0))


@pytest.mark.parametrize("make", [
    lambda: small_plan(1, n=2 ** 12, length=3.0),
    lambda: small_plan(2, n=64, length=3.0),
    lambda: small_plan(3, n=16, length=3.0),
    lambda: make_plan(shells=6)[0],
], ids=["d1", "d2", "d3", "d1-7-stages"])
def test_one_transform_sample_matches_sum_of_shell_fields(make):
    plan = make()
    s = plan.sample(61, 2)
    shells = sum(hartley(fd._philox(61, 2, k).standard_normal(plan.grid.shape)
                         * on_lattice(plan, plan.amps[k]))
                 for k in range(plan.ladder.n_stages))
    np.testing.assert_allclose(s.values, shells, rtol=0,
                               atol=1e-13 * np.sqrt(s.variance))


def _windows(d, n):
    """Node windows (one slice per axis) of several kinds on an n^d grid."""
    k = max(n // 8, 1)
    kinds = {"centred": slice(n // 2 - k, n // 2 + k + 1),
             "corner": slice(n - k, n),
             "node-0": slice(0, k + 1),
             "all-but-node-0": slice(1, n),
             "whole": slice(0, n)}
    out = {name: (s,) * d for name, s in kinds.items()}
    out["mixed"] = tuple(list(kinds.values())[ax] for ax in range(d))
    if d > 1 and n >= 32:
        # the last axis holds nodes on both sides of n/2, so the leading
        # axes read rows k+2, k+3 and, disjoint from them, their mirror
        # images n-k-3, n-k-2 (at n = 64: (slice(10, 12), slice(3, 60)))
        out["disjoint-mirror"] = ((slice(k + 2, k + 4),) * (d - 1)
                                  + (slice(3, n - 4),))
    return out


@pytest.mark.parametrize("d, n", [(1, 2 ** 10), (2, 64), (3, 32)])
def test_windowed_sample_and_refine_match_the_whole_grid(d, n):
    plan = small_plan(d, n=n, length=3.0)
    coarse, fine = plan.sample(17, 3, stage=0), plan.sample(17, 3)
    for name, window in _windows(d, n).items():
        s = plan.sample(17, 3, stage=0, window=window)
        assert np.array_equal(s.values, coarse.values[window]), name
        assert s.window == (None if name == "whole" else window), name
        r = plan.refine(s)
        assert r.window == s.window
        assert np.array_equal(r.values, fine.values[window]), name
        assert np.array_equal(plan.sample(17, 3, window=window).values,
                              r.values), name


def test_window_validation():
    plan = small_plan(2, n=16)
    for bad in [(slice(0, 4),), (slice(0, 4), slice(0, 8, 2)),
                (slice(3, 3), slice(0, 4)), (slice(0, 4), 2)]:
        with pytest.raises(ValidationError):
            plan.sample(1, 0, window=bad)


def test_windowed_sample_is_not_exponentiated_or_written(tmp_path):
    plan = small_plan(2, n=16)
    s = plan.sample(1, 0, window=(slice(2, 9), slice(4, 6)))
    with pytest.raises(ValidationError):
        ms.exponentiate(s)
    with pytest.raises(ValidationError):
        fd.write_field(tmp_path / "f.bin", s)
    assert not (tmp_path / "f.bin").exists()


def small_plan(d, n=8, length=2.0):
    """A plan whose grid is small enough for O(N^2) sums over the lattice."""
    kernel = kn.KernelSpec(d, 0.5, 1.0)
    moll = kn.MollifierSpec("gaussian", 0.4, d)
    ladder = fd.build_ladder(kernel, moll, (0.5, 0.4))
    return fd.SpectralPlan(ladder, fd.GridSpec(d, n, length))


def lattice_radii(grid):
    """|xi_j| on the lattice, mode by mode, in FFT order."""
    freqs = np.meshgrid(*[np.fft.fftfreq(grid.n, d=grid.step)] * grid.dimension,
                        indexing="ij")
    return np.sqrt(sum(f * f for f in freqs))


def on_lattice(plan, half):
    """A half-lattice array of `plan` (in d = 1 the half line, read at
    m = min(j, n - j); in d >= 2 its leading axes folded to m and stored
    only on the first axis-0 rows) expanded onto the whole lattice, zero
    on the rows beyond those stored."""
    n, d = plan.grid.n, plan.grid.dimension
    j = np.arange(n)
    if d == 1:
        return half[np.minimum(j, n - j)]
    half = np.concatenate([half, np.zeros((n // 2 + 1 - len(half),)
                                          + half.shape[1:])])
    return half[np.ix_(*[np.minimum(j, n - j)] * (d - 1), j)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shell_field_matches_direct_sum(d):
    plan = small_plan(d)
    n = plan.grid.n
    idx = np.indices(plan.grid.shape).reshape(d, -1)     # j and x, as integers
    phase = 2.0 * np.pi * (idx.T @ idx) / n              # [x, j]
    for stage in range(plan.ladder.n_stages):
        seq = np.random.SeedSequence(entropy=23, spawn_key=(4, stage))
        g = np.random.Generator(np.random.Philox(seq)).standard_normal(
            plan.grid.shape)
        b = g * on_lattice(plan, plan.amps[stage])
        direct = ((np.cos(phase) - np.sin(phase)) @ b.ravel()).reshape(
            plan.grid.shape)
        got = hartley(b)
        np.testing.assert_allclose(got, direct, rtol=0,
                                   atol=1e-12 * np.max(np.abs(direct)))


def hartley(b, window=None, band=None):
    """`fd._hartley` of the whole array b, fed to it slab by slab as a
    plan feeds it (in d = 1 one slab, a copy of the line), on `band`
    (default the whole band, d (n/2)^2: the unpruned transform)."""
    if band is None:
        band = b.ndim * (b.shape[-1] // 2) ** 2
    if b.ndim == 1:
        return fd._hartley([b.copy()], b.shape, window, band=band)
    rows = fd._SLAB_ROWS
    return fd._hartley((b[i:i + rows] for i in range(0, len(b), rows)),
                       b.shape, window, band=band)


def _rfftn_hartley(b):
    """The (cos - sin) sum of b from one F = rfftn(b): Re F + Im F on the
    stored half of the last axis, and Re F - Im F read at the mirrored
    node -x mod n beyond it (F(-x) = conj F(x) for real b).  numpy's rfftn
    runs the c2c of its leading axes last listed first, so they are listed
    d-2..0: axis 0 first, as `_hartley` runs them."""
    d, n, h = b.ndim, b.shape[-1], b.shape[-1] // 2
    f = np.fft.rfftn(b, axes=(*range(d - 2, -1, -1), d - 1))
    out = np.empty_like(b)
    out[..., :h + 1] = f.real + f.imag
    mirrored = f[tuple(-np.indices(b.shape)[..., h + 1:] % n)]
    out[..., h + 1:] = mirrored.real - mirrored.imag
    return out


@pytest.mark.parametrize("d, n", [(1, 2 ** 12), (2, 64), (3, 32)])
def test_whole_grid_hartley_is_the_rfftn_unfolding_to_the_bit(d, n):
    b = np.random.default_rng(d).standard_normal((n,) * d)
    assert np.array_equal(hartley(b), _rfftn_hartley(b))


def lattice_k2(d, n):
    """k2 = sum_i min(j_i, n - j_i)^2 of every mode of the n^d lattice."""
    j = np.arange(n)
    m2 = np.minimum(j, n - j) ** 2
    return sum(np.meshgrid(*[m2] * d, indexing="ij", sparse=True))


@pytest.mark.parametrize("d, n", [(2, 64), (3, 32)])
@pytest.mark.parametrize("band", [0, 25, 41, 300, None],
                         ids=["zero-mode", "25", "41", "300", "whole"])
def test_band_pruned_hartley_matches_the_unpruned_to_the_bit(d, n, band):
    # b is zero beyond the band, and NaN in the rows j0^2 > band that the
    # pruned transform must never read
    k2 = lattice_k2(d, n)
    band = k2.max() if band is None else band
    b = np.where(k2 <= band,
                 np.random.default_rng(band).standard_normal((n,) * d), 0.0)
    hidden = b.copy()
    hidden[k2.min(axis=tuple(range(1, d))) > band] = np.nan
    for name, window in {**_windows(d, n), "grid": None}.items():
        assert np.array_equal(hartley(hidden, window, band),
                              hartley(b, window)), name


@pytest.mark.parametrize("d, n", [(1, 2 ** 10), (2, 64), (3, 32)])
def test_every_amplitude_beyond_the_band_is_zero(d, n):
    plan = small_plan(d, n=n, length=3.0)
    beyond = (np.abs(np.fft.fftfreq(n, 1 / n)) if d == 1
              else lattice_k2(d, n)) > plan.band
    assert 0 < np.count_nonzero(beyond) < n ** d
    # d = 1 stores the half line, d >= 2 the axis-0 rows m0 <= isqrt(band)
    rows = n // 2 + 1 if d == 1 else min(math.isqrt(plan.band), n // 2) + 1
    assert rows < n // 2 + 1 or d == 1
    for amp in plan.amps:
        assert len(amp) == rows
        assert np.all(on_lattice(plan, amp)[beyond] == 0.0)
    spectrum = plan._spectrum
    assert spectrum[plan.band] > 0 and not spectrum[plan.band + 1:].any()
    cov = plan.discrete_covariance()
    assert abs(cov.flat[0] - plan.total_variance) < 1e-14 * cov.flat[0]


@pytest.mark.parametrize("d, n", [(1, 2 ** 10), (2, 64), (3, 32)])
def test_stage_variance_sums_the_kept_weight(d, n):
    plan = small_plan(d, n=n, length=3.0)
    xi = lattice_radii(plan.grid)
    kept = (np.abs(np.fft.fftfreq(n, 1 / n)) if d == 1
            else lattice_k2(d, n)) <= plan.band
    cell = 1.0 / plan.grid.length ** d
    weights = [np.maximum(w, 0.0) * cell for w in plan.ladder.weights(xi)]
    for k, w in enumerate(weights):
        np.testing.assert_allclose(plan.stage_variance[k], np.sum(w[kept]),
                                   rtol=1e-13)
    total = sum(np.sum(w) for w in weights)
    assert 0 < plan.dropped_variance < 1e-16 * total
    np.testing.assert_allclose(plan.total_variance + plan.dropped_variance,
                               total, rtol=1e-13)


def test_run_dissipation_plans_drop_at_most_1e16_of_their_trace():
    for l in (0.5, 0.25, 0.125, 0.0625):
        eps = 0.4 * l
        ladder = fd.build_ladder(kn.KernelSpec(3, 1.0, 1.0),
                                 kn.MollifierSpec("gaussian", eps, 3), (eps,))
        plan = fd.SpectralPlan(ladder, fd.GridSpec(3, 2 ** 7, 1.1 + 2 * l))
        assert plan.band < 3 * 64 ** 2
        assert 0 < plan.dropped_variance <= 1e-16 * plan.total_variance, l


@pytest.mark.parametrize("d, n", [(1, 2 ** 12), (2, 64), (3, 32)])
def test_plan_amplitudes_match_pointwise_weights(d, n):
    plan = small_plan(d, n=n, length=3.0)
    xi = lattice_radii(plan.grid)
    cell = 1.0 / plan.grid.length ** d
    for stage in range(plan.ladder.n_stages):
        w = np.maximum(list(plan.ladder.weights(xi))[stage], 0.0)
        want = np.sqrt(w * cell)
        np.testing.assert_allclose(on_lattice(plan, plan.amps[stage]), want,
                                   rtol=1e-13,
                                   atol=1e-13 * np.max(want))


def _whole_lattice_reference(plan):
    """Each stage's amplitudes sqrt(w cell) gathered onto the whole lattice
    from a table of lattice radii (by k2 = sum_i j_i^2 in d >= 2, by |j|
    in d = 1), and the clipped weights of all stages gathered likewise
    times the cell: the layout plans held before the half-lattice.  Every
    weight beyond the largest lattice radius whose summed weight exceeds
    1e-32 of the largest is cut to 0, as the plan's band cuts it."""
    grid, ladder = plan.grid, plan.ladder
    d, h = grid.dimension, grid.n // 2
    j = np.fft.ifftshift(np.arange(-h, h))
    if d == 1:
        index, radii = np.abs(j), np.arange(h + 1) / grid.length
    else:
        index = sum(np.meshgrid(*([j * j] * d), indexing="ij", sparse=True))
        radii = np.sqrt(np.arange(d * h * h + 1)) / grid.length
    cell = 1.0 / grid.length ** d
    rem = ladder.kernel.remainder
    weights = []
    for k, w in enumerate(ladder.weights(radii)):
        if k == 0 and rem.kind == "constant":
            w[0] += rem.value * grid.length ** d
        weights.append(np.where(w < 0, 0.0, w))
    total = sum(weights)
    on = np.isin(np.arange(radii.size), index)
    cut = np.flatnonzero(on & (total > 1e-32 * total[on].max()))[-1] + 1
    for w in weights + [total]:
        w[cut:] = 0.0
    return ([np.sqrt(w * cell)[index] for w in weights],
            (total * cell)[index])


@pytest.mark.parametrize("c", [0.0, 0.3], ids=["zero", "constant"])
@pytest.mark.parametrize("d, n, length", [
    pytest.param(1, 2 ** 10, 3.0, id="1-1024"),
    pytest.param(2, 64, 3.0, id="2-64"),
    pytest.param(3, 32, 3.0, id="3-32"),
    pytest.param(2, 4, 0.5, id="2-4"),      # one short slab: n < _SLAB_ROWS
    pytest.param(3, 4, 0.5, id="3-4"),
])
def test_half_lattice_plan_matches_the_whole_lattice_gather_to_the_bit(
        d, n, length, c):
    remainder = kn.Remainder("constant", value=c) if c else kn.Remainder()
    kernel = kn.KernelSpec(d, 0.5, 1.0, remainder=remainder)
    ladder = fd.build_ladder(kernel, kn.MollifierSpec("gaussian", 0.4, d),
                             (0.5, 0.4, 0.3))
    plan = fd.SpectralPlan(ladder, fd.GridSpec(d, n, length))
    amps, spectrum = _whole_lattice_reference(plan)
    b = 0.0
    for k, amp in enumerate(amps):
        b = b + fd._philox(9, 1, k).standard_normal(plan.grid.shape) * amp
        want = hartley(b)
        assert np.array_equal(plan.sample(9, 1, stage=k).values, want)
        if k:
            coarse = plan.sample(9, 1, stage=k - 1)
            assert np.array_equal(plan.refine(coarse).values, want)
        for name, window in _windows(d, n).items():
            got = plan.sample(9, 1, stage=k, window=window).values
            assert np.array_equal(got, want[window]), name
    assert np.array_equal(plan.discrete_covariance(), hartley(spectrum))


def test_dissipation_plan_and_ball_sample_memory():
    """tracemalloc at 64^3 on run_dissipation's l = 0.5 plan and ball, and
    on a three-stage ladder down to the same scale, in units of one n^3
    float64 lattice.  Whole-lattice amplitudes held 1.01 and a windowed
    sample peaked 2.24 above them (normals plus the whole r2c output).
    The half-lattice plan holds 0.28; with whole-lattice normals and a
    column-pruned r2c a windowed sample peaked at 1.71, and a windowed
    refine that keeps its sum at 2.71 above the coarse sample.  Streaming
    the normals slab by slab into the r2c takes them to 0.76 (the window's
    columns, one slab and its r2c) and 1.76 (plus the kept sum).  Holding
    the amplitudes only on the band's axis-0 rows takes the plan to 0.165,
    and an r2c buffer of the band's axis-0 rows with an axis-0 c2c through
    an n-row scratch takes the windowed sample to 0.51 and the refine to
    1.51; each of these bounds sits between the last two measurements.
    The whole grid, at 2.16 for a sample and 3.16 for a refine that keeps
    its sum (2.12 and 3.12 now, and 2.12 for a sample whose band is the
    whole lattice), must not grow.  A Ball's weights held 0.25 as three
    index arrays and hold 0.125 as one flat index; the bound sits
    between."""
    import tracemalloc

    n, l = 64, 0.5
    grid = fd.GridSpec(3, n, 1.0 + 2 * l + 0.1)

    def ladder(epsilons):
        return fd.build_ladder(kn.KernelSpec(3, 0.2, 1.0),
                               kn.MollifierSpec("gaussian", 0.4 * l, 3),
                               epsilons)

    one, three = ladder((0.4 * l,)), ladder((0.8 * l, 0.6 * l, 0.4 * l))
    full = fd.build_ladder(kn.KernelSpec(3, 0.2, 1.0),
                           kn.MollifierSpec("gaussian", 0.06, 3), (0.06,))
    assert fd.SpectralPlan(full, grid).band == 3 * (n // 2) ** 2
    window = ms._region_weights(grid, ms.Ball((0.0, 0.0, 0.0), l),
                                0.0).window
    fd.SpectralPlan(one, grid).sample(1, 0, window=window)   # warm caches
    lattice = 8 * n ** 3

    def peak(setup, call):
        """What `setup()` holds and how far `call` on it peaks above
        that, in lattices."""
        tracemalloc.start()
        try:
            state = setup()
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            call(state)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held / lattice, (top - held) / lattice

    def coarse(win):
        def setup():
            plan = fd.SpectralPlan(three, grid)
            return plan, plan.sample(1, 0, stage=0, window=win)
        return setup

    def refine(state):
        plan, sample = state
        plan.refine(sample)

    held, windowed = peak(lambda: fd.SpectralPlan(one, grid),
                          lambda plan: plan.sample(1, 0, window=window))
    assert held < 0.22
    assert windowed < 0.62
    assert peak(coarse(window), refine)[1] < 1.62
    assert peak(lambda: fd.SpectralPlan(one, grid),
                lambda plan: plan.sample(1, 0))[1] < 2.2
    assert peak(lambda: fd.SpectralPlan(full, grid),
                lambda plan: plan.sample(1, 0))[1] < 2.2
    assert peak(coarse(None), refine)[1] < 3.2
    ball = ms.Ball((0.0, 0.0, 0.0), l)
    assert peak(lambda: ms._region_weights(grid, ball, 0.0),
                lambda weights: None)[0] < 0.19


def test_d1_plan_holds_one_half_line_per_stage():
    """tracemalloc: a d = 1 plan holds each stage's amplitudes and its
    summed spectrum on the half line, n/2 + 1 float64 each, where
    whole-line amplitudes held n per stage, about twice as much."""
    import tracemalloc

    plan, ladder, grid = make_plan(shells=6, n=2 ** 14)   # warms caches
    h = grid.n // 2
    tracemalloc.start()
    try:
        plan = fd.SpectralPlan(ladder, grid)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [amp.shape for amp in plan.amps] == [(h + 1,)] * ladder.n_stages
    assert held <= (ladder.n_stages + 1) * (h + 1) * 8 + 4096


# ----------------------------------------------------------------------
# law checks (ensemble statistics)
# ----------------------------------------------------------------------

def test_lattice_variance_matches_continuum():
    plan, ladder, _ = make_plan(shells=4)
    q0 = kn.mollified_covariance(
        ladder.kernel, kn.MollifierSpec("gaussian", ladder.epsilons[-1], 1),
        0.0)
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


def test_constant_remainder_is_zero_mode_variance():
    # g = c adds c to the covariance at every lag: the plan carries it as
    # zero-mode weight, so lattice variance and lag-0 covariance gain c
    kernel = kn.KernelSpec(1, 1.0, 1.0, kn.Remainder("constant", 0.3))
    moll = kn.MollifierSpec("gaussian", 2 ** -8, 1)
    ladder = fd.build_ladder(kernel, moll, (2 ** -4, 2 ** -6, 2 ** -8))
    plan = fd.SpectralPlan(ladder, fd.GridSpec(1, 2 ** 14, 4.0))
    q0 = kn.mollified_covariance(kernel, moll, 0.0)
    assert abs(plan.total_variance - q0) < 1e-6
    cov = plan.discrete_covariance()
    assert abs(cov[0] - plan.total_variance) < 1e-12 * plan.total_variance


def test_negative_constant_remainder_is_refused_by_kernel_spec():
    # f + c has a spectral atom of mass c at xi = 0; the spec refuses c < 0
    # even where the plan's zero-mode weight fhat(0) + c L^d stays positive
    for c in (-3.0, -0.1):
        with pytest.raises(GateError) as exc:
            kn.KernelSpec(1, 1.0, 1.0, kn.Remainder("constant", c))
        assert exc.value.detail["value"] == c


def test_table_kernel_certificate_refuses_before_the_weight_probe():
    # 0.1 ln+(1/r) - 0.3 (1 - r)_+: the certificate calls it indeterminate,
    # and the ladder's negative-weight probe would refuse it next
    rem = kn.Remainder("table", radii=[0.0, 1.0], values=[-0.3, 0.0])
    kernel = kn.KernelSpec(1, 0.1, 1.0, rem)
    moll = kn.MollifierSpec("gaussian", 2 ** -8, 1)
    with pytest.raises(GateError) as exc:
        fd.build_ladder(kernel, moll, (2 ** -8,))
    assert exc.value.detail["certificate"] == sp.CERT_INDETERMINATE


def test_table_certificate_runs_once_per_kernel(monkeypatch):
    calls = []
    check = sp.check_positive_definite

    def counted(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(sp, "check_positive_definite", counted)
    monkeypatch.setattr(kn, "_VERDICTS", {})
    radii = np.linspace(0.0, 1.0, 9)
    values = 0.13 * np.cos(radii)
    moll = kn.MollifierSpec("gaussian", 2 ** -6, 1)

    def ladder(lam2):
        rem = kn.Remainder("table", radii=radii.copy(), values=values.copy())
        return fd.build_ladder(kn.KernelSpec(1, lam2, 1.0, rem), moll,
                               (2 ** -6,))

    ladder(0.5)
    ladder(0.5)
    assert len(calls) == 1
    ladder(0.7)
    assert len(calls) == 2


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
        doc = json.loads(header)
        assert doc["format"] == "gmclab-grid-v1"
        assert doc["synthesis"] == fd.SYNTHESIS
        raw = np.frombuffer(fh.read(), dtype="<f8")
    assert raw.shape[0] == s.grid.n


def test_field_and_measure_headers_carry_the_same_provenance(tmp_path):
    grid = fd.GridSpec(1, 4, 2.0)
    provenance = dict(epsilon=0.125, seed=7, replica=2, stage=1,
                      ladder_digest="0123456789abcdef")
    fd.write_field(tmp_path / "f.bin", fd.FieldSample(
        grid=grid, values=np.zeros(4), variance=0.5, **provenance))
    ms.write_measure(tmp_path / "m.bin", ms.ChaosMeasure(
        grid=grid, cell_masses=np.ones(4), variance_used=0.5, **provenance))
    common = ('{"epsilon": 0.125, "format": "gmclab-grid-v1", "grid": '
              '{"dimension": 1, "length": 2.0, "n": 4, "origin": [-1.0]}, ')
    with open(tmp_path / "f.bin", "rb") as fh:
        assert fh.readline() == (
            common + '"kind": "field", "ladder_digest": "0123456789abcdef", '
            '"replica": 2, "seed": 7, "stage": 1, "synthesis": '
            '"rfftn-hartley-4", "variance": 0.5}\n').encode()
    with open(tmp_path / "m.bin", "rb") as fh:
        assert fh.readline() == (
            common + '"kind": "measure", "ladder_digest": '
            '"0123456789abcdef", "replica": 2, "seed": 7, "stage": 1, '
            '"variance_used": 0.5}\n').encode()
    assert fd.read_field(tmp_path / "f.bin").replica == 2
    assert ms.read_measure(tmp_path / "m.bin").ladder_digest == \
        "0123456789abcdef"


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


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("layout", [
    lambda v: v, lambda v: v.T, lambda v: v.astype(np.float32)],
    ids=["float64", "transposed", "float32"])
def test_grid_file_is_the_header_line_then_the_payload(tmp_path, d, layout):
    grid = fd.GridSpec(d, 8, 3.0)
    values = layout(np.random.default_rng(d).normal(size=grid.shape))
    path = tmp_path / "g.bin"
    fd.write_grid_file(path, grid, values, {"kind": "field"})
    header = json.dumps({"format": "gmclab-grid-v1", "grid": grid.to_json(),
                         "kind": "field"}, sort_keys=True).encode() + b"\n"
    payload = values.astype("<f8").tobytes()
    assert path.read_bytes() == header + payload
    assert np.array_equal(fd.read_grid_file(path)[2], values)
    need = 8 * grid.n ** d
    for bad in (payload[:-1], payload + b"\0"):
        path.write_bytes(header + bad)
        with pytest.raises(ValidationError, match=f": {len(bad)} payload "
                           f"bytes, its header's grid needs {need}$"):
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
    q0 = kn.mollified_covariance(kernel, moll, 0.0)
    assert abs(plan.total_variance - q0) < 1e-6
    n = 40
    vals = np.array([plan.sample(19, r).values[10, 20] for r in range(n)])
    se = vals.var() * np.sqrt(2.0 / n)
    assert abs(vals.var() - plan.total_variance) < 3.5 * se
