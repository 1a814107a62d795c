import numpy as np
import pytest
from scipy.integrate import quad

from gmclab import kernels as kn
from gmclab import spectral as sp
from gmclab.errors import ValidationError


def test_si_minus_sin_nonnegative_and_cubic():
    x = np.geomspace(1e-8, 300.0, 4000)
    l = sp.si_minus_sin(x)
    assert np.all(l >= -1e-12)
    # l(x) = x^3/9 - x^5/150 + ...
    assert abs(sp.si_minus_sin(1e-3) / 1e-9 - 1.0 / 9.0) < 1e-6
    # Si is odd, so l is too
    assert np.array_equal(sp.si_minus_sin(-x), -l)


def test_si_matches_scipy_sici():
    from scipy.special import sici
    # 0, the piece edges 4, 8, 16, 32 and 64 and their float neighbours,
    # a dense linear grid to 100 and to 1e7, and a log grid from 1e-300
    edges = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    x = np.unique(np.concatenate([
        [0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 128.0),
        np.linspace(0.0, 100.0, 400_001), np.linspace(0.0, 1e7, 400_001),
        np.geomspace(1e-300, 1e7, 100_001)]))
    got, want = sp._si(x), sici(x)[0]
    assert got[0] == 0.0 and x[0] == 0.0
    assert np.max(np.abs(got[1:] - want[1:]) / want[1:]) <= 1e-15


@pytest.mark.parametrize("d,expected", [
    (1, 2.0),                       # 2 int_0^1 ln(1/r) dr
    (2, np.pi / 2.0),               # 2 pi int r ln(1/r) dr
    (3, 4.0 * np.pi / 9.0),         # 4 pi int r^2 ln(1/r) dr
    (4, np.pi ** 2 / 8.0),
])
def test_logplus_hat_zero_frequency_is_integral(d, expected):
    # fhat(0) equals the integral of f when f is integrable
    assert abs(sp.logplus_hat(0.0, d) - expected) < 1e-12
    surf = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi, 4: 2 * np.pi ** 2}[d]
    val, _ = quad(lambda r: surf * r ** (d - 1) * np.log(1 / r), 0, 1)
    assert abs(sp.logplus_hat(0.0, d) - val) < 1e-9


def test_logplus_hat_d3_nonnegative_everywhere():
    xi = np.geomspace(1e-4, 1e3, 5000)
    vals = sp.logplus_hat(xi, 3)
    assert np.all(vals >= -1e-12)


def test_logplus_hat_d3_large_xi_envelope():
    # |Si| <= pi/2 + eps, |sin| <= 1: fhat <= (pi/2 + 1)/(2 pi^2 xi^3)
    xi = np.geomspace(10.0, 1e4, 50)
    bound = (np.pi / 2 + 1.0) / (2.0 * np.pi ** 2 * xi ** 3)
    assert np.all(sp.logplus_hat(xi, 3) <= bound)


def test_logplus_hat_small_xi_expansion_3d():
    # l(x) ~ x^3/9 gives fhat -> 4 pi /9 as xi -> 0
    assert abs(sp.logplus_hat(1e-6, 3) - 4 * np.pi / 9) < 1e-9


def test_radial_fourier_indicator_d1():
    # cosine transform of [0, 1]: sin(2 pi xi)/(pi xi)
    ind = lambda r: (r <= 1.0).astype(float)
    for xi in (0.2, 0.37, 1.9):
        val, err = sp.radial_fourier(ind, 1, xi, support=1.0)
        assert abs(val - np.sin(2 * np.pi * xi) / (np.pi * xi)) < 5e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_radial_fourier_matches_closed_form(d):
    # quadrature with J_0, J_1/2 and J_1 against the Si and J_0/J_1 closed forms
    prof = lambda r: np.where(r < 1.0, np.log(1.0 / np.maximum(r, 1e-300)), 0.0)
    for xi in np.geomspace(1e-2, 1e3, 12):
        val, err = sp.radial_fourier(prof, d, xi, support=1.0)
        assert abs(val - sp.logplus_hat(xi, d)) < 1e-8


def test_radial_fourier_zero_frequency_d3():
    prof = lambda r: np.where(r < 1.0, np.log(1.0 / np.maximum(r, 1e-300)), 0.0)
    val, err = sp.radial_fourier(prof, 3, 0.0, support=1.0)
    assert abs(val - 4 * np.pi / 9) < 1e-9


def test_triangle_transform_is_squared_sinc():
    # (1 - |x|)_+ in d=1 transforms to (sin(pi xi)/(pi xi))^2 >= 0
    tri = lambda r: np.maximum(1.0 - r, 0.0)
    for xi in (0.3, 0.5, 1.7, 2.5):
        val, _ = sp.radial_fourier(tri, 1, xi, support=1.0)
        assert abs(val - (np.sinc(xi)) ** 2) < 1e-10
        assert val >= -1e-12


def _log_profile(r):
    return np.where(r < 1.0,
                    np.log(1.0 / np.maximum(r, 1e-300)), 0.0)


_TABLE = kn.Remainder("table", radii=[0.0, 0.3, 0.7, 1.0],
                      values=[0.4, 0.25, 0.1, 0.0])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("table", [False, True], ids=["log", "log+table"])
def test_shared_panels_match_pointwise_transform(d, table):
    prof = (lambda r: _log_profile(r) + _TABLE(r)) if table else _log_profile
    xi = np.concatenate([[0.0], sp.default_check_grid(1.0)])
    vals, errs = sp.radial_fourier_grid(prof, d, xi, 1.0)
    for i, x in enumerate(xi):
        assert (vals[i], errs[i]) == sp.radial_fourier(prof, d, x, 1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_checker_nonnegative_low_dimensions(d):
    rep = sp.check_positive_definite(_log_profile, d, support=1.0)
    assert rep.certificate == sp.CERT_NONNEGATIVE


def test_checker_oscillating_d4():
    rep = sp.check_positive_definite(_log_profile, 4, support=1.0)
    assert rep.certificate == sp.CERT_OSCILLATING


def test_checker_gaussian_profile_positive():
    ga = lambda r: np.exp(-r * r / 2.0)
    rep = sp.check_positive_definite(ga, 2, support=8.0)
    assert rep.certificate == sp.CERT_NONNEGATIVE
    np.testing.assert_array_equal(rep.xi, sp.default_check_grid(8.0))


@pytest.mark.parametrize("support", [1e-2, 1.0, 8.0, 1e2])
def test_check_grid_resolves_the_oscillation(support):
    """The certificate's grid is strictly increasing, spans >= 50
    oscillation periods and holds >= 8 consecutive points <= 1/(2 support)
    apart where xi * support >= 10, at every support."""
    xi = sp.default_check_grid(support)
    assert np.all(np.diff(xi) > 0)
    assert xi[-1] * support >= 50.0
    dense = (xi[1:] - xi[:-1] <= 1.0 / (2.0 * support)) \
        & (xi[:-1] * support >= 10.0)
    run = longest = 0
    for close in dense:
        run = run + 1 if close else 0
        longest = max(longest, run)
    assert longest >= 7          # 7 short gaps join 8 points


@pytest.mark.parametrize("support", [0.0, -1.0, np.inf, np.nan])
def test_checker_refuses_a_support_that_is_not_finite_and_positive(support):
    with pytest.raises(ValidationError):
        sp.check_positive_definite(_log_profile, 3, support=support)


@pytest.mark.parametrize("d", [0, 5])
def test_radial_transform_refuses_a_dimension_outside_1_to_4(d):
    with pytest.raises(ValidationError, match="d in 1..4"):
        sp.radial_fourier_grid(_log_profile, d, [0.0, 1.0], 1.0)
