"""Radial Fourier analysis of log-type covariance kernels.

Everything here uses the cycles convention

    fhat(xi) = integral f(x) exp(-2i pi x.xi) dx,

so for a radial profile f(|x|) in dimension d

    fhat(xi) = (2 pi / xi^((d-2)/2)) * integral_0^inf rho^(d/2)
               J_((d-2)/2)(2 pi xi rho) f(rho) drho.

The module provides closed forms for the transform of ln+(T/r) in
d = 1..4 (built from scipy's sine integral and Bessel J0/J1, with series
below a = 0.5 where the closed forms cancel), a panel quadrature that
splits at the oscillation period (on a grid of frequencies it evaluates
the profile once per run of equal panels), and a grid-based
positive-definiteness checker.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1, sici

from .errors import GateError, ValidationError

__all__ = [
    "si_minus_sin",
    "logplus_hat",
    "radial_fourier",
    "radial_fourier_grid",
    "sphere_area",
    "SpectralProfile",
    "check_positive_definite",
    "default_check_grid",
]


# ----------------------------------------------------------------------
# closed-form transforms of ln+(T/r)
# ----------------------------------------------------------------------

def si_minus_sin(x):
    """l(x) = Si(x) - sin(x), evaluated without cancellation near 0.

    l(x) = x^3/9 - x^5/150 + ... ; nonnegative for all x >= 0.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        # sum_{k>=1} (-1)^(k+1) 2k x^(2k+1) / ((2k+1)(2k+1)!)
        total = np.zeros_like(xs)
        term = xs * x2 / 9.0  # k = 1
        k = 1
        while np.any(np.abs(term) > 1e-20):
            total += term
            k += 1
            term = term * (-x2) * (k * (2 * k - 1)) / ((k - 1) * (2 * k + 1) * (2 * k) * (2 * k + 1))
        out[small] = total
    big = ~small
    if np.any(big):
        out[big] = sici(x[big])[0] - np.sin(x[big])
    return out[0] if scalar else out


def _one_minus_j0_over_a2(a):
    out = np.empty_like(a)
    small = np.abs(a) < 0.5
    a2 = a[small] * a[small]
    out[small] = 0.25 - a2 / 64.0 + a2 * a2 / 2304.0 \
        - a2 * a2 * a2 / 147456.0 + a2 ** 4 / 14745600.0
    big = ~small
    if np.any(big):
        out[big] = (1.0 - j0(a[big])) / (a[big] * a[big])
    return out


def _d4_profile(a):
    """(2 - 2 J0(a) - a J1(a)) / a^4, stable near 0."""
    out = np.empty_like(a)
    small = np.abs(a) < 0.5
    a2 = a[small] * a[small]
    out[small] = 1.0 / 32.0 - a2 / 576.0 + a2 * a2 / 24576.0
    big = ~small
    if np.any(big):
        ab = a[big]
        out[big] = (2.0 - 2.0 * j0(ab) - ab * j1(ab)) / ab ** 4
    return out


def logplus_hat(xi, d, T=1.0):
    """Radial Fourier transform of r -> ln+(T/r) in dimension d (1..4).

    Vectorized over xi >= 0. All four dimensions reduce to closed forms:

        d=1:  Si(a) / (pi xi)
        d=2:  2 pi T^2 (1 - J0(a)) / a^2
        d=3:  4 pi T^3 (Si(a) - sin(a)) / a^3
        d=4:  4 pi^2 T^4 (2 - 2 J0(a) - a J1(a)) / a^4

    with a = 2 pi xi T; nonnegative for d <= 3, oscillating for d = 4.
    """
    if d not in (1, 2, 3, 4):
        raise ValidationError("logplus_hat supports d in 1..4")
    if T <= 0:
        raise ValidationError("integral scale T must be positive")
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi).copy()
    if np.any(xi < 0):
        raise ValidationError("xi must be nonnegative")
    a = 2.0 * np.pi * xi * T
    if d == 1:
        out = np.empty_like(a)
        tiny = a < 1e-10
        out[tiny] = 2.0 * T
        nt = ~tiny
        out[nt] = sici(a[nt])[0] / (np.pi * xi[nt])
    elif d == 2:
        out = 2.0 * np.pi * T * T * _one_minus_j0_over_a2(a)
    elif d == 3:
        out = np.empty_like(a)
        tiny = a < 1e-8
        out[tiny] = 4.0 * np.pi * T ** 3 / 9.0
        nt = ~tiny
        if np.any(nt):
            # si_minus_sin is series-evaluated below 0.5, so the ratio is
            # cancellation-free all the way down
            out[nt] = 4.0 * np.pi * T ** 3 * si_minus_sin(a[nt]) / a[nt] ** 3
    else:
        out = 4.0 * np.pi ** 2 * T ** 4 * _d4_profile(a)
    return out[0] if scalar else out


# ----------------------------------------------------------------------
# panel quadrature for radial transforms
# ----------------------------------------------------------------------

_QUAD_ORDER = 16  # Gauss-Legendre nodes per panel (the bound uses 16 and 28)


@functools.lru_cache(maxsize=None)
def _gauss(order):
    return np.polynomial.legendre.leggauss(order)


def _panel_count(xi, support):
    """Uniform panels on [0, support], one per J(2 pi xi rho) period 1/xi:
    32 below two periods, at most 400000."""
    if xi <= 0 or xi * support < 2.0:
        return 32
    return min(int(np.ceil(support / (1.0 / xi))), 400000)


def _panel_edges(n, support):
    """n uniform panel edges on [0, support], the first panel graded
    geometrically: integrable endpoint singularities (ln rho) resolve."""
    base = np.linspace(0.0, support, n + 1)
    graded = base[1] * 2.0 ** (-np.arange(36, 0, -1, dtype=float))
    return np.concatenate([[0.0], graded, base[1:]])


class _Panels:
    """Gauss-Legendre nodes `r` of one panel set at one order, and the
    profile's values `f` on them."""

    def __init__(self, profile, edges, order):
        x, self.weights = _gauss(order)
        mid = 0.5 * (edges[1:] + edges[:-1])
        self.half = 0.5 * (edges[1:] - edges[:-1])
        nodes = mid[:, None] + self.half[:, None] * x[None, :]
        self.shape = nodes.shape
        self.r = nodes.ravel()
        self.f = profile(self.r)

    def integrate(self, vals):
        """Integral of the integrand whose node values are `vals`."""
        vals = vals.reshape(self.shape)
        return float(np.sum(vals @ self.weights * self.half))


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi, 4: 2.0 * np.pi ** 2}


def sphere_area(d):
    """Surface area of the unit sphere in R^d, d = 1..4 (2 in d = 1)."""
    return _SPHERE_AREA[d]


# J_nu for d = 2, 3, 4; J_1/2 in its elementary form, because scipy's
# general-order Bessel function is markedly slower there
_BESSEL = {0.0: j0,
           0.5: lambda x: np.sqrt(2.0 / (np.pi * x)) * np.sin(x),
           1.0: j1}


def radial_fourier(profile, d, xi, support):
    """Radial Fourier transform of a compactly supported radial profile.

    profile : callable rho-array -> values (radial profile f(rho))
    d       : dimension, 1..4
    xi      : evaluation frequency (>= 0, scalar)
    support : upper integration limit (profile negligible beyond it)

    Returns (value, error_bound); the bound is the difference between the
    quadrature at 16 and at 28 nodes per panel, panels being split at the
    oscillation period and geometrically refined near 0.  Raises GateError
    when the two estimates disagree beyond any sensible level
    (non-convergence), reporting the achieved bound.  The one-point case of
    `radial_fourier_grid`.
    """
    vals, errs = radial_fourier_grid(profile, d, [float(xi)], support)
    return float(vals[0]), float(errs[0])


def radial_fourier_grid(profile, d, xi, support):
    """`radial_fourier` at every frequency of the 1-d array `xi`, as
    (values, error_bounds) arrays, each entry bit-identical to a one-point
    call.

    Neighbouring frequencies with the same panel count share their panels,
    so `profile` is evaluated once per run of equal panels at each of the
    two orders; only the current run is held.  An increasing grid makes
    the runs long.  Supports d = 1..4, as `logplus_hat` does.
    """
    if d not in (1, 2, 3, 4):
        raise ValidationError("radial_fourier_grid supports d in 1..4")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValidationError("xi must be nonnegative")
    nu = (d - 2) / 2.0
    bessel = _BESSEL.get(nu)      # None in d = 1, which uses the cosine
    vals = np.empty_like(xi)
    errs = np.empty_like(xi)
    run = None                    # panel count of the current run
    for i, x in enumerate(xi.tolist()):
        n = _panel_count(x, support)
        if n != run:
            run, edges = n, _panel_edges(n, support)
            panels = [_Panels(profile, edges, o)
                      for o in (_QUAD_ORDER, _QUAD_ORDER + 12)]
            if d > 1:
                power = [np.power(p.r, d / 2.0) for p in panels]
        if x == 0.0:
            surf = sphere_area(d)
            lo, hi = (p.integrate(np.power(p.r, d - 1) * p.f) for p in panels)
            vals[i], errs[i] = surf * hi, surf * abs(hi - lo) + 1e-300
            continue
        if d == 1:
            lo, hi = (p.integrate(2.0 * np.cos(2.0 * np.pi * x * p.r) * p.f)
                      for p in panels)
            scale = 1.0
        else:
            lo, hi = (p.integrate(pw * bessel(2.0 * np.pi * x * p.r) * p.f)
                      for p, pw in zip(panels, power))
            scale = 2.0 * np.pi / x ** nu
        err = scale * abs(hi - lo) + 1e-300
        val = scale * hi
        if err > 1e-3 * (abs(val) + 1.0):
            raise GateError("radial transform did not converge",
                            value=val, error_bound=err, xi=x)
        vals[i], errs[i] = val, err
    return vals, errs


# ----------------------------------------------------------------------
# positive-definiteness checker
# ----------------------------------------------------------------------

CERT_NONNEGATIVE = "nonnegative-on-grid"
CERT_OSCILLATING = "sign-oscillating"
CERT_INDETERMINATE = "indeterminate"


@dataclass
class SpectralProfile:
    """Radial spectral density on the frequency grid `xi` and the sign
    certificate `check_positive_definite` gave it (bounds not kept)."""

    xi: np.ndarray
    fhat: np.ndarray
    certificate: str


def default_check_grid(support):
    """Grid for check_positive_definite: a log-spaced spine from
    1e-2/support to xi_max = 1e3/support plus dense linear windows of 48
    points (spacing 1/(4*support)) ending at xi*support = 60, 300 and
    1000, so sign structure at large xi is sampled below Nyquist."""
    if not 0.0 < support < math.inf:
        raise ValidationError(f"support must be finite and > 0, got "
                              f"{support!r}")
    xi_max = 1e3 / support
    spine = np.geomspace(1e-2 / support, xi_max, 240)
    step = 1.0 / (4.0 * support)
    windows = [xi_max * hi_frac - step * np.arange(48)[::-1]
               for hi_frac in (0.06, 0.3, 1.0)]
    return np.unique(np.concatenate([spine] + windows))


def check_positive_definite(profile, d, support):
    """Evaluate the radial transform of `profile` on
    `default_check_grid(support)` and certify its sign pattern.

    Certificate rules: 'nonnegative-on-grid' when every value clears
    -(pointwise quadrature bound); 'sign-oscillating' when values beyond
    their bounds take both signs in the upper half (by frequency) of the
    oscillatory range; 'indeterminate' otherwise.

    The grid spans 1000 oscillation periods (xi_max * support = 1e3) and
    its dense windows sample the oscillatory range (xi * support >= 10)
    at spacing 1/(4*support), below Nyquist at every support.

    The transform is `radial_fourier_grid` on the increasing grid, so the
    profile is evaluated once per run of frequencies sharing their panels,
    not once per frequency.
    """
    xi = default_check_grid(support)
    vals, errs = radial_fourier_grid(profile, d, xi, support)

    bound = errs + 1e-12 * np.maximum(np.abs(vals), 1.0)
    negative = vals < -bound
    if not np.any(negative):
        cert = CERT_NONNEGATIVE
    else:
        osc = xi * support >= 10.0
        # both signs must show up in the upper half of the oscillatory range
        osc_idx = np.where(osc)[0]
        upper = osc_idx[len(osc_idx) // 2:]
        pos_up = np.any(vals[upper] > bound[upper])
        neg_up = np.any(vals[upper] < -bound[upper])
        cert = CERT_OSCILLATING if (pos_up and neg_up) else CERT_INDETERMINATE

    return SpectralProfile(xi=xi, fhat=vals, certificate=cert)
