"""Radial Fourier analysis of log-type covariance kernels.

Everything here uses the cycles convention

    fhat(xi) = integral f(x) exp(-2i pi x.xi) dx,

so for a radial profile f(|x|) in dimension d

    fhat(xi) = (2 pi / xi^((d-2)/2)) * integral_0^inf rho^(d/2)
               J_((d-2)/2)(2 pi xi rho) f(rho) drho.

The module provides closed forms for the transform of ln+(T/r) in
d = 1..4 (built from the sine integral in d = 1 and 3 and from Bessel
J0/J1 in d = 2 and 4, with series below a = 0.5 where the closed forms
cancel), a panel quadrature that splits at the oscillation period (one
node layout for d = 1..4: on a grid of frequencies it evaluates the
profile once per run of equal panels, whose nodes meet the kernel, cos,
J0, sin or J1, over a block of frequencies, except the uniform panels of
d = 1 and 3, which take their cosines and sines by angle addition), and
a grid-based positive-definiteness checker with one sign rule,
`certify_sign`.  No sum runs through BLAS, so no value depends on the
BLAS thread count.

The sine integral is the module's own (`_si`, numpy only), so d = 1 and
d = 3 never load scipy; scipy.special's J0 and J1 are imported on first
use (`_kernel`), by d = 2 and d = 4.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GateError, ValidationError

__all__ = [
    "si_minus_sin",
    "logplus_hat",
    "radial_fourier",
    "radial_fourier_grid",
    "sphere_area",
    "SpectralProfile",
    "certify_sign",
    "check_positive_definite",
    "default_check_grid",
]


# ----------------------------------------------------------------------
# closed-form transforms of ln+(T/r)
# ----------------------------------------------------------------------

# Si(x) = x sum_k (-1)^k x^(2k) / ((2k+1) (2k+1)!), for x < 4 (its terms
# beyond k = 15 are below 1e-18 there)
_SI_TAYLOR = np.array([(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))
                       for k in range(16)])

# x f(x) and x^2 g(x), the auxiliary functions of Si(x) = pi/2 - f cos x -
# g sin x, as their asymptotic series in u^2 = 1/x^2, of exact factorials
# (row k is ((-1)^k (2k)!, (-1)^k (2k+1)!)); for x >= 64 the terms left
# out move f and g by less than 5e-18
_SI_ASYMPTOTIC = np.array([[(-1) ** k * math.factorial(2 * k),
                            (-1) ** k * math.factorial(2 * k + 1)]
                           for k in range(8)], dtype=float)[:, :, None]

# x f(x) and x^2 g(x) on the octaves 2^(e-1) <= x < 2^e, e = 3..6, as
# polynomials in t = 2^(e+1) / x - 3 in (-1, 1], lowest degree first
# (tools/fit_si.py prints them); their fit errors in f and g are below
# 4e-18
_SI_OCTAVES = np.array([
    # 4 <= x < 8: fit errors 1.5e-18 (f), 3.2e-18 (g)
    [[0.9464912480103463, -0.028596716847277697, -0.0015441761440062789,
      0.0004797015509185571, -6.50130254279423e-05, 5.190742375242738e-06,
      1.810895987431147e-07, -1.8385248493006458e-07, 4.8635215797613694e-08,
      -9.312511391523144e-09, 1.385254755558367e-09, -1.340486240482495e-10,
      -4.763094147220244e-12, 7.338081843026325e-12, -3.1939634824805596e-12,
      7.742851291050094e-13],
     [0.8607010974685133, -0.06645849055858932, -0.00031521447375607096,
      0.0011386498983822241, -0.0002472039914344392, 3.440406890357523e-05,
      -2.5932755040431672e-06, -3.035844962404024e-07, 1.8628074501035294e-07,
      -5.154140248579079e-08, 1.081161818963449e-08, -1.8169605140326036e-09,
      2.2629924702278846e-10, -4.9567810994866735e-12, -1.3693061154234161e-11,
      4.839421312627216e-12]],
    # 8 <= x < 16: fit errors 5.9e-21 (f), 8.6e-21 (g)
    [[0.9839312852115878, -0.009874715236727605, -0.0011724070673323698,
      0.00011363570531950593, -2.9033854474247873e-06, -7.154550893384019e-07,
      1.413753289311517e-07, -1.3763756632371614e-08, 2.344818234120077e-10,
      2.1657996767830323e-10, -5.446481599500429e-11, 8.205635407018743e-12,
      -7.493708640837463e-13, -1.9697119579327548e-14, 3.2496766256463895e-14,
      -7.978496236475383e-15],
     [0.9543071395014049, -0.026783872877449464, -0.0024944998541215077,
      0.00041970219591028587, -2.5248753578075632e-05, -1.7479746315355726e-06,
      7.005884190806002e-07, -1.0448240430585958e-07, 7.957977164673545e-09,
      5.316290228242623e-10, -3.282975945775417e-10, 7.181046667580172e-11,
      -1.0533193096908336e-11, 8.595690169134243e-13, 1.3555549578096716e-13,
      -6.216020515355916e-14]],
    # 16 <= x < 32: fit errors 3.6e-24 (f), 3.7e-24 (g)
    [[0.9957144955307021, -0.0027884307335584806, -0.0004215067536062567,
      1.2904379163338207e-05, 5.345680115283483e-07, -7.473661043867779e-08,
      2.3386173737103124e-09, 2.9076812947572586e-10, -4.7316058670417095e-11,
      2.6365473671434674e-12, 1.7641292780710499e-13, -5.72208689981024e-14,
      6.427967883032056e-15, -2.12638897959839e-16, -7.386790038891662e-17,
      1.6460565670607457e-17],
     [0.9873492033300266, -0.0081059019887545, -0.0011483808483487264,
      5.803233279169116e-05, 1.5517909010632336e-06, -4.0632454988318774e-07,
      2.2476452323903745e-08, 1.1905595121824627e-09, -3.5465771436817256e-10,
      3.165816916510867e-11, 5.219792887129317e-14, -4.556793867582923e-13,
      7.531446870811824e-14, -5.7668286681841985e-15, -3.8077021218229493e-16,
      1.7414218957642272e-16]],
    # 32 <= x < 64: fit errors 4.4e-28 (f), 2.4e-28 (g)
    [[0.998908493309663, -0.0007229953781219216, -0.00011743064355616882,
      9.913808502761303e-07, 7.007558080000675e-08, -2.2545234769576198e-09,
      -6.234186704662656e-11, 6.794836944165413e-12, -7.69182765104303e-14,
      -2.020567602085473e-14, 1.391064475844042e-15, 1.413225029171739e-17,
      -8.82546197294765e-18, 5.917497095421636e-19, 1.4360094563612887e-20,
      -5.820463442073964e-21],
     [0.9967395071752972, -0.0021505746175808564, -0.0003433695030160213,
      4.806430370704603e-06, 3.1656005184566896e-07, -1.4649294468590434e-08,
      -2.9370149349580594e-10, 5.2512656945537114e-11, -1.2378177509171524e-12,
      -1.6032490180501103e-13, 1.5768089107174846e-14, -1.480220665211774e-16,
      -9.166506629466428e-17, 8.810420551600679e-18, -4.2735569178172596e-20,
      -7.107637078996711e-20]],
])


def _horner(coef, t):
    """sum_k coef[k] t^k, the rows of `coef` lowest degree first, each row
    broadcasting against t: one multiply and one add per row, in place."""
    y = coef[-1] * t
    for c in coef[-2:0:-1]:
        y += c
        y *= t
    y += coef[0]
    return y


def _si(x):
    """The sine integral Si(x) = integral_0^x sin(t)/t dt of a float array
    x >= 0, elementwise: each value depends only on its own x.  The Taylor
    series for x < 4; Si = pi/2 - u (x f cos x + u x^2 g sin x) with
    u = 1/x beyond, x f and x^2 g from the fits on the octaves below 64 and
    from their asymptotic series from 64 on.  Relative error within about
    4e-16 (as scipy.special.sici's) on [0, 1e7]."""
    xc = np.maximum(x, 4.0)             # x < 4 takes the Taylor series below
    u = 1.0 / xc
    t = u * u
    fg = _horner(_SI_ASYMPTOTIC, t)              # x f, x^2 g
    mid = xc < 64.0
    if mid.any():
        e = np.frexp(xc[mid])[1]                 # 2^(e-1) <= x < 2^e
        tm = np.ldexp(u[mid], e + 1) - 3.0
        fg[:, mid] = _horner(_SI_OCTAVES[e - 3].T, tm)
    fg[1] *= u
    fg[0] *= np.cos(xc, out=t)
    fg[1] *= np.sin(xc, out=t)
    fg[0] += fg[1]
    fg[0] *= u
    out = np.subtract(np.pi / 2.0, fg[0], out=xc)
    small = x < 4.0
    if small.any():
        xs = x[small]
        out[small] = xs * _horner(_SI_TAYLOR, xs * xs)
    return out


def si_minus_sin(x):
    """l(x) = Si(x) - sin(x), evaluated without cancellation near 0 (Si
    is odd, so l is too).

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
        xb = x[big]
        out[big] = np.copysign(_si(np.abs(xb)), xb) - np.sin(xb)
    return out[0] if scalar else out


def _kernel(d):
    """The transform's kernel in d: cos, J0, sin (the elementary J_1/2)
    or J1; scipy.special's J0 and J1 are imported on first use."""
    if d % 2:
        return np.cos if d == 1 else np.sin
    from scipy.special import j0, j1
    return j0 if d == 2 else j1


def _one_minus_j0_over_a2(a):
    out = np.empty_like(a)
    small = np.abs(a) < 0.5
    a2 = a[small] * a[small]
    out[small] = 0.25 - a2 / 64.0 + a2 * a2 / 2304.0 \
        - a2 * a2 * a2 / 147456.0 + a2 ** 4 / 14745600.0
    big = ~small
    if np.any(big):
        out[big] = (1.0 - _kernel(2)(a[big])) / (a[big] * a[big])
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
        out[big] = (2.0 - 2.0 * _kernel(2)(ab) - ab * _kernel(4)(ab)) / ab**4
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
    xi = np.atleast_1d(xi)
    if np.any(xi < 0):
        raise ValidationError("xi must be nonnegative")
    a = 2.0 * np.pi * xi * T
    if d == 1:
        # 2 T below a = 1e-10, the limit of Si(a) / (pi xi) as a -> 0 (at
        # xi = 0 the quotient is 0 / 0)
        out = _si(a)
        tiny = a < 1e-10
        np.divide(out, np.pi * xi, out=out, where=~tiny)
        out[tiny] = 2.0 * T
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
_ORDERS = (slice(0, _QUAD_ORDER), slice(_QUAD_ORDER, None))


@functools.lru_cache(maxsize=None)
def _gauss():
    """The Gauss-Legendre offsets of both orders, 16 and 28, in one row
    (`_ORDERS` slices them), and their weights."""
    rules = [np.polynomial.legendre.leggauss(o)
             for o in (_QUAD_ORDER, _QUAD_ORDER + 12)]
    return tuple(np.concatenate(parts) for parts in zip(*rules))


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


# elements of the largest (frequencies x nodes) block a run transforms at
# once, so that a long run of equal panels holds a few MB
_BLOCK = 1 << 17


class _Panels:
    """Gauss-Legendre nodes of the n + 36 panels of `_panel_edges` at both
    orders, side by side (`_ORDERS`), and the profile's values on them,
    for a transform in d: one node layout for every d.

    The panels that meet the kernel node by node (the 37 graded ones in
    d = 1 and 3, all of them in d = 2 and 4) hold their nodes `r` and
    their weighted values `wf` (one row per order, zero on the other's
    nodes).  The n - 1 uniform panels of d = 1 and 3, of half-width `h`
    and midpoints `mid`, hold their nodes and values transposed, `ru` and
    `fu` of shape (44, n - 1); in d = 2 and 4 they hold none.  Every held
    value is rho^(d // 2) f(rho): the rho^(d/2) of the transform in d = 2
    and 4, and in d = 3 the rho that makes sin(2 pi xi rho) the elementary
    J_1/2.  The profile is evaluated once, on all the nodes.
    """

    def __init__(self, profile, n, support, d):
        self.d = d
        self.t, self.weights = _gauss()
        edges = _panel_edges(n, support)
        split = 38 if d % 2 else edges.size   # node by node up to this edge
        edges, base = edges[:split], edges[split - 1:]
        self.h = 0.5 * support / n
        self.mid = 0.5 * (base[1:] + base[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = np.empty(self.t.size * (mid.size + self.mid.size))
        r = nodes[:mid.size * self.t.size].reshape(mid.size, self.t.size)
        np.multiply(half[:, None], self.t, out=r)
        r += mid[:, None]
        self.r = r.ravel()
        self.ru = nodes[r.size:].reshape(self.t.size, self.mid.size)
        np.multiply(self.h, self.t[:, None], out=self.ru)
        self.ru += self.mid
        f = profile(nodes)
        if d > 1:
            f *= nodes ** (d // 2)
        self.fu = f[r.size:].reshape(self.ru.shape)
        weighted = f[:r.size].reshape(r.shape) * self.weights * half[:, None]
        self.wf = np.zeros((2,) + r.shape)
        for w, o in zip(self.wf, _ORDERS):
            w[:, o] = weighted[:, o]
        self.wf = self.wf.reshape(2, -1)

    def moment(self, k):
        """The integrals at the two orders of rho^k times the held values
        over every panel."""
        far = self.ru ** k * self.fu
        return tuple(float(near) + self.h * float(np.einsum(
            "qp,q->", far[o], self.weights[o]))
            for near, o in zip(np.einsum("n,jn->j", self.r ** k, self.wf),
                               _ORDERS))

    def integrals(self, x):
        """The integrals at the two orders, shape (2, len(x)), of the
        kernel (`_kernel`) at a rho times the held values, a = 2 pi x, at
        each frequency of the 1-d array x > 0.

        The node-by-node panels take one kernel value per node and
        frequency.  On the uniform panels of d = 1 and 3 the angle
        a (m + h t) adds up: one cosine and one sine per midpoint m,
        shared by both orders, and one per Gauss offset t.  Each
        frequency's sums run in the same order whatever the other
        frequencies are.
        """
        a = 2.0 * np.pi * x
        out = np.einsum("kn,jn->jk", _kernel(self.d)(
            np.multiply.outer(a, self.r)), self.wf)
        am = np.multiply.outer(a, self.mid)
        c, s = np.cos(am), np.sin(am)
        # the rows of cos(a(m + h t)) (d = 1) or sin(a(m + h t)) (d = 3)
        # against cos(a h t) and sin(a h t)
        rot = np.stack((c, -s) if self.d == 1 else (s, c), axis=1)
        ph = np.multiply.outer(a * self.h, self.t)
        offsets = np.stack((np.cos(ph), np.sin(ph)), axis=1)
        offsets *= self.weights
        for j, o in enumerate(_ORDERS):
            per_panel = np.einsum("kiq,qp->kip", offsets[:, :, o],
                                  self.fu[o])
            out[j] += self.h * np.einsum("kip,kip->k", rot, per_panel)
        return out


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi, 4: 2.0 * np.pi ** 2}


def sphere_area(d):
    """Surface area of the unit sphere in R^d, d = 1..4 (2 in d = 1)."""
    return _SPHERE_AREA[d]


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
    so `profile` is evaluated once per run of equal panels, on the nodes
    of both orders; only the current run is held.  An increasing grid makes
    the runs long.  Every panel takes one kernel value (cos in d = 1, J0
    in d = 2, sin, the elementary J_1/2, in d = 3, J1 in d = 4) per node
    and frequency, over a block of frequencies, except the uniform panels
    of d = 1 and 3, which take one cosine and one sine per panel midpoint
    and per Gauss offset (`_Panels.integrals`).  Every sum is contracted
    without BLAS, so no value depends on its thread count.  Supports
    d = 1..4, as `logplus_hat` does.
    """
    if d not in (1, 2, 3, 4):
        raise ValidationError("radial_fourier_grid supports d in 1..4")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValidationError("xi must be nonnegative")
    vals = np.empty_like(xi)
    errs = np.empty_like(xi)
    start = 0
    for n, run in itertools.groupby(_panel_count(x, support)
                                    for x in xi.tolist()):
        run = np.arange(start, start + len(list(run)))
        start = run[-1] + 1
        panels = _Panels(profile, n, support, d)
        zero = xi[run] == 0.0
        if zero.any():
            # rho^(d - 1) f, of which the panels hold rho^(d // 2) f
            lo, hi = panels.moment((d - 1) // 2)
            surf = sphere_area(d)
            vals[run[zero]] = surf * hi
            errs[run[zero]] = surf * abs(hi - lo) + 1e-300
        run = run[~zero]
        step = max(1, _BLOCK // (panels.r.size + 2 * n))
        for b in range(0, len(run), step):
            idx = run[b:b + step]
            x = xi[idx]
            lo, hi = panels.integrals(x)
            # 2 pi / xi^((d-2)/2), and 2 / xi in d = 3, where the
            # integrand holds the elementary J_1/2
            scale = (2.0 if d % 2 else 2.0 * np.pi) / (x if d > 2 else 1.0)
            err = scale * np.abs(hi - lo) + 1e-300
            val = scale * hi
            bad = np.flatnonzero(err > 1e-3 * (np.abs(val) + 1.0))
            if bad.size:
                raise GateError("radial transform did not converge",
                                value=float(val[bad[0]]),
                                error_bound=float(err[bad[0]]),
                                xi=float(x[bad[0]]))
            vals[idx], errs[idx] = val, err
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
    xi = np.sort(np.concatenate([spine] + windows))
    # the distinct values: np.unique would import numpy.ma on first use
    return xi[np.concatenate(([True], xi[1:] != xi[:-1]))]


def certify_sign(xi, vals, errs, support):
    """The sign certificate of a radial spectral density with values
    `vals` and pointwise error bounds `errs` on the increasing grid `xi`
    of a kernel of support `support`.

    'nonnegative-on-grid' when every value clears -(its bound); otherwise
    'sign-oscillating' when values beyond their bounds take both signs in
    the upper half (by frequency) of the oscillatory range
    xi * support >= 10; 'indeterminate' otherwise.  Each bound is widened
    by 1e-12 of max(|value|, 1).
    """
    bound = errs + 1e-12 * np.maximum(np.abs(vals), 1.0)
    if not np.any(vals < -bound):
        return CERT_NONNEGATIVE
    osc_idx = np.flatnonzero(xi * support >= 10.0)
    upper = osc_idx[len(osc_idx) // 2:]
    pos_up = np.any(vals[upper] > bound[upper])
    neg_up = np.any(vals[upper] < -bound[upper])
    return CERT_OSCILLATING if (pos_up and neg_up) else CERT_INDETERMINATE


def check_positive_definite(profile, d, support):
    """Evaluate the radial transform of `profile` on
    `default_check_grid(support)` and certify its sign pattern with
    `certify_sign`.

    The grid spans 1000 oscillation periods (xi_max * support = 1e3) and
    its dense windows sample the oscillatory range (xi * support >= 10)
    at spacing 1/(4*support), below Nyquist at every support.

    The transform is `radial_fourier_grid` on the increasing grid, so the
    profile is evaluated once per run of frequencies sharing their panels,
    not once per frequency.
    """
    xi = default_check_grid(support)
    vals, errs = radial_fourier_grid(profile, d, xi, support)
    return SpectralProfile(xi=xi, fhat=vals,
                           certificate=certify_sign(xi, vals, errs, support))
