"""Log-type kernels and their radial spectra.

Walks through the covariance zoo: the log+ kernel, the cone construction
that reduces to it in d=1, the sigma-positive layer decomposition, the
mollified covariance, and the positive-definiteness dichotomy in the
dimension (nonnegative spectral density for d <= 3, sign oscillation for
d = 4).
"""

import numpy as np

from gmclab import kernels as kn
from gmclab import spectral as sp

# --- the kernel family -------------------------------------------------
spec = kn.KernelSpec(dimension=1, lam2=0.5, scale=1.0)
print("f(r) = 0.5 ln+(1/r):")
for r in (0.25, 0.5, 1.0, 2.0):
    print(f"  f({r}) = {kn.eval_kernel(spec, r):.6f}")

# --- cone construction -------------------------------------------------
print("\ncone kernel (lam2=1, T=1), radial sections:")
for d in (1, 2, 3):
    v = kn.eval_cone_kernel(1.0, 1.0, d, 0.5)
    print(f"  d={d}: f_cone(0.5) = {v:.6f}   (ln 2 = {np.log(2):.6f})")
print("  d=1 equals ln+(T/r) exactly; d=2,3 differ by a bounded remainder")
rem = kn.cone_remainder_table(1.0, 1.0, 2, n=65)
print(f"  sup |g_cone| over (0, T], d=2: {rem.sup:.4f}")

# --- sigma-positive layers ----------------------------------------------
print("\nlayer decomposition of ln+(1/r):")
for d, r in ((1, 0.5), (2, 0.25)):
    partial = np.cumsum([kn.sigma_positive_layer(n, d, 1.0, r)
                         for n in range(1, 9)])
    print(f"  d={d}, r={r}: partial sums {np.round(partial, 5)} "
          f"-> ln+(1/r) = {np.log(1/r):.5f}")

# --- mollified covariance ----------------------------------------------
print("\nmollified covariance q_eps (gaussian mollifier):")
for eps in (1e-1, 1e-2, 1e-3):
    moll = kn.MollifierSpec("gaussian", eps, 1)
    q0 = kn.mollified_covariance(spec, moll, 0.0)
    qh = kn.mollified_covariance(spec, moll, 0.5)
    print(f"  eps={eps:g}: q(0) = {q0:.4f} "
          f"(lam2 ln(1/eps) = {0.5 * np.log(1 / eps):.4f}), "
          f"q(0.5) = {qh:.6f}")

# --- the dichotomy in the dimension ------------------------------------
print("\npositive-definiteness of ln+(1/|x|) across dimensions:")
prof = lambda r: np.where(r < 1.0, np.log(1.0 / np.maximum(r, 1e-300)), 0.0)
for d in (1, 2, 3, 4):
    rep = sp.check_positive_definite(prof, d, support=1.0)
    print(f"  d={d}: certificate = {rep.certificate}, "
          f"min fhat = {rep.fhat.min():.3e}")
print("closed form check, d=3 at xi=1:",
      f"{sp.logplus_hat(1.0, 3):.12f}")
