"""Coarse-grained dissipation in d = 3: the lognormal picture.

Ball-averaged masses of the three-dimensional measure give the dissipation
variables eps_l = <eps> m(B(0, l)) / |B(0, l)|, with |B| the ball's
discrete volume (`estimators.run_dissipation`); their logarithms are
near-normal with variance growing as lam2 ln(R/l) plus a constant.  The
demo runs a reduced ensemble (the acceptance suite uses 600 replicas per
radius) and prints the fitted slope against lam2.
"""

import numpy as np

from gmclab import estimators as est
from gmclab import measure as ms

lam2 = 1.0
radii = [0.5, 0.25, 0.125, 0.0625]
samples, report = est.run_dissipation(lam2=lam2, scale=1.0, radii=radii,
                                      seed=909, n_replicas=150)

print("Var(ln eps_l) against ln(R/l):")
for l, v, se in zip(report.radii, report.variances, report.variance_ses):
    print(f"  l={l:7.4f}: {v:.4f} +- {se:.4f}")
print(f"\nfitted slope: {report.slope:.4f} +- {report.slope_se:.4f} "
      f"(model slope = lam2 = {lam2})")
print(f"fitted intercept A: {report.intercept:.4f}")
print("normality of ln eps_l (skewness z-scores):",
      [f"{z:.2f}" for z in report.skew_z])
print("mean dissipation per radius (target <eps> = 1):",
      [f"{m:.3f}+-{s:.3f}" for m, s in zip(report.means, report.mean_ses)])

ms.write_dissipation_csv("dissipation_demo.csv", samples, 1.0)
print("\nwrote the samples to dissipation_demo.csv (l,replica,eps_l,mean_eps)")
