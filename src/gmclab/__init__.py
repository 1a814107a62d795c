"""gmclab: Gaussian multiplicative chaos on periodic grids.

Log-type covariance kernels, their radial spectral analysis, shell-layered
synthesis of the mollified field, the exponentiated measure with its
applied derivatives (multifractal random walk, coarse-grained dissipation),
statistical verification of the multifractal laws, and brute-force oracles
for the underlying Gaussian comparison inequalities.
"""

__version__ = "0.1.0"
