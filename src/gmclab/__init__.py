"""gmclab: Gaussian multiplicative chaos on periodic grids.

Log-type covariance kernels, their radial spectral analysis, shell-layered
synthesis of the mollified field, the exponentiated measure with its
applied derivatives (multifractal random walk, coarse-grained dissipation),
statistical verification of the multifractal laws, and brute-force oracles
for the underlying Gaussian comparison inequalities.
"""

from .errors import GateError, ValidationError
from .kernels import (KernelSpec, MollifierSpec, Remainder, eval_kernel,
                      eval_cone_kernel, sigma_positive_layer,
                      mollified_covariance, kernel_hat,
                      spec_to_json, spec_from_json)
from .spectral import (SpectralProfile, logplus_hat, radial_fourier,
                       check_positive_definite, default_check_grid)
from .field import (GridSpec, ShellLadder, SpectralPlan, FieldSample,
                    build_ladder, geometric_schedule, write_field,
                    read_field)
from .measure import (ChaosMeasure, Box, Ball, exponentiate, region_mass,
                      region_volume, convergence_trace, mrw_path,
                      write_measure, read_measure)
from .estimators import (zeta, p_star, moment_scaling, ScalingReport,
                         scale_invariance_test, run_scale_invariance,
                         degeneracy_scan, lognormality_report,
                         run_dissipation)
from . import oracles

__version__ = "0.1.0"
