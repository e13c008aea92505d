"""First-passage toolkit for moving-boundary Brownian hitting problems.

Closed-form solutions of the backward equation -w_t + x f''(t) w = w_xx/2,
the adjoint-pair transformation that generates them, finite-difference
residual verification, and Monte Carlo cross-checks (first-passage
histograms and a Bessel-bridge Feynman-Kac estimator).
"""

from .boundary import (Boundary, BoundaryFormatError, boundary_from_json,
                       boundary_potential, eval_fprime, eval_fsecond, integral_fprime,
                       integral_fprime_sq, parse_boundary)
from .grids import (GridField, GridSpec, NumericalError, read_field_csv, sample_field,
                    transform_grid, write_field_csv)
from .kernels import derived_kernel, heat_kernel, kernel_n
from .montecarlo import (DensityComparison, DensityHistogram, MCConfig, MCEstimate,
                         bessel_bridge_fk, compare_density, first_passage_histogram)
from .solutions import (GammaPoly, b2_first, b2_second, closed_w, closed_w_gamma, kappa,
                        phi_lambda, product_phi_u, u_lambda, w1_lambda, w2_lambda)
from .transform import bluman_shtelen_w, log_phi_xx
from .verify import (DiagnosticReport, ResidualReport, check_inequality,
                     check_vanishing_at_origin, quadrature_match,
                     residual_backward, residual_forward)

__version__ = "0.1.0"
