"""Coupled cubic Schrodinger systems with space-time-modulated coefficients.

The package reduces the modulated pair

    i dpsi_j/dt = -psi_j_xx + v_j(x,t) psi_j + sum_k g_jk(x,t) |psi_k|^2 psi_j

to a constant-coefficient system by a similarity transformation, rebuilds
three closed-form two-component solutions on top of it (an elliptic pair, a
coupled sech pair, and a dark-bright pair), and validates them by constraint
residuals, full-equation residuals, and split-step propagation.
"""

from .errors import (DarkBackgroundError, DivergenceError,
                     LatticeTooCoarseError, ValidationError)
from .grid import SpatialGrid
from .specfun import (ellip_k, erf, erfc, erfcx, erfi, jacobi_elliptic,
                      EllipticTriple)
from .modulation import (DRIVES, ModulationTrace, MathieuPath, Width,
                         WidthSamples, closed_form_trace, drive_f,
                         explicit_trace, mathieu_trace)
from .transform import (CoefficientSampler, ConstraintResiduals, StretchSpec,
                        eta_of, potential_from_transform,
                        potential_identity_check, rho_of,
                        verify_constraints, xi_of, zeta_of)
from .families import (FamilySpec, FieldPair, amplitude_a0, assemble,
                       dark_bright_family, default_grid, default_trace,
                       elliptic_envelope, elliptic_family,
                       reduced_amplitudes, sech_family)
from .propagator import (DiagnosticsTrace, PropagationConfig,
                         StabilityReport, pde_residual, perturb, propagate,
                         stability_verdict, step)

__version__ = "0.1.0"
