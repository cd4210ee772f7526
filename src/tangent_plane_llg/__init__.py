"""Tangent plane schemes for the Landau-Lifshitz-Gilbert equation.

Per time step the scheme solves one linear variational problem in the
discrete tangent space of the current magnetization; nodal Householder
frames reduce it to a positive definite 2N x 2N system solved by restarted
preconditioned GMRES.
"""

__version__ = "0.1.0"

from .fem import (AssembledSystem, assemble_cross, assemble_mass, assemble_rhs,
                  assemble_stiffness, assemble_weighted_mass, build_system)
from .gmres import GmresError, ReducedOperator, SolverStats, gmres_solve
from .mesh import (Mesh, MeshError, QualityReport, generate_structured_cube,
                   load_mesh, mesh_quality, save_mesh)
from .precond import (Preconditioner, PreconditionerSource, ScalarFactorization,
                      build_jacobi, build_none, build_practical,
                      build_stationary_2d, build_theoretical)
from .physics import (AppliedFieldConfig, PiConfig, SIParameters,
                      applied_field_mumag4, mumag4_parameters,
                      mumag5_spin_velocity, nondimensionalize, pi_apply)
from .scheme import (SchemeCoefficients, SimulationConfig, SolverFailure,
                     StepContext, TimeStepState, lambda_field, lh_term,
                     normalize_update, run_simulation, tps_step)
from .tangent import (FIXED_INVOLUTIONS, FrameSelection, TangentFrame, apply_q,
                      apply_qt, build_frame, frame_gamma, select_tn_adaptive)
