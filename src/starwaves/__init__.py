"""Singularly perturbed waves on star graphs.

Direct finite-difference solution, boundary-layer series construction, and
convergence verification for the wave equation on a star-shaped network
whose edge stiffness degenerates like an even power of a small parameter.
"""

from .direct import Field, direct_solve, energy
from .errors import (CompatibilityError, ExpansionOrderError, ExprDomainError,
                     ExprSyntaxError, GraphConfigError, KernelRangeError,
                     StabilityError, StarwavesError)
from .expansion import (ExpansionSet, LambdaSet, ResidualReport,
                        assemble_partial_sum, build_expansion, lambda_set,
                        residuals)
from .expr import Expr, parse
from .graph import (Edge, ProblemSpec, StarGraph, b_eps,
                    check_compatibility_C1, check_compatibility_C2,
                    restrict_to_g0)
from .grid import (ExpansionGrids, Grid, LayerGrid, coarsen, make_direct_grid,
                   make_expansion_grids)
from .harness import (ConvergenceReport, NormTriple, RunConfig,
                      convergence_sweep, fit_order, load_config, norms,
                      validate_config)
from .kernels import cs, dt_kernel, phi_entire, phi_entire_deriv, sn
from .layers import (LayerField, QuarterPlaneProblem, boundary_flux,
                     evaluate_physical, qp_oracle_below_characteristic,
                     qp_solve, sample_physical)
from .limit import (EdgeODESolution, G0Problem, simpson_weights,
                    solve_cauchy_recursive, solve_degenerate_edge, solve_g0)

__version__ = "0.1.0"

__all__ = [
    "Field", "direct_solve", "energy",
    "StarwavesError", "ExprSyntaxError", "ExprDomainError",
    "GraphConfigError", "CompatibilityError", "StabilityError",
    "KernelRangeError", "ExpansionOrderError",
    "ExpansionSet", "LambdaSet", "ResidualReport",
    "assemble_partial_sum", "build_expansion", "lambda_set", "residuals",
    "Expr", "parse",
    "Edge", "ProblemSpec", "StarGraph", "b_eps",
    "check_compatibility_C1", "check_compatibility_C2", "restrict_to_g0",
    "ExpansionGrids", "Grid", "LayerGrid", "coarsen",
    "make_direct_grid", "make_expansion_grids",
    "ConvergenceReport", "NormTriple", "RunConfig",
    "convergence_sweep", "fit_order", "load_config", "norms",
    "validate_config",
    "cs", "dt_kernel", "phi_entire", "phi_entire_deriv", "sn",
    "LayerField", "QuarterPlaneProblem", "boundary_flux",
    "evaluate_physical", "qp_oracle_below_characteristic", "qp_solve",
    "sample_physical",
    "EdgeODESolution", "G0Problem", "simpson_weights",
    "solve_cauchy_recursive", "solve_degenerate_edge", "solve_g0",
    "__version__",
]
