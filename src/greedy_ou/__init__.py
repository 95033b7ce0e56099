"""Greedy separated representations for Maxwellian-weighted elliptic problems."""

from .config import ConfigError, ExperimentConfig, build_problem, build_target
from .diagnostics import (B1Bound, CoeffTensor, WeightFamily, b1_bound, fourier_coeffs,
                          rate_class_report, sigma_norm)
from .eigen import (EigenError, FactorEigens, WeylFit, resolved_factor_eigens,
                    solve_factor_eigens, tensor_eigenvalue, weyl_fit)
from .fem import AssemblyError, FactorMatrices, FactorMesh, assemble, build_mesh, dof_coordinates
from .greedy import (AlsError, EnergyForm, Functional, GreedyError, GreedyTrace,
                     NullTermError, SeparatedFunction, TraceRow, als_best,
                     als_rank1, energy_norm, energy_rank1, rank_one, run_oga, run_pga)
from .springs import (MaxwellianWeight, SpringModel, boundary_limit_d2q,
                      integrate_weighted, normalize, q_theta)

__version__ = "0.1.0"

__all__ = [
    "AlsError", "AssemblyError", "B1Bound", "CoeffTensor", "ConfigError",
    "EigenError", "EnergyForm", "ExperimentConfig", "FactorEigens",
    "FactorMatrices", "FactorMesh", "Functional", "GreedyError", "GreedyTrace",
    "MaxwellianWeight", "NullTermError", "SeparatedFunction",
    "SpringModel", "TraceRow", "WeightFamily", "WeylFit", "__version__", "als_best",
    "als_rank1", "assemble", "b1_bound", "boundary_limit_d2q",
    "build_mesh", "build_problem", "build_target", "dof_coordinates", "energy_norm",
    "energy_rank1", "fourier_coeffs", "integrate_weighted", "normalize",
    "q_theta", "rank_one", "rate_class_report", "resolved_factor_eigens", "run_oga", "run_pga",
    "sigma_norm", "solve_factor_eigens", "tensor_eigenvalue", "weyl_fit",
]
