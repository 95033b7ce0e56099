"""Greedy separated representations for Maxwellian-weighted elliptic problems."""

from .config import ConfigError, ExperimentConfig, build_problem, build_target
from .diagnostics import (B1Bound, CoeffTensor, WeightFamily, b1_bound, fourier_coeffs,
                          rate_class_report, sigma_norm)
from .eigen import (EigenError, EigenSystem, FactorEigens, WeylFit,
                    resolved_factor_eigens, solve_factor_eigens, tensor_eigenvalue,
                    weyl_fit)
from .fem import (AssemblyError, FactorMatrices, FactorMesh, assemble, build_mesh,
                  dof_coordinates, interpolate)
from .greedy import (AlsError, EnergyForm, Functional, GreedyError, GreedyTrace,
                     NullTermError, RankOneTerm, SeparatedFunction, TraceRow, als_best,
                     als_rank1, assemble_dense, energy_norm, energy_pairing,
                     energy_rank1, exact_dual_norms, mass_pairing, normalize_term,
                     run_oga, run_pga)
from .springs import (MaxwellianWeight, SpringModel, boundary_limit_d2q,
                      integrate_weighted, normalize, q_theta)

__version__ = "0.1.0"

__all__ = [
    "AlsError", "AssemblyError", "B1Bound", "CoeffTensor", "ConfigError",
    "EigenError", "EigenSystem", "EnergyForm", "ExperimentConfig", "FactorEigens",
    "FactorMatrices", "FactorMesh", "Functional", "GreedyError", "GreedyTrace",
    "MaxwellianWeight", "NullTermError", "RankOneTerm", "SeparatedFunction",
    "SpringModel", "TraceRow", "WeightFamily", "WeylFit", "__version__", "als_best",
    "als_rank1", "assemble", "assemble_dense", "b1_bound", "boundary_limit_d2q",
    "build_mesh", "build_problem", "build_target", "dof_coordinates", "energy_norm",
    "energy_pairing", "energy_rank1", "exact_dual_norms", "fourier_coeffs",
    "integrate_weighted", "interpolate", "mass_pairing", "normalize", "normalize_term",
    "q_theta", "rate_class_report", "resolved_factor_eigens", "run_oga", "run_pga",
    "sigma_norm", "solve_factor_eigens", "tensor_eigenvalue", "weyl_fit",
]
