"""Greedy separated representations for Maxwellian-weighted elliptic problems."""

from .config import ConfigError, ExperimentConfig, build_problem, build_target
from .diagnostics import (B1Bound, CoeffTensor, WeightFamily, b1_bound, fourier_coeffs,
                          rate_class_report, sigma_norm)
from .eigen import (EigenError, FactorEigens, WeylFit, resolved_factor_eigens,
                    solve_factor_eigens, weyl_fit)
from .fem import AssemblyError, FactorMatrices, FactorMesh, assemble, build_mesh
from .greedy import (AlsError, EnergyForm, Functional, GreedyError, GreedyTrace,
                     NullTermError, SeparatedFunction, TraceRow, als_best,
                     als_rank1, energy_norm, energy_rank1, rank_one, run_oga, run_pga)
from .springs import MaxwellianWeight, SpringModel, integrate_weighted, normalize

__version__ = "0.1.0"

__all__ = [
    "AlsError", "AssemblyError", "B1Bound", "CoeffTensor", "ConfigError",
    "EigenError", "EnergyForm", "ExperimentConfig", "FactorEigens",
    "FactorMatrices", "FactorMesh", "Functional", "GreedyError", "GreedyTrace",
    "MaxwellianWeight", "NullTermError", "SeparatedFunction",
    "SpringModel", "TraceRow", "WeightFamily", "WeylFit", "__version__", "als_best",
    "als_rank1", "assemble", "b1_bound", "build_mesh", "build_problem", "build_target",
    "energy_norm", "energy_rank1", "fourier_coeffs", "integrate_weighted", "normalize",
    "rank_one", "rate_class_report", "resolved_factor_eigens", "run_oga", "run_pga",
    "sigma_norm", "solve_factor_eigens", "weyl_fit",
]
