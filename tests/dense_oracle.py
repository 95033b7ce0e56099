"""Dense Kronecker oracles for the energy form, on small tensor grids only.

assemble_dense expands the form by hand, independently of operator_terms,
and the helpers below evaluate CP forms and functionals on the full grid:
the error of a separated difference is formed entry by entry before it is
squared, and a dual norm comes from a dense Cholesky solve.
"""

from functools import reduce

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from greedy_ou.greedy import EnergyForm, Functional


def assemble_dense(form: EnergyForm, mats) -> np.ndarray:
    """Full Kronecker assembly of the energy form; small grids only."""
    n = form.n_factors
    quarter = 1.0 / (4.0 * form.wi)
    masses = [m.mass for m in mats]

    total = form.c * reduce(np.kron, masses)
    for i in range(n):
        slots = list(masses)
        slots[i] = mats[i].stiffness
        total = total + form.coupling[i, i] * quarter * reduce(np.kron, slots)
    for i in range(n):
        for j in range(n):
            if i == j or form.coupling[i, j] == 0.0:
                continue
            slots = list(masses)
            slots[j] = mats[j].grad_coupling       # derivative on the trial slot
            slots[i] = mats[i].grad_coupling.T     # derivative on the test slot
            total = total + form.coupling[i, j] * quarter * reduce(np.kron, slots)
    return total


def dense_functional_vector(functional: Functional) -> np.ndarray:
    """Functional applied to every tensor-product basis function: sum_c w_c kron_k F_k[:, c]."""
    columns = reduce(lambda a, f: (a[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1]),
                     functional.factors)
    return columns @ functional.weights


def dense_vector(f) -> np.ndarray:
    """Tensor-grid coefficients of a CP form, one Kronecker product per column."""
    return sum(w * reduce(np.kron, [u[:, r] for u in f.factors])
               for r, w in enumerate(f.weights))


def dense_energy_norm(form: EnergyForm, mats, f, a_full=None) -> float:
    """sqrt(e' A e) for e the dense coefficients of f, so columns cancel before squaring."""
    e = dense_vector(f)
    a_full = assemble_dense(form, mats) if a_full is None else a_full
    return float(np.sqrt(max(e @ a_full @ e, 0.0)))


def dense_dual_norms(form: EnergyForm, mats, functionals) -> list:
    """Dual norms sqrt(f' A^-1 f) from the dense Riesz representers, one factorisation."""
    factor = cho_factor(assemble_dense(form, mats))
    norms = []
    for functional in functionals:
        fvec = dense_functional_vector(functional)
        norms.append(float(np.sqrt(max(cho_solve(factor, fvec) @ fvec, 0.0))))
    return norms
