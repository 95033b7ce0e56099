"""Closed forms and helpers that only the tests read.

The Liouville-transform potential Q_Theta of the Maxwellian and the
boundary limit of dist^2 * Q_1, which classifies how strongly the weight
degenerates at the endpoints; the additive eigenvalue of a tensorized
eigenpair; and the coordinates of a basis's Lagrange dofs, for nodal
interpolation.  No command computes any of them.
"""

import numpy as np

from greedy_ou.fem import FactorMatrices
from greedy_ou.springs import FENE, SpringModel


def q_theta(model: SpringModel, theta: float, q, d: int = 1):
    """Liouville-transform potential Q_Theta(q) of the Maxwellian, closed form.

    Q_Theta = Theta - w^{-1/2} div(w grad w^{-1/2}) with w = M; d is the
    factor dimension (1 here, kept explicit because the closed forms carry
    it).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    q = np.asarray(q, dtype=float)
    if np.any(np.abs(q) >= model.q_max):
        raise ValueError(f"extension outside (-sqrt(b), sqrt(b)) for b = {model.b:g}")
    b = model.b
    q2 = q * q
    inv = 1.0 / (1.0 - q2 / b)
    if model.kind == FENE:
        out = theta + (0.25 - 1.0 / b) * q2 * inv * inv - (d / 2.0) * inv
    else:
        out = (theta - d / 6.0 + q2 / 36.0
               + (1.0 / 9.0 - 2.0 / (3.0 * b)) * q2 * inv * inv
               - (d / 3.0 - q2 / 9.0) * inv)
    return out if out.ndim else float(out)


def boundary_limit_d2q(model: SpringModel):
    """Limit of dist(q)^2 * Q_1(q) as |q| -> sqrt(b), in the weak-degeneracy range.

    Returns the closed-form limit e(e - 2)/4 for e <= 2 (fene b in (2, 4],
    cpail b in (3, 6]); returns None above, where Q_1 is bounded below and
    the limit criterion is not the relevant condition.  The limit does not
    depend on the factor dimension.  Callers check membership in (-1/4, 0].
    """
    e = model.e
    return e * (e - 2.0) / 4.0 if e <= 2.0 else None


def tensor_eigenvalue(eigens, idx) -> float:
    """Eigenvalue of the tensorized pair at 1-based multi-index idx over per-factor eigens."""
    if len(idx) != len(eigens):
        raise ValueError(f"index has {len(idx)} components, expected {len(eigens)}")
    total = 1.0
    for i, (n, eig) in enumerate(zip(idx, eigens)):
        if not 1 <= n <= eig.k:
            raise IndexError(f"component {i} index {n} outside [1, {eig.k}]")
        total += eig.values[n - 1] - 1.0
    return float(total)


def dof_coordinates(mats: FactorMatrices) -> np.ndarray:
    """Physical coordinates of the Lagrange degrees of freedom."""
    nodes = mats.mesh.nodes
    if mats.degree == 1:
        return nodes.copy()
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty(mats.ndof)
    out[0::2] = nodes
    out[1::2] = mids
    return out
