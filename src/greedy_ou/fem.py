"""Weighted finite elements on one factor interval.

Meshes cover [-sqrt(b), sqrt(b)] with optional grading toward the endpoints,
where the Maxwellian weight vanishes.  Assembly produces the three matrices
every weighted pairing in this package reduces to:

    mass[k,l]          = int M phi_l  phi_k
    stiffness[k,l]     = int M phi_l' phi_k'
    grad_coupling[k,l] = int M phi_l' phi_k

No essential boundary conditions are imposed: the natural weighted space
contains the constants, and the weight itself supplies the boundary decay.

The matrices have bandwidth equal to the element degree p, and their
storage is four upper bands (mass, stiffness, grad_coupling and its
transpose) in the layout that LAPACK's banded routines take.  Banded
Cholesky solves and the banded eigensolve read only these.  The dense
matrices are views built from the bands on first use, for the matrix
products of the greedy solvers, where dense BLAS is the faster choice below
a few hundred dofs.  Bands and views are read-only, so the two can never
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .springs import MaxwellianWeight

# subpanels per boundary element, shrinking geometrically toward the endpoint
_BOUNDARY_SPLIT = 12


class AssemblyError(RuntimeError):
    pass


@dataclass(frozen=True)
class FactorMesh:
    """Sorted node coordinates spanning [-sqrt(b), sqrt(b)]."""

    nodes: np.ndarray
    grading: float

    @property
    def n_el(self) -> int:
        return len(self.nodes) - 1


def build_mesh(b: float, n_el: int, grading: float = 1.0) -> FactorMesh:
    """Symmetric mesh on [-sqrt(b), sqrt(b)], clustered at the endpoints for grading > 1.

    Node map: x = sqrt(b) * sign(u) * (1 - (1 - |u|)^grading) for uniform
    u in [-1, 1]; grading = 1 is the uniform mesh.
    """
    if n_el < 4:
        raise ValueError(f"n_el must be at least 4, got {n_el}")
    if grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading!r}")
    q_max = float(np.sqrt(b))
    u = np.linspace(-1.0, 1.0, n_el + 1)
    x = q_max * np.sign(u) * (1.0 - (1.0 - np.abs(u)) ** grading)
    x[0], x[-1] = -q_max, q_max
    return FactorMesh(nodes=x, grading=float(grading))


@dataclass(frozen=True)
class FactorMatrices:
    """Weighted mass/stiffness/gradient-coupling matrices for one factor.

    bands maps each of "mass", "stiffness", "grad_coupling" and
    "grad_coupling_t" to its upper band, (degree + 1) x ndof in the LAPACK
    dpbtrf upper-band layout: bands[name][degree - d, i + d] = op[i, i + d].
    The lower band of an operator is the upper band of its transpose.
    """

    bands: dict
    mesh: FactorMesh
    degree: int
    weight: MaxwellianWeight

    @property
    def ndof(self) -> int:
        return self.bands["mass"].shape[1]

    def _dense(self, name: str, t_name: str) -> np.ndarray:
        """Read-only dense matrix with upper band bands[name] and lower band
        taken from bands[t_name]."""
        p, n = self.degree, self.ndof
        upper, lower = self.bands[name], self.bands[t_name]
        dense = np.zeros((n, n))
        flat = dense.reshape(-1)
        # diagonal d holds (i, i + d) at flat d + i (n + 1), and -d holds
        # (i + d, i) = transpose entry (i, i + d) at flat d n + i (n + 1)
        for d in range(p + 1):
            flat[d::n + 1][:n - d] = upper[p - d, d:]
            if d:
                flat[d * n::n + 1][:n - d] = lower[p - d, d:]
        dense.setflags(write=False)
        return dense

    @cached_property
    def mass(self) -> np.ndarray:
        return self._dense("mass", "mass")

    @cached_property
    def stiffness(self) -> np.ndarray:
        return self._dense("stiffness", "stiffness")

    @cached_property
    def grad_coupling(self) -> np.ndarray:
        return self._dense("grad_coupling", "grad_coupling_t")

    @property
    def grad_coupling_t(self) -> np.ndarray:
        return self.grad_coupling.T


def _shape_functions(degree, xi):
    """Lagrange shape functions and derivatives on the reference element [-1, 1]."""
    xi = np.asarray(xi)
    if degree == 1:
        vals = np.stack([0.5 * (1 - xi), 0.5 * (1 + xi)])
        ders = np.stack([np.full_like(xi, -0.5), np.full_like(xi, 0.5)])
    else:
        vals = np.stack([0.5 * xi * (xi - 1), 1 - xi * xi, 0.5 * xi * (xi + 1)])
        ders = np.stack([xi - 0.5, -2 * xi, xi + 0.5])
    return vals, ders


def _panels(nodes):
    """Integration subintervals of every element, ordered by element.

    Returns the left ends, right ends and element index of each panel.
    Interior elements use a single panel; the two elements touching the
    domain boundary are split geometrically toward it, because the weight
    behaves like a fractional power of the boundary distance there.
    """
    s = _BOUNDARY_SPLIT
    n_el = len(nodes) - 1
    h_first, h_last = nodes[1] - nodes[0], nodes[-1] - nodes[-2]
    first = np.concatenate([nodes[:1], nodes[0] + h_first * 0.5 ** np.arange(s, 0, -1),
                            nodes[1:2]])
    last = np.concatenate([nodes[-2:-1], nodes[-1] - h_last * 0.5 ** np.arange(1, s + 1),
                           nodes[-1:]])
    left = np.concatenate([first[:-1], nodes[1:-2], last[:-1]])
    right = np.concatenate([first[1:], nodes[2:-1], last[1:]])
    elem = np.concatenate([np.zeros(s + 1, dtype=int), np.arange(1, n_el - 1),
                           np.full(s + 1, n_el - 1)])
    return left, right, elem


def assemble(mesh: FactorMesh, weight: MaxwellianWeight, basis_degree: int = 2) -> FactorMatrices:
    """Assemble the weighted matrices with continuous P1 or P2 Lagrange elements.

    Quadrature per panel is Gauss-Legendre with basis_degree + 4 points,
    exact beyond degree 2*basis_degree + 6 against the smooth part of the
    weight.  All panels are evaluated in one batch and scattered straight
    into the upper bands.
    """
    if basis_degree not in (1, 2):
        raise ValueError(f"basis_degree must be 1 or 2, got {basis_degree}")
    if mesh.n_el < 2:
        raise ValueError(f"mesh must have at least 2 elements, got {mesh.n_el}")
    p = basis_degree
    nodes = mesh.nodes
    ndof = mesh.n_el * p + 1
    xi, wq = np.polynomial.legendre.leggauss(p + 4)

    a, b, elem = _panels(nodes)
    xl, xr = nodes[elem, None], nodes[elem + 1, None]
    half = 0.5 * (b - a)[:, None]
    x = 0.5 * (a + b)[:, None] + half * xi
    # reference coordinate of the full element, not the panel
    vals, ders = _shape_functions(p, (2.0 * x - (xl + xr)) / (xr - xl))
    mw = weight(x)
    bad = ~np.all(np.isfinite(mw), axis=1)
    if bad.any():
        raise AssemblyError(f"weight evaluation failed on element {elem[np.argmax(bad)]}")
    root = np.sqrt(wq * half * mw)
    # sqrt-weight factorization keeps mass/stiffness bitwise symmetric:
    # entry (k, l) of a panel is the same product sum as entry (l, k)
    vr = vals * root
    dr = 2.0 / (xr - xl) * (ders * root)
    dofs = p * elem + np.arange(p + 1)[:, None]
    rows = np.broadcast_to(dofs[:, None], (p + 1,) + dofs.shape).ravel()
    cols = np.broadcast_to(dofs[None, :], (p + 1,) + dofs.shape).ravel()
    # entry (r, c) with c >= r sits at flat (p - (c - r)) ndof + c of the
    # upper band.  np.bincount adds the panel values in the flattened
    # (k, l, panel) order, the order np.add.at uses on a dense matrix, so
    # each entry is the same sequential sum as a dense scatter gives.
    upper = cols >= rows
    at = ((p - (cols - rows)) * ndof + cols)[upper]

    def band(values):
        out = np.bincount(at, values.ravel()[upper], minlength=(p + 1) * ndof)
        out = out.reshape(p + 1, ndof)
        out.setflags(write=False)
        return out

    # grad[k,l] = int M phi_l' phi_k; its transpose's band takes the panel
    # values with k and l swapped
    grad = (vr[:, None] * dr[None, :]).sum(axis=-1)
    bands = {"mass": band((vr[:, None] * vr[None, :]).sum(axis=-1)),
             "stiffness": band((dr[:, None] * dr[None, :]).sum(axis=-1)),
             "grad_coupling": band(grad),
             "grad_coupling_t": band(grad.swapaxes(0, 1))}
    return FactorMatrices(bands=bands, mesh=mesh, degree=p, weight=weight)


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


def interpolate(mats: FactorMatrices, fn) -> np.ndarray:
    """Nodal interpolation of a callable onto the factor basis."""
    return np.asarray(fn(dof_coordinates(mats)), dtype=float)
