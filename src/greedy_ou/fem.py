"""Weighted finite elements on one factor interval.

Meshes cover [-sqrt(b), sqrt(b)] with optional grading toward the endpoints,
where the Maxwellian weight vanishes.  Assembly produces the three matrices
every weighted pairing in this package reduces to:

    mass[k,l]          = int M phi_l  phi_k
    stiffness[k,l]     = int M phi_l' phi_k'
    grad_coupling[k,l] = int M phi_l' phi_k

No essential boundary conditions are imposed: the natural weighted space
contains the constants, and the weight itself supplies the boundary decay.
At large b it underflows there, and assembly refuses a mass band left
without a banded Cholesky factor on any mesh, and keeps the factor.

The matrices have bandwidth equal to the element degree p, and their
storage is four upper bands, named MASS, STIFFNESS, GRAD and GRAD_T (the
transpose of GRAD) here and nowhere else, in the layout that LAPACK's
banded routines take.  Quadratic forms f . op f come in rows FORM_ROW of one
product of a cached band stack with the shifted products f_i f_(i+d) at
every size, gathered from f behind a cached read-only zero pad, so a call
allocates no pad of its own.  Operator-applied stacks op X come from 2p + 1
slice multiply-adds (band_matmul) on bases of at least BANDED_MIN_NDOF
dofs.  Below that size the stacks use dense BLAS, which is faster there, on
dense matrices that are views built from the bands on first use; the dense
eigensolve and the Kronecker oracle read them too.  The ALS slot solves
read a second copy of each band, moved as it is into LAPACK's lower-band
layout (FactorMatrices.lower_bands): LAPACK's unblocked lower-band
Cholesky hands each column's rank-1 update a unit-stride vector, where
the upper-band one strides by the bandwidth.  Bands, copies and views are
read-only, so they can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpbtrf

from .springs import MaxwellianWeight

# subpanels per boundary element, shrinking geometrically toward the endpoint
_BOUNDARY_SPLIT = 12

# Smallest basis whose operator stacks (FactorMatrices.apply) read the
# bands and whose eigenpairs come from Lanczos (eigen.py), instead of dense
# BLAS and dense eigh.  Medians, P2, one BLAS thread, 2-core VM, dense / banded.
# Eigensolve per call, FENE b=4 and CPAIL b=6: ndof 161 k=10-20 2.0-3.4 /
# 1.1-2.5 ms, k=40 4.8-5.0 / 5.4-6.1 ms; 201 k=10-20 3.7-5.2 / 1.4-3.0 ms,
# k=40 5.8-7.2 / 4.7-7.8 ms (about equal); 241 k=10-40 4.2-9.6 / 1.1-7.3 ms;
# 321 k=20 9-12 / 3-4 ms, k=40 12-16 / 6-8 ms; 641 k=20 56-60 / 4-6 ms,
# k=40 63-67 / 11-12 ms; 1281 k=20 520-550 / 7-10 ms, k=40 520-550 / 18 ms.
# Operator stack G X per call, FENE b=4, timeit, two runs: X of 33 columns,
# ndof 41 3.7-3.9 / 24-25 us, 81 9-10 / 32-36 us, 161 30-38 / 47-63 us,
# 201 79-104 / 50-63 us, 241 101-107 / 54-68 us, 321 168-196 / 81-90 us,
# 641 832-909 / 138-159 us; one column, 161 4.4-6.1 / 8.8-12 us, 201
# 7.1-8.7 / 11-14 us, 321 17 / 9-15 us, 641 92-105 / 9-12 us.  Quadratic
# forms read the bands at every size: all three from one gemv take 7.3, 9.0,
# 9.8 and 12 us at ndof 41, 81, 321 and 641, four dense forms 12, 13, 118
# and 508 us.
BANDED_MIN_NDOF = 200

# the per-factor operators of the energy form: the keys of FactorMatrices.bands,
# the names of its dense views, and the row of each one's quad_forms
MASS = "mass"
STIFFNESS = "stiffness"
GRAD = "grad_coupling"
GRAD_T = "grad_coupling_t"
FORM_ROW = {MASS: 0, STIFFNESS: 1, GRAD: 2, GRAD_T: 2}

# the operator whose upper band is the lower band of each named operator
_TRANSPOSE = {MASS: MASS, STIFFNESS: STIFFNESS, GRAD: GRAD_T, GRAD_T: GRAD}


class AssemblyError(RuntimeError):
    pass


class MeshError(ValueError):
    """A graded node map whose nodes coincide in floating point."""


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
    u in [-1, 1]; grading = 1 is the uniform mesh.  A grading so steep that
    two nodes coincide in floating point raises MeshError.
    """
    if n_el < 4:
        raise ValueError(f"n_el must be at least 4, got {n_el}")
    if grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading!r}")
    q_max = float(np.sqrt(b))
    u = np.linspace(-1.0, 1.0, n_el + 1)
    x = q_max * np.sign(u) * (1.0 - (1.0 - np.abs(u)) ** grading)
    x[0], x[-1] = -q_max, q_max
    if not (np.diff(x) > 0).all():
        raise MeshError(f"grading {grading!r} on {n_el} elements makes coincident nodes")
    return FactorMesh(nodes=x, grading=float(grading))


@dataclass(frozen=True, eq=False)
class FactorMatrices:
    """Weighted mass/stiffness/gradient-coupling matrices for one factor.

    bands maps each operator name (MASS, STIFFNESS, GRAD, GRAD_T) to its
    upper band, (degree + 1) x ndof in the LAPACK dpbtrf upper-band layout:
    bands[name][degree - d, i + d] = op[i, i + d].  The lower band of an
    operator is the upper band of its transpose.  quad_forms and apply
    compute from the bands; the dense attributes of the same names are
    read-only views built on first read, which apply uses below
    BANDED_MIN_NDOF dofs.  lower_bands holds each band moved as it is into
    LAPACK's lower-band layout, built on first read for the ALS slot
    solves, whose lower-band Cholesky updates each column at unit stride.
    Derived arrays are cached on the instance, which compares and hashes by
    identity.
    """

    bands: dict
    mesh: FactorMesh
    degree: int
    weight: MaxwellianWeight

    @property
    def ndof(self) -> int:
        return self.bands[MASS].shape[1]

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
        return self._dense(MASS, MASS)

    @cached_property
    def stiffness(self) -> np.ndarray:
        return self._dense(STIFFNESS, STIFFNESS)

    @cached_property
    def grad_coupling(self) -> np.ndarray:
        return self._dense(GRAD, GRAD_T)

    @property
    def grad_coupling_t(self) -> np.ndarray:
        return self.grad_coupling.T

    @cached_property
    def lower_bands(self) -> dict:
        """Each band moved as it is into the LAPACK dpbtrf lower-band layout, read-only:
        lower_bands[name][d, i] = bands[name][degree - d, i + d] = op[i, i + d], the lower
        band of op^T (GRAD_T's for GRAD), with zeros past the end.  A slot Hessian summed
        from them holds the upper-band one's sums, moved, and its lower-band Cholesky
        factor is the upper one's transpose, bit for bit."""
        p, n = self.degree, self.ndof
        lower = {}
        for name, upper in self.bands.items():
            band = np.zeros((p + 1, n))
            for d in range(p + 1):
                band[d, :n - d] = upper[p - d, d:]
            band.setflags(write=False)
            lower[name] = band
        return lower

    @cached_property
    def mass_factor(self) -> np.ndarray:
        """Upper band of the Cholesky factor C of the mass, M = C^T C (LAPACK dpbtrf),
        read-only; a mass band without one is an AssemblyError."""
        mass = self.bands[MASS]
        factor, info = dpbtrf(mass)
        if info != 0:
            raise AssemblyError(f"mass matrix not positive definite on {self.mesh.n_el} elements: "
                                f"the boundary mass M[0, 0] = {mass[-1, 0]:.3g} underflows")
        factor.setflags(write=False)
        return factor

    def apply(self, name: str, x: np.ndarray) -> np.ndarray:
        """op @ x for the operator of the given name; x a vector or an ndof x R stack.

        Dense BLAS on the view below BANDED_MIN_NDOF dofs, band_matmul from there up.
        """
        if self.ndof < BANDED_MIN_NDOF:
            return getattr(self, name) @ x
        return band_matmul(self.bands[name], self.bands[_TRANSPOSE[name]], x)

    @cached_property
    def _form_stack(self) -> np.ndarray:
        """Upper bands of mass, stiffness and (grad_coupling + grad_coupling_t) / 2,
        off-diagonal rows doubled, as the rows of a 3 x (degree + 1) ndof matrix."""
        b, p = self.bands, self.degree
        stack = np.stack([b[MASS], b[STIFFNESS], 0.5 * (b[GRAD] + b[GRAD_T])])
        stack[:, :p] *= 2.0
        return stack.reshape(3, -1)

    @cached_property
    def _windows(self) -> np.ndarray:
        """(degree + 1) x ndof gather index: entry (p - d, i) is i - d + p, where
        f_(i-d) sits in f padded by p zeros in front (a zero for i < d)."""
        return np.arange(self.degree + 1)[:, None] + np.arange(self.ndof)

    @cached_property
    def _pad(self) -> np.ndarray:
        """The degree zeros quad_forms puts in front of f, read-only."""
        pad = np.zeros(self.degree)
        pad.setflags(write=False)
        return pad

    def quad_forms(self, f: np.ndarray) -> np.ndarray:
        """f . op f for each operator, in row FORM_ROW[name] of one gemv's result.

        The shifted products f_i f_(i+d) sit where op[i, i + d] sits in the
        bands, so each form is one row of _form_stack times them; one gather
        from f behind the cached zeros _pad (_windows) reads them all.  Only
        the symmetric part of an operator enters its form, so GRAD and GRAD_T
        share a row.
        """
        shifted = np.concatenate((self._pad, f))[self._windows] * f
        return self._form_stack @ shifted.reshape(-1)


def band_matmul(upper: np.ndarray, lower: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """op @ x for the operator with upper band upper and lower band lower.

    Both bands are in the FactorMatrices.bands layout, so lower is the upper
    band of op^T (None for a triangular op).  x is a vector or an ndof x R
    stack; the product is one slice multiply-add per diagonal.
    """
    p, n = upper.shape[0] - 1, upper.shape[1]
    rows = (slice(None),) + (None,) * (x.ndim - 1)
    out = upper[p][rows] * x
    for d in range(1, p + 1):
        out[:n - d] += upper[p - d, d:][rows] * x[d:]
        if lower is not None:
            out[d:] += lower[p - d, d:][rows] * x[:n - d]
    return out


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


def _gauss_rule(n):
    """Gauss-Legendre nodes and weights with n points, read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


# the rule of each element degree p, with p + 4 points, built once: leggauss
# takes about 0.2 ms, a third of an n_el = 20 assembly
_GAUSS = {p: _gauss_rule(p + 4) for p in (1, 2)}


def assemble(mesh: FactorMesh, weight: MaxwellianWeight, basis_degree: int = 2) -> FactorMatrices:
    """Assemble the weighted matrices with continuous P1 or P2 Lagrange elements.

    Quadrature per panel is Gauss-Legendre with basis_degree + 4 points,
    exact beyond degree 2*basis_degree + 6 against the smooth part of the
    weight.  All panels are evaluated in one batch and scattered straight
    into the upper bands.  A mass band without a banded Cholesky factor is an
    AssemblyError naming the element count and the boundary mass.
    """
    if basis_degree not in (1, 2):
        raise ValueError(f"basis_degree must be 1 or 2, got {basis_degree}")
    if mesh.n_el < 2:
        raise ValueError(f"mesh must have at least 2 elements, got {mesh.n_el}")
    p = basis_degree
    nodes = mesh.nodes
    ndof = mesh.n_el * p + 1
    xi, wq = _GAUSS[p]

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
    bands = {MASS: band((vr[:, None] * vr[None, :]).sum(axis=-1)),
             STIFFNESS: band((dr[:, None] * dr[None, :]).sum(axis=-1)),
             GRAD: band(grad),
             GRAD_T: band(grad.swapaxes(0, 1))}
    mats = FactorMatrices(bands=bands, mesh=mesh, degree=p, weight=weight)
    mats.mass_factor  # refuses a mass band without a Cholesky factor, and keeps the factor
    return mats
