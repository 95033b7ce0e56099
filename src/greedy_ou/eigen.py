"""Factor eigenpairs of the weighted H1 form and their tensorization.

Each factor carries the generalized problem

    (stiffness + mass) e = lambda mass e

whose smallest pair is (1, const) because constants have no stiffness
energy.  Tensorized eigenvalues follow the additive rule
lambda_n = 1 + sum_i (lambda^(i)_{n_i} - 1), and the discrete spectrum obeys
a two-sided n^2 growth law on the mesh-resolved range, which weyl_fit
measures.  Discrete eigenvalues over-approximate the continuum ones at high
index, so a refinement gate marks how far a mesh can be trusted.

Both matrices of the pencil have bandwidth equal to the element degree.  On
bases of at least BANDED_MIN_NDOF dofs the k smallest pairs come from
standard-mode Lanczos (ARPACK) on U^-T mass U^-1, where
stiffness + mass = U^T U is one banded Cholesky factorization: its largest
eigenvalues are the reciprocals of the smallest of the pencil, and each
Lanczos step is two banded triangular solves and one banded product on the
bands of the basis, O(ndof) instead of the O(ndof^3) of dense eigh.  Its
Krylov space is the one of shift-invert at shift 0.  Dense eigh still runs
on smaller bases, where it is faster, and whenever 2k + 1 >= ndof, where
ARPACK has no room for its Lanczos basis.  The choice depends only on ndof
and k; the crossover and its measurements are in fem.py.

Vectors are built only where a caller reads them: solve_factor_eigens with
vectors=False returns the same eigenvalues without Ritz vectors, back-solve
or sign fixing.  resolved_factor_eigens always solves its refined basis that
way, since the gate reads only its eigenvalues; the eig command solves its
coarse bases that way too, and regularity keeps vectors on the coarse bases
for the eigen target and the Fourier coefficients.  The two Lanczos solves
stop differently.  A vector solve runs to ARPACK's tol=0 (machine
precision), since its Ritz vectors carry their residual into every
coefficient read from them.  A value-only solve stops at a residual of
VALUE_ONLY_TOL = sqrt(eps) relative to theta: a Ritz value's error is at
most its residual squared over its gap to the rest of the spectrum, so its
eigenvalues stay those of the vector solve to about 20 eps relatively
(at most 6.9e-15 on 108 surveyed solves), and it mostly ends in its first
Lanczos cycle, where tol=0 restarts once (82 instead of 103 operator
products at k = 40).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dsbmv, dtbsv
from scipy.linalg.lapack import dpbtrf, dtbtrs

# solve_factor_eigens reads BANDED_MIN_NDOF from this module, so setting
# eigen.BANDED_MIN_NDOF moves the eigensolve crossover and no product
from .fem import BANDED_MIN_NDOF, MASS, STIFFNESS, FactorMatrices, assemble, build_mesh

logger = logging.getLogger(__name__)

# relative change under one mesh doubling up to which an eigenvalue counts as resolved
RESOLVED_REL_TOL = 1e-3

# Entries within this relative distance of a vector's largest magnitude tie
# for it.  The two end entries of an odd mode of a symmetric problem agree
# only to roundoff (a few 1e-12 relatively), so a sign fixed by the single
# largest entry would follow roundoff and differ between solvers.
SIGN_TIE_REL = 1e-8

# ARPACK stop tolerance of value-only Lanczos solves: a residual of
# sqrt(eps)*theta moves a Ritz value by at most eps*theta^2/gap, roundoff
# for the well-separated spectra of these pencils.  Tighter (3e-9) keeps
# the restart on some bases; looser saves nothing, since one cycle is the
# floor.  Solves that build vectors keep tol=0.
VALUE_ONLY_TOL = float(np.sqrt(np.finfo(float).eps))


class EigenError(RuntimeError):
    pass


@dataclass(frozen=True)
class FactorEigens:
    """Ascending eigenvalues with mass-orthonormal vectors (None when not built) for one factor."""

    values: np.ndarray
    vectors: np.ndarray | None
    mats: FactorMatrices
    resolved: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def n_resolved(self) -> int:
        """Length of the leading resolved run; k when no gate was computed."""
        if self.resolved is None:
            return self.k
        bad = np.flatnonzero(~self.resolved)
        return int(bad[0]) if bad.size else self.k


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make positive the first entry of each column tied for its largest magnitude."""
    mag = np.abs(vectors)
    idx = np.argmax(mag >= (1.0 - SIGN_TIE_REL) * mag.max(axis=0), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _cholesky_lanczos_eigens(upper_m: np.ndarray, upper_h: np.ndarray, k: int,
                             vectors: bool):
    """k smallest pairs of the pencil by ARPACK Lanczos on U^-T mass U^-1.

    upper_m and upper_h are the upper bands of mass and of
    H = stiffness + mass.  With H = U^T U (LAPACK dpbtrf), the eigenpairs
    (theta, y) of the symmetric U^-T mass U^-1 give lambda = 1 / theta and
    the mass-orthonormal e = sqrt(lambda) U^-1 y, so the k largest theta
    give the k smallest lambda.  Without vectors the second item is None.
    A solve with vectors runs to ARPACK's tol=0; one without stops at a
    residual of VALUE_ONLY_TOL relative to theta, which bounds each
    eigenvalue's error by about 20 eps relatively.  Each solve logs its
    operator products at DEBUG on greedy_ou.eigen.
    Raises EigenError when H is not positive definite or ARPACK fails.
    """
    # imported on first use: scipy.sparse.linalg adds about 4 MB to every
    # process, and solves with manufactured targets never get here
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    p, n = upper_h.shape[0] - 1, upper_h.shape[1]
    factor, info = dpbtrf(upper_h)
    if info != 0:
        raise EigenError(f"factor eigensolve failed: stiffness + mass not positive definite "
                         f"(leading minor of order {info})")
    # column-major once here; f2py would copy a row-major band on every call
    mass = np.asfortranarray(upper_m)

    products = 0

    def matvec(y):
        nonlocal products
        products += 1
        x = dtbsv(p, factor, y.ravel())
        return dtbsv(p, factor, dsbmv(p, 1.0, mass, x), trans=1, overwrite_x=1)

    # fixed, so repeated solves agree bitwise, and generic, so no wanted
    # eigenvector is missing from the start vector
    v0 = np.random.default_rng(0).standard_normal(n)
    tol = 0.0 if vectors else VALUE_ONLY_TOL
    try:
        result = eigsh(LinearOperator((n, n), matvec=matvec, dtype=float), k,
                       which="LA", v0=v0, tol=tol, return_eigenvectors=vectors)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise EigenError(f"factor eigensolve failed: {exc}") from exc
    logger.debug("Lanczos solve: ndof %d, k %d, vectors %s, tol %.3g, %d operator products",
                 n, k, vectors, tol, products)
    theta, y = result if vectors else (result, None)
    order = np.argsort(theta)[::-1]
    values = 1.0 / theta[order]
    if not vectors:
        return values, None
    e, _ = dtbtrs(factor, y[:, order])
    return values, e * np.sqrt(values)


def solve_factor_eigens(mats: FactorMatrices, k: int, vectors: bool = True) -> FactorEigens:
    """k smallest eigenpairs of (stiffness + mass) e = lambda mass e.

    With vectors=False only the eigenvalues are computed; the result's
    vectors is None.
    """
    if not 1 <= k <= mats.ndof:
        raise ValueError(f"k must be in [1, {mats.ndof}], got {k}")
    upper_m = mats.bands[MASS]
    upper_h = mats.bands[STIFFNESS] + upper_m
    # eigh would refuse a NaN with a bare ValueError, and LAPACK's banded
    # routines let it through; a NaN or inf in the mass band carries into
    # the sum, so this one check covers both matrices of the pencil
    if not np.isfinite(upper_h).all():
        raise EigenError("factor eigensolve failed: stiffness + mass has non-finite entries")
    try:
        if mats.ndof >= BANDED_MIN_NDOF and 2 * k + 1 < mats.ndof:
            values, vecs = _cholesky_lanczos_eigens(upper_m, upper_h, k, vectors)
        else:
            result = eigh(mats.stiffness + mats.mass, mats.mass,
                          eigvals_only=not vectors, subset_by_index=[0, k - 1])
            values, vecs = result if vectors else (result, None)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"factor eigensolve failed: {exc}") from exc
    return FactorEigens(values=values, vectors=None if vecs is None else _fix_signs(vecs),
                        mats=mats)


def resolved_factor_eigens(mats: FactorMatrices, k: int, vectors: bool = True) -> FactorEigens:
    """Eigens of the given basis, gated against its once-refined mesh.

    Only the refined basis is assembled here: same weight, grading and
    degree, twice the elements.  Eigenvalue n is resolved when that doubling
    changes it by at most RESOLVED_REL_TOL relatively, so the refined basis
    is solved for eigenvalues only.  Vectors (None with vectors=False) and
    mats stay those of the given basis so they remain usable against it.
    """
    eig_c = solve_factor_eigens(mats, k, vectors=vectors)
    fine = assemble(build_mesh(mats.weight.model.b, 2 * mats.mesh.n_el, mats.mesh.grading),
                    mats.weight, mats.degree)
    eig_f = solve_factor_eigens(fine, k, vectors=False)
    rel = np.abs(eig_f.values - eig_c.values) / eig_c.values
    return FactorEigens(values=eig_c.values, vectors=eig_c.vectors,
                        mats=mats, resolved=rel <= RESOLVED_REL_TOL)


@dataclass(frozen=True)
class WeylFit:
    c1: float
    c2: float

    @property
    def ratio(self) -> float:
        return self.c2 / self.c1


def weyl_fit(values, d: int = 1, tail=(10, 40), resolved=None) -> WeylFit:
    """Two-sided growth constants of lambda_n against n^(2/d) over a tail.

    tail is an inclusive 1-based index range.  Warns when the tail reaches
    past the resolved flags: unresolved discrete eigenvalues grow faster
    than the continuum ones and inflate c2.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = tail
    if not 1 <= lo <= hi <= len(values):
        raise ValueError(f"tail {tail} outside [1, {len(values)}]")
    if resolved is not None and not np.all(np.asarray(resolved)[lo - 1:hi]):
        logger.warning("weyl tail %s extends beyond mesh-resolved eigenvalues", tail)
    n = np.arange(lo, hi + 1, dtype=float)
    ratios = values[lo - 1:hi] / n ** (2.0 / d)
    return WeylFit(c1=float(ratios.min()), c2=float(ratios.max()))
