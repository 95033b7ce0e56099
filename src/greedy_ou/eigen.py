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
shift-invert Lanczos (ARPACK) at shift 0, whose inverse is one banded
Cholesky factor, so the cost is O(ndof) per Lanczos step instead of the
O(ndof^3) of dense eigh.  Dense eigh still runs on smaller bases, where it
is faster, and whenever 2k + 1 >= ndof, where ARPACK has no room for its
Lanczos basis.  The choice depends only on ndof and k.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh

from .fem import FactorMatrices, assemble, build_mesh

logger = logging.getLogger(__name__)

# relative change under one mesh doubling up to which an eigenvalue counts as resolved
RESOLVED_REL_TOL = 1e-3

# Entries within this relative distance of a vector's largest magnitude tie
# for it.  The two end entries of an odd mode of a symmetric problem agree
# only to roundoff (a few 1e-12 relatively), so a sign fixed by the single
# largest entry would follow roundoff and differ between solvers.
SIGN_TIE_REL = 1e-8

# Smallest basis solved by shift-invert Lanczos instead of dense eigh.  Per
# call at k = 20 and 40, P2 FENE b=4 and CPAIL b=6, one BLAS thread, 2-core
# VM: ndof 241 dense 6-10 ms, banded 6-17 ms; 321 about equal (10-15 ms);
# 401 dense 14-22 ms, banded 7-18 ms; 641 dense 44-59 ms, banded 13-19 ms;
# 1281 dense 450-580 ms, banded 11-30 ms.
BANDED_MIN_NDOF = 400


class EigenError(RuntimeError):
    pass


@dataclass(frozen=True)
class FactorEigens:
    """Ascending eigenvalues with mass-orthonormal vectors for one factor."""

    values: np.ndarray
    vectors: np.ndarray
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


def _shift_invert_eigens(mats: FactorMatrices, k: int):
    """k smallest pairs by ARPACK Lanczos on (stiffness + mass)^-1 mass.

    Both matrices have bandwidth mats.degree, so one banded Cholesky factor
    applies the inverse in O(ndof) per Lanczos step.
    """
    # imported on first use: scipy.sparse.linalg adds about 4 MB to every
    # process, and solves with manufactured targets never get here
    from scipy.sparse import diags
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n, p = mats.ndof, mats.degree
    upper_m = mats.bands["mass"]
    upper_h = mats.bands["stiffness"] + upper_m
    # both matrices are bitwise symmetric, so diagonal -d repeats diagonal d
    offsets = range(-p, p + 1)
    m_diags, h_diags = ([band[p - abs(d), abs(d):] for d in offsets]
                        for band in (upper_m, upper_h))
    factor = cholesky_banded(upper_h)
    op_inv = LinearOperator((n, n), dtype=float,
                            matvec=lambda x: cho_solve_banded((factor, False), x))
    # fixed and generic; the constant vector would be eigenvector 1 itself
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = eigsh(diags(h_diags, offsets), k, M=diags(m_diags, offsets),
                                sigma=0.0, OPinv=op_inv, v0=v0, tol=0)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise EigenError(f"factor eigensolve failed: {exc}") from exc
    order = np.argsort(values)
    return values[order], vectors[:, order]


def solve_factor_eigens(mats: FactorMatrices, k: int) -> FactorEigens:
    """k smallest eigenpairs of (stiffness + mass) e = lambda mass e."""
    if not 1 <= k <= mats.ndof:
        raise ValueError(f"k must be in [1, {mats.ndof}], got {k}")
    try:
        if mats.ndof >= BANDED_MIN_NDOF and 2 * k + 1 < mats.ndof:
            values, vectors = _shift_invert_eigens(mats, k)
        else:
            values, vectors = eigh(mats.stiffness + mats.mass, mats.mass,
                                   subset_by_index=[0, k - 1])
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"factor eigensolve failed: {exc}") from exc
    return FactorEigens(values=values, vectors=_fix_signs(vectors), mats=mats)


def resolved_factor_eigens(mats: FactorMatrices, k: int) -> FactorEigens:
    """Eigens of the given basis, gated against its once-refined mesh.

    Only the refined basis is assembled here: same weight, grading and
    degree, twice the elements.  Eigenvalue n is resolved when that doubling
    changes it by at most RESOLVED_REL_TOL relatively.  Vectors and mats
    stay those of the given basis so they remain usable against it.
    """
    eig_c = solve_factor_eigens(mats, k)
    fine = assemble(build_mesh(mats.weight.model.b, 2 * mats.mesh.n_el, mats.mesh.grading),
                    mats.weight, mats.degree)
    eig_f = solve_factor_eigens(fine, k)
    rel = np.abs(eig_f.values - eig_c.values) / eig_c.values
    return FactorEigens(values=eig_c.values, vectors=eig_c.vectors,
                        mats=mats, resolved=rel <= RESOLVED_REL_TOL)


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
