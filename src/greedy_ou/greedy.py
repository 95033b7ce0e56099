"""Energy form on separated functions and the greedy rank-one solvers.

Everything is posed in the u = psi/M representation, so the bilinear form on
an N-fold product domain is

    a(u, v) = sum_ij (A_ij / 4 wi) int M du/dq_j dv/dq_i + c int M u v

with A the symmetric positive-definite coupling matrix.  The form is a short
sum of Kronecker products of the per-factor operators that fem names (MASS,
STIFFNESS, GRAD, GRAD_T), with forms f . op f in rows fem.FORM_ROW;
operator_terms is the one place the form is expanded, and this module only
combines those operators.  Separated functions and functionals share one CP
form [[weights; U_1, ..., U_N]]: a weight vector and one ndof_k x R stack
per factor.  A functional's stacks hold operator-applied columns op_{t,k}
U_k, built once when it is made, so a greedy residual f - a(u_n, .) stays
low-rank, and every pairing, slot vector and slot Hessian applies the terms
and then takes one product over factors.  A rank-one term is a CP form of
rank 1 (rank_one).  A greedy loop keeps two column stacks per factor: the
primal one holds the target's columns and then each captured term's, the
dual one f's columns and then each captured term's applied columns, so the
error tau - u_n and the residual f - a(u_n, .) are re-weightings of them
and each term is applied once.  energy_norm recompresses a CP form's
columns into factor bases before it squares anything, so an error that
cancels has no roundoff floor; the loops pass the bases of their primal
stack, extended by one column per row.

The rank-one subproblem min_u J_f(u) = 1/2 a(u,u) - f(u) is solved by
alternating sweeps: freezing all factors but slot j leaves a small symmetric
positive-definite system in the slot-j coefficients, whose matrix is one
weighted sum of stacked bands, weighted from the form's term table and the
frozen factors' forms.  Stationary points satisfy a(r, .) = f(.) against all
single-slot perturbations, which is what the orthogonality and
energy-decrease identities of both greedy loops rely on; global minimality
of a sweep limit is not certifiable and is everywhere treated as such.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .fem import FORM_ROW, GRAD, GRAD_T, MASS, STIFFNESS, FactorMatrices

logger = logging.getLogger(__name__)

# factor mass norms below this declare a rank-one term null
_NULL_MASS_NORM = 1e-14
# Gram condition number beyond which the captured dictionary is re-orthogonalized
_GRAM_COND_LIMIT = 1e12


class GreedyError(RuntimeError):
    """Driver-level failure, carries the iteration index in the message."""


class AlsError(RuntimeError):
    """Restartable ALS failure (singular slot system or increasing J)."""


class NullTermError(RuntimeError):
    """The rank-one minimizer is null: residual orthogonal to rank-one set."""


@dataclass(frozen=True, eq=False)
class EnergyForm:
    """Coupling matrix A, Weissenberg number wi, and reaction coefficient c.

    Term table of terms (operator_terms): coefs[t] = coef_t, and slot_rows[j] the
    T x (N - 1) flat indices 3 k + FORM_ROW[op_{t,k}], k != j, of the forms that
    slot j's Hessian multiplies, in an N x 3 array holding factor k's in row k.
    A form compares and hashes by identity.
    """

    coupling: np.ndarray
    wi: float
    c: float
    terms: list = field(init=False, repr=False)
    coefs: np.ndarray = field(init=False, repr=False)
    slot_rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.coupling, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {a.shape}")
        if not np.allclose(a, a.T, rtol=0, atol=1e-12 * (1 + np.abs(a).max())):
            raise ValueError("coupling matrix must be symmetric")
        object.__setattr__(self, "coupling", 0.5 * (a + a.T))
        evals = np.linalg.eigvalsh(self.coupling)
        if evals[0] <= 0:
            raise ValueError(
                f"coupling matrix not positive definite: smallest eigenvalue is {evals[0]:.6e}")
        if self.wi <= 0:
            raise ValueError(f"wi must be positive, got {self.wi!r}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        object.__setattr__(self, "_eig_range", (float(evals[0]), float(evals[-1])))
        terms = operator_terms(self)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "coefs", np.array([coef for coef, _ in terms]))
        object.__setattr__(self, "slot_rows", tuple(np.array(
            [[3 * k + FORM_ROW[op] for k, op in enumerate(ops) if k != j] for _, ops in terms],
            dtype=int) for j in range(self.n_factors)))

    @property
    def n_factors(self) -> int:
        return self.coupling.shape[0]

    @property
    def lambda_min(self) -> float:
        return self._eig_range[0]

    @property
    def coercivity(self) -> float:
        return min(self.lambda_min / (4.0 * self.wi), self.c)

    @property
    def continuity(self) -> float:
        return max(self._eig_range[1] / (4.0 * self.wi), self.c)


@dataclass(frozen=True, eq=False)
class _CPForm:
    """sum_r weights[r] (x)_k factors[k][:, r]: the CP form [[weights; U_1, ..., U_N]].

    factors[k] is an ndof_k x R stack, one column per weight.  Instances are
    never mutated, so stacks derived from them can be built once.
    """

    weights: np.ndarray
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "factors", tuple(np.asarray(f, dtype=float)
                                                  for f in self.factors))

    @property
    def rank(self) -> int:
        return len(self.weights)

    @cached_property
    def terms(self) -> list:
        """(weight, rank-1 form of unit weight) for each column."""
        return [(float(w), type(self)([1.0], [f[:, r, None] for f in self.factors]))
                for r, w in enumerate(self.weights)]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(np.concatenate([self.weights, other.weights]),
                          [np.concatenate(p, axis=1) for p in zip(self.factors, other.factors)])

    def __sub__(self, other):
        return self + type(other)(-other.weights, other.factors)


class SeparatedFunction(_CPForm):
    """Sum of weighted rank-one terms, stored in CP form."""


def rank_one(vectors) -> SeparatedFunction:
    """The rank-one term (x)_k vectors[k]: weight 1, one column per factor."""
    return SeparatedFunction([1.0], [v[:, None] for v in vectors])


def _vectors(term: _CPForm) -> list:
    """Factor vectors of a rank-1 form, its weight folded into the last."""
    if term.rank != 1:
        raise ValueError(f"expected a rank-1 form, got rank {term.rank}")
    return [f[:, 0] for f in term.factors[:-1]] + [term.weights[0] * term.factors[-1][:, 0]]


def _normalized(vectors, norms) -> list:
    """Factors 1..N-1 divided by their mass norms, the product folded into the last."""
    out = [f / nu for f, nu in zip(vectors[:-1], norms[:-1])]
    out.append(vectors[-1] * math.prod(norms[:-1]))
    return out


def _check_sizes(form: EnergyForm, mats, *items):
    """CP forms: one factor per basis with its ndof, one column per weight."""
    n = form.n_factors
    if len(mats) != n:
        raise ValueError(f"expected {n} factor matrices, got {len(mats)}")
    for item in items:
        if len(item.factors) != n:
            raise ValueError(f"{type(item).__name__} has {len(item.factors)} factors, "
                             f"expected {n}")
        for k, f in enumerate(item.factors):
            if f.shape[:1] != (mats[k].ndof,):
                raise ValueError(f"factor {k} has {f.shape[0]} coefficients, "
                                 f"basis has {mats[k].ndof}")
            if f.shape[1:] != item.weights.shape:
                raise ValueError(f"factor {k} has {f.shape[1:]} columns, "
                                 f"weights have {item.weights.shape}")


def operator_terms(form: EnergyForm) -> list:
    """The energy form as (coef, ops) terms: a(u, v) = sum_t coef_t prod_k v_k . op_{t,k} u_k.

    c with the mass in every slot, A_ii/4wi with the stiffness in slot i, and
    A_ij/4wi with the gradient coupling on the trial factor j and its
    transpose on the test factor i.
    """
    n = form.n_factors
    quarter = 1.0 / (4.0 * form.wi)
    terms = [(form.c, (MASS,) * n)]
    for i in range(n):
        for j in range(n):
            if form.coupling[i, j] == 0.0:
                continue
            ops = [MASS] * n
            if i == j:
                ops[i] = STIFFNESS
            else:
                ops[j], ops[i] = GRAD, GRAD_T
            terms.append((form.coupling[i, j] * quarter, tuple(ops)))
    return terms


def _applied(op_terms, mats, f: SeparatedFunction) -> "Functional":
    """The functional v -> sum_t coef_t sum_r w_r prod_k v_k . op_{t,k} U_k[:, r].

    One dual column op_{t,k} U_k[:, r] with weight coef_t w_r per operator
    term and primal column; each distinct op_{t,k} U_k is formed once
    (FactorMatrices.apply).
    """
    factors = []
    for k, m in enumerate(mats):
        names = {ops[k] for _, ops in op_terms}
        applied = {name: m.apply(name, f.factors[k]) for name in names}
        factors.append(np.concatenate([applied[ops[k]] for _, ops in op_terms], axis=1))
    return Functional(np.concatenate([coef * f.weights for coef, _ in op_terms]), factors)


def energy_rank1(form: EnergyForm, mats, u: SeparatedFunction, v: SeparatedFunction) -> float:
    """a(u, v) for rank-1 u (trial) and v (test)."""
    _check_sizes(form, mats, u, v)
    return _applied(form.terms, mats, u).value(v)


# mass-orthonormal basis Q of one factor's CP columns U = Q R: the stack of Q and
# op Q over _OPS, and R
_Basis = namedtuple("_Basis", "stack coefs")
_OPS = (MASS, STIFFNESS, GRAD)


def _with_column(mats_k: FactorMatrices, basis: _Basis, u: np.ndarray) -> _Basis:
    """The basis of one more column u: two classical Gram-Schmidt passes in the mass inner
    product, the remainder a new basis vector unless the second pass removed more than it
    left, u then being in the span (Kahan; Parlett, The Symmetric Eigenvalue Problem, 6.9)."""
    (q, mq), coefs = basis.stack[:2], basis.coefs
    h1 = mq.T @ u
    v1 = u - q @ h1
    h2 = mq.T @ v1
    v = v1 - q @ h2
    mv = mats_k.apply(MASS, v)
    nu = math.sqrt(max(float(v @ mv), 0.0))
    r, keep = len(coefs), nu > math.sqrt(float(h2 @ h2))
    grown = np.zeros((r + keep, coefs.shape[1] + 1))
    grown[:r, :-1], grown[:r, -1] = coefs, h1 + h2
    if not keep:
        return basis._replace(coefs=grown)
    grown[r, -1] = nu
    new = np.array([v, mv] + [mats_k.apply(name, v) for name in _OPS[1:]]) / nu
    return _Basis(np.concatenate([basis.stack, new[:, :, None]], axis=2), grown)


def _extended(mats, factors, bases=None) -> list:
    """Factor bases (empty by default) extended by the columns they do not hold yet."""
    bases = bases or [_Basis(np.zeros((4, m.ndof, 0)), np.zeros((0, 0))) for m in mats]
    for columns in zip(*(np.array(f[:, bases[0].coefs.shape[1]:].T) for f in factors)):
        bases = [_with_column(m, b, u) for m, b, u in zip(mats, bases, columns)]
    return bases


def _mode_product(core: np.ndarray, k: int, mat: np.ndarray) -> np.ndarray:
    """core x_k mat: mode k contracted with the columns of mat, one matrix product."""
    a, r, b = math.prod(core.shape[:k]), core.shape[k], math.prod(core.shape[k + 1:])
    out = core.reshape(a, r) @ mat.T if b == 1 else mat @ core.reshape(a, r, b)
    return out.reshape(core.shape)


def energy_norm(form: EnergyForm, mats, f: SeparatedFunction, bases=None) -> float:
    """||f||_a with no floor: the columns, recompressed into mass-orthonormal factor bases
    (_with_column), cancel in the Tucker core C = sum_r w_r (x)_k R_k[:, r] before anything
    is squared (De Lathauwer, De Moor, Vandewalle, SIAM J. Matrix Anal. Appl. 21, 2000).
    Mass slots are identities there, so term t is <C x_i Q'GQ over its GRAD_T slots i,
    C x_j Q'op Q over its other slots j>.  bases (the greedy loops' own, _extended) may
    hold a prefix of f's columns already; the rest are added."""
    _check_sizes(form, mats, f)
    bases = _extended(mats, f.factors, bases)
    first, *rest = [b.coefs for b in bases]
    columns = reduce(lambda a, c: (a[:, None] * c).reshape(len(a) * len(c), f.rank), rest[1:],
                     rest[0] if rest else np.ones((1, f.rank)))
    core = ((first * f.weights) @ columns.T).reshape([len(b.coefs) for b in bases])
    products = {(k, name): _mode_product(core, k, proj) for k, b in enumerate(bases)
                for name, proj in zip(_OPS[1:], b.stack[0].T @ b.stack[2:])}
    total = 0.0
    for coef, ops in form.terms:
        sides = [core, core]  # test, trial
        for k, op in enumerate(ops):
            if op != MASS:
                sides[op != GRAD_T] = products[k, GRAD if op == GRAD_T else op]
        total += coef * float(np.vdot(*sides))
    return math.sqrt(max(total, 0.0))


class Functional(_CPForm):
    """Bounded functional in CP form on the dual side: f(v) = sum_c w_c prod_k F_k[:, c] . v_k.

    The columns of F_k are operator-applied primal factors (see _applied),
    so evaluating f, or its slot-j vector, is one product over factors.
    """

    @classmethod
    def from_target(cls, form: EnergyForm, mats, target: SeparatedFunction) -> "Functional":
        """f = a(target, .) for a known separated target."""
        _check_sizes(form, mats, target)
        return _applied(form.terms, mats, target)

    @classmethod
    def from_source(cls, mats, source: SeparatedFunction) -> "Functional":
        """f = (g, .)_{L2_M} for a separated source g: one mass term."""
        return _applied([(1.0, (MASS,) * len(mats))], mats, source)

    def _products(self, test, skip=None):
        """prod_{k != skip} F_k^T V_k, one row per dual column; V_k a vector or a stack."""
        return reduce(np.multiply, [f.T @ v for k, (f, v) in enumerate(zip(self.factors, test))
                                    if k != skip], 1.0)

    def values(self, test: SeparatedFunction) -> np.ndarray:
        """f at each column of a separated test function."""
        return self.weights @ self._products(test.factors)

    def value(self, v: SeparatedFunction) -> float:
        """f(v) for a rank-1 v."""
        return float(self.weights @ self._products(_vectors(v)))

    def slot_vector(self, frozen: list, j: int) -> np.ndarray:
        """Vector b with f(frozen but slot j -> y) = y . b; frozen holds one vector per factor."""
        return self.factors[j] @ (self.weights * self._products(frozen, skip=j))


def _slot_hessian(form: EnergyForm, forms: np.ndarray, stack: np.ndarray, j: int) -> np.ndarray:
    """Upper band of the Hessian of u -> a(term with slot j -> u, same) over slot-j coefficients.

    Operator term t contributes coef_t prod_{k != j} (f_k . op_{t,k} f_k) op_{t,j};
    row k of forms holds the quad_forms of the frozen f_k (row j is not read),
    and stack is slot j's band_stack of op_{t,j} over t.  Products run over k
    and the sum over t in order: the roundings of a Python loop over the terms.
    The band is in the FactorMatrices.bands layout, which _slot_solve takes.
    """
    scale = form.coefs * np.multiply.reduce(forms.take(form.slot_rows[j]), axis=1)
    return np.einsum("t,tij->ij", scale, stack)


def _slot_solve(band: np.ndarray, b: np.ndarray, j: int):
    """Minimizer u of 1/2 u.Hu - b.u and the minimum J = -1/2 b.u, for H given
    by its upper band in the LAPACK dpbtrf layout.

    One dpbtrf factorisation and one dpbtrs solve, with no finiteness check
    on the way in: a NaN or inf in the band or in b passes through LAPACK,
    and since b.u is finite only when b and u both are, the check on J
    catches it.  Raises AlsError when H is not positive definite or J is
    not finite.
    """
    factor, info = dpbtrf(band)
    if info != 0:
        raise AlsError(f"slot {j} system not positive definite: "
                       f"leading minor of order {info} is not positive")
    u, _ = dpbtrs(factor, b)
    j_val = -0.5 * float(b @ u)
    if not math.isfinite(j_val):
        raise AlsError(f"slot {j} solve is not finite: J = {j_val!r}")
    return u, j_val


def als_rank1(form: EnergyForm, mats, rhs: Functional, init: SeparatedFunction,
              tol: float = 1e-10, max_sweeps: int = 60):
    """Alternating minimization of J(u) = 1/2 a(u,u) - rhs(u) over rank-one u.

    Each slot solve is a symmetric positive-definite banded system in the
    LAPACK dpbtrf upper-band layout, factored by banded Cholesky in O(ndof)
    (_slot_solve); sweeps stop when the relative change of J drops below tol
    or max_sweeps is hit.  Returns (term, J) with the term a rank-1 form,
    normalized so factors 1..N-1 have unit mass norm.

    Raises AlsError on a slot system that is not positive definite, a slot
    solve that is not finite (a NaN or inf in rhs or in the factor
    matrices) or an increasing J (restart with a different init),
    NullTermError when a slot minimizer collapses below mass norm 1e-14
    (residual orthogonal to the rank-one set, as is an empty rhs).
    """
    _check_sizes(form, mats, init)
    n = form.n_factors
    r = _vectors(init)
    # the forms of the iterate's factors: each slot solve replaces its own row
    forms = np.array([m.quad_forms(f) for m, f in zip(mats, r)])
    norms = np.sqrt(np.maximum(forms[:, FORM_ROW[MASS]], 0.0))
    if norms.min() < _NULL_MASS_NORM:
        raise ValueError(f"init factor {norms.argmin()} is zero")
    # slot j's operators op_{t,j} over the terms, as one cached band stack per basis
    stacks = [m.band_stack(names) for m, names in zip(mats, zip(*(ops for _, ops in form.terms)))]
    j_prev = j_val = np.inf
    for sweep in range(max_sweeps):
        for j in range(n):
            u, j_val = _slot_solve(_slot_hessian(form, forms, stacks[j], j),
                                   rhs.slot_vector(r, j), j)
            # the forms of u give its mass norm and serve the next slots' Hessians
            forms[j] = mats[j].quad_forms(u)
            norms[j] = float(np.sqrt(max(forms[j, FORM_ROW[MASS]], 0.0)))
            if norms[j] < _NULL_MASS_NORM:
                raise NullTermError("residual orthogonal to rank-one set")
            r[j] = u
        # every factor was solved in this sweep, so norms are those of r; the
        # forms are quadratic, so each row scales by the square of the factor
        # _normalized applies to its factor
        r = _normalized(r, norms)
        squares = np.square(norms[:-1])
        forms[:-1] /= squares[:, None]
        forms[-1] *= math.prod(squares)
        if j_val > j_prev + 1e-12 * (1.0 + abs(j_prev)):
            raise AlsError(f"J increased across sweep {sweep}: {j_prev!r} -> {j_val!r}")
        if abs(j_prev - j_val) <= tol * (1.0 + abs(j_val)):
            break
        j_prev = j_val
    return rank_one(r), float(j_val)


def random_unit_term(mats, rng) -> SeparatedFunction:
    """Random start: factor-wise standard normals, unit mass norm each."""
    draws = [rng.standard_normal(m.ndof) for m in mats]
    return rank_one([v / np.sqrt(max(m.quad_forms(v)[FORM_ROW[MASS]], 0.0))
                     for m, v in zip(mats, draws)])


def als_best(form: EnergyForm, mats, rhs: Functional, *, tol: float = 1e-10,
             max_sweeps: int = 60, restarts: int = 1, rng=None):
    """Multi-start ALS, keeping the lowest-J stationary point.

    A failed (AlsError) or collapsed (NullTermError) start is retried from
    the next random init.  If no start succeeds, NullTermError is raised
    when any start collapsed, even if others failed, and AlsError otherwise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    best = None
    nulls = 0
    failures = []
    for attempt in range(max(restarts, 1)):
        init = random_unit_term(mats, rng)
        try:
            term, j_val = als_rank1(form, mats, rhs, init, tol=tol, max_sweeps=max_sweeps)
        except NullTermError:
            nulls += 1
            continue
        except AlsError as exc:
            failures.append(str(exc))
            logger.debug("ALS start %d failed: %s", attempt, exc)
            continue
        if best is None or j_val < best[1]:
            best = (term, j_val)
    if best is not None:
        return best
    if nulls:
        raise NullTermError("residual orthogonal to rank-one set")
    raise AlsError("all ALS starts failed: " + "; ".join(failures[-3:]))


@dataclass(frozen=True)
class TraceRow:
    n: int
    err_energy: float  # nan when no target is known
    term_norm_a: float
    ortho_defect: float
    surrogate: float
    alpha: tuple | None  # Galerkin coefficients, orthogonal algorithm only
    gram_cond: float | None  # Jacobi-scaled Gram condition number, orthogonal algorithm only


@dataclass
class GreedyTrace:
    rows: list = field(default_factory=list)
    status: str = "n_max"  # converged | n_max | null_term
    final_surrogate: float | None = None  # candidate value that triggered the stop


def _greedy_loop(form, mats, rhs, tol_stop, n_max, *, als_tol, max_sweeps,
                 restarts, rng, target, orthogonal):
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if not tol_stop <= 1:  # NaN included
        raise ValueError(f"tol_stop must be at most 1, got {tol_stop}")
    if rng is None:
        rng = np.random.default_rng(0)
    trace = GreedyTrace()
    # u_n = sum_i weights[i] z_i, so the error and the residual re-weight fixed
    # columns: primal, the target's then one per captured term z_i; dual, rhs's
    # then z_i's applied columns (weights coef_t), so no term is applied twice
    n_target = 0 if target is None else target.rank
    primal = [np.zeros((m.ndof, 0)) for m in mats] if target is None else list(target.factors)
    dual = list(rhs.factors)
    weights = np.zeros(0)  # ones in PGA, the Galerkin alpha in OGA
    residual = rhs
    gram = np.zeros((0, 0))
    fvec = np.zeros(0)
    r1_norm = None
    bases = None  # of the primal columns
    for n in range(1, n_max + 1):
        try:
            term, j_val = als_best(form, mats, residual, tol=als_tol,
                                   max_sweeps=max_sweeps, restarts=restarts, rng=rng)
        except NullTermError:
            logger.info("iteration %d: residual orthogonal to rank-one set, stopping", n)
            trace.status = "null_term"
            break
        except AlsError as exc:
            raise GreedyError(f"iteration {n}: {exc}") from exc
        # the term applied once: its energy norm and, for OGA, its Gram column
        applied = Functional.from_target(form, mats, term)
        norm_n = float(np.sqrt(max(applied.value(term), 0.0)))
        if r1_norm is None:
            r1_norm = norm_n
        surrogate = norm_n / r1_norm
        if surrogate < tol_stop:
            # negligible candidate, not recorded; never the first, whose surrogate is 1.0
            trace.status = "converged"
            trace.final_surrogate = surrogate
            break
        primal = [np.concatenate(p, axis=1) for p in zip(primal, term.factors)]
        dual = [np.concatenate(p, axis=1) for p in zip(dual, applied.factors)]
        if orthogonal:
            # the Gram matrix bordered by the new term's column
            column = applied.weights @ applied._products([u[:, n_target:] for u in primal])
            grown = np.empty((len(column), len(column)))
            grown[:-1, :-1], grown[-1], grown[:-1, -1] = gram, column, column[:-1]
            gram = grown
            fvec = np.append(fvec, rhs.value(term))
            # solved for the unit-norm terms (Jacobi scaling), so no term is cut for its size
            s = 1.0 / np.sqrt(np.diag(gram))
            scaled, scaled_f = s[:, None] * gram * s, s * fvec
            if not (np.isfinite(scaled).all() and np.isfinite(scaled_f).all()):
                raise GreedyError(f"iteration {n}: Galerkin system is not finite")
            weights, gram_cond = _galerkin(scaled, scaled_f)
            weights *= s
            alpha_out = tuple(float(a) for a in weights)
        else:
            weights = np.ones(n)
            alpha_out = gram_cond = None
        residual = Functional(np.concatenate(
            [rhs.weights, -np.outer(weights, form.coefs).ravel()]), dual)
        err = float("nan")
        if target is not None:
            bases = _extended(mats, primal, bases)
            err = energy_norm(form, mats, SeparatedFunction(
                np.concatenate([target.weights, -weights]), primal), bases)
        trace.rows.append(TraceRow(n=n, err_energy=err, term_norm_a=norm_n,
                                   ortho_defect=float(residual.value(term)),
                                   surrogate=float(surrogate), alpha=alpha_out,
                                   gram_cond=gram_cond))
    return SeparatedFunction(weights, [u[:, n_target:] for u in primal]), trace


def _galerkin(gram: np.ndarray, fvec: np.ndarray) -> tuple:
    """Galerkin coefficients and the condition number of gram, from one eigendecomposition.

    alpha = V (V^T fvec / lambda) over the eigenpairs kept: all of them when
    the condition lambda_max / lambda_min is at most 1e12 (inf when
    lambda_min <= 0).  Above that the captured terms have become nearly
    dependent, and only the eigenvalues above 1e-13 lambda_max are kept,
    which is an orthogonalization of the dictionary in the a-inner product.
    gram and fvec must be finite: eigh does not check.
    """
    evals, evecs = np.linalg.eigh(gram)
    emax = evals[-1]
    cond = np.inf if evals[0] <= 0 else float(emax / evals[0])
    keep = slice(None)
    if cond > _GRAM_COND_LIMIT:
        logger.info("Gram matrix condition %.3e, re-orthogonalizing dictionary", cond)
        keep = evals > emax * 1e-13
    proj = evecs[:, keep].T @ fvec
    return evecs[:, keep] @ (proj / evals[keep]), cond


def run_pga(form: EnergyForm, mats, rhs: Functional, tol_stop: float = 1e-6,
            n_max: int = 50, *, als_tol: float = 1e-10, max_sweeps: int = 60,
            restarts: int = 1, rng=None, target: SeparatedFunction | None = None):
    """Pure greedy loop: capture a rank-one term, subtract it, repeat.

    The residual functional stays in separated form.  Stops when the next
    captured term's relative norm drops below tol_stop (at most 1), the
    residual is orthogonal to every rank-one candidate, or n_max is reached.
    """
    return _greedy_loop(form, mats, rhs, tol_stop, n_max, als_tol=als_tol,
                        max_sweeps=max_sweeps, restarts=restarts, rng=rng,
                        target=target, orthogonal=False)


def run_oga(form: EnergyForm, mats, rhs: Functional, tol_stop: float = 1e-6,
            n_max: int = 50, *, als_tol: float = 1e-10, max_sweeps: int = 60,
            restarts: int = 1, rng=None, target: SeparatedFunction | None = None):
    """Orthogonal greedy loop: after each capture, re-solve the Galerkin
    system over the captured span and re-weight every captured term's
    columns in the residual by its new coefficient."""
    return _greedy_loop(form, mats, rhs, tol_stop, n_max, als_tol=als_tol,
                        max_sweeps=max_sweeps, restarts=restarts, rng=rng,
                        target=target, orthogonal=True)
