"""Energy form on separated functions and the greedy rank-one solvers.

Everything is posed in the u = psi/M representation, so the bilinear form on
an N-fold product domain is

    a(u, v) = sum_ij (A_ij / 4 wi) int M du/dq_j dv/dq_i + c int M u v

with A the symmetric positive-definite coupling matrix.  The form is a short
sum of Kronecker products of per-factor matrices; operator_terms is the one
place it is expanded.  Separated functions and functionals share one CP form
[[weights; U_1, ..., U_N]]: a weight vector and one ndof_k x R stack per
factor.  A functional's stacks hold operator-applied columns op_{t,k} U_k,
built once when it is made, so a greedy residual f - a(u_n, .) stays
low-rank, and every pairing, slot vector and slot Hessian applies the
terms and then takes one product over factors; a rank-one term is a CP form
of rank 1 (rank_one).  assemble_dense expands the form by hand on purpose: it
is the independent Kronecker oracle for small grids.

The rank-one subproblem min_u J_f(u) = 1/2 a(u,u) - f(u) is solved by
alternating sweeps: freezing all factors but slot j leaves a small symmetric
positive-definite system in the slot-j coefficients.  Stationary points
satisfy a(r, .) = f(.) against all single-slot perturbations, which is what
the orthogonality and energy-decrease identities of both greedy loops rely
on; global minimality of a sweep limit is not certifiable and is everywhere
treated as such.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, solve
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .fem import FactorMatrices

logger = logging.getLogger(__name__)

# factor mass norms below this declare a rank-one term null
_NULL_MASS_NORM = 1e-14
# Gram condition number beyond which the captured dictionary is re-orthogonalized
_GRAM_COND_LIMIT = 1e12
# largest total tensor-grid size for which exact_dual_norms assembles the dense form
DENSE_MAX_DOF = 10_000

# per-factor operators of an operator term, named by their FactorMatrices attribute
MASS = "mass"
STIFFNESS = "stiffness"
GRAD = "grad_coupling"
GRAD_T = "grad_coupling_t"


class GreedyError(RuntimeError):
    """Driver-level failure, carries the iteration index in the message."""


class AlsError(RuntimeError):
    """Restartable ALS failure (singular slot system or increasing J)."""


class NullTermError(RuntimeError):
    """The rank-one minimizer is null: residual orthogonal to rank-one set."""


@dataclass(frozen=True)
class EnergyForm:
    """Coupling matrix A, Weissenberg number wi, and reaction coefficient c."""

    coupling: np.ndarray
    wi: float
    c: float
    terms: list = field(init=False, repr=False, compare=False)  # see operator_terms

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
        object.__setattr__(self, "terms", operator_terms(self))

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


def mass_norm(mats_k: FactorMatrices, vec: np.ndarray) -> float:
    return float(np.sqrt(max(vec @ mats_k.mass @ vec, 0.0)))


def _normalized(vectors, norms) -> list:
    """Factors 1..N-1 divided by their mass norms, the product folded into the last."""
    out = [f / nu for f, nu in zip(vectors[:-1], norms[:-1])]
    out.append(vectors[-1] * float(np.prod(norms[:-1])))
    return out


def normalize_term(mats, term: SeparatedFunction) -> SeparatedFunction:
    """Scale factors 1..N-1 to unit mass norm, folding magnitudes into the last."""
    vectors = _vectors(term)
    norms = [mass_norm(m, f) for m, f in zip(mats, vectors)]
    if min(norms) == 0.0:
        raise ValueError(f"factor {norms.index(0.0)} is zero")
    return rank_one(_normalized(vectors, norms))


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
    term and primal column; each distinct op_{t,k} U_k is formed once.
    """
    factors = []
    for k, m in enumerate(mats):
        names = {ops[k] for _, ops in op_terms}
        applied = {name: getattr(m, name) @ f.factors[k] for name in names}
        factors.append(np.concatenate([applied[ops[k]] for _, ops in op_terms], axis=1))
    return Functional(np.concatenate([coef * f.weights for coef, _ in op_terms]), factors)


def energy_rank1(form: EnergyForm, mats, u: SeparatedFunction, v: SeparatedFunction) -> float:
    """a(u, v) for rank-1 u (trial) and v (test)."""
    _check_sizes(form, mats, u, v)
    return _applied(form.terms, mats, u).value(v)


def energy_pairing(form: EnergyForm, mats, f: SeparatedFunction, g: SeparatedFunction) -> float:
    _check_sizes(form, mats, g)
    return float(g.weights @ Functional.from_target(form, mats, f).values(g))


def energy_norm(form: EnergyForm, mats, f: SeparatedFunction) -> float:
    return float(np.sqrt(max(energy_pairing(form, mats, f, f), 0.0)))


def mass_pairing(mats, f: SeparatedFunction, g: SeparatedFunction) -> float:
    return float(g.weights @ Functional.from_source(mats, f).values(g))


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

    def minus(self, form: EnergyForm, mats, approx: SeparatedFunction) -> "Functional":
        """The residual functional f - a(approx, .)."""
        return self - Functional.from_target(form, mats, approx)

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


def _quad_forms(form: EnergyForm, mats_k: FactorMatrices, k: int, f: np.ndarray) -> dict:
    """f . op f for each operator that factor k carries in some term, by name."""
    return {name: f @ (getattr(mats_k, name) @ f) for name in {ops[k] for _, ops in form.terms}}


def _slot_hessian(form: EnergyForm, mats, quad, j: int) -> np.ndarray:
    """Upper band of the Hessian of u -> a(term with slot j -> u, same) over slot-j coefficients.

    Operator term t contributes coef_t prod_{k != j} (f_k . op_{t,k} f_k) op_{t,j};
    quad[k] holds _quad_forms of the frozen factor f_k for every k != j.  The
    band is in the layout of FactorMatrices.bands, the LAPACK dpbtrf upper-band
    layout that _slot_solve takes.
    """
    others = [k for k in range(form.n_factors) if k != j]
    bands = mats[j].bands
    return sum(coef * math.prod(quad[k][ops[k]] for k in others) * bands[ops[j]]
               for coef, ops in form.terms)


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
    norms = [mass_norm(m, f) for m, f in zip(mats, r)]
    if min(norms) < _NULL_MASS_NORM:
        raise ValueError(f"init factor {norms.index(min(norms))} is zero")
    j_prev = np.inf
    j_val = np.inf
    # quadratic forms of each factor, None from the moment the factor changes
    quad = [None] * n
    for sweep in range(max_sweeps):
        for j in range(n):
            for k in range(n):
                if k != j and quad[k] is None:
                    quad[k] = _quad_forms(form, mats[k], k, r[k])
            u, j_val = _slot_solve(_slot_hessian(form, mats, quad, j),
                                   rhs.slot_vector(r, j), j)
            norms[j] = mass_norm(mats[j], u)
            if norms[j] < _NULL_MASS_NORM:
                raise NullTermError("residual orthogonal to rank-one set")
            r[j] = u
            quad[j] = None
        # every factor was solved in this sweep, so norms are those of r
        r = _normalized(r, norms)
        quad = [None] * n
        if j_val > j_prev + 1e-12 * (1.0 + abs(j_prev)):
            raise AlsError(f"J increased across sweep {sweep}: {j_prev!r} -> {j_val!r}")
        if abs(j_prev - j_val) <= tol * (1.0 + abs(j_val)):
            break
        j_prev = j_val
    return rank_one(r), float(j_val)


def random_unit_term(mats, rng) -> SeparatedFunction:
    """Random start: factor-wise standard normals, unit mass norm each."""
    draws = [rng.standard_normal(m.ndof) for m in mats]
    return rank_one([v / mass_norm(m, v) for m, v in zip(mats, draws)])


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


@dataclass
class GreedyTrace:
    rows: list = field(default_factory=list)
    status: str = "n_max"  # converged | n_max | null_term
    final_surrogate: float | None = None  # candidate value that triggered the stop


def _err_energy(form, mats, target, approx):
    if target is None:
        return float("nan")
    return energy_norm(form, mats, target - approx)


def _greedy_loop(form, mats, rhs, tol_stop, n_max, *, als_tol, max_sweeps,
                 restarts, rng, target, orthogonal):
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if not tol_stop <= 1:  # NaN included
        raise ValueError(f"tol_stop must be at most 1, got {tol_stop}")
    if rng is None:
        rng = np.random.default_rng(0)
    # normalized dictionary terms, one column each
    captured = SeparatedFunction(np.zeros(0), [np.zeros((m.ndof, 0)) for m in mats])
    approx = captured
    trace = GreedyTrace()
    residual = rhs
    gram = np.zeros((0, 0))
    fvec = np.zeros(0)
    r1_norm = None
    for n in range(1, n_max + 1):
        try:
            term, j_val = als_best(form, mats, residual, tol=als_tol,
                                   max_sweeps=max_sweeps, restarts=restarts, rng=rng)
        except NullTermError:
            logger.info("iteration %d: residual orthogonal to rank-one set, stopping", n)
            trace.status = "null_term"
            return approx, trace
        except AlsError as exc:
            raise GreedyError(f"iteration {n}: {exc}") from exc
        norm_n = float(np.sqrt(max(energy_rank1(form, mats, term, term), 0.0)))
        if r1_norm is None:
            r1_norm = norm_n
        surrogate = norm_n / r1_norm
        if surrogate < tol_stop:
            # negligible candidate, not recorded; never the first, whose surrogate is 1.0
            trace.status = "converged"
            trace.final_surrogate = surrogate
            return approx, trace
        captured = captured + term
        if orthogonal:
            column = Functional.from_target(form, mats, term).values(captured)
            gram = np.block([[gram, column[:-1, None]], [column]])
            fvec = np.append(fvec, rhs.value(term))
            alpha = _solve_galerkin(gram, fvec)
            approx = SeparatedFunction(alpha, captured.factors)
            alpha_out = tuple(float(a) for a in alpha)
        else:
            approx = captured
            alpha_out = None
        residual = rhs.minus(form, mats, approx)
        ortho_defect = residual.value(term)
        trace.rows.append(TraceRow(
            n=n,
            err_energy=_err_energy(form, mats, target, approx),
            term_norm_a=norm_n,
            ortho_defect=float(ortho_defect),
            surrogate=float(surrogate),
            alpha=alpha_out,
        ))
    return approx, trace


def _solve_galerkin(gram: np.ndarray, fvec: np.ndarray) -> np.ndarray:
    """Galerkin solve with symmetric pivoting; re-orthogonalize when degenerate.

    Condition above 1e12 means captured terms have become nearly dependent;
    the eigendecomposition restricts the solve to the well-conditioned span,
    which is an orthogonalization of the dictionary in the a-inner product.
    """
    evals, evecs = eigh(gram)
    emax = evals[-1]
    cond = np.inf if evals[0] <= 0 else emax / evals[0]
    if cond <= _GRAM_COND_LIMIT:
        return solve(gram, fvec, assume_a="sym")
    logger.info("Gram matrix condition %.3e, re-orthogonalizing dictionary", cond)
    keep = evals > emax * 1e-13
    proj = evecs[:, keep].T @ fvec
    return evecs[:, keep] @ (proj / evals[keep])


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
    system over the captured span and rebuild the residual from scratch."""
    return _greedy_loop(form, mats, rhs, tol_stop, n_max, als_tol=als_tol,
                        max_sweeps=max_sweeps, restarts=restarts, rng=rng,
                        target=target, orthogonal=True)


def assemble_dense(form: EnergyForm, mats) -> np.ndarray:
    """Full Kronecker assembly of the energy form; small grids only."""
    n = form.n_factors
    quarter = 1.0 / (4.0 * form.wi)
    masses = [m.mass for m in mats]

    def kron_chain(slot_mats):
        return reduce(np.kron, slot_mats)

    total = form.c * kron_chain(masses)
    for i in range(n):
        slots = list(masses)
        slots[i] = mats[i].stiffness
        total = total + form.coupling[i, i] * quarter * kron_chain(slots)
    for i in range(n):
        for j in range(n):
            if i == j or form.coupling[i, j] == 0.0:
                continue
            slots = list(masses)
            slots[j] = mats[j].grad_coupling       # derivative on the trial slot
            slots[i] = mats[i].grad_coupling.T     # derivative on the test slot
            total = total + form.coupling[i, j] * quarter * kron_chain(slots)
    return total


def dense_functional_vector(functional: Functional) -> np.ndarray:
    """Functional applied to every tensor-product basis function: sum_c w_c kron_k F_k[:, c]."""
    columns = reduce(lambda a, f: (a[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1]),
                     functional.factors)
    return columns @ functional.weights


def exact_dual_norms(form: EnergyForm, mats, functionals) -> list:
    """Dual norms of functionals via their dense Riesz representers.

    Solves a(zeta, .) = f(.) on the full tensor grid for each functional,
    assembling and factoring the form once; refused above DENSE_MAX_DOF total
    degrees of freedom.
    """
    total_dof = int(np.prod([m.ndof for m in mats]))
    if total_dof > DENSE_MAX_DOF:
        raise ValueError(f"dense dual norm needs {total_dof} dof, budget is {DENSE_MAX_DOF}")
    a_full = assemble_dense(form, mats)
    factor = cho_factor(a_full)
    norms = []
    for functional in functionals:
        fvec = dense_functional_vector(functional)
        zeta = cho_solve(factor, fvec)
        norms.append(float(np.sqrt(max(zeta @ fvec, 0.0))))
    return norms
