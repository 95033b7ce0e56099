"""Energy form on separated functions and the greedy rank-one solvers.

Everything is posed in the u = psi/M representation, so the bilinear form on
an N-fold product domain is

    a(u, v) = sum_ij (A_ij / 4 wi) int M du/dq_j dv/dq_i + c int M u v

with A the symmetric positive-definite coupling matrix.  The form is a short
sum of Kronecker products of per-factor matrices; operator_terms is the one
place it is expanded, and every pairing, slot vector and slot Hessian is a
contraction of those terms over per-factor stacks of rank-one factors.  A
greedy iterate is a list of (weight, rank-one term) pairs and its residual
is the right-hand side minus the matching energy pairings, so it stays
low-rank.  assemble_dense expands the form by hand on purpose: it is the
independent Kronecker oracle for small grids.

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
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, solve

from .fem import FactorMatrices

logger = logging.getLogger(__name__)

# factor mass norms below this declare a rank-one term null
_NULL_MASS_NORM = 1e-14
# Gram condition number beyond which the captured dictionary is re-orthogonalized
_GRAM_COND_LIMIT = 1e12
# largest total tensor-grid size for which exact_dual_norms assembles the dense form
DENSE_MAX_DOF = 10_000

ENERGY = "energy"
SOURCE = "source"

# per-factor operators of an operator term; GRAD_T is the transposed grad_coupling
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


@dataclass
class RankOneTerm:
    """One tensor-product term, one coefficient vector per factor."""

    factors: list

    def copy(self) -> "RankOneTerm":
        return RankOneTerm([np.array(f, dtype=float) for f in self.factors])

    def is_null(self) -> bool:
        return all(np.all(f == 0.0) for f in self.factors)


@dataclass
class SeparatedFunction:
    """Sum of weighted rank-one terms."""

    terms: list = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.terms)


def zero_term(mats) -> RankOneTerm:
    return RankOneTerm([np.zeros(m.ndof) for m in mats])


def mass_norm(mats_k: FactorMatrices, vec: np.ndarray) -> float:
    return float(np.sqrt(max(vec @ mats_k.mass @ vec, 0.0)))


def normalize_term(mats, term: RankOneTerm) -> RankOneTerm:
    """Scale factors 1..N-1 to unit mass norm, folding magnitudes into the last."""
    norms = [mass_norm(m, f) for m, f in zip(mats, term.factors)]
    if min(norms) == 0.0:
        return zero_term(mats)
    out = [f / nu for f, nu in zip(term.factors[:-1], norms[:-1])]
    out.append(term.factors[-1] * float(np.prod(norms[:-1])))
    return RankOneTerm(out)


def _check_sizes(form: EnergyForm, mats, *terms):
    n = form.n_factors
    if len(mats) != n:
        raise ValueError(f"expected {n} factor matrices, got {len(mats)}")
    for t in terms:
        if len(t.factors) != n:
            raise ValueError(f"rank-one term has {len(t.factors)} factors, expected {n}")
        for k, f in enumerate(t.factors):
            if f.shape != (mats[k].ndof,):
                raise ValueError(f"factor {k} has {f.shape[0]} coefficients, "
                                 f"basis has {mats[k].ndof}")


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


def _mass_terms(n: int) -> list:
    """The weighted L2_M pairing as operator terms."""
    return [(1.0, (MASS,) * n)]


def _op(mats_k: FactorMatrices, name: str) -> np.ndarray:
    if name == GRAD_T:
        return mats_k.grad_coupling.T
    return getattr(mats_k, name)


def _stack(mats, terms) -> list:
    """Per-factor ndof x R stacks of the factors of a list of rank-one terms."""
    return [np.array([t.factors[k] for t in terms], dtype=float).reshape(len(terms), m.ndof).T
            for k, m in enumerate(mats)]


def _contract(op_terms, mats, trial, test, skip=None) -> np.ndarray:
    """coef_t prod_{k != skip} V_k^T op_{t,k} U_k, shape (len(op_terms), S, R).

    trial and test are per-factor stacks U_k (ndof x R) and V_k (ndof x S).
    Summed over terms this is the form on every trial/test pair; with a
    skipped slot each entry is the coefficient of op_{t,skip} there.
    """
    pairs = [{} for _ in mats]
    out = np.empty((len(op_terms), test[0].shape[1], trial[0].shape[1]))
    for t, (coef, ops) in enumerate(op_terms):
        prod = np.full(out.shape[1:], coef)
        for k, name in enumerate(ops):
            if k == skip:
                continue
            if name not in pairs[k]:
                pairs[k][name] = (test[k].T @ _op(mats[k], name)) @ trial[k]
            prod = prod * pairs[k][name]
        out[t] = prod
    return out


def energy_rank1(form: EnergyForm, mats, u: RankOneTerm, v: RankOneTerm) -> float:
    """a(u, v) for rank-one u (trial) and v (test)."""
    _check_sizes(form, mats, u, v)
    return float(_contract(form.terms, mats, _stack(mats, [u]), _stack(mats, [v])).sum())


def _pairing(op_terms, mats, f: SeparatedFunction, g: SeparatedFunction) -> float:
    wf = np.array([w for w, _ in f.terms], dtype=float)
    wg = np.array([w for w, _ in g.terms], dtype=float)
    pairs = _contract(op_terms, mats, _stack(mats, [t for _, t in f.terms]),
                      _stack(mats, [t for _, t in g.terms])).sum(axis=0)
    return float(wg @ pairs @ wf)


def energy_pairing(form: EnergyForm, mats, f: SeparatedFunction, g: SeparatedFunction) -> float:
    _check_sizes(form, mats, *(t for _, t in f.terms), *(t for _, t in g.terms))
    return _pairing(form.terms, mats, f, g)


def energy_norm(form: EnergyForm, mats, f: SeparatedFunction) -> float:
    return float(np.sqrt(max(energy_pairing(form, mats, f, f), 0.0)))


def mass_pairing(mats, f: SeparatedFunction, g: SeparatedFunction) -> float:
    return _pairing(_mass_terms(len(mats)), mats, f, g)


@dataclass
class Functional:
    """Bounded functional in separated form: sum of weighted rank-one pairings.

    Each term is (weight, RankOneTerm, kind).  Kind "energy" pairs through
    the bilinear form, f(v) = w a(t, v); kind "source" pairs through the
    weighted mass, f(v) = w (t, v)_{L2_M}.
    """

    terms: list = field(default_factory=list)

    @classmethod
    def from_target(cls, target: SeparatedFunction) -> "Functional":
        """f = a(tau, .) for a known separated target tau."""
        return cls([(w, t, ENERGY) for w, t in target.terms])

    @classmethod
    def from_source(cls, source: SeparatedFunction) -> "Functional":
        """f = (g, .)_{L2_M} for a separated source g."""
        return cls([(w, t, SOURCE) for w, t in source.terms])

    def minus(self, approx: SeparatedFunction) -> "Functional":
        """The residual functional f - a(approx, .)."""
        return Functional(self.terms + [(-float(w), t, ENERGY) for w, t in approx.terms])

    def _by_kind(self, form: EnergyForm, mats):
        """(operator terms, weights, per-factor stacks) for each kind present."""
        groups = {}
        for w, t, kind in self.terms:
            groups.setdefault(kind, []).append((w, t))
        for kind, picked in groups.items():
            op_terms = form.terms if kind == ENERGY else _mass_terms(form.n_factors)
            yield (op_terms, np.array([w for w, _ in picked], dtype=float),
                   _stack(mats, [t for _, t in picked]))

    def value_rank1(self, form: EnergyForm, mats, v: RankOneTerm) -> float:
        test = _stack(mats, [v])
        return float(sum(_contract(op_terms, mats, stack, test).sum(axis=0)[0] @ w
                         for op_terms, w, stack in self._by_kind(form, mats)))

    def slot_vector(self, form: EnergyForm, mats, frozen: RankOneTerm, j: int) -> np.ndarray:
        """Vector b with f(frozen but slot j -> y) = y . b."""
        test = _stack(mats, [frozen])
        b = np.zeros(mats[j].ndof)
        for op_terms, w, stack in self._by_kind(form, mats):
            coeffs = _contract(op_terms, mats, stack, test, skip=j)[:, 0, :]
            for (_, ops), c in zip(op_terms, coeffs):
                b += _op(mats[j], ops[j]) @ (stack[j] @ (c * w))
        return b


def _slot_hessian(form: EnergyForm, mats, frozen: RankOneTerm, j: int) -> np.ndarray:
    """Hessian of u -> a(term with slot j -> u, same) over slot-j coefficients."""
    r = _stack(mats, [frozen])
    coeffs = _contract(form.terms, mats, r, r, skip=j)[:, 0, 0]
    return sum(c * _op(mats[j], ops[j]) for (_, ops), c in zip(form.terms, coeffs))


def als_rank1(form: EnergyForm, mats, rhs: Functional, init: RankOneTerm,
              tol: float = 1e-10, max_sweeps: int = 60):
    """Alternating minimization of J(u) = 1/2 a(u,u) - rhs(u) over rank-one u.

    Each slot solve is a symmetric positive-definite system; sweeps stop when
    the relative change of J drops below tol or max_sweeps is hit.  Returns
    (term, J) with the term normalized so factors 1..N-1 have unit mass norm.

    Raises AlsError on a singular slot system or an increasing J (restart
    with a different init), NullTermError when a slot minimizer collapses
    below mass norm 1e-14 (residual orthogonal to the rank-one set).
    """
    _check_sizes(form, mats, init)
    if not rhs.terms:
        return zero_term(mats), 0.0
    n = form.n_factors
    r = init.copy()
    for k in range(n):
        if mass_norm(mats[k], r.factors[k]) < _NULL_MASS_NORM:
            raise ValueError(f"init factor {k} is zero")
    j_prev = np.inf
    j_val = np.inf
    for sweep in range(max_sweeps):
        for j in range(n):
            h = _slot_hessian(form, mats, r, j)
            b = rhs.slot_vector(form, mats, r, j)
            try:
                u = cho_solve(cho_factor(h), b)
            except np.linalg.LinAlgError as exc:
                raise AlsError(f"slot {j} system not positive definite: {exc}") from exc
            if mass_norm(mats[j], u) < _NULL_MASS_NORM:
                raise NullTermError("residual orthogonal to rank-one set")
            r.factors[j] = u
            # at the fresh slot minimum J = -1/2 b.u
            j_val = -0.5 * float(b @ u)
        r = normalize_term(mats, r)
        if j_val > j_prev + 1e-12 * (1.0 + abs(j_prev)):
            raise AlsError(f"J increased across sweep {sweep}: {j_prev!r} -> {j_val!r}")
        if abs(j_prev - j_val) <= tol * (1.0 + abs(j_val)):
            break
        j_prev = j_val
    return r, float(j_val)


def random_unit_term(mats, rng) -> RankOneTerm:
    """Random start: factor-wise standard normals, unit mass norm each."""
    factors = []
    for m in mats:
        v = rng.standard_normal(m.ndof)
        factors.append(v / mass_norm(m, v))
    return RankOneTerm(factors)


def als_best(form: EnergyForm, mats, rhs: Functional, *, tol: float = 1e-10,
             max_sweeps: int = 60, restarts: int = 1, rng=None):
    """Multi-start ALS, keeping the lowest-J stationary point.

    NullTermError propagates only if every start collapses; a failed start
    (AlsError) is retried from the next random init.
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


def _err_energy(form, mats, target, approx_terms):
    if target is None:
        return float("nan")
    diff = SeparatedFunction(list(target.terms) + [(-w, t) for w, t in approx_terms])
    return energy_norm(form, mats, diff)


def _greedy_loop(form, mats, rhs, tol_stop, n_max, *, als_tol, max_sweeps,
                 restarts, rng, target, orthogonal):
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if rng is None:
        rng = np.random.default_rng(0)
    approx = SeparatedFunction([])
    trace = GreedyTrace()
    residual = rhs
    captured = []  # normalized dictionary terms
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
        if norm_n == 0.0:
            trace.status = "null_term"
            return approx, trace
        if r1_norm is None:
            r1_norm = norm_n
        surrogate = norm_n / r1_norm
        if n > 1 and surrogate < tol_stop:
            # candidate is negligible; do not record it
            trace.status = "converged"
            trace.final_surrogate = surrogate
            return approx, trace
        captured.append(term)
        if orthogonal:
            column = _contract(form.terms, mats, _stack(mats, captured),
                               _stack(mats, [term])).sum(axis=0)[0]
            gram = np.block([[gram, column[:-1, None]], [column]])
            fvec = np.append(fvec, rhs.value_rank1(form, mats, term))
            alpha = _solve_galerkin(gram, fvec)
            approx = SeparatedFunction([(float(a), t) for a, t in zip(alpha, captured)])
            alpha_out = tuple(float(a) for a in alpha)
        else:
            approx.terms.append((1.0, term))
            alpha_out = None
        residual = rhs.minus(approx)
        ortho_defect = residual.value_rank1(form, mats, term)
        trace.rows.append(TraceRow(
            n=n,
            err_energy=_err_energy(form, mats, target, approx.terms),
            term_norm_a=norm_n,
            ortho_defect=float(ortho_defect),
            surrogate=float(surrogate),
            alpha=alpha_out,
        ))
        if surrogate < tol_stop:
            trace.status = "converged"
            trace.final_surrogate = surrogate
            return approx, trace
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
    captured term's relative norm drops below tol_stop, the residual is
    orthogonal to every rank-one candidate, or n_max is reached.
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


def dense_functional_vector(form: EnergyForm, mats, functional: Functional,
                            dense_form: np.ndarray) -> np.ndarray:
    """Functional applied to every tensor-product basis function.

    dense_form is assemble_dense(form, mats), which applies the energy terms.
    """
    out = np.zeros(dense_form.shape[0])
    for w, t, kind in functional.terms:
        vec = reduce(np.kron, t.factors)
        if kind == ENERGY:
            out += w * (dense_form @ vec)
        else:
            out += w * reduce(np.kron, [m.mass @ f for m, f in zip(mats, t.factors)])
    return out


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
        fvec = dense_functional_vector(form, mats, functional, a_full)
        zeta = cho_solve(factor, fvec)
        norms.append(float(np.sqrt(max(zeta @ fvec, 0.0))))
    return norms
