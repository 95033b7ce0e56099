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
columns into a tensor train before it squares anything, so an error that
cancels has no floor.  One pass from factor N to 1 builds the train, and
the terms that agree left of a factor share its contraction, O(N) of them
for a Rouse coupling; the loops factor their primal stack once and read
each row's error from its leading blocks.

The rank-one subproblem min_u J_f(u) = 1/2 a(u,u) - f(u) is solved by
alternating sweeps: freezing all factors but slot j leaves a small symmetric
positive-definite system in the slot-j coefficients, whose matrix is one
weighted sum of stacked bands, weighted from the form's term table and the
frozen factors' forms, and solved by one lower-band banded Cholesky.
Stationary points satisfy a(r, .) = f(.) against all single-slot
perturbations, which is what the orthogonality and
energy-decrease identities of both greedy loops rely on; global minimality
of a sweep limit is not certifiable and is everywhere treated as such.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpbsv, dtbtrs

from .fem import FORM_ROW, GRAD, GRAD_T, MASS, STIFFNESS, band_matmul

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

    Term table of terms (operator_terms): coefs[t] = coef_t, and slot_rows[j] holds
    (coef_t, ((k, FORM_ROW[op_{t,k}]) for k != j)) per term t, in Python floats and
    ints: where slot j's Hessian reads the frozen forms, factor k's in row k.  last_slots[t]
    is term t's last non-mass slot (0 for the mass term), where _factored starts it.
    A form compares and hashes by identity.
    """

    coupling: np.ndarray
    wi: float
    c: float
    terms: list = field(init=False, repr=False)
    coefs: np.ndarray = field(init=False, repr=False)
    slot_rows: tuple = field(init=False, repr=False)
    last_slots: tuple = field(init=False, repr=False)

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
        object.__setattr__(self, "slot_rows", tuple(
            tuple((float(coef), tuple((k, FORM_ROW[op]) for k, op in enumerate(ops) if k != j))
                  for coef, ops in terms) for j in range(self.n_factors)))
        object.__setattr__(self, "last_slots", tuple(
            max((k for k, op in enumerate(ops) if op != MASS), default=0) for _, ops in terms))

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
    coefs, slot_ops = zip(*op_terms)
    factors = []
    for m, u, names in zip(mats, f.factors, zip(*slot_ops)):
        applied = {name: m.apply(name, u) for name in set(names)}
        factors.append(np.concatenate([applied[name] for name in names], axis=1))
    return Functional(np.outer(coefs, f.weights).ravel(), factors)


def energy_rank1(form: EnergyForm, mats, u: SeparatedFunction, v: SeparatedFunction) -> float:
    """a(u, v) for rank-1 u (trial) and v (test)."""
    _check_sizes(form, mats, u, v)
    return _applied(form.terms, mats, u).value(v)


def _factored(form: EnergyForm, mats, factors) -> tuple:
    """(R_1, L, Q_1'op Q_1 and its environment per factor-1 op), in one pass from factor N to 1.
    U_k = Q_k R_k, Q_k mass-orthonormal: one QR of C_k U_k (M_k = C_k'C_k, the mass_factor),
    rows sorted by decreasing max-norm to be row-wise stable (Cox and Higham, BIT 38, 1998),
    Q'op Q by einsum (no BLAS thread split).  The train is right-orthonormal (Oseledets, SIAM J.
    Sci. Comput. 33, 2011): core k is the Q of a QR of the columns R_k[:, a] (x) L[a, :], L the
    previous triangle transposed.  Mass is the identity on those cores, so a term enters as
    coef I at its last non-mass slot, and the environments of terms that agree left of core k
    are summed before it.  Householder QRs keep prefixes: leading columns, blocks."""
    lead, envs = np.ones((factors[0].shape[1], 1)), {}  # envs right of factor k, by ops[:k + 1]
    for k, m in reversed(list(enumerate(mats))):
        a = band_matmul(m.mass_factor, None, factors[k])
        order = np.argsort(-np.abs(a).max(axis=1, initial=0.0), kind="stable")
        q, r = np.linalg.qr(a[order])
        q[order] = q.copy()  # undo the row sort
        q, _ = dtbtrs(m.mass_factor, q, uplo="L", trans="T")
        kq, gq = (np.einsum("ki,kj->ij", q, m.apply(op, q)) for op in (STIFFNESS, GRAD))
        proj = {MASS: np.eye(len(r)), STIFFNESS: kq, GRAD: gq, GRAD_T: gq.T}
        for (coef, ops), last in zip(form.terms, form.last_slots):
            if last == k:
                envs[ops[:k + 1]] = envs.get(ops[:k + 1], 0.0) + coef * np.eye(lead.shape[1])
        if k == 0:
            return r, lead, np.array([proj[ops[0]] for ops in envs]), np.array(list(envs.values()))
        q, t = np.linalg.qr((lead[:, :, None] * r.T[:, None, :]).reshape(len(lead), -1).T)
        core = q.reshape(lead.shape[1], len(r), len(t)).transpose(0, 2, 1)  # [right, left, k]
        lead, contracted = t.T, {}
        for ops, env in envs.items():
            # batched gemms of at most R^3 flops each, which OpenBLAS runs unsplit up to R = 64
            x = env.T @ (core @ proj[ops[k]].T).transpose(1, 0, 2)
            x = (x.transpose(1, 0, 2) @ core.transpose(0, 2, 1)).sum(axis=0)
            contracted[ops[:k]] = contracted.get(ops[:k], 0.0) + x
        envs = contracted


def energy_norm(form: EnergyForm, mats, f: SeparatedFunction, bases=None) -> float:
    """||f||_a with no floor: the columns cancel in the train's centre Z = R_1 diag(w) L
    (_factored) before anything is squared, and ||f||_a^2 sums <Z, Q_1'op Q_1 Z E> over the
    factor-1 operators op, E op's environment.  bases (_factored, the loops') may factor a
    longer stack whose leading columns are f's; by default f's own columns are factored."""
    _check_sizes(form, mats, f)
    p = f.rank
    if p == 0:
        return 0.0  # the empty sum: dtbtrs takes no empty stack
    first, lead, projs, envs = bases or _factored(form, mats, f.factors)
    z = (first[:p, :p] * f.weights) @ lead[:p, :p]
    r, m = z.shape
    total = np.einsum("ij,kij->", z, projs[:, :r, :r] @ z @ envs[:, :m, :m])
    return math.sqrt(max(float(total), 0.0))


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
        """prod_{k != skip} F_k^T V_k, one row per dual column; V_k a vector or a stack.

        The product starts at the first factor, not at 1.0 (1.0 x is exact),
        and is 1.0 when no factor is left."""
        product = None
        for k, (f, v) in enumerate(zip(self.factors, test)):
            if k != skip:
                row = f.T @ v
                product = row if product is None else product * row
        return 1.0 if product is None else product

    def values(self, test: SeparatedFunction) -> np.ndarray:
        """f at each column of a separated test function."""
        return self.weights @ self._products(test.factors)

    def value(self, v: SeparatedFunction) -> float:
        """f(v) for a rank-1 v."""
        return float(self.weights @ self._products(_vectors(v)))

    def slot_vector(self, frozen: list, j: int) -> np.ndarray:
        """Vector b with f(frozen but slot j -> y) = y . b; frozen holds one vector per factor."""
        return self.factors[j] @ (self.weights * self._products(frozen, skip=j))


def _slot_hessian(form: EnergyForm, forms, stack: np.ndarray, j: int) -> np.ndarray:
    """Band of the Hessian of u -> a(term with slot j -> u, same) over slot-j coefficients.

    Operator term t contributes coef_t prod_{k != j} (f_k . op_{t,k} f_k) op_{t,j};
    row k of forms (N x 3, nested lists or an array) holds the quad_forms of the
    frozen f_k (row j is not read), and stack holds slot j's bands of op_{t,j}
    over t.  Products run over k and the sum over t in order: the roundings of
    a Python loop over the terms.  The band comes in the stack's layout and
    memory order: from als_rank1's stack of FactorMatrices.bands, held column
    by column, the Fortran-order lower band that _slot_solve factors in place.
    """
    scale = []
    for coef, rows in form.slot_rows[j]:
        product = 1.0  # 1.0 x is exact
        for k, i in rows:
            product *= forms[k][i]
        scale.append(coef * product)
    return np.einsum("t,tij->ij", scale, stack)


def _slot_solve(band: np.ndarray, b: np.ndarray, j: int):
    """Minimizer u of 1/2 u.Hu - b.u and the minimum J = -1/2 b.u, for H given
    by its lower band in the LAPACK dpbtrf lower-band layout.

    One lower-band dpbsv, banded Cholesky and both substitutions, with no
    finiteness check on the way in: a NaN or inf in the band or in b passes
    through LAPACK, and since b.u is finite only when b and u both are, the
    check on J catches it.  A Fortran-order band, as _slot_hessian returns
    on als_rank1's stack, is overwritten by its factor; any other is copied
    first.  Raises AlsError when H is not positive definite or J is not
    finite.
    """
    _, u, info = dpbsv(band, b, lower=1, overwrite_ab=1)
    if info != 0:
        raise AlsError(f"slot {j} system not positive definite: "
                       f"leading minor of order {info} is not positive")
    j_val = -0.5 * float(b @ u)
    if not math.isfinite(j_val):
        raise AlsError(f"slot {j} solve is not finite: J = {j_val!r}")
    return u, j_val


def als_rank1(form: EnergyForm, mats, rhs: Functional, init: SeparatedFunction,
              tol: float = 1e-10, max_sweeps: int = 60):
    """Alternating minimization of J(u) = 1/2 a(u,u) - rhs(u) over rank-one u.

    Each slot solve is a symmetric positive-definite banded system in the
    LAPACK lower-band layout, solved by one banded Cholesky dpbsv in O(ndof)
    (_slot_solve).  Sweeps stop once |J_prev - J| <= tol (1 + |J|) between
    the J of consecutive sweeps, a test that is absolute once |J| << 1, or
    after max_sweeps, which is logged at INFO.  Returns (term, J) with the
    term a rank-1 form, normalized so factors 1..N-1 have unit mass norm.

    Raises AlsError on a slot system that is not positive definite, a slot
    solve that is not finite (a NaN or inf in rhs or in the factor
    matrices) or an increasing J (restart with a different init),
    NullTermError when a slot minimizer collapses below mass norm 1e-14
    (residual orthogonal to the rank-one set, as is an empty rhs).
    """
    _check_sizes(form, mats, init)
    r = _vectors(init)
    forms = np.array([m.quad_forms(f) for m, f in zip(mats, r)])
    norms = np.sqrt(np.maximum(forms[:, FORM_ROW[MASS]], 0.0))
    if norms.min() < _NULL_MASS_NORM:
        raise ValueError(f"init factor {norms.argmin()} is zero")
    # the forms of the iterate's factors and their mass norms, as Python floats
    # since the sweeps read them one at a time; each slot solve replaces its
    # own factor's
    forms, norms = forms.tolist(), norms.tolist()
    mass = FORM_ROW[MASS]
    # per slot: j, the quad_forms of its basis, and its operators op_{t,j} over
    # the terms as one stack of their bands, each held column by column so
    # that _slot_hessian's einsum, which keeps the memory order, returns the
    # Fortran-order band that dpbsv factors in place
    slots = [(j, m.quad_forms,
              np.array([m.bands[name].T for name in names]).transpose(0, 2, 1))
             for j, (m, names) in enumerate(zip(mats, zip(*(ops for _, ops in form.terms))))]
    slot_vector = rhs.slot_vector
    j_prev = j_val = change = math.inf
    for sweep in range(max_sweeps):
        for j, quad_forms, stack in slots:
            u, j_val = _slot_solve(_slot_hessian(form, forms, stack, j), slot_vector(r, j), j)
            # the forms of u give its mass norm and serve the next slots' Hessians
            q = forms[j] = quad_forms(u).tolist()
            nu = norms[j] = math.sqrt(max(q[mass], 0.0))
            if nu < _NULL_MASS_NORM:
                raise NullTermError("residual orthogonal to rank-one set")
            r[j] = u
        # every factor was solved in this sweep, so norms are those of r; the
        # forms are quadratic, so each row scales by the square of the factor
        # _normalized applies to its factor
        r = _normalized(r, norms)
        squares = [nu * nu for nu in norms[:-1]]
        forms[:-1] = [[x / s for x in q] for q, s in zip(forms, squares)]
        product = math.prod(squares)
        forms[-1] = [x * product for x in forms[-1]]
        if j_val > j_prev + 1e-12 * (1.0 + abs(j_prev)):
            raise AlsError(f"J increased across sweep {sweep}: {j_prev!r} -> {j_val!r}")
        change = abs(j_prev - j_val)
        if change <= tol * (1.0 + abs(j_val)):
            break
        j_prev = j_val
    else:
        logger.info("ALS reached max_sweeps = %d: last |dJ| = %.3e against tol = %.3e",
                    max_sweeps, change, tol)
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
    row_weights = []  # the weights after each row's update, for its error
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
        row_weights.append(weights)
        trace.rows.append(TraceRow(n=n, err_energy=float("nan"), term_norm_a=norm_n,
                                   ortho_defect=float(residual.value(term)),
                                   surrogate=float(surrogate), alpha=alpha_out,
                                   gram_cond=gram_cond))
    if target is not None and trace.rows:
        # tau - u_n re-weights the leading n_target + n columns: one factorisation serves all
        bases = _factored(form, mats, primal)
        trace.rows = [replace(row, err_energy=energy_norm(form, mats, SeparatedFunction(
            np.concatenate([target.weights, -w]), [u[:, :n_target + row.n] for u in primal]),
            bases)) for row, w in zip(trace.rows, row_weights)]
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
