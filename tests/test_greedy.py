"""Energy form, rank-one alternating solver, and greedy drivers."""

import dataclasses
import logging
import math
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded, cholesky_banded, solve
from scipy.linalg.lapack import dpbtrf
from scipy.optimize import minimize

from greedy_ou import greedy
from greedy_ou.fem import (BANDED_MIN_NDOF, FORM_ROW, GRAD, GRAD_T, MASS, STIFFNESS,
                           FactorMatrices, assemble, build_mesh)
from greedy_ou.greedy import (
    AlsError,
    EnergyForm,
    Functional,
    GreedyError,
    NullTermError,
    SeparatedFunction,
    _slot_hessian,
    _slot_solve,
    als_best,
    als_rank1,
    energy_norm,
    energy_rank1,
    random_unit_term,
    rank_one,
    run_oga,
    run_pga,
)
from greedy_ou.springs import CPAIL, FENE, SpringModel, normalize

from dense_oracle import (assemble_dense, dense_dual_norms, dense_functional_vector,
                          dense_vector)

ROUSE2 = np.array([[1.0, -0.5], [-0.5, 1.0]])
EPS = np.finfo(float).eps


def two_factor_mats(n_el=5, degree=1, b=4.0):
    weight = normalize(SpringModel(FENE, b))
    mats = assemble(build_mesh(b, n_el), weight, degree)
    return [mats, mats]


def normalize_term(mats, term):
    """Scale factors 1..N-1 to unit mass norm, folding magnitudes into the last."""
    vectors = greedy._vectors(term)
    norms = [float(np.sqrt(max(m.quad_forms(f)[FORM_ROW[MASS]], 0.0)))
             for m, f in zip(mats, vectors)]
    return rank_one(greedy._normalized(vectors, norms))


def energy_pairing(form, mats, f, g):
    """a(f, g) for separated f (trial) and g (test)."""
    greedy._check_sizes(form, mats, g)
    return float(g.weights @ Functional.from_target(form, mats, f).values(g))


def random_term(mats, rng, normalized=True):
    term = rank_one([rng.standard_normal(m.ndof) for m in mats])
    return normalize_term(mats, term) if normalized else term


def vectors(term):
    """The factor columns of a unit-weight rank-1 form, as 1-D vectors."""
    return [f[:, 0] for f in term.factors]


def separated(pairs):
    """SeparatedFunction from (weight, rank-1 form) pairs, one column per term."""
    weights, terms = zip(*pairs)
    return SeparatedFunction(weights, [np.column_stack(fs)
                                       for fs in zip(*(t.factors for t in terms))])


def random_target(mats, rng, rank):
    return separated([(rng.uniform(0.5, 1.5), random_term(mats, rng)) for _ in range(rank)])


def dense_quad_forms(mats_k, f):
    """f . op f on the dense views, every row of the quad_forms layout filled."""
    forms = np.empty(3)
    for name in (MASS, STIFFNESS, GRAD):
        forms[FORM_ROW[name]] = f @ (getattr(mats_k, name) @ f)
    return forms


def slot_stack(form, mats, j, lower=False):
    """The stack of slot j's operator bands over the terms: their upper bands, or
    their lower-storage copies held column by column, as als_rank1 builds it."""
    names = [ops[j] for _, ops in form.terms]
    if lower:
        return np.array([mats[j].lower_bands[name].T for name in names]).transpose(0, 2, 1)
    return np.stack([mats[j].bands[name] for name in names])


def moved_to_lower(band):
    """An upper band moved into the LAPACK lower-band layout, zeros past the end."""
    p, n = band.shape[0] - 1, band.shape[1]
    lower = np.zeros_like(band)
    for d in range(p + 1):
        lower[d, :n - d] = band[p - d, d:]
    return lower


def dense_slot_hessian(form, mats, frozen, j):
    """Slot-j Hessian at frozen factor vectors as a dense matrix, expanded
    symmetrically from the lower band that _slot_hessian returns on
    als_rank1's stack (LAPACK dpbtrf lower-band layout)."""
    forms = np.array([dense_quad_forms(m, f) for m, f in zip(mats, frozen)])
    band = _slot_hessian(form, forms, slot_stack(form, mats, j, lower=True), j)
    p, n = band.shape[0] - 1, band.shape[1]
    lower = sum(np.diag(band[d, :n - d], -d) for d in range(p + 1))
    return lower + np.tril(lower, -1).T


def kron_vec(term):
    return reduce(np.kron, vectors(term))


def test_energy_forms_compare_and_hash_by_identity():
    # two equal forms hold equal arrays; comparing them must not compare the
    # arrays, and each one can key a dict of per-form results
    a, b = EnergyForm(ROUSE2, wi=1.0, c=1.0), EnergyForm(ROUSE2, wi=1.0, c=1.0)
    assert np.array_equal(a.coupling, b.coupling)
    assert a != b and a == a
    assert len({a: 0, b: 1}) == 2


def test_energy_form_validation():
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    assert form.lambda_min == pytest.approx(0.5)
    assert form.coercivity == pytest.approx(0.125)
    assert form.continuity == pytest.approx(1.0)
    with pytest.raises(ValueError, match="symmetric"):
        EnergyForm(np.array([[1.0, 0.2], [0.0, 1.0]]), 1.0, 1.0)
    with pytest.raises(ValueError, match="-1.0"):
        EnergyForm(np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0, 1.0)
    with pytest.raises(ValueError, match="wi"):
        EnergyForm(ROUSE2, 0.0, 1.0)
    with pytest.raises(ValueError, match="square"):
        EnergyForm(np.ones((2, 3)), 1.0, 1.0)


def test_energy_constant_rank_one():
    mats = two_factor_mats()
    form = EnergyForm(np.eye(2), wi=2.0, c=1.0)
    const = normalize_term(mats, rank_one([np.ones(m.ndof) for m in mats]))
    # stiffness terms vanish on constants; mass product is 1 after normalization
    assert energy_rank1(form, mats, const, const) == pytest.approx(1.0, rel=1e-12)


def test_energy_identity_coupling_has_no_cross_terms():
    mats = two_factor_mats()
    form = EnergyForm(np.eye(2), wi=0.7, c=1.3)
    rng = np.random.default_rng(1)
    u, v = random_term(mats, rng), random_term(mats, rng)
    us, vs = vectors(u), vectors(v)
    m = [vs[k] @ mats[k].mass @ us[k] for k in range(2)]
    s = [vs[k] @ mats[k].stiffness @ us[k] for k in range(2)]
    expected = 1.3 * m[0] * m[1] + (s[0] * m[1] + m[0] * s[1]) / (4 * 0.7)
    assert energy_rank1(form, mats, u, v) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n_factors", [2, 3])
def test_energy_matches_dense_kronecker(n_factors):
    rng = np.random.default_rng(2)
    weight = normalize(SpringModel(FENE, 4.0))
    one = assemble(build_mesh(4.0, 5 if n_factors == 2 else 4), weight, 1)
    mats = [one] * n_factors
    coupling = np.eye(n_factors) - 0.5 * (np.eye(n_factors, k=1) + np.eye(n_factors, k=-1))
    form = EnergyForm(coupling, wi=1.1, c=0.9)
    a_full = assemble_dense(form, mats)
    assert np.allclose(a_full, a_full.T, atol=1e-13)
    for _ in range(5):
        u, v = random_term(mats, rng), random_term(mats, rng)
        dense = kron_vec(v) @ a_full @ kron_vec(u)
        assert energy_rank1(form, mats, u, v) == pytest.approx(dense, rel=1e-12)


def test_energy_dimension_mismatch():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(3)
    u = random_term(mats, rng)
    with pytest.raises(ValueError, match="factors"):
        energy_rank1(form, mats, SeparatedFunction(u.weights, u.factors[:1]), u)
    with pytest.raises(ValueError, match="coefficients"):
        energy_rank1(form, mats, rank_one([vectors(u)[0][:-1], vectors(u)[1]]), u)
    f = random_target(mats, rng, 2)
    with pytest.raises(ValueError, match="factors"):
        energy_pairing(form, mats, SeparatedFunction(f.weights, f.factors[:1]), f)
    with pytest.raises(ValueError, match="coefficients"):
        Functional.from_target(form, mats, SeparatedFunction(
            f.weights, [f.factors[0][:-1], f.factors[1]]))
    with pytest.raises(ValueError, match="columns"):
        energy_pairing(form, mats, f, SeparatedFunction(f.weights[:1], f.factors))
    with pytest.raises(ValueError, match="rank-1"):
        energy_rank1(form, mats, u, f)


def test_slot_hessian_matches_energy():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=0.8, c=1.2)
    rng = np.random.default_rng(4)
    frozen = vectors(random_term(mats, rng))
    for j in range(2):
        h = dense_slot_hessian(form, mats, frozen, j)
        for _ in range(4):
            x = rng.standard_normal(mats[j].ndof)
            repl = list(frozen)
            repl[j] = x
            repl = rank_one(repl)
            assert x @ h @ x == pytest.approx(energy_rank1(form, mats, repl, repl), rel=1e-12)


def test_slot_vector_matches_functional_value():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=0.8, c=1.2)
    rng = np.random.default_rng(5)
    rhs = (Functional.from_target(form, mats, random_target(mats, rng, 2))
           + Functional.from_source(mats, random_target(mats, rng, 1)))
    frozen = vectors(random_term(mats, rng))
    for j in range(2):
        b = rhs.slot_vector(frozen, j)
        for _ in range(4):
            y = rng.standard_normal(mats[j].ndof)
            repl = list(frozen)
            repl[j] = y
            assert y @ b == pytest.approx(rhs.value(rank_one(repl)), rel=1e-12)


def test_als_recovers_rank_one_target():
    mats = two_factor_mats(n_el=6, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(6)
    tau_term = random_term(mats, rng)
    tau = separated([(1.0, tau_term)])
    rhs = Functional.from_target(form, mats, tau)
    term, j_val = als_rank1(form, mats, rhs, random_unit_term(mats, rng), tol=1e-12)
    a_tau = energy_rank1(form, mats, tau_term, tau_term)
    assert j_val == pytest.approx(-0.5 * a_tau, rel=1e-9)
    diff = separated([(1.0, tau_term), (-1.0, term)])
    assert energy_norm(form, mats, diff) <= 1e-6 * np.sqrt(a_tau)


def test_als_empty_rhs_raises_null_term():
    # b = 0 in every slot solve, so the first slot minimizer is zero
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    empty = Functional(np.zeros(0), [np.zeros((m.ndof, 0)) for m in mats])
    with pytest.raises(NullTermError):
        als_rank1(form, mats, empty, random_unit_term(mats, np.random.default_rng(0)))


def test_als_rejects_zero_init():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rhs = Functional.from_target(form, mats, random_target(mats, np.random.default_rng(7), 1))
    with pytest.raises(ValueError, match="init factor"):
        als_rank1(form, mats, rhs, rank_one([np.zeros(m.ndof) for m in mats]))


def test_rank_one_terms_have_unit_weight():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(7)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    init = random_unit_term(mats, rng)
    term, _ = als_rank1(form, mats, rhs, init)
    raw = rank_one([rng.standard_normal(m.ndof) for m in mats])
    for t in (init, term, normalize_term(mats, raw)):
        assert t.rank == 1 and t.weights.tolist() == [1.0]
        assert [f.shape for f in t.factors] == [(m.ndof, 1) for m in mats]


def test_als_cancelling_rhs_is_null():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(8)
    t = random_term(mats, rng)
    applied = Functional.from_target(form, mats, separated([(1.0, t)]))
    rhs = applied - Functional.from_target(form, mats, separated([(1.0, t)]))
    with pytest.raises(NullTermError):
        als_best(form, mats, rhs, restarts=3, rng=rng)


def test_als_best_null_start_outranks_failed_start(monkeypatch):
    # one start collapses and the next fails: the residual is reported null
    errors = iter([NullTermError("null"), AlsError("failed")])

    def als_rank1_stub(*args, **kwargs):
        raise next(errors)

    monkeypatch.setattr(greedy, "als_rank1", als_rank1_stub)
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rhs = Functional.from_target(form, mats, random_target(mats, np.random.default_rng(8), 1))
    with pytest.raises(NullTermError):
        als_best(form, mats, rhs, restarts=2)


def test_als_stationarity_residual():
    # each slot gradient H_j r_j - b_j vanishes at the sweep limit;
    # tol=0 iterates until J stalls in floating point
    mats = two_factor_mats(n_el=6, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(9)
    target = random_target(mats, rng, 3)
    scale = energy_norm(form, mats, target)
    target = SeparatedFunction(target.weights / scale, target.factors)
    rhs = Functional.from_target(form, mats, target)
    term, _ = als_rank1(form, mats, rhs, random_unit_term(mats, rng), tol=0.0, max_sweeps=300)
    vs = vectors(term)
    for j in range(2):
        grad = dense_slot_hessian(form, mats, vs, j) @ vs[j] - rhs.slot_vector(vs, j)
        assert np.abs(grad).max() <= 1e-8


def test_indefinite_slot_system_is_an_als_error():
    base = two_factor_mats()[0]
    bad = dataclasses.replace(base, bands={**base.bands, "stiffness": -base.bands["stiffness"]})
    mats = [bad, bad]
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(12)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 1))
    with pytest.raises(AlsError, match="slot 0 system not positive definite"):
        als_rank1(form, mats, rhs, random_unit_term(mats, rng))
    with pytest.raises(AlsError, match="all ALS starts failed"):
        als_best(form, mats, rhs, restarts=2, rng=rng)


def test_rising_j_is_an_als_error(monkeypatch):
    # each slot solve reports its J raised by 10 per solve so far, so J rises
    # across every sweep; the first sweep only sets the reference J, and the
    # second one trips the check
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(13)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    slot_solve, calls = greedy._slot_solve, []

    def rising(band, b, j):
        u, j_val = slot_solve(band, b, j)
        calls.append(j)
        return u, j_val + 10.0 * len(calls)

    monkeypatch.setattr(greedy, "_slot_solve", rising)
    with pytest.raises(AlsError, match=r"^J increased across sweep 1: "):
        als_rank1(form, mats, rhs, random_unit_term(mats, rng))
    assert calls == [0, 1, 0, 1]
    with pytest.raises(AlsError, match=r"^all ALS starts failed: J increased across sweep 1: "
                                       r".*; J increased across sweep 1: .*; J increased "
                                       r"across sweep 1: [^;]*$"):
        als_best(form, mats, rhs, restarts=3, rng=rng)


def test_als_at_max_sweeps_logs_its_last_change(caplog):
    # a start cut at max_sweeps returns its last iterate as a stopped one does,
    # and logs one INFO record with the last |dJ|; a start that stops logs none
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(14)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    init = random_unit_term(mats, rng)
    with caplog.at_level(logging.INFO, logger="greedy_ou.greedy"):
        _, j_one = als_rank1(form, mats, rhs, init, tol=1e-10, max_sweeps=1)
        [record] = caplog.records
        assert (record.name, record.levelno) == ("greedy_ou.greedy", logging.INFO)
        # the first sweep's change is from J = inf
        assert record.getMessage() == ("ALS reached max_sweeps = 1: last |dJ| = inf "
                                       "against tol = 1.000e-10")
        caplog.clear()
        _, j_two = als_rank1(form, mats, rhs, init, tol=1e-10, max_sweeps=2)
        [record] = caplog.records
        assert record.getMessage() == (f"ALS reached max_sweeps = 2: last |dJ| = "
                                       f"{abs(j_one - j_two):.3e} against tol = 1.000e-10")
        caplog.clear()
        _, j_val = als_rank1(form, mats, rhs, init, tol=1e-10, max_sweeps=300)
        assert caplog.records == []
    assert j_val <= j_two <= j_one


@pytest.mark.parametrize("degree", [1, 2])
def test_slot_solve_is_bitwise_scipy_banded_cholesky(degree):
    # the same LAPACK routines on the same band that scipy's wrappers call;
    # _slot_solve factors its band in place, so scipy's get a copy
    mats = two_factor_mats(n_el=40 // degree, degree=degree)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(13)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 3))
    frozen = vectors(random_unit_term(mats, rng))
    forms = np.array([m.quad_forms(f) for m, f in zip(mats, frozen)])
    for j in range(2):
        band = _slot_hessian(form, forms, slot_stack(form, mats, j, lower=True), j)
        copy = band.copy()
        b = rhs.slot_vector(frozen, j)
        u, j_val = _slot_solve(band, b, j)
        factor = cholesky_banded(copy, lower=True)
        expected = cho_solve_banded((factor, True), b)
        assert np.array_equal(band, factor)  # factored in place: no copy on the way in
        assert np.array_equal(u, expected)
        assert j_val == -0.5 * float(b @ expected)


def alternating_problem(n, degree, coupling, rng):
    """Energy form and N factors alternating FENE b=4 and CPAIL b=6 bases, with a
    Rouse coupling or a full one (every off-diagonal entry nonzero, drawn from rng)."""
    bases = [assemble(build_mesh(4.0, 5), normalize(SpringModel(FENE, 4.0)), degree),
             assemble(build_mesh(6.0, 7), normalize(SpringModel(CPAIL, 6.0)), degree)]
    mats = [bases[k % 2] for k in range(n)]
    if coupling == "rouse":
        a = np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    else:  # diagonally dominant
        off = np.triu(rng.uniform(0.05, 0.3, (n, n)) * rng.choice([-1.0, 1.0], (n, n)), 1)
        a = np.eye(n) + off + off.T
        assert np.all(a != 0.0)
    return EnergyForm(a, wi=0.7, c=1.3), mats


@pytest.mark.parametrize("coupling", ["rouse", "full"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])  # N = 1: every product is empty
def test_slot_hessian_is_bitwise_the_per_term_sum(n, degree, coupling):
    # the term table and the einsum over the band stack round exactly as a
    # Python loop over the terms does: products over k in order, terms in order
    rng = np.random.default_rng(100 * n + 10 * degree + len(coupling))
    form, mats = alternating_problem(n, degree, coupling, rng)
    for _ in range(5):
        frozen = [10.0 ** rng.uniform(-3, 3) * rng.standard_normal(m.ndof) for m in mats]
        forms = np.array([m.quad_forms(f) for m, f in zip(mats, frozen)])
        for j in range(n):
            want = sum(coef * math.prod(forms[k, FORM_ROW[ops[k]]] for k in range(n) if k != j)
                       * mats[j].bands[ops[j]] for coef, ops in form.terms)
            got = _slot_hessian(form, forms, slot_stack(form, mats, j), j)
            assert np.array_equal(got, want), (j, np.abs(got - want).max())


@pytest.mark.parametrize("coupling", ["rouse", "full"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lower_slot_hessian_and_factor_are_the_upper_ones_moved(n, degree, coupling):
    # on als_rank1's lower-storage stack each Hessian entry is the upper
    # stack's sum, moved, and the lower-band Cholesky factor is the upper
    # one's transpose, so a lower-band slot solve differs from an upper-band
    # one only in the order of its two substitutions
    rng = np.random.default_rng(300 * n + 10 * degree + len(coupling))
    form, mats = alternating_problem(n, degree, coupling, rng)
    for _ in range(5):
        frozen = [10.0 ** rng.uniform(-3, 3) * rng.standard_normal(m.ndof) for m in mats]
        forms = np.array([m.quad_forms(f) for m, f in zip(mats, frozen)])
        for j in range(n):
            upper = _slot_hessian(form, forms, slot_stack(form, mats, j), j)
            lower = _slot_hessian(form, forms, slot_stack(form, mats, j, lower=True), j)
            assert np.array_equal(lower, moved_to_lower(upper)), j
            upper_factor, upper_info = dpbtrf(upper)
            lower_factor, lower_info = dpbtrf(lower, lower=1)
            assert upper_info == lower_info == 0
            assert np.array_equal(lower_factor, moved_to_lower(upper_factor)), j


def reference_als_rank1(form, mats, rhs, init, tol=1e-10, max_sweeps=60):
    """als_rank1 with its norms as numpy scalars and arrays, and the slot
    vector's product over factors started at 1.0: the arithmetic als_rank1
    must keep bit for bit."""
    def slot_vector(frozen, j):
        rows = [f.T @ v for k, (f, v) in enumerate(zip(rhs.factors, frozen)) if k != j]
        products = reduce(np.multiply, rows, 1.0)
        return rhs.factors[j] @ (rhs.weights * products)

    n = form.n_factors
    r = greedy._vectors(init)
    forms = np.array([m.quad_forms(f) for m, f in zip(mats, r)])
    norms = np.sqrt(np.maximum(forms[:, FORM_ROW[MASS]], 0.0))
    stacks = [slot_stack(form, mats, j, lower=True) for j in range(n)]
    j_prev = j_val = np.inf
    for sweep in range(max_sweeps):
        for j in range(n):
            u, j_val = _slot_solve(_slot_hessian(form, forms, stacks[j], j),
                                   slot_vector(r, j), j)
            forms[j] = mats[j].quad_forms(u)
            norms[j] = float(np.sqrt(max(forms[j, FORM_ROW[MASS]], 0.0)))
            if norms[j] < greedy._NULL_MASS_NORM:
                raise NullTermError("residual orthogonal to rank-one set")
            r[j] = u
        r = greedy._normalized(r, norms)
        squares = np.square(norms[:-1])
        forms[:-1] /= squares[:, None]
        forms[-1] *= math.prod(squares)
        if j_val > j_prev + 1e-12 * (1.0 + abs(j_prev)):
            raise AlsError(f"J increased across sweep {sweep}: {j_prev!r} -> {j_val!r}")
        if abs(j_prev - j_val) <= tol * (1.0 + abs(j_val)):
            break
        j_prev = j_val
    return rank_one(r), float(j_val)


@pytest.mark.parametrize("coupling", ["rouse", "full"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])  # N = 1: the slot vector's product is empty
def test_als_is_bitwise_the_numpy_scalar_reference(n, degree, coupling):
    # norms and rescaling in Python floats, and products started at their
    # first factor, round exactly as numpy scalars and a 1.0 start do
    rng = np.random.default_rng(200 * n + 10 * degree + len(coupling))
    form, mats = alternating_problem(n, degree, coupling, rng)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 3))
    for _ in range(3):
        init = random_unit_term(mats, rng)
        term, j_val = als_rank1(form, mats, rhs, init)
        want, want_j = reference_als_rank1(form, mats, rhs, init)
        assert term.weights.tobytes() == want.weights.tobytes()
        assert [f.tobytes() for f in term.factors] == [f.tobytes() for f in want.factors]
        assert j_val == want_j


@pytest.mark.parametrize("n_el", [60, 120], ids=["below-crossover", "above-crossover"])
@pytest.mark.parametrize("degree", [1, 2])
def test_band_quad_forms_match_dense_oracle(degree, n_el):
    mats = two_factor_mats(n_el=n_el // degree, degree=degree)
    m, n, p = mats[0], mats[0].ndof, degree
    rng = np.random.default_rng(15)
    assert FORM_ROW[GRAD] == FORM_ROW[GRAD_T]  # one form for G and its transpose
    for f in (rng.standard_normal(n), np.ones(n), np.linspace(-1.0, 1.0, n)):
        forms = m.quad_forms(f)
        assert forms.shape == (3,)
        for name in (MASS, STIFFNESS, GRAD, GRAD_T):
            value = f @ (getattr(m, name) @ f)
            # dense: 2p + 1 then n terms deep; bands: one product, then (p + 1) n terms
            # deep, with the symmetric part of G rounded once
            tol = ((p + 2) * n + 2 * p + 4) * EPS * (np.abs(f) @ np.abs(getattr(m, name))
                                                     @ np.abs(f))
            assert abs(forms[FORM_ROW[name]] - value) <= tol, name


def slice_loop_quad_forms(m, f):
    """quad_forms with its shifted products f_i f_(i+d) written one diagonal at a time."""
    p, n = m.degree, m.ndof
    shifted = np.zeros((p + 1, n))
    for d in range(p + 1):
        shifted[p - d, d:] = f[:n - d] * f[d:]
    return m._form_stack @ shifted.reshape(-1)


@pytest.mark.parametrize("degree", [1, 2])
def test_quad_forms_gather_is_bitwise_the_slice_loop(degree):
    # the gather reads the same products into the same layout, so the gemv
    # sees the same operands; bands with the unused corner zeroed, as assemble
    # leaves them, from the smallest basis of one element up
    p = degree
    rng = np.random.default_rng(33)
    for n in list(range(p + 1, p + 10)) + [41, 201]:
        bands = {}
        for name in (MASS, STIFFNESS, GRAD, GRAD_T):
            bands[name] = rng.standard_normal((p + 1, n))
            for d in range(1, p + 1):
                bands[name][p - d, :d] = 0.0
        m = FactorMatrices(bands=bands, mesh=None, degree=p, weight=None)
        for _ in range(5):
            f = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
            assert m.quad_forms(f).tobytes() == slice_loop_quad_forms(m, f).tobytes()
    mats = two_factor_mats(n_el=8, degree=degree)[0]
    f = rng.standard_normal(mats.ndof)
    assert mats.quad_forms(f).tobytes() == slice_loop_quad_forms(mats, f).tobytes()


def test_pga_above_the_crossover_builds_no_dense_view():
    mats = two_factor_mats(n_el=100, degree=2)  # one basis of 201 dofs for both factors
    assert mats[0].ndof >= BANDED_MIN_NDOF
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(16)
    target = random_target(mats, rng, 2)
    _, trace = run_pga(form, mats, Functional.from_target(form, mats, target), n_max=3,
                       rng=rng, target=target)
    assert len(trace.rows) == 3
    assert not {"mass", "stiffness", "grad_coupling"} & set(vars(mats[0]))


def test_nan_in_rhs_is_an_als_error():
    # LAPACK passes a NaN through, and every test on the NaN J it gives is
    # False, so without the check on J the sweeps would return a NaN term
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(14)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    factors = [f.copy() for f in rhs.factors]
    factors[1][2, 1] = np.nan
    rhs = Functional(rhs.weights, factors)
    with pytest.raises(AlsError, match="^slot 0 solve is not finite: J = nan$"):
        als_rank1(form, mats, rhs, random_unit_term(mats, rng))
    with pytest.raises(GreedyError, match=r"^iteration 1: all ALS starts failed: "
                                          r"slot 0 solve is not finite") as info:
        run_pga(form, mats, rhs, n_max=3, restarts=2, rng=rng)
    assert isinstance(info.value.__cause__, AlsError)


def test_als_allocates_no_dense_slot_matrix():
    # one dense ndof x ndof array at ndof 321 is 824 KB; banded slot systems need
    # a few ndof-long arrays
    model = SpringModel(FENE, 4.0)
    mats = [assemble(build_mesh(4.0, 160), normalize(model), 2)] * 2
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(13)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 3))
    init = random_unit_term(mats, rng)
    dense_bytes = mats[0].ndof ** 2 * 8
    tracemalloc.start()
    try:
        als_rank1(form, mats, rhs, init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4, (peak, dense_bytes)


def test_als_sweep_computes_each_factors_forms_once(monkeypatch):
    # N = 3: the forms of the init's N factors, which also give its mass
    # norms, then one per slot solve; a sweep rescales the forms of the
    # factors it normalises instead of computing them again
    one = assemble(build_mesh(4.0, 4), normalize(SpringModel(FENE, 4.0)), 2)
    mats = [one] * 3
    form = EnergyForm(np.eye(3) - 0.5 * (np.eye(3, k=1) + np.eye(3, k=-1)), 1.0, 1.0)
    rng = np.random.default_rng(22)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    init = random_unit_term(mats, rng)
    calls = []
    quad_forms = FactorMatrices.quad_forms
    monkeypatch.setattr(FactorMatrices, "quad_forms",
                        lambda m, f: calls.append(1) or quad_forms(m, f))
    for sweeps in (1, 2, 3):  # tol=0 never stops before max_sweeps here
        calls.clear()
        als_rank1(form, mats, rhs, init, tol=0.0, max_sweeps=sweeps)
        assert len(calls) == 3 + 3 * sweeps


def test_als_output_is_normalized():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, 1.0, 1.0)
    rng = np.random.default_rng(10)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    term, _ = als_rank1(form, mats, rhs, random_unit_term(mats, rng))
    f0 = vectors(term)[0]
    assert f0 @ mats[0].mass @ f0 == pytest.approx(1.0, rel=1e-12)


def test_als_matches_brute_force_minimizer():
    # multi-start quasi-Newton on the joint factor vector as an independent route
    mats = two_factor_mats(n_el=4, degree=1)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(11)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 3))
    _, j_als = als_best(form, mats, rhs, tol=1e-12, max_sweeps=200, restarts=8, rng=rng)
    n0, n1 = mats[0].ndof, mats[1].ndof

    def objective(z):
        vs = [z[:n0], z[n0:]]
        t = rank_one(vs)
        val = 0.5 * energy_rank1(form, mats, t, t) - rhs.value(t)
        grads = []
        for j in range(2):
            grads.append(dense_slot_hessian(form, mats, vs, j) @ vs[j]
                         - rhs.slot_vector(vs, j))
        return val, np.concatenate(grads)

    best = np.inf
    for _ in range(50):
        z0 = rng.standard_normal(n0 + n1)
        res = minimize(objective, z0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
        best = min(best, res.fun)
    assert j_als <= best + 1e-6


def test_pga_identities_and_orthogonality():
    mats = two_factor_mats(n_el=6, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(12)
    target = random_target(mats, rng, 3)
    rhs = Functional.from_target(form, mats, target)
    approx, trace = run_pga(form, mats, rhs, tol_stop=1e-12, n_max=6,
                            restarts=3, rng=rng, target=target)
    assert trace.rows, "no iterations recorded"
    errs = [energy_norm(form, mats, target)] + [row.err_energy for row in trace.rows]
    for k, row in enumerate(trace.rows):
        # energy identity: ||psi_{n-1}||^2 - ||psi_n||^2 = ||r_n||^2
        lhs = errs[k] ** 2 - errs[k + 1] ** 2
        assert lhs == pytest.approx(row.term_norm_a ** 2, rel=1e-8, abs=1e-12)
        # orthogonality a(psi_n, r_n) = 0
        assert abs(row.ortho_defect) <= 1e-8 * max(errs[k + 1] * row.term_norm_a, 1e-30) + 1e-12
        assert row.alpha is None
    # captured-term maximality: a(psi_{n-1}, r_n) = ||r_n||^2
    for k, (w, r) in enumerate(approx.terms):
        psi_prev = separated(list(target.terms) + [(-wk, tk) for wk, tk in approx.terms[:k]])
        pair = energy_pairing(form, mats, psi_prev, separated([(1.0, r)]))
        assert pair == pytest.approx(trace.rows[k].term_norm_a ** 2, rel=1e-8)
    # monotone energy error
    assert all(errs[k + 1] <= errs[k] * (1 + 1e-12) for k in range(len(trace.rows)))


@pytest.mark.parametrize("runner", [run_pga, run_oga], ids=["pga", "oga"])
def test_loop_without_target_matches_loop_with_it(runner):
    # the target's columns lead the loop's primal stack; without a target the
    # approximation and every row but err_energy come out the same
    mats = two_factor_mats(n_el=6, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    target = random_target(mats, np.random.default_rng(41), 3)
    rhs = Functional.from_target(form, mats, target)
    runs = [runner(form, mats, rhs, tol_stop=1e-12, n_max=6, restarts=2,
                   rng=np.random.default_rng(42), target=t) for t in (target, None)]
    (approx, trace), (blind, blind_trace) = runs
    assert len(trace.rows) == 6 and blind_trace.status == trace.status
    assert np.array_equal(blind.weights, approx.weights)
    assert all(np.array_equal(u, v) for u, v in zip(blind.factors, approx.factors))
    for row, blind_row in zip(trace.rows, blind_trace.rows, strict=True):
        assert math.isfinite(row.err_energy) and math.isnan(blind_row.err_energy)
        assert dataclasses.replace(blind_row, err_energy=row.err_energy) == row


def test_pga_rank_one_target_single_row():
    mats = two_factor_mats(n_el=6, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(13)
    target = random_target(mats, rng, 1)
    approx, trace = run_pga(form, mats, Functional.from_target(form, mats, target),
                            tol_stop=1e-6, n_max=10, restarts=2, rng=rng, target=target)
    assert trace.status in ("converged", "null_term")
    assert len(trace.rows) == 1
    assert approx.rank == 1
    assert trace.rows[0].surrogate == 1.0
    assert trace.rows[0].err_energy <= 1e-6 * energy_norm(form, mats, target)


def test_oga_first_coefficient_is_line_minimizer():
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(14)
    target = random_target(mats, rng, 2)
    rhs = Functional.from_target(form, mats, target)
    approx, trace = run_oga(form, mats, rhs, tol_stop=1e-14, n_max=1, rng=rng, target=target)
    (alpha1, r1), = approx.terms
    expected = (rhs.value(r1)
                / energy_rank1(form, mats, r1, r1))
    assert alpha1 == pytest.approx(expected, rel=1e-12)
    assert trace.rows[0].alpha == (pytest.approx(alpha1),)


def test_oga_exact_on_orthogonal_rank_two():
    # tensorized eigenfunctions are orthogonal in the cross-free form,
    # so the Galerkin update captures the target in two iterations
    from scipy.linalg import eigh

    weight = normalize(SpringModel(FENE, 4.0))
    one = assemble(build_mesh(4.0, 8), weight, 2)
    mats = [one, one]
    form = EnergyForm(np.eye(2), wi=1.0, c=1.0)
    evals, evecs = eigh(one.stiffness + one.mass, one.mass)
    e = [evecs[:, k] for k in range(3)]
    target = separated([
        (1.0, rank_one([e[1], e[1]])),
        (0.6, rank_one([e[2], e[0]])),
    ])
    approx, trace = run_oga(form, mats, Functional.from_target(form, mats, target),
                            tol_stop=1e-10, n_max=4, restarts=4,
                            rng=np.random.default_rng(15), target=target)
    assert trace.rows[1].err_energy <= 1e-6 * energy_norm(form, mats, target)


def test_oga_keeps_a_tiny_a_orthogonal_term():
    # the second term is a-orthogonal to the first with 1e-7 of its norm: the
    # raw Gram matrix has condition near 1e14 and its smaller eigenvalue lies
    # under 1e-13 of the larger, while the Jacobi-scaled one is the identity
    from scipy.linalg import eigh

    one = assemble(build_mesh(4.0, 8), normalize(SpringModel(FENE, 4.0)), 1)
    mats = [one, one]
    form = EnergyForm(np.eye(2), wi=1.0, c=1.0)
    _, evecs = eigh(one.stiffness + one.mass, one.mass)
    e = [evecs[:, k] for k in range(2)]
    target = separated([(1.0, rank_one([e[0], e[0]])), (1e-7, rank_one([e[1], e[1]]))])
    _, trace = run_oga(form, mats, Functional.from_target(form, mats, target),
                       tol_stop=1e-12, n_max=4, als_tol=1e-14, restarts=2,
                       rng=np.random.default_rng(27), target=target)
    assert trace.status != "n_max" and len(trace.rows) == 2
    assert trace.rows[1].alpha == (pytest.approx(1.0, rel=1e-9), pytest.approx(1.0, rel=1e-6))


def test_oga_not_worse_than_pga_per_iteration():
    mats = two_factor_mats(n_el=5, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    target = random_target(mats, np.random.default_rng(16), 4)
    rhs = Functional.from_target(form, mats, target)
    _, tr_p = run_pga(form, mats, rhs, tol_stop=1e-13, n_max=5, restarts=3,
                      rng=np.random.default_rng(17), target=target)
    _, tr_o = run_oga(form, mats, rhs, tol_stop=1e-13, n_max=5, restarts=3,
                      rng=np.random.default_rng(17), target=target)
    for rp, ro in zip(tr_p.rows, tr_o.rows):
        assert ro.err_energy <= rp.err_energy * (1 + 1e-8) + 1e-12


@pytest.mark.parametrize("runner", [run_pga, run_oga], ids=["pga", "oga"])
def test_greedy_applies_each_captured_term_once(monkeypatch, runner):
    # O(R) work: each iteration applies its new term's one column (its norm,
    # the OGA Gram column and the residual's new columns), never an earlier
    # term's; re-applying the approximation would pass 1 + n columns at row n
    mats = two_factor_mats(n_el=5, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(23)
    target = random_target(mats, rng, 3)
    rhs = Functional.from_target(form, mats, target)
    columns = []
    applied = greedy._applied
    monkeypatch.setattr(greedy, "_applied",
                        lambda op_terms, mats, f: columns.append(f.rank)
                        or applied(op_terms, mats, f))
    _, trace = runner(form, mats, rhs, tol_stop=0.0, n_max=6, rng=rng, target=target)
    assert len(trace.rows) == 6
    assert sum(columns) == len(trace.rows)


def test_exact_dual_norm_riesz_identity():
    # for f = a(tau, .) the Riesz representer is tau itself
    mats = two_factor_mats(n_el=4, degree=1)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    target = random_target(mats, np.random.default_rng(19), 2)
    [dual] = dense_dual_norms(form, mats, [Functional.from_target(form, mats, target)])
    assert dual == pytest.approx(energy_norm(form, mats, target), rel=1e-10)


def test_dense_source_vector_matches_mass_pairing():
    mats = two_factor_mats(n_el=4, degree=1)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(20)
    g = random_target(mats, rng, 2)
    f = Functional.from_source(mats, g)
    vec = dense_functional_vector(f)
    probe = random_term(mats, rng)
    assert kron_vec(probe) @ vec == pytest.approx(f.value(probe), rel=1e-12)


def test_surrogate_within_dual_norm_bounds():
    # ||r_n||_a never exceeds the exact dual norm of the previous residual;
    # the reverse gap stays within the form's equivalence constants
    mats = two_factor_mats(n_el=4, degree=1)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(21)
    target = random_target(mats, rng, 3)
    rhs = Functional.from_target(form, mats, target)
    approx, trace = run_pga(form, mats, rhs, tol_stop=1e-13, n_max=4, restarts=4,
                            rng=rng, target=target)
    bound = np.sqrt(form.continuity / form.coercivity)
    duals = dense_dual_norms(form, mats, [
        rhs - Functional.from_target(form, mats, SeparatedFunction(
            approx.weights[:k], [f[:, :k] for f in approx.factors]))
        for k in range(len(trace.rows))])
    for row, dual in zip(trace.rows, duals):
        assert row.term_norm_a <= dual * (1 + 1e-8)
        ratio = dual / row.term_norm_a
        assert ratio <= bound * np.sqrt(row.n)


@pytest.mark.parametrize("runner", [run_pga, run_oga])
def test_tol_stop_above_one_refused(runner):
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rhs = Functional.from_target(form, mats, random_target(mats, np.random.default_rng(22), 3))
    for tol_stop in (1.5, float("nan")):
        with pytest.raises(ValueError, match="tol_stop must be at most 1"):
            runner(form, mats, rhs, tol_stop=tol_stop)
    # 1 is allowed: the first candidate's surrogate is 1.0, so it is always recorded
    _, trace = runner(form, mats, rhs, tol_stop=1.0, n_max=4, rng=np.random.default_rng(23))
    assert [row.surrogate for row in trace.rows] == [1.0]
    assert trace.status == "converged" and trace.final_surrogate < 1.0


def test_als_failure_names_the_greedy_iteration(monkeypatch):
    calls = []
    real_als_best = greedy.als_best

    def als_best_stub(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise AlsError("all ALS starts failed: stub")
        return real_als_best(*args, **kwargs)

    monkeypatch.setattr(greedy, "als_best", als_best_stub)
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rhs = Functional.from_target(form, mats, random_target(mats, np.random.default_rng(24), 3))
    with pytest.raises(GreedyError, match=r"^iteration 2: all ALS starts failed: stub$") as info:
        run_oga(form, mats, rhs, tol_stop=1e-13, n_max=4)
    assert isinstance(info.value.__cause__, AlsError)


def test_galerkin_solve_matches_scipy_when_well_conditioned():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((4, 4))
    gram = a @ a.T + 4.0 * np.eye(4)
    fvec = rng.standard_normal(4)
    np.testing.assert_allclose(greedy._galerkin(gram, fvec)[0], solve(gram, fvec),
                               rtol=1e-12)


def test_galerkin_solve_drops_a_nearly_dependent_direction(caplog):
    # eigenvalues 1e-20, 1e-2, 1: condition far above 1e12, and the smallest
    # lies under 1e-13 of the largest, so its direction is left out
    rng = np.random.default_rng(26)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    evals = np.array([1e-20, 1e-2, 1.0])
    gram = (q * evals) @ q.T
    fvec = rng.standard_normal(3)
    with caplog.at_level(logging.INFO, logger="greedy_ou.greedy"):
        alpha = greedy._galerkin(gram, fvec)[0]
    assert "re-orthogonalizing dictionary" in caplog.text
    kept = q[:, 1:]
    np.testing.assert_allclose(alpha, kept @ ((kept.T @ fvec) / evals[1:]), rtol=1e-10)
    assert abs(q[:, 0] @ alpha) <= 1e-10 * np.linalg.norm(alpha)


def test_galerkin_condition_is_inf_without_a_positive_eigenvalue_floor():
    # eigenvalues -1 and 3: condition inf, so the solve keeps only the
    # eigenvector (1, 1) / sqrt(2) of eigenvalue 3
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])
    alpha, cond = greedy._galerkin(gram, np.array([1.0, 0.0]))
    assert cond == np.inf
    np.testing.assert_allclose(alpha, [1.0 / 6.0, 1.0 / 6.0], rtol=1e-14)


def test_nan_term_is_a_greedy_error_not_a_nan_alpha(monkeypatch):
    # numpy's eigh passes a NaN through, so the loop checks the system itself
    calls = []
    real_als_best = greedy.als_best

    def als_best_stub(form, mats, rhs, **kwargs):
        calls.append(None)
        term, j_val = real_als_best(form, mats, rhs, **kwargs)
        if len(calls) == 2:
            return rank_one([np.full(m.ndof, np.nan) for m in mats]), j_val
        return term, j_val

    monkeypatch.setattr(greedy, "als_best", als_best_stub)
    mats = two_factor_mats()
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rhs = Functional.from_target(form, mats, random_target(mats, np.random.default_rng(28), 3))
    with pytest.raises(GreedyError, match=r"^iteration 2: Galerkin system is not finite$"):
        run_oga(form, mats, rhs, tol_stop=1e-13, n_max=4)


def test_gram_cond_is_the_scaled_gram_condition_number():
    mats = two_factor_mats(n_el=5, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    target = random_target(mats, np.random.default_rng(29), 4)
    rhs = Functional.from_target(form, mats, target)
    runs = [run_oga(form, mats, rhs, tol_stop=0.0, n_max=4, rng=np.random.default_rng(30))
            for _ in range(2)]
    (approx, trace), (_, again) = runs
    assert len(trace.rows) == 4
    for row in trace.rows:
        # the first n captured terms, each of weight 1
        terms = SeparatedFunction(np.ones(row.n), [f[:, :row.n] for f in approx.factors]).terms
        gram = np.array([[energy_rank1(form, mats, u, v) for _, v in terms] for _, u in terms])
        s = 1.0 / np.sqrt(np.diag(gram))
        assert row.gram_cond == pytest.approx(np.linalg.cond(s[:, None] * gram * s), rel=1e-8)
    assert [row.gram_cond for row in again.rows] == [row.gram_cond for row in trace.rows]
    _, pga = run_pga(form, mats, rhs, tol_stop=0.0, n_max=2, rng=np.random.default_rng(30))
    assert [row.gram_cond for row in pga.rows] == [None, None]


@pytest.mark.parametrize("runner, per_row", [(run_pga, 0), (run_oga, 1)], ids=["pga", "oga"])
def test_one_eigendecomposition_per_oga_row(monkeypatch, runner, per_row):
    mats = two_factor_mats(n_el=5, degree=2)
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    rng = np.random.default_rng(31)
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 3))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    _, trace = runner(form, mats, rhs, tol_stop=0.0, n_max=5, rng=rng)
    assert len(trace.rows) == 5
    assert len(calls) == per_row * len(trace.rows)


@lru_cache(maxsize=None)
def small_factor(kind, degree, grading=1.0):
    b = 4.0 if kind == FENE else 6.0
    return assemble(build_mesh(b, 4, grading), normalize(SpringModel(kind, b)), degree)


@st.composite
def separated_problems(draw):
    """N in 1..4 factors (P1/P2, FENE/CPAIL) and an SPD coupling with zero entries.

    Strict diagonal dominance keeps the coupling positive definite; at N=4
    only the first factor may be P2, so the dense form stays near 1000 dof.
    """
    n = draw(st.integers(1, 4))
    degrees = draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n))
    if n == 4:
        degrees[1:] = [1, 1, 1]
    kinds = draw(st.lists(st.sampled_from([FENE, CPAIL]), min_size=n, max_size=n))
    coupling = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            coupling[i, j] = coupling[j, i] = draw(
                st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    for i in range(n):
        coupling[i, i] = np.abs(coupling[i]).sum() + draw(st.floats(0.1, 1.0))
    form = EnergyForm(coupling, wi=draw(st.floats(0.2, 2.0)), c=draw(st.floats(0.2, 2.0)))
    mats = [small_factor(k, d) for k, d in zip(kinds, degrees)]
    return form, mats, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def absolute_problem(form, mats):
    """Entrywise absolute values of every matrix: the dense oracle on these data,
    applied to absolute factor vectors, bounds each computed sum term by term."""
    abs_form = EnergyForm(np.abs(form.coupling), wi=form.wi, c=form.c)
    abs_mats = [dataclasses.replace(m, bands={name: np.abs(op) for name, op in m.bands.items()})
                for m in mats]
    return abs_form, abs_mats


def slot_embedding(term, j, ndof_j):
    """Kronecker map from slot-j coefficients to the full tensor vector."""
    return reduce(np.kron, [np.eye(ndof_j) if k == j else f
                            for k, f in enumerate(term.factors)])


def abs_term(term):
    return rank_one([np.abs(f) for f in vectors(term)])


def abs_function(f):
    return SeparatedFunction(np.abs(f.weights), [np.abs(u) for u in f.factors])


def assert_close(got, want, scale):
    """Error within 1e-12 of the term-by-term magnitude of the sum."""
    err = np.max(np.abs(np.asarray(got) - np.asarray(want)))
    assert err <= 1e-12 * np.max(scale), (err, np.max(scale))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=separated_problems(), ranks=st.tuples(st.integers(2, 3), st.integers(2, 3)))
def test_separated_operator_matches_dense_oracle(problem, ranks):
    form, mats, rng = problem
    n = form.n_factors
    abs_form, abs_mats = absolute_problem(form, mats)
    a_full, a_abs = assemble_dense(form, mats), assemble_dense(abs_form, abs_mats)

    u, v = random_term(mats, rng, normalized=False), random_term(mats, rng, normalized=False)
    assert_close(energy_rank1(form, mats, u, v), kron_vec(v) @ a_full @ kron_vec(u),
                 kron_vec(abs_term(v)) @ a_abs @ kron_vec(abs_term(u)))

    f, g, h = (separated([(rng.uniform(-1.5, 1.5), random_term(mats, rng, normalized=False))
                          for _ in range(rank)]) for rank in ranks + (2,))

    assert_close(energy_pairing(form, mats, f, g), dense_vector(g) @ a_full @ dense_vector(f),
                 dense_vector(abs_function(g)) @ a_abs @ dense_vector(abs_function(f)))
    # the couplings have zero and non-adjacent entries, so the error's train
    # meets GRAD and GRAD_T in slots that are not neighbours
    assert_close(energy_norm(form, mats, f) ** 2, dense_vector(f) @ a_full @ dense_vector(f),
                 dense_vector(abs_function(f)) @ a_abs @ dense_vector(abs_function(f)))

    # residual of a target-plus-source functional; the oracle applies the dense
    # form and the Kronecker mass to the primal stacks directly
    rhs = (Functional.from_target(form, mats, f) + Functional.from_source(mats, g)
           - Functional.from_target(form, mats, h))
    f_full = (a_full @ (dense_vector(f) - dense_vector(h))
              + reduce(np.kron, [m.mass for m in mats]) @ dense_vector(g))
    f_abs = (a_abs @ (dense_vector(abs_function(f)) + dense_vector(abs_function(h)))
             + reduce(np.kron, [m.mass for m in abs_mats]) @ dense_vector(abs_function(g)))
    assert_close(dense_functional_vector(rhs), f_full, f_abs)
    assert_close(rhs.value(v), kron_vec(v) @ f_full, kron_vec(abs_term(v)) @ f_abs)
    for j in range(n):
        embed = slot_embedding(v, j, mats[j].ndof)
        abs_embed = slot_embedding(abs_term(v), j, mats[j].ndof)
        assert_close(rhs.slot_vector(vectors(v), j), embed.T @ f_full, abs_embed.T @ f_abs)
        assert_close(dense_slot_hessian(form, mats, vectors(v), j), embed.T @ a_full @ embed,
                     abs_embed.T @ a_abs @ abs_embed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=separated_problems(), grading=st.sampled_from([1.0, 2.0]))
def test_banded_slot_solves_match_dense_cholesky(problem, grading):
    # one ALS sweep against the same sweep solved by dense Cholesky on the
    # expanded slot Hessians, with every quadratic form recomputed per slot
    form, mats, rng = problem
    mats = [small_factor(m.weight.model.kind, m.degree, grading) for m in mats]
    rhs = Functional.from_target(form, mats, random_target(mats, rng, 2))
    init = random_unit_term(mats, rng)
    term, _ = als_rank1(form, mats, rhs, init, max_sweeps=1)
    ref = vectors(init)
    for j in range(form.n_factors):
        h = dense_slot_hessian(form, mats, ref, j)
        ref[j] = cho_solve(cho_factor(h), rhs.slot_vector(ref, j))
    ref = normalize_term(mats, rank_one(ref))
    for got, want in zip(term.factors, ref.factors):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
