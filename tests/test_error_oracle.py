"""The recorded energy-norm error against the dense Kronecker oracle.

err_energy recompresses tau - u_n into factor bases before it squares
anything, so it carries no sqrt(eps) floor: on every row it must match the
dense error e' A e, with e formed entry by entry on the tensor grid, to
1e-13 of ||tau||_a, however far the error has fallen.  The loops' residuals,
kept as re-weighted applied columns, are checked against residuals applied
from scratch the same way.
"""

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greedy_ou import cli, greedy
from greedy_ou.config import build_problem, build_target, validate_config
from greedy_ou.fem import assemble, build_mesh
from greedy_ou.greedy import (EnergyForm, Functional, SeparatedFunction, energy_norm, rank_one,
                              run_oga, run_pga)
from greedy_ou.springs import CPAIL, FENE, SpringModel, normalize

from dense_oracle import assemble_dense, dense_energy_norm
from test_acceptance import manufactured, two_factor_setup
from test_cli import base_config
from test_greedy import small_factor

TOL = 1e-13


def approximation_at(approx, row):
    """The approximation after the update recorded in a trace row."""
    weights = approx.weights[:row.n] if row.alpha is None else row.alpha
    return SeparatedFunction(weights, [f[:, :row.n] for f in approx.factors])


def oracle_defects(form, mats, target, approx, trace):
    """|err_energy - dense error| / ||tau||_a on every row."""
    a_full = assemble_dense(form, mats)
    scale = dense_energy_norm(form, mats, target, a_full)
    return [abs(row.err_energy - dense_energy_norm(
        form, mats, target - approximation_at(approx, row), a_full)) / scale
        for row in trace.rows]


def test_criterion_04_trials_match_the_dense_oracle():
    # the runs of criterion 04, trials 9 and 13 included, whose floor rows
    # read 0.0 from a Gram sum that cancels
    form, mats = two_factor_setup(n_el=6)
    rng = np.random.default_rng(2)
    for trial in range(20):
        rank = int(rng.integers(1, 6))
        target = manufactured(form, mats, rng, rng.uniform(0.2, 1.0, rank))
        approx, trace = run_pga(form, mats, Functional.from_target(form, mats, target),
                                tol_stop=1e-12, n_max=6, restarts=2, rng=rng, target=target)
        defects = oracle_defects(form, mats, target, approx, trace)
        assert max(defects) <= TOL, (trial, defects)


@pytest.mark.parametrize("algorithm", ["pga", "oga"])
def test_rank_one_target_far_below_the_floor(algorithm):
    # FENE b=4, N=2, P1, a rank-one target captured to roundoff at row 1:
    # every later row's error is far below sqrt(eps) ||tau||_a
    raw = base_config(mesh={"n_el": 8, "degree": 1}, algorithm=algorithm, tol_stop=1e-14,
                      n_max=15, als={"tol": 1e-15, "restarts": 4, "seed": 0},
                      target={"kind": "manufactured", "coefficients": [1.0], "seed": 7})
    cfg = validate_config(raw)
    form, mats = build_problem(cfg)
    target, _ = build_target(cfg, form, mats)
    rhs = Functional.from_target(form, mats, target)
    approx, trace = cli._run_algorithm(cfg, algorithm, form, mats, rhs, target)
    assert len(trace.rows) >= 10
    assert max(oracle_defects(form, mats, target, approx, trace)) <= TOL


def test_three_factor_oga_matches_the_dense_oracle():
    models = [SpringModel(FENE, 4.0), SpringModel(CPAIL, 6.0), SpringModel(FENE, 4.0)]
    mats = [assemble(build_mesh(m.b, 4), normalize(m), 2) for m in models]
    form = EnergyForm(np.eye(3) - 0.5 * (np.eye(3, k=1) + np.eye(3, k=-1)), wi=1.0, c=1.0)
    rng = np.random.default_rng(0)
    target = SeparatedFunction([rng.uniform(0.5, 1.5)], [rng.standard_normal((m.ndof, 1))
                                                         for m in mats])
    approx, trace = run_oga(form, mats, Functional.from_target(form, mats, target),
                            tol_stop=1e-14, n_max=8, als_tol=1e-15, restarts=3, rng=rng,
                            target=target)
    assert len(trace.rows) == 8
    assert max(oracle_defects(form, mats, target, approx, trace)) <= TOL


@pytest.mark.parametrize("runner", [run_pga, run_oga], ids=["pga", "oga"])
def test_loop_error_is_a_fresh_energy_norm(runner):
    # the loop extends its bases by one column per row; recompressing the
    # same form from scratch appends the same columns in the same order
    mats = [small_factor(FENE, 2), small_factor(CPAIL, 2)]
    form = EnergyForm(np.array([[1.0, -0.5], [-0.5, 1.0]]), wi=1.0, c=1.0)
    rng = np.random.default_rng(31)
    target = SeparatedFunction(rng.uniform(0.5, 1.5, 3), [rng.standard_normal((m.ndof, 3))
                                                          for m in mats])
    approx, trace = runner(form, mats, Functional.from_target(form, mats, target),
                           tol_stop=1e-14, n_max=8, restarts=2, rng=rng, target=target)
    scale = energy_norm(form, mats, target)
    for row in trace.rows:
        fresh = energy_norm(form, mats, target - approximation_at(approx, row))
        assert abs(row.err_energy - fresh) <= 1e-15 * scale


@pytest.mark.parametrize("runner", [run_pga, run_oga], ids=["pga", "oga"])
def test_loop_residual_matches_a_fresh_residual(runner):
    # the loop's residual re-weights the applied columns it keeps; applying
    # the approximation from scratch gives the same orthogonality defect, and
    # the next term, a slot-wise stationary point of the residual J, pairs
    # with it to its own squared norm
    mats = [small_factor(FENE, 2), small_factor(CPAIL, 2)]
    form = EnergyForm(np.array([[1.0, -0.5], [-0.5, 1.0]]), wi=1.0, c=1.0)
    rng = np.random.default_rng(37)
    target = SeparatedFunction(rng.uniform(0.5, 1.5, 3), [rng.standard_normal((m.ndof, 3))
                                                          for m in mats])
    rhs = Functional.from_target(form, mats, target)
    approx, trace = runner(form, mats, rhs, tol_stop=1e-14, n_max=8, restarts=2, rng=rng,
                           target=target)
    assert len(trace.rows) == 8
    scale = energy_norm(form, mats, target)
    terms = [rank_one([f[:, n] for f in approx.factors]) for n in range(approx.rank)]
    for row, following in zip(trace.rows, trace.rows[1:] + [None]):
        fresh = rhs - Functional.from_target(form, mats, approximation_at(approx, row))
        defect = fresh.value(terms[row.n - 1])
        assert abs(row.ortho_defect - defect) <= 1e-12 * scale * row.term_norm_a
        if following is not None:
            norm = following.term_norm_a
            assert abs(fresh.value(terms[row.n]) - norm**2) <= 1e-12 * scale * norm


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from([2, 3]), data=st.data(), exponent=st.floats(4.0, 12.0),
       seed=st.integers(0, 2**32 - 1))
def test_planted_cancellation_matches_the_dense_oracle(n, data, exponent, seed):
    # f~ moves one slot of each of f's terms, scaled so that ||f - f~||_a is
    # 10**-exponent of ||f||_a: the columns of f - f~ cancel to that depth
    kinds = data.draw(st.lists(st.sampled_from([FENE, CPAIL]), min_size=n, max_size=n))
    degrees = data.draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n))
    mats = [small_factor(k, d) for k, d in zip(kinds, degrees)]
    form = EnergyForm(np.eye(n) - 0.4 * (np.eye(n, k=1) + np.eye(n, k=-1)), wi=0.8, c=1.2)
    a_full = assemble_dense(form, mats)
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 4))
    f = SeparatedFunction(rng.uniform(-1.5, 1.5, rank),
                          [rng.standard_normal((m.ndof, rank)) for m in mats])
    slots = rng.integers(0, n, rank)
    moves = [np.zeros_like(u) for u in f.factors]
    for r, k in enumerate(slots):
        moves[k][:, r] = rng.standard_normal(mats[k].ndof)
    direction = reduce(add, (SeparatedFunction([w], [moves[k][:, [r]] if k == s else u[:, [r]]
                                                     for k, u in enumerate(f.factors)])
                             for r, (w, s) in enumerate(zip(f.weights, slots))))
    norm_f = dense_energy_norm(form, mats, f, a_full)
    step = 10.0 ** -exponent * norm_f / dense_energy_norm(form, mats, direction, a_full)
    moved = SeparatedFunction(f.weights, [u + step * d for u, d in zip(f.factors, moves)])
    want = dense_energy_norm(form, mats, f - moved, a_full)
    assert want == pytest.approx(10.0 ** -exponent * norm_f, rel=1e-2)
    assert abs(energy_norm(form, mats, f - moved) - want) <= TOL * norm_f


@pytest.mark.parametrize("n", [2, 3])
def test_energy_norm_extends_given_bases(n):
    # the loops pass bases that hold a prefix of f's columns already: every
    # prefix gives the number a fresh recompression gives, on a form whose
    # columns cancel and on one whose columns do not.  Not bit for bit: a
    # lone column reaches _with_column contiguous and a column of a batch
    # strided, and BLAS rounds the two apart (1.4e-16 of ||g||_a here)
    mats = [small_factor(kind, 2) for kind in (FENE, CPAIL, FENE)[:n]]
    form = EnergyForm(np.eye(n) - 0.4 * (np.eye(n, k=1) + np.eye(n, k=-1)), wi=0.8, c=1.2)
    rng = np.random.default_rng(43)
    g = SeparatedFunction(rng.uniform(-1.5, 1.5, 3), [rng.standard_normal((m.ndof, 3))
                                                      for m in mats])
    near = SeparatedFunction(g.weights, [u + 1e-6 * rng.standard_normal(u.shape)
                                         for u in g.factors])
    scale = energy_norm(form, mats, g)
    for f in (g, g - near):
        fresh = energy_norm(form, mats, f)
        for k in range(f.rank + 1):
            prefix = greedy._extended(mats, [u[:, :k] for u in f.factors])
            assert abs(energy_norm(form, mats, f, prefix) - fresh) <= 1e-15 * scale, k
