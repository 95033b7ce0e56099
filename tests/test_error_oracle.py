"""The recorded energy-norm error against the dense Kronecker oracle.

err_energy recompresses tau - u_n into factor bases before it squares
anything, so it carries no sqrt(eps) floor: on every row it must match the
dense error e' A e, with e formed entry by entry on the tensor grid, to
1e-13 of ||tau||_a, however far the error has fallen.  The loops factor
their primal stack once and read each row's error from the leading blocks,
which must match a fresh recompression of that row to 1e-14 of ||tau||_a.
At the largest b the bases accept, the mass's Cholesky rows span hundreds
of orders of magnitude; the row-sorted QR must hold the oracle bound there
too.  The train is built in one pass from factor N to 1, and the terms
whose operators agree left of a factor share one environment through it;
the planted cancellations run that pass up to N = 4 against the dense
oracle (couplings with non-adjacent pairs are in tests/test_greedy.py), and
at N = 6 and 8, past the oracle's reach, each row's square must match the
Gram sum of tau - u_n's columns.  Each term enters the pass at its last
non-mass slot, read from the form's table, which must give the arrays a
scan of the term's operators gives, bit for bit, up to N = 8.  The loops'
residuals, kept as re-weighted applied columns, are checked against
residuals applied from scratch the same way.
"""

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtbtrs

from greedy_ou import cli, greedy
from greedy_ou.config import build_problem, build_target, validate_config
from greedy_ou.fem import GRAD, GRAD_T, MASS, STIFFNESS, assemble, band_matmul, build_mesh
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
    # the loop factors its whole primal stack once and reads each row's error
    # from the leading blocks; a fresh recompression of tau - u_n factors only
    # that row's columns, and the two agree to 1e-14 of ||tau||_a.  Rows pass
    # the basis size, so the last ones read an R with fewer rows than columns
    mats = [small_factor(FENE, 2), small_factor(CPAIL, 2)]
    form = EnergyForm(np.array([[1.0, -0.5], [-0.5, 1.0]]), wi=1.0, c=1.0)
    rng = np.random.default_rng(31)
    target = SeparatedFunction(rng.uniform(0.5, 1.5, 3), [rng.standard_normal((m.ndof, 3))
                                                          for m in mats])
    approx, trace = runner(form, mats, Functional.from_target(form, mats, target),
                           tol_stop=1e-14, n_max=8, restarts=2, rng=rng, target=target)
    assert target.rank + len(trace.rows) > max(m.ndof for m in mats)
    scale = energy_norm(form, mats, target)
    for row in trace.rows:
        fresh = energy_norm(form, mats, target - approximation_at(approx, row))
        assert abs(row.err_energy - fresh) <= 1e-14 * scale, row.n


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
@given(n=st.sampled_from([1, 2, 3, 4]), data=st.data(), exponent=st.floats(4.0, 12.0),
       seed=st.integers(0, 2**32 - 1))
def test_planted_cancellation_matches_the_dense_oracle(n, data, exponent, seed):
    # f~ moves one slot of each of f's terms, scaled so that ||f - f~||_a is
    # 10**-exponent of ||f||_a: the columns of f - f~ cancel to that depth.
    # N = 1 has no bond and N = 4 contracts three cores in order; P1 only at
    # N = 4 keeps the dense operator at 625 x 625
    kinds = data.draw(st.lists(st.sampled_from([FENE, CPAIL]), min_size=n, max_size=n))
    degrees = data.draw(st.lists(st.sampled_from([1] if n == 4 else [1, 2]),
                                 min_size=n, max_size=n))
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_energy_norm_extends_given_bases(n):
    # the loops pass the factorisation of a stack whose leading columns are
    # f's: every prefix of f read from a longer stack's factorisation gives a
    # fresh recompression's number to 1e-14 of ||g||_a, on a form whose
    # columns cancel and on one whose columns do not
    mats = [small_factor(kind, 2) for kind in (FENE, CPAIL, FENE, CPAIL)[:n]]
    form = EnergyForm(np.eye(n) - 0.4 * (np.eye(n, k=1) + np.eye(n, k=-1)), wi=0.8, c=1.2)
    rng = np.random.default_rng(43)
    g = SeparatedFunction(rng.uniform(-1.5, 1.5, 3), [rng.standard_normal((m.ndof, 3))
                                                      for m in mats])
    near = SeparatedFunction(g.weights, [u + 1e-6 * rng.standard_normal(u.shape)
                                         for u in g.factors])
    scale = energy_norm(form, mats, g)
    for f in (g, g - near):
        stack = [np.concatenate([u, rng.standard_normal((m.ndof, 4))], axis=1)
                 for u, m in zip(f.factors, mats)]
        bases = greedy._factored(form, mats, stack)
        for k in range(1, f.rank + 1):
            head = SeparatedFunction(f.weights[:k], [u[:, :k] for u in f.factors])
            fresh = energy_norm(form, mats, head)
            assert abs(energy_norm(form, mats, head, bases) - fresh) <= 1e-14 * scale, k


def reference_factored(form, mats, factors):
    """_factored with each term's last non-mass slot found by a scan of its
    operators at every factor, not read from the form's table."""
    lead, envs = np.ones((factors[0].shape[1], 1)), {}
    for k, m in reversed(list(enumerate(mats))):
        a = band_matmul(m.mass_factor, None, factors[k])
        order = np.argsort(-np.abs(a).max(axis=1, initial=0.0), kind="stable")
        q, r = np.linalg.qr(a[order])
        q[order] = q.copy()
        q, _ = dtbtrs(m.mass_factor, q)
        kq, gq = (np.einsum("ki,kj->ij", q, m.apply(op, q)) for op in (STIFFNESS, GRAD))
        proj = {MASS: np.eye(len(r)), STIFFNESS: kq, GRAD: gq, GRAD_T: gq.T}
        for coef, ops in form.terms:
            if max((i for i, op in enumerate(ops) if op != MASS), default=0) == k:
                envs[ops[:k + 1]] = envs.get(ops[:k + 1], 0.0) + coef * np.eye(lead.shape[1])
        if k == 0:
            return r, lead, np.array([proj[ops[0]] for ops in envs]), np.array(list(envs.values()))
        q, t = np.linalg.qr((lead[:, :, None] * r.T[:, None, :]).reshape(len(lead), -1).T)
        core = q.reshape(lead.shape[1], len(r), len(t)).transpose(0, 2, 1)
        lead, contracted = t.T, {}
        for ops, env in envs.items():
            x = env.T @ (core @ proj[ops[k]].T).transpose(1, 0, 2)
            x = (x.transpose(1, 0, 2) @ core.transpose(0, 2, 1)).sum(axis=0)
            contracted[ops[:k]] = contracted.get(ops[:k], 0.0) + x
        envs = contracted


@pytest.mark.parametrize("n", range(2, 9))
def test_factored_reads_each_terms_last_slot_from_the_form(n):
    # the form's table of last non-mass slots starts every term where a scan
    # of its operators would: the same arrays, bit for bit
    mats = [small_factor((FENE, CPAIL)[k % 2], 2) for k in range(n)]
    form = EnergyForm(np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)), wi=0.8, c=1.2)
    rng = np.random.default_rng(50 + n)
    stack = [rng.standard_normal((m.ndof, 7)) for m in mats]
    got, want = greedy._factored(form, mats, stack), reference_factored(form, mats, stack)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("model", [SpringModel(FENE, 700.0), SpringModel(CPAIL, 900.0)],
                         ids=["fene-700", "cpail-900"])
def test_energy_norm_at_the_edge_of_the_accepted_range(model):
    # n_el 20 at these b leaves mass pivots near 1e-271: the rows of C U
    # (M = C'C) span hundreds of orders of magnitude, and only a QR with its
    # rows sorted by decreasing max-norm keeps the small ones' accuracy.
    # Cancellations planted in one slot of g's first term, at three depths
    mats = [assemble(build_mesh(model.b, 20), normalize(model), 2)] * 2
    form = EnergyForm(np.array([[1.0, -0.4], [-0.4, 1.0]]), wi=0.8, c=1.2)
    a_full = assemble_dense(form, mats)
    rng = np.random.default_rng(47)
    g = SeparatedFunction(rng.uniform(0.5, 1.5, 3), [rng.standard_normal((m.ndof, 3))
                                                     for m in mats])
    norm_g = dense_energy_norm(form, mats, g, a_full)
    move = rng.standard_normal(mats[0].ndof)
    direction = SeparatedFunction(g.weights[:1], [move[:, None], g.factors[1][:, :1]])
    for depth in (1e-6, 1e-10, 1e-13):
        step = depth * norm_g / dense_energy_norm(form, mats, direction, a_full)
        first = g.factors[0].copy()
        first[:, 0] += step * move
        f = g - SeparatedFunction(g.weights, [first, g.factors[1]])
        want = dense_energy_norm(form, mats, f, a_full)
        assert want == pytest.approx(depth * norm_g, rel=1e-2)
        assert abs(energy_norm(form, mats, f) - want) <= TOL * norm_g, depth


@pytest.mark.parametrize("n", [6, 8])
def test_many_factor_pga_rows_match_the_gram_sum(n):
    # N = 6 and 8, where the dense oracle has 21^N dofs: 20 PGA rows on a rank-3
    # manufactured target keep criterion 08's monotone rule and criterion 06's
    # PGA envelope, and each row's err_energy^2 matches the Gram sum w'Gw of
    # tau - u_n's columns, G_rs = a(col_r, col_s).  That sum has its own
    # roundoff floor, so the squares are compared, to 1e-12 of ||tau||_a^2
    raw = base_config(n_factors=n, mesh={"n_el": 10}, tol_stop=1e-12, n_max=20,
                      als={"tol": 1e-10, "max_sweeps": 60, "restarts": 4, "seed": 11},
                      target={"kind": "manufactured", "coefficients": [0.8, 0.5, 0.3],
                              "seed": 5})
    cfg = validate_config(raw)
    form, mats = build_problem(cfg)
    target, bound = build_target(cfg, form, mats)
    rhs = Functional.from_target(form, mats, target)
    approx, trace = cli._run_algorithm(cfg, "pga", form, mats, rhs, target)
    assert len(trace.rows) == 20
    columns = [t for _, t in (target + approx).terms]
    gram = np.array([[greedy.energy_rank1(form, mats, u, v) for v in columns] for u in columns])
    norm2 = target.weights @ gram[:3, :3] @ target.weights
    errs = [np.sqrt(norm2)] + [row.err_energy for row in trace.rows]
    assert max(np.diff(errs)) <= 1e-10 * errs[0]
    for row in trace.rows:
        assert row.err_energy <= bound * row.n ** (-1 / 6) * (1 + 1e-12), row.n
        w = np.concatenate([target.weights, -np.ones(row.n)])
        want = w @ gram[:3 + row.n, :3 + row.n] @ w
        assert abs(row.err_energy**2 - want) <= 1e-12 * norm2, row.n
