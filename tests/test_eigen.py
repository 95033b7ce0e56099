"""Factor eigenproblem, tensorization, and growth-law measurement."""

import dataclasses
import json
import logging
import re

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import eigh

from greedy_ou import cli, eigen
from greedy_ou.config import build_problem, separated_target, validate_config
from greedy_ou.diagnostics import fourier_coeffs
from greedy_ou.eigen import (
    EigenError,
    FactorEigens,
    WeylFit,
    resolved_factor_eigens,
    solve_factor_eigens,
    weyl_fit,
)
from greedy_ou.fem import assemble, build_mesh
from greedy_ou.springs import CPAIL, FENE, SpringModel, normalize

from closed_forms import tensor_eigenvalue


def factor_mats(kind=FENE, b=4.0, n_el=60, degree=2, grading=1.0):
    return assemble(build_mesh(b, n_el, grading), normalize(SpringModel(kind, b)), degree)


@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0)])
def test_first_pair_is_one_and_constant(kind, b):
    eig = solve_factor_eigens(factor_mats(kind, b), 12)
    assert eig.values[0] == pytest.approx(1.0, abs=1e-10)
    # normalized weight makes the mass-normalized constant equal to one
    assert np.allclose(eig.vectors[:, 0], 1.0, atol=1e-7)
    assert np.all(np.diff(eig.values) >= 0)
    assert np.all(eig.values >= 1.0 - 1e-10)


def test_mass_orthonormality_and_rayleigh():
    mats = factor_mats(n_el=120)
    eig = solve_factor_eigens(mats, 20)
    gram = eig.vectors.T @ mats.mass @ eig.vectors
    assert np.abs(gram - np.eye(20)).max() <= 1e-10
    h = mats.stiffness + mats.mass
    for n in range(20):
        e = eig.vectors[:, n]
        rq = (e @ h @ e) / (e @ mats.mass @ e)
        assert abs(rq - eig.values[n]) <= 1e-10 * eig.values[n]


def test_sign_convention_deterministic():
    # positive: the first entry whose magnitude ties the largest to SIGN_TIE_REL
    eig = solve_factor_eigens(factor_mats(), 8)
    for e in eig.vectors.T:
        mag = np.abs(e)
        assert e[np.flatnonzero(mag >= (1.0 - eigen.SIGN_TIE_REL) * mag.max())[0]] > 0
    for n in (2, 4):
        # an odd mode's end entries tie up to roundoff with opposite signs;
        # the left one is the first of the tie, whichever is larger by roundoff
        e = eig.vectors[:, n - 1]
        assert abs(e[0]) == pytest.approx(np.abs(e).max(), rel=1e-10)
        assert abs(e[-1]) == pytest.approx(np.abs(e).max(), rel=1e-10)
        assert e[0] > 0 > e[-1]


def test_second_eigenvalue_mesh_converged():
    lam = [solve_factor_eigens(factor_mats(n_el=n), 3).values[1] for n in (200, 400)]
    assert abs(lam[1] - lam[0]) <= 1e-4 * lam[0]


def test_shift_identity():
    mats = factor_mats(n_el=80)
    base = solve_factor_eigens(mats, 10).values
    theta = 2.0
    shifted = eigh(mats.stiffness + theta * mats.mass, mats.mass,
                   subset_by_index=[0, 9], eigvals_only=True)
    assert np.allclose(shifted, base + theta - 1.0, rtol=1e-9)


def test_resolved_gate():
    weight = normalize(SpringModel(FENE, 4.0))
    mats = assemble(build_mesh(4.0, 40), weight, 2)
    eig = resolved_factor_eigens(mats, k=60)
    assert eig.resolved is not None
    assert eig.resolved[:10].all()
    assert not eig.resolved.all()  # the top of an 81-dof spectrum moves under refinement
    assert 10 <= eig.n_resolved < 60
    full = resolved_factor_eigens(mats, k=5)
    assert full.n_resolved == 5


@pytest.fixture(scope="module", params=[(FENE, 4.0), (CPAIL, 6.0)], ids=["fene", "cpail"])
def fine_mats(request):
    kind, b = request.param
    return factor_mats(kind, b, n_el=320)  # 641 dof, above the dense crossover


def test_banded_path_matches_dense(fine_mats, monkeypatch):
    banded = solve_factor_eigens(fine_mats, 40)
    banded_gate = resolved_factor_eigens(fine_mats, 40)
    monkeypatch.setattr(eigen, "BANDED_MIN_NDOF", fine_mats.ndof + 1)
    dense = solve_factor_eigens(fine_mats, 40)
    dense_gate = resolved_factor_eigens(fine_mats, 40)
    assert np.all(np.abs(banded.values - dense.values) <= 1e-9 * dense.values)
    assert np.abs(banded.vectors - dense.vectors).max() <= 1e-8
    gram = banded.vectors.T @ fine_mats.mass @ banded.vectors
    assert np.abs(gram - np.eye(40)).max() <= 1e-12
    assert banded.values[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(banded.values) > 0)
    assert np.array_equal(banded_gate.resolved, dense_gate.resolved)


def test_banded_path_is_repeatable(fine_mats):
    first = solve_factor_eigens(fine_mats, 40)
    again = solve_factor_eigens(fine_mats, 40)
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.vectors, again.vectors)


@pytest.mark.parametrize("n_el", [40, 160, 320], ids=["dense-81", "banded-321", "banded-641"])
@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0)], ids=["fene", "cpail"])
def test_value_only_solve_matches_the_vector_solve(kind, b, n_el):
    mats = factor_mats(kind, b, n_el=n_el)
    assert (mats.ndof >= eigen.BANDED_MIN_NDOF) == (n_el > 40)
    pairs = solve_factor_eigens(mats, 40)
    values = solve_factor_eigens(mats, 40, vectors=False)
    assert values.vectors is None and values.mats is mats
    assert np.all(np.abs(values.values - pairs.values) <= 1e-14 * pairs.values)
    assert np.array_equal(solve_factor_eigens(mats, 40, vectors=False).values, values.values)
    gate = resolved_factor_eigens(mats, 40)
    gate_values = resolved_factor_eigens(mats, 40, vectors=False)
    assert gate_values.vectors is None
    assert np.array_equal(gate_values.resolved, gate.resolved)


def _lanczos_products(caplog, mats, vectors):
    """Eigens of one solve and its operator products, read from its DEBUG record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="greedy_ou.eigen"):
        eig = solve_factor_eigens(mats, 40, vectors=vectors)
    [record] = caplog.records
    found = re.fullmatch(rf"Lanczos solve: ndof {mats.ndof}, k 40, vectors {vectors}, "
                         r"tol \S+, (\d+) operator products", record.getMessage())
    assert found and record.levelno == logging.DEBUG
    return eig, int(found[1])


@pytest.mark.parametrize("n_el", [320, 640], ids=["641", "1281"])
@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0)], ids=["fene", "cpail"])
def test_value_only_stop_keeps_every_eigenvalue_and_saves_the_restart(caplog, kind, b, n_el):
    # the four bases the spectrum benchmark solves: a residual of sqrt(eps)
    # ends the value-only solve in its first Lanczos cycle, where tol=0 restarts
    mats = factor_mats(kind, b, n_el=n_el)
    pairs, vector_products = _lanczos_products(caplog, mats, vectors=True)
    values, value_products = _lanczos_products(caplog, mats, vectors=False)
    assert np.all(np.abs(values.values - pairs.values) <= 1e-14 * pairs.values)
    assert value_products < vector_products
    gate = resolved_factor_eigens(mats, 40)
    gate_values = resolved_factor_eigens(mats, 40, vectors=False)
    assert np.array_equal(gate_values.resolved, gate.resolved)


def test_eigens_without_vectors_are_refused_where_vectors_are_read():
    cfg = validate_config({
        "schema_version": 1, "n_factors": 2, "factors": [{"kind": "fene", "b": 4.0}],
        "coupling": {"kind": "identity"}, "wi": 1.0, "c": 1.0,
        "mesh": {"n_el": 20, "degree": 2}, "eig": {"k": 6},
        "target": {"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 2]}]}})
    form, mats = build_problem(cfg)
    system = [resolved_factor_eigens(m, 6, vectors=False) for m in mats]
    with pytest.raises(ValueError, match="solved without them"):
        separated_target(cfg, form, mats, system)
    tau = separated_target(cfg, form, mats)
    with pytest.raises(ValueError, match="solved without them"):
        fourier_coeffs(tau, system, (2, 2))


def test_solver_choice_depends_on_ndof_and_k(fine_mats, monkeypatch):
    calls = []

    def counting_eigh(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(eigen, "eigh", counting_eigh)
    resolved_factor_eigens(fine_mats, 40)
    assert calls == []
    half = (fine_mats.ndof - 1) // 2  # 2k + 1 = ndof leaves ARPACK no room
    assert solve_factor_eigens(fine_mats, half).k == half
    assert calls == [[0, half - 1]]
    solve_factor_eigens(factor_mats(n_el=40), 5)  # 81 dof, below the crossover
    assert len(calls) == 2


def test_arpack_failure_is_an_eigen_error(fine_mats, monkeypatch, tmp_path, capsys):
    def failing_eigsh(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((fine_mats.ndof, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    with pytest.raises(EigenError, match="factor eigensolve failed: .*No convergence"):
        solve_factor_eigens(fine_mats, 40)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1, "n_factors": 1, "factors": [{"kind": "fene", "b": 4.0}],
        "coupling": {"kind": "identity"}, "wi": 1.0, "c": 1.0,
        "mesh": {"n_el": 320, "degree": 2},
        "target": {"kind": "manufactured", "coefficients": [1.0]}, "eig": {"k": 40}}))
    out = tmp_path / "out"
    assert cli.main(["eig", "--config", str(config), "--out", str(out)]) == 1
    assert "error: factor eigensolve failed: " in capsys.readouterr().err
    assert not (out / "eig.csv").exists()


def _indefinite(mats):
    return dataclasses.replace(mats, bands={**mats.bands, "stiffness": -mats.bands["stiffness"]})


def _nan_mass(mats):
    mass = mats.bands["mass"].copy()
    mass[mats.degree, 5] = np.nan  # diagonal entry (5, 5)
    return dataclasses.replace(mats, bands={**mats.bands, "mass": mass})


@pytest.mark.parametrize("broken,reason", [(_indefinite, "not positive definite"),
                                           (_nan_mass, "non-finite entries")],
                         ids=["indefinite", "nan-mass"])
def test_broken_banded_pencil_is_an_eigen_error(fine_mats, broken, reason):
    # the banded path factors stiffness + mass by LAPACK dpbtrf, which lets a NaN through
    assert fine_mats.ndof >= eigen.BANDED_MIN_NDOF
    with pytest.raises(EigenError, match=f"^factor eigensolve failed: .*{reason}"):
        solve_factor_eigens(broken(fine_mats), 40)


def test_nonfinite_dense_pencil_is_an_eigen_error():
    # eigh alone would refuse the NaN with a bare ValueError
    mats = factor_mats(n_el=60)
    assert mats.ndof < eigen.BANDED_MIN_NDOF
    with pytest.raises(EigenError, match="^factor eigensolve failed: stiffness \\+ mass "
                                         "has non-finite entries$"):
        solve_factor_eigens(_nan_mass(mats), 10)


def test_spectrum_path_stays_banded(fine_mats, monkeypatch):
    coarse = dataclasses.replace(fine_mats)  # no dense view cached by other tests
    refined = []

    def capturing_assemble(*args, **kwargs):
        refined.append(assemble(*args, **kwargs))
        return refined[-1]

    monkeypatch.setattr(eigen, "assemble", capturing_assemble)
    resolved_factor_eigens(coarse, 40)
    assert len(refined) == 1 and refined[0].ndof == 2 * coarse.ndof - 1
    for mats in (coarse, refined[0]):
        assert not {"mass", "stiffness", "grad_coupling"} & set(vars(mats))


def test_k_validation():
    mats = factor_mats(n_el=10)
    with pytest.raises(ValueError):
        solve_factor_eigens(mats, 0)
    with pytest.raises(ValueError):
        solve_factor_eigens(mats, mats.ndof + 1)


def synthetic_system(values_by_factor):
    factors = [FactorEigens(values=np.asarray(v, dtype=float),
                            vectors=np.eye(len(v)), mats=None)
               for v in values_by_factor]
    return tuple(factors)


def test_tensor_eigenvalue_formula():
    sys = synthetic_system([[1.0, 3.0], [1.0, 5.0]])
    assert tensor_eigenvalue(sys, (1, 1)) == 1.0
    assert tensor_eigenvalue(sys, (2, 2)) == 7.0
    assert tensor_eigenvalue(sys, (2, 1)) == 3.0
    with pytest.raises(IndexError):
        tensor_eigenvalue(sys, (3, 1))
    with pytest.raises(ValueError):
        tensor_eigenvalue(sys, (1, 1, 1))


def test_tensorized_pairs_against_kronecker_operator():
    mats = factor_mats(n_el=15)
    k = 4
    eig = solve_factor_eigens(mats, k)
    sys = (eig, eig)
    # H1 tensor form: mass x mass + stiffness x mass + mass x stiffness
    b_full = np.kron(mats.mass, mats.mass)
    a_full = b_full + np.kron(mats.stiffness, mats.mass) + np.kron(mats.mass, mats.stiffness)
    for n in range(k):
        for m in range(k):
            v = np.kron(eig.vectors[:, n], eig.vectors[:, m])
            rq = (v @ a_full @ v) / (v @ b_full @ v)
            assert abs(rq - tensor_eigenvalue(sys, (n + 1, m + 1))) <= 1e-9


def test_tensorized_pairs_orthogonal_in_both_products():
    mats = factor_mats(n_el=15)
    eig = solve_factor_eigens(mats, 6)
    b_full = np.kron(mats.mass, mats.mass)
    a_full = b_full + np.kron(mats.stiffness, mats.mass) + np.kron(mats.mass, mats.stiffness)
    vecs = [np.kron(eig.vectors[:, n], eig.vectors[:, m])
            for n in range(6) for m in range(6)]
    for i, v in enumerate(vecs):
        for j, w in enumerate(vecs):
            if i != j:
                assert abs(v @ b_full @ w) <= 1e-9
                assert abs(v @ a_full @ w) <= 1e-9


def test_weyl_fit_synthetic_and_degenerate():
    exact = np.arange(1, 51, dtype=float) ** 2
    fit = weyl_fit(exact, d=1, tail=(5, 40))
    assert fit.c1 == fit.c2 == 1.0
    assert fit.ratio == 1.0
    single = weyl_fit(exact, tail=(7, 7))
    assert single.c1 == single.c2
    with pytest.raises(ValueError):
        weyl_fit(exact, tail=(0, 10))
    with pytest.raises(ValueError):
        weyl_fit(exact, tail=(40, 60))


def test_weyl_fit_warns_on_unresolved_tail(caplog):
    values = np.arange(1, 21, dtype=float) ** 2
    resolved = np.ones(20, dtype=bool)
    resolved[15:] = False
    with caplog.at_level(logging.WARNING, logger="greedy_ou.eigen"):
        weyl_fit(values, tail=(10, 20), resolved=resolved)
    assert any("resolved" in rec.message for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="greedy_ou.eigen"):
        weyl_fit(values, tail=(2, 12), resolved=resolved)
    assert not caplog.records


def test_weyl_fit_is_a_two_sided_bound_holder():
    # measured constants must bracket every tail eigenvalue by construction
    eig = solve_factor_eigens(factor_mats(n_el=150), 40)
    fit = weyl_fit(eig.values, d=1, tail=(10, 40))
    n = np.arange(10, 41, dtype=float)
    lam = eig.values[9:40]
    assert np.all(fit.c1 * n ** 2 <= lam * (1 + 1e-12))
    assert np.all(lam <= fit.c2 * n ** 2 * (1 + 1e-12))
    assert isinstance(fit, WeylFit)
