"""End-to-end checks of the command-line front end and config validation."""

import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greedy_ou
from greedy_ou import cli, config, eigen, fem, greedy
from greedy_ou.config import ConfigError, build_problem, build_target, validate_config

from dense_oracle import assemble_dense, dense_energy_norm


def base_config(**overrides):
    raw = {
        "schema_version": 1,
        "n_factors": 2,
        "factors": [{"kind": "fene", "b": 4.0}],
        "coupling": {"kind": "rouse", "off_diag": -0.5},
        "wi": 1.0,
        "c": 1.0,
        "mesh": {"n_el": 6, "grading": 1.0, "degree": 2},
        "algorithm": "pga",
        "tol_stop": 1e-8,
        "n_max": 8,
        "als": {"tol": 1e-10, "max_sweeps": 80, "restarts": 2, "seed": 42},
        "target": {"kind": "manufactured", "coefficients": [1.0, 0.6, 0.3], "seed": 3},
        "eig": {"k": 10},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_public_names_resolve():
    assert [name for name in greedy_ou.__all__ if not hasattr(greedy_ou, name)] == []


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/spans.py wraps these call sites by name; a renamed one fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    original = greedy.als_rank1
    cfg = validate_config(base_config())
    form, mats = build_problem(cfg)
    target, _ = build_target(cfg, form, mats)
    rhs = greedy.Functional.from_target(form, mats, target)
    with spans.Tracer().installed() as tracer:
        approx, _ = greedy.run_pga(form, mats, rhs, n_max=2, target=target)
    assert greedy.als_rank1 is original
    assert {"greedy.als_best", "greedy.als_rank1", "greedy.slot_vector",
            "greedy.energy_norm"} <= {s.name for s in tracer.spans}
    residual = rhs - greedy.Functional.from_target(form, mats, approx)
    assert len(residual.terms) == residual.rank
    # greedy.als_rank1.sweeps_mean is slot_vector spans over N per als_rank1
    # call: one span per slot solve, so a call cut at 3 sweeps records 3 N
    for n in (2, 3):
        cfg = validate_config(base_config(n_factors=n))
        form, mats = build_problem(cfg)
        target, _ = build_target(cfg, form, mats)
        rhs = greedy.Functional.from_target(form, mats, target)
        init = greedy.random_unit_term(mats, np.random.default_rng(n))
        with spans.Tracer().installed() as tracer:
            greedy.als_rank1(form, mats, rhs, init, tol=0.0, max_sweeps=3)
        names = [s.name for s in tracer.spans]
        assert (names.count("greedy.als_rank1"), names.count("greedy.slot_vector")) == (1, 3 * n)


# --- validation ---

def test_non_spd_coupling_names_offending_eigenvalue(tmp_path, capsys):
    raw = base_config(coupling={"kind": "explicit", "matrix": [[1.0, 2.0], [2.0, 1.0]]})
    code = cli.main(["solve", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "coupling" in err
    assert "not positive definite" in err
    assert "-1.0" in err


def test_validation_reports_field_paths(tmp_path, capsys):
    raw = base_config()
    del raw["wi"]
    code = cli.main(["solve", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "wi: missing required field" in capsys.readouterr().err


def test_bad_spring_parameter_path(tmp_path, capsys):
    raw = base_config(factors=[{"kind": "fene", "b": 2.0}, {"kind": "fene", "b": 4.0}])
    code = cli.main(["solve", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "factors[0].b" in capsys.readouterr().err


def test_empty_target_refused(tmp_path, capsys):
    raw = base_config(target={"kind": "manufactured", "coefficients": [], "seed": 3})
    code = cli.main(["rates", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "target.coefficients" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command,text,message", [
    ("solve", "{bad", "invalid JSON in "),
    ("solve", "[1, 2]", "config must be a JSON object"),
    ("sweep", "[1, 2]", "sweep file must be a JSON object"),
])
def test_file_level_errors_have_no_empty_path(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


_NON_FINITE_FIELDS = {
    "wi": lambda v: {"wi": v},
    "c": lambda v: {"c": v},
    "tol_stop": lambda v: {"tol_stop": v},
    "als.tol": lambda v: {"als": {"tol": v}},
    "mesh.grading": lambda v: {"mesh": {"grading": v}},
    "factors[0].b": lambda v: {"factors": [{"kind": "fene", "b": v}, {"kind": "fene", "b": 4.0}]},
    "coupling.off_diag": lambda v: {"coupling": {"off_diag": v}},
    "coupling.matrix": lambda v: {"coupling": {"kind": "explicit",
                                               "matrix": [[1.0, v], [v, 1.0]]}},
    "target.coefficients[0]": lambda v: {"target": {"coefficients": [v, 0.6, 0.3]}},
    "target.terms[0].weight": lambda v: {"target": {"kind": "eigen",
                                                    "terms": [{"weight": v, "index": [1, 2]}]}},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field", list(_NON_FINITE_FIELDS))
def test_non_finite_numbers_refused(tmp_path, capsys, field, value):
    # json reads NaN and Infinity; each is refused with its field path
    raw = base_config(**_NON_FINITE_FIELDS[field](value))
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {field}: must be a finite number\n"
    assert list(out.iterdir()) == []


_REFUSALS = {
    "missing field": ({"factors": [{"b": 4.0}]}, "factors[0].kind: missing required field"),
    "mistyped field": ({"coupling": "rouse"}, "coupling: expected dict, got str"),
    "mistyped integer": ({"mesh": {"n_el": 6.0}}, "mesh.n_el: expected int, got float"),
    "non-number": ({"wi": "1"}, "wi: expected a number"),
    "boolean number": ({"c": True}, "c: expected a number"),
    "not above minimum": ({"c": 0}, "c: must be greater than 0"),
    "below minimum": ({"mesh": {"grading": 0.5}}, "mesh.grading: must be at least 1.0"),
    "factor count": ({"factors": [{"kind": "fene", "b": 4.0}] * 3},
                     "factors: expected 2 entries, got 3"),
    "factor not an object": ({"factors": ["fene"]},
                             "factors[0]: expected an object with kind and b"),
    "unknown spring kind": ({"factors": [{"kind": "hooke", "b": 4.0}]},
                            "factors[0].kind: unknown spring kind 'hooke'"),
    "matrix shape": ({"coupling": {"kind": "explicit", "matrix": [[1.0, 0.0, 0.0]]}},
                     "coupling.matrix: expected shape (2, 2), got (1, 3)"),
    "ragged matrix": ({"coupling": {"kind": "explicit", "matrix": [[1.0], [1.0, 2.0]]}},
                      "coupling.matrix: expected a list of equal-length rows of numbers"),
    "non-numeric matrix entry": ({"coupling": {"kind": "explicit",
                                               "matrix": [["a", 0.0], [0.0, 1.0]]}},
                                 "coupling.matrix: expected a list of equal-length rows of "
                                 "numbers"),
    "boolean matrix entry": ({"coupling": {"kind": "explicit",
                                           "matrix": [[True, 0], [0, 1]]}},
                             "coupling.matrix: expected a list of equal-length rows of numbers"),
    "numeric string matrix entry": ({"coupling": {"kind": "explicit",
                                                  "matrix": [["1", "0"], ["0", "1.0"]]}},
                                    "coupling.matrix: expected a list of equal-length rows of "
                                    "numbers"),
    "empty eigen terms": ({"target": {"kind": "eigen", "terms": []}},
                          "target.terms: must be a nonempty list"),
    "eigen term not an object": ({"target": {"kind": "eigen", "terms": [3]}},
                                 "target.terms[0]: expected an object with weight and index"),
    "zero eigen index": ({"target": {"kind": "eigen", "terms": [{"weight": 1.0,
                                                                 "index": [0, 1]}]}},
                         "target.terms[0].index: expected a list of positive integers"),
    "empty eigen index": ({"target": {"kind": "eigen", "terms": [{"weight": 1.0,
                                                                  "index": []}]}},
                          "target.terms[0].index: expected a list of positive integers"),
    "boolean eigen index": ({"target": {"kind": "eigen", "terms": [{"weight": 1.0,
                                                                    "index": [True, 1]}]}},
                            "target.terms[0].index: expected a list of positive integers"),
    "n_el below 4": ({"mesh": {"n_el": 3}}, "mesh.n_el: must be at least 4"),
    "coincident mesh nodes": ({"mesh": {"n_el": 6, "grading": 40.0}},
                              "mesh.grading: grading 40.0 on 6 elements makes coincident nodes"),
    "unknown algorithm": ({"algorithm": "cg"}, "algorithm: must be 'pga' or 'oga', got 'cg'"),
    "als not an object": ({"als": []}, "als: expected an object"),
    "eig not an object": ({"eig": 5}, "eig: expected an object"),
    "box length": ({"box": [3]}, "box: expected a list of 2 positive integers"),
    "box entry": ({"box": [3, 0]}, "box: expected a list of 2 positive integers"),
    "box not a list": ({"box": "3"}, "box: expected a list of 2 positive integers"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_config_refusals_name_their_field(tmp_path, capsys, case):
    overrides, line = _REFUSALS[case]
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", write_config(tmp_path, base_config(**overrides)),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, n_el, grading, elements", [
    ("eig", 6, 40.0, 6), ("regularity", 6, 40.0, 6),
    # at n_el 20 the configured nodes are distinct, those of the gate's 40-element refinement not
    ("eig", 20, 14.0, 40), ("regularity", 20, 14.0, 40)])
def test_coincident_mesh_nodes_refused_before_assembly(tmp_path, capsys, command, n_el,
                                                       grading, elements):
    out = tmp_path / "out"
    raw = base_config(mesh={"n_el": n_el, "grading": grading})
    code = cli.main([command, "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (f"error: mesh.grading: grading {grading!r} on {elements} "
                                       "elements makes coincident nodes\n")
    assert list(out.iterdir()) == []


def test_integers_past_float_range_refused():
    raw = base_config(coupling={"kind": "explicit", "matrix": [[1, 10 ** 400], [10 ** 400, 1]]})
    with pytest.raises(ConfigError, match=r"^coupling.matrix: must be a finite number$"):
        validate_config(json.loads(json.dumps(raw)))
    with pytest.raises(ConfigError, match=r"^wi: must be a finite number$"):
        validate_config(json.loads(json.dumps(base_config(wi=10 ** 400))))


def test_tol_stop_above_one_refused():
    with pytest.raises(ConfigError, match=r"^tol_stop: must be at most 1$"):
        validate_config(base_config(tol_stop=1.5))
    assert validate_config(base_config(tol_stop=1)).tol_stop == 1.0


def test_validate_config_rejects_unknown_kinds():
    with pytest.raises(ConfigError, match="coupling.kind"):
        validate_config(base_config(coupling={"kind": "circulant"}))
    with pytest.raises(ConfigError, match="target.kind"):
        validate_config(base_config(target={"kind": "mystery"}))
    # a run's only input is its config file: file terms go inline under an eigen target
    with pytest.raises(ConfigError,
                       match=r"^target\.kind: unknown target kind 'coefficient_file'$"):
        validate_config(base_config(target={"kind": "coefficient_file", "path": "c.json"}))
    with pytest.raises(ConfigError, match="schema_version"):
        validate_config(base_config(schema_version=99))


@pytest.mark.parametrize("seed", [-1, 3.7, True, "7"])
def test_seeds_must_be_non_negative_integers(seed):
    with pytest.raises(ConfigError, match=r"^target\.seed: expected a non-negative integer$"):
        validate_config(base_config(target={"seed": seed}))
    with pytest.raises(ConfigError, match=r"^als\.seed: expected a non-negative integer$"):
        validate_config(base_config(als={"seed": seed}))


def test_asymmetric_coupling_refused():
    with pytest.raises(ConfigError, match=r"^coupling: coupling matrix must be symmetric$"):
        validate_config(base_config(
            coupling={"kind": "explicit", "matrix": [[1.0, 0.1], [0.2, 1.0]]}))


@pytest.mark.parametrize("degree", [2.0, True])
def test_mesh_degree_must_be_integer_one_or_two(degree):
    with pytest.raises(ConfigError, match=r"^mesh\.degree: must be 1 or 2"):
        validate_config(base_config(mesh={"degree": degree}))


@pytest.mark.parametrize("index", [[1], [1, 1, 1]])
def test_eigen_target_index_length_refused_at_validation(index):
    terms = [{"weight": 1.0, "index": [1, 1]}, {"weight": 0.5, "index": index}]
    with pytest.raises(ConfigError,
                       match=r"^target\.terms\[1\]\.index: expected 2 entries, got "):
        validate_config(base_config(target={"kind": "eigen", "terms": terms}))


@pytest.mark.parametrize("degree,size", [(1, 7), (2, 13)])  # 6 elements
def test_index_beyond_basis_refused_at_validation(degree, size):
    terms = [{"weight": 1.0, "index": [1, 1]}, {"weight": 0.5, "index": [1, size + 1]}]
    raw = base_config(mesh={"degree": degree}, target={"kind": "eigen", "terms": terms})
    with pytest.raises(ConfigError, match=rf"^target\.terms\[1\]\.index: index {size + 1} "
                                          rf"exceeds basis size {size}$"):
        validate_config(raw)


@pytest.mark.parametrize("command,flags", [
    pytest.param("solve", ["--seed", "7"], id="solve"),
    pytest.param("sweep", ["--seed", "7"], id="sweep"),
    # the error column is exact at every size, so no dense check is left to ask for
    pytest.param("solve", ["--exact-dual"], id="exact-dual"),
])
def test_seed_flag_refused(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", write_config(tmp_path, base_config()),
                  "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parser_is_built_once():
    # every cli.main call parses with the one parser the first call built
    assert cli._build_parser() is cli._build_parser()


def test_equal_factor_models_share_one_basis(monkeypatch):
    calls = []
    for name in ("assemble", "normalize"):
        original = getattr(config, name)
        monkeypatch.setattr(config, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    _, mats = build_problem(validate_config(base_config(n_factors=3)))
    assert sorted(calls) == ["assemble", "normalize"]
    assert mats[0] is mats[1] is mats[2]
    calls.clear()
    _, mats = build_problem(validate_config(base_config(
        factors=[{"kind": "fene", "b": 4.0}, {"kind": "cpail", "b": 6.0}])))
    assert sorted(calls) == ["assemble", "assemble", "normalize", "normalize"]
    assert mats[0] is not mats[1]


@pytest.mark.parametrize("command", ["solve", "eig"])
def test_basis_with_underflowing_mass_refused(tmp_path, capsys, command):
    # at FENE b=1000 the weight underflows on the boundary elements of a
    # 20-element mesh, so the mass band has no Cholesky factor
    raw = base_config(factors=[{"kind": "fene", "b": 4.0}, {"kind": "fene", "b": 1000.0}],
                      mesh={"n_el": 20})
    code = cli.main([command, "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: factors[1].b: mass matrix not positive definite")
    assert "on 20 elements" in err and "M[0, 0] = 0 underflows" in err


@pytest.mark.parametrize("command", ["eig", "regularity"])
def test_refined_basis_with_underflowing_mass_refused(tmp_path, capsys, command):
    # at FENE b=700 the configured 20-element mass band keeps a Cholesky
    # factor (M[0, 0] = 1.6e-260), but the 40-element basis of the resolution
    # gate underflows; solve builds only the configured basis
    raw = base_config(factors=[{"kind": "fene", "b": 700.0}], coupling={"kind": "identity"},
                      mesh={"n_el": 20},
                      target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 1]}]})
    path, out = write_config(tmp_path, raw), str(tmp_path / "out")
    assert cli.main([command, "--config", path, "--out", out]) == 1
    # one line on stderr, so no traceback
    assert capsys.readouterr().err == ("error: factors[0].b: mass matrix not positive definite "
                                       "on 40 elements: the boundary mass M[0, 0] = 0 underflows\n")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0


@pytest.mark.parametrize("command", ["eig", "regularity"])
def test_refined_basis_refusal_names_its_factor(tmp_path, capsys, command):
    # two spring models: only the b=700 basis fails at the gate's 40 elements,
    # so the refusal names the second factor's b
    raw = base_config(factors=[{"kind": "fene", "b": 4.0}, {"kind": "fene", "b": 700.0}],
                      coupling={"kind": "identity"}, mesh={"n_el": 20},
                      target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 1]}]})
    code = cli.main([command, "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ("error: factors[1].b: mass matrix not positive definite "
                                       "on 40 elements: the boundary mass M[0, 0] = 0 underflows\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "eig"])
@pytest.mark.parametrize("kind,b", [("cpail", 1e12), ("fene", 1e9)])
def test_weight_without_finite_normalisation_refused(tmp_path, capsys, command, kind, b):
    # the Gauss-Jacobi rule gives NaN nodes at these exponents, so z_inv is
    # NaN; scipy's RuntimeWarnings on the way are silenced, here raised
    raw = base_config(factors=[{"kind": kind, "b": b}])
    code = cli.main([command, "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    # one line on stderr, so no traceback
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: factors[0].b: weight normalisation nan is not finite\n"


def test_finite_normalisation_at_fene_b_3e8_is_not_refused():
    # z_inv is still finite there, so the refusal that follows at a 6-element
    # mesh is the underflowing mass band's, not the normalisation's
    cfg = validate_config(base_config(factors=[{"kind": "fene", "b": 3e8}]))
    assert config.normalize(cfg.factor_models[0]).z_inv == pytest.approx(0.3989422813987884)
    with pytest.raises(ConfigError, match=r"^factors\[0\]\.b: mass matrix not positive"):
        build_problem(cfg)


def test_each_distinct_basis_is_resolved_once(tmp_path, monkeypatch):
    # three equal factors share one basis: one coarse and one refined solve
    solves = []
    solve = eigen.solve_factor_eigens
    monkeypatch.setattr(eigen, "solve_factor_eigens",
                        lambda mats, k, **kw: solves.append(mats.ndof) or solve(mats, k, **kw))
    raw = base_config(n_factors=3, eig={"k": 4}, box=[2, 2, 2],
                      target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 2, 3]}]})
    cfg = write_config(tmp_path, raw)
    for command in ("eig", "regularity"):
        solves.clear()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert solves == [13, 25]


@pytest.mark.parametrize("n_el", [6, 120], ids=["dense", "banded"])
def test_only_regularity_builds_vectors_on_its_coarse_bases(tmp_path, monkeypatch, n_el):
    # eig and the refinement gate read eigenvalues only; regularity's eigen
    # target and Fourier coefficients read the coarse bases' vectors
    solves = []
    solve = eigen.solve_factor_eigens

    def recording(mats, k, vectors=True):
        solves.append((mats.ndof, vectors))
        return solve(mats, k, vectors=vectors)

    monkeypatch.setattr(eigen, "solve_factor_eigens", recording)
    raw = base_config(factors=[{"kind": "fene", "b": 4.0}, {"kind": "cpail", "b": 6.0}],
                      mesh={"n_el": n_el}, eig={"k": 4}, box=[2, 2],
                      target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 2]}]})
    cfg = write_config(tmp_path, raw)
    coarse, fine = 2 * n_el + 1, 4 * n_el + 1
    assert (coarse >= fem.BANDED_MIN_NDOF) == (n_el == 120)
    assert cli.main(["eig", "--config", cfg, "--out", str(tmp_path / "eig")]) == 0
    assert solves == [(coarse, False), (fine, False)] * 2
    solves.clear()
    assert cli.main(["regularity", "--config", cfg, "--out", str(tmp_path / "reg")]) == 0
    assert solves == [(coarse, True), (fine, False)] * 2


def test_target_solves_each_distinct_basis_and_k_once(monkeypatch):
    cfg = validate_config(base_config(
        n_factors=3, target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [2, 2, 3]}]}))
    form, mats = build_problem(cfg)
    ks = []
    solve = config.solve_factor_eigens
    monkeypatch.setattr(config, "solve_factor_eigens", lambda m, k: ks.append(k) or solve(m, k))
    target = config.separated_target(cfg, form, mats)
    assert ks == [2, 3]
    second, third = solve(mats[0], 2).vectors[:, [1]], solve(mats[2], 3).vectors[:, [2]]
    for got, want in zip(target.factors, (second, second, third)):
        assert np.array_equal(got, want)


def test_zero_seeds_accepted():
    cfg = validate_config(base_config(target={"seed": 0}, als={"seed": 0}))
    assert cfg.seed == 0 and cfg.target["seed"] == 0


@pytest.mark.parametrize("target,field", [
    ({"seed": -1}, "target.seed"),
    ({"kind": "coefficient_file", "path": "coeffs.json"}, "target.kind"),
    ({"kind": "eigen", "terms": [{"weight": 1.0, "index": [14, 1]}]}, "target.terms[0].index"),
], ids=["negative-seed", "coefficient-file", "index-beyond-basis"])
def test_bad_run_fails_sweep_before_any_run(tmp_path, capsys, target, field):
    sweep = {"schema_version": 1, "base": base_config(),
             "runs": [{"name": "ok", "overrides": {}},
                      {"name": "bad", "overrides": {"target": target}}]}
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(out)])
    assert code == 1
    assert f"error: {field}: " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sweep_validates_each_run_once(tmp_path, monkeypatch):
    calls = []
    validate = cli.validate_config
    monkeypatch.setattr(cli, "validate_config", lambda raw: calls.append(raw) or validate(raw))
    sweep = {"schema_version": 1, "base": base_config(n_max=2),
             "runs": [{"name": "a", "overrides": {}}, {"name": "b", "overrides": {}}]}
    cli.main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(tmp_path / "out")])
    assert len(calls) == 2
    assert (tmp_path / "out" / "b" / "solve.csv").exists()


# --- solve ---

def test_solve_writes_csv_and_runrecord(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out)])
    assert code in (0, 2)
    header, rows = read_csv(out / "solve.csv")
    assert header == ["n", "err_energy", "term_norm_a", "ortho_defect",
                      "surrogate", "alpha_json"]
    assert rows
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    record = json.loads((out / "runrecord.json").read_text())
    assert record["n_iterations"] == len(rows)
    assert len(record["config_hash"]) == 64
    for row, rec in zip(rows, record["rows"]):
        assert float(row[1]) == rec["err_energy"]
        assert float(row[2]) == rec["term_norm_a"]
        assert float(row[4]) == rec["surrogate"]


def test_runrecord_roundtrip_full_precision(tmp_path):
    out = tmp_path / "out"
    cli.main(["solve", "--config", write_config(tmp_path, base_config()),
              "--out", str(out)])
    text = (out / "runrecord.json").read_text()
    record = json.loads(text)
    again = json.loads(json.dumps(record))
    assert again == record
    for rec in record["rows"]:
        assert rec["err_energy"] == float(repr(rec["err_energy"]))


@pytest.mark.parametrize("algorithm", ["pga", "oga"])
def test_runrecord_rows_are_the_trace_rows_as_dicts(tmp_path, monkeypatch, algorithm):
    # rows are written from each row's own field dict, which reads as
    # dataclasses.asdict does only while no field nests a dataclass or a list
    runs = []
    run = cli._run_algorithm
    monkeypatch.setattr(cli, "_run_algorithm", lambda *args: runs.append(run(*args)) or runs[-1])
    out = tmp_path / "out"
    cli.main(["solve", "--config", write_config(tmp_path, base_config(algorithm=algorithm)),
              "--out", str(out)])
    (_, trace), = runs
    record = json.loads((out / "runrecord.json").read_text())
    assert record["rows"] == [json.loads(json.dumps(dataclasses.asdict(row)))
                              for row in trace.rows]


def test_csv_writes_numpy_floats_as_plain_digits(tmp_path):
    path = tmp_path / "rows.csv"
    cli._write_csv(path, ["a", "b", "c"], [[np.float64(0.1), 0.1, 3]])
    assert path.read_text() == "a,b,c\n0.1,0.1,3\n"


def test_solve_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.main(["solve", "--config", cfg, "--out", str(out)])
        outs.append(out)
    assert (outs[0] / "solve.csv").read_bytes() == (outs[1] / "solve.csv").read_bytes()
    records = [json.loads((o / "runrecord.json").read_text()) for o in outs]
    for record in records:
        record.pop("wall_clock_s")
    assert records[0] == records[1]


def test_rank_one_target_single_row(tmp_path):
    out = tmp_path / "out"
    raw = base_config(target={"kind": "manufactured", "coefficients": [2.0], "seed": 5},
                      tol_stop=1e-6)
    code = cli.main(["solve", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "solve.csv")
    assert len(rows) == 1
    assert float(rows[0][1]) <= 1e-6 * 2.0
    record = json.loads((out / "runrecord.json").read_text())
    assert record["status"] == "converged"


def test_iteration_cap_exit_code(tmp_path):
    out = tmp_path / "out"
    raw = base_config(n_max=2, tol_stop=1e-12)
    code = cli.main(["solve", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 2
    _, rows = read_csv(out / "solve.csv")
    assert len(rows) == 2


def test_als_seed_is_hashed_and_reruns_are_identical(tmp_path):
    paths = [write_config(tmp_path, base_config(als={"seed": seed}), f"seed{seed}.json")
             for seed in (42, 7)]
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    cli.main(["solve", "--config", paths[0], "--out", str(out_a)])
    cli.main(["solve", "--config", paths[1], "--out", str(out_b)])
    cli.main(["solve", "--config", paths[1], "--out", str(out_c)])
    rec = [json.loads((o / "runrecord.json").read_text()) for o in (out_a, out_b, out_c)]
    assert rec[0]["config_hash"] != rec[1]["config_hash"]
    assert rec[1]["config_hash"] == rec[2]["config_hash"]
    assert (out_b / "solve.csv").read_bytes() == (out_c / "solve.csv").read_bytes()


@pytest.mark.parametrize("command,output", [("solve", "runrecord.json"),
                                            ("regularity", "regularity.json")])
def test_config_hash_is_hash_of_the_config_file(tmp_path, command, output):
    raw = base_config(n_max=2, box=[3, 3])
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code in (0, 2)
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert json.loads((out / output).read_text())["config_hash"] == digest


def test_oga_alpha_column_and_error_vs_pga(tmp_path):
    results = {}
    for algo in ("pga", "oga"):
        out = tmp_path / algo
        raw = base_config(algorithm=algo, n_max=5, tol_stop=1e-10)
        code = cli.main(["solve", "--config", write_config(tmp_path, raw, f"{algo}.json"),
                         "--out", str(out)])
        assert code in (0, 2)
        _, rows = read_csv(out / "solve.csv")
        results[algo] = rows
    for row in results["pga"]:
        assert row[5] == ""
    for row in results["oga"]:
        alpha = json.loads(row[5])
        assert len(alpha) == int(row[0])
    n = min(len(results["pga"]), len(results["oga"]))
    for k in range(n):
        pga_err = float(results["pga"][k][1])
        oga_err = float(results["oga"][k][1])
        assert oga_err <= pga_err * (1 + 1e-8)


def test_oga_keeps_terms_far_below_the_first(tmp_path):
    # a rank-one target is captured to roundoff at row 1; every later term has
    # about 4e-10 of its norm and, left out of the Galerkin update, would be
    # captured again on every row up to n_max with the error unchanged
    out = tmp_path / "out"
    raw = base_config(mesh={"n_el": 8, "degree": 1}, algorithm="oga", tol_stop=1e-14,
                      n_max=15, als={"tol": 1e-15, "restarts": 4, "seed": 0},
                      target={"kind": "manufactured", "coefficients": [1.0], "seed": 7})
    code = cli.main(["solve", "--config", write_config(tmp_path, raw), "--out", str(out)])
    _, rows = read_csv(out / "solve.csv")
    assert code == 0 and len(rows) < 15
    assert float(rows[-1][1]) < 1e-3 * float(rows[0][1])
    assert min(json.loads(rows[1][5])) > 0.5


# --- eig ---

def test_eig_outputs_and_k_clamp_warning(tmp_path, caplog):
    out = tmp_path / "out"
    raw = base_config(eig={"k": 50})  # 6 elements at degree 2 only have 13 dof
    with caplog.at_level(logging.WARNING, logger="greedy_ou.cli"):
        code = cli.main(["eig", "--config", write_config(tmp_path, raw),
                         "--out", str(out)])
    assert code == 0
    assert any("clamp" in rec.message for rec in caplog.records)
    header, rows = read_csv(out / "eig.csv")
    assert header == ["factor", "n", "lambda", "resolved_flag"]
    assert len(rows) == 2 * 13
    first = [r for r in rows if r[0] == "0"]
    assert float(first[0][2]) == pytest.approx(1.0, abs=1e-9)
    assert first[0][3] == "1"
    lams = [float(r[2]) for r in first]
    assert lams == sorted(lams)
    summary = json.loads((out / "weyl.json").read_text())
    for i in (0, 1):
        entry = summary[f"factor_{i}"]
        assert entry["c1"] <= entry["c2"]
        assert entry["n_resolved"] >= 1


def test_weyl_tail_holds_two_eigenvalues_when_few_are_resolved(tmp_path):
    # n_el 20 resolves 6 of 40 eigenvalues per factor: the tail ends at 6
    # and must start below it, or the fit has one point and ratio 1
    out = tmp_path / "out"
    raw = base_config(factors=[{"kind": "fene", "b": 4.0}, {"kind": "cpail", "b": 6.0}],
                      mesh={"n_el": 20}, eig={"k": 40})
    assert cli.main(["eig", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    summary = json.loads((out / "weyl.json").read_text())
    for i in (0, 1):
        entry = summary[f"factor_{i}"]
        assert entry["n_resolved"] == 6
        assert entry["tail"] == [5, 6]
        assert entry["ratio"] > 1.0


def test_eig_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, base_config(mesh={"n_el": 8}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.main(["eig", "--config", cfg, "--out", str(out)])
        outs.append(out)
    assert (outs[0] / "eig.csv").read_bytes() == (outs[1] / "eig.csv").read_bytes()
    assert (outs[0] / "weyl.json").read_bytes() == (outs[1] / "weyl.json").read_bytes()


# --- rates ---

def test_rates_compares_both_algorithms(tmp_path):
    out = tmp_path / "out"
    raw = base_config(n_max=6, tol_stop=1e-10)
    code = cli.main(["rates", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "rates.csv")
    assert header == ["algorithm", "n", "err_energy", "envelope", "within"]
    algos = {r[0] for r in rows}
    assert algos == {"pga", "oga"}
    bound = sum(abs(c) for c in (1.0, 0.6, 0.3))
    for row in rows:
        if int(row[1]) == 1:
            assert float(row[3]) == pytest.approx(bound, rel=1e-12)
        assert row[4] in ("0", "1")
    slopes = json.loads((out / "rates.json").read_text())
    assert slopes["pga"]["envelope_exponent"] == pytest.approx(-1 / 6)
    assert slopes["oga"]["envelope_exponent"] == pytest.approx(-0.5)


def test_eigen_target_bound_is_the_sum_of_dense_term_norms(tmp_path):
    # the bound of an eigen target is sum_k |w_k| ||e_(n_k)||_a, each norm
    # here the dense e' A e of the Kronecker product of the factor eigenvectors
    terms = [{"weight": 1.0, "index": [1, 1]}, {"weight": -0.5, "index": [2, 3]},
             {"weight": 0.25, "index": [4, 1]}]
    raw = base_config(factors=[{"kind": "fene", "b": 4.0}, {"kind": "cpail", "b": 6.0}],
                      target={"kind": "eigen", "terms": terms}, n_max=3)
    path = write_config(tmp_path, raw)
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "solve")]) in (0, 2)
    bound = json.loads((tmp_path / "solve" / "runrecord.json").read_text())["target_norm_bound"]

    form, mats = build_problem(validate_config(raw))
    vectors = [eigen.solve_factor_eigens(m, 4).vectors for m in mats]
    a_full = assemble_dense(form, mats)
    want = sum(abs(t["weight"]) * dense_energy_norm(
        form, mats, greedy.rank_one([v[:, n - 1] for v, n in zip(vectors, t["index"])]), a_full)
        for t in terms)
    assert bound == pytest.approx(want, rel=1e-12)

    assert cli.main(["rates", "--config", path, "--out", str(tmp_path / "rates")]) == 0
    slopes = json.loads((tmp_path / "rates" / "rates.json").read_text())
    assert slopes["pga"]["envelope_constant"] == slopes["oga"]["envelope_constant"] == bound


# --- regularity ---

def test_regularity_ground_eigenfunction_target(tmp_path):
    out = tmp_path / "out"
    raw = base_config(
        mesh={"n_el": 12},
        target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 1]}]},
        eig={"k": 8},
        box=[4, 4])
    code = cli.main(["regularity", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    report = json.loads((out / "regularity.json").read_text())
    assert report["box"] == [4, 4]
    assert report["b1"]["total"] == pytest.approx(1.0, abs=1e-8)
    assert abs(report["parseval_defect"]) <= 1e-8
    for family in ("mix", "unif"):
        assert report[family]["suggests_membership"]
    assert report["mix"]["sigma_norm"] == pytest.approx(1.0, abs=1e-6)
    # both factor eigenvalues are 1, so the unif weight is 2**m
    assert report["unif"]["sigma_norm"] == pytest.approx(
        2.0 ** (report["unif"]["m"] / 2.0), rel=1e-8)
    assert len(report["config_hash"]) == 64


def test_regularity_eigen_terms_target(tmp_path):
    raw = base_config(
        mesh={"n_el": 12},
        target={"kind": "eigen", "terms": [{"weight": 1.0, "index": [1, 1]},
                                           {"weight": 0.5, "index": [2, 1]}]},
        eig={"k": 8},
        box=[4, 4])
    out = tmp_path / "out"
    code = cli.main(["regularity", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    report = json.loads((out / "regularity.json").read_text())
    assert report["l2m_norm_sq"] == pytest.approx(1.25, rel=1e-8)


def test_regularity_box_clamped_to_resolved(tmp_path, caplog):
    raw = base_config(box=[12, 12], eig={"k": 13})  # coarse mesh resolves fewer
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="greedy_ou.cli"):
        code = cli.main(["regularity", "--config", write_config(tmp_path, raw),
                         "--out", str(out)])
    assert code == 0
    report = json.loads((out / "regularity.json").read_text())
    assert all(b <= r for b, r in zip(report["box"], report["resolved_per_factor"]))


def test_regularity_above_the_crossover_reuses_the_system_and_builds_no_dense_view(
        tmp_path, monkeypatch):
    views, target_solves = [], []
    dense, solve = fem.FactorMatrices._dense, config.solve_factor_eigens

    def recording_dense(mats, *names):
        views.append(names)
        return dense(mats, *names)

    def recording_solve(*args):
        target_solves.append(args)
        return solve(*args)

    monkeypatch.setattr(fem.FactorMatrices, "_dense", recording_dense)
    monkeypatch.setattr(config, "solve_factor_eigens", recording_solve)
    terms = [{"weight": 1.0, "index": [1, 1]}, {"weight": -0.5, "index": [3, 2]}]
    for k, solves in ((10, 0), (2, 2)):  # the target's vectors come from the system if k covers them
        target_solves.clear()
        raw = base_config(mesh={"n_el": 100}, target={"kind": "eigen", "terms": terms},
                          eig={"k": k}, box=[2, 2])  # 201 dofs
        out = tmp_path / f"k{k}"
        assert cli.main(["regularity", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        assert len(target_solves) == solves
        report = json.loads((out / "regularity.json").read_text())
        assert report["l2m_norm_sq"] == pytest.approx(1.25, rel=1e-12)
    assert fem.BANDED_MIN_NDOF <= 201 and views == []


# --- sweep ---

def test_sweep_runs_batch_and_matches_serial(tmp_path):
    sweep = {
        "schema_version": 1,
        "base": base_config(n_max=4, tol_stop=1e-10),
        "runs": [
            {"name": "plain", "overrides": {}},
            {"name": "ortho", "overrides": {"algorithm": "oga"}},
        ],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out_serial = tmp_path / "serial"
    out_par = tmp_path / "par"
    code_serial = cli.main(["sweep", "--config", str(path), "--out", str(out_serial)])
    code_par = cli.main(["sweep", "--config", str(path), "--out", str(out_par),
                         "--jobs", "2"])
    assert code_serial == code_par
    assert code_serial in (0, 2)
    summary = json.loads((out_serial / "sweep.json").read_text())
    assert set(summary["runs"]) == {"plain", "ortho"}
    for name in ("plain", "ortho"):
        serial_csv = (out_serial / name / "solve.csv").read_bytes()
        par_csv = (out_par / name / "solve.csv").read_bytes()
        assert serial_csv == par_csv


def test_sweep_rejects_duplicate_names(tmp_path, capsys):
    sweep = {
        "schema_version": 1,
        "base": base_config(),
        "runs": [{"name": "x", "overrides": {}}, {"name": "x", "overrides": {}}],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "runs[1].name" in capsys.readouterr().err


@pytest.mark.parametrize("sweep,field", [
    ({"schema_version": 2}, "schema_version"),
    ({"base": None}, "base"),
    ({"runs": []}, "runs"),
    ({"runs": [{"overrides": {}}]}, "runs[0]"),
    ({"runs": [{"name": "a", "overrides": [1]}]}, "runs[0].overrides"),
    # the run's directory would take the name of the sweep's summary file
    ({"runs": [{"name": "sweep.json", "overrides": {}}]}, "runs[0].name"),
], ids=["schema-version", "missing-base", "empty-runs", "unnamed-run", "list-overrides",
        "summary-name"])
def test_bad_sweep_file_refused_before_any_run(tmp_path, capsys, sweep, field):
    raw = {"schema_version": 1, "base": base_config(),
           "runs": [{"name": "a", "overrides": {}}], **sweep}
    raw = {key: value for key, value in raw.items() if value is not None}  # None drops a key
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert list(out.iterdir()) == []


def test_sweep_asks_for_no_more_workers_than_runs(tmp_path, monkeypatch):
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    sweep = {"schema_version": 1, "base": base_config(n_max=2),
             "runs": [{"name": name, "overrides": {}} for name in ("a", "b")]}
    out = tmp_path / "out"
    cli.main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(out),
              "--jobs", "64"])
    assert asked == [2]
    assert (out / "a" / "solve.csv").exists() and (out / "b" / "solve.csv").exists()


def test_failing_sweep_run_is_recorded_and_later_runs_still_run(tmp_path, capsys, monkeypatch):
    solve = cli.cmd_solve

    def cmd_solve_stub(cfg, out_dir):
        if out_dir.name == "b":
            raise greedy.GreedyError("iteration 1: stub failure")
        return solve(cfg, out_dir)

    monkeypatch.setattr(cli, "cmd_solve", cmd_solve_stub)
    sweep = {"schema_version": 1, "base": base_config(n_max=2),
             "runs": [{"name": name, "overrides": {}} for name in ("a", "b", "c")]}
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(out)])
    assert code == 1
    assert "error: b: iteration 1: stub failure" in capsys.readouterr().err
    assert (out / "c" / "solve.csv").exists()
    codes = json.loads((out / "sweep.json").read_text())["runs"]
    assert codes["b"] == 1 and codes["a"] == codes["c"] != 1


def test_solve_leaves_scipy_sparse_unimported(tmp_path):
    # eigen imports scipy.sparse.linalg on first use, which keeps it (about
    # 4 MB) out of every solve; a fresh interpreter shows any eager import
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys; from greedy_ou import cli; cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    done = subprocess.run(
        [sys.executable, "-c", code, "solve", "--config", write_config(tmp_path, base_config()),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert (tmp_path / "out" / "solve.csv").exists()
    assert done.stdout.splitlines()[-1] == "[]"


def test_log_variable_takes_level_names_only(tmp_path):
    # BASIC_FORMAT is an attribute of logging but no level; a fresh
    # interpreter, since basicConfig is a no-op once the root logger has handlers
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys; from greedy_ou import cli; sys.exit(cli.main(sys.argv[1:]))"
    raw = base_config(n_factors=0)
    done = subprocess.run(
        [sys.executable, "-c", code, "solve", "--config", write_config(tmp_path, raw),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src), "GREEDY_OU_LOG": "BASIC_FORMAT"},
        capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == "error: n_factors: expected a positive integer\n"


def test_outputs_are_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # oga-n3-shaped solves (N = 3, P2, n_el 20, 20 and 30 rows): the error's
    # train has a 23 x 23 x 23 and a 33 x 33 x 33 core, contracted in batches
    # of gemms each below the size at which OpenBLAS splits a product across
    # threads, while a sum whose rounding followed such a split would move
    # err_energy: at R = 33, one 33 x 1089 x 33 gemm per environment rounds
    # differently at one and two threads.  Every slot solve is a dpbsv at
    # both thread counts.
    # OpenBLAS runs no more threads than there are CPUs, so on a one-CPU
    # machine both runs take one thread and this only shows that a rerun
    # repeats.
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys; from greedy_ou import cli; sys.exit(cli.main(sys.argv[1:]))"
    for n_max in (20, 30):
        raw = base_config(n_factors=3, mesh={"n_el": 20}, algorithm="oga", tol_stop=1e-12,
                          n_max=n_max,
                          als={"tol": 1e-10, "max_sweeps": 60, "restarts": 1, "seed": 680645901},
                          target={"kind": "manufactured", "coefficients": [0.8, 0.5, 0.3],
                                  "seed": 4133142942})
        config_path = write_config(tmp_path, raw, f"config-{n_max}.json")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{n_max}-{threads}"
            done = subprocess.run(
                [sys.executable, "-c", code, "solve", "--config", config_path, "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True)
            record = json.loads((out / "runrecord.json").read_text())
            del record["wall_clock_s"]
            outputs.append((done.returncode, (out / "solve.csv").read_bytes(), record))
        assert outputs[0][2]["n_iterations"] == n_max
        assert outputs[0] == outputs[1], n_max


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    trace = namespace["trace"]
    assert trace.rows and namespace["approx"].rank == len(trace.rows)
    assert trace.rows[-1].err_energy < trace.rows[0].err_energy
