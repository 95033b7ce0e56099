"""End-to-end checks of the command-line front end and config validation."""

import csv
import json
import logging

import pytest

import greedy_ou
from greedy_ou import cli, greedy
from greedy_ou.config import ConfigError, validate_config


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


def test_validate_config_rejects_unknown_kinds():
    with pytest.raises(ConfigError, match="coupling.kind"):
        validate_config(base_config(coupling={"kind": "circulant"}))
    with pytest.raises(ConfigError, match="target.kind"):
        validate_config(base_config(target={"kind": "mystery"}))
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


def test_coefficient_file_index_length_refused(tmp_path, capsys):
    coeff_path = tmp_path / "coeffs.json"
    coeff_path.write_text(json.dumps({"terms": [{"weight": 1.0, "index": [1]}]}))
    raw = base_config(target={"kind": "coefficient_file", "path": str(coeff_path)})
    code = cli.main(["regularity", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "target.terms[0].index: expected 2 entries, got 1" in capsys.readouterr().err


def test_zero_seeds_accepted():
    cfg = validate_config(base_config(target={"seed": 0}, als={"seed": 0}))
    assert cfg.seed == 0 and cfg.target["seed"] == 0


def test_negative_target_seed_fails_sweep_before_any_run(tmp_path, capsys):
    sweep = {"schema_version": 1, "base": base_config(),
             "runs": [{"name": "ok", "overrides": {}},
                      {"name": "bad", "overrides": {"target": {"seed": -1}}}]}
    code = cli.main(["sweep", "--config", write_config(tmp_path, sweep), "--out",
                     str(tmp_path / "out")])
    assert code == 1
    assert "target.seed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ok").exists()


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


def test_seed_flag_overrides_and_hashes(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    cli.main(["solve", "--config", cfg, "--out", str(out_a)])
    cli.main(["solve", "--config", cfg, "--out", str(out_b), "--seed", "7"])
    cli.main(["solve", "--config", cfg, "--out", str(out_c), "--seed", "7"])
    rec = [json.loads((o / "runrecord.json").read_text()) for o in (out_a, out_b, out_c)]
    assert rec[0]["config_hash"] != rec[1]["config_hash"]
    assert rec[1]["config_hash"] == rec[2]["config_hash"]
    assert (out_b / "solve.csv").read_bytes() == (out_c / "solve.csv").read_bytes()


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


def test_exact_dual_column_matches_energy_error(tmp_path):
    out = tmp_path / "out"
    raw = base_config(n_max=4, tol_stop=1e-10)
    code = cli.main(["solve", "--config", write_config(tmp_path, raw),
                     "--out", str(out), "--exact-dual"])
    assert code in (0, 2)
    header, rows = read_csv(out / "solve.csv")
    assert header[-1] == "dual_norm"
    for row in rows:
        err, dual = float(row[1]), float(row[6])
        if err > 1e-6:
            assert dual == pytest.approx(err, rel=1e-6)


def test_exact_dual_assembles_dense_form_once(tmp_path, monkeypatch):
    calls = []
    assemble_dense = greedy.assemble_dense

    def counted(*args):
        calls.append(args)
        return assemble_dense(*args)

    monkeypatch.setattr(greedy, "assemble_dense", counted)
    out = tmp_path / "out"
    raw = base_config(n_max=4, tol_stop=1e-10)
    cli.main(["solve", "--config", write_config(tmp_path, raw), "--out", str(out),
              "--exact-dual"])
    _, rows = read_csv(out / "solve.csv")
    assert len(rows) >= 2
    assert len(calls) == 1


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


def test_regularity_coefficient_file_target(tmp_path):
    coeff_path = tmp_path / "coeffs.json"
    coeff_path.write_text(json.dumps(
        {"terms": [{"weight": 1.0, "index": [1, 1]},
                   {"weight": 0.5, "index": [2, 1]}]}))
    raw = base_config(
        mesh={"n_el": 12},
        target={"kind": "coefficient_file", "path": str(coeff_path)},
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
