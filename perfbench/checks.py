"""Output checks that hold for every seed.

Each check returns a list of problems; an empty list means the command's
outputs are correct.  Tolerances are fixed here, never derived from the
outputs being checked.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SOLVE_HEADER = ["n", "err_energy", "term_norm_a", "ortho_defect", "surrogate", "alpha_json"]
EIG_HEADER = ["factor", "n", "lambda", "resolved_flag"]

MONOTONE_REL_TOL = 1e-12
FIRST_EIGENVALUE_TOL = 1e-8
PARSEVAL_TOL = 1e-10


def _read_csv(path: Path):
    if not path.is_file():
        return [], []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_solve(code: int, out: Path, raw: dict) -> tuple[list, list]:
    """Problems with a `solve` run, and its err_energy column."""
    if code not in (0, 2):
        return [f"solve exited {code}"], []
    header, rows = _read_csv(out / "solve.csv")
    if header != SOLVE_HEADER:
        return [f"solve.csv header {header}"], []
    problems = []
    n_max = raw["n_max"]
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("solve.csv iterations are not 1..n")
    if not rows or len(rows) > n_max or (code == 2 and len(rows) != n_max):
        problems.append(f"{len(rows)} trace rows for exit {code} and n_max {n_max}")
    errs = [float(r[1]) for r in rows]
    for n, (prev, cur) in enumerate(zip(errs, errs[1:]), start=2):
        if not cur <= prev * (1.0 + MONOTONE_REL_TOL):
            problems.append(f"err_energy rises at n={n}: {prev!r} -> {cur!r}")
    if errs:
        envelope = sum(abs(c) for c in raw["target"]["coefficients"]) * len(errs) ** (-1 / 6)
        if not errs[-1] <= envelope:
            problems.append(f"err_final {errs[-1]!r} above the PGA envelope {envelope!r}")
    for r in rows:
        n = int(r[0])
        if raw["algorithm"] == "oga":
            try:
                alpha = json.loads(r[5])
            except json.JSONDecodeError:
                alpha = None
            if not isinstance(alpha, list) or len(alpha) != n:
                problems.append(f"OGA row {n} has alpha_json {r[5]!r}")
        elif r[5] != "":
            problems.append(f"PGA row {n} has alpha_json {r[5]!r}")
    return problems, errs


def check_spectrum(codes: tuple, out: Path, raw: dict) -> list:
    """Problems with an `eig` then `regularity` pair."""
    if codes != (0, 0):
        return [f"eig, regularity exited {codes}"]
    problems = []
    header, rows = _read_csv(out / "eig.csv")
    if header != EIG_HEADER:
        return [f"eig.csv header {header}"]
    k = raw["eig"]["k"]
    for factor in range(raw["n_factors"]):
        mine = [r for r in rows if int(r[0]) == factor]
        values = [float(r[2]) for r in mine]
        if [int(r[1]) for r in mine] != list(range(1, k + 1)):
            problems.append(f"factor {factor}: eig.csv rows are not n=1..{k}")
            continue
        if not abs(values[0] - 1.0) <= FIRST_EIGENVALUE_TOL:
            problems.append(f"factor {factor}: first eigenvalue {values[0]!r} is not 1")
        if any(not b > a for a, b in zip(values, values[1:])):
            problems.append(f"factor {factor}: eigenvalues do not ascend")
    if not (out / "regularity.json").is_file():
        return problems + ["regularity.json missing"]
    with open(out / "regularity.json") as fh:
        report = json.load(fh)
    weight_sq = sum(t["weight"] ** 2 for t in raw["target"]["terms"])
    if not abs(report["l2m_norm_sq"] - weight_sq) <= PARSEVAL_TOL:
        problems.append(f"l2m_norm_sq {report['l2m_norm_sq']!r} is not sum w^2 = {weight_sq!r}")
    if not abs(report["parseval_defect"]) <= PARSEVAL_TOL:
        problems.append(f"parseval_defect {report['parseval_defect']!r}")
    return problems
