"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.  Each
test gathers its failures into a list, prints a single [PASS]/[FAIL] line,
and asserts the list is empty, so the printed summary matches the pytest
outcome line for line.
"""

import csv
import json

import numpy as np
import pytest
from scipy.linalg import eigh as dense_eigh
from scipy.optimize import minimize

from greedy_ou import cli
from greedy_ou.diagnostics import (MIX, UNIF, CoeffTensor, WeightFamily, b1_bound,
                                   fourier_coeffs, sigma_norm)
from greedy_ou.eigen import (EigenSystem, resolved_factor_eigens, solve_factor_eigens,
                             tensor_eigenvalue, weyl_fit)
from greedy_ou.fem import assemble, build_mesh
from greedy_ou.greedy import (EnergyForm, Functional, RankOneTerm, SeparatedFunction,
                              als_best, energy_norm, energy_rank1, run_oga, run_pga)
from greedy_ou.springs import (CPAIL, FENE, SpringModel, boundary_limit_d2q, normalize,
                               q_theta)
from test_greedy import dense_slot_hessian

ROUSE2 = np.array([[1.0, -0.5], [-0.5, 1.0]])

# traces recorded by criteria 4-6 and re-checked wholesale by criterion 8
TRACES = []


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:02d}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def two_factor_setup(n_el, degree=2):
    models = [SpringModel(FENE, 4.0), SpringModel(CPAIL, 6.0)]
    mats = [assemble(build_mesh(m.b, n_el), normalize(m), degree) for m in models]
    return EnergyForm(ROUSE2, wi=1.0, c=1.0), mats


def manufactured(form, mats, rng, coeffs):
    """Separated target with unit-energy rank-one terms, so M = sum|c_k|."""
    terms = []
    for _ in coeffs:
        fac = [rng.standard_normal(m.ndof) for m in mats]
        t = RankOneTerm([f / np.sqrt(f @ m.mass @ f) for f, m in zip(fac, mats)])
        na = np.sqrt(energy_rank1(form, mats, t, t))
        t.factors[-1] = t.factors[-1] / na
        terms.append(t)
    return SeparatedFunction(coeffs, [np.column_stack(fs)
                                      for fs in zip(*(t.factors for t in terms))])


def record_trace(name, form, mats, target, trace):
    errs = [energy_norm(form, mats, target)] + [r.err_energy for r in trace.rows]
    TRACES.append((name, errs))
    return errs


def test_criterion_01_eigen_structure():
    failures = []
    for kind, b in ((FENE, 4.0), (CPAIL, 6.0)):
        mats = assemble(build_mesh(b, 200), normalize(SpringModel(kind, b)), 2)
        eig = solve_factor_eigens(mats, 20)
        if abs(eig.values[0] - 1.0) > 1e-8:
            failures.append(f"{kind}: lambda_1 = {eig.values[0]!r}")
        if np.max(np.abs(eig.vectors[:, 0] - 1.0)) > 1e-8:
            failures.append(f"{kind}: ground vector deviates from the constant")
        gram = eig.vectors.T @ mats.mass @ eig.vectors
        defect = np.max(np.abs(gram - np.eye(20)))
        if defect > 1e-10:
            failures.append(f"{kind}: orthonormality defect {defect:.3e}")

    mats = assemble(build_mesh(4.0, 15), normalize(SpringModel(FENE, 4.0)), 2)
    m, k = mats.mass, mats.stiffness
    h = np.kron(k, m) + np.kron(m, k) + np.kron(m, m)
    eig = solve_factor_eigens(mats, mats.ndof)
    dense_vals = dense_eigh(h, np.kron(m, m), eigvals_only=True)
    sums = np.sort(np.add.outer(eig.values, eig.values).ravel() - 1.0)
    diff = np.max(np.abs(dense_vals - sums))
    if diff > 1e-9:
        failures.append(f"tensor sum identity defect {diff:.3e} on {mats.ndof}^2 dof")
    sys2 = EigenSystem([eig, eig])
    worst = 0.0
    for n in (1, 6, 15, 31):
        for mm in (1, 8, 31):
            x = np.kron(eig.vectors[:, n - 1], eig.vectors[:, mm - 1])
            rq = (x @ h @ x) / (x @ np.kron(m, m) @ x)
            worst = max(worst, abs(rq - tensor_eigenvalue(sys2, (n, mm))))
    if worst > 1e-9:
        failures.append(f"Rayleigh quotient defect {worst:.3e}")
    _verdict(1, "factor eigenpairs and the tensor sum identity", failures)


def test_criterion_02_weyl_tail():
    failures = []
    weight = normalize(SpringModel(FENE, 4.0))
    fits = {}
    for n_el in (200, 400):
        eig = resolved_factor_eigens(assemble(build_mesh(4.0, n_el), weight, 2), 45)
        if eig.n_resolved < 40:
            failures.append(f"n_el={n_el}: only {eig.n_resolved} resolved eigenvalues")
            continue
        fits[n_el] = weyl_fit(eig.values, d=1, tail=(10, 40), resolved=eig.resolved)
    if len(fits) == 2:
        coarse, fine = fits[200], fits[400]
        if coarse.ratio > 2.0:
            failures.append(f"spread c2/c1 = {coarse.ratio:.4f} exceeds 2")
        for name, a, b in (("c1", coarse.c1, fine.c1), ("c2", coarse.c2, fine.c2)):
            drift = abs(b / a - 1.0)
            if drift > 0.05:
                failures.append(f"{name} drifts {drift:.3%} under mesh doubling")
    _verdict(2, "Weyl tail spread and mesh-doubling stability", failures)


def test_criterion_03_boundary_limit():
    failures = []
    model = SpringModel(FENE, 3.0)
    limit = boundary_limit_d2q(model)
    if limit != pytest.approx(-3.0 / 16.0):
        failures.append(f"closed-form limit returned {limit!r}")
    vals = [d * d * q_theta(model, 1.0, model.q_max - d) for d in (1e-2, 1e-3, 1e-4)]
    rel = abs(vals[-1] - limit) / abs(limit)
    if rel > 0.02:
        failures.append(f"finest distance off by {rel:.3%}: {vals}")
    drift = [abs(v - limit) for v in vals]
    if not drift[0] > drift[1] > drift[2]:
        failures.append(f"no convergence toward the limit: {vals}")

    bounded = SpringModel(FENE, 5.0)
    qs = np.linspace(-bounded.q_max, bounded.q_max, 10002)[1:-1]
    low = float(np.min(q_theta(bounded, 1.0, qs)))
    if low < 0.4:  # interior minimum is 7/16
        failures.append(f"b=5 potential dips to {low!r}")
    _verdict(3, "boundary limit of the squared-distance potential", failures)


def test_criterion_04_pga_identities():
    failures = []
    form, mats = two_factor_setup(n_el=6)
    rng = np.random.default_rng(2)
    for trial in range(20):
        rank = int(rng.integers(1, 6))
        target = manufactured(form, mats, rng, rng.uniform(0.2, 1.0, rank))
        _, trace = run_pga(form, mats, Functional.from_target(form, mats, target),
                           tol_stop=1e-12, n_max=6, restarts=2, rng=rng, target=target)
        errs = record_trace(f"pga-identity-{trial}", form, mats, target, trace)
        for row, e_prev, e_next in zip(trace.rows, errs, errs[1:]):
            gap = e_prev ** 2 - e_next ** 2
            captured = row.term_norm_a ** 2
            if abs(gap - captured) > 1e-8 * captured + 1e-12:
                failures.append(f"trial {trial} n={row.n}: "
                                f"energy identity off by {abs(gap - captured):.3e}")
            if abs(row.ortho_defect) > 1e-8:
                failures.append(f"trial {trial} n={row.n}: "
                                f"orthogonality defect {row.ortho_defect:.3e}")
    _verdict(4, "per-iteration energy identity and orthogonality", failures)


def test_criterion_05_rank_one_recovery():
    failures = []
    form, mats = two_factor_setup(n_el=6)
    rng = np.random.default_rng(5)
    for trial in range(5):
        target = manufactured(form, mats, rng, [float(rng.uniform(0.5, 2.0))])
        _, trace = run_pga(form, mats, Functional.from_target(form, mats, target),
                           tol_stop=1e-12, n_max=1, als_tol=1e-10, restarts=3,
                           rng=rng, target=target)
        errs = record_trace(f"rank-one-{trial}", form, mats, target, trace)
        if len(trace.rows) != 1:
            failures.append(f"trial {trial}: {len(trace.rows)} iterations recorded")
        elif errs[1] > 1e-6 * errs[0]:
            failures.append(f"trial {trial}: residual {errs[1]:.3e} after one step")
    _verdict(5, "rank-one recovery in a single iteration", failures)


def test_criterion_06_rate_envelopes():
    failures = []
    form, mats = two_factor_setup(n_el=12)
    coeffs = [0.8, 0.5, 0.35, 0.2, 0.15]
    bound = sum(coeffs)  # 2.0 by construction
    target = manufactured(form, mats, np.random.default_rng(6), coeffs)
    for name, runner, exponent in (("pga", run_pga, -1 / 6), ("oga", run_oga, -0.5)):
        _, trace = runner(form, mats, Functional.from_target(form, mats, target),
                          tol_stop=0.0, n_max=20, restarts=8,
                          rng=np.random.default_rng(60), target=target)
        record_trace(f"{name}-rate", form, mats, target, trace)
        if len(trace.rows) != 20:
            failures.append(f"{name}: expected 20 iterations, got {len(trace.rows)}")
        for row in trace.rows:
            envelope = bound * row.n ** exponent
            if row.err_energy > envelope * (1 + 1e-12):
                failures.append(f"{name} n={row.n}: "
                                f"{row.err_energy!r} above envelope {envelope!r}")
    _verdict(6, "rate envelopes on the fixed five-term target", failures)


def test_criterion_07_als_vs_brute_force():
    failures = []
    mismatches = []
    mats = [assemble(build_mesh(4.0, 4), normalize(SpringModel(FENE, 4.0)), 1),
            assemble(build_mesh(6.0, 4), normalize(SpringModel(CPAIL, 6.0)), 1)]
    form = EnergyForm(ROUSE2, wi=1.0, c=1.0)
    n0, n1 = mats[0].ndof, mats[1].ndof
    for inst in range(10):
        rng = np.random.default_rng(700 + inst)
        target = manufactured(form, mats, rng, rng.uniform(0.2, 1.0, 3))
        rhs = Functional.from_target(form, mats, target)
        _, j_als = als_best(form, mats, rhs, tol=1e-12, max_sweeps=200,
                            restarts=8, rng=rng)

        def objective(z):
            t = RankOneTerm([z[:n0], z[n0:]])
            val = 0.5 * energy_rank1(form, mats, t, t) - rhs.value_rank1(t)
            grads = [(dense_slot_hessian(form, mats, t, j) @ t.factors[j]
                      - rhs.slot_vector(t, j)) for j in range(2)]
            return val, np.concatenate(grads)

        best = np.inf
        for _ in range(50):
            res = minimize(objective, rng.standard_normal(n0 + n1), jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
            best = min(best, res.fun)
        if j_als < best - 1e-6:
            failures.append(f"instance {inst}: ALS {j_als!r} below the oracle {best!r}")
        if abs(j_als - best) > 1e-6 * (1 + abs(best)):
            mismatches.append(inst)
            print(f"  note: instance {inst} basin mismatch, "
                  f"ALS {j_als!r} vs oracle {best!r}")
    if len(mismatches) > 2:
        failures.append(f"{len(mismatches)} of 10 instances mismatch: {mismatches}")
    _verdict(7, "alternating solver matches brute-force minima", failures)


def test_criterion_08_monotone_traces():
    failures = []
    if not TRACES:
        failures.append("no traces were recorded by the earlier criteria")
    for name, errs in TRACES:
        errs = np.asarray(errs)
        slack = 1e-10 * errs[0]
        if np.any(np.diff(errs) > slack):
            failures.append(f"{name}: residual norms increase")
    _verdict(8, f"residual norms nonincreasing on all {len(TRACES)} traces", failures)


def test_criterion_09_diagnostic_oracles():
    failures = []
    mats = assemble(build_mesh(4.0, 40), normalize(SpringModel(FENE, 4.0)), 2)
    eig = solve_factor_eigens(mats, 30)
    sys2 = EigenSystem([eig, eig])
    lam = eig.values

    rng = np.random.default_rng(9)
    values = rng.standard_normal((30, 30)) / np.add.outer(lam, lam) ** 2
    coeffs = CoeffTensor(values=values, box=(30, 30), values_err=np.zeros((30, 30)),
                         norm_sq_err=0.0)
    b1 = b1_bound(coeffs, sys2)
    direct_b1 = sum(np.sqrt(lam[i] + lam[j] - 1.0) * abs(values[i, j])
                    for i in range(30) for j in range(30))
    if abs(b1.total - direct_b1) > 1e-12 * direct_b1:
        failures.append(f"b1 {b1.total!r} vs direct sum {direct_b1!r}")
    for family, direct_sigma in (
            (WeightFamily(MIX, 1.75),
             sum((lam[i] * lam[j]) ** 1.75 * values[i, j] ** 2
                 for i in range(30) for j in range(30))),
            (WeightFamily(UNIF, 2.25),
             sum((lam[i] + lam[j]) ** 2.25 * values[i, j] ** 2
                 for i in range(30) for j in range(30)))):
        got = sigma_norm(coeffs, sys2, family)
        want = np.sqrt(direct_sigma)
        if abs(got - want) > 1e-12 * want:
            failures.append(f"{family.kind} norm {got!r} vs direct sum {want!r}")

    expansion = SeparatedFunction([1.0, 0.5, 0.25],
                                  [eig.vectors[:, [0, 1, 3]], eig.vectors[:, [0, 2, 3]]])
    defect = fourier_coeffs(expansion, sys2, (30, 30)).parseval_defect
    # roundoff can push an exactly zero defect a hair negative
    if not -1e-12 <= defect <= 1e-10:
        failures.append(f"Parseval defect {defect!r} outside [0, 1e-10]")
    _verdict(9, "diagnostic sums match direct-summation oracles", failures)


def _cli_config():
    return {
        "schema_version": 1,
        "n_factors": 2,
        "factors": [{"kind": "fene", "b": 4.0}, {"kind": "cpail", "b": 6.0}],
        "coupling": {"kind": "rouse", "off_diag": -0.5},
        "wi": 1.0,
        "c": 1.0,
        "mesh": {"n_el": 6, "grading": 1.0, "degree": 2},
        "algorithm": "pga",
        "tol_stop": 1e-8,
        "n_max": 6,
        "als": {"tol": 1e-10, "max_sweeps": 80, "restarts": 2, "seed": 42},
        "target": {"kind": "manufactured", "coefficients": [1.0, 0.6, 0.3], "seed": 3},
        "eig": {"k": 12},
        "box": [5, 5],
    }


def test_criterion_10_cli_determinism(tmp_path):
    failures = []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_cli_config()))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({
        "schema_version": 1,
        "base": _cli_config(),
        "runs": [{"name": "plain", "overrides": {}},
                 {"name": "ortho", "overrides": {"algorithm": "oga"}}],
    }))
    commands = [
        ["solve", "--config", str(cfg_path)],
        ["eig", "--config", str(cfg_path)],
        ["rates", "--config", str(cfg_path)],
        ["regularity", "--config", str(cfg_path)],
        ["sweep", "--config", str(sweep_path), "--jobs", "2"],
    ]
    outputs = {}
    for rep in ("first", "second"):
        root = tmp_path / rep
        for argv in commands:
            code = cli.main(argv + ["--out", str(root / argv[0]), "--seed", "42"])
            if code not in (0, 2):
                failures.append(f"{rep} {argv[0]}: exit code {code}")
        outputs[rep] = {p.relative_to(root): p.read_bytes()
                        for p in sorted(root.rglob("*.csv"))}
    if set(outputs["first"]) != set(outputs["second"]):
        failures.append("the two runs produced different CSV file sets")
    elif not outputs["first"]:
        failures.append("no CSV files were produced")
    else:
        for rel, blob in outputs["first"].items():
            if outputs["second"][rel] != blob:
                failures.append(f"{rel} differs between runs")
    _verdict(10, "byte-identical CLI outputs under a fixed seed", failures)
