"""Command-line front end.

Subcommands: solve, eig, rates, regularity, sweep.  Every command reads one
JSON config (see config.py), writes its outputs under --out, and exits 0 on
success, 2 when the greedy loop hits its iteration cap, and 1 on validation
or solver errors.  The GREEDY_OU_LOG environment variable sets the logging
level.  Output files are deterministic for a fixed config and seed: floats
are written with repr, rows in a fixed order, and wall-clock time is
confined to its own field in runrecord.json.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import (SCHEMA_VERSION, ConfigError, ExperimentConfig, build_problem,
                     build_target, load_raw, validate_config)
from .diagnostics import fourier_coeffs, rate_class_report
from .eigen import EigenSystem, EigenError, resolved_factor_eigens, weyl_fit
from .fem import AssemblyError
from .greedy import GreedyError, SeparatedFunction, exact_dual_norms, run_oga, run_pga
from .springs import normalize  # noqa: F401  (perfbench/spans.py patches cli.normalize)

logger = logging.getLogger(__name__)

_RUNNERS = {"pga": run_pga, "oga": run_oga}
_ENVELOPE_EXPONENTS = {"pga": -1.0 / 6.0, "oga": -0.5}
_EXIT_BY_STATUS = {"converged": 0, "null_term": 0, "n_max": 2}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_algorithm(cfg: ExperimentConfig, name: str, form, mats, rhs, target):
    rng = np.random.default_rng(cfg.seed)
    return _RUNNERS[name](form, mats, rhs, tol_stop=cfg.tol_stop, n_max=cfg.n_max,
                          als_tol=cfg.als_tol, max_sweeps=cfg.als_max_sweeps,
                          restarts=cfg.als_restarts, rng=rng, target=target)


def _residual_at(rhs, approx_terms, row):
    """Residual functional after the update recorded in a trace row."""
    if row.alpha is None:
        return rhs.minus(SeparatedFunction(approx_terms[:row.n]))
    return rhs.minus(SeparatedFunction([(a, t) for a, (_, t) in zip(row.alpha, approx_terms)]))


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, exact_dual: bool = False) -> int:
    form, mats = build_problem(cfg)
    target, rhs, bound = build_target(cfg, form, mats)
    started = time.perf_counter()
    approx, trace = _run_algorithm(cfg, cfg.algorithm, form, mats, rhs, target)
    wall = time.perf_counter() - started

    header = ["n", "err_energy", "term_norm_a", "ortho_defect", "surrogate", "alpha_json"]
    if exact_dual:
        header.append("dual_norm")
    rows = []
    for row in trace.rows:
        alpha_json = json.dumps(list(row.alpha)) if row.alpha is not None else ""
        rows.append([row.n, row.err_energy, row.term_norm_a, row.ortho_defect,
                     row.surrogate, alpha_json])
    if exact_dual:
        duals = exact_dual_norms(form, mats,
                                 [_residual_at(rhs, approx.terms, row) for row in trace.rows])
        for values, dual in zip(rows, duals):
            values.append(dual)
    _write_csv(out_dir / "solve.csv", header, rows)

    record = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.config_hash,
        "algorithm": cfg.algorithm,
        "status": trace.status,
        "n_iterations": len(trace.rows),
        "final_surrogate": trace.final_surrogate,
        "final_err_energy": trace.rows[-1].err_energy if trace.rows else None,
        "target_norm_bound": bound,
        "wall_clock_s": wall,
        "rows": [dataclasses.asdict(r) for r in trace.rows],
    }
    _write_json(out_dir / "runrecord.json", record)
    return _EXIT_BY_STATUS[trace.status]


def _resolved_system(cfg: ExperimentConfig, mats) -> EigenSystem:
    factors = []
    for i, m in enumerate(mats):
        if cfg.eig_k > m.ndof:
            logger.warning("factor %d: k=%d exceeds %d degrees of freedom, clamping",
                           i, cfg.eig_k, m.ndof)
        factors.append(resolved_factor_eigens(m, min(cfg.eig_k, m.ndof)))
    return EigenSystem(factors)


def cmd_eig(cfg: ExperimentConfig, out_dir: Path) -> int:
    _, mats = build_problem(cfg)
    system = _resolved_system(cfg, mats)
    rows = []
    summary = {}
    for i, (model, eig) in enumerate(zip(cfg.factor_models, system.factors)):
        for n in range(1, eig.k + 1):
            rows.append([i, n, float(eig.values[n - 1]), int(eig.resolved[n - 1])])
        hi = min(40, eig.n_resolved if eig.n_resolved >= 2 else eig.k)
        lo = max(1, min(10, hi))
        fit = weyl_fit(eig.values, d=1, tail=(lo, hi), resolved=eig.resolved)
        summary[f"factor_{i}"] = {
            "kind": model.kind, "b": model.b, "k": eig.k,
            "n_resolved": eig.n_resolved, "tail": [lo, hi],
            "c1": fit.c1, "c2": fit.c2, "ratio": fit.ratio,
        }
    _write_csv(out_dir / "eig.csv", ["factor", "n", "lambda", "resolved_flag"], rows)
    _write_json(out_dir / "weyl.json", summary)
    return 0


def cmd_rates(cfg: ExperimentConfig, out_dir: Path) -> int:
    form, mats = build_problem(cfg)
    target, rhs, bound = build_target(cfg, form, mats)
    rows = []
    slopes = {}
    for name in ("pga", "oga"):
        _, trace = _run_algorithm(cfg, name, form, mats, rhs, target)
        exponent = _ENVELOPE_EXPONENTS[name]
        errs = []
        for row in trace.rows:
            envelope = bound * row.n ** exponent
            within = int(row.err_energy <= envelope * (1.0 + 1e-12))
            rows.append([name, row.n, row.err_energy, envelope, within])
            errs.append((row.n, row.err_energy))
        positive = [(n, e) for n, e in errs if e > 0]
        slope = None
        if len(positive) >= 2:
            ns, es = zip(*positive)
            slope = float(np.polyfit(np.log(ns), np.log(es), 1)[0])
        slopes[name] = {"observed_slope": slope, "envelope_exponent": exponent,
                        "envelope_constant": bound, "n_iterations": len(trace.rows),
                        "status": trace.status}
    _write_csv(out_dir / "rates.csv",
               ["algorithm", "n", "err_energy", "envelope", "within"], rows)
    _write_json(out_dir / "rates.json", slopes)
    return 0


def cmd_regularity(cfg: ExperimentConfig, out_dir: Path) -> int:
    form, mats = build_problem(cfg)
    target, _, _ = build_target(cfg, form, mats)
    system = _resolved_system(cfg, mats)
    box = cfg.box or tuple(min(20, eig.n_resolved) for eig in system.factors)
    clamped = tuple(min(b, eig.n_resolved) for b, eig in zip(box, system.factors))
    if clamped != box:
        logger.warning("box %s exceeds the resolved range, clamping to %s", box, clamped)
    coeffs = fourier_coeffs(target, system, clamped)
    report = rate_class_report(coeffs, system, d=1)
    report["config_hash"] = cfg.config_hash
    _write_json(out_dir / "regularity.json", report)
    return 0


def _deep_merge(base: dict, overrides: dict) -> dict:
    merged = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _sweep_worker(args) -> int:
    raw, out_sub, exact_dual = args
    cfg = validate_config(raw)
    out = Path(out_sub)
    out.mkdir(parents=True, exist_ok=True)
    return cmd_solve(cfg, out, exact_dual)


def cmd_sweep(raw_sweep: dict, out_dir: Path, jobs: int) -> int:
    if not isinstance(raw_sweep, dict):
        raise ConfigError("", "sweep file must be a JSON object")
    if raw_sweep.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {raw_sweep.get('schema_version')!r}")
    base = raw_sweep.get("base")
    runs = raw_sweep.get("runs")
    if not isinstance(base, dict):
        raise ConfigError("base", "missing base config object")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("runs", "expected a nonempty list of runs")
    jobs_args = []
    names = set()
    for i, run in enumerate(runs):
        path = f"runs[{i}]"
        if not isinstance(run, dict) or not isinstance(run.get("name"), str) or not run["name"]:
            raise ConfigError(path, "expected an object with a nonempty string name")
        name = run["name"]
        if name in names or os.sep in name or name in (".", ".."):
            raise ConfigError(f"{path}.name", f"duplicate or unsafe run name {name!r}")
        names.add(name)
        overrides = run.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"{path}.overrides", "expected an object")
        merged = _deep_merge(base, overrides)
        validate_config(merged)  # fail before launching any workers
        jobs_args.append((merged, str(out_dir / name), False))

    codes = {}
    if jobs <= 1:
        for args, run in zip(jobs_args, runs):
            codes[run["name"]] = _sweep_worker(args)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for run, code in zip(runs, pool.map(_sweep_worker, jobs_args)):
                codes[run["name"]] = code
    _write_json(out_dir / "sweep.json", {"runs": codes})
    if any(code == 1 for code in codes.values()):
        return 1
    if any(code == 2 for code in codes.values()):
        return 2
    return 0


def _apply_seed(raw: dict, seed) -> dict:
    if seed is None or not isinstance(raw, dict):
        return raw
    raw = dict(raw)
    als = dict(raw.get("als", {}))
    als["seed"] = seed
    raw["als"] = als
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedy-ou",
        description="Greedy separated-representation solvers for Maxwellian-weighted "
                    "elliptic problems on products of spring-coordinate intervals.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "run the configured greedy algorithm, write solve.csv and runrecord.json",
        "eig": "factor eigenvalues with resolution flags, write eig.csv and weyl.json",
        "rates": "run both algorithms against their rate envelopes, write rates.csv",
        "regularity": "Fourier-side class diagnostics for the target, write regularity.json",
        "sweep": "run a batch of solve configs, optionally in parallel",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the ALS restart seed from the config")
        if name == "solve":
            p.add_argument("--exact-dual", action="store_true",
                           help="add a dense residual dual-norm column, tiny grids only")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = os.environ.get("GREEDY_OU_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        raw = load_raw(args.config)
        if args.command == "sweep":
            if isinstance(raw, dict) and "base" in raw:
                raw["base"] = _apply_seed(raw["base"], args.seed)
            return cmd_sweep(raw, out_dir, args.jobs)
        cfg = validate_config(_apply_seed(raw, args.seed))
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, args.exact_dual)
        if args.command == "eig":
            return cmd_eig(cfg, out_dir)
        if args.command == "rates":
            return cmd_rates(cfg, out_dir)
        return cmd_regularity(cfg, out_dir)
    except (GreedyError, EigenError, AssemblyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
