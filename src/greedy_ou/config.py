"""Experiment configuration: schema, validation, and problem builders.

Configs are JSON trees with a schema_version field.  Validation reports the
path of the offending field.  Builders turn a validated config into the
assembled factor matrices, the energy form, and the target in separated
form, so every command works from one description of the problem.  A basis
that normalize or assemble refuses is refused under its factor's b.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .eigen import solve_factor_eigens
from .fem import AssemblyError, MeshError, assemble, build_mesh
from .greedy import EnergyForm, SeparatedFunction, energy_rank1, random_unit_term
from .springs import CPAIL, FENE, SpringModel, normalize

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Validation failure, message prefixed with the config field path if any."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _require(d, key, path, kind=None):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = d[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _finite(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    # json reads NaN and Infinity; an int past the float range fails here too
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(path, "must be a finite number")
    return float(value)


def _number(d, key, path, default=None, minimum=None, strict=False):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    value = _finite(d[key], f"{path}.{key}" if path else key)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        word = "greater than" if strict else "at least"
        raise ConfigError(f"{path}.{key}" if path else key, f"must be {word} {minimum}")
    return value


def _integer(d, key, path, default=None, minimum=1):
    """Integer field at least minimum (1 or 0); required when default is None."""
    value = _require(d, key, path) if default is None else d.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        word = "positive" if minimum > 0 else "non-negative"
        raise ConfigError(f"{path}.{key}" if path else key, f"expected a {word} integer")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    n_factors: int
    factor_models: list
    form: EnergyForm
    n_el: int
    grading: float
    degree: int
    algorithm: str
    tol_stop: float
    n_max: int
    als_tol: float
    als_max_sweeps: int
    als_restarts: int
    seed: int
    target: dict
    eig_k: int
    box: tuple | None
    raw: dict

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _parse_factors(raw, n_factors):
    factors = _require(raw, "factors", "", list)
    if len(factors) == 1 and n_factors > 1:
        factors = factors * n_factors
    if len(factors) != n_factors:
        raise ConfigError("factors", f"expected {n_factors} entries, got {len(factors)}")
    models = []
    for i, spec in enumerate(factors):
        path = f"factors[{i}]"
        if not isinstance(spec, dict):
            raise ConfigError(path, "expected an object with kind and b")
        kind = _require(spec, "kind", path, str)
        if kind not in (FENE, CPAIL):
            raise ConfigError(f"{path}.kind", f"unknown spring kind {kind!r}")
        b = _number(spec, "b", path)
        try:
            models.append(SpringModel(kind, b))
        except ValueError as exc:
            raise ConfigError(f"{path}.b", str(exc)) from exc
    return models


def _parse_coupling(raw, n_factors):
    spec = _require(raw, "coupling", "", dict)
    kind = _require(spec, "kind", "coupling", str)
    if kind == "identity":
        return np.eye(n_factors)
    if kind == "rouse":
        off = _number(spec, "off_diag", "coupling")
        a = np.eye(n_factors) + off * (np.eye(n_factors, k=1) + np.eye(n_factors, k=-1))
    elif kind == "explicit":
        matrix = _require(spec, "matrix", "coupling", list)
        # numpy would take a boolean or a numeric string for a number
        if not all(isinstance(row, list) and len(row) == len(matrix[0])
                   and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
                   for row in matrix):
            raise ConfigError("coupling.matrix", "expected a list of equal-length rows of numbers")
        try:
            a = np.asarray(matrix, dtype=float)
        except OverflowError as exc:  # an integer past the float range
            raise ConfigError("coupling.matrix", "must be a finite number") from exc
        if a.shape != (n_factors, n_factors):
            raise ConfigError("coupling.matrix",
                              f"expected shape ({n_factors}, {n_factors}), got {a.shape}")
        if not np.isfinite(a).all():
            raise ConfigError("coupling.matrix", "must be a finite number")
    else:
        raise ConfigError("coupling.kind", f"unknown coupling kind {kind!r}")
    return a


def _parse_target(raw, n_factors, basis_size):
    """Manufactured or eigen target."""
    spec = _require(raw, "target", "", dict)
    kind = _require(spec, "kind", "target", str)
    if kind == "manufactured":
        coeffs = _require(spec, "coefficients", "target", list)
        if not coeffs:
            raise ConfigError("target.coefficients", "must be a nonempty list")
        coeffs = [_finite(ck, f"target.coefficients[{i}]") for i, ck in enumerate(coeffs)]
        seed = _integer(spec, "seed", "target", default=7, minimum=0)
        return {"kind": kind, "coefficients": coeffs, "seed": seed}
    if kind == "eigen":
        terms = _require(spec, "terms", "target", list)
        if not terms:
            raise ConfigError("target.terms", "must be a nonempty list")
        parsed = []
        for i, t in enumerate(terms):
            path = f"target.terms[{i}]"
            if not isinstance(t, dict):
                raise ConfigError(path, "expected an object with weight and index")
            w = _number(t, "weight", path)
            idx = _require(t, "index", path, list)
            if not idx or any(not isinstance(n, int) or isinstance(n, bool) or n < 1
                              for n in idx):
                raise ConfigError(f"{path}.index", "expected a list of positive integers")
            if len(idx) != n_factors:
                raise ConfigError(f"{path}.index",
                                  f"expected {n_factors} entries, got {len(idx)}")
            if max(idx) > basis_size:
                raise ConfigError(f"{path}.index",
                                  f"index {max(idx)} exceeds basis size {basis_size}")
            parsed.append({"weight": w, "index": [int(n) for n in idx]})
        return {"kind": kind, "terms": parsed}
    raise ConfigError("target.kind", f"unknown target kind {kind!r}")


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    version = _require(raw, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    n_factors = _integer(raw, "n_factors", "")
    models = _parse_factors(raw, n_factors)
    coupling = _parse_coupling(raw, n_factors)
    wi = _number(raw, "wi", "", minimum=0, strict=True)
    c = _number(raw, "c", "", minimum=0, strict=True)
    try:
        form = EnergyForm(coupling, wi=wi, c=c)
    except ValueError as exc:
        raise ConfigError("coupling", str(exc)) from exc
    mesh = _require(raw, "mesh", "", dict)
    n_el = _require(mesh, "n_el", "mesh", int)
    if n_el < 4:
        raise ConfigError("mesh.n_el", "must be at least 4")
    grading = _number(mesh, "grading", "mesh", default=1.0, minimum=1.0)
    degree = mesh.get("degree", 2)
    if isinstance(degree, bool) or not isinstance(degree, int) or degree not in (1, 2):
        raise ConfigError("mesh.degree", f"must be 1 or 2, got {degree!r}")
    algorithm = raw.get("algorithm", "pga")
    if algorithm not in ("pga", "oga"):
        raise ConfigError("algorithm", f"must be 'pga' or 'oga', got {algorithm!r}")
    tol_stop = _number(raw, "tol_stop", "", default=1e-6, minimum=0, strict=True)
    if tol_stop > 1:
        raise ConfigError("tol_stop", "must be at most 1")
    n_max = _integer(raw, "n_max", "", default=30)
    als = raw.get("als", {})
    if not isinstance(als, dict):
        raise ConfigError("als", "expected an object")
    als_tol = _number(als, "tol", "als", default=1e-10, minimum=0)
    max_sweeps = _integer(als, "max_sweeps", "als", default=60)
    restarts = _integer(als, "restarts", "als", default=1)
    seed = _integer(als, "seed", "als", default=42, minimum=0)
    target = _parse_target(raw, n_factors, n_el * degree + 1)
    eig = raw.get("eig", {})
    if not isinstance(eig, dict):
        raise ConfigError("eig", "expected an object")
    eig_k = _integer(eig, "k", "eig", default=40)
    box = raw.get("box")
    if box is not None:
        if (not isinstance(box, list) or len(box) != n_factors
                or any(not isinstance(b, int) or isinstance(b, bool) or b < 1 for b in box)):
            raise ConfigError("box", f"expected a list of {n_factors} positive integers")
        box = tuple(box)
    return ExperimentConfig(
        n_factors=n_factors, factor_models=models, form=form, n_el=n_el, grading=grading,
        degree=degree, algorithm=algorithm, tol_stop=tol_stop, n_max=n_max, als_tol=als_tol,
        als_max_sweeps=max_sweeps, als_restarts=restarts, seed=seed, target=target,
        eig_k=eig_k, box=box, raw=raw)


def load_raw(path):
    """Parsed JSON of a file, not yet validated; invalid JSON is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON in {path}: {exc}") from exc


def build_problem(cfg: ExperimentConfig):
    """Energy form and per-factor matrices; equal factor models share one basis.

    A mesh whose nodes coincide is refused under mesh.grading, before assembly,
    and a basis refused by normalize or assemble under its first factor's b.
    """
    bases = {}
    for i, model in enumerate(cfg.factor_models):
        if model not in bases:
            try:
                mesh = build_mesh(model.b, cfg.n_el, cfg.grading)
            except MeshError as exc:
                raise ConfigError("mesh.grading", str(exc)) from exc
            try:
                bases[model] = assemble(mesh, normalize(model), cfg.degree)
            except (ValueError, AssemblyError) as exc:
                raise ConfigError(f"factors[{i}].b", str(exc)) from exc
    return cfg.form, [bases[model] for model in cfg.factor_models]


def separated_target(cfg: ExperimentConfig, form: EnergyForm, mats,
                     eigens=None) -> SeparatedFunction:
    """The configured target in separated form.

    Manufactured targets draw factor vectors from a seeded generator and
    scale each rank-one term to unit energy norm.  An eigen target takes its
    vectors from eigens, one FactorEigens per factor of mats, when every
    index is at most that factor's k, and from a solve of each basis
    otherwise.
    """
    spec = cfg.target
    if spec["kind"] == "manufactured":
        rng = np.random.default_rng(spec["seed"])
        terms = [random_unit_term(mats, rng) for _ in spec["coefficients"]]
        factors = [np.column_stack(fs) for fs in zip(*(t.factors for t in terms))]
        factors[-1] = factors[-1] / [np.sqrt(energy_rank1(form, mats, t, t)) for t in terms]
        return SeparatedFunction(spec["coefficients"], factors)
    k_needed = [max(t["index"][i] for t in spec["terms"]) for i in range(cfg.n_factors)]
    if eigens is None or any(k > eig.k for k, eig in zip(k_needed, eigens)):
        solved = {}  # one solve per distinct (basis, k)
        for m, k in zip(mats, k_needed):
            if (m, k) not in solved:
                solved[m, k] = solve_factor_eigens(m, k)
        eigens = [solved[m, k] for m, k in zip(mats, k_needed)]
    if any(eig.vectors is None for eig in eigens):
        raise ValueError("an eigen target needs factor eigenvectors; "
                         "these eigens were solved without them")
    return SeparatedFunction(
        [t["weight"] for t in spec["terms"]],
        [eig.vectors[:, [t["index"][i] - 1 for t in spec["terms"]]]
         for i, eig in enumerate(eigens)])


def build_target(cfg: ExperimentConfig, form: EnergyForm, mats):
    """Separated target (separated_target) and the coefficient bound sum(|c_k| ||t_k||_a).

    Manufactured terms have unit energy norm, so their bound is exactly the
    constant in the greedy rate envelopes.
    """
    target = separated_target(cfg, form, mats)
    if cfg.target["kind"] == "manufactured":
        return target, float(sum(abs(c) for c in cfg.target["coefficients"]))
    bound = sum(abs(w) * float(np.sqrt(energy_rank1(form, mats, t, t))) for w, t in target.terms)
    return target, float(bound)
