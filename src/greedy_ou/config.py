"""Experiment configuration: schema, validation, and problem builders.

Configs are JSON trees with a schema_version field.  Validation reports the
path of the offending field.  Builders turn a validated config into the
assembled factor matrices, the energy form, and the target in separated
form, so every command works from one description of the problem.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .eigen import solve_factor_eigens
from .fem import assemble, build_mesh
from .greedy import (EnergyForm, Functional, RankOneTerm, SeparatedFunction, energy_rank1,
                     random_unit_term)
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


def _number(d, key, path, default=None, minimum=None, strict=False):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}" if path else key, "expected a number")
    value = float(value)
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
        a = np.asarray(matrix, dtype=float)
        if a.shape != (n_factors, n_factors):
            raise ConfigError("coupling.matrix",
                              f"expected shape ({n_factors}, {n_factors}), got {a.shape}")
    else:
        raise ConfigError("coupling.kind", f"unknown coupling kind {kind!r}")
    return a


def _parse_target(raw, n_factors):
    spec = _require(raw, "target", "", dict)
    kind = _require(spec, "kind", "target", str)
    if kind == "manufactured":
        coeffs = _require(spec, "coefficients", "target", list)
        if not coeffs:
            raise ConfigError("target.coefficients", "must be a nonempty list")
        for i, ck in enumerate(coeffs):
            if isinstance(ck, bool) or not isinstance(ck, (int, float)):
                raise ConfigError(f"target.coefficients[{i}]", "expected a number")
        seed = _integer(spec, "seed", "target", default=7, minimum=0)
        return {"kind": kind, "coefficients": [float(c) for c in coeffs], "seed": seed}
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
            parsed.append({"weight": w, "index": [int(n) for n in idx]})
        return {"kind": kind, "terms": parsed}
    if kind == "coefficient_file":
        path = _require(spec, "path", "target", str)
        return {"kind": kind, "path": path}
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
    n_max = _integer(raw, "n_max", "", default=30)
    als = raw.get("als", {})
    if not isinstance(als, dict):
        raise ConfigError("als", "expected an object")
    als_tol = _number(als, "tol", "als", default=1e-10, minimum=0)
    max_sweeps = _integer(als, "max_sweeps", "als", default=60)
    restarts = _integer(als, "restarts", "als", default=1)
    seed = _integer(als, "seed", "als", default=42, minimum=0)
    target = _parse_target(raw, n_factors)
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
    """Energy form and per-factor matrices for a validated config."""
    mats = []
    for model in cfg.factor_models:
        mesh = build_mesh(model.b, cfg.n_el, cfg.grading)
        mats.append(assemble(mesh, normalize(model), cfg.degree))
    return cfg.form, mats


def build_target(cfg: ExperimentConfig, form: EnergyForm, mats):
    """Separated target, its functional, and the coefficient bound sum(|c_k|).

    Manufactured targets draw factor vectors from a seeded generator and
    scale each rank-one term to unit energy norm, so the returned bound is
    exactly the constant in the greedy rate envelopes.
    """
    spec = cfg.target
    if spec["kind"] == "manufactured":
        rng = np.random.default_rng(spec["seed"])
        terms = []
        for ck in spec["coefficients"]:
            term = random_unit_term(mats, rng)
            norm_a = np.sqrt(energy_rank1(form, mats, term, term))
            term.factors[-1] = term.factors[-1] / norm_a
            terms.append((float(ck), term))
        target = SeparatedFunction(terms)
        bound = float(sum(abs(c) for c in spec["coefficients"]))
        return target, Functional.from_target(target), bound
    if spec["kind"] == "coefficient_file":
        file_spec = load_raw(spec["path"])
        terms = file_spec.get("terms") if isinstance(file_spec, dict) else None
        if not terms:
            raise ConfigError("target.path", f"{spec['path']} has no terms list")
        spec = _parse_target({"target": {"kind": "eigen", "terms": terms}}, cfg.n_factors)
    k_needed = [max(t["index"][i] for t in spec["terms"]) for i in range(cfg.n_factors)]
    eigens = [solve_factor_eigens(m, min(k, m.ndof)) for m, k in zip(mats, k_needed)]
    terms = []
    bound = 0.0
    for t in spec["terms"]:
        factors = []
        for i, n in enumerate(t["index"]):
            if n > eigens[i].k:
                raise ConfigError("target.terms",
                                  f"index {n} exceeds basis size {eigens[i].k} for factor {i}")
            factors.append(np.array(eigens[i].vectors[:, n - 1]))
        term = RankOneTerm(factors)
        norm_a = float(np.sqrt(energy_rank1(form, mats, term, term)))
        terms.append((t["weight"], term))
        bound += abs(t["weight"]) * norm_a
    target = SeparatedFunction(terms)
    return target, Functional.from_target(target), float(bound)
