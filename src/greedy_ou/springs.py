"""Spring potentials, forces, and Maxwellian equilibrium weights on one factor interval.

Two finitely extensible spring laws are supported, each parameterized by a
dimensionless extensibility b:

    fene    U(s) = -(b/2) * log(1 - 2s/b)             requires b > 2
    cpail   U(s) = s/3 - (b/3) * log(1 - 2s/b)        requires b > 3

The factor domain is the open interval (-sqrt(b), sqrt(b)).  The equilibrium
weight M(q) = Z^{-1} exp(-U(q^2/2)) is positive inside, vanishes at the
endpoints, and integrates to one after normalization:

    fene    M(q) propto (1 - q^2/b)^(b/2)
    cpail   M(q) propto exp(-q^2/6) * (1 - q^2/b)^(b/3)

Also provided: the Liouville-transform potential Q_Theta of the weight and
the closed-form boundary limit of dist^2 * Q_1, which classifies how strongly
the weight degenerates at the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FENE = "fene"
CPAIL = "cpail"

_MIN_B = {FENE: 2.0, CPAIL: 3.0}

# weighted quadrature: relative agreement of successive grading depths,
# Gauss points per panel, and the deepest grading tried
QUAD_REL_TOL = 1e-12
QUAD_N_GAUSS = 24
QUAD_MAX_LEVELS = 60


@dataclass(frozen=True)
class SpringModel:
    """One spring law: kind ('fene' or 'cpail') plus extensibility b."""

    kind: str
    b: float

    def __post_init__(self):
        if self.kind not in _MIN_B:
            raise ValueError(f"unknown spring kind {self.kind!r}; expected 'fene' or 'cpail'")
        if not self.b > _MIN_B[self.kind]:
            raise ValueError(
                f"{self.kind} requires b > {_MIN_B[self.kind]:g}, got b = {self.b!r}"
            )

    @property
    def q_max(self) -> float:
        """Half-width of the factor interval (-q_max, q_max)."""
        return math.sqrt(self.b)


def potential_u(model: SpringModel, s):
    """Spring potential U(s) for s in [0, b/2); diverges as s -> b/2."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or np.any(s >= model.b / 2):
        raise ValueError(f"potential argument outside [0, b/2) for b = {model.b:g}")
    core = -np.log1p(-2.0 * s / model.b)
    if model.kind == FENE:
        out = (model.b / 2.0) * core
    else:
        out = s / 3.0 + (model.b / 3.0) * core
    return out if out.ndim else float(out)


def force_f(model: SpringModel, q):
    """Spring force F(q) = U'(q^2/2) * q; odd in q, defined for |q| < sqrt(b)."""
    q = np.asarray(q, dtype=float)
    if np.any(np.abs(q) >= model.q_max):
        raise ValueError(f"extension outside (-sqrt(b), sqrt(b)) for b = {model.b:g}")
    denom = 1.0 - q * q / model.b
    if model.kind == FENE:
        out = q / denom
    else:
        out = q * (1.0 - q * q / (3.0 * model.b)) / denom
    return out if out.ndim else float(out)


def maxwellian_unnormalized(model: SpringModel, q):
    """exp(-U(q^2/2)) without the normalization constant.

    Accepts |q| <= sqrt(b); the value at the endpoints is the continuous
    limit 0.  Points strictly outside the closed interval raise.
    """
    q = np.asarray(q, dtype=float)
    if np.any(np.abs(q) > model.q_max * (1.0 + 1e-15)):
        raise ValueError(f"extension outside [-sqrt(b), sqrt(b)] for b = {model.b:g}")
    base = np.clip(1.0 - q * q / model.b, 0.0, None)
    if model.kind == FENE:
        out = base ** (model.b / 2.0)
    else:
        out = np.exp(-q * q / 6.0) * base ** (model.b / 3.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MaxwellianWeight:
    """Normalized equilibrium weight: integral over the factor interval is 1."""

    model: SpringModel
    z_inv: float

    def __call__(self, q):
        return self.z_inv * maxwellian_unnormalized(self.model, q)

    @property
    def q_max(self) -> float:
        return self.model.q_max


def _gauss_panels(breaks, n_gauss):
    """Gauss-Legendre nodes/weights tiled over consecutive panels."""
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    a = np.asarray(breaks[:-1])
    b = np.asarray(breaks[1:])
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _graded_breaks(q_max, n_levels):
    """Panel breakpoints on [0, q_max] accumulating geometrically at q_max."""
    # 0, q_max/2, 3q_max/4, ... , q_max*(1 - 2^-n), q_max
    pts = q_max * (1.0 - 0.5 ** np.arange(0, n_levels + 1))
    return np.append(pts, q_max)


def integrate_weighted(model: SpringModel, fn=None):
    """Integrate fn(q) * maxwellian_unnormalized(q) over (-sqrt(b), sqrt(b)).

    Adaptive in the number of geometrically graded panels toward each
    endpoint, with QUAD_N_GAUSS Gauss points per panel; doubles the grading
    depth until successive values agree to QUAD_REL_TOL.  fn=None integrates
    the bare weight.  Raises RuntimeError if the tolerance is not met within
    QUAD_MAX_LEVELS grading levels.
    """
    q_max = model.q_max

    def value(n_levels):
        half = _graded_breaks(q_max, n_levels)
        breaks = np.concatenate([-half[::-1], half[1:]])
        nodes, weights = _gauss_panels(breaks, QUAD_N_GAUSS)
        vals = maxwellian_unnormalized(model, nodes)
        if fn is not None:
            vals = vals * np.asarray(fn(nodes), dtype=float)
        return float(np.dot(weights, vals))

    levels = 8
    prev = value(levels)
    while levels <= QUAD_MAX_LEVELS:
        levels *= 2
        cur = value(levels)
        if abs(cur - prev) <= QUAD_REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise RuntimeError(
        f"weighted quadrature did not reach rel_tol={QUAD_REL_TOL:g} within "
        f"{QUAD_MAX_LEVELS} grading levels ({model.kind}, b={model.b:g})"
    )


def normalize(model: SpringModel) -> MaxwellianWeight:
    """Compute Z^{-1} so the Maxwellian integrates to one."""
    z = integrate_weighted(model)
    return MaxwellianWeight(model, 1.0 / z)


def q_theta(model: SpringModel, theta: float, q, d: int = 1):
    """Liouville-transform potential Q_Theta(q) of the Maxwellian, closed form.

    Q_Theta = Theta - w^{-1/2} div(w grad w^{-1/2}) with w = M; d is the
    factor dimension (1 here, kept explicit because the closed forms carry
    it).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    q = np.asarray(q, dtype=float)
    if np.any(np.abs(q) >= model.q_max):
        raise ValueError(f"extension outside (-sqrt(b), sqrt(b)) for b = {model.b:g}")
    b = model.b
    q2 = q * q
    inv = 1.0 / (1.0 - q2 / b)
    if model.kind == FENE:
        out = theta + (0.25 - 1.0 / b) * q2 * inv * inv - (d / 2.0) * inv
    else:
        out = (theta - d / 6.0 + q2 / 36.0
               + (1.0 / 9.0 - 2.0 / (3.0 * b)) * q2 * inv * inv
               - (d / 3.0 - q2 / 9.0) * inv)
    return out if out.ndim else float(out)


def boundary_limit_d2q(model: SpringModel):
    """Limit of dist(q)^2 * Q_1(q) as |q| -> sqrt(b), in the weak-degeneracy range.

    Returns the closed-form limit for fene b in (2, 4] and cpail b in (3, 6];
    returns None outside those ranges, where Q_1 is bounded below and the
    limit criterion is not the relevant condition.  The limit does not depend
    on the factor dimension.  Callers check membership in (-1/4, 0].
    """
    b = model.b
    if model.kind == FENE:
        if b > 4.0:
            return None
        return b * (b / 4.0 - 1.0) / 4.0
    if b > 6.0:
        return None
    return b * (b - 6.0) / 36.0
