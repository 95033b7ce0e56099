"""Spring laws and Maxwellian equilibrium weights on one factor interval.

Two finitely extensible spring laws are supported, each parameterized by a
dimensionless extensibility b:

    fene    U(s) = -(b/2) * log(1 - 2s/b)             requires b > 2
    cpail   U(s) = s/3 - (b/3) * log(1 - 2s/b)        requires b > 3

The factor domain is the open interval (-sqrt(b), sqrt(b)).  The equilibrium
weight M(q) = Z^{-1} exp(-U(q^2/2)) is positive inside, vanishes at the
endpoints, and integrates to one after normalization.  Both weights are a
symmetric Jacobi weight in q/sqrt(b) with exponent e, times a smooth factor:

    fene    M(q) propto (1 - q^2/b)^e,                e = b/2
    cpail   M(q) propto exp(-q^2/6) * (1 - q^2/b)^e,  e = b/3

so weighted integrals are taken with one Gauss-Jacobi rule.  From FENE
b = 1e9 and CPAIL b = 3e9 on, the rule fails and normalize refuses the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

FENE = "fene"
CPAIL = "cpail"

# e = b / divisor; each law requires b > divisor, that is e > 1
_DIVISOR = {FENE: 2.0, CPAIL: 3.0}

# Gauss-Jacobi points of the weighted quadrature: Z then matches adaptive
# quadrature to 2.1e-14 relative for b up to 1e4, both kinds
QUAD_POINTS = 40


@dataclass(frozen=True)
class SpringModel:
    """One spring law: kind ('fene' or 'cpail') plus extensibility b."""

    kind: str
    b: float

    def __post_init__(self):
        if self.kind not in _DIVISOR:
            raise ValueError(f"unknown spring kind {self.kind!r}; expected 'fene' or 'cpail'")
        if not self.b > _DIVISOR[self.kind]:
            raise ValueError(
                f"{self.kind} requires b > {_DIVISOR[self.kind]:g}, got b = {self.b!r}"
            )

    @property
    def q_max(self) -> float:
        """Half-width of the factor interval (-q_max, q_max)."""
        return math.sqrt(self.b)

    @property
    def e(self) -> float:
        """Jacobi exponent of the weight at each endpoint."""
        return self.b / _DIVISOR[self.kind]

    def smooth(self, q):
        """Smooth factor of the weight: 1 for fene, exp(-q^2/6) for cpail."""
        return np.exp(-q * q / 6.0) if self.kind == CPAIL else np.ones_like(q)


def maxwellian_unnormalized(model: SpringModel, q):
    """exp(-U(q^2/2)) without the normalization constant.

    Accepts |q| <= sqrt(b); the value at the endpoints is the continuous
    limit 0.  Points strictly outside the closed interval raise.
    """
    q = np.asarray(q, dtype=float)
    if np.any(np.abs(q) > model.q_max * (1.0 + 1e-15)):
        raise ValueError(f"extension outside [-sqrt(b), sqrt(b)] for b = {model.b:g}")
    base = np.clip(1.0 - q * q / model.b, 0.0, None)
    out = model.smooth(q) * base ** model.e
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MaxwellianWeight:
    """Normalized equilibrium weight: integral over the factor interval is 1."""

    model: SpringModel
    z_inv: float

    def __call__(self, q):
        return self.z_inv * maxwellian_unnormalized(self.model, q)


def integrate_weighted(model: SpringModel, fn=None):
    """Integrate fn(q) * maxwellian_unnormalized(q) over (-sqrt(b), sqrt(b)).

    One QUAD_POINTS-point Gauss-Jacobi rule with exponent e at both ends, so
    only fn times the smooth factor is sampled.  fn=None integrates the bare
    weight.  From FENE b = 1e9 and CPAIL b = 3e9 on it is NaN, silently.
    """
    with np.errstate(all="ignore"):
        x, w = roots_jacobi(QUAD_POINTS, model.e, model.e)
    q = model.q_max * x
    vals = model.smooth(q)
    if fn is not None:
        vals = vals * np.asarray(fn(q), dtype=float)
    return model.q_max * float(w @ vals)


def normalize(model: SpringModel) -> MaxwellianWeight:
    """Compute Z^{-1} so the Maxwellian integrates to one; ValueError if it is not finite."""
    z_inv = 1.0 / integrate_weighted(model)
    if not np.isfinite(z_inv):
        raise ValueError(f"weight normalisation {z_inv} is not finite")
    return MaxwellianWeight(model, z_inv)
