"""Fourier-side regularity diagnostics in the tensorized eigenbasis.

A separated function expands against tensor products of factor
eigenfunctions; because the basis is mass-orthonormal, the coefficient
tensor of a rank-one term is an outer product of per-factor coefficient
vectors.  On top of the truncated coefficient box this module evaluates

  * weighted norms (sum_n sigma_n <tau,e_n>^2)^(1/2) for the product
    ("mix") and sum ("unif") eigenvalue weight families,
  * the sufficient-condition sum sum_n sqrt(Lambda_n) |<tau,e_n>| whose
    finiteness guarantees the rate-giving approximation class,
  * threshold reports at the class-membership exponents.

Everything here is a truncated-box diagnostic: a finite box can suggest but
never prove membership of any infinite-sum class, and the reports say which
reading they support rather than asserting membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .eigen import EigenSystem
from .greedy import SeparatedFunction, mass_pairing

MIX = "mix"
UNIF = "unif"

# an outermost index shell carrying less than this share of a weighted sum
# reads as a converged truncation
TAIL_SHARE_TOL = 1e-3

# class reports evaluate each weight family this far above its sufficiency exponent
THRESHOLD_MARGIN = 0.25


@dataclass(frozen=True)
class CoeffTensor:
    """Truncated tensor of eigenbasis coefficients.

    norm_sq_l2m is the squared weighted L2 norm of the expanded function
    when known (nan for synthetic tensors), so the Parseval defect
    norm_sq - sum(coeffs^2) is available; truncation only removes mass, so
    the defect is nonnegative up to roundoff.
    """

    values: np.ndarray
    box: tuple
    norm_sq_l2m: float = float("nan")

    @property
    def parseval_defect(self) -> float:
        return float(self.norm_sq_l2m - np.sum(self.values ** 2))


@dataclass(frozen=True)
class WeightFamily:
    """Eigenvalue weight family: mix is prod_i lambda_i^m, unif is (sum_i lambda_i)^m."""

    kind: str
    m: float

    def __post_init__(self):
        if self.kind not in (MIX, UNIF):
            raise ValueError(f"kind must be '{MIX}' or '{UNIF}', got {self.kind!r}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m!r}")


@dataclass(frozen=True)
class B1Bound:
    total: float
    tail_ratio: float


def _check_box(sys: EigenSystem, box) -> tuple:
    box = tuple(int(b) for b in box)
    if len(box) != sys.n_factors:
        raise ValueError(f"box has {len(box)} sizes, expected {sys.n_factors}")
    for i, (b, eig) in enumerate(zip(box, sys.factors)):
        if b < 1:
            raise ValueError(f"box size {b} for factor {i} must be positive")
        if b > eig.n_resolved:
            raise ValueError(f"box size {b} for factor {i} exceeds the "
                             f"resolved range {eig.n_resolved}")
    return box


def fourier_coeffs(tau: SeparatedFunction, sys: EigenSystem, box) -> CoeffTensor:
    """Coefficients <tau, e_n>_{L2_M} over the truncation box, factor-wise."""
    box = _check_box(sys, box)
    mats = [eig.mats for eig in sys.factors]
    values = np.zeros(box)
    for w, term in tau.terms:
        per_factor = [eig.vectors[:, :b].T @ (m.mass @ f)
                      for eig, m, b, f in zip(sys.factors, mats, box, term.factors)]
        values += w * reduce(np.multiply.outer, per_factor)
    norm_sq = mass_pairing(mats, tau, tau)
    return CoeffTensor(values=values, box=box, norm_sq_l2m=norm_sq)


def _factor_values(sys: EigenSystem, box) -> list:
    return [eig.values[:b] for eig, b in zip(sys.factors, box)]


def _sigma_tensor(sys: EigenSystem, box, w: WeightFamily) -> np.ndarray:
    lams = _factor_values(sys, box)
    if w.kind == MIX:
        return reduce(np.multiply.outer, [lam ** w.m for lam in lams])
    return reduce(np.add.outer, lams) ** w.m


def _outer_shell_mask(box) -> np.ndarray:
    mask = np.zeros(box, dtype=bool)
    for axis, b in enumerate(box):
        idx = [slice(None)] * len(box)
        idx[axis] = b - 1
        mask[tuple(idx)] = True
    return mask


def _weighted_sum_with_tail(contrib: np.ndarray, box):
    """Extended-precision total and the outermost shell's share of it."""
    total = np.sum(np.longdouble(contrib))
    if total == 0.0:
        return np.longdouble(0.0), 0.0
    shell = np.sum(np.longdouble(contrib[_outer_shell_mask(box)]))
    return total, float(shell / total)


def sigma_norm(coeffs: CoeffTensor, sys: EigenSystem, w: WeightFamily) -> float:
    """(sum_n sigma_n <tau,e_n>^2)^(1/2) over the box, extended-precision sum."""
    return _sigma_norm_with_tail(coeffs, sys, w)[0]


def _sigma_norm_with_tail(coeffs, sys, w):
    sigma = _sigma_tensor(sys, coeffs.box, w)
    contrib = np.longdouble(sigma) * np.longdouble(coeffs.values) ** 2
    total, tail = _weighted_sum_with_tail(contrib, coeffs.box)
    return float(np.sqrt(total)), tail


def _tensor_lambda(sys: EigenSystem, box) -> np.ndarray:
    lams = _factor_values(sys, box)
    return reduce(np.add.outer, [lam - 1.0 for lam in lams]) + 1.0


def b1_bound(coeffs: CoeffTensor, sys: EigenSystem) -> B1Bound:
    """sum_n sqrt(Lambda_n) |<tau,e_n>| with the outermost-shell share."""
    tensor_lam = _tensor_lambda(sys, coeffs.box)
    contrib = np.sqrt(np.longdouble(tensor_lam)) * np.abs(np.longdouble(coeffs.values))
    total, tail = _weighted_sum_with_tail(contrib, coeffs.box)
    return B1Bound(total=float(total), tail_ratio=tail)


def rate_class_report(coeffs: CoeffTensor, sys: EigenSystem, d: int = 1) -> dict:
    """Truncated-box class diagnostics at the sufficiency exponents.

    The mix family guarantees the rate class above m = d/2 + 1 and the unif
    family above m = 1 + N d / 2; both are evaluated at threshold +
    THRESHOLD_MARGIN.  A family is flagged when the outermost shell carries a
    negligible share of its weighted sum, meaning the truncated norm has
    visibly saturated.
    Finite boxes cannot prove membership; the report states evidence only.
    """
    n = sys.n_factors
    b1 = b1_bound(coeffs, sys)
    report = {
        "box": list(coeffs.box),
        "n_factors": n,
        "d": d,
        "resolved_per_factor": [eig.n_resolved for eig in sys.factors],
        "l2m_norm_sq": coeffs.norm_sq_l2m,
        "parseval_defect": coeffs.parseval_defect,
        "b1": {"total": b1.total, "tail_ratio": b1.tail_ratio,
               "suggests_membership": b1.tail_ratio <= TAIL_SHARE_TOL},
    }
    for kind, threshold in ((MIX, d / 2 + 1), (UNIF, 1 + n * d / 2)):
        m = threshold + THRESHOLD_MARGIN
        norm, tail = _sigma_norm_with_tail(coeffs, sys, WeightFamily(kind, m))
        report[kind] = {
            "m": m,
            "threshold": threshold,
            "sigma_norm": norm,
            "tail_ratio": tail,
            "suggests_membership": tail <= TAIL_SHARE_TOL,
        }
    return report
