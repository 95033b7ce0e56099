"""Fourier-side regularity diagnostics in the tensorized eigenbasis.

A separated function expands against tensor products of factor
eigenfunctions (an eigens argument holds one FactorEigens per factor);
because the basis is mass-orthonormal, the coefficient tensor of a rank-one
term is an outer product of per-factor coefficient vectors.  On top of the
truncated coefficient box this module evaluates

  * weighted norms (sum_n sigma_n <tau,e_n>^2)^(1/2) for the product
    ("mix") and sum ("unif") eigenvalue weight families,
  * the sufficient-condition sum sum_n sqrt(Lambda_n) |<tau,e_n>| whose
    finiteness guarantees the rate-giving approximation class,
  * threshold reports at the class-membership exponents.

Each computed coefficient carries a roundoff bound from an absolute-value
evaluation of the sums it comes from (Higham, Accuracy and Stability,
ch. 3); the report writes a Parseval defect or tail share that lies strictly
under its bound as 0.0 and flags it, instead of printing roundoff as data.

Everything here is a truncated-box diagnostic: a finite box can suggest but
never prove membership of any infinite-sum class, and the reports say which
reading they support rather than asserting membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fem import MASS, band_matmul
from .greedy import Functional, SeparatedFunction

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

    values_err (per entry) and norm_sq_err bound the roundoff of values and
    of norm_sq_l2m.  norm_sq_l2m is the squared weighted L2 norm of the
    expanded function when known (nan for synthetic tensors), so the Parseval
    defect norm_sq - sum(coeffs^2) is available; truncation only removes
    mass, so the defect is nonnegative up to roundoff.
    """

    values: np.ndarray
    box: tuple
    values_err: np.ndarray
    norm_sq_err: float
    norm_sq_l2m: float = float("nan")

    @property
    def parseval_defect(self) -> float:
        return float(self.norm_sq_l2m - np.sum(self.values ** 2))

    @property
    def parseval_roundoff(self) -> float:
        """Bound on the defect's roundoff: the norm's, that of each squared
        coefficient, and that of their sum."""
        c, e = np.abs(self.values), self.values_err
        return float(self.norm_sq_err + np.sum((2 * c + e) * e)
                     + _gamma(c.size + 1) * np.sum(c ** 2))


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
    tail_below_roundoff: bool


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): relative roundoff bound of n nested roundings."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def _check_box(eigens, box) -> tuple:
    box = tuple(int(b) for b in box)
    if len(box) != len(eigens):
        raise ValueError(f"box has {len(box)} sizes, expected {len(eigens)}")
    for i, (b, eig) in enumerate(zip(box, eigens)):
        if b < 1:
            raise ValueError(f"box size {b} for factor {i} must be positive")
        if b > eig.n_resolved:
            raise ValueError(f"box size {b} for factor {i} exceeds the "
                             f"resolved range {eig.n_resolved}")
    return box


def fourier_coeffs(tau: SeparatedFunction, eigens, box) -> CoeffTensor:
    """Coefficients <tau, e_n>_{L2_M} over the truncation box, factor-wise."""
    box = _check_box(eigens, box)
    if any(eig.vectors is None for eig in eigens):
        raise ValueError("fourier coefficients need factor eigenvectors; "
                         "these eigens were solved without them")
    mats = [eig.mats for eig in eigens]
    vectors = [eig.vectors[:, :b] for eig, b in zip(eigens, box)]
    # the functional (tau, .)_{L2_M} has the columns M_k U_k; the coefficients
    # are its values on the tensor eigenbasis
    source = Functional.from_source(mats, tau)
    values = _outer_sum(source.weights, [v.T @ f for v, f in zip(vectors, source.factors)])
    # the same sums on absolute values bound the roundoff of both figures;
    # each sum is at most two ndof-long products, N factors and 2R terms deep
    abs_mass_u = []
    for m, u in zip(mats, tau.factors):
        abs_band = np.abs(m.bands[MASS])  # symmetric: its own transpose band
        abs_mass_u.append(band_matmul(abs_band, abs_band, np.abs(u)))
    abs_w = np.abs(tau.weights)
    abs_values = _outer_sum(abs_w, [np.abs(v).T @ f for v, f in zip(vectors, abs_mass_u)])
    abs_gram = reduce(np.multiply, [np.abs(u).T @ f for u, f in zip(tau.factors, abs_mass_u)])
    gamma = _gamma(2 * max(m.ndof for m in mats) + len(mats) + 2 * tau.rank + 2)
    return CoeffTensor(values=values, box=box, norm_sq_l2m=float(tau.weights @ source.values(tau)),
                       values_err=gamma * abs_values,
                       norm_sq_err=gamma * float(abs_w @ abs_gram @ abs_w))


def _outer_sum(weights, per_factor) -> np.ndarray:
    """sum_r weights[r] (x)_k per_factor[k][:, r] as a dense tensor."""
    return reduce(lambda a, p: a[..., None, :] * p, per_factor, weights).sum(axis=-1)


def _factor_values(eigens, box) -> list:
    return [eig.values[:b] for eig, b in zip(eigens, box)]


def _sigma_tensor(eigens, box, w: WeightFamily) -> np.ndarray:
    lams = _factor_values(eigens, box)
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


def _weighted_sum_with_tail(contrib: np.ndarray, err, box):
    """Extended-precision total, the outermost shell's share of it, and whether
    the shell lies strictly under the summed roundoff bounds err of its contributions."""
    total = np.sum(np.longdouble(contrib))
    mask = _outer_shell_mask(box)
    shell = np.sum(np.longdouble(contrib[mask]))
    below = bool(shell < np.sum(np.where(mask, err, 0.0)))
    if total == 0.0:
        return np.longdouble(0.0), 0.0, below
    return total, float(shell / total), below


def sigma_norm(coeffs: CoeffTensor, eigens, w: WeightFamily) -> float:
    """(sum_n sigma_n <tau,e_n>^2)^(1/2) over the box, extended-precision sum."""
    return _sigma_norm_with_tail(coeffs, eigens, w)[0]


def _sigma_norm_with_tail(coeffs, eigens, w):
    sigma = _sigma_tensor(eigens, coeffs.box, w)
    contrib = np.longdouble(sigma) * np.longdouble(coeffs.values) ** 2
    err = sigma * (2 * np.abs(coeffs.values) + coeffs.values_err) * coeffs.values_err
    total, tail, below = _weighted_sum_with_tail(contrib, err, coeffs.box)
    return float(np.sqrt(total)), tail, below


def _tensor_lambda(eigens, box) -> np.ndarray:
    lams = _factor_values(eigens, box)
    return reduce(np.add.outer, [lam - 1.0 for lam in lams]) + 1.0


def b1_bound(coeffs: CoeffTensor, eigens) -> B1Bound:
    """sum_n sqrt(Lambda_n) |<tau,e_n>| with the outermost-shell share."""
    tensor_lam = _tensor_lambda(eigens, coeffs.box)
    contrib = np.sqrt(np.longdouble(tensor_lam)) * np.abs(np.longdouble(coeffs.values))
    err = np.sqrt(tensor_lam) * coeffs.values_err
    total, tail, below = _weighted_sum_with_tail(contrib, err, coeffs.box)
    return B1Bound(total=float(total), tail_ratio=tail, tail_below_roundoff=below)


def rate_class_report(coeffs: CoeffTensor, eigens, d: int = 1) -> dict:
    """Truncated-box class diagnostics at the sufficiency exponents.

    The mix family guarantees the rate class above m = d/2 + 1 and the unif
    family above m = 1 + N d / 2; both are evaluated at threshold +
    THRESHOLD_MARGIN.  A family is flagged when the outermost shell carries a
    negligible share of its weighted sum, meaning the truncated norm has
    visibly saturated.  A Parseval defect or tail share strictly under its
    roundoff bound is written as 0.0 beside a true *_below_roundoff flag.
    Finite boxes cannot prove membership; the report states evidence only.
    """
    n = len(eigens)
    b1 = b1_bound(coeffs, eigens)
    defect = coeffs.parseval_defect
    defect_below = bool(abs(defect) < coeffs.parseval_roundoff)
    report = {
        "box": list(coeffs.box),
        "n_factors": n,
        "d": d,
        "resolved_per_factor": [eig.n_resolved for eig in eigens],
        "l2m_norm_sq": coeffs.norm_sq_l2m,
        "parseval_defect": 0.0 if defect_below else defect,
        "parseval_defect_below_roundoff": defect_below,
        "b1": {"total": b1.total, **_flagged_tail(b1.tail_ratio, b1.tail_below_roundoff),
               "suggests_membership": b1.tail_ratio <= TAIL_SHARE_TOL},
    }
    for kind, threshold in ((MIX, d / 2 + 1), (UNIF, 1 + n * d / 2)):
        m = threshold + THRESHOLD_MARGIN
        norm, tail, below = _sigma_norm_with_tail(coeffs, eigens, WeightFamily(kind, m))
        report[kind] = {
            "m": m,
            "threshold": threshold,
            "sigma_norm": norm,
            **_flagged_tail(tail, below),
            "suggests_membership": tail <= TAIL_SHARE_TOL,
        }
    return report


def _flagged_tail(tail: float, below: bool) -> dict:
    return {"tail_ratio": 0.0 if below else tail, "tail_ratio_below_roundoff": below}
