"""Eigenbasis coefficient analysis and class diagnostics."""

import numpy as np
import pytest

from greedy_ou.diagnostics import (
    MIX,
    UNIF,
    CoeffTensor,
    WeightFamily,
    b1_bound,
    fourier_coeffs,
    rate_class_report,
    sigma_norm,
)
from greedy_ou.eigen import EigenSystem, resolved_factor_eigens, solve_factor_eigens, tensor_eigenvalue
from greedy_ou.fem import assemble, build_mesh
from greedy_ou.greedy import Functional, RankOneTerm, SeparatedFunction, energy_norm, run_oga
from greedy_ou.greedy import EnergyForm
from greedy_ou.springs import FENE, SpringModel, normalize


def eigen_system(n_el=40, k=20, n_factors=2):
    mats = assemble(build_mesh(4.0, n_el), normalize(SpringModel(FENE, 4.0)), 2)
    eig = solve_factor_eigens(mats, k)
    return EigenSystem([eig] * n_factors)


def eig_term(sys, n, m):
    return RankOneTerm([sys.factors[0].vectors[:, n], sys.factors[1].vectors[:, m]])


def test_constant_target_gives_delta_tensor():
    sys = eigen_system()
    tau = SeparatedFunction([(1.0, eig_term(sys, 0, 0))])
    coeffs = fourier_coeffs(tau, sys, (5, 5))
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.abs(coeffs.values - expected).max() <= 1e-10
    assert abs(coeffs.parseval_defect) <= 1e-10
    assert coeffs.parseval_defect >= -1e-10


def test_finite_expansion_weights_recovered():
    sys = eigen_system()
    tau = SeparatedFunction([
        (1.0, eig_term(sys, 1, 2)),
        (0.5, eig_term(sys, 3, 0)),
        (0.25, eig_term(sys, 2, 2)),
    ])
    coeffs = fourier_coeffs(tau, sys, (6, 6))
    assert coeffs.values[1, 2] == pytest.approx(1.0, abs=1e-10)
    assert coeffs.values[3, 0] == pytest.approx(0.5, abs=1e-10)
    assert coeffs.values[2, 2] == pytest.approx(0.25, abs=1e-10)
    mask = np.ones((6, 6), dtype=bool)
    mask[1, 2] = mask[3, 0] = mask[2, 2] = False
    assert np.abs(coeffs.values[mask]).max() <= 1e-10


def test_rank_one_coeffs_are_outer_product():
    sys = eigen_system()
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal(f.mats.ndof) for f in sys.factors]
    tau = SeparatedFunction([(1.0, RankOneTerm(factors))])
    box = (8, 8)
    coeffs = fourier_coeffs(tau, sys, box)
    per = [f.vectors[:, :8].T @ f.mats.mass @ v for f, v in zip(sys.factors, factors)]
    assert np.abs(coeffs.values - np.outer(per[0], per[1])).max() <= 1e-12


def test_parseval_defect_nonnegative_and_monotone():
    sys = eigen_system()
    rng = np.random.default_rng(1)
    factors = [rng.standard_normal(f.mats.ndof) for f in sys.factors]
    tau = SeparatedFunction([(1.0, RankOneTerm(factors))])
    defects = [fourier_coeffs(tau, sys, (b, b)).parseval_defect for b in (4, 8, 12, 16)]
    assert all(d >= -1e-10 for d in defects)
    assert all(defects[i + 1] <= defects[i] + 1e-12 for i in range(3))


def test_box_validation():
    weight = normalize(SpringModel(FENE, 4.0))
    eig = resolved_factor_eigens(assemble(build_mesh(4.0, 20), weight, 2), k=35)
    sys = EigenSystem([eig, eig])
    tau = SeparatedFunction([(1.0, RankOneTerm([np.ones(eig.mats.ndof)] * 2))])
    assert eig.n_resolved < 35
    with pytest.raises(ValueError, match="resolved"):
        fourier_coeffs(tau, sys, (eig.n_resolved + 1, 2))
    with pytest.raises(ValueError, match="sizes"):
        fourier_coeffs(tau, sys, (2,))
    with pytest.raises(ValueError, match="positive"):
        fourier_coeffs(tau, sys, (0, 2))


def test_weight_family_validation():
    WeightFamily(MIX, 0.0)
    with pytest.raises(ValueError):
        WeightFamily("geometric", 1.0)
    with pytest.raises(ValueError):
        WeightFamily(UNIF, -1.0)


def test_sigma_norm_mix_zero_is_l2():
    sys = eigen_system()
    rng = np.random.default_rng(2)
    values = rng.standard_normal((6, 6))
    coeffs = CoeffTensor(values=values, box=(6, 6))
    assert sigma_norm(coeffs, sys, WeightFamily(MIX, 0.0)) == pytest.approx(
        np.linalg.norm(values), rel=1e-13)


def test_sigma_norm_single_term_and_monotonicity():
    sys = eigen_system()
    lam = sys.factors[0].values
    values = np.zeros((5, 5))
    values[2, 3] = 0.7
    coeffs = CoeffTensor(values=values, box=(5, 5))
    assert sigma_norm(coeffs, sys, WeightFamily(MIX, 1.0)) == pytest.approx(
        np.sqrt(lam[2] * lam[3]) * 0.7, rel=1e-12)
    assert sigma_norm(coeffs, sys, WeightFamily(UNIF, 1.0)) == pytest.approx(
        np.sqrt(lam[2] + lam[3]) * 0.7, rel=1e-12)
    rng = np.random.default_rng(3)
    rand = CoeffTensor(values=rng.standard_normal((8, 8)), box=(8, 8))
    assert sigma_norm(rand, sys, WeightFamily(MIX, 2.0)) >= sigma_norm(
        rand, sys, WeightFamily(MIX, 1.0))


def test_b1_bound_constant_and_finite_tail():
    sys = eigen_system()
    tau = SeparatedFunction([(1.0, eig_term(sys, 0, 0))])
    coeffs = fourier_coeffs(tau, sys, (6, 6))
    out = b1_bound(coeffs, sys)
    assert out.total == pytest.approx(1.0, abs=1e-9)
    assert out.tail_ratio <= 1e-12


def test_b1_and_sigma_match_direct_summation():
    # independent route: plain double loops through tensor_eigenvalue
    sys = eigen_system(n_el=60, k=30)
    box = (30, 30)
    lam_grid = np.array([[tensor_eigenvalue(sys, (n, m)) for m in range(1, 31)]
                         for n in range(1, 31)])
    values = lam_grid ** -2.0
    coeffs = CoeffTensor(values=values, box=box)
    direct_b1 = 0.0
    for n in range(30):
        for m in range(30):
            direct_b1 += np.sqrt(lam_grid[n, m]) * abs(values[n, m])
    out = b1_bound(coeffs, sys)
    assert out.total == pytest.approx(direct_b1, rel=1e-12)
    lam = sys.factors[0].values
    direct_sigma = 0.0
    for n in range(30):
        for m in range(30):
            direct_sigma += (lam[n] * lam[m]) ** 1.5 * values[n, m] ** 2
    assert sigma_norm(coeffs, sys, WeightFamily(MIX, 1.5)) == pytest.approx(
        np.sqrt(direct_sigma), rel=1e-12)


def test_mix_weighted_eigenvalue_sum_is_cauchy():
    # sum_n Lambda_n / prod lambda^m converges at m=4: once the box is large
    # enough, growing it further stops moving the partial sum
    sys = eigen_system(n_el=80, k=50)
    lam = sys.factors[0].values

    def partial(bound):
        s = 0.0
        for n in range(bound):
            for m in range(bound):
                tensor_lam = 1.0 + (lam[n] - 1.0) + (lam[m] - 1.0)
                s += tensor_lam / (lam[n] * lam[m]) ** 4
        return s

    sums = [partial(b) for b in (40, 45, 50)]
    assert all(abs(sums[i + 1] - sums[i]) < 1e-8 for i in range(2))


def test_rate_class_report_thresholds_and_flags():
    sys = eigen_system()
    tau = SeparatedFunction([(1.0, eig_term(sys, 1, 1)), (0.3, eig_term(sys, 0, 2))])
    coeffs = fourier_coeffs(tau, sys, (8, 8))
    report = rate_class_report(coeffs, sys, d=1)
    assert report[MIX]["threshold"] == 1.5
    assert report[MIX]["m"] == 1.75
    assert report[UNIF]["threshold"] == 2.0
    assert report[UNIF]["m"] == 2.25
    # finite expansion: all norms finite, every flag set
    for key in (MIX, UNIF):
        assert np.isfinite(report[key]["sigma_norm"])
        assert report[key]["suggests_membership"]
    assert report["b1"]["suggests_membership"]
    assert report["resolved_per_factor"] == [20, 20]
    assert report["parseval_defect"] >= -1e-10


def test_slowly_decaying_coefficients_fail_the_flags():
    sys = eigen_system(n_el=60, k=30)
    lam_grid = np.array([[tensor_eigenvalue(sys, (n, m)) for m in range(1, 31)]
                         for n in range(1, 31)])
    coeffs = CoeffTensor(values=lam_grid ** -0.75, box=(30, 30))
    report = rate_class_report(coeffs, sys, d=1)
    assert not report[MIX]["suggests_membership"]
    assert not report["b1"]["suggests_membership"]


def test_observed_oga_rate_steeper_for_smoother_target():
    # reported, not asserted against a numeric threshold
    sys = eigen_system(n_el=12, k=10)
    mats = [sys.factors[0].mats] * 2
    form = EnergyForm(np.eye(2), wi=1.0, c=1.0)

    def run(decay):
        terms = [(float((i + 1) ** -decay), eig_term(sys, i, i)) for i in range(8)]
        target = SeparatedFunction(terms)
        _, trace = run_oga(form, mats, Functional.from_target(target), tol_stop=1e-12,
                           n_max=6, restarts=2, rng=np.random.default_rng(4), target=target)
        errs = np.array([r.err_energy for r in trace.rows])
        ns = np.arange(1, len(errs) + 1, dtype=float)
        keep = errs > 1e-13
        slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
        return slope

    smooth, rough = run(3.0), run(0.6)
    assert np.isfinite(smooth) and np.isfinite(rough)
    print(f"observed rate exponents: smooth {smooth:.3f}, rough {rough:.3f}")
