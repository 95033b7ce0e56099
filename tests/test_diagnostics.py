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
from greedy_ou.eigen import resolved_factor_eigens, solve_factor_eigens
from greedy_ou.fem import assemble, build_mesh
from greedy_ou.greedy import Functional, SeparatedFunction, energy_norm, run_oga
from greedy_ou.greedy import EnergyForm
from greedy_ou.springs import FENE, SpringModel, normalize

from closed_forms import tensor_eigenvalue


def eigen_system(n_el=40, k=20, n_factors=2):
    mats = assemble(build_mesh(4.0, n_el), normalize(SpringModel(FENE, 4.0)), 2)
    eig = solve_factor_eigens(mats, k)
    return (eig,) * n_factors


def eig_target(sys, weights, ns, ms):
    """sum_r weights[r] e_{ns[r]} (x) e_{ms[r]} over the first two factors (0-based)."""
    return SeparatedFunction(weights, [sys[0].vectors[:, ns],
                                       sys[1].vectors[:, ms]])


def test_constant_target_gives_delta_tensor():
    sys = eigen_system()
    tau = eig_target(sys, [1.0], [0], [0])
    coeffs = fourier_coeffs(tau, sys, (5, 5))
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.abs(coeffs.values - expected).max() <= 1e-10
    assert abs(coeffs.parseval_defect) <= 1e-10
    assert coeffs.parseval_defect >= -1e-10


def test_finite_expansion_weights_recovered():
    sys = eigen_system()
    tau = eig_target(sys, [1.0, 0.5, 0.25], [1, 3, 2], [2, 0, 2])
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
    factors = [rng.standard_normal(f.mats.ndof) for f in sys]
    tau = SeparatedFunction([1.0], [f[:, None] for f in factors])
    box = (8, 8)
    coeffs = fourier_coeffs(tau, sys, box)
    per = [f.vectors[:, :8].T @ f.mats.mass @ v for f, v in zip(sys, factors)]
    assert np.abs(coeffs.values - np.outer(per[0], per[1])).max() <= 1e-12


def test_parseval_defect_nonnegative_and_monotone():
    sys = eigen_system()
    rng = np.random.default_rng(1)
    factors = [rng.standard_normal(f.mats.ndof) for f in sys]
    tau = SeparatedFunction([1.0], [f[:, None] for f in factors])
    defects = [fourier_coeffs(tau, sys, (b, b)).parseval_defect for b in (4, 8, 12, 16)]
    assert all(d >= -1e-10 for d in defects)
    assert all(defects[i + 1] <= defects[i] + 1e-12 for i in range(3))


def test_box_validation():
    weight = normalize(SpringModel(FENE, 4.0))
    eig = resolved_factor_eigens(assemble(build_mesh(4.0, 20), weight, 2), k=35)
    sys = (eig, eig)
    tau = SeparatedFunction([1.0], [np.ones((eig.mats.ndof, 1))] * 2)
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
    coeffs = CoeffTensor(values=values, box=(6, 6), values_err=np.zeros((6, 6)),
                         norm_sq_err=0.0)
    assert sigma_norm(coeffs, sys, WeightFamily(MIX, 0.0)) == pytest.approx(
        np.linalg.norm(values), rel=1e-13)


def test_sigma_norm_single_term_and_monotonicity():
    sys = eigen_system()
    lam = sys[0].values
    values = np.zeros((5, 5))
    values[2, 3] = 0.7
    coeffs = CoeffTensor(values=values, box=(5, 5), values_err=np.zeros((5, 5)),
                         norm_sq_err=0.0)
    assert sigma_norm(coeffs, sys, WeightFamily(MIX, 1.0)) == pytest.approx(
        np.sqrt(lam[2] * lam[3]) * 0.7, rel=1e-12)
    assert sigma_norm(coeffs, sys, WeightFamily(UNIF, 1.0)) == pytest.approx(
        np.sqrt(lam[2] + lam[3]) * 0.7, rel=1e-12)
    rng = np.random.default_rng(3)
    rand = CoeffTensor(values=rng.standard_normal((8, 8)), box=(8, 8),
                       values_err=np.zeros((8, 8)), norm_sq_err=0.0)
    assert sigma_norm(rand, sys, WeightFamily(MIX, 2.0)) >= sigma_norm(
        rand, sys, WeightFamily(MIX, 1.0))


def test_b1_bound_constant_and_finite_tail():
    sys = eigen_system()
    tau = eig_target(sys, [1.0], [0], [0])
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
    coeffs = CoeffTensor(values=values, box=box, values_err=np.zeros(box), norm_sq_err=0.0)
    direct_b1 = 0.0
    for n in range(30):
        for m in range(30):
            direct_b1 += np.sqrt(lam_grid[n, m]) * abs(values[n, m])
    out = b1_bound(coeffs, sys)
    assert out.total == pytest.approx(direct_b1, rel=1e-12)
    lam = sys[0].values
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
    lam = sys[0].values

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
    tau = eig_target(sys, [1.0, 0.3], [1, 0], [1, 2])
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
    coeffs = CoeffTensor(values=lam_grid ** -0.75, box=(30, 30),
                         values_err=np.zeros((30, 30)), norm_sq_err=0.0)
    report = rate_class_report(coeffs, sys, d=1)
    assert not report[MIX]["suggests_membership"]
    assert not report["b1"]["suggests_membership"]


def test_observed_oga_rate_steeper_for_smoother_target():
    # reported, not asserted against a numeric threshold
    sys = eigen_system(n_el=12, k=10)
    mats = [sys[0].mats] * 2
    form = EnergyForm(np.eye(2), wi=1.0, c=1.0)

    def run(decay):
        target = eig_target(sys, [float((i + 1) ** -decay) for i in range(8)],
                            list(range(8)), list(range(8)))
        _, trace = run_oga(form, mats, Functional.from_target(form, mats, target), tol_stop=1e-12,
                           n_max=6, restarts=2, rng=np.random.default_rng(4), target=target)
        errs = np.array([r.err_energy for r in trace.rows])
        ns = np.arange(1, len(errs) + 1, dtype=float)
        keep = errs > 1e-13
        slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
        return slope

    smooth, rough = run(3.0), run(0.6)
    assert np.isfinite(smooth) and np.isfinite(rough)
    print(f"observed rate exponents: smooth {smooth:.3f}, rough {rough:.3f}")


def without(report, keys):
    """The report with the named top-level or family-level numeric fields removed."""
    return {k: (without(v, keys) if isinstance(v, dict) else v)
            for k, v in report.items() if k not in keys}


def test_roundoff_level_figures_are_flagged():
    # an exact eigen expansion strictly inside the box: its Parseval defect and
    # every tail share are roundoff, so changing the factor vectors at 1e-15
    # relative leaves the report as it was, with every flag set
    sys = eigen_system()
    tau = eig_target(sys, [1.0, 0.5, -0.25], [1, 3, 2], [2, 0, 2])
    rng = np.random.default_rng(5)
    nudged = SeparatedFunction(tau.weights, [f * (1 + 1e-15 * rng.standard_normal(f.shape))
                                             for f in tau.factors])
    reports = [rate_class_report(fourier_coeffs(t, sys, (6, 6)), sys) for t in (tau, nudged)]
    for report in reports:
        assert report["parseval_defect"] == 0.0
        assert report["parseval_defect_below_roundoff"] is True
        for key in ("b1", MIX, UNIF):
            assert report[key]["tail_ratio"] == 0.0
            assert report[key]["tail_ratio_below_roundoff"] is True
    # the sums themselves are data and move only in their last digits
    data = ("l2m_norm_sq", "total", "sigma_norm")
    assert without(reports[0], data) == without(reports[1], data)
    assert reports[1]["l2m_norm_sq"] == pytest.approx(reports[0]["l2m_norm_sq"], rel=1e-14)
    assert reports[1]["b1"]["total"] == pytest.approx(reports[0]["b1"]["total"], rel=1e-14)
    for key in (MIX, UNIF):
        assert reports[1][key]["sigma_norm"] == pytest.approx(reports[0][key]["sigma_norm"],
                                                              rel=1e-14)


def test_truncation_defect_is_not_flagged():
    # box (3, 3) cuts off the 0.5 e_3 (x) e_0 term: the defect is its squared
    # weight, and the two terms on the outer shell give genuine tail shares
    sys = eigen_system()
    tau = eig_target(sys, [1.0, 0.5, 0.25], [1, 3, 2], [2, 0, 2])
    coeffs = fourier_coeffs(tau, sys, (3, 3))
    report = rate_class_report(coeffs, sys)
    assert report["parseval_defect"] == coeffs.parseval_defect
    assert report["parseval_defect"] == pytest.approx(0.25, rel=1e-10)
    assert report["parseval_defect_below_roundoff"] is False
    for key in ("b1", MIX, UNIF):
        assert report[key]["tail_ratio"] > 0.5
        assert report[key]["tail_ratio_below_roundoff"] is False


def test_small_genuine_tail_is_not_flagged():
    # a 1e-12 term on the outer shell is far above the roundoff of its own
    # coefficient, so its tail share is reported although the large interior
    # term's coefficients carry much larger roundoff bounds
    sys = eigen_system()
    tau = eig_target(sys, [1.0, 1e-12], [1, 5], [2, 5])
    report = rate_class_report(fourier_coeffs(tau, sys, (6, 6)), sys)
    for key in ("b1", MIX, UNIF):
        assert 0.0 < report[key]["tail_ratio"] < 1e-9
        assert report[key]["tail_ratio_below_roundoff"] is False


def test_exact_zero_shell_is_not_flagged():
    # coefficients given exactly, with nothing on the outer shell: a zero
    # tail share is data, not roundoff, and carries no flag
    sys = eigen_system()
    values = np.zeros((5, 5))
    values[2, 3] = 0.7
    coeffs = CoeffTensor(values=values, box=(5, 5), values_err=np.zeros((5, 5)),
                         norm_sq_err=0.0)
    report = rate_class_report(coeffs, sys)
    for key in ("b1", MIX, UNIF):
        assert report[key]["tail_ratio"] == 0.0
        assert report[key]["tail_ratio_below_roundoff"] is False


def test_coefficient_roundoff_bounds_hold():
    # extended-precision coefficients and norm of a random rank-3 target lie
    # within the reported roundoff bounds of the double-precision ones
    sys = eigen_system()
    rng = np.random.default_rng(6)
    tau = SeparatedFunction(rng.uniform(-1.5, 1.5, 3),
                            [rng.standard_normal((f.mats.ndof, 3)) for f in sys])
    box = (8, 8)
    coeffs = fourier_coeffs(tau, sys, box)
    ld = [np.asarray(f, dtype=np.longdouble) for f in tau.factors]
    mass = [np.asarray(f.mats.mass, dtype=np.longdouble) for f in sys]
    vecs = [np.asarray(f.vectors[:, :b], dtype=np.longdouble) for f, b in zip(sys, box)]
    w = np.asarray(tau.weights, dtype=np.longdouble)
    per = [v.T @ (m @ u) for v, m, u in zip(vecs, mass, ld)]
    exact = np.einsum("r,ir,jr->ij", w, per[0], per[1])
    gram = (ld[0].T @ mass[0] @ ld[0]) * (ld[1].T @ mass[1] @ ld[1])
    assert np.all(np.abs(coeffs.values - exact) <= coeffs.values_err)
    assert abs(coeffs.norm_sq_l2m - w @ gram @ w) <= coeffs.norm_sq_err
