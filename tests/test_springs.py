"""Spring laws, Maxwellian normalization, and the confining potential."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from greedy_ou.springs import (
    CPAIL,
    FENE,
    SpringModel,
    integrate_weighted,
    maxwellian_unnormalized,
    normalize,
)

from closed_forms import boundary_limit_d2q, q_theta


def test_model_validation():
    SpringModel(FENE, 2.5)
    SpringModel(CPAIL, 3.5)
    with pytest.raises(ValueError):
        SpringModel(FENE, 2.0)
    with pytest.raises(ValueError):
        SpringModel(CPAIL, 3.0)
    with pytest.raises(ValueError):
        SpringModel("hookean", 4.0)


def spring_force(model, q):
    """The spring law's force F(q) = U'(q^2/2) q, in closed form."""
    denom = 1.0 - q * q / model.b
    if model.kind == FENE:
        return q / denom
    return q * (1.0 - q * q / (3.0 * model.b)) / denom


def test_force_matches_log_derivative_of_maxwellian():
    # d/dq [-ln M] = F(q) ties the weight to the spring law
    for model in (SpringModel(FENE, 4.0), SpringModel(CPAIL, 6.0), SpringModel(FENE, 2.5)):
        qs = np.linspace(-0.8, 0.8, 7) * model.q_max
        h = 1e-6
        for q in qs:
            lm = -np.log(maxwellian_unnormalized(model, np.array([q - h, q + h])))
            assert (lm[1] - lm[0]) / (2 * h) == pytest.approx(spring_force(model, q),
                                                             rel=1e-6, abs=1e-8)


def test_maxwellian_boundary_and_domain():
    model = SpringModel(FENE, 4.0)
    assert maxwellian_unnormalized(model, 2.0) == 0.0
    assert maxwellian_unnormalized(model, -2.0) == 0.0
    with pytest.raises(ValueError):
        maxwellian_unnormalized(model, 2.1)


def test_normalize_fene_b2_closed_form():
    # int (1 - q^2/b)^{b/2} dq at b=2+eps -> (4/3) sqrt(2): Z^-1 = 3/(4 sqrt 2)
    weight = normalize(SpringModel(FENE, 2.0 + 1e-13))
    assert weight.z_inv == pytest.approx(3.0 / (4.0 * np.sqrt(2.0)), rel=1e-9)


@pytest.mark.parametrize("kind,b", [(FENE, 2.5), (FENE, 4.0), (FENE, 8.0), (FENE, 30.0),
                                    (FENE, 100.0), (FENE, 1000.0), (FENE, 1e4),
                                    (CPAIL, 3.5), (CPAIL, 6.0), (CPAIL, 100.0),
                                    (CPAIL, 1000.0), (CPAIL, 1e4)])
def test_normalized_weight_integrates_to_one(kind, b):
    model = SpringModel(kind, b)
    weight = normalize(model)
    # independent route: adaptive quadrature on the open interval; the weight
    # narrows toward q = 0 as b grows, which the Jacobi rule must still resolve
    z, _ = quad(lambda q: maxwellian_unnormalized(model, q), -model.q_max, model.q_max,
                points=[0.0], limit=500, epsabs=0.0, epsrel=1e-13)
    assert weight.z_inv * z == pytest.approx(1.0, rel=1e-13, abs=0.0)
    total = integrate_weighted(model)
    assert weight.z_inv * total == pytest.approx(1.0, abs=1e-12)


def test_normalization_bits_are_pinned():
    # every basis, and so every output, scales with these two constants
    assert normalize(SpringModel(FENE, 4.0)).z_inv == 0.4687500000000001
    assert normalize(SpringModel(CPAIL, 6.0)).z_inv == 0.43602459240255165


@pytest.mark.parametrize("kind,b", [(FENE, 1e9), (CPAIL, 1e12)])
def test_normalize_refuses_a_normalisation_that_is_not_finite(kind, b):
    # the Gauss-Jacobi rule gives NaN nodes at these exponents; integrate_weighted,
    # a test oracle, returns the NaN and normalize refuses it
    model = SpringModel(kind, b)
    assert np.isnan(integrate_weighted(model))
    with pytest.raises(ValueError, match="^weight normalisation nan is not finite$"):
        normalize(model)


def test_integrate_weighted_moment():
    # second moment against scipy for a mid-range parameter
    model = SpringModel(FENE, 4.0)
    mine = integrate_weighted(model, lambda q: q * q)
    ref, _ = quad(lambda q: q * q * maxwellian_unnormalized(model, q),
                  -model.q_max, model.q_max, limit=200)
    assert mine == pytest.approx(ref, rel=1e-11)


def test_q_theta_hand_values():
    fene = SpringModel(FENE, 4.0)
    # Theta + (1/4 - 1/b) q^2 (1-q^2/b)^-2 - (d/2)(1-q^2/b)^-1 at q=0: Theta - 1/2
    assert q_theta(fene, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    cpail = SpringModel(CPAIL, 6.0)
    # Theta - d/6 + 0 + 0 - d/3 at q=0, d=1: Theta - 1/2
    assert q_theta(cpail, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        q_theta(fene, 0.0, 0.0)
    with pytest.raises(ValueError):
        q_theta(fene, 1.0, 2.0)


@pytest.mark.parametrize("kind,b,expected", [
    (FENE, 3.0, 3.0 * (3.0 / 4.0 - 1.0) / 4.0),   # -3/16
    (FENE, 4.0, 0.0),
    (FENE, 5.0, None),
    (CPAIL, 4.0, 4.0 * (4.0 - 6.0) / 36.0),
    (CPAIL, 6.0, 0.0),
    (CPAIL, 7.0, None),
])
def test_boundary_limit_values(kind, b, expected):
    got = boundary_limit_d2q(SpringModel(kind, b))
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("kind,b", [(FENE, 3.0), (FENE, 3.7), (CPAIL, 4.0), (CPAIL, 5.5)])
def test_q_theta_approaches_boundary_limit(kind, b):
    # dist^2 * Q_1 tends to the stated limit as q -> sqrt(b)
    model = SpringModel(kind, b)
    limit = boundary_limit_d2q(model)
    assert limit is not None
    for dist, tol in [(1e-2, 0.2), (1e-3, 0.02), (1e-4, 0.002)]:
        q = model.q_max - dist
        scaled = dist * dist * q_theta(model, 1.0, q)
        assert scaled == pytest.approx(limit, rel=tol)


def test_q_theta_unbounded_below_in_tight_regime():
    # for FENE b < 4 the potential diverges to -inf at the boundary
    model = SpringModel(FENE, 3.0)
    vals = q_theta(model, 1.0, model.q_max - 10.0 ** -np.arange(2, 8.0))
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < -1e6


def test_q_theta_bounded_below_in_loose_regime():
    # for FENE b > 4 the singular terms have positive net coefficient
    model = SpringModel(FENE, 5.0)
    rng = np.random.default_rng(0)
    q = model.q_max * (2.0 * rng.random(10_000) - 1.0)
    vals = q_theta(model, 1.0, q)
    assert np.isfinite(vals).all()
    assert vals.min() > -10.0


@settings(max_examples=25)
@given(qfrac=st.floats(min_value=-0.999, max_value=0.999), theta=st.floats(min_value=0.1, max_value=5.0))
def test_q_theta_shift_is_additive(qfrac, theta):
    model = SpringModel(CPAIL, 6.0)
    q = qfrac * model.q_max
    assert q_theta(model, theta, q) == pytest.approx(q_theta(model, 1.0, q) + (theta - 1.0),
                                                     rel=1e-12, abs=1e-12)
