"""Factor meshes and weighted matrix assembly."""

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from greedy_ou import fem
from greedy_ou.fem import (
    _BOUNDARY_SPLIT,
    BANDED_MIN_NDOF,
    AssemblyError,
    _panels,
    _shape_functions,
    assemble,
    band_matmul,
    build_mesh,
)
from greedy_ou.springs import CPAIL, FENE, SpringModel, integrate_weighted, normalize

from closed_forms import dof_coordinates

EPS = np.finfo(float).eps

# the band of each operator's transpose holds the operator's lower triangle
TRANSPOSE = {"mass": "mass", "stiffness": "stiffness",
             "grad_coupling": "grad_coupling_t", "grad_coupling_t": "grad_coupling"}


def make_mats(kind=FENE, b=4.0, n_el=40, grading=1.0, degree=2):
    model = SpringModel(kind, b)
    return assemble(build_mesh(b, n_el, grading), normalize(model), degree)


def element_panels(x_left, x_right, at_left_boundary, at_right_boundary):
    if not (at_left_boundary or at_right_boundary):
        return [(x_left, x_right)]
    h = x_right - x_left
    s = _BOUNDARY_SPLIT
    if at_right_boundary:
        inner = x_right - h * 0.5 ** np.arange(1, s + 1)
    else:
        inner = x_left + h * 0.5 ** np.arange(s, 0, -1)
    pts = np.concatenate([[x_left], inner, [x_right]])
    return list(zip(pts[:-1], pts[1:]))


def loop_assemble(mesh, weight, p):
    """Element-by-element, panel-by-panel assembly: the oracle for the batched one."""
    nodes = mesh.nodes
    n_el = mesh.n_el
    ndof = n_el * p + 1
    mass, stiff, grad = (np.zeros((ndof, ndof)) for _ in range(3))
    xi, wq = np.polynomial.legendre.leggauss(p + 4)
    for e in range(n_el):
        xl, xr = nodes[e], nodes[e + 1]
        dofs = np.arange(p * e, p * e + p + 1)
        m_el, k_el, c_el = (np.zeros((p + 1, p + 1)) for _ in range(3))
        inv_jac = 2.0 / (xr - xl)
        for a, b in element_panels(xl, xr, e == 0, e == n_el - 1):
            half = 0.5 * (b - a)
            x = 0.5 * (a + b) + half * xi
            vals, ders = _shape_functions(p, (2.0 * x - (xl + xr)) / (xr - xl))
            root = np.sqrt(wq * half * weight(x))
            vr = vals * root
            dr = inv_jac * (ders * root)
            m_el += vr @ vr.T
            k_el += dr @ dr.T
            c_el += vr @ dr.T
        mass[np.ix_(dofs, dofs)] += m_el
        stiff[np.ix_(dofs, dofs)] += k_el
        grad[np.ix_(dofs, dofs)] += c_el
    return mass, stiff, grad


def add_at_assemble(mesh, weight, p):
    """Dense scatter of the batched panel values by np.add.at: the oracle that
    the banded scatter must reproduce bit for bit."""
    nodes = mesh.nodes
    ndof = mesh.n_el * p + 1
    xi, wq = np.polynomial.legendre.leggauss(p + 4)
    a, b, elem = _panels(nodes)
    xl, xr = nodes[elem, None], nodes[elem + 1, None]
    half = 0.5 * (b - a)[:, None]
    x = 0.5 * (a + b)[:, None] + half * xi
    vals, ders = _shape_functions(p, (2.0 * x - (xl + xr)) / (xr - xl))
    root = np.sqrt(wq * half * weight(x))
    vr = vals * root
    dr = 2.0 / (xr - xl) * (ders * root)
    dofs = p * elem + np.arange(p + 1)[:, None]
    index = (dofs[:, None], dofs[None, :])
    mass, stiff, grad = (np.zeros((ndof, ndof)) for _ in range(3))
    np.add.at(mass, index, (vr[:, None] * vr[None, :]).sum(axis=-1))
    np.add.at(stiff, index, (dr[:, None] * dr[None, :]).sum(axis=-1))
    np.add.at(grad, index, (vr[:, None] * dr[None, :]).sum(axis=-1))
    return mass, stiff, grad


def band_of(op, p):
    """Row d holds op[i, i + d], zeros in its last d entries: the FactorMatrices.bands layout."""
    n = op.shape[0]
    band = np.zeros((p + 1, n))
    for d in range(p + 1):
        band[d, :n - d] = np.diagonal(op, d)
    return band


@pytest.mark.parametrize("grading", [1.0, 2.0])
@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0), (FENE, 2.5)])
@pytest.mark.parametrize("degree", [1, 2])
def test_banded_scatter_is_bitwise_dense_scatter(degree, kind, b, grading):
    mesh = build_mesh(b, 24, grading)
    weight = normalize(SpringModel(kind, b))
    mats = assemble(mesh, weight, degree)
    mass, stiff, grad = add_at_assemble(mesh, weight, degree)
    want = {"mass": mass, "stiffness": stiff, "grad_coupling": grad, "grad_coupling_t": grad.T}
    assert set(mats.bands) == set(want)
    for name, op in want.items():
        assert np.array_equal(mats.bands[name], band_of(op, degree)), name
        assert np.array_equal(getattr(mats, name), op), name


def test_storage_is_read_only():
    mats = make_mats(n_el=8)
    for name in ("mass", "stiffness", "grad_coupling", "grad_coupling_t"):
        with pytest.raises(ValueError, match="read-only"):
            mats.bands[name][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(mats, name)[0, 0] = 1.0
    assert mats.mass is mats.mass


def test_assembly_reuses_one_gauss_rule_per_degree(monkeypatch):
    # the rules are built at import; an assembly computes none and gets the same bands
    before = {p: make_mats(n_el=8, degree=p) for p in (1, 2)}

    def refused(n):
        raise AssertionError(f"leggauss({n}) called during assembly")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refused)
    for p, mats in before.items():
        again = make_mats(n_el=8, degree=p)
        assert all(np.array_equal(again.bands[k], mats.bands[k]) for k in mats.bands)


def test_bases_compare_and_hash_by_identity():
    # two assemblies of one basis hold equal bands; comparing them must not
    # compare the arrays, and each one can key a dict of per-basis results
    a, b = make_mats(n_el=8), make_mats(n_el=8)
    assert all(np.array_equal(a.bands[name], b.bands[name]) for name in a.bands)
    assert a != b and a == a
    assert len({a: 0, b: 1}) == 2


@pytest.mark.parametrize("grading", [1.0, 2.0])
@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0), (FENE, 2.5)])
@pytest.mark.parametrize("degree", [1, 2])
def test_batched_assembly_matches_element_loop(degree, kind, b, grading):
    mesh = build_mesh(b, 24, grading)
    weight = normalize(SpringModel(kind, b))
    mats = assemble(mesh, weight, degree)
    for got, want in zip((mats.mass, mats.stiffness, mats.grad_coupling),
                         loop_assemble(mesh, weight, degree)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(mats.mass, mats.mass.T)
    assert np.array_equal(mats.stiffness, mats.stiffness.T)


def test_uniform_mesh_nodes():
    mesh = build_mesh(4.0, 4)
    assert np.allclose(mesh.nodes, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=0)
    assert mesh.n_el == 4


def test_graded_mesh_clusters_at_endpoints():
    mesh = build_mesh(4.0, 4, grading=2.0)
    # u = +-0.5 maps to +-2 (1 - 0.25) = +-1.5
    assert np.allclose(mesh.nodes, [-2.0, -1.5, 0.0, 1.5, 2.0])
    mesh = build_mesh(9.0, 64, grading=3.0)
    assert mesh.nodes[0] == -3.0 and mesh.nodes[-1] == 3.0
    assert np.all(np.diff(mesh.nodes) > 0)
    # boundary spacing shrinks relative to the center
    assert mesh.nodes[-1] - mesh.nodes[-2] < 0.2 * (mesh.nodes[33] - mesh.nodes[32])


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(4.0, 3)
    with pytest.raises(ValueError):
        build_mesh(4.0, 8, grading=0.5)


@pytest.mark.parametrize("degree", [1, 2])
def test_shapes_and_symmetry(degree):
    mats = make_mats(n_el=10, degree=degree)
    n = 10 * degree + 1
    assert mats.ndof == n
    for mat in (mats.mass, mats.stiffness):
        assert mat.shape == (n, n)
        assert np.array_equal(mat, mat.T)
    assert np.linalg.eigvalsh(mats.mass).min() > 0
    assert np.linalg.eigvalsh(mats.stiffness).min() > -1e-14


@pytest.mark.parametrize("grading", [1.0, 2.0])
@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0)])
@pytest.mark.parametrize("degree", [1, 2])
def test_cached_bands_reproduce_dense_matrices(degree, kind, b, grading):
    mats = make_mats(kind, b, n_el=12, grading=grading, degree=degree)
    p, n = degree, mats.ndof

    def from_band(band):
        assert band.shape == (p + 1, n)
        assert all(np.all(band[d, n - d:] == 0.0) for d in range(1, p + 1))
        return sum(np.diag(band[d, :n - d], d) for d in range(p + 1))

    # equality everywhere also shows that nothing lies outside bandwidth p
    assert set(mats.bands) == set(TRANSPOSE)
    for name, t_name in TRANSPOSE.items():
        rebuilt = (from_band(mats.bands[name])
                   + np.tril(from_band(mats.bands[t_name]).T, -1))
        assert np.array_equal(rebuilt, getattr(mats, name)), name
    assert mats.bands is mats.bands


@pytest.mark.parametrize("ndof", [121, 241], ids=["below-crossover", "above-crossover"])
@pytest.mark.parametrize("degree", [1, 2])
def test_band_products_match_dense_views(degree, ndof):
    assert 121 < BANDED_MIN_NDOF <= 241  # apply takes the dense view below, the bands above
    mats = make_mats(n_el=(ndof - 1) // degree, degree=degree)
    assert mats.ndof == ndof
    rng = np.random.default_rng(21)
    for x in (rng.standard_normal(ndof), rng.standard_normal((ndof, 5))):
        for name, t_name in TRANSPOSE.items():
            dense = getattr(mats, name)
            # each entry sums 2p + 1 products in both; each path rounds at
            # most 2p + 1 times, so they differ by at most 2 gamma_(2p+1) |op| |x|
            tol = (2 * degree + 1) * 1.01 * EPS * (np.abs(dense) @ np.abs(x))
            for got in (band_matmul(mats.bands[name], mats.bands[t_name], x),
                        mats.apply(name, x)):
                assert got.shape == x.shape
                assert np.all(np.abs(got - dense @ x) <= tol), name


def test_constant_function_identities():
    mats = make_mats(kind=FENE, b=4.0, n_el=40)
    ones = np.ones(mats.ndof)
    # weight is normalized: int M = 1
    assert ones @ mats.mass @ ones == pytest.approx(1.0, abs=1e-12)
    # constants have zero derivative
    assert np.abs(mats.stiffness @ ones).max() < 1e-13
    # derivative acts on the trial slot only
    assert np.abs(mats.grad_coupling @ ones).max() < 1e-13
    # int M u' for u = q is int M = 1
    u = dof_coordinates(mats)  # nodal interpolant of q
    assert ones @ mats.grad_coupling @ u == pytest.approx(1.0, abs=1e-12)


def test_polynomial_weight_is_integrated_exactly():
    # FENE b = 4 has a polynomial weight, so quadrature is exact:
    # int M q^2 = 4/7 and the q-interpolant is exact in the quadratic basis
    mats = make_mats(kind=FENE, b=4.0, n_el=12)
    u = dof_coordinates(mats)
    assert u @ mats.mass @ u == pytest.approx(4.0 / 7.0, rel=1e-13)
    assert u @ mats.stiffness @ u == pytest.approx(1.0, rel=1e-13)
    # v = q^2: int M u' v = int M q^2
    v = u * u
    assert v @ mats.grad_coupling @ u == pytest.approx(4.0 / 7.0, rel=1e-12)


@pytest.mark.parametrize("kind,b,grading", [(FENE, 2.5, 2.0), (CPAIL, 3.5, 2.0), (FENE, 8.0, 1.0)])
def test_moments_match_quadrature_oracle(kind, b, grading):
    model = SpringModel(kind, b)
    weight = normalize(model)
    mats = assemble(build_mesh(b, 200, grading), weight, 2)
    ones = np.ones(mats.ndof)
    assert ones @ mats.mass @ ones == pytest.approx(1.0, abs=1e-10)
    moment = weight.z_inv * integrate_weighted(model, lambda q: q * q)
    u = dof_coordinates(mats)
    assert u @ mats.mass @ u == pytest.approx(moment, rel=1e-9)
    assert u @ mats.stiffness @ u == pytest.approx(1.0, rel=1e-10)


def test_smooth_function_convergence():
    # interpolant energies approach the weighted integrals as the mesh refines
    model = SpringModel(FENE, 4.0)
    weight = normalize(model)
    exact = weight.z_inv * integrate_weighted(model, lambda q: np.sin(q) ** 2)
    errs = []
    for n_el in (10, 20, 40, 80, 160):
        mats = assemble(build_mesh(4.0, n_el), weight, 2)
        u = np.sin(dof_coordinates(mats))
        errs.append(abs(u @ mats.mass @ u - exact))
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] < 1e-8


def test_dof_coordinates_and_interpolation():
    mats = make_mats(n_el=5, degree=2)
    coords = dof_coordinates(mats)
    assert len(coords) == 11
    assert np.all(np.diff(coords) > 0)
    # the P2 interpolant of q at these nodes is q itself: unit derivative
    assert coords @ mats.stiffness @ coords == pytest.approx(1.0, rel=1e-13)
    p1 = make_mats(n_el=5, degree=1)
    assert np.allclose(dof_coordinates(p1), p1.mesh.nodes)


def test_degree_validation():
    mesh = build_mesh(4.0, 8)
    with pytest.raises(ValueError):
        assemble(mesh, normalize(SpringModel(FENE, 4.0)), 3)


def test_nonfinite_weight_reports_element():
    mesh = build_mesh(4.0, 8)

    class Bad:
        q_max = 2.0

        def __call__(self, q):
            return np.where(np.abs(q) > 1.5, np.nan, 1.0)

    with pytest.raises(AssemblyError, match="element 0"):
        assemble(mesh, Bad(), 2)


def test_nonfinite_weight_names_first_bad_element():
    mesh = build_mesh(4.0, 8)  # element 5 spans [0.5, 1]

    class Bad:
        q_max = 2.0

        def __call__(self, q):
            return np.where(q > 0.6, np.inf, 1.0)

    with pytest.raises(AssemblyError, match="element 5$"):
        assemble(mesh, Bad(), 1)


@pytest.mark.parametrize("kind,b", [(FENE, 4.0), (CPAIL, 6.0)])
@pytest.mark.parametrize("degree", [1, 2])
def test_mass_factor_is_the_lower_cholesky_band(degree, kind, b):
    # read as a lower band the factor is L with M = L L^T, it is scipy's
    # lower banded Cholesky of the mass band, and band_matmul applies L^T
    mats = make_mats(kind, b, n_el=20, grading=2.0, degree=degree)
    p, n = degree, mats.ndof
    factor = mats.mass_factor
    assert not factor.flags.writeable
    assert np.array_equal(factor, cholesky_banded(mats.bands["mass"], lower=True))
    assert all(np.all(factor[d, n - d:] == 0.0) for d in range(1, p + 1))
    lower = sum(np.diag(factor[d, :n - d], -d) for d in range(p + 1))
    # Cholesky backward error: |L L^T - M| <= gamma_(p+2) |L| |L^T|, p + 1 terms deep
    tol = (p + 2) * 1.01 * EPS * (np.abs(lower) @ np.abs(lower).T)
    assert np.all(np.abs(lower @ lower.T - mats.mass) <= tol)
    rng = np.random.default_rng(34)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        # the dense product L^T x summed over the columns of L^T in order,
        # which adds each row's band entries in band_matmul's order and exact zeros
        want = sum(np.multiply.outer(lower.T[:, j], x[j]) for j in range(n))
        assert band_matmul(factor, None, x).tobytes() == want.tobytes()


def test_mass_refusal_names_the_dense_boundary_mass(monkeypatch):
    # a healthy basis whose factorization is made to fail: the message must
    # quote the dense M[0, 0], not another entry of the band
    mesh, weight = build_mesh(4.0, 8), normalize(SpringModel(FENE, 4.0))
    mass = add_at_assemble(mesh, weight, 2)[0]
    assert f"{mass[0, 0]:.3g}" not in {f"{mass[0, d]:.3g}" for d in (1, 2)}
    monkeypatch.setattr(fem, "dpbtrf", lambda band, lower=0: (band.copy(), 1))
    with pytest.raises(AssemblyError) as info:
        assemble(mesh, weight, 2)
    assert str(info.value) == (f"mass matrix not positive definite on 8 elements: "
                               f"the boundary mass M[0, 0] = {mass[0, 0]:.3g} underflows")


def test_mass_band_without_cholesky_factor_refused():
    # at FENE b=1000 the weight underflows on the boundary elements of a
    # 20-element mesh, so the mass band has no banded Cholesky factor
    with pytest.raises(AssemblyError, match=r"^mass matrix not positive definite on 20 "
                                            r"elements: the boundary mass M\[0, 0\] = 0 "):
        make_mats(b=1000.0, n_el=20)
