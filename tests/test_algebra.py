import math

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform.numerics import nullspace

# canonical sl(2,R) coordinates: (x, y, z) = x H + y S + z A
H, S, A = np.eye(3)


@pytest.fixture(scope="module")
def sl2r():
    alg = al.build_algebra("sl_real", 2)
    return alg, al.cartan_structure(alg)


def test_unsupported_family_rejected():
    with pytest.raises(al.ConfigurationError):
        al.build_algebra("sp_real", 2)
    with pytest.raises(al.ConfigurationError):
        al.build_algebra("sl_real", 1)
    with pytest.raises(al.ConfigurationError):
        al.parse_descriptor("e8")


def test_sl2r_structure_constants(sl2r):
    alg, _ = sl2r
    assert np.allclose(alg.bracket(H, S), 2 * A)
    assert np.allclose(alg.bracket(H, A), 2 * S)
    assert np.allclose(alg.bracket(S, A), -2 * H)


def test_sl2r_killing_values(sl2r):
    alg, _ = sl2r
    assert abs(alg.killing_form(H, H) - 8.0) < 1e-12
    assert abs(alg.killing_form(A, A) + 8.0) < 1e-12
    assert abs(alg.killing_form(H, S)) < 1e-12


def test_bracket_antisymmetry_all_families():
    for family, n in [("sl_real", 2), ("sl_real", 3), ("sl_complex", 2), ("so", 3)]:
        alg = al.build_algebra(family, n)
        for i in range(alg.dim):
            assert np.allclose(alg.bracket(np.eye(alg.dim)[i], np.eye(alg.dim)[i]), 0.0)


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(3)
    for family, n in [("sl_real", 3), ("sl_complex", 2), ("so", 4)]:
        alg = al.build_algebra(family, n)
        for _ in range(20):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            mx, my = alg.to_matrix(x), alg.to_matrix(y)
            lhs = alg.to_matrix(alg.bracket(x, y))
            assert np.linalg.norm(lhs - (mx @ my - my @ mx)) < 1e-12


def test_so3_bracket_cyclic():
    alg = al.build_algebra("so", 3)
    e12, e13, e23 = np.eye(3)
    out = alg.bracket(e12, e13)
    assert np.allclose(out, e23) or np.allclose(out, -e23)


def test_jacobi_property():
    rng = np.random.default_rng(4)
    for family, n in [("sl_real", 2), ("sl_real", 3), ("sl_complex", 3), ("so", 4)]:
        alg = al.build_algebra(family, n)
        for _ in range(100):
            x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
            jac = (
                alg.bracket(x, alg.bracket(y, z))
                + alg.bracket(y, alg.bracket(z, x))
                + alg.bracket(z, alg.bracket(x, y))
            )
            scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
            assert np.linalg.norm(jac) < 1e-10 * scale


def test_killing_ad_invariance():
    rng = np.random.default_rng(5)
    alg = al.build_algebra("sl_real", 3)
    for _ in range(100):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        resid = alg.killing_form(alg.bracket(x, y), z) + alg.killing_form(y, alg.bracket(x, z))
        assert abs(resid) < 1e-9 * np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)


def test_cartan_sl2r_k_s(sl2r):
    _, cd = sl2r
    # k = span{A}, s = span{H, S}
    assert cd.k_basis.shape[1] == 1 and abs(cd.k_basis[2, 0]) == 1.0
    assert cd.s_basis.shape[1] == 2


def test_cartan_bracket_relations():
    for family, n in [("sl_real", 3), ("sl_complex", 2)]:
        alg = al.build_algebra(family, n)
        cd = al.cartan_structure(alg)
        kb, sb = cd.k_basis, cd.s_basis
        rng = np.random.default_rng(6)
        for _ in range(20):
            k1 = kb @ rng.standard_normal(kb.shape[1])
            k2 = kb @ rng.standard_normal(kb.shape[1])
            s1 = sb @ rng.standard_normal(sb.shape[1])
            s2 = sb @ rng.standard_normal(sb.shape[1])
            assert np.linalg.norm(cd.project_s(alg.bracket(k1, k2))) < 1e-10
            assert np.linalg.norm(cd.project_k(alg.bracket(k1, s1))) < 1e-10
            assert np.linalg.norm(cd.project_s(alg.bracket(s1, s2))) < 1e-10


def test_b_theta_positive_definite():
    for desc in ("sl2r", "sl3r", "sl2c", "so3"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        eigs = np.linalg.eigvalsh(cd.b_theta)
        assert eigs.min() > 0


def test_k_s_killing_orthogonal(sl2r):
    alg, cd = sl2r
    assert np.max(np.abs(cd.k_basis.T @ alg.killing @ cd.s_basis)) < 1e-10


def test_sl2r_roots(sl2r):
    _, cd = sl2r
    assert len(cd.roots) == 2
    vals = sorted(float(r.functional[0]) for r in cd.roots)
    assert np.allclose(vals, [-2.0, 2.0], atol=1e-9)
    # g_alpha for alpha(H)=2 is spanned by E12 = (S + A)/2
    pos = cd.roots[cd.positive_set[0]]
    direction = pos.space_basis[:, 0]
    assert abs(abs(direction[1]) - abs(direction[2])) < 1e-12
    assert abs(direction[0]) < 1e-12


def test_sl3r_root_count():
    cd = al.cartan_structure(al.build_algebra("sl_real", 3))
    assert len(cd.roots) == 6
    assert cd.a_basis.shape[1] == 2
    assert cd.zero_space.shape[1] == 2
    assert len(cd.positive_set) == 3
    assert len(cd.simple_set) == 2


def test_theta_exchanges_root_spaces():
    for desc in ("sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        for r in cd.roots:
            other = cd.roots[r.theta_image_index]
            assert np.allclose(other.functional, -r.functional, atol=1e-9)
            img = cd.theta @ r.space_basis
            resid = img - other.space_basis @ (other.space_basis.T @ cd.b_theta @ img)
            assert np.linalg.norm(resid) < 1e-9


def test_chamber_element_regular_sl2r(sl2r):
    _, cd = sl2r
    assert np.allclose(cd.chamber_H, H)  # diag(1, -1)


def test_chamber_wall_preset():
    cd = al.cartan_structure(al.build_algebra("sl_real", 3))
    h_wall = al.chamber_element(cd.a_basis, cd.roots, cd.simple_set, "wall:0")
    vals = cd.root_values(h_wall)
    simple_vals = sorted(vals[i] for i in cd.simple_set)
    assert abs(simple_vals[0]) < 1e-9 and abs(simple_vals[1] - 2.0) < 1e-9
    n_plus, _, z_h = al.h_subspaces(cd, h_wall)
    assert n_plus.shape[1] == 2
    assert z_h.shape[1] == 8 - 2 * n_plus.shape[1]


def test_h_subspaces_sl2r(sl2r):
    alg, cd = sl2r
    n_plus, n_minus, z_h = al.h_subspaces(cd, H)
    assert n_plus.shape[1] == n_minus.shape[1] == 1
    assert z_h.shape[1] == 1
    assert np.linalg.norm(z_h[:, 0] - H * z_h[0, 0]) < 1e-12


def test_h_subspaces_zero_element(sl2r):
    _, cd = sl2r
    n_plus, n_minus, z_h = al.h_subspaces(cd, np.zeros(3))
    assert n_plus.shape[1] == 0 and z_h.shape[1] == 3


def test_h_subspaces_rejects_outside_chamber(sl2r):
    _, cd = sl2r
    with pytest.raises(al.DomainError):
        al.h_subspaces(cd, -H)


def test_flag_samples_on_circle(sl2r):
    _, cd = sl2r
    for p in al.flag_orbit_sample(cd, H, seed=7, count=100):
        x, y, z = p.point
        assert abs(x * x + y * y - 1.0) < 1e-9
        assert abs(z) < 1e-12


def test_flag_samples_zero_element(sl2r):
    _, cd = sl2r
    for p in al.flag_orbit_sample(cd, np.zeros(3), seed=7, count=5):
        assert np.linalg.norm(p.point) < 1e-12


def test_flag_samples_norm_and_subspace():
    for desc in ("sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        alg = al.build_algebra(family, n)
        cd = al.cartan_structure(alg)
        h = cd.chamber_H
        target = alg.killing_form(h, h)
        for p in al.flag_orbit_sample(cd, h, seed=8, count=30):
            assert abs(alg.killing_form(p.point, p.point) - target) < 1e-8
            assert np.linalg.norm(cd.project_k(p.point)) < 1e-10


def test_flag_sampling_deterministic(sl2r):
    _, cd = sl2r
    a = al.flag_orbit_sample(cd, H, seed=42, count=10)
    b = al.flag_orbit_sample(cd, H, seed=42, count=10)
    for p, q in zip(a, b):
        assert np.array_equal(p.point, q.point)


def test_nullspace_of_ad_h_is_centralizer(sl2r):
    alg, _ = sl2r
    ns = nullspace(alg.ad(H))
    assert ns.shape[1] == 1
    assert abs(abs(ns[0, 0]) - 1.0) < 1e-12


def test_complex_algebra_j_operator():
    alg = al.build_algebra("sl_complex", 2)
    assert alg.dim == 6
    j = alg.j_op
    assert np.allclose(j @ j, -np.eye(6))
    # J realizes multiplication by i on the matrix side
    rng = np.random.default_rng(9)
    x = rng.standard_normal(6)
    assert np.linalg.norm(alg.to_matrix(j @ x) - 1j * alg.to_matrix(x)) < 1e-12


def test_check_chamber_rejects_non_finite(sl2r):
    _, cd = sl2r
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(al.DomainError):
            cd.check_chamber(np.full(3, bad))


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_ad_columns_match_bracket_columns(descriptor):
    # the tangent kernel: [B_i, x] over the columns of B is -ad(x) @ B
    alg = al.build_algebra(*al.parse_descriptor(descriptor))
    cd = al.cartan_structure(alg)
    rng = np.random.default_rng(11)
    for basis in (cd.k_basis, cd.s_basis):
        for _ in range(5):
            x = rng.standard_normal(alg.dim)
            ref = np.zeros(basis.shape)  # so(n) has an empty s_basis
            for i in range(basis.shape[1]):
                ref[:, i] = alg.bracket(basis[:, i], x)
            assert np.allclose(-alg.ad(x) @ basis, ref, rtol=0.0,
                               atol=1e-12 * np.linalg.norm(x))
