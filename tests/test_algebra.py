import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import symplectic as sp
from orbitdeform.numerics import DimensionError, StructureError, cutoff, matrix_exp, nullspace
from conftest import cartan

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
    pos = cd.roots[int(np.flatnonzero(cd.root_values(al.chamber_element(cd, "regular")) > 0)[0])]
    direction = pos.space_basis[:, 0]
    assert abs(abs(direction[1]) - abs(direction[2])) < 1e-12
    assert abs(direction[0]) < 1e-12


def test_sl3r_root_count():
    cd = al.cartan_structure(al.build_algebra("sl_real", 3))
    assert len(cd.roots) == 6
    assert cd.a_basis.shape[1] == 2
    # the centralizer of a, the joint kernel of ad(a_1), ad(a_2), is a itself (m = 0)
    assert nullspace(cd.alg.ad(cd.a_basis.T).reshape(-1, cd.alg.dim)).shape[1] == 2
    assert (cd.root_values(al.chamber_element(cd, "regular")) > 0).sum() == 3
    assert len(cd.simple_set) == 2


def test_theta_exchanges_root_spaces():
    for desc in ("sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        for r in cd.roots:
            other = cd.roots[r.theta_image_index]
            assert np.allclose(other.functional, -r.functional, atol=1e-9)
            img = np.diag(cd.signs) @ r.space_basis
            resid = img - other.space_basis @ (other.space_basis.T @ cd.b_theta @ img)
            assert np.linalg.norm(resid) < 1e-9


def test_chamber_element_regular_sl2r(sl2r):
    _, cd = sl2r
    assert np.allclose(al.chamber_element(cd, "regular"), H)  # diag(1, -1)


def test_chamber_wall_preset():
    cd = al.cartan_structure(al.build_algebra("sl_real", 3))
    h_wall = al.chamber_element(cd, "wall:0")
    vals = cd.root_values(h_wall)
    simple_vals = sorted(vals[i] for i in cd.simple_set)
    assert abs(simple_vals[0]) < 1e-9 and abs(simple_vals[1] - 2.0) < 1e-9
    n_plus, _, z_h = al.h_subspaces(cd, h_wall)
    assert n_plus.shape[1] == 2
    assert z_h.shape[1] == 8 - 2 * n_plus.shape[1]


@pytest.mark.parametrize("spec,error,match", [
    ("1,2", al.DomainError, "expected 1 chamber coefficients, got 2"),
    ("inf", al.DomainError, r"finite and at most 1e\+300"),
    ("-inf", al.DomainError, r"finite and at most 1e\+300"),
    ("nan", al.DomainError, r"finite and at most 1e\+300"),
    ("1e301", al.DomainError, r"finite and at most 1e\+300"),
    ("-1", al.DomainError, "outside the closed positive Weyl chamber"),
    ("x", ValueError, "could not convert"),
])
def test_chamber_element_refuses_bad_coefficients(sl2r, spec, error, match):
    # the size bound is checked before any product: inf times a zero entry of
    # a_basis is nan, which errstate would raise as FloatingPointError
    _, cd = sl2r
    with np.errstate(all="raise"), pytest.raises(error, match=match):
        al.chamber_element(cd, spec)


def test_chamber_element_accepts_largest_coefficient(sl2r):
    _, cd = sl2r
    with np.errstate(all="raise"):
        h = al.chamber_element(cd, "1e300")
    assert np.array_equal(h, cd.a_basis @ [1e300])


@pytest.mark.parametrize("descriptor", ["sl2r", "sl3r", "sl2c", "sl3c"])
def test_chamber_element_coefficients_round_trip(descriptor):
    # the coefficient form of a preset's a_basis coordinates gives the preset back
    cd = cartan(descriptor)
    for spec in ["regular", *(f"wall:{k}" for k in range(len(cd.simple_set)))]:
        h = al.chamber_element(cd, spec)
        coeffs = ",".join(repr(float(c)) for c in cd.a_coefficients(h))
        assert np.allclose(al.chamber_element(cd, coeffs), h, rtol=0, atol=1e-14)


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
    for x, y, z in al.flag_orbit_sample(cd, H, seed=7, count=100):
        assert abs(x * x + y * y - 1.0) < 1e-9
        assert abs(z) < 1e-12


def test_flag_samples_zero_element(sl2r):
    _, cd = sl2r
    for point in al.flag_orbit_sample(cd, np.zeros(3), seed=7, count=5):
        assert np.linalg.norm(point) < 1e-12


def test_flag_samples_norm_and_subspace():
    for desc in ("sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        alg = al.build_algebra(family, n)
        cd = al.cartan_structure(alg)
        h = al.chamber_element(cd, "regular")
        target = alg.killing_form(h, h)
        for point in al.flag_orbit_sample(cd, h, seed=8, count=30):
            assert abs(alg.killing_form(point, point) - target) < 1e-8
            assert np.linalg.norm(cd.project_k(point)) < 1e-10


def test_flag_sampling_deterministic(sl2r):
    _, cd = sl2r
    a = al.flag_orbit_sample(cd, H, seed=42, count=10)
    b = al.flag_orbit_sample(cd, H, seed=42, count=10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("descriptor", ["sl2r", "sl3c", "so4"])
def test_flag_samples_are_k_operators_times_h(descriptor):
    # the flag points are the (count, dim) array Ad(k).H of the samplers' k draw
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    h = al.chamber_element(cd, "regular")
    x = al.flag_orbit_sample(cd, h, seed=5, count=7)
    assert x.shape == (7, cd.alg.dim)
    assert np.array_equal(x, cd.alg.conjugate(al.sample_k_operators(cd, 5, 7), h))


def test_nullspace_of_ad_h_is_centralizer(sl2r):
    alg, _ = sl2r
    ns = nullspace(alg.ad(H))
    assert ns.shape[1] == 1
    assert abs(abs(ns[0, 0]) - 1.0) < 1e-12


def test_check_chamber_rejects_non_finite(sl2r):
    _, cd = sl2r
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(al.DomainError):
            cd.check_chamber(np.full(3, bad))


@pytest.mark.parametrize("c", [1.0, 1e150, 1e160, 1e300])
def test_a_coefficients_refuses_off_a_at_any_scale(sl2r, c):
    # |c (H + S)| overflowed to inf beyond about 1.3e154, a cutoff that passed any
    # residual: 1e160 (H + S) read as 1e160 H, with a RuntimeWarning from the norm
    _, cd = sl2r
    with pytest.raises(al.DomainError, match="maximal abelian"):
        cd.a_coefficients(c * (H + S))
    assert np.array_equal(cd.a_coefficients(c * H), [c])


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


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_killing_form_stack_matches_single(descriptor):
    alg = al.build_algebra(*al.parse_descriptor(descriptor))
    x, y = np.random.default_rng(3).standard_normal((2, 4, 5, alg.dim))
    got = alg.killing_form(x, y)
    assert got.shape == (4, 5)
    assert np.array_equal(got, [[alg.killing_form(a, b) for a, b in zip(xs, ys)]
                                for xs, ys in zip(x, y)])
    # a single vector broadcasts against a stack; two vectors give a float
    assert np.array_equal(alg.killing_form(x[0, 0], y[0]),
                          [alg.killing_form(x[0, 0], b) for b in y[0]])
    assert isinstance(alg.killing_form(x[0, 0], y[0, 0]), float)
    with pytest.raises(DimensionError):
        alg.killing_form(x[..., :-1], y[..., :-1])


def structure_tensor(alg):
    """c[i, j, k]: [e_i, e_j] = sum_k c[i, j, k] e_k, read off the basis commutators."""
    products = alg.basis[:, None] @ alg.basis[None]
    return alg.to_vector(products - np.swapaxes(products, 0, 1))


def _moveaxis_stack(rng, n, k, dim):
    # k stacks of n vectors as a non-contiguous view, as checks._draw draws them
    return np.moveaxis(rng.standard_normal((n, k, dim)), 1, 0)


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_structure_kernel_stack_matches_single(descriptor):
    # bracket and ad form one n x n commutator per pair (per basis element for ad),
    # so every stacked and broadcast call gives the bits of the per-vector calls
    alg = al.build_algebra(*al.parse_descriptor(descriptor))
    rng = np.random.default_rng(5)
    x, y = _moveaxis_stack(rng, 6, 2, alg.dim)
    assert not x.flags.c_contiguous
    got = alg.ad(x)
    assert got.shape == (6, alg.dim, alg.dim)
    assert np.array_equal(got, [alg.ad(v) for v in x])
    grid = _moveaxis_stack(rng, 4, 3, alg.dim)
    assert np.array_equal(alg.ad(grid), [[alg.ad(v) for v in row] for row in grid])

    assert np.array_equal(alg.bracket(x, y), [alg.bracket(a, b) for a, b in zip(x, y)])
    # a vector against a stack, in either order
    assert np.array_equal(alg.bracket(x[0], y), [alg.bracket(x[0], b) for b in y])
    assert np.array_equal(alg.bracket(y, x[0]), [alg.bracket(b, x[0]) for b in y])
    # (b, 1, dim) against (b, f, dim), as the semidirect sampler calls it
    w, v = x[:3], grid
    got = alg.bracket(w[:, None], v)
    assert got.shape == (3, 4, alg.dim)
    assert np.array_equal(got, [[alg.bracket(a, b) for b in row] for a, row in zip(w, v)])
    with pytest.raises(DimensionError):
        alg.bracket(x[..., :-1], y[..., :-1])
    with pytest.raises(DimensionError):
        alg.ad(x[..., :-1])


@pytest.mark.parametrize("family,n", [*sorted(al.DESCRIPTORS.values()), ("sl_complex", 6)])
def test_structure_kernel_matches_einsum_reference(family, n):
    # the three-operand einsums with the structure tensor, kept as the reference;
    # the commutators sum in another order, so agreement is to roundoff
    alg = al.build_algebra(family, n)
    c = structure_tensor(alg)
    x, y = np.random.default_rng(9).standard_normal((2, 20, alg.dim))
    ref_bracket = np.einsum("...i,...j,ijk->...k", x, y, c)
    ref_ad = np.einsum("...i,ijk->...kj", x, c)
    nx, ny = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
    assert np.all(np.abs(alg.bracket(x, y) - ref_bracket).max(axis=-1) <= 1e-13 * nx * ny)
    assert np.all(np.abs(alg.ad(x) - ref_ad).max(axis=(-2, -1)) <= 1e-13 * nx)


EXACT_CASES = [*sorted(al.DESCRIPTORS.values()), ("sl_real", 4), ("sl_complex", 6)]


@functools.lru_cache(maxsize=None)
def _exact_cartan(family, n):
    return al.cartan_structure(al.build_algebra(family, n))


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_structure_data_exact(family, n):
    # coordinates are read off matrix entries, so the structure data are exact integers
    cd = _exact_cartan(family, n)
    alg = cd.alg
    c = structure_tensor(alg)
    values = {0.0, 1.0, -1.0} if family == "so" else {0.0, 1.0, -1.0, 2.0, -2.0}
    assert set(np.unique(c)) <= values
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))
    # the per-pair commutator loop of the basis matrices, as the reference
    for i, j in itertools.combinations(range(alg.dim), 2):
        mi, mj = alg.basis[i], alg.basis[j]
        assert np.array_equal(c[i, j], alg.to_vector(mi @ mj - mj @ mi))
    signs = cd.signs
    theta = alg.to_vector(-np.conj(np.swapaxes(alg.basis, -1, -2))).T  # column j: theta(e_j)
    assert np.array_equal(theta, np.diag(signs))
    assert set(signs) <= {1.0, -1.0}
    assert np.array_equal(np.diag(signs) @ np.diag(signs), np.eye(alg.dim))
    assert np.array_equal(alg.killing, alg.killing.T)
    # ad on a basis vector is exact: its columns are the structure constants
    ads = np.swapaxes(c, 1, 2)
    assert np.array_equal(alg.ad(np.eye(alg.dim)), ads)
    # the trace form c Re tr(e_i e_j) against tr(ad e_i ad e_j) from the structure tensor
    assert np.array_equal(alg.killing, np.einsum("iab,jba->ij", ads, ads))
    assert np.array_equal(cd.b_theta, cd.b_theta.T)
    assert np.array_equal(cd.k_basis @ cd.k_basis.T + cd.s_basis @ cd.s_basis.T,
                          np.eye(alg.dim))


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_complex_algebra_j_operator(family, n):
    # J exists exactly on the complex families, and realizes multiplication by i
    # on the matrix side exactly: column k of J is to_vector(i e_k)
    alg = _exact_cartan(family, n).alg
    if family != "sl_complex":
        assert alg.j_op is None
        return
    assert alg.dim == 2 * (n * n - 1)
    j = alg.j_op
    assert np.array_equal(j @ j, -np.eye(alg.dim))
    assert np.array_equal(alg.to_vector(1j * alg.to_matrix(np.eye(alg.dim))), j.T)


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_a_basis_is_the_real_diagonal_basis_elements(family, n):
    # the H_i on sl(n,R) and sl(n,C), not their i multiples on sl(n,C); none on so(n)
    cd = _exact_cartan(family, n)
    alg = cd.alg
    real_diagonal = [k for k, m in enumerate(alg.basis)
                     if np.array_equal(m, np.diag(np.diag(m).real))]
    assert real_diagonal == list(range(0 if family == "so" else n - 1))
    assert np.array_equal(cd.a_basis, np.eye(alg.dim)[:, real_diagonal])


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_to_vector_reads_entries_exactly(family, n):
    alg = _exact_cartan(family, n).alg
    rng = np.random.default_rng(17)
    ints = rng.integers(-5, 6, (8, alg.dim)).astype(float)
    for v in ints:
        assert np.array_equal(alg.to_vector(alg.to_matrix(v)), v)
    # a stack of matrices gives the bits of the per-matrix calls
    mats = np.stack([alg.to_matrix(v) for v in rng.standard_normal((6, alg.dim))])
    mats = mats.reshape(2, 3, n, n)
    got = alg.to_vector(mats)
    assert got.shape == (2, 3, alg.dim)
    assert np.array_equal(got, [[alg.to_vector(m) for m in row] for row in mats])
    # and to_matrix of a (..., dim) stack the bits of the per-vector calls
    vecs = rng.standard_normal((2, 3, alg.dim))
    assert np.array_equal(alg.to_matrix(vecs), [[alg.to_matrix(v) for v in row] for row in vecs])
    with pytest.raises(DimensionError):
        alg.to_matrix(vecs[..., :-1])


def _k_operators_by_ad(cd, seed, count):
    # the exp(ad) route the group sampler replaced, kept as the reference:
    # the same draws, exponentiated as (dim, dim) ad matrices
    coeffs = np.random.default_rng(seed).standard_normal((count, 3, cd.k_basis.shape[1]))
    exps = matrix_exp(cd.alg.ad(coeffs @ cd.k_basis.T))
    return exps[:, 2] @ (exps[:, 1] @ exps[:, 0])


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_k_operators_match_ad_exponentials(descriptor):
    # Ad(g) through conjugate, on random vectors and on the identity columns, against
    # the dense exp(ad A) route that every n x n group element replaced
    cd = _exact_cartan(*al.DESCRIPTORS[descriptor])
    alg = cd.alg
    for seed, count in ((1, 50), (4242, 200)):
        g = al.sample_k_operators(cd, seed, count)
        ref = _k_operators_by_ad(cd, seed, count)
        assert g.shape == (count, alg.n, alg.n)
        cols = np.swapaxes(alg.conjugate(g[:, None], np.eye(alg.dim)), -1, -2)
        assert np.abs(cols - ref).max() <= 1e-13 * np.abs(ref).max()
        x = np.random.default_rng(seed).standard_normal((count, alg.dim))
        want = (ref @ x[..., None])[..., 0]
        assert np.abs(alg.conjugate(g, x) - want).max() <= 1e-13 * np.abs(want).max()
        # one factor: the Ad(u) matrix of omega_invariance, its columns read through conjugate
        a = np.random.default_rng(seed).standard_normal((10, cd.k_basis.shape[1])) @ cd.k_basis.T
        ref = matrix_exp(alg.ad(a))
        cols = np.swapaxes(alg.conjugate(matrix_exp(alg.to_matrix(a))[:, None], np.eye(alg.dim)), -1, -2)
        assert np.abs(cols - ref).max() <= 1e-14 * np.abs(ref).max()
    # the compact flows exp(+-h A) of the central differences against exp(+-h ad A)
    flows = sp._compact_flows(cd)
    assert flows.shape == (2, cd.k_basis.shape[1], 1, alg.n, alg.n)
    ads = alg.ad(cd.k_basis.T)
    ref = matrix_exp(np.stack([sp._FD_STEP * ads, -sp._FD_STEP * ads]))
    cols = np.swapaxes(alg.conjugate(flows, np.eye(alg.dim)), -1, -2)
    assert np.abs(cols - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_k_operators_preserve_killing_and_theta(descriptor):
    # Ad(k) is an automorphism of g that commutes with theta, for k in K
    cd = _exact_cartan(*al.DESCRIPTORS[descriptor])
    alg = cd.alg
    g = al.sample_k_operators(cd, 3, 100)
    ops = np.swapaxes(alg.conjugate(g[:, None], np.eye(alg.dim)), -1, -2)
    killing = alg.killing
    gram = np.swapaxes(ops, -1, -2) @ killing @ ops
    assert np.abs(gram - killing).max() <= 1e-13 * np.abs(killing).max()
    theta = np.diag(cd.signs)
    assert np.abs(ops @ theta - theta @ ops).max() <= 1e-13 * np.abs(ops).max()
    # g is in K: g^H g = 1
    assert np.abs(np.conj(np.swapaxes(g, -1, -2)) @ g - np.eye(alg.n)).max() <= 1e-13


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_root_pairing_and_simple_roots_match_loops(family, n):
    # the per-pair np.allclose searches that the broadcast rule replaced
    cd = _exact_cartan(family, n)
    funcs = [r.functional for r in cd.roots]
    for r in cd.roots:
        assert r.theta_image_index == next(
            j for j, f in enumerate(funcs) if np.allclose(f, -r.functional, atol=1e-8))
    nn = cd.alg.n
    probe = cd.alg.to_vector(np.diag([nn - 1 - 2 * i for i in range(nn)]).astype(complex))
    probe_coeffs, *_ = np.linalg.lstsq(cd.a_basis, probe, rcond=None)
    positive = tuple(i for i, f in enumerate(funcs) if float(f @ probe_coeffs) > 1e-8)
    assert tuple(np.flatnonzero(cd.root_values(al.chamber_element(cd, "regular")) > 0)) == positive
    sums = [funcs[a] + funcs[b] for a in positive for b in positive]
    simple = tuple(i for i in positive
                   if not any(np.allclose(funcs[i], s, atol=1e-8) for s in sums))
    assert cd.simple_set == simple


@pytest.mark.parametrize("family,n", [c for c in EXACT_CASES if c[0] != "so"])
def test_root_spaces_are_the_type_a_answer(family, n):
    # alpha = e_i - e_j has g_alpha spanned by E_ij, and on sl(n,C) by i E_ij too; each
    # space_basis is B_theta-orthonormal and has that span, whatever the eigen-solver
    cd = _exact_cartan(family, n)
    alg, b = cd.alg, cd.b_theta
    h = np.eye(n)[:-1] - np.eye(n)[1:]  # row k: the diagonal of the a-basis element H_k
    e = np.eye(n * n).reshape(n, n, n, n)
    scalars = (1.0, 1j) if family == "sl_complex" else (1.0,)
    matched = set()
    for root in cd.roots:
        v = root.space_basis
        assert np.abs(v.T @ b @ v - np.eye(v.shape[1])).max() <= cutoff(1.0)
        [(i, j)] = [(i, j) for i, j in itertools.permutations(range(n), 2)
                    if np.allclose(root.functional, h[:, i] - h[:, j], atol=1e-9)]
        matched.add((i, j))
        w = alg.to_vector(np.stack([c * e[i, j] for c in scalars])).T
        ref = w @ np.linalg.solve(w.T @ b @ w, w.T @ b)
        assert np.abs(v @ v.T @ b - ref).max() <= cutoff(1.0)
    assert len(matched) == n * (n - 1) == len(cd.roots)


@pytest.mark.parametrize("family,n", [*EXACT_CASES, ("sl_real", 5)])
def test_h_subspaces_partition_g(family, n):
    # n_H^+, n_H^- and z_H together are one B_theta-orthonormal basis of g, and z_H spans
    # nullspace(ad H), the SVD route that h_subspaces took before, kept as the reference.
    # At regular, at every wall and near every wall (one simple root value 1e-8 or 1e-7
    # beside 2, which check_chamber reads as the wall)
    cd = _exact_cartan(family, n)
    alg, b, count = cd.alg, cd.b_theta, len(cd.simple_set)
    hs = [al.chamber_element(cd, spec) for spec in ["regular", *(f"wall:{k}" for k in range(count))]]
    simple = np.array([cd.roots[i].functional for i in cd.simple_set]).reshape(count, cd.a_basis.shape[1])
    for k, value in itertools.product(range(count), (1e-8, 1e-7)):
        targets = np.full(count, 2.0)
        targets[k] = value
        hs.append(cd.a_basis @ np.linalg.solve(simple, targets))
    for h in hs:
        n_plus, n_minus, z_h = al.h_subspaces(cd, h)
        q = np.hstack([n_plus, n_minus, z_h])
        assert q.shape == (alg.dim, alg.dim)
        assert np.abs(q.T @ b @ q - np.eye(alg.dim)).max() <= 1e-12
        ref = nullspace(alg.ad(h))
        assert z_h.shape[1] == ref.shape[1]
        assert np.abs(ref - z_h @ (z_h.T @ b @ ref)).max() <= 1e-12


def test_cartan_rejects_root_without_opposite(sl2r, monkeypatch):
    # one root functional scaled off its negative's: StructureError, not StopIteration
    alg, _ = sl2r
    eigenspaces = al.simultaneous_eigenspaces

    def skewed(ops, metric):
        blocks = eigenspaces(ops, metric)
        vals = next(v for v, _ in blocks if np.abs(v).max() > 1e-8)
        return [(1.5 * v, b) if v is vals else (v, b) for v, b in blocks]

    monkeypatch.setattr(al, "simultaneous_eigenspaces", skewed)
    with pytest.raises(StructureError, match="no opposite"):
        al.cartan_structure(alg)


def test_k_operators_memory():
    # n x n group elements, not 3 * count (dim, dim) Pade stacks: the
    # exp(ad) route peaked at about 106 MiB here
    cd = _exact_cartan("sl_complex", 3)
    tracemalloc.start()
    try:
        al.sample_k_operators(cd, seed=1, count=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_k_operators_blocks_match_one_call(descriptor):
    # the exponentials are formed _K_BLOCK samples at a time; the one-call
    # route over the whole draw gives the same bytes, here over two full
    # blocks and a partial third
    cd = _exact_cartan(*al.DESCRIPTORS[descriptor])
    count = 2 * al._K_BLOCK + 37
    for seed in (1, 4242):
        coeffs = np.random.default_rng(seed).standard_normal((count, 3, cd.k_basis.shape[1]))
        exps = matrix_exp(cd.alg.to_matrix(coeffs @ cd.k_basis.T))
        ref = exps[:, 2] @ (exps[:, 1] @ exps[:, 0])
        g = al.sample_k_operators(cd, seed, count)
        assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes()


def test_k_operators_memory_does_not_grow_with_count():
    # 20000 samples are 2.7 MiB of group elements; one matrix_exp call on the
    # whole stack kept about nine Pade temporaries of it, a 79 MiB peak
    cd = _exact_cartan("sl_complex", 3)
    tracemalloc.start()
    try:
        g = al.sample_k_operators(cd, seed=1, count=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.nbytes < 3 * 2**20
    assert peak < 12 * 2**20, peak


def test_build_memory_at_rank():
    # bracket and ad form n x n commutators, so the build stores no (dim, dim, dim)
    # structure tensor: sl(10,C) (dim 198) peaked at 238 MiB with one
    tracemalloc.start()
    try:
        alg = al.build_algebra("sl_complex", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == 198
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("family,n", EXACT_CASES)
def test_projections_exact(family, n):
    cd = _exact_cartan(family, n)
    x = np.random.default_rng(19).standard_normal((5, 4, cd.alg.dim))
    s_part = cd.project_s(x)
    assert np.array_equal(s_part + cd.project_k(x), x)
    assert np.array_equal(cd.project_s(s_part), s_part)
    assert np.array_equal(s_part, x @ cd.s_basis @ cd.s_basis.T)


def test_cartan_rejects_basis_not_adapted_to_theta(sl2r):
    # S + A = 2 E_12 is not a theta-eigenvector, so theta is not diagonal on this basis
    alg, _ = sl2r
    mixed = alg.basis.copy()
    mixed[1] = alg.basis[1] + alg.basis[2]
    with pytest.raises(StructureError):
        al.cartan_structure(dataclasses.replace(alg, basis=mixed))
