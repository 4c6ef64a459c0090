import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform.numerics import (
    DimensionError,
    StructureError,
    Tolerance,
    matrix_exp,
    nullspace,
    orthonormal_range,
    rank,
    simultaneous_eigenspaces,
)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=bad)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=bad)
    tol = Tolerance(abs_eps=1e-6, rel_eps=0.0)
    assert tol.close(1.0, 1.0 + 5e-7)
    assert not tol.close(1.0, 1.0 + 5e-6)


def test_exp_zero_is_identity_exactly():
    assert np.array_equal(matrix_exp(np.zeros((2, 2))), np.eye(2))


def test_exp_diagonal():
    out = matrix_exp(np.diag([1.0, -1.0]))
    assert np.allclose(out, np.diag([np.e, 1 / np.e]), atol=1e-14)


def test_exp_rotation_by_pi():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.linalg.norm(matrix_exp(np.pi * a) + np.eye(2)) < 1e-12


def test_exp_inverse_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a *= min(1.0, 5.0 / np.linalg.norm(a))
        assert np.linalg.norm(matrix_exp(a) @ matrix_exp(-a) - np.eye(n)) < 1e-10


def test_exp_rejects_nonsquare():
    with pytest.raises(DimensionError):
        matrix_exp(np.zeros((2, 3)))


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("descriptor", al.DESCRIPTORS)
def test_exp_matches_scipy_on_ad_k(descriptor):
    from scipy.linalg import expm

    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    rng = np.random.default_rng(3)
    for norm in (None, 1.0, 10.0, 50.0):  # 1-norm 50 needs about four squarings
        ad = cd.alg.ad(cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1]))
        if norm is not None:
            ad *= norm / np.linalg.norm(ad, 1)
        assert _rel(matrix_exp(ad), expm(ad)) < 1e-12


def test_exp_matches_scipy_on_complex_input():
    from scipy.linalg import expm

    rng = np.random.default_rng(4)
    for scale in (0.1, 1.0, 8.0):
        c = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        out = matrix_exp(c)
        assert out.dtype == complex
        assert _rel(out, expm(c)) < 1e-12


def test_exp_jordan_block():
    for lam in (-2.0, 0.0, 0.7, 3.0):
        out = matrix_exp(np.array([[lam, 1.0], [0.0, lam]]))
        assert _rel(out, np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]])) < 1e-14


def test_exp_stack_matches_single_matrices():
    rng = np.random.default_rng(5)
    scales = np.array([0.01, 1.0, 20.0])[None, :, None, None]  # from no squaring to several
    stack = scales * rng.standard_normal((2, 3, 4, 4))
    out = matrix_exp(stack)
    assert out.shape == stack.shape
    for i in range(2):
        for j in range(3):
            assert _rel(out[i, j], matrix_exp(stack[i, j])) < 1e-14
    assert np.array_equal(matrix_exp(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))


def test_exp_rejects_vector_and_non_finite():
    with pytest.raises(DimensionError):
        matrix_exp(np.zeros(3))
    with pytest.raises(ValueError):
        matrix_exp(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_nullspace_full_rank_and_zero():
    assert nullspace(np.eye(3)).shape == (3, 0)
    assert nullspace(np.zeros((3, 3))).shape == (3, 3)


def test_nullspace_quality():
    rng = np.random.default_rng(1)
    tol = Tolerance()
    for _ in range(100):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        k = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        ns = nullspace(a, tol)
        assert ns.shape[1] == n - np.linalg.matrix_rank(a)
        if ns.shape[1]:
            assert np.linalg.norm(a @ ns) <= 10 * tol.scale(a)
            assert np.linalg.norm(ns.T @ ns - np.eye(ns.shape[1])) < 1e-12


def test_rank_and_range():
    a = np.outer([1.0, 2.0, 3.0], [1.0, 0.0])
    assert rank(a) == 1
    assert orthonormal_range(a).shape == (3, 1)


def test_simultaneous_eigenspaces_zero_operator():
    blocks = simultaneous_eigenspaces([np.zeros((3, 3))])
    assert len(blocks) == 1
    vals, basis = blocks[0]
    assert vals[0] == 0.0 and basis.shape == (3, 3)


def test_simultaneous_eigenspaces_commuting_pair():
    d1 = np.diag([1.0, 1.0, 2.0, 3.0])
    d2 = np.diag([5.0, 4.0, 4.0, 4.0])
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))
    blocks = simultaneous_eigenspaces([q @ d1 @ q.T, q @ d2 @ q.T])
    assert sum(b.shape[1] for _, b in blocks) == 4
    # joint eigenvalue pairs (1,5), (1,4), (2,4), (3,4) are all distinct
    assert len(blocks) == 4


def test_simultaneous_eigenspaces_rejects_noncommuting():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(StructureError):
        simultaneous_eigenspaces([a, b])


def test_orthonormal_range_stack_matches_single():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 3, 6, 2)) @ rng.standard_normal((2, 3, 2, 4))
    stack = orthonormal_range(a)
    assert stack.shape == (2, 3, 6, 2)
    for a_i, u_i in zip(a.reshape(-1, 6, 4), stack.reshape(-1, 6, 2)):
        single = orthonormal_range(a_i)
        ref = single @ single.T
        assert np.linalg.norm(u_i @ u_i.T - ref) <= 1e-14 * np.linalg.norm(ref)


def test_orthonormal_range_stack_with_mixed_ranks_raises():
    rng = np.random.default_rng(22)
    low = np.outer(rng.standard_normal(5), rng.standard_normal(3))
    with pytest.raises(StructureError):
        orthonormal_range(np.stack([low, rng.standard_normal((5, 3))]))
