import math

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform import semidirect as sd
from orbitdeform.numerics import matrix_exp

H, S, A = np.eye(3)


def _cartan(desc):
    family, n = al.parse_descriptor(desc)
    return al.cartan_structure(al.build_algebra(family, n))


@pytest.fixture(scope="module")
def sl2r():
    alg = al.build_algebra("sl_real", 2)
    return alg, al.cartan_structure(alg)


def test_make_element_validates_subspaces(sl2r):
    _, cd = sl2r
    sd.make_element(cd, A, H + S)
    with pytest.raises(al.DomainError):
        sd.make_element(cd, H, S)
    with pytest.raises(al.DomainError):
        sd.make_element(cd, A, A)


def test_bracket_s_abelian(sl2r):
    _, cd = sl2r
    a = sd.make_element(cd, np.zeros(3), H)
    b = sd.make_element(cd, np.zeros(3), S)
    out = sd.semidirect_bracket(cd, a, b)
    assert np.allclose(out.k_part, 0.0) and np.allclose(out.s_part, 0.0)


def test_bracket_k_on_s(sl2r):
    _, cd = sl2r
    a = sd.make_element(cd, A, np.zeros(3))
    b = sd.make_element(cd, np.zeros(3), S)
    out = sd.semidirect_bracket(cd, a, b)
    assert np.allclose(out.k_part, 0.0)
    assert np.allclose(out.s_part, 2 * H)  # [A, S] = 2H


def test_bracket_k_closes(sl2r):
    _, cd = sl2r
    a = sd.make_element(cd, A, np.zeros(3))
    out = sd.semidirect_bracket(cd, a, a)
    assert np.allclose(out.k_part, 0.0) and np.allclose(out.s_part, 0.0)


def test_jacobi_semidirect():
    rng = np.random.default_rng(0)
    for desc in ("sl2r", "sl3r"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        dk, ds = cd.k_basis.shape[1], cd.s_basis.shape[1]

        def rand():
            return sd.SemidirectElement(
                cd.k_basis @ rng.standard_normal(dk), cd.s_basis @ rng.standard_normal(ds)
            )

        for _ in range(50):
            a, b, c = rand(), rand(), rand()
            j1 = sd.semidirect_bracket(cd, a, sd.semidirect_bracket(cd, b, c))
            j2 = sd.semidirect_bracket(cd, b, sd.semidirect_bracket(cd, c, a))
            j3 = sd.semidirect_bracket(cd, c, sd.semidirect_bracket(cd, a, b))
            resid = np.linalg.norm(j1.k_part + j2.k_part + j3.k_part) + np.linalg.norm(
                j1.s_part + j2.s_part + j3.s_part
            )
            assert resid < 1e-9


def test_moment_mu_values(sl2r):
    _, cd = sl2r
    assert np.allclose(sd.moment_mu(cd, S, H), -2 * A)
    assert np.allclose(sd.moment_mu(cd, S, S), 0.0)
    with pytest.raises(al.DomainError):
        sd.moment_mu(cd, A, H)


def test_coad_block_structure(sl2r):
    _, cd = sl2r
    e = sd.SemidirectElement(A, np.zeros(3))
    c = sd.coad_star_matrix(cd, e)
    # block diagonal: ad(A) on k is zero (rank-1 k), ad(A) on s is a rotation generator
    assert np.allclose(c[:1, 1:], 0.0)
    assert np.allclose(c[1:, :1], 0.0)


def test_coad_nilpotent_for_pure_translation(sl2r):
    _, cd = sl2r
    e = sd.SemidirectElement(np.zeros(3), S)
    c = sd.coad_star_matrix(cd, e)
    assert np.allclose(c @ c, 0.0)
    # exp(t ad*(0,v)) = I + t ad*(0,v)
    assert np.allclose(matrix_exp(c), np.eye(3) + c, atol=1e-12)


def test_coad_duality():
    rng = np.random.default_rng(1)
    for desc in ("sl2r", "sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        p_mat = np.hstack([cd.k_basis, cd.s_basis])
        gram = p_mat.T @ cd.b_theta @ p_mat
        for _ in range(20):
            e = sd.SemidirectElement(
                cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1]),
                cd.s_basis @ rng.standard_normal(cd.s_basis.shape[1]),
            )
            m = sd.ad_rho_matrix(cd, e)
            c = sd.coad_star_matrix(cd, e)
            assert np.max(np.abs(m.T @ gram + gram @ c)) < 1e-9


def test_cylinder_samples(sl2r):
    _, cd = sl2r
    for p in sd.sample_semidirect_orbit(cd, H, seed=2, n_base=20, n_fiber=5):
        x, y, z = p.point
        assert abs(x * x + y * y - 1.0) < 1e-9


def test_zero_element_orbit(sl2r):
    _, cd = sl2r
    for p in sd.sample_semidirect_orbit(cd, np.zeros(3), seed=2, n_base=5, n_fiber=2):
        assert np.linalg.norm(p.point) < 1e-12


def test_fiber_dimension_over_h(sl2r):
    _, cd = sl2r
    fib = sd.coadjoint_fiber(cd, H)
    assert fib.shape[1] == 1
    # ad(H)(s) = span{A}
    assert abs(abs(fib[2, 0]) - 1.0) < 1e-12


def test_fiber_equals_psi_n_plus():
    for desc in ("sl2r", "sl3r"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        h = cd.chamber_H
        n_plus, _, _ = al.h_subspaces(cd, h)
        psi = np.eye(cd.alg.dim) + cd.theta
        img = np.linalg.qr(psi @ n_plus)[0]
        fib = sd.coadjoint_fiber(cd, h)
        assert np.linalg.norm(img - fib @ (fib.T @ img)) < 1e-9
        assert np.linalg.norm(fib - img @ (img.T @ fib)) < 1e-9


def test_fiber_disjointness(sl2r):
    _, cd = sl2r
    samples = sd.sample_semidirect_orbit(cd, H, seed=3, n_base=10, n_fiber=3)
    for i, p in enumerate(samples):
        for q in samples[i + 1:]:
            if np.linalg.norm(p.base_point - q.base_point) > 1e-6:
                assert np.linalg.norm(cd.project_s(p.point) - cd.project_s(q.point)) > 1e-7


def test_semidirect_matches_deformed_at_infinity(sl2r):
    _, cd = sl2r
    ssd = sd.sample_semidirect_orbit(cd, H, seed=4, n_base=10, n_fiber=3)
    ctx = df.make_context(cd, math.inf)
    sdf = df.sample_deformed_orbit(ctx, H, seed=4, n_base=10, n_fiber=3)
    for p, q in zip(ssd, sdf):
        assert np.linalg.norm(p.base_point - q.base_point) < 1e-12
        fib = sd.coadjoint_fiber(cd, p.base_point)
        kq = cd.project_k(q.point)
        assert np.linalg.norm(kq - fib @ (fib.T @ kq)) < 1e-8


def test_phi_zero_fiber_gives_zero_covector(sl2r):
    _, cd = sl2r
    p = al.OrbitSample(
        point=H, kind="semidirect", base_point=H, k_op=np.eye(3),
        fiber=np.zeros(3), fiber_coeffs=np.zeros(1), r=math.inf,
    )
    w, cov = sd.phi_cotangent(cd, p)
    assert np.allclose(w, H) and np.allclose(cov, 0.0)


def test_phi_pairs_fiber_with_tangent(sl2r):
    # over H the fiber direction comes from S: B_theta(cov, S) != 0
    _, cd = sl2r
    samples = sd.sample_semidirect_orbit(cd, H, seed=5, n_base=1, n_fiber=5)
    for p in samples:
        w, cov = sd.phi_cotangent(cd, p)
        if np.linalg.norm(cov) > 1e-9:
            assert abs(cov @ cd.b_theta @ S) > 1e-12


def test_phi_fiber_map_is_isomorphism():
    for desc in ("sl2r", "sl2c", "sl3c"):
        cd = _cartan(desc)
        for p in sd.sample_semidirect_orbit(cd, cd.chamber_H, seed=6, n_base=10, n_fiber=2):
            tangent = sd.orbit_tangent_at(cd, p.base_point)
            cols = [cd.alg.bracket(p.base_point, tangent[:, i]) for i in range(tangent.shape[1])]
            f = np.stack(cols, axis=1)
            assert np.linalg.matrix_rank(f) == tangent.shape[1]


def test_moment_inverts_phi():
    for desc in ("sl2r", "sl3r", "sl2c", "sl3c"):
        cd = _cartan(desc)
        for p in sd.sample_semidirect_orbit(cd, cd.chamber_H, seed=7, n_base=10, n_fiber=3):
            w, cov = sd.phi_cotangent(cd, p)
            m = sd.cotangent_moment(cd, w, cov)
            assert np.linalg.norm((m.k_part + m.s_part) - p.point) < 1e-9


def test_moment_zero_covector(sl2r):
    _, cd = sl2r
    m = sd.cotangent_moment(cd, H, np.zeros(3))
    assert np.allclose(m.k_part, 0.0) and np.allclose(m.s_part, H)


def test_moment_equivariance(sl2r):
    # push (base, covector) with Ad(k) and compare with pushing the orbit point
    alg, cd = sl2r
    rng = np.random.default_rng(8)
    samples = sd.sample_semidirect_orbit(cd, H, seed=8, n_base=5, n_fiber=2)
    for p in samples:
        w, cov = sd.phi_cotangent(cd, p)
        a = cd.k_basis @ rng.standard_normal(1)
        ad_k = matrix_exp(alg.ad(a))
        m_pushed = sd.cotangent_moment(cd, ad_k @ w, ad_k @ cov)
        pushed_point = ad_k @ p.point
        assert np.linalg.norm((m_pushed.k_part + m_pushed.s_part) - pushed_point) < 1e-8


# ---- SO(3) on R^3 as the Cartan case of sl(2,C) = so(3,1) -------------
# s-coordinates (H, S, iA) are (e1, e2, e3); k-coordinates (A, iH, iS) are so(3).


@pytest.fixture(scope="module")
def sl2c():
    return _cartan("sl2c")


def test_sl2c_mu_formula(sl2c):
    cd = sl2c
    rng = np.random.default_rng(9)
    for _ in range(20):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        mu = sd.moment_mu(cd, cd.s_basis @ v, cd.s_basis @ w)
        c = np.cross(v, w)
        assert np.linalg.norm(cd.k_basis @ (2 * np.array([c[2], -c[0], -c[1]])) - mu) < 1e-10


def test_sl2c_orbit_roundtrip(sl2c):
    cd = sl2c
    for scale in (1.0, 2.0):
        h = scale * cd.chamber_H
        for p in sd.sample_semidirect_orbit(cd, h, seed=11, n_base=15, n_fiber=4):
            assert abs(np.linalg.norm(cd.s_basis.T @ p.base_point) - scale) < 1e-10  # sphere
            base, cov = sd.phi_cotangent(cd, p)
            m = sd.cotangent_moment(cd, base, cov)
            assert np.linalg.norm(m.s_part - p.base_point) < 1e-12
            assert np.linalg.norm((m.k_part + m.s_part) - p.point) < 1e-9


def test_sl2c_fiber_map_isomorphism(sl2c):
    cd = sl2c
    for scale in (1.0, 2.0):
        h = scale * cd.chamber_H
        for p in sd.sample_semidirect_orbit(cd, h, seed=12, n_base=10, n_fiber=2):
            tangent = sd.orbit_tangent_at(cd, p.base_point)
            f = np.stack([sd.moment_mu(cd, p.base_point, t) for t in tangent.T], axis=1)
            assert np.linalg.matrix_rank(f) == tangent.shape[1] == 2


def _loop_semidirect_orbit(cd, h, seed, n_base, n_fiber):
    # reference: the per-sample loop sample_semidirect_orbit ran before it returned a batch
    rng = np.random.default_rng([seed, 0x5D1E])
    dim_s = cd.s_basis.shape[1]
    samples = []
    for b_tag, k_op in enumerate(al.sample_k_operators(cd, seed, n_base)):
        w = k_op @ np.asarray(h, dtype=float)
        tangent = sd.orbit_tangent_at(cd, w)
        for f_tag in range(n_fiber):
            v = cd.s_basis @ rng.standard_normal(dim_s)
            coeffs = tangent.T @ cd.b_theta @ v
            samples.append(al.OrbitSample(
                point=w + cd.alg.bracket(w, v), kind="semidirect", base_point=w, k_op=k_op,
                fiber=tangent @ coeffs, fiber_coeffs=coeffs, r=np.inf,
                base_tag=b_tag, fiber_tag=f_tag,
            ))
    return samples


@pytest.mark.parametrize("descriptor", ["sl2r", "sl2c", "sl3c"])
def test_semidirect_batch_matches_per_sample_loop(descriptor):
    cd = _cartan(descriptor)
    batch = sd.sample_semidirect_orbit(cd, cd.chamber_H, seed=14, n_base=6, n_fiber=4)
    reference = _loop_semidirect_orbit(cd, cd.chamber_H, seed=14, n_base=6, n_fiber=4)
    assert len(batch) == len(reference) == 24
    for p, q in zip(batch, reference):
        assert (p.base_tag, p.fiber_tag, p.kind, p.r) == (q.base_tag, q.fiber_tag, q.kind, q.r)
        for field in ("point", "base_point", "k_op", "fiber", "fiber_coeffs"):
            a, b = getattr(p, field), getattr(q, field)
            assert np.linalg.norm(a - b) <= 1e-14 * max(np.linalg.norm(b), 1e-300), field


def test_orbit_tangent_stack_matches_single():
    cd = _cartan("sl3c")
    w = al.flag_orbit_sample(cd, cd.chamber_H, seed=15, count=5).base_points
    stack = sd.orbit_tangent_at(cd, w)
    for w_i, t_i in zip(w, stack):
        single = sd.orbit_tangent_at(cd, w_i)
        assert np.linalg.norm(t_i - single) <= 1e-14 * np.linalg.norm(single)
