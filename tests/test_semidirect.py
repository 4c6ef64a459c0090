import math

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform import semidirect as sd
from orbitdeform.numerics import matrix_exp
from conftest import cartan

H, S, A = np.eye(3)


@pytest.fixture(scope="module")
def sl2r():
    alg = al.build_algebra("sl_real", 2)
    return alg, al.cartan_structure(alg)


def test_bracket_s_abelian(sl2r):
    _, cd = sl2r
    out = sd.semidirect_bracket(cd, H, S)
    assert np.allclose(cd.project_k(out), 0.0) and np.allclose(cd.project_s(out), 0.0)


def test_bracket_k_on_s(sl2r):
    _, cd = sl2r
    out = sd.semidirect_bracket(cd, A, S)
    assert np.allclose(cd.project_k(out), 0.0)
    assert np.allclose(cd.project_s(out), 2 * H)  # [A, S] = 2H


def test_bracket_k_closes(sl2r):
    _, cd = sl2r
    out = sd.semidirect_bracket(cd, A, A)
    assert np.allclose(cd.project_k(out), 0.0) and np.allclose(cd.project_s(out), 0.0)


def test_jacobi_semidirect():
    rng = np.random.default_rng(0)
    for desc in ("sl2r", "sl3r"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        dk, ds = cd.k_basis.shape[1], cd.s_basis.shape[1]

        def rand():
            return cd.k_basis @ rng.standard_normal(dk) + cd.s_basis @ rng.standard_normal(ds)

        for _ in range(50):
            a, b, c = rand(), rand(), rand()
            j = (sd.semidirect_bracket(cd, a, sd.semidirect_bracket(cd, b, c))
                 + sd.semidirect_bracket(cd, b, sd.semidirect_bracket(cd, c, a))
                 + sd.semidirect_bracket(cd, c, sd.semidirect_bracket(cd, a, b)))
            resid = np.linalg.norm(cd.project_k(j)) + np.linalg.norm(cd.project_s(j))
            assert resid < 1e-9


def test_moment_mu_values(sl2r):
    # the moment part of m(gamma_y) = mu(y ^ covector) + y is [y, covector]
    _, cd = sl2r
    assert np.allclose(sd.cotangent_moment(cd, S, H) - S, -2 * A)
    assert np.allclose(sd.cotangent_moment(cd, S, S) - S, 0.0)


def test_coad_block_structure(sl2r):
    _, cd = sl2r
    c = sd.coad_star_matrix(cd, A)
    # block diagonal: ad(A) on k is zero (rank-1 k), ad(A) on s is a rotation generator
    assert np.allclose(cd.k_basis.T @ c @ cd.s_basis, 0.0)
    assert np.allclose(cd.s_basis.T @ c @ cd.k_basis, 0.0)


def test_coad_nilpotent_for_pure_translation(sl2r):
    _, cd = sl2r
    c = sd.coad_star_matrix(cd, S)
    assert np.allclose(c @ c, 0.0)
    # exp(t ad*(0,v)) = I + t ad*(0,v)
    assert np.allclose(matrix_exp(c), np.eye(3) + c, atol=1e-12)


def test_coad_duality():
    rng = np.random.default_rng(1)
    for desc in ("sl2r", "sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        for _ in range(20):
            e = (cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1])
                 + cd.s_basis @ rng.standard_normal(cd.s_basis.shape[1]))
            m = sd.ad_rho_matrix(cd, e)
            c = sd.coad_star_matrix(cd, e)
            assert np.max(np.abs(m.T @ cd.b_theta + cd.b_theta @ c)) < 1e-9


def test_cylinder_samples(sl2r):
    _, cd = sl2r
    batch = sd.sample_semidirect_orbit(cd, H, seed=2, n_base=20, n_fiber=5)
    for x, y, z in batch.points.reshape(-1, 3):
        assert abs(x * x + y * y - 1.0) < 1e-9


def test_zero_element_orbit(sl2r):
    _, cd = sl2r
    batch = sd.sample_semidirect_orbit(cd, np.zeros(3), seed=2, n_base=5, n_fiber=2)
    assert np.linalg.norm(batch.points, axis=-1).max() < 1e-12


def test_fiber_dimension_over_h(sl2r):
    _, cd = sl2r
    fib = sd.coadjoint_fiber(cd, H)
    assert fib.shape[1] == 1
    # ad(H)(s) = span{A}, and the basis vector is B_theta-unit
    assert np.abs(fib[:2, 0]).max() < 1e-12
    assert abs(abs(fib[2, 0]) - 1.0 / math.sqrt(cd.b_theta[2, 2])) < 1e-12


@pytest.mark.parametrize("value", [1e-8, 1e-7])
@pytest.mark.parametrize("desc", ["sl3r", "sl3c", ("sl_complex", 4)], ids=["sl3r", "sl3c", "sl4c"])
def test_near_wall_root_is_read_as_a_wall(desc, value):
    # a simple root value within cutoff of the largest is zero for check_chamber, so
    # h_subspaces counts its root space in z_H: n_H^+, the flag tangent and the fiber
    # have one width, the wall's.  h_subspaces used to count it in n_H^+, not in z_H
    cd = cartan(desc)
    simple = np.stack([cd.roots[i].functional for i in cd.simple_set])
    for k in range(len(cd.simple_set)):
        targets = np.full(len(cd.simple_set), 2.0)
        targets[k] = value
        h = cd.a_basis @ np.linalg.solve(simple, targets)
        width = al.h_subspaces(cd, h)[0].shape[1]
        assert width == sd.orbit_tangent_at(cd, h).shape[1] == sd.coadjoint_fiber(cd, h).shape[1]
        wall = al.chamber_element(cd, f"wall:{k}")
        assert width == al.h_subspaces(cd, wall)[0].shape[1]


def test_fiber_equals_psi_n_plus():
    for desc in ("sl2r", "sl3r"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        h = al.chamber_element(cd, "regular")
        n_plus, _, _ = al.h_subspaces(cd, h)
        psi = np.eye(cd.alg.dim) + np.diag(cd.signs)
        # B_theta-orthonormal, as the fiber basis is, by Gram-Schmidt instead of an SVD,
        # then the Cholesky step q inv(L)^T for q^T B_theta q = L L^T
        q = np.linalg.qr(psi @ n_plus)[0]
        img = q @ np.linalg.inv(np.linalg.cholesky(q.T @ cd.b_theta @ q)).T
        fib = sd.coadjoint_fiber(cd, h)
        assert np.linalg.norm(img - fib @ (fib.T @ cd.b_theta @ img)) < 1e-9
        assert np.linalg.norm(fib - img @ (img.T @ cd.b_theta @ fib)) < 1e-9


def test_fiber_disjointness(sl2r):
    _, cd = sl2r
    samples = sd.sample_semidirect_orbit(cd, H, seed=3, n_base=10, n_fiber=3)
    points, bases = samples.points.reshape(-1, 3), np.repeat(samples.base_points, 3, axis=0)
    for i, j in zip(*np.triu_indices(len(points), 1)):
        if np.linalg.norm(bases[i] - bases[j]) > 1e-6:
            assert np.linalg.norm(cd.project_s(points[i]) - cd.project_s(points[j])) > 1e-7


def test_semidirect_matches_deformed_at_infinity(sl2r):
    _, cd = sl2r
    ssd = sd.sample_semidirect_orbit(cd, H, seed=4, n_base=10, n_fiber=3)
    sdf = df.tilde_psi_r(df.make_context(cd, math.inf),
                         df.sample_deformed_orbit(cd, H, seed=4, n_base=10, n_fiber=3))
    for b, f in np.ndindex(10, 3):
        assert np.linalg.norm(ssd.base_points[b] - sdf.base_points[b]) < 1e-12
        fib = sd.coadjoint_fiber(cd, ssd.base_points[b])
        kq = cd.project_k(sdf.points[b, f])
        assert np.linalg.norm(kq - fib @ (fib.T @ cd.b_theta @ kq)) < 1e-8


def test_phi_zero_fiber_gives_zero_covector(sl2r):
    _, cd = sl2r
    p = al.OrbitBatch(
        points=H[None, None], base_points=H[None], k=np.eye(2)[None],
        fibers=np.zeros((1, 1, 3)), kind="semidirect", r=math.inf,
    )
    w, cov = sd.phi_cotangent(cd, p)
    assert np.allclose(w, H) and np.allclose(cov, 0.0)


def test_phi_pairs_fiber_with_tangent(sl2r):
    # over H the fiber direction comes from S: B_theta(cov, S) != 0
    _, cd = sl2r
    samples = sd.sample_semidirect_orbit(cd, H, seed=5, n_base=1, n_fiber=5)
    _, covs = sd.phi_cotangent(cd, samples)
    for cov in covs.reshape(-1, 3):
        if np.linalg.norm(cov) > 1e-9:
            assert abs(cov @ cd.b_theta @ S) > 1e-12


def test_phi_fiber_map_is_isomorphism():
    for desc in ("sl2r", "sl2c", "sl3c"):
        cd = cartan(desc)
        batch = sd.sample_semidirect_orbit(cd, al.chamber_element(cd, "regular"),
                                           seed=6, n_base=10, n_fiber=2)
        for w in batch.base_points:
            tangent = sd.orbit_tangent_at(cd, w)
            cols = [cd.alg.bracket(w, tangent[:, i]) for i in range(tangent.shape[1])]
            f = np.stack(cols, axis=1)
            assert np.linalg.matrix_rank(f) == tangent.shape[1]


def test_moment_inverts_phi():
    for desc in ("sl2r", "sl3r", "sl2c", "sl3c"):
        cd = cartan(desc)
        batch = sd.sample_semidirect_orbit(cd, al.chamber_element(cd, "regular"),
                                           seed=7, n_base=10, n_fiber=3)
        m = sd.cotangent_moment(cd, *sd.phi_cotangent(cd, batch))
        assert np.linalg.norm(m - batch.points, axis=-1).max() < 1e-9


def test_moment_zero_covector(sl2r):
    _, cd = sl2r
    m = sd.cotangent_moment(cd, H, np.zeros(3))
    assert np.allclose(cd.project_k(m), 0.0) and np.allclose(cd.project_s(m), H)


def test_moment_equivariance(sl2r):
    # push (base, covector) with Ad(k) and compare with pushing the orbit point
    alg, cd = sl2r
    rng = np.random.default_rng(8)
    samples = sd.sample_semidirect_orbit(cd, H, seed=8, n_base=5, n_fiber=2)
    bases, covs = sd.phi_cotangent(cd, samples)
    for b, f in np.ndindex(5, 2):
        w, cov = bases[b, f], covs[b, f]
        a = cd.k_basis @ rng.standard_normal(1)
        ad_k = matrix_exp(alg.ad(a))
        m_pushed = sd.cotangent_moment(cd, ad_k @ w, ad_k @ cov)
        pushed_point = ad_k @ samples.points[b, f]
        assert np.linalg.norm(m_pushed - pushed_point) < 1e-8


# ---- SO(3) on R^3 as the Cartan case of sl(2,C) = so(3,1) -------------
# s-coordinates (H, S, iA) are (e1, e2, e3); k-coordinates (A, iH, iS) are so(3).


@pytest.fixture(scope="module")
def sl2c():
    return cartan("sl2c")


def test_sl2c_mu_formula(sl2c):
    cd = sl2c
    rng = np.random.default_rng(9)
    for _ in range(20):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        mu = cd.alg.bracket(cd.s_basis @ v, cd.s_basis @ w)
        c = np.cross(v, w)
        assert np.linalg.norm(cd.k_basis @ (2 * np.array([c[2], -c[0], -c[1]])) - mu) < 1e-10


def test_sl2c_orbit_roundtrip(sl2c):
    cd = sl2c
    for scale in (1.0, 2.0):
        h = scale * al.chamber_element(cd, "regular")
        batch = sd.sample_semidirect_orbit(cd, h, seed=11, n_base=15, n_fiber=4)
        sphere = np.linalg.norm(batch.base_points @ cd.s_basis, axis=-1)
        assert np.abs(sphere - scale).max() < 1e-10
        base, cov = sd.phi_cotangent(cd, batch)
        m = sd.cotangent_moment(cd, base, cov)
        assert np.linalg.norm(cd.project_s(m) - batch.base_points[:, None], axis=-1).max() < 1e-12
        assert np.linalg.norm(m - batch.points, axis=-1).max() < 1e-9


def test_sl2c_fiber_map_isomorphism(sl2c):
    cd = sl2c
    for scale in (1.0, 2.0):
        h = scale * al.chamber_element(cd, "regular")
        for w in sd.sample_semidirect_orbit(cd, h, seed=12, n_base=10, n_fiber=2).base_points:
            tangent = sd.orbit_tangent_at(cd, w)
            f = np.stack([cd.alg.bracket(w, t) for t in tangent.T], axis=1)
            assert np.linalg.matrix_rank(f) == tangent.shape[1] == 2


def _loop_semidirect_orbit(cd, h, seed, n_base, n_fiber):
    # reference: the per-sample loop sample_semidirect_orbit ran before it returned a batch
    rng = np.random.default_rng([seed, 0x5D1E])
    dim_s = cd.s_basis.shape[1]
    samples = []
    for b_tag, k in enumerate(al.sample_k_operators(cd, seed, n_base)):
        w = cd.alg.conjugate(k, h)
        for f_tag in range(n_fiber):
            v = cd.s_basis @ rng.standard_normal(dim_s)
            samples.append(dict(
                point=w + cd.alg.bracket(w, v), base_point=w, k=k, fiber=v, tags=(b_tag, f_tag),
            ))
    return samples


@pytest.mark.parametrize("descriptor", ["sl2r", "sl2c", "sl3c"])
def test_semidirect_batch_matches_per_sample_loop(descriptor):
    cd = cartan(descriptor)
    batch = sd.sample_semidirect_orbit(cd, al.chamber_element(cd, "regular"),
                                       seed=14, n_base=6, n_fiber=4)
    reference = _loop_semidirect_orbit(cd, al.chamber_element(cd, "regular"),
                                       seed=14, n_base=6, n_fiber=4)
    assert batch.points.shape[:2] == (6, 4) and len(reference) == 24
    assert (batch.kind, batch.r) == ("semidirect", np.inf)
    for (b, f), q in zip(np.ndindex(6, 4), reference):
        assert (b, f) == q["tags"]
        p = dict(point=batch.points[b, f], base_point=batch.base_points[b], k=batch.k[b],
                 fiber=batch.fibers[b, f])
        for field, value in p.items():
            ref = q[field]
            assert np.linalg.norm(value - ref) <= 1e-14 * max(np.linalg.norm(ref), 1e-300), field


def test_orbit_tangent_stack_matches_single():
    cd = cartan("sl3c")
    w = al.flag_orbit_sample(cd, al.chamber_element(cd, "regular"), seed=15, count=5)
    stack = sd.orbit_tangent_at(cd, w)
    for w_i, t_i in zip(w, stack):
        single = sd.orbit_tangent_at(cd, w_i)
        assert np.linalg.norm(t_i - single) <= 1e-14 * np.linalg.norm(single)


@pytest.mark.parametrize("descriptor", ["sl2r", "sl2c", "sl3c"])
def test_phi_cotangent_matches_per_sample_loop(descriptor):
    cd = cartan(descriptor)
    batch = sd.sample_semidirect_orbit(cd, al.chamber_element(cd, "regular"),
                                       seed=16, n_base=6, n_fiber=4)
    bases, covs = sd.phi_cotangent(cd, batch)
    assert bases.shape == covs.shape == batch.points.shape
    for b, f in np.ndindex(6, 4):
        # reference: the per-sample phi_cotangent that read one OrbitSample view
        w = batch.base_points[b]
        tangent = sd.orbit_tangent_at(cd, w)
        v_t = tangent @ (tangent.T @ cd.b_theta @ batch.fibers[b, f])
        assert np.array_equal(bases[b, f], w)
        assert np.linalg.norm(covs[b, f] - v_t) <= 1e-14 * max(np.linalg.norm(v_t), 1e-300)


def test_phi_cotangent_rejects_adjoint_batch(sl2r):
    _, cd = sl2r
    batch = df.sample_deformed_orbit(cd, H, seed=17, n_base=2, n_fiber=2)
    with pytest.raises(al.RepresentationError):
        sd.phi_cotangent(cd, batch)


def test_phi_cotangent_rejects_deformed_batch_at_r_inf():
    # a deformed batch pushed to r = inf lies on the same orbit, but its fibers are
    # Ad(k)X with X in n_H^+, not v in s: their k-part reaches 0.18 on sl2c at seed 1,
    # and read as v the point w + [w, v] misses p by 0.33
    cd = cartan("sl2c")
    batch = df.tilde_psi_r(df.make_context(cd, math.inf),
                           df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"), 1, 4, 2))
    with pytest.raises(al.RepresentationError):
        sd.phi_cotangent(cd, batch)


@pytest.mark.parametrize("desc", ["sl2r", "sl3r", "sl2c", "sl3c"])
def test_block_matrices_stack_matches_single(desc):
    # ad_rho_matrix and coad_star_matrix of a stacked element give the per-element bits
    cd = cartan(desc)
    rng = np.random.default_rng(6)
    k_part = rng.standard_normal((3, 4, cd.k_basis.shape[1])) @ cd.k_basis.T
    s_part = rng.standard_normal((3, 4, cd.s_basis.shape[1])) @ cd.s_basis.T
    e = k_part + s_part
    for fn in (sd.ad_rho_matrix, sd.coad_star_matrix):
        got = fn(cd, e)
        assert got.shape == (3, 4, cd.alg.dim, cd.alg.dim)
        assert np.array_equal(got, [[fn(cd, x) for x in row] for row in e])


# ---- the (k-part, s-part) pair formulas the ambient ones replaced ------------


def _pair_bracket(cd, x, v, y, w):
    # reference: ([X,Y], [X,w] - [Y,v]) for the pairs (X, v) and (Y, w)
    alg = cd.alg
    return alg.bracket(x, y), alg.bracket(x, w) - alg.bracket(y, v)


def _pair_matrix(cd, x, v, coadjoint):
    # reference: the action of (X, v) on the ordered (k-basis, s-basis) coordinates,
    # blocks [[ad(X)|k, 0], [ad(v)|k->s, ad(X)|s]] or [[ad(X)|k, -ad(v)|s->k], [0, ad(X)|s]]
    kb, sb = cd.k_basis, cd.s_basis
    ad_x, ad_v = cd.alg.ad(x), cd.alg.ad(v)
    nk, n = kb.shape[1], cd.alg.dim
    out = np.zeros((*ad_x.shape[:-2], n, n))
    out[..., :nk, :nk] = kb.T @ ad_x @ kb
    out[..., nk:, nk:] = sb.T @ ad_x @ sb
    if coadjoint:
        out[..., :nk, nk:] = -(kb.T @ ad_v @ sb)
    else:
        out[..., nk:, :nk] = sb.T @ ad_v @ kb
    return out


WIDER = [*sorted(al.DESCRIPTORS), ("sl_complex", 4), ("sl_real", 5)]


@pytest.mark.parametrize("desc", WIDER, ids=lambda d: d if isinstance(d, str) else "%s-%d" % d)
def test_ambient_formulas_match_pair_formulas(desc):
    # theta and the structure constants are exact, so the ambient formulas give the
    # pair formulas' bits: the sum of the parts, and the k-part back under project_k
    cd = cartan(desc)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((2, 50, cd.k_basis.shape[1])) @ cd.k_basis.T
    v, w = rng.standard_normal((2, 50, cd.s_basis.shape[1])) @ cd.s_basis.T
    k, s = _pair_bracket(cd, x, v, y, w)
    got = sd.semidirect_bracket(cd, x + v, y + w)
    assert np.array_equal(got, k + s)
    assert np.array_equal(cd.project_k(got), k)
    p = np.hstack([cd.k_basis, cd.s_basis])
    for fn, coadjoint in ((sd.ad_rho_matrix, False), (sd.coad_star_matrix, True)):
        assert np.array_equal(p.T @ fn(cd, x + v) @ p, _pair_matrix(cd, x, v, coadjoint))
    if cd.roots:
        batch = sd.sample_semidirect_orbit(cd, al.chamber_element(cd, "regular"),
                                           seed=10, n_base=10, n_fiber=5)
        base, cov = sd.phi_cotangent(cd, batch)
        # reference: the pair (mu(y ^ covector), y), summed
        ref = cd.alg.bracket(base, cov) + base
        assert np.array_equal(sd.cotangent_moment(cd, base, cov), ref)
