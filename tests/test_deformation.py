import math

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform.numerics import matrix_exp, simultaneous_eigenspaces

H, S, A = np.eye(3)


@pytest.fixture(scope="module")
def sl2r():
    alg = al.build_algebra("sl_real", 2)
    return alg, al.cartan_structure(alg)


def test_context_rejects_nonpositive_r(sl2r):
    _, cd = sl2r
    with pytest.raises(al.DomainError):
        df.make_context(cd, 0.0)
    with pytest.raises(al.DomainError):
        df.make_context(cd, -2.0)


def test_r1_bracket_is_base_bracket(sl2r):
    alg, cd = sl2r
    ctx = df.make_context(cd, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(df.bracket_r(ctx, x, y), alg.bracket(x, y), atol=1e-14)


def test_sl2r_deformed_bracket_values(sl2r):
    _, cd = sl2r
    for r in (0.5, 2.0, 10.0):
        ctx = df.make_context(cd, r)
        assert np.allclose(df.bracket_r(ctx, S, A), -(2.0 / r) * H)
        assert np.allclose(df.bracket_r(ctx, H, S), 2.0 * r * A)


def test_infinite_r_rejects_finite_ops(sl2r):
    _, cd = sl2r
    ctx = df.make_context(cd, math.inf)
    with pytest.raises(al.DomainError):
        df.bracket_r(ctx, H, S)
    with pytest.raises(al.DomainError):
        df.killing_r(ctx, H, H)
    with pytest.raises(al.DomainError):
        df.ad_r_exp_orbit(ctx, A, 1.0, H)


def test_killing_r_values(sl2r):
    _, cd = sl2r
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        assert abs(df.killing_r(ctx, A, A) + 8.0 / r**2) < 1e-9
        assert abs(df.killing_r(ctx, H, H) - 8.0) < 1e-12


def test_killing_r_matches_trace_form(sl2r):
    _, cd = sl2r
    rng = np.random.default_rng(1)
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(10):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lhs = df.killing_r(ctx, x, y)
            rhs = np.trace(df.ad_r(ctx, x) @ df.ad_r(ctx, y))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_t_r_is_bracket_isomorphism():
    rng = np.random.default_rng(2)
    for desc in ("sl2r", "sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        alg = al.build_algebra(family, n)
        cd = al.cartan_structure(alg)
        for r in df.R_GRID:
            ctx = df.make_context(cd, r)
            for _ in range(5):
                x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
                lhs = ctx.t_r @ alg.bracket(x, y)
                rhs = df.bracket_r(ctx, ctx.t_r @ x, ctx.t_r @ y)
                assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(lhs))


def test_jacobi_for_deformed_bracket():
    rng = np.random.default_rng(3)
    cd = al.cartan_structure(al.build_algebra("sl_real", 3))
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(20):
            x, y, z = (rng.standard_normal(8) for _ in range(3))
            jac = (
                df.bracket_r(ctx, x, df.bracket_r(ctx, y, z))
                + df.bracket_r(ctx, y, df.bracket_r(ctx, z, x))
                + df.bracket_r(ctx, z, df.bracket_r(ctx, x, y))
            )
            scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
            assert np.linalg.norm(jac) < 1e-10 * scale


def test_psi_identity_at_r1(sl2r):
    _, cd = sl2r
    ctx = df.make_context(cd, 1.0)
    assert np.allclose(ctx.psi_r, np.eye(3))


def test_psi_r_on_e12(sl2r):
    _, cd = sl2r
    e12 = (S + A) / 2
    for r in (0.5, 2.0, 10.0):
        ctx = df.make_context(cd, r)
        expected = (1.0 / (r + 1)) * S + (r / (r + 1)) * A
        assert np.allclose(df.psi_r_map(ctx, e12), expected)
    ctx_inf = df.make_context(cd, math.inf)
    assert np.allclose(df.psi_r_map(ctx_inf, e12), A)


def test_psi_inf_sends_n_plus_into_k():
    for desc in ("sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        ctx = df.make_context(cd, math.inf)
        n_plus, _, _ = al.h_subspaces(cd, cd.chamber_H)
        img = ctx.psi_r @ n_plus
        assert np.linalg.norm(cd.s_basis.T @ img) < 1e-12


def test_psi_r_eigenvector_property():
    for desc in ("sl2r", "sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        h = cd.chamber_H
        vals = cd.root_values(h)
        for r in df.R_GRID:
            ctx = df.make_context(cd, r)
            adr_h = df.ad_r(ctx, h)
            for i, root in enumerate(cd.roots):
                for c in range(root.space_basis.shape[1]):
                    v = df.psi_r_map(ctx, root.space_basis[:, c])
                    assert np.linalg.norm(adr_h @ v - vals[i] * v) < 1e-9


def test_r_root_spaces_are_psi_images(sl2r):
    _, cd = sl2r
    n_plus, _, _ = al.h_subspaces(cd, cd.chamber_H)
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        img = np.linalg.qr(ctx.psi_r @ n_plus)[0]
        blocks = simultaneous_eigenspaces([df.ad_r(ctx, cd.chamber_H)])
        pos = np.hstack([b for v, b in blocks if v[0] > 1e-8])
        assert np.linalg.norm(img - pos @ (pos.T @ img)) < 1e-9


def test_ad_r_exp_orbit_matches_rescaled_flow(sl2r):
    _, cd = sl2r
    rng = np.random.default_rng(4)
    for r in (0.5, 2.0, 10.0):
        ctx = df.make_context(cd, r)
        for _ in range(10):
            a = cd.k_basis @ rng.standard_normal(1)
            y = rng.standard_normal(3)
            t = float(rng.standard_normal())
            lhs = df.ad_r_exp_orbit(ctx, a, t, y)
            rhs = matrix_exp((t / r) * cd.alg.ad(a)) @ y
            assert np.linalg.norm(lhs - rhs) < 1e-9


def test_ad_r_exp_orbit_scaling_substitution(sl2r):
    _, cd = sl2r
    y = np.array([0.3, -1.2, 0.7])
    lhs = df.ad_r_exp_orbit(df.make_context(cd, 2.0), A, 2.0, y)
    rhs = df.ad_r_exp_orbit(df.make_context(cd, 1.0), A, 1.0, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_ad_r_exp_rejects_s_direction(sl2r):
    _, cd = sl2r
    ctx = df.make_context(cd, 2.0)
    with pytest.raises(al.DomainError):
        df.ad_r_exp_orbit(ctx, S, 1.0, H)


def test_exp_ad_a_rotates_h_s_plane(sl2r):
    # Ad(e^{tA}) acts on the (H, S) coefficients as a rotation by 2t
    alg, _ = sl2r
    t = 0.37
    op = matrix_exp(t * alg.ad(A))
    out = op @ H
    assert abs(out[0] - math.cos(2 * t)) < 1e-12
    assert abs(abs(out[1]) - abs(math.sin(2 * t))) < 1e-12


def test_adjoint_orbit_is_hyperboloid(sl2r):
    _, cd = sl2r
    ctx = df.make_context(cd, 1.0)
    for p in df.sample_deformed_orbit(ctx, H, seed=5, n_base=25, n_fiber=4):
        x, y, z = p.point
        assert abs(x * x + y * y - z * z - 1.0) < 1e-8


def test_semidirect_limit_is_cylinder(sl2r):
    _, cd = sl2r
    ctx = df.make_context(cd, math.inf)
    for p in df.sample_deformed_orbit(ctx, H, seed=5, n_base=25, n_fiber=4):
        x, y, z = p.point
        assert abs(x * x + y * y - 1.0) < 1e-9


def test_deformed_orbit_killing_invariance():
    for desc in ("sl2r", "sl3r"):
        family, n = al.parse_descriptor(desc)
        alg = al.build_algebra(family, n)
        cd = al.cartan_structure(alg)
        h = cd.chamber_H
        target = alg.killing_form(h, h)
        for r in (0.1, 0.5, 2.0, 10.0, 100.0):
            ctx = df.make_context(cd, r)
            for p in df.sample_deformed_orbit(ctx, h, seed=6, n_base=10, n_fiber=3):
                q = p.point
                assert abs(df.killing_r(ctx, q, q) - target) < 1e-6 * (1 + q @ q)


def test_deformed_quadric_sl2r(sl2r):
    _, cd = sl2r
    for r in (0.1, 0.5, 2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        for p in df.sample_deformed_orbit(ctx, H, seed=6, n_base=10, n_fiber=3):
            x, y, z = p.point
            assert abs(x * x + y * y - z * z / r**2 - 1.0) < 1e-6


def test_tilde_psi_identity_at_r1(sl2r):
    _, cd = sl2r
    ctx1 = df.make_context(cd, 1.0)
    batch = df.sample_deformed_orbit(ctx1, H, seed=7, n_base=5, n_fiber=2)
    for p, q in zip(batch, df.tilde_psi_r(ctx1, batch)):
        assert np.allclose(q.point, p.point, atol=1e-14)


def test_tilde_psi_coordinates(sl2r):
    # untransformed H with fiber c E12: (1, c/2, c/2) -> (1, c/(r+1), cr/(r+1))
    _, cd = sl2r
    c = 1.7
    e12 = (S + A) / 2
    base = al.OrbitBatch(
        points=(H + c * e12)[None, None], base_points=H[None], k_ops=np.eye(3)[None],
        fibers=(c * e12)[None, None], fiber_coeffs=np.array([[[c]]]), kind="adjoint", r=1.0,
    )
    for r in (2.0, 10.0):
        out = df.tilde_psi_r(df.make_context(cd, r), base)[0]
        assert np.allclose(out.point, [1.0, c / (r + 1), c * r / (r + 1)])
    out = df.tilde_psi_r(df.make_context(cd, math.inf), base)[0]
    assert np.allclose(out.point, [1.0, 0.0, c])


def test_tilde_psi_rejects_untagged(sl2r):
    _, cd = sl2r
    p = al.OrbitBatch(
        points=H[None, None], base_points=H[None], k_ops=np.zeros((1, 0, 0)),
        fibers=None, fiber_coeffs=None, kind="adjoint", r=1.0,
    )
    with pytest.raises(al.RepresentationError):
        df.tilde_psi_r(df.make_context(cd, 2.0), p)


def test_limit_deviation_closed_form(sl2r):
    _, cd = sl2r
    ctx1 = df.make_context(cd, 1.0)
    samples = df.sample_deformed_orbit(ctx1, H, seed=8, n_base=10, n_fiber=4)
    c_max = max(math.sqrt(2.0) * np.linalg.norm(p.fiber) for p in samples)
    prev = math.inf
    for r in (10.0, 100.0, 1000.0):
        dev = df.limit_deviation(df.make_context(cd, r), samples)
        expected = math.sqrt(2.0) * c_max / (r + 1)
        assert abs(dev - expected) < 0.1 * expected
        assert dev < prev
        prev = dev


def test_sampling_deterministic(sl2r):
    _, cd = sl2r
    ctx = df.make_context(cd, 2.0)
    a = df.sample_deformed_orbit(ctx, H, seed=9, n_base=5, n_fiber=2)
    b = df.sample_deformed_orbit(ctx, H, seed=9, n_base=5, n_fiber=2)
    for p, q in zip(a, b):
        assert np.array_equal(p.point, q.point)


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_bracket_r_matches_deformed_structure_tensor(descriptor):
    # reference: the structure tensor of [X,Y]_r, c_r = T_r^{-1} x T_r^{-1} x c x T_r
    alg = al.build_algebra(*al.parse_descriptor(descriptor))
    cd = al.cartan_structure(alg)
    basis = np.eye(alg.dim)
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        ref = np.einsum("ia,jb,abc,kc->ijk", ctx.t_r_inv, ctx.t_r_inv, alg.structure, ctx.t_r,
                        optimize=True)
        got = np.stack([[df.bracket_r(ctx, basis[i], basis[j]) for j in range(alg.dim)]
                        for i in range(alg.dim)])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _loop_deformed_orbit(ctx, h, seed, n_base, n_fiber):
    # reference: the per-sample loop sample_deformed_orbit ran before it returned a batch
    cd = ctx.cd
    n_plus, _, _ = al.h_subspaces(cd, h)
    fiber_rng = np.random.default_rng([seed, 0x5F1BE])
    coeff_sets = [fiber_rng.standard_normal(n_plus.shape[1]) for _ in range(n_fiber)]
    samples = []
    for b_tag, k_op in enumerate(al.sample_k_operators(cd, seed, n_base)):
        base = k_op @ np.asarray(h, dtype=float)
        for f_tag, c in enumerate(coeff_sets):
            x_c = n_plus @ c
            samples.append(al.OrbitSample(
                point=base + ctx.psi_r @ (k_op @ x_c), kind=ctx.kind, base_point=base,
                k_op=k_op, fiber=x_c, fiber_coeffs=c, r=ctx.r, base_tag=b_tag, fiber_tag=f_tag,
            ))
    return samples


def _close(a, b, rel=1e-14):
    return np.linalg.norm(np.asarray(a) - b) <= rel * max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_deformed_batch_matches_per_sample_loop(descriptor):
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    for r in (1.0, 2.0, math.inf):
        ctx = df.make_context(cd, r)
        batch = df.sample_deformed_orbit(ctx, cd.chamber_H, seed=13, n_base=6, n_fiber=4)
        reference = _loop_deformed_orbit(ctx, cd.chamber_H, seed=13, n_base=6, n_fiber=4)
        assert batch.points.shape == (6, 4, cd.alg.dim) and len(batch) == len(reference)
        for p, q in zip(batch, reference):
            assert (p.base_tag, p.fiber_tag, p.kind, p.r) == (q.base_tag, q.fiber_tag, q.kind, q.r)
            for field in ("point", "base_point", "k_op", "fiber", "fiber_coeffs"):
                assert _close(getattr(p, field), getattr(q, field)), field


def _loop_limit_deviation(ctx, samples):
    # reference: the brute-force loop limit_deviation ran before its closed form
    inf_ctx = df.make_context(ctx.cd, math.inf)
    dev = 0.0
    for p in samples:
        a = p.base_point + ctx.psi_r @ (p.k_op @ p.fiber)
        b = p.base_point + inf_ctx.psi_r @ (p.k_op @ p.fiber)
        dev = max(dev, float(np.linalg.norm(a - b)))
    return dev


@pytest.mark.parametrize("descriptor", ["sl2c", "sl3r"])
def test_limit_deviation_exact_law(descriptor):
    # tilde_psi_r(p) - tilde_psi_inf(p) = (q - 1) theta Ad(k)X, so the deviation
    # times (r+1)/2 does not depend on r
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    batch = df.sample_deformed_orbit(df.make_context(cd, 1.0), cd.chamber_H, seed=8,
                                     n_base=10, n_fiber=4)
    scaled = []
    for r in (1.0, 2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        dev = df.limit_deviation(ctx, batch)
        assert abs(dev - _loop_limit_deviation(ctx, batch)) <= 1e-12 * dev
        scaled.append(dev * (r + 1) / 2)
    assert max(scaled) - min(scaled) <= 1e-12 * max(scaled)


def test_orbit_batch_views(sl2r):
    _, cd = sl2r
    batch = df.sample_deformed_orbit(df.make_context(cd, 2.0), H, seed=3, n_base=3, n_fiber=2)
    tags = [(p.base_tag, p.fiber_tag) for p in batch]
    assert tags == [(b, f) for b in range(3) for f in range(2)]
    assert batch[-1].base_tag == 2 and batch[-1].fiber_tag == 1
    assert [p.fiber_tag for p in batch[1:4]] == [1, 0, 1]
    assert np.array_equal(batch[3].point, batch.points[1, 1])
    with pytest.raises(IndexError):
        batch[6]
