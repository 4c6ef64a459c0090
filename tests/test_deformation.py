import math
import tracemalloc

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform import semidirect as sd
from orbitdeform.numerics import apply, matrix_exp, simultaneous_eigenspaces
from conftest import cartan, fiber_draws
from test_algebra import structure_tensor

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


def test_context_rejects_r_whose_inverse_overflows(sl2r):
    # T_r^-1 scales by 1/r, which is inf below about 5.6e-309
    _, cd = sl2r
    with pytest.raises(al.DomainError, match="too small"):
        df.make_context(cd, 1e-320)
    with pytest.raises(al.DomainError, match="too small"):
        df.make_context(cd, np.float64(5.5e-309))
    ctx = df.make_context(cd, 5.6e-309)
    assert np.all(np.isfinite(ctx.t_r_inv))


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
                lhs = np.diag(ctx.t_r) @ alg.bracket(x, y)
                rhs = df.bracket_r(ctx, np.diag(ctx.t_r) @ x, np.diag(ctx.t_r) @ y)
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
    assert np.allclose(np.diag(ctx.psi_r), np.eye(3))


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
        n_plus, _, _ = al.h_subspaces(cd, al.chamber_element(cd, "regular"))
        img = np.diag(ctx.psi_r) @ n_plus
        assert np.linalg.norm(cd.s_basis.T @ img) < 1e-12


def test_psi_r_eigenvector_property():
    for desc in ("sl2r", "sl3r", "sl2c"):
        family, n = al.parse_descriptor(desc)
        cd = al.cartan_structure(al.build_algebra(family, n))
        h = al.chamber_element(cd, "regular")
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
    n_plus, _, _ = al.h_subspaces(cd, al.chamber_element(cd, "regular"))
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        img = np.linalg.qr(np.diag(ctx.psi_r) @ n_plus)[0]
        # ad_r(H) is symmetric for T_r^-1 B_theta T_r^-1, and the blocks are orthonormal for it
        metric = np.diag(ctx.t_r_inv) @ cd.b_theta @ np.diag(ctx.t_r_inv)
        blocks = simultaneous_eigenspaces([df.ad_r(ctx, al.chamber_element(cd, "regular"))], metric)
        pos = np.hstack([b for v, b in blocks if v[0] > 1e-8])
        assert np.linalg.norm(img - pos @ (pos.T @ metric @ img)) < 1e-9


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_ad_r_exp_orbit_rejects_a_non_finite_generator(value):
    # a NaN s-part fails the comparison, so the guard let it through to matrix_exp
    ctx = df.make_context(cartan("sl2c"), 2.0)
    with pytest.raises(al.DomainError):
        df.ad_r_exp_orbit(ctx, np.full(ctx.cd.alg.dim, value), 1.0, np.ones(ctx.cd.alg.dim))


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
    batch = df.sample_deformed_orbit(cd, H, seed=5, n_base=25, n_fiber=4)
    assert (batch.kind, batch.r) == ("deformed", 1.0)
    for x, y, z in batch.points.reshape(-1, 3):
        assert abs(x * x + y * y - z * z - 1.0) < 1e-8


def test_semidirect_limit_is_cylinder(sl2r):
    _, cd = sl2r
    batch = df.tilde_psi_r(df.make_context(cd, math.inf),
                           df.sample_deformed_orbit(cd, H, seed=5, n_base=25, n_fiber=4))
    for x, y, z in batch.points.reshape(-1, 3):
        assert abs(x * x + y * y - 1.0) < 1e-9


def test_deformed_orbit_killing_invariance():
    for desc in ("sl2r", "sl3r"):
        family, n = al.parse_descriptor(desc)
        alg = al.build_algebra(family, n)
        cd = al.cartan_structure(alg)
        h = al.chamber_element(cd, "regular")
        target = alg.killing_form(h, h)
        adjoint = df.sample_deformed_orbit(cd, h, seed=6, n_base=10, n_fiber=3)
        for r in (0.1, 0.5, 2.0, 10.0, 100.0):
            ctx = df.make_context(cd, r)
            batch = df.tilde_psi_r(ctx, adjoint)
            for q in batch.points.reshape(-1, alg.dim):
                assert abs(df.killing_r(ctx, q, q) - target) < 1e-6 * (1 + q @ q)


def test_deformed_quadric_sl2r(sl2r):
    _, cd = sl2r
    adjoint = df.sample_deformed_orbit(cd, H, seed=6, n_base=10, n_fiber=3)
    for r in (0.1, 0.5, 2.0, 10.0, 100.0):
        batch = df.tilde_psi_r(df.make_context(cd, r), adjoint)
        for x, y, z in batch.points.reshape(-1, 3):
            assert abs(x * x + y * y - z * z / r**2 - 1.0) < 1e-6


def test_tilde_psi_identity_at_r1(sl2r):
    _, cd = sl2r
    batch = df.sample_deformed_orbit(cd, H, seed=7, n_base=5, n_fiber=2)
    assert np.allclose(df.tilde_psi_r(df.make_context(cd, 1.0), batch).points, batch.points, atol=1e-14)


def test_tilde_psi_coordinates(sl2r):
    # untransformed H with fiber c E12: (1, c/2, c/2) -> (1, c/(r+1), cr/(r+1))
    _, cd = sl2r
    c = 1.7
    e12 = (S + A) / 2
    base = al.OrbitBatch(
        points=(H + c * e12)[None, None], base_points=H[None], k=np.eye(2)[None],
        fibers=(c * e12)[None, None], kind="deformed", r=1.0,
    )
    for r in (2.0, 10.0):
        out = df.tilde_psi_r(df.make_context(cd, r), base).points[0, 0]
        assert np.allclose(out, [1.0, c / (r + 1), c * r / (r + 1)])
    out = df.tilde_psi_r(df.make_context(cd, math.inf), base).points[0, 0]
    assert np.allclose(out, [1.0, 0.0, c])


def test_tilde_psi_rejects_untagged(sl2r):
    _, cd = sl2r
    p = al.OrbitBatch(
        points=H[None, None], base_points=H[None], k=np.zeros((1, 0, 0)),
        fibers=None, kind="deformed", r=1.0,
    )
    with pytest.raises(al.RepresentationError):
        df.tilde_psi_r(df.make_context(cd, 2.0), p)


def test_tilde_psi_rejects_semidirect_batch(sl2r):
    # sample_semidirect_orbit stores v in s, not Ad(k)X with X in n_H^+: pushed as one
    # to r = inf, where they already lie, sl2c points at seed 1 moved by up to 6.7
    _, cd = sl2r
    batch = sd.sample_semidirect_orbit(cd, H, seed=1, n_base=4, n_fiber=2)
    with pytest.raises(al.RepresentationError):
        df.tilde_psi_r(df.make_context(cd, math.inf), batch)


def test_limit_deviation_rejects_semidirect_batch(sl2r):
    _, cd = sl2r
    batch = sd.sample_semidirect_orbit(cd, H, seed=1, n_base=4, n_fiber=2)
    with pytest.raises(al.RepresentationError):
        df.limit_deviation(df.make_context(cd, 2.0), batch)


def test_limit_deviation_closed_form(sl2r):
    _, cd = sl2r
    samples = df.sample_deformed_orbit(cd, H, seed=8, n_base=10, n_fiber=4)
    c_max = math.sqrt(2.0) * np.linalg.norm(fiber_draws(cd, H, seed=8, n_fiber=4), axis=-1).max()
    prev = math.inf
    for r in (10.0, 100.0, 1000.0):
        dev = df.limit_deviation(df.make_context(cd, r), samples)
        expected = math.sqrt(2.0) * c_max / (r + 1)
        assert abs(dev - expected) < 0.1 * expected
        assert dev < prev
        prev = dev


def test_sampling_deterministic(sl2r):
    _, cd = sl2r
    a = df.sample_deformed_orbit(cd, H, seed=9, n_base=5, n_fiber=2)
    b = df.sample_deformed_orbit(cd, H, seed=9, n_base=5, n_fiber=2)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_bracket_r_matches_deformed_structure_tensor(descriptor):
    # reference: the structure tensor of [X,Y]_r, c_r = T_r^{-1} x T_r^{-1} x c x T_r
    alg = al.build_algebra(*al.parse_descriptor(descriptor))
    cd = al.cartan_structure(alg)
    c = structure_tensor(alg)
    basis = np.eye(alg.dim)
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        t_r_inv = np.diag(ctx.t_r_inv)
        ref = np.einsum("ia,jb,abc,kc->ijk", t_r_inv, t_r_inv, c, np.diag(ctx.t_r),
                        optimize=True)
        got = np.stack([[df.bracket_r(ctx, basis[i], basis[j]) for j in range(alg.dim)]
                        for i in range(alg.dim)])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _loop_deformed_orbit(ctx, h, seed, n_base, n_fiber):
    # reference: the per-sample loop sample_deformed_orbit ran before it returned a batch;
    # the stored fiber is Ad(k)X_c, the fiber at its base point
    cd = ctx.cd
    draws = fiber_draws(cd, h, seed, n_fiber)
    samples = []
    for b_tag, k in enumerate(al.sample_k_operators(cd, seed, n_base)):
        base = cd.alg.conjugate(k, h)
        for f_tag, x_c in enumerate(draws):
            moved = cd.alg.conjugate(k, x_c)
            samples.append(dict(
                point=base + np.diag(ctx.psi_r) @ moved, base_point=base, k=k,
                fiber=moved, tags=(b_tag, f_tag),
            ))
    return samples


def _close(a, b, rel=1e-14):
    return np.linalg.norm(np.asarray(a) - b) <= rel * max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_deformed_batch_matches_per_sample_loop(descriptor):
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    adjoint = df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"), seed=13, n_base=6, n_fiber=4)
    assert (adjoint.kind, adjoint.r) == ("deformed", 1.0)
    for r in (1.0, 2.0, math.inf):
        ctx = df.make_context(cd, r)
        batch = df.tilde_psi_r(ctx, adjoint)
        reference = _loop_deformed_orbit(ctx, al.chamber_element(cd, "regular"),
                                         seed=13, n_base=6, n_fiber=4)
        assert batch.points.shape == (6, 4, cd.alg.dim) and len(reference) == 24
        assert (batch.kind, batch.r) == ("deformed", ctx.r)
        for (b, f), q in zip(np.ndindex(6, 4), reference):
            assert (b, f) == q["tags"]
            p = dict(point=batch.points[b, f], base_point=batch.base_points[b],
                     k=batch.k[b], fiber=batch.fibers[b, f])
            for field, value in p.items():
                assert _close(value, q[field]), field


@pytest.fixture(scope="module")
def sl6c():
    return al.cartan_structure(al.build_algebra("sl_complex", 6))


def test_deformed_sampler_memory_at_rank(sl6c):
    # the batch holds n x n group elements, and Ad(k) acts by conjugation: with
    # (n_base, dim, dim) Ad(k) matrices from a Kronecker readout the peak was 273 MiB
    cd = sl6c
    tracemalloc.start()
    try:
        batch = df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"),
                                         seed=1, n_base=2000, n_fiber=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.k.shape == (2000, 6, 6)
    assert peak < 64 * 2**20, peak


def test_tilde_psi_memory_at_rank(sl6c):
    # the batch stores Ad(k)X, so psi~_r forms psi_r Ad(k)X and the sum with the
    # base points: two arrays the size of the points.  Conjugating the fibers
    # again at each r peaked near 4x
    batch = df.sample_deformed_orbit(sl6c, al.chamber_element(sl6c, "regular"),
                                     seed=1, n_base=2000, n_fiber=5)
    ctx = df.make_context(sl6c, 2.0)
    tracemalloc.start()
    try:
        pushed = df.tilde_psi_r(ctx, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pushed.points.shape == (2000, 5, sl6c.alg.dim)
    assert peak < 3 * pushed.points.nbytes, (peak, pushed.points.nbytes)


def _loop_limit_deviation(ctx, samples, draws):
    # reference: the brute-force loop limit_deviation ran before its closed form,
    # conjugating the fiber draws X_c itself
    inf_ctx = df.make_context(ctx.cd, math.inf)
    dev = 0.0
    for b, f in np.ndindex(samples.points.shape[:2]):
        moved = ctx.cd.alg.conjugate(samples.k[b], draws[f])
        at_r = samples.base_points[b] + np.diag(ctx.psi_r) @ moved
        at_inf = samples.base_points[b] + np.diag(inf_ctx.psi_r) @ moved
        dev = max(dev, float(np.linalg.norm(at_r - at_inf)))
    return dev


@pytest.mark.parametrize("descriptor", ["sl2c", "sl3r"])
def test_limit_deviation_exact_law(descriptor):
    # tilde_psi_r(p) - tilde_psi_inf(p) = (q - 1) theta Ad(k)X, so the deviation
    # times (r+1)/2 does not depend on r
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    batch = df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"),
                                     seed=8, n_base=10, n_fiber=4)
    draws = fiber_draws(cd, al.chamber_element(cd, "regular"), seed=8, n_fiber=4)
    scaled = []
    for r in (1.0, 2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        dev = df.limit_deviation(ctx, batch)
        assert abs(dev - _loop_limit_deviation(ctx, batch, draws)) <= 1e-12 * dev
        scaled.append(dev * (r + 1) / 2)
    assert max(scaled) - min(scaled) <= 1e-12 * max(scaled)


@pytest.mark.parametrize("descriptor", ["sl2r", "sl3c"])
def test_ad_r_stack_matches_single(descriptor):
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(descriptor)))
    x = np.random.default_rng(14).standard_normal((3, 4, cd.alg.dim))
    for r in (0.5, 2.0, 10.0):
        ctx = df.make_context(cd, r)
        stack = df.ad_r(ctx, x)
        for b, f in np.ndindex(3, 4):
            # reference: the single-vector form ad_r had before it took stacks
            t_r, t_r_inv = np.diag(ctx.t_r), np.diag(ctx.t_r_inv)
            single = t_r @ cd.alg.ad(t_r_inv @ x[b, f]) @ t_r_inv
            assert np.linalg.norm(stack[b, f] - single) <= 1e-14 * np.linalg.norm(single)


@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_deformed_maps_stack_matches_single(descriptor):
    # bracket_r, killing_r and psi_r_map on (..., dim) stacks give the per-vector bits
    alg = al.build_algebra(*al.parse_descriptor(descriptor))
    cd = al.cartan_structure(alg)
    x, y = np.random.default_rng(4).standard_normal((2, 3, 4, alg.dim))
    for r in df.R_GRID_FULL:
        ctx = df.make_context(cd, r)
        psi = df.psi_r_map(ctx, x)
        assert np.array_equal(psi, [[df.psi_r_map(ctx, v) for v in row] for row in x])
        if not ctx.finite:
            continue
        br, kr = df.bracket_r(ctx, x, y), df.killing_r(ctx, x, y)
        assert br.shape == x.shape and kr.shape == x.shape[:-1]
        assert np.array_equal(br, [[df.bracket_r(ctx, a, b) for a, b in zip(xs, ys)]
                                   for xs, ys in zip(x, y)])
        assert np.array_equal(kr, [[df.killing_r(ctx, a, b) for a, b in zip(xs, ys)]
                                   for xs, ys in zip(x, y)])
        assert isinstance(df.killing_r(ctx, x[0, 0], y[0, 0]), float)


@pytest.mark.parametrize("r", df.R_GRID_FULL)
@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_diagonal_route_matches_dense_matrices(descriptor, r):
    # theta is a +-1 diagonal, so T_r, T_r^-1 and psi_r are stored as (dim,) diagonals
    # and the k/s split selects coordinates; the dense (dim, dim) route they replace,
    # theta read off the basis as cartan_structure reads it, is the reference
    cd = cartan(descriptor)
    alg, dim = cd.alg, cd.alg.dim
    theta = alg.to_vector(-np.conj(np.swapaxes(alg.basis, -1, -2))).T
    eye = np.eye(dim)
    k_cols, s_cols = eye[:, np.diag(theta) == 1.0], eye[:, np.diag(theta) == -1.0]
    x, y, z = np.random.default_rng(30).standard_normal((3, 4, 2, dim))
    ctx = df.make_context(cd, r)
    assert cd.signs.shape == ctx.psi_r.shape == (dim,)
    assert np.array_equal(cd.b_theta, -alg.killing @ theta)
    q = 1.0 if math.isinf(r) else (r - 1.0) / (r + 1.0)
    assert np.array_equal(df.psi_r_map(ctx, z), apply(eye + q * theta, z))
    assert np.array_equal(cd.project_k(z), 0.5 * (z + apply(theta, z)))
    assert np.array_equal(cd.project_s(z), 0.5 * (z - apply(theta, z)))
    assert np.array_equal(sd.tangent_columns(cd, z), -alg.ad(z) @ k_cols)
    assert np.array_equal(sd.coadjoint_fiber(cd, z), sd.span_basis(cd, alg.ad(z) @ s_cols))
    assert np.array_equal(sd.ad_rho_matrix(cd, z), alg.ad(cd.project_k(z))
                          + alg.ad(cd.project_s(z)) @ (k_cols @ k_cols.T))
    assert np.array_equal(sd.coad_star_matrix(cd, z), alg.ad(cd.project_k(z))
                          - alg.ad(cd.project_s(z)) @ (s_cols @ s_cols.T))
    if math.isinf(r):
        assert ctx.t_r is None and ctx.t_r_inv is None
        return
    assert ctx.t_r.shape == ctx.t_r_inv.shape == (dim,)
    t_r = np.diag(np.where(np.diag(theta) == 1.0, r, 1.0))
    t_r_inv = np.diag(1.0 / np.diag(t_r))
    assert np.array_equal(df.ad_r(ctx, x), t_r @ alg.ad(apply(t_r_inv, x)) @ t_r_inv)
    assert np.array_equal(df.bracket_r(ctx, x, y),
                          apply(t_r, alg.bracket(apply(t_r_inv, x), apply(t_r_inv, y))))
    assert np.array_equal(df.killing_r(ctx, x, y),
                          alg.killing_form(apply(t_r_inv, x), apply(t_r_inv, y)))
