import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdeform import algebra as al
from orbitdeform import checks
from orbitdeform import deformation as df
from orbitdeform import semidirect as sd
from orbitdeform import symplectic as sp
from orbitdeform.numerics import (
    DimensionError, StructureError, apply, bilinear, cutoff, matrix_exp, nullspace,
    orthonormal_range, rank,
)
from conftest import fiber_draws


@pytest.fixture(scope="module")
def sl2c():
    alg = al.build_algebra("sl_complex", 2)
    cd = al.cartan_structure(alg)
    return cd, sp.make_hermitian_context(cd)


@pytest.fixture(scope="module")
def sl3c():
    alg = al.build_algebra("sl_complex", 3)
    cd = al.cartan_structure(alg)
    return cd, sp.make_hermitian_context(cd)


def test_hermitian_context_rejects_real_family():
    cd = al.cartan_structure(al.build_algebra("sl_real", 2))
    with pytest.raises(al.DomainError):
        sp.make_hermitian_context(cd)


def _hermitian_form(hc, x, y):
    # H_tau(X,Y) = -<X, tau Y>, sesquilinear with Re H_tau = B_tau / 2, from B_tau and J
    re = 0.5 * float(x @ hc.cd.b_theta @ y)
    im = -0.5 * float((hc.cd.alg.j_op @ x) @ hc.cd.b_theta @ y)
    return complex(re, im)


def test_hermitian_form_h_value(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    # complex Killing of sl(2,C) is 4 tr(XY); H = diag(1,-1) gives 8
    val = _hermitian_form(hc, h, h)
    assert abs(val - 8.0) < 1e-10


def test_hermitian_form_positive_and_sesquilinear(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        hxx = _hermitian_form(hc, x, x)
        assert abs(hxx.imag) < 1e-10 and hxx.real > 0
        assert abs(_hermitian_form(hc, cd.alg.j_op @ x, y) - 1j * _hermitian_form(hc, x, y)) < 1e-10
        assert abs(_hermitian_form(hc, x, cd.alg.j_op @ y) + 1j * _hermitian_form(hc, x, y)) < 1e-10


def test_b_tau_identities(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        # B_tau = 2 Re H_tau and is J-invariant
        assert abs(x @ cd.b_theta @ y - 2 * _hermitian_form(hc, x, y).real) < 1e-10
        assert abs((cd.alg.j_op @ x) @ cd.b_theta @ (cd.alg.j_op @ y) - x @ cd.b_theta @ y) < 1e-10


def test_restriction_to_s_is_killing(sl2c):
    # on s = i su(2) the Hermitian metric reduces to the complex Killing form
    cd, hc = sl2c
    sb = cd.s_basis
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = sb @ rng.standard_normal(3)
        y = sb @ rng.standard_normal(3)
        mx, my = cd.alg.to_matrix(x), cd.alg.to_matrix(y)
        killing_c = 4.0 * np.trace(mx @ my)  # 2n tr at n = 2
        assert abs(_hermitian_form(hc, x, y) - killing_c) < 1e-9


def test_omega_alternating_and_u_isotropic(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(6)
        assert abs(bilinear(x, hc.omega, x)) < 1e-12
    ku = cd.k_basis
    assert np.max(np.abs(ku.T @ hc.omega @ ku)) < 1e-12
    su = cd.s_basis
    assert np.max(np.abs(su.T @ hc.omega @ su)) < 1e-12


def test_omega_ad_u_invariance(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(4)
    from orbitdeform.numerics import matrix_exp

    for _ in range(10):
        a = cd.k_basis @ rng.standard_normal(3)
        ad_k = matrix_exp(cd.alg.ad(a))
        assert np.max(np.abs(ad_k.T @ hc.omega @ ad_k - hc.omega)) < 1e-8


def test_radical_cases():
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    std4 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), j2]])
    assert nullspace(sp.make_skew_form(std4)).shape[1] == 0
    assert nullspace(sp.make_skew_form(np.zeros((4, 4)))).shape[1] == 4
    rank2 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
    assert nullspace(sp.make_skew_form(rank2)).shape[1] == 2


def test_skew_form_any_stack_matches_single():
    # a (..., d, d) stack gives the bits of the per-matrix calls
    grams = np.random.default_rng(12).standard_normal((2, 3, 5, 5))
    per_matrix = np.array([[sp.make_skew_form(g) for g in row] for row in grams])
    assert sp.make_skew_form(grams).tobytes() == per_matrix.tobytes()
    for bad in (np.zeros(4), np.zeros((3, 4)), np.zeros((2, 3, 4, 5))):
        with pytest.raises(DimensionError):
            sp.make_skew_form(bad)


def test_max_isotropic_rejects_other_shapes():
    # only a (d, d) form or an (m, d, d) stack; make_skew_form's wider stacks are refused
    deeper = sp.make_skew_form(np.random.default_rng(13).standard_normal((2, 3, 4, 4)))
    for bad in (np.zeros(4), deeper, np.zeros((4, 5))):
        with pytest.raises(DimensionError):
            sp.max_isotropic(bad)


def test_max_isotropic_dimensions():
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    std4 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), j2]])
    assert sp.max_isotropic(sp.make_skew_form(std4)).shape[1] == 2
    assert sp.max_isotropic(sp.make_skew_form(np.zeros((3, 3)))).shape[1] == 3
    rank2 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
    assert sp.max_isotropic(sp.make_skew_form(rank2)).shape[1] == 3


def test_max_isotropic_formula_random_forms():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(0, d + 1))
        p = rng.standard_normal((d, k))
        g = p @ rng.standard_normal((k, k)) @ p.T
        form = sp.make_skew_form(g - g.T)
        rad = nullspace(form)
        w = sp.max_isotropic(form)
        assert 2 * w.shape[1] == d + rad.shape[1]
        if w.size:
            assert np.max(np.abs(w.T @ form @ w)) < 1e-8


def test_orbit_tangent_dimensions(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=6, count=5)
    assert sp.orbit_tangent_basis(hc, flag, "flag").shape == (5, 6, 2)
    batch = df.tilde_psi_r(df.make_context(cd, math.inf),
                           df.sample_deformed_orbit(cd, h, seed=6, n_base=5, n_fiber=2))
    assert sp.orbit_tangent_basis(hc, batch.points, "semidirect").shape == (5, 2, 6, 4)
    assert sp.orbit_tangent_basis(hc, np.zeros(6), "flag").shape[1] == 0


def test_symplectic_certificate_sl2c(sl2c):
    cd, hc = sl2c
    samples = df.tilde_psi_r(df.make_context(cd, math.inf), df.sample_deformed_orbit(
        cd, al.chamber_element(cd, "regular"), seed=7, n_base=25, n_fiber=4))
    report = sp.check_symplectic_on_orbit(hc, samples)
    assert report["full_rank"]
    assert report["max_fiber_omega"] < 1e-10
    assert report["fiber_maximal_isotropic"]
    assert report["tangent_dims"] == [4]


def test_symplectic_certificate_rejects_other_kinds(sl2c):
    # the fiber [w, s] of the certificate belongs to the semidirect orbit only:
    # a batch at finite r, the adjoint orbit at r = 1 included, raises
    cd, hc = sl2c
    adjoint = df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"), 7, 3, 2)
    for r in (1.0, 2.0):
        batch = df.tilde_psi_r(df.make_context(cd, r), adjoint)
        with pytest.raises(al.RepresentationError):
            sp.check_symplectic_on_orbit(hc, batch)


def test_symplectic_certificate_sl3c(sl3c):
    cd, hc = sl3c
    samples = df.tilde_psi_r(df.make_context(cd, math.inf), df.sample_deformed_orbit(
        cd, al.chamber_element(cd, "regular"), seed=7, n_base=20, n_fiber=3))
    report = sp.check_symplectic_on_orbit(hc, samples)
    assert report["full_rank"]
    assert report["tangent_dims"] == [12]  # 2 |positive roots| over C


def test_gradient_field_consistency(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=8, count=10)
    step = 1e-6
    from orbitdeform.numerics import matrix_exp

    for x in flag:
        y = sp.gradient_at(hc, x, h)
        for i in range(cd.k_basis.shape[1]):
            a = cd.k_basis[:, i]
            xp = matrix_exp(step * cd.alg.ad(a)) @ x
            xm = matrix_exp(-step * cd.alg.ad(a)) @ x
            d_f = ((xp @ hc.cd.b_theta @ h) - (xm @ hc.cd.b_theta @ h)) / (2 * step)
            v = (xp - xm) / (2 * step)
            assert abs(d_f - float(y @ hc.cd.b_theta @ v)) < 1e-6


def test_gradient_vanishes_at_poles(sl2c):
    # the height function along H has critical points exactly at +-H
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    assert np.linalg.norm(sp.gradient_at(hc, h, h)) < 1e-10
    assert np.linalg.norm(sp.gradient_at(hc, -h, h)) < 1e-10
    flag = al.flag_orbit_sample(cd, h, seed=9, count=20)
    away = [x for x in flag if min(np.linalg.norm(x - h), np.linalg.norm(x + h)) > 0.3]
    assert any(np.linalg.norm(sp.gradient_at(hc, x, h)) > 1e-3 for x in away)


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_gradient_is_b_tau_projection(fixture, request):
    # reference: the B_tau-orthogonal projection C pinv(C^T B C) C^T B N of N onto
    # the span of the raw columns C = [A, x], A over the compact basis; errors are
    # relative to |N|, since the gradient vanishes at the poles
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    x = np.vstack([h, -h, al.flag_orbit_sample(cd, h, seed=20, count=8)])
    grads = sp.gradient_at(hc, x, h)
    for x_i, y_i in zip(x, grads):
        c = np.stack([cd.alg.bracket(a, x_i) for a in cd.k_basis.T], axis=1)
        g = c.T @ hc.cd.b_theta @ c
        ref = c @ np.linalg.pinv(g, rtol=1e-10, hermitian=True) @ c.T @ hc.cd.b_theta @ h
        assert np.linalg.norm(y_i - ref) <= 1e-12 * np.linalg.norm(h)
    assert np.abs(grads[:2]).max() <= 1e-12 * np.linalg.norm(h)  # the poles +-H


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_gradient_stack_matches_single(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    x = al.flag_orbit_sample(cd, h, seed=16, count=6)
    stack = sp.gradient_at(hc, x.reshape(2, 3, -1), h).reshape(6, -1)
    for x_i, y_i in zip(x, stack):
        single = sp.gradient_at(hc, x_i, h)
        assert np.linalg.norm(y_i - single) <= 1e-14 * np.linalg.norm(single)


def test_lagrangian_sections(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=10, count=10)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert sp.lagrangian_section(hc, h, flag, t)[1] < 1e-6


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_section_t_array_matches_scalar_calls(fixture, request):
    # a t array is the scalar calls stacked, t axis first, bit for bit; a scalar
    # t gives a 0-d residual
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=10, count=7)
    t_values = [0.0, 0.5, -1.25, 2.0]
    points, resids = sp.lagrangian_section(hc, h, flag, np.array(t_values))
    assert points.shape == (4, 7, cd.alg.dim) and resids.shape == (4,)
    for t, p_t, r_t in zip(t_values, points, resids):
        single_points, single = sp.lagrangian_section(hc, h, flag, t)
        assert np.array_equal(p_t, single_points)
        assert single.shape == () and r_t == single


@pytest.mark.parametrize("count", [255, 256, 257, 600])
def test_section_blocks_match_one_call(sl3c, count):
    # blocks of _SECTION_BLOCK points give the bits of one call over every point,
    # x + t J Y(x) with the gradient of the whole stack at once, as the reference
    cd, hc = sl3c
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=1, count=count)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    ref = flag + t[:, None, None] * (sp.gradient_at(hc, flag, h) @ cd.alg.j_op.T)
    assert np.array_equal(sp.lagrangian_section(hc, h, flag, t)[0], ref)


def test_section_memory_does_not_grow_with_points(sl2c):
    # the section is formed block by block into its result: the traced peak stays
    # under twice the result (a one-call section peaks at three times it here)
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=1, count=10_000)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    tracemalloc.start()
    try:
        points, _ = sp.lagrangian_section(hc, h, flag, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * points.nbytes


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_section_omega_residual_at_roundoff(fixture, seed, request):
    # exact tangents: the section is Lagrangian up to the roundoff of the tangents
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=seed, count=50)
    _, resids = sp.lagrangian_section(hc, h, flag, np.array([0.0, 0.5, 1.0, 2.0]))
    assert resids.max() < 1e-12


def _section_differences(hc, n_vec, x, t):
    """Central differences of sigma_t along the compact flows Ad(exp(+-h A)), h = _FD_STEP.

    The reference for the exact section tangents: a scalar t or a (n_t,)
    array gives a (b, dim, dim k) or (n_t, b, dim, dim k) stack, columns
    ordered like the compact basis.
    """
    xs = hc.cd.alg.conjugate(sp._compact_flows(hc.cd), x)  # (2, dim k, b, dim)
    t = np.asarray(t, dtype=float)[..., None, None, None, None]
    sig = xs + t * (sp.gradient_at(hc, xs, n_vec) @ hc.cd.alg.j_op.T)
    return np.moveaxis((sig[..., 0, :, :, :] - sig[..., 1, :, :, :]) / (2 * sp._FD_STEP), -3, -1)


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_section_tangents_match_finite_differences(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    x = al.flag_orbit_sample(cd, h, seed=10, count=5)
    t_values = np.array([0.0, 0.5, 1.0, 2.0])
    y, exact = sp._section_tangents(hc, h, x, t_values)
    assert np.array_equal(y, sp.gradient_at(hc, x, h))
    assert exact.shape == (4, 5, cd.alg.dim, cd.k_basis.shape[1])
    assert np.abs(exact - _section_differences(hc, h, x, t_values)).max() < 1e-6


@pytest.mark.parametrize("fixture,block", [("sl2c", 3), ("sl3c", 4), ("sl2c", None)])
def test_section_blocks_match_one_block(fixture, block, request, monkeypatch):
    # blocks of base points give the bits of one unblocked call; n spans at
    # least two blocks, the last one partial (None: the module's own block)
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    block = block or sp._SECTION_BLOCK
    x = al.flag_orbit_sample(cd, h, seed=12, count=2 * block + 1)
    t_values = np.array([0.0, 0.5, 1.0, 2.0])
    starts = range(0, x.shape[0], block)
    blocks = [sp._section_tangents(hc, h, x[s:s + block], t_values)[1] for s in starts]
    assert len(blocks) == 3
    assert np.array_equal(np.concatenate(blocks, axis=1), sp._section_tangents(hc, h, x, t_values)[1])
    monkeypatch.setattr(sp, "_SECTION_BLOCK", block)
    points, resids = sp.lagrangian_section(hc, h, x, t_values)
    monkeypatch.setattr(sp, "_SECTION_BLOCK", x.shape[0])
    one_points, one_resids = sp.lagrangian_section(hc, h, x, t_values)
    assert np.array_equal(points, one_points) and np.array_equal(resids, one_resids)


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_section_tangent_formula_rejects_wrong_gradient(fixture, request, monkeypatch):
    # a smooth field that is not the projected gradient breaks the tangent
    # formula, and the section residual, which reads the formula, shows it.
    # The value is read off each point's tangent space, not off its basis: a
    # random orthogonal change of every tangent basis leaves it in place
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    x = al.flag_orbit_sample(cd, h, seed=1, count=10)

    def gap():
        return np.abs(sp._section_tangents(hc, h, x, 1.0)[1] - _section_differences(hc, h, x, 1.0)).max()

    assert gap() < 1e-6
    m = np.random.default_rng(1).standard_normal((cd.alg.dim, cd.alg.dim))
    monkeypatch.setattr(sp, "gradient_at", lambda ctx, x, n_vec: np.broadcast_to(
        x @ m.T, np.broadcast_shapes(np.shape(n_vec), x.shape)))
    assert gap() > 1e-2
    resid = sp.lagrangian_section(hc, h, x, 1.0)[1]
    assert resid > 1e-2
    rng, span_basis = np.random.default_rng(2), sd.span_basis

    def rotated(cd, v):
        basis = span_basis(cd, v)
        rank = basis.shape[-1]
        return basis @ np.linalg.qr(rng.standard_normal((*basis.shape[:-2], rank, rank)))[0]

    monkeypatch.setattr(sd, "span_basis", rotated)
    assert sp.lagrangian_section(hc, h, x, 1.0)[1] == pytest.approx(resid, rel=1e-12)


def test_gradient_hamiltonian_residual(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    flag = al.flag_orbit_sample(cd, h, seed=11, count=10)
    assert sp.gradient_hamiltonian_residual(hc, h, flag) < 1e-6


def test_pullback_identity_at_r1(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    samples = df.sample_deformed_orbit(cd, h, seed=12, n_base=5, n_fiber=2)
    n_plus, _, _ = al.h_subspaces(cd, h)
    assert sp.pullback_check(hc, 1.0, samples, n_plus) < 1e-12


def _fd_pullback_check(hc, r, samples, fiber_dirs, draws, step=1e-5):
    # reference: the finite-difference pullback_check the exact tangents replaced;
    # it conjugates the fiber draws X_c itself, not the batch's stored Ad(k)X_c
    cd = hc.cd
    ctx1, ctxr = df.make_context(cd, 1.0), df.make_context(cd, r)
    worst = 0.0
    conjugate = cd.alg.conjugate
    for b, f in np.ndindex(samples.points.shape[:2]):
        k, fiber = samples.k[b], draws[f]
        h_amb = conjugate(k.conj().T, samples.base_points[b])
        curves = []
        for a in cd.k_basis.T:
            m = cd.alg.to_matrix(a)
            flow, flow_m = matrix_exp(step * m), matrix_exp(-step * m)
            curves.append((flow @ k, fiber, flow_m @ k, fiber))
        for d in fiber_dirs.T:
            curves.append((k, fiber + step * d, k, fiber - step * d))
        vs, vrs = [], []
        for k_p, f_p, k_m, f_m in curves:
            for ctx, out in ((ctx1, vs), (ctxr, vrs)):
                pt_p = conjugate(k_p, h_amb) + np.diag(ctx.psi_r) @ conjugate(k_p, f_p)
                pt_m = conjugate(k_m, h_amb) + np.diag(ctx.psi_r) @ conjugate(k_m, f_m)
                out.append((pt_p - pt_m) / (2 * step))
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                worst = max(worst, abs(bilinear(vrs[a], hc.omega, vrs[b])
                                       - bilinear(vs[a], hc.omega, vs[b])))
    return worst


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_pullback_exact_tangents_match_finite_differences(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    samples = df.sample_deformed_orbit(cd, h, seed=17, n_base=4, n_fiber=2)
    draws = fiber_draws(cd, h, seed=17, n_fiber=2)
    n_plus, _, _ = al.h_subspaces(cd, h)
    # with 10 n_plus the pairs involving a fiber direction carry the maximum
    for fiber_dirs, r in itertools.product((n_plus, 10 * n_plus), (1.0, 2.0, 10.0, math.inf)):
        exact = sp.pullback_check(hc, r, samples, fiber_dirs)
        reference = _fd_pullback_check(hc, r, samples, fiber_dirs, draws)
        if r == 1.0:
            assert exact < 1e-12 and reference < 1e-12
        else:
            assert abs(exact - reference) <= 1e-6 * reference, (r, exact, reference)


def test_pullback_fiber_scaling(sl2c):
    # the deformation rescales Omega on fiber pairs by 1 - q^2, q = (r-1)/(r+1)
    cd, hc = sl2c
    e12 = cd.alg.to_vector(np.array([[0, 1], [0, 0]], dtype=complex))
    ie12 = hc.cd.alg.j_op @ e12
    base = bilinear(e12, hc.omega, ie12)
    assert abs(base - 8.0) < 1e-9
    for r in (2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        q = (r - 1.0) / (r + 1.0)
        scaled = bilinear(np.diag(ctx.psi_r) @ e12, hc.omega, np.diag(ctx.psi_r) @ ie12)
        assert abs(scaled - (1 - q * q) * base) < 1e-9


def test_hamiltonian_q(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(13)
    zero_flow, zero_sym = sp.hamiltonian_q_check(hc, np.zeros(6), 0)
    assert zero_flow < 1e-12 and zero_sym < 1e-12
    a = cd.k_basis @ rng.standard_normal(3)
    flow, sym = sp.hamiltonian_q_check(hc, a, 14)
    assert flow < 1e-6 and sym < 1e-10
    with pytest.raises(al.DomainError):
        sp.hamiltonian_q_check(hc, cd.s_basis[:, 0], 0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hamiltonian_q_rejects_a_non_finite_generator(sl2c, value):
    # a NaN s-part fails the comparison, so the guard let it through to (nan, nan)
    _, hc = sl2c
    with pytest.raises(al.DomainError):
        sp.hamiltonian_q_check(hc, np.full(6, value), 0)


def test_u_moment_values(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    assert np.linalg.norm(sp.u_moment(hc, h)) < 1e-12
    e12 = cd.alg.to_vector(np.array([[0, 1], [0, 0]], dtype=complex))
    m = sp.u_moment(hc, e12)
    # [tau E12, E12] = [-E21, E12] = -diag(1,-1); times -i lands in u
    assert np.linalg.norm(m) > 1e-2
    assert np.linalg.norm(cd.project_s(m)) < 1e-10


def test_u_moment_vanishes_on_normal_matrices(sl3c):
    cd, hc = sl3c
    rng = np.random.default_rng(15)
    for _ in range(50):
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d -= d.mean()
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal(3)
        q_mat, _ = np.linalg.qr(a)
        x = cd.alg.to_vector(q_mat @ np.diag(d) @ q_mat.conj().T)
        assert np.linalg.norm(sp.u_moment(hc, x)) < 1e-9


def compact_isotropy_dim(cd, x):
    """dim of {A in u : [A, x] = 0}, at one point or at each of a (..., dim) stack."""
    return cd.k_basis.shape[1] - rank(sd.tangent_columns(cd, x))


def unique_isotropic_orbit_check(hc, h, seed):
    """Certify that the flag is the only isotropic compact orbit.

    (a) the flag through H is Lagrangian: half the adjoint-orbit
    dimension with vanishing Omega; (b) moving into the fiber, at 20
    random points of n_H^+, strictly lowers the compact isotropy
    dimension, so those orbits are too large to be isotropic; (c) their
    moment values are nonzero.  The reference of these tests and of
    acceptance criterion 10.
    """
    cd = hc.cd
    h = np.asarray(h, dtype=float)
    flag_dim = int(rank(sd.tangent_columns(cd, h)))
    adjoint_dim = int(rank(cd.alg.ad(h)))
    flag = al.flag_orbit_sample(cd, h, seed, 25)
    max_flag_omega = float(sp.max_omega(hc, sp.orbit_tangent_basis(hc, flag, "flag")).max())
    n_plus, _, _ = al.h_subspaces(cd, h)
    coeffs = np.random.default_rng(seed).standard_normal((20, n_plus.shape[1]))
    moved = h + apply(n_plus, coeffs)
    moments = np.linalg.norm(sp.u_moment(hc, moved), axis=-1)
    return {
        "flag_dim": flag_dim,
        "adjoint_dim": adjoint_dim,
        "lagrangian": 2 * flag_dim == adjoint_dim,
        "max_flag_omega": max_flag_omega,
        "isotropy_drops": bool(
            (compact_isotropy_dim(cd, moved) < compact_isotropy_dim(cd, h)).all()
        ),
        "min_moment_norm": float(moments.min()),
    }


def test_unique_isotropic_orbit_sl2c(sl2c):
    cd, hc = sl2c
    report = unique_isotropic_orbit_check(hc, al.chamber_element(cd, "regular"), seed=16)
    assert report["flag_dim"] == 2 and report["adjoint_dim"] == 4
    assert report["lagrangian"]
    assert report["max_flag_omega"] < 1e-8
    assert report["isotropy_drops"]
    assert report["min_moment_norm"] > 1e-2


def test_unique_isotropic_orbit_sl3c(sl3c):
    cd, hc = sl3c
    report = unique_isotropic_orbit_check(hc, al.chamber_element(cd, "regular"), seed=16)
    assert report["flag_dim"] == 6 and report["adjoint_dim"] == 12
    assert report["lagrangian"]
    assert report["isotropy_drops"]


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_adjoint_and_deformed_tangents(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    adjoint = df.sample_deformed_orbit(cd, h, seed=9, n_base=4, n_fiber=2)
    assert (adjoint.kind, adjoint.r) == ("deformed", 1.0)
    t_adj = sp.orbit_tangent_basis(hc, adjoint.points, adjoint.kind, adjoint.r)
    # at r = 1 the deformed tangents are the adjoint orbit's ad(g).x, bit for bit
    assert np.array_equal(t_adj, sd.span_basis(cd, -cd.alg.ad(adjoint.points)))
    # and the flag tangents are semidirect.orbit_tangent_at's, bit for bit
    flag = al.flag_orbit_sample(cd, h, seed=9, count=4)
    assert np.array_equal(sp.orbit_tangent_basis(hc, flag, "flag"), sd.orbit_tangent_at(cd, flag))
    adjoint_dim = t_adj.shape[-1]
    assert adjoint_dim == cd.alg.dim - al.h_subspaces(cd, h)[2].shape[1]
    for r in (2.0, 10.0):
        batch = df.tilde_psi_r(df.make_context(cd, r), adjoint)
        assert batch.kind == "deformed"
        tangents = sp.orbit_tangent_basis(hc, batch.points, batch.kind, batch.r)
        assert tangents.shape == (4, 2, cd.alg.dim, adjoint_dim)


# ---- the stacked kernels against the per-sample loops they replaced --------


def _loop_tangent_basis(hc, x, kind, r):
    # reference: the per-point orbit_tangent_basis that read one OrbitSample view,
    # made B_theta-orthonormal
    cd = hc.cd
    if kind == "flag":
        cols = -cd.alg.ad(x) @ cd.k_basis
    elif kind == "semidirect":
        w = cd.s_basis @ (cd.s_basis.T @ x)
        cols = np.hstack([-cd.alg.ad(x) @ cd.k_basis, sp.fiber_tangent_at(cd, w)])
    else:
        cols = -df.ad_r(df.make_context(cd, r), x)
    return sd.span_basis(cd, cols)


def _batches(cd, seed):
    # one batch per orbit kind, as (points, kind, r)
    h = al.chamber_element(cd, "regular")
    # the flag points as a (6, 1, dim) batch of one fiber each
    out = [(al.flag_orbit_sample(cd, h, seed, 6)[:, None], "flag", math.inf)]
    adjoint = df.sample_deformed_orbit(cd, h, seed, 5, 3)
    for r in (1.0, 2.0, math.inf):
        batch = df.tilde_psi_r(df.make_context(cd, r), adjoint)
        # at r = inf the batch is "deformed", the label of its fiber format Ad(k)X;
        # its points are on the semidirect orbit
        out.append((batch.points, "semidirect" if math.isinf(r) else batch.kind, batch.r))
    return out


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_orbit_tangent_basis_matches_per_point_loop(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    kinds = set()
    for points, kind, r in _batches(cd, seed=18):
        kinds.add(kind)
        stack = sp.orbit_tangent_basis(hc, points, kind, r)
        for b, f in np.ndindex(points.shape[:2]):
            single = _loop_tangent_basis(hc, points[b, f], kind, r)
            assert stack[b, f].shape == single.shape
            proj, ref = stack[b, f] @ stack[b, f].T, single @ single.T
            assert np.linalg.norm(proj - ref) <= 1e-14 * np.linalg.norm(ref), (kind, b, f)
    assert kinds == {"flag", "deformed", "semidirect"}


def test_orbit_tangent_basis_mixed_ranks_raise(sl2c):
    cd, hc = sl2c
    h = al.chamber_element(cd, "regular")
    with pytest.raises(StructureError):
        sp.orbit_tangent_basis(hc, np.stack([h, np.zeros_like(h)]), "flag")


def _loop_certificate(hc, samples, kind):
    # reference: the per-sample check_symplectic_on_orbit with restrict_form's Gram matrix
    cd = hc.cd
    min_ratio, max_fiber_omega, maximal, dims = math.inf, 0.0, True, set()
    for b, f in np.ndindex(samples.points.shape[:2]):
        x = samples.points[b, f]
        t = _loop_tangent_basis(hc, x, kind, samples.r)
        gram = sp.make_skew_form(t.T @ hc.omega @ t)
        s = np.linalg.svd(gram, compute_uv=False)
        min_ratio = min(min_ratio, float(s[-1] / s[0]))
        fib = sp.fiber_tangent_at(cd, cd.s_basis @ (cd.s_basis.T @ x))
        if fib.shape[1]:
            # the spectral norm: max |Omega(u, v)| over unit vectors of the fiber
            max_fiber_omega = max(
                max_fiber_omega, float(np.linalg.norm(fib.T @ hc.omega @ fib, 2))
            )
        maximal = maximal and (2 * fib.shape[1] == t.shape[1])
        dims.add(t.shape[1])
    return {
        "min_sv_ratio": min_ratio,
        "max_fiber_omega": max_fiber_omega,
        "fiber_maximal_isotropic": maximal,
        "tangent_dims": sorted(dims),
        "full_rank": min_ratio > 1e-8,
    }


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
@pytest.mark.parametrize("seed", [1, 7, 4242])
def test_symplectic_certificate_matches_per_sample_loop(fixture, seed, request):
    cd, hc = request.getfixturevalue(fixture)
    samples = df.tilde_psi_r(df.make_context(cd, math.inf), df.sample_deformed_orbit(
        cd, al.chamber_element(cd, "regular"), seed, n_base=25, n_fiber=3))
    report = sp.check_symplectic_on_orbit(hc, samples)
    assert report == _loop_certificate(hc, samples, "semidirect")


@pytest.mark.parametrize("seed", [1, 4242])
def test_symplectic_certificate_is_k_invariant(sl3c, seed):
    # B_theta and Omega are Ad(K)-invariant, so the samples Ad(k) y of one fiber draw y
    # read y's singular-value ratio; in Euclidean coefficient bases it spread by up to 0.86
    cd, hc = sl3c
    samples = df.tilde_psi_r(df.make_context(cd, math.inf),
                             df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"), seed, 25, 3))
    t = sp.orbit_tangent_basis(hc, samples.points, "semidirect")
    s = np.linalg.svd(sp.make_skew_form(np.swapaxes(t, -1, -2) @ hc.omega @ t), compute_uv=False)
    ratio = s[..., -1] / s[..., 0]  # (n_base, n_fiber)
    assert np.ptp(ratio, axis=0).max() <= 1e-13
    assert sp.check_symplectic_on_orbit(hc, samples)["min_sv_ratio"] == ratio.min()


def _loop_pullback_check(hc, r, samples, fiber_dirs, draws):
    # reference: the per-sample pullback_check, conjugating the fiber draws X_c itself
    cd = hc.cd
    psi = np.diag(df.make_context(cd, r).psi_r)
    gram = hc.omega
    no_base = np.zeros((cd.alg.dim, fiber_dirs.shape[1]))
    worst = 0.0
    for b, f in np.ndindex(samples.points.shape[:2]):
        k = samples.k[b]
        h = np.hstack([-cd.alg.ad(samples.base_points[b]) @ cd.k_basis, no_base])
        moved = cd.alg.conjugate(k, draws[f])
        x = np.hstack([-cd.alg.ad(moved) @ cd.k_basis, cd.alg.conjugate(k, fiber_dirs.T).T])
        v, v_r = h + x, h + psi @ x
        diff = v_r.T @ gram @ v_r - v.T @ gram @ v
        worst = max(worst, float(np.max(np.abs(np.triu(diff, 1)))))
    return worst


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_pullback_check_matches_per_sample_loop(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = al.chamber_element(cd, "regular")
    samples = df.sample_deformed_orbit(cd, h, seed=19, n_base=6, n_fiber=3)
    draws = fiber_draws(cd, h, seed=19, n_fiber=3)
    n_plus, _, _ = al.h_subspaces(cd, h)
    for fiber_dirs, r in itertools.product((n_plus, 10 * n_plus), (2.0, 10.0, math.inf)):
        stacked = sp.pullback_check(hc, r, samples, fiber_dirs)
        reference = _loop_pullback_check(hc, r, samples, fiber_dirs, draws)
        assert abs(stacked - reference) <= 1e-14 * reference, (r, stacked, reference)


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_u_moment_stack_matches_single(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    x = np.random.default_rng(20).standard_normal((4, 3, cd.alg.dim))
    stack = sp.u_moment(hc, x)
    for b, f in np.ndindex(4, 3):
        single = -cd.alg.j_op @ cd.alg.bracket(np.diag(cd.signs) @ x[b, f], x[b, f])
        assert np.linalg.norm(stack[b, f] - single) <= 1e-14 * np.linalg.norm(single)


def test_u_moment_rejects_a_stack_with_one_bad_point(sl2c):
    # without the factor -i the value [tau x, x] lies in s, so E12 escapes u and 0 does not
    cd, hc = sl2c
    no_i = sp.HermitianContext(cd=replace(cd, alg=replace(cd.alg, j_op=-np.eye(6))), omega=hc.omega)
    e12 = cd.alg.to_vector(np.array([[0, 1], [0, 0]], dtype=complex))
    sp.u_moment(no_i, np.zeros((2, 6)))
    with pytest.raises(al.DomainError):
        sp.u_moment(no_i, np.stack([np.zeros(6), e12]))


@pytest.mark.parametrize("value", [np.nan, 1e200])
def test_u_moment_rejects_a_non_finite_moment(sl2c, value):
    # a NaN moment fails the s-part comparison, so the guard let it through; at 1e200
    # the bracket overflows and inf - inf gives NaN (errstate: the overflow is the input's)
    cd, hc = sl2c
    x = np.stack([np.zeros(cd.alg.dim), np.full(cd.alg.dim, value)])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(al.DomainError):
        sp.u_moment(hc, x)


# the three guards that require an element of k, each as a function of that element;
# u_moment's moment is made x by its apply, which applies J to the bracket
_K_GUARDS = {
    "ad_r_exp_orbit": lambda cd, hc, x: df.ad_r_exp_orbit(df.make_context(cd, 2.0), x, 1.0,
                                                          np.ones(cd.alg.dim)),
    "hamiltonian_q_check": lambda cd, hc, x: sp.hamiltonian_q_check(hc, x, 0),
    "u_moment": lambda cd, hc, x: sp.u_moment(hc, np.zeros(cd.alg.dim)),
}
_CUT = cutoff(1.0)


@pytest.mark.parametrize("s_part,accepted", [
    (np.nan, False), (np.inf, False), (1.0, False), (2 * _CUT, False), (0.5 * _CUT, True),
    (1e-12, True),
], ids=["nan", "inf", "s=1", "s=2cutoff", "s=cutoff/2", "s=1e-12"])
@pytest.mark.parametrize("guard", sorted(_K_GUARDS))
def test_k_guards_read_the_one_rule(sl2c, monkeypatch, guard, s_part, accepted):
    # x = e + s_part f, e in k and f in s unit coordinates, lies in k exactly when it is
    # finite and |s_part f| <= cutoff(|x|); NaN and inf are put in the k coordinate
    cd, hc = sl2c
    k_unit, s_unit = cd.k_basis[:, 0], cd.s_basis[:, 0]
    x = k_unit + s_part * s_unit if np.isfinite(s_part) else np.where(k_unit != 0, s_part, 0.0)
    if guard == "u_moment":
        monkeypatch.setattr(sp, "apply", lambda op, v: -x)
    if accepted:
        _K_GUARDS[guard](cd, hc, x)
    else:
        with pytest.raises(al.DomainError, match="must be finite and lie in the compact part k"):
            _K_GUARDS[guard](cd, hc, x)


@pytest.mark.parametrize("guard", ["require_k", "ad_r_exp_orbit", "hamiltonian_q_check"])
def test_k_guards_refuse_an_overflowing_norm(sl2c, guard):
    # 1e200 e, e in k, has finite entries, but its squared norm overflows: the norm is
    # inf and refused before any other product, not an overflow warning (an error here)
    cd, hc = sl2c
    calls = {"require_k": lambda cd, hc, x: cd.require_k(x, "element"), **_K_GUARDS}
    with pytest.raises(al.DomainError, match="must be finite and lie in the compact part k"):
        calls[guard](cd, hc, 1e200 * cd.k_basis[:, 0])


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_isotropy_criterion_zero_sees_flag_points(fixture, request, monkeypatch):
    # mu = 0 on the flag points, so the zero half measures Omega on their compact orbits
    cd, _ = request.getfixturevalue(fixture)
    results = {c.name: c for c in checks.symplectic_suite(cd, al.chamber_element(cd, "regular"),
                                                          seed=1)}
    assert results["isotropy_criterion_zero"].residual < 1e-8
    assert results["isotropy_criterion_nonzero"].passed
    # the residual can be exactly 0, so show the flag points are read: a restriction
    # of Omega that is 1 everywhere must fail the zero half
    monkeypatch.setattr(sp, "max_omega", lambda ctx, t: np.ones(t.shape[:-2]))
    results = {c.name: c for c in checks.symplectic_suite(cd, al.chamber_element(cd, "regular"),
                                                          seed=1)}
    assert not results["isotropy_criterion_zero"].passed


def _greedy_max_isotropic(form):
    # reference: the greedy extension the closed form replaced, two SVDs per added vector
    w = nullspace(form)
    while True:
        perp = nullspace(w.T @ form)
        cand = orthonormal_range(perp - w @ (w.T @ perp))
        if cand.shape[1] == 0:
            return w
        w = np.hstack([w, cand[:, :1]])


def _skew_forms(rng, count):
    # random low-rank forms, forms with repeated eigenvalues, and zero forms
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for i in range(count):
        d = int(rng.integers(2, 11))
        if i % 3 == 0:
            k = int(rng.integers(0, d + 1))
            p = rng.standard_normal((d, k))
            g = p @ rng.standard_normal((k, k)) @ p.T
            yield sp.make_skew_form(g - g.T)
        elif i % 3 == 1:
            pairs = d // 2
            blocks = np.kron(np.diag(rng.integers(0, 3, pairs).astype(float)), j2)
            g = np.zeros((d, d))
            g[: 2 * pairs, : 2 * pairs] = blocks
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            yield sp.make_skew_form(q @ g @ q.T)
        else:
            yield sp.make_skew_form(np.zeros((d, d)))


def test_max_isotropic_matches_greedy_reference():
    for form in _skew_forms(np.random.default_rng(21), 300):
        w, rad = sp.max_isotropic(form), nullspace(form)
        assert w.shape[1] == _greedy_max_isotropic(form).shape[1]
        scale = max(np.abs(form).max(), 1.0)
        assert np.abs(w.T @ form @ w).max(initial=0.0) <= 1e-13 * scale
        assert np.linalg.norm(w.T @ w - np.eye(w.shape[1])) <= 1e-12
        assert np.linalg.norm(rad - w @ (w.T @ rad)) <= 1e-12


@st.composite
def _integer_skew_forms(draw):
    d = draw(st.integers(1, 10))
    upper = draw(st.lists(st.integers(-5, 5), min_size=d * (d - 1) // 2,
                          max_size=d * (d - 1) // 2))
    gram = np.zeros((d, d))
    gram[np.triu_indices(d, 1)] = upper
    return sp.make_skew_form(gram - gram.T)


@settings(derandomize=True, deadline=None, database=None)
@given(_integer_skew_forms())
def test_max_isotropic_property(form):
    d = form.shape[-1]
    w, rad = sp.max_isotropic(form), nullspace(form)
    assert 2 * w.shape[1] == d + rad.shape[1]
    scale = max(np.abs(form).max(initial=0.0), 1.0)
    assert np.abs(w.T @ form @ w).max(initial=0.0) <= 1e-12 * scale
    # W contains the radical: projecting R onto span(W) loses nothing
    coeffs, *_ = np.linalg.lstsq(w, rad, rcond=None)
    assert np.linalg.norm(w @ coeffs - rad) <= 1e-10


def test_skew_value_stack_matches_single(sl3c):
    _, hc = sl3c
    x, y = np.random.default_rng(8).standard_normal((2, 6, 5, hc.omega.shape[-1]))
    got = bilinear(x, hc.omega, y)
    assert got.shape == (6, 5)
    assert np.array_equal(got, [[bilinear(a, hc.omega, b) for a, b in zip(xs, ys)]
                                for xs, ys in zip(x, y)])
    assert isinstance(bilinear(x[0, 0], hc.omega, y[0, 0]), float)


def test_max_isotropic_stack_matches_single_forms():
    # random low-rank forms, forms with repeated eigenvalues and zero forms, stacked by size
    by_size = {}
    for form in _skew_forms(np.random.default_rng(22), 150):
        by_size.setdefault(form.shape[-1], []).append(form)
    assert all(len(grams) > 1 for grams in by_size.values())
    for d, grams in by_size.items():
        stack = sp.make_skew_form(np.stack(grams))
        bases = sp.max_isotropic(stack)
        assert isinstance(bases, list) and len(bases) == len(grams)
        for w, gram in zip(bases, grams):
            single = sp.max_isotropic(sp.make_skew_form(gram))
            assert np.array_equal(w, single)
            assert 2 * w.shape[1] == d + nullspace(sp.make_skew_form(gram)).shape[1]
