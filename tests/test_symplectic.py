import itertools
import math

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform import symplectic as sp
from orbitdeform.checks import _proj_residual
from orbitdeform.numerics import matrix_exp


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


def test_hermitian_form_h_value(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    # complex Killing of sl(2,C) is 4 tr(XY); H = diag(1,-1) gives 8
    val = sp.hermitian_form(hc, h, h)
    assert abs(val - 8.0) < 1e-10


def test_hermitian_form_positive_and_sesquilinear(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        hxx = sp.hermitian_form(hc, x, x)
        assert abs(hxx.imag) < 1e-10 and hxx.real > 0
        assert abs(sp.hermitian_form(hc, hc.j @ x, y) - 1j * sp.hermitian_form(hc, x, y)) < 1e-10
        assert abs(sp.hermitian_form(hc, x, hc.j @ y) + 1j * sp.hermitian_form(hc, x, y)) < 1e-10


def test_b_tau_identities(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        # B_tau = 2 Re H_tau and is J-invariant
        assert abs(x @ hc.b_tau @ y - 2 * sp.hermitian_form(hc, x, y).real) < 1e-10
        assert abs((hc.j @ x) @ hc.b_tau @ (hc.j @ y) - x @ hc.b_tau @ y) < 1e-10


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
        assert abs(sp.hermitian_form(hc, x, y) - killing_c) < 1e-9


def test_omega_alternating_and_u_isotropic(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(6)
        assert abs(hc.omega.value(x, x)) < 1e-12
    ku = cd.k_basis
    assert np.max(np.abs(ku.T @ hc.omega.gram @ ku)) < 1e-12
    su = cd.s_basis
    assert np.max(np.abs(su.T @ hc.omega.gram @ su)) < 1e-12


def test_omega_ad_u_invariance(sl2c):
    cd, hc = sl2c
    rng = np.random.default_rng(4)
    from orbitdeform.numerics import matrix_exp

    for _ in range(10):
        a = cd.k_basis @ rng.standard_normal(3)
        ad_k = matrix_exp(cd.alg.ad(a))
        assert np.max(np.abs(ad_k.T @ hc.omega.gram @ ad_k - hc.omega.gram)) < 1e-8


def test_restrict_form_one_dim_is_zero(sl2c):
    _, hc = sl2c
    sub = np.zeros((6, 1))
    sub[0, 0] = 1.0
    assert np.allclose(sp.restrict_form(hc.omega, sub).gram, 0.0)


def test_restrict_form_rejects_dependent_basis(sl2c):
    _, hc = sl2c
    sub = np.ones((6, 2))
    with pytest.raises(Exception):
        sp.restrict_form(hc.omega, sub)


def test_radical_cases():
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    std4 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), j2]])
    assert sp.radical(sp.make_skew_form(std4)).shape[1] == 0
    assert sp.radical(sp.make_skew_form(np.zeros((4, 4)))).shape[1] == 4
    rank2 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
    assert sp.radical(sp.make_skew_form(rank2)).shape[1] == 2


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
        rad = sp.radical(form)
        w = sp.max_isotropic(form)
        assert 2 * w.shape[1] == d + rad.shape[1]
        if w.size:
            assert np.max(np.abs(w.T @ form.gram @ w)) < 1e-8


def test_orbit_tangent_dimensions(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    flag = al.flag_orbit_sample(cd, h, seed=6, count=5)
    for p in flag:
        assert sp.orbit_tangent_basis(hc, p, "flag").shape[1] == 2
    ctx = df.make_context(cd, math.inf)
    for p in df.sample_deformed_orbit(ctx, h, seed=6, n_base=5, n_fiber=2):
        assert sp.orbit_tangent_basis(hc, p, "semidirect").shape[1] == 4
    zero = al.OrbitSample(
        point=np.zeros(6), kind="flag", base_point=np.zeros(6), k_op=np.eye(6),
        fiber=np.zeros(6), fiber_coeffs=np.zeros(0),
    )
    assert sp.orbit_tangent_basis(hc, zero, "flag").shape[1] == 0


def test_symplectic_certificate_sl2c(sl2c):
    cd, hc = sl2c
    ctx = df.make_context(cd, math.inf)
    samples = df.sample_deformed_orbit(ctx, cd.chamber_H, seed=7, n_base=25, n_fiber=4)
    report = sp.check_symplectic_on_orbit(hc, samples, "semidirect")
    assert report["full_rank"]
    assert report["max_fiber_omega"] < 1e-10
    assert report["fiber_maximal_isotropic"]
    assert report["tangent_dims"] == [4]


def test_symplectic_certificate_sl3c(sl3c):
    cd, hc = sl3c
    ctx = df.make_context(cd, math.inf)
    samples = df.sample_deformed_orbit(ctx, cd.chamber_H, seed=7, n_base=20, n_fiber=3)
    report = sp.check_symplectic_on_orbit(hc, samples, "semidirect")
    assert report["full_rank"]
    assert report["tangent_dims"] == [12]  # 2 |positive roots| over C


def test_gradient_field_consistency(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    flag = al.flag_orbit_sample(cd, h, seed=8, count=10)
    step = 1e-6
    from orbitdeform.numerics import matrix_exp

    for p in flag:
        x = p.point
        y = sp.gradient_at(hc, x, h)
        for i in range(cd.k_basis.shape[1]):
            a = cd.k_basis[:, i]
            xp = matrix_exp(step * cd.alg.ad(a)) @ x
            xm = matrix_exp(-step * cd.alg.ad(a)) @ x
            d_f = ((xp @ hc.b_tau @ h) - (xm @ hc.b_tau @ h)) / (2 * step)
            v = (xp - xm) / (2 * step)
            assert abs(d_f - float(y @ hc.b_tau @ v)) < 1e-6


def test_gradient_vanishes_at_poles(sl2c):
    # the height function along H has critical points exactly at +-H
    cd, hc = sl2c
    h = cd.chamber_H
    assert np.linalg.norm(sp.gradient_at(hc, h, h)) < 1e-10
    assert np.linalg.norm(sp.gradient_at(hc, -h, h)) < 1e-10
    flag = al.flag_orbit_sample(cd, h, seed=9, count=20)
    away = [p.point for p in flag if min(np.linalg.norm(p.point - h), np.linalg.norm(p.point + h)) > 0.3]
    assert any(np.linalg.norm(sp.gradient_at(hc, x, h)) > 1e-3 for x in away)


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_gradient_stack_matches_single(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = cd.chamber_H
    x = al.flag_orbit_sample(cd, h, seed=16, count=6).base_points
    stack = sp.gradient_at(hc, x.reshape(2, 3, -1), h).reshape(6, -1)
    for x_i, y_i in zip(x, stack):
        single = sp.gradient_at(hc, x_i, h)
        assert np.linalg.norm(y_i - single) <= 1e-14 * np.linalg.norm(single)


def test_lagrangian_sections(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    flag = al.flag_orbit_sample(cd, h, seed=10, count=10)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert sp.section_omega_residual(hc, h, flag, t) < 1e-6


def test_section_tangent_formula_crosscheck(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    flag = al.flag_orbit_sample(cd, h, seed=10, count=5)
    assert sp.section_tangent_formula_residual(hc, h, flag, 1.0) < 1e-6


def test_gradient_hamiltonian_residual(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    flag = al.flag_orbit_sample(cd, h, seed=11, count=10)
    assert sp.gradient_hamiltonian_residual(hc, h, flag) < 1e-6


def test_pullback_identity_at_r1(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    ctx1 = df.make_context(cd, 1.0)
    samples = df.sample_deformed_orbit(ctx1, h, seed=12, n_base=5, n_fiber=2)
    n_plus, _, _ = al.h_subspaces(cd, h)
    assert sp.pullback_check(hc, 1.0, samples, n_plus) < 1e-12


def _fd_pullback_check(hc, r, samples, fiber_dirs, step=1e-5):
    # reference: the finite-difference pullback_check the exact tangents replaced
    cd = hc.cd
    ctx1, ctxr = df.make_context(cd, 1.0), df.make_context(cd, r)
    worst = 0.0
    for p in samples:
        h_amb = np.linalg.solve(p.k_op, p.base_point)
        curves = []
        for a in cd.k_basis.T:
            flow, flow_m = matrix_exp(step * cd.alg.ad(a)), matrix_exp(-step * cd.alg.ad(a))
            curves.append((flow @ p.k_op, p.fiber, flow_m @ p.k_op, p.fiber))
        for d in fiber_dirs.T:
            curves.append((p.k_op, p.fiber + step * d, p.k_op, p.fiber - step * d))
        vs, vrs = [], []
        for k_p, f_p, k_m, f_m in curves:
            for ctx, out in ((ctx1, vs), (ctxr, vrs)):
                pt_p = k_p @ h_amb + ctx.psi_r @ (k_p @ f_p)
                pt_m = k_m @ h_amb + ctx.psi_r @ (k_m @ f_m)
                out.append((pt_p - pt_m) / (2 * step))
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                worst = max(
                    worst, abs(hc.omega.value(vrs[a], vrs[b]) - hc.omega.value(vs[a], vs[b]))
                )
    return worst


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_pullback_exact_tangents_match_finite_differences(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = cd.chamber_H
    samples = df.sample_deformed_orbit(df.make_context(cd, 1.0), h, seed=17, n_base=4, n_fiber=2)
    n_plus, _, _ = al.h_subspaces(cd, h)
    # with 10 n_plus the pairs involving a fiber direction carry the maximum
    for fiber_dirs, r in itertools.product((n_plus, 10 * n_plus), (1.0, 2.0, 10.0, math.inf)):
        exact = sp.pullback_check(hc, r, samples, fiber_dirs)
        reference = _fd_pullback_check(hc, r, samples, fiber_dirs)
        if r == 1.0:
            assert exact < 1e-12 and reference < 1e-12
        else:
            assert abs(exact - reference) <= 1e-6 * reference, (r, exact, reference)


def test_pullback_fiber_scaling(sl2c):
    # the deformation rescales Omega on fiber pairs by 1 - q^2, q = (r-1)/(r+1)
    cd, hc = sl2c
    e12 = cd.alg.to_vector(np.array([[0, 1], [0, 0]], dtype=complex))
    ie12 = hc.j @ e12
    base = hc.omega.value(e12, ie12)
    assert abs(base - 8.0) < 1e-9
    for r in (2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        q = (r - 1.0) / (r + 1.0)
        scaled = hc.omega.value(ctx.psi_r @ e12, ctx.psi_r @ ie12)
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


def test_u_moment_values(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
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


def test_unique_isotropic_orbit_sl2c(sl2c):
    cd, hc = sl2c
    report = sp.unique_isotropic_orbit_check(hc, cd.chamber_H, seed=16)
    assert report["flag_dim"] == 2 and report["adjoint_dim"] == 4
    assert report["lagrangian"]
    assert report["max_flag_omega"] < 1e-8
    assert report["isotropy_drops"]
    assert report["min_moment_norm"] > 1e-2


def test_unique_isotropic_orbit_sl3c(sl3c):
    cd, hc = sl3c
    report = sp.unique_isotropic_orbit_check(hc, cd.chamber_H, seed=16)
    assert report["flag_dim"] == 6 and report["adjoint_dim"] == 12
    assert report["lagrangian"]
    assert report["isotropy_drops"]


@pytest.mark.parametrize("fixture", ["sl2c", "sl3c"])
def test_adjoint_and_deformed_tangents(fixture, request):
    cd, hc = request.getfixturevalue(fixture)
    h = cd.chamber_H
    ctx1 = df.make_context(cd, 1.0)
    adjoint = df.sample_deformed_orbit(ctx1, h, seed=9, n_base=4, n_fiber=2)
    adjoint_dim = sp.orbit_tangent_basis(hc, adjoint[0], "adjoint").shape[1]
    assert adjoint_dim == cd.alg.dim - al.h_subspaces(cd, h)[2].shape[1]
    for p in adjoint:
        t_adj = sp.orbit_tangent_basis(hc, p, "adjoint")
        t_def = sp.orbit_tangent_basis(hc, p, "deformed")  # at the sample's r = 1
        assert t_adj.shape[1] == t_def.shape[1] == adjoint_dim
        assert _proj_residual(t_adj, t_def) < 1e-9
    for r in (2.0, 10.0):
        ctx = df.make_context(cd, r)
        for p in df.sample_deformed_orbit(ctx, h, seed=9, n_base=4, n_fiber=2):
            assert p.kind == "deformed"
            assert sp.orbit_tangent_basis(hc, p).shape[1] == adjoint_dim
