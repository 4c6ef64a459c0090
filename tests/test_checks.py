"""The stacked verify checks against the per-sample loops they replaced.

Each reference below is the loop a check ran before it drew its samples
as one array.  It replays the suite's random stream in the old order, so
its residual must equal the stacked residual bit for bit.  The call-count
guard keeps such loops from coming back unnoticed.  The last tests pin
the one reduction of residuals (a NaN fails its check) and the suite
table that verify runs from.
"""

import argparse
import collections
import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdeform import algebra as al
from orbitdeform import checks, cli, numerics
from orbitdeform import deformation as df
from orbitdeform import semidirect as sd
from orbitdeform import symplectic as sp
from orbitdeform.numerics import bilinear, matrix_exp, nullspace
from conftest import cartan

SEEDS = (1, 7, 4242)


def _run(descriptor, suite):
    # one suite at seed 1 and the regular chamber element, as verify runs it
    cd = cartan(descriptor)
    return checks.run(cd, al.chamber_element(cd, "regular"), 1, suite)


def _residuals(results):
    return {r.name: r.residual for r in results}


def _by_name(results):
    return {r.name: r for r in results}


def _numerics_loops(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a *= min(1.0, 5.0 / np.linalg.norm(a))
        worst = max(worst, float(np.linalg.norm(matrix_exp(a) @ matrix_exp(-a) - np.eye(n))))
    return {"exp_inverse": worst}


def _algebra_loops(cd, seed):
    alg = cd.alg
    rng = np.random.default_rng(seed)
    out = {}
    worst = 0.0
    for _ in range(100):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        jac = alg.bracket(x, alg.bracket(y, z)) + alg.bracket(y, alg.bracket(z, x)) + alg.bracket(z, alg.bracket(x, y))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        worst = max(worst, float(np.linalg.norm(jac)) / scale)
    out["jacobi"] = worst
    worst = 0.0
    for _ in range(100):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        worst = max(
            worst,
            abs(alg.killing_form(alg.bracket(x, y), z) + alg.killing_form(y, alg.bracket(x, z)))
            / (np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)),
        )
    out["killing_ad_invariance"] = worst
    return out


def _deformation_loops(cd, seed):
    alg = cd.alg
    rng = np.random.default_rng(seed)
    out = {}
    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(100 // len(df.R_GRID) + 1):
            x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
            jac = (
                df.bracket_r(ctx, x, df.bracket_r(ctx, y, z))
                + df.bracket_r(ctx, y, df.bracket_r(ctx, z, x))
                + df.bracket_r(ctx, z, df.bracket_r(ctx, x, y))
            )
            worst = max(worst, float(np.linalg.norm(jac)) / (np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)))
    out["jacobi_r"] = worst
    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(10):
            x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
            lhs = np.diag(ctx.t_r) @ alg.bracket(x, y)
            rhs = df.bracket_r(ctx, np.diag(ctx.t_r) @ x, np.diag(ctx.t_r) @ y)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / max(1.0, np.linalg.norm(lhs)))
    out["t_r_isomorphism"] = worst
    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(10):
            x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
            lhs = df.killing_r(ctx, x, y)
            rhs = float(np.trace(df.ad_r(ctx, x) @ df.ad_r(ctx, y)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out["killing_r_consistency"] = worst
    worst = 0.0
    h = al.chamber_element(cd, "regular")
    vals = cd.root_values(h)
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        adr_h = df.ad_r(ctx, h)
        for i, root in enumerate(cd.roots):
            for c in range(root.space_basis.shape[1]):
                v = df.psi_r_map(ctx, root.space_basis[:, c])
                worst = max(worst, float(np.linalg.norm(adr_h @ v - vals[i] * v)))
    out["psi_r_eigenvector"] = worst
    worst = 0.0
    dim_k = cd.k_basis.shape[1]
    for r in df.R_GRID + (math.inf,):
        ctx = df.make_context(cd, r)
        for _ in range(5):
            a = cd.k_basis @ rng.standard_normal(dim_k)
            x = rng.standard_normal(alg.dim)
            g = matrix_exp(alg.to_matrix(a))
            moved = df.psi_r_map(ctx, alg.conjugate(g, x)) - alg.conjugate(g, df.psi_r_map(ctx, x))
            worst = max(worst, float(np.linalg.norm(moved)))
    out["psi_r_equivariance"] = worst
    return out


def _semidirect_loops(cd, seed):
    rng = np.random.default_rng(seed)
    dim_k, dim_s = cd.k_basis.shape[1], cd.s_basis.shape[1]

    def rand_elem():
        return cd.k_basis @ rng.standard_normal(dim_k) + cd.s_basis @ rng.standard_normal(dim_s)

    def norm(e):
        return np.linalg.norm(cd.project_k(e)) + np.linalg.norm(cd.project_s(e))

    def br(x, y):
        return sd.semidirect_bracket(cd, x, y)

    out = {}
    worst = 0.0
    for _ in range(100):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        jac = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
        worst = max(worst, norm(jac) / (norm(a) * norm(b) * norm(c)))
    out["jacobi_semidirect"] = worst
    worst = 0.0
    for _ in range(20):
        e = rand_elem()
        m = sd.ad_rho_matrix(cd, e)
        c = sd.coad_star_matrix(cd, e)
        worst = max(worst, float(np.max(np.abs(m.T @ cd.b_theta + cd.b_theta @ c))))
    out["coad_duality"] = worst
    return out


def _hamiltonian_q_loop(hc, a, seed, n=20, step=1e-5):
    ad_a = hc.cd.alg.ad(a)
    rng = np.random.default_rng(seed)
    flow_resid = 0.0
    for _ in range(n):
        x0 = rng.standard_normal(hc.cd.alg.dim)
        x1 = rng.standard_normal(hc.cd.alg.dim)

        def q(t):
            x = x0 + t * x1
            return 0.5 * bilinear(ad_a @ x, hc.omega, x)

        lhs = (q(step) - q(-step)) / (2 * step)
        rhs = bilinear(ad_a @ x1, hc.omega, x0)
        flow_resid = max(flow_resid, abs(lhs - rhs))
    return flow_resid


def _symplectic_loops(cd, seed):
    rng = np.random.default_rng(seed)
    hc = sp.make_hermitian_context(cd)
    out = {}
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(cd.alg.dim)
        worst = max(worst, abs(bilinear(x, hc.omega, x)))
    out["omega_alternating"] = worst
    worst = worst_b = 0.0
    for _ in range(10):
        a = cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1])
        ad_u = cd.alg.conjugate(matrix_exp(cd.alg.to_matrix(a)), np.eye(cd.alg.dim)).T
        worst = max(worst, float(np.max(np.abs(ad_u.T @ hc.omega @ ad_u - hc.omega))))
        worst_b = max(worst_b, float(np.max(np.abs(ad_u.T @ cd.b_theta @ ad_u - cd.b_theta))))
    out["omega_invariance"] = worst
    out["b_theta_invariance"] = worst_b
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(0, d + 1))
        pmat = rng.standard_normal((d, k))
        g = pmat @ rng.standard_normal((k, k)) @ pmat.T
        form = sp.make_skew_form(g - g.T)
        rad = nullspace(form)
        w = sp.max_isotropic(form)
        worst = max(worst, abs(2 * w.shape[1] - d - rad.shape[1]))
        worst = max(worst, float(np.max(np.abs(w.T @ form @ w))) if w.size else 0.0)
    out["max_isotropic_dim"] = worst
    a = cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1])
    out["hamiltonian_q"] = _hamiltonian_q_loop(hc, a, seed)
    return out


def _assert_bits(got, ref):
    for name, value in ref.items():
        assert got[name] == value, (name, got[name], value)


@pytest.mark.parametrize("seed", SEEDS)
def test_numerics_checks_match_loops(seed):
    # the eigenspaces of the caller's ad(a), the empty family on so(n), fill g
    ref = {**_numerics_loops(seed), "eigenspace_completeness": 0.0}
    for descriptor in sorted(al.DESCRIPTORS):
        cd = cartan(descriptor)
        _assert_bits(_residuals(checks.numerics_suite(cd, al.chamber_element(cd, "regular"), seed)), ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("descriptor", sorted(al.DESCRIPTORS))
def test_stacked_checks_match_loops(descriptor, seed):
    # the suites verify runs on each descriptor, against their loops
    cd = cartan(descriptor)
    h = al.chamber_element(cd, "regular")
    _assert_bits(_residuals(checks.algebra_suite(cd, h, seed)), _algebra_loops(cd, seed))
    if cd.roots:
        _assert_bits(_residuals(checks.deformation_suite(cd, h, seed)), _deformation_loops(cd, seed))
        _assert_bits(_residuals(checks.semidirect_suite(cd, h, seed)), _semidirect_loops(cd, seed))
    if cd.alg.j_op is not None:
        _assert_bits(_residuals(checks.symplectic_suite(cd, h, seed)), _symplectic_loops(cd, seed))


@pytest.mark.parametrize("family,n", [("sl_complex", 6), ("sl_real", 5)])
def test_suites_pass_at_rank(family, n):
    # the algebra, deformation, semidirect and symplectic suites above rank 3;
    # sl(5,R) has no J, so its symplectic suite is empty
    cd = al.cartan_structure(al.build_algebra(family, n))
    results = [r for suite in (checks.algebra_suite, checks.deformation_suite,
                               checks.semidirect_suite, checks.symplectic_suite)
               for r in suite(cd, al.chamber_element(cd, "regular"), seed=1)]
    failed = [(r.name, r.residual, r.threshold) for r in results if not r.passed]
    assert results and not failed
    assert any(r.name == "jacobi_semidirect" for r in results)
    assert any(r.name == "fiber_isotropic" for r in results) == (cd.alg.j_op is not None)


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("spec", ["regular", "wall:0", "wall:1"])
@pytest.mark.parametrize("descriptor", ["sl3r", "sl3c"])
def test_suites_pass_at_walls(descriptor, spec, seed):
    # at a wall the orbit is a partial flag: a smaller n_H^+ and a non-abelian z_H
    cd = cartan(descriptor)
    results = checks.run(cd, al.chamber_element(cd, spec), seed)
    failed = [(r.name, r.residual, r.threshold) for r in results if not r.passed]
    assert results and not failed


@pytest.mark.parametrize("seed", [1, 4242])
def test_point_orbit_fails_only_isotropy_nonzero(seed):
    # sl2c's one wall is H = 0, whose orbit is a point: the rank-0 tangent is vacuously
    # nondegenerate, and every sample has mu = 0, so the mu != 0 criterion has nothing to certify
    cd = cartan("sl2c")
    h = al.chamber_element(cd, "wall:0")
    assert not h.any()
    results = checks.run(cd, h, seed)
    assert [r.name for r in results if not r.passed] == ["isotropy_criterion_nonzero"]


@pytest.mark.parametrize("descriptor", ["so3", "so4"])
def test_suites_decide_their_algebras(descriptor):
    # each suite says itself that it does not apply: no roots, no J
    cd = cartan(descriptor)
    assert not cd.roots and cd.alg.j_op is None
    h = al.chamber_element(cd, "regular")
    assert checks.deformation_suite(cd, h) == []
    assert checks.semidirect_suite(cd, h) == []
    assert checks.symplectic_suite(cd, h) == []


def _smallest_restriction(cd, seed):
    # reference, point by point: B_theta^(1/2) maps B_theta to the Euclidean metric, so
    # a Euclidean-orthonormal basis q of B^(1/2) [A, x] is a B_theta-orthonormal one
    # B^(-1/2) q, and Omega restricts to q^T B^(-1/2) Omega B^(-1/2) q
    hc = sp.make_hermitian_context(cd)
    vals, vecs = np.linalg.eigh(cd.b_theta)
    root, inv_root = (vecs * vals ** 0.5) @ vecs.T, (vecs * vals ** -0.5) @ vecs.T
    omega = inv_root @ hc.omega @ inv_root
    samples = df.tilde_psi_r(df.make_context(cd, math.inf),
                             df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"), seed, 25, 3))
    smallest = math.inf
    for x in samples.points.reshape(-1, cd.alg.dim)[:20]:
        if np.linalg.norm(sp.u_moment(hc, x)) > 1e-3:
            u, s, _ = np.linalg.svd(root @ -cd.alg.ad(x) @ cd.k_basis, full_matrices=False)
            q = u[:, s > 1e-9 + 1e-7 * s[0]]
            smallest = min(smallest, float(np.linalg.norm(q.T @ omega @ q, 2)))
    return smallest


@pytest.mark.parametrize("descriptor", ["sl2c", "sl3c"])
def test_isotropy_nonzero_reports_smallest_restriction(descriptor):
    # 1e-8 / min over the points with mu != 0, not capped at 1e-8; the restriction is
    # the spectral norm of Omega on B_theta-orthonormal tangents of the compact orbit.
    # It is at most |Omega| = 1 and reaches it here (T meets JT at these points), so
    # the residual reads 1e-8 to roundoff and is pinned to the per-point reference
    cd = cartan(descriptor)
    result = _residuals(checks.symplectic_suite(cd, al.chamber_element(cd, "regular"), seed=1))
    smallest = _smallest_restriction(cd, seed=1)
    assert smallest <= 1.0 + 1e-12
    assert result["isotropy_criterion_nonzero"] == pytest.approx(1e-8 / smallest, rel=1e-12)


def test_isotropy_nonzero_fails_without_nonzero_moments(monkeypatch):
    # with mu = 0 everywhere no point tests the criterion, and the check must not pass
    monkeypatch.setattr(sp, "u_moment", lambda ctx, x: np.zeros_like(x))
    results = {r.name: r for r in _run("sl2c", "symplectic")}
    assert not results["isotropy_criterion_nonzero"].passed


@settings(derandomize=True, deadline=None, database=None)
@given(descriptor=st.sampled_from(sorted(al.DESCRIPTORS)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 12), r=st.sampled_from(df.R_GRID))
def test_stacked_laws_property(descriptor, seed, n, r):
    cd = cartan(descriptor)
    alg, ctx = cd.alg, df.make_context(cd, r)
    x, y, z = np.random.default_rng(seed).standard_normal((3, n, alg.dim))
    # stacked calls give the bits of the per-vector calls
    assert np.array_equal(alg.bracket(x, y), np.stack([alg.bracket(a, b) for a, b in zip(x, y)]))
    assert np.array_equal(df.bracket_r(ctx, x, y),
                          np.stack([df.bracket_r(ctx, a, b) for a, b in zip(x, y)]))
    assert np.array_equal(alg.killing_form(x, y), [alg.killing_form(a, b) for a, b in zip(x, y)])
    # and the laws hold on the stack within the check thresholds
    scale = checks._norms(x) * checks._norms(y) * checks._norms(z)
    jac = (alg.bracket(x, alg.bracket(y, z)) + alg.bracket(y, alg.bracket(z, x))
           + alg.bracket(z, alg.bracket(x, y)))
    assert (checks._norms(jac) / scale).max() < 1e-10
    inv = alg.killing_form(alg.bracket(x, y), z) + alg.killing_form(y, alg.bracket(x, z))
    assert (np.abs(inv) / scale).max() < 1e-9


def _counting(counts, key, fn):
    """fn, counting each call in counts[key]."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_verify_sl3c_call_counts(monkeypatch, tmp_path):
    # one stacked call per check and parameter value, not one per random sample
    counts = collections.Counter()
    counting = functools.partial(_counting, counts)
    for owner, name in ((al.LieAlgebraData, "bracket"), (df, "bracket_r"),
                        (sd, "semidirect_bracket")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    # every matrix_exp input shape, and whether ad_r_exp_orbit made the call
    exp, ad_r_exp_orbit, calls, in_orbit = numerics.matrix_exp, df.ad_r_exp_orbit, [], []

    def recording_exp(a):
        calls.append((np.shape(a), bool(in_orbit)))
        return exp(a)

    def recording_orbit(*args):
        in_orbit.append(True)
        try:
            return ad_r_exp_orbit(*args)
        finally:
            in_orbit.pop()

    for module in (numerics, al, df, sd, sp, checks):
        if getattr(module, "matrix_exp", None) is exp:
            monkeypatch.setattr(module, "matrix_exp", counting("matrix_exp", recording_exp))
    monkeypatch.setattr(df, "ad_r_exp_orbit", recording_orbit)
    out = tmp_path / "report.json"
    for descriptor in ("sl3c", "sl3r"):
        counts.clear()
        calls.clear()
        assert cli.main(["verify", "--algebra", descriptor, "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_pass"]
        assert 0 < counts["bracket"] <= 100
        assert 0 < counts["bracket_r"] <= 60
        assert 0 < counts["semidirect_bracket"] <= 10
        assert 0 < counts["matrix_exp"] <= 25
        # K acts as n x n elements through conjugate: the one (dim, dim) exponential is
        # the deformed action exp(t ad_r A), the left side of ad_r_exponential, once per r
        dim = cartan(descriptor).alg.dim
        dense = [orbit for shape, orbit in calls if shape[-2:] == (dim, dim)]
        assert dense == [True] * 3 and sum(orbit for _, orbit in calls) == 3, (descriptor, calls)


@pytest.mark.parametrize("descriptor", ["sl2c", "sl3c"])
def test_section_residual_forms_one_tangent_basis_per_block(descriptor, monkeypatch):
    # the points' Y = P_x N and the tangents' P_x [A, N] share each block's
    # orbit_tangent_at call; three blocks of 4, 4 and 2 base points
    cd = cartan(descriptor)
    hc = sp.make_hermitian_context(cd)
    x = al.flag_orbit_sample(cd, al.chamber_element(cd, "regular"), 1, 10)
    counts = collections.Counter()
    monkeypatch.setattr(sd, "orbit_tangent_at", _counting(counts, "basis", sd.orbit_tangent_at))
    monkeypatch.setattr(sp, "_SECTION_BLOCK", 4)
    sp.lagrangian_section(hc, al.chamber_element(cd, "regular"), x, np.array([0.0, 1.0]))
    assert counts["basis"] == 3


@pytest.mark.parametrize("descriptor", ["sl2c", "sl3c"])
def test_lagrangian_section_command_forms_one_tangent_basis_per_block(descriptor, tmp_path, monkeypatch):
    # the command's points and residuals come from one pass: one orbit_tangent_at
    # call per block of 4, 4 and 2 base points, and the points are the section
    # x + t J Y(x) with the gradient of the whole flag stack at once
    cd = cartan(descriptor)
    hc = sp.make_hermitian_context(cd)
    h = al.chamber_element(cd, "regular")
    counts = collections.Counter()
    monkeypatch.setattr(sd, "orbit_tangent_at", _counting(counts, "basis", sd.orbit_tangent_at))
    monkeypatch.setattr(sp, "_SECTION_BLOCK", 4)
    assert cli.main(["lagrangian-section", "--algebra", descriptor, "--seed", "1",
                     "--n-base", "10", "--t", "0,2", "--out", str(tmp_path)]) == 0
    assert counts["basis"] == 3
    flag = al.flag_orbit_sample(cd, h, 1, 10)
    t = np.array([0.0, 2.0])
    ref = flag + t[:, None, None] * (sp.gradient_at(hc, flag, h) @ cd.alg.j_op.T)
    rows = np.loadtxt(tmp_path / f"section_{descriptor}.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2:].reshape(ref.shape), ref)


def test_nan_residual_fails_its_check(monkeypatch):
    # one NaN bracket at r = 2 is the residual of every check that reads it;
    # Python's max(worst, nan) keeps worst, so a running maximum passed both
    bracket_r = df.bracket_r

    def nan_at_2(ctx, x, y):
        out = bracket_r(ctx, x, y)
        return np.full_like(out, np.nan) if ctx.r == 2.0 else out

    monkeypatch.setattr(df, "bracket_r", nan_at_2)
    for r in _run("sl2r", "deformation"):
        hit = r.name in ("jacobi_r", "t_r_isomorphism")
        assert (math.isnan(r.residual), r.passed) == (hit, not hit), r


def test_nan_moment_fails_isotropy_criteria(monkeypatch):
    # the checks read the points their masks mu < 1e-10 and mu > 1e-3 select; a NaN
    # moment fails both comparisons, so a mask alone dropped the point and both passed
    u_moment = sp.u_moment

    def nan_at_first_point(hc, x):
        m = u_moment(hc, x)
        m[0] = np.nan
        return m

    monkeypatch.setattr(sp, "u_moment", nan_at_first_point)
    results = _by_name(_run("sl2c", "symplectic"))
    for name in ("isotropy_criterion_zero", "isotropy_criterion_nonzero"):
        assert math.isnan(results[name].residual) and not results[name].passed, results[name]


def test_nan_points_fail_fiber_disjointness(monkeypatch):
    # NaN points give NaN s-part distances, which fail d_s < 1e-9 as they fail any test
    sample = sd.sample_semidirect_orbit

    def nan_points(*args):
        batch = sample(*args)
        return dataclasses.replace(batch, points=np.full_like(batch.points, np.nan))

    monkeypatch.setattr(sd, "sample_semidirect_orbit", nan_points)
    result = _by_name(_run("sl2r", "semidirect"))["fiber_disjointness"]
    assert math.isnan(result.residual) and not result.passed


@pytest.mark.parametrize("residuals", [math.nan, np.array([0.0, math.nan, 1.0]),
                                       [np.zeros(3), np.array([math.nan]), np.ones(2)],
                                       [np.zeros((2, 0)), math.nan]])
def test_check_reduction_keeps_nan(residuals):
    result = checks._check("c", "anchor", residuals, 1.0)
    assert math.isnan(result.residual) and not result.passed


@pytest.mark.parametrize("residuals,worst", [(0.5, 0.5), (np.array([0.25, 2.0]), 2.0),
                                             ([np.array([1.0, 3.0]), 0.5, np.zeros(0)], 3.0),
                                             ([], 0.0), (np.zeros((3, 0)), 0.0)])
def test_check_reduction_takes_the_maximum(residuals, worst):
    # a scalar, an array, or one array per r; no residuals at all read 0
    assert checks._check("c", "anchor", residuals, 1.0).residual == worst


def test_verify_runs_the_suite_table(monkeypatch, tmp_path):
    # --suite offers SUITES, and verify reads each suite as a checks attribute
    # when it runs, so a wrapper set there (as perfbench/tracer.py sets) is called
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all", *checks.SUITES)
    calls = []
    for name in checks.SUITES:
        def fake(*args, name=name):
            calls.append((name, args[-1]))
            return [checks.CheckResult(name, "anchor", 0.0, 1.0)]
        monkeypatch.setattr(checks, f"{name}_suite", fake)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--algebra", "so3", "--seed", "7", "--out", str(out)]) == 0
    assert calls == [(name, 7) for name in checks.SUITES]
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == list(checks.SUITES)
    calls.clear()
    assert cli.main(["verify", "--algebra", "so3", "--suite", "semidirect",
                     "--out", str(out)]) == 0
    assert calls == [("semidirect", 0)]


@pytest.mark.parametrize("descriptor", ["sl2r", "sl3r", "sl2c", "sl3c"])
def test_ad_r_of_chamber_element_is_conjugated_ad(descriptor):
    # H lies in s, so T_r^-1 H = H: deformation_suite forms ad(H) once for every r
    cd = cartan(descriptor)
    ad_h = cd.alg.ad(al.chamber_element(cd, "regular"))
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        assert np.array_equal(df.ad_r(ctx, al.chamber_element(cd, "regular")),
                              np.diag(ctx.t_r) @ ad_h @ np.diag(ctx.t_r_inv))
