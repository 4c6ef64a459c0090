"""Acceptance gate: the twelve end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line (visible in verbose runs via
the test outcome) and asserts the stated tolerance.
"""

import math
import sys

import numpy as np
import pytest

from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform import semidirect as sd
from orbitdeform import symplectic as sp
from orbitdeform.numerics import matrix_exp

SEED = 20240817


def _line(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sl2r():
    alg = al.build_algebra("sl_real", 2)
    return alg, al.cartan_structure(alg)


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


def test_criterion_01_cylinder(sl2r):
    _, cd = sl2r
    h = np.array([1.0, 0.0, 0.0])  # diag(1, -1)
    samples = sd.sample_semidirect_orbit(cd, h, SEED, n_base=100, n_fiber=10)
    assert len(samples) == 1000
    worst = max(abs(p.point[0] ** 2 + p.point[1] ** 2 - 1.0) for p in samples)
    _line("criterion 1 (cylinder x^2+y^2=1)", worst < 1e-9, f"max residual {worst:.3e} < 1e-9")


def test_criterion_02_hyperboloid(sl2r):
    _, cd = sl2r
    h = np.array([1.0, 0.0, 0.0])
    ctx = df.make_context(cd, 1.0)
    samples = df.sample_deformed_orbit(ctx, h, SEED, n_base=100, n_fiber=10)
    assert len(samples) == 1000
    worst = max(
        abs(p.point[0] ** 2 + p.point[1] ** 2 - p.point[2] ** 2 - 1.0) for p in samples
    )
    _line("criterion 2 (hyperboloid x^2+y^2-z^2=1)", worst < 1e-8, f"max residual {worst:.3e} < 1e-8")


def test_criterion_03_deformed_invariance(sl2r):
    alg, cd = sl2r
    h = np.array([1.0, 0.0, 0.0])
    target = alg.killing_form(h, h)
    worst_k, worst_q = 0.0, 0.0
    for r in (0.1, 0.5, 2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        for p in df.sample_deformed_orbit(ctx, h, SEED, n_base=20, n_fiber=5):
            q = p.point
            worst_k = max(worst_k, abs(df.killing_r(ctx, q, q) - target) / (1 + q @ q))
            x, y, z = q
            worst_q = max(worst_q, abs(x * x + y * y - z * z / r**2 - 1.0))
    ok = worst_k < 1e-6 and worst_q < 1e-6
    _line("criterion 3 (deformed Killing invariance, quadric x^2+y^2-z^2/r^2=1)",
          ok, f"killing residual {worst_k:.3e}, quadric residual {worst_q:.3e} < 1e-6")


def test_criterion_04_limit_convergence(sl2r):
    _, cd = sl2r
    h = np.array([1.0, 0.0, 0.0])
    ctx1 = df.make_context(cd, 1.0)
    samples = df.sample_deformed_orbit(ctx1, h, SEED, n_base=10, n_fiber=4)
    c_max = max(math.sqrt(2.0) * np.linalg.norm(p.fiber) for p in samples)
    devs, within = [], True
    for r in (10.0, 100.0, 1000.0):
        dev = df.limit_deviation(df.make_context(cd, r), samples)
        closed = math.sqrt(2.0) * c_max / (r + 1)
        within = within and abs(dev - closed) <= 0.1 * closed
        devs.append(dev)
    decreasing = devs[0] > devs[1] > devs[2]
    _line("criterion 4 (r->inf deviation, closed form sqrt(2) c/(r+1))",
          decreasing and within, f"deviations {[f'{d:.3e}' for d in devs]}")


def test_criterion_05_algebra_laws():
    rng = np.random.default_rng(SEED)
    cd = al.cartan_structure(al.build_algebra("sl_real", 3))
    alg = cd.alg
    worst = 0.0

    def jac(br, x, y, z):
        return br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))

    for _ in range(100):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        worst = max(worst, np.linalg.norm(jac(alg.bracket, x, y, z)) / scale)
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)

        def br(a, b, _ctx=ctx):
            return df.bracket_r(_ctx, a, b)

        for _ in range(100):
            x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
            scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
            worst = max(worst, np.linalg.norm(jac(br, x, y, z)) / scale)
    dk, ds = cd.k_basis.shape[1], cd.s_basis.shape[1]
    for _ in range(100):
        elems = [
            sd.SemidirectElement(
                cd.k_basis @ rng.standard_normal(dk), cd.s_basis @ rng.standard_normal(ds)
            )
            for _ in range(3)
        ]
        a, b, c = elems
        j1 = sd.semidirect_bracket(cd, a, sd.semidirect_bracket(cd, b, c))
        j2 = sd.semidirect_bracket(cd, b, sd.semidirect_bracket(cd, c, a))
        j3 = sd.semidirect_bracket(cd, c, sd.semidirect_bracket(cd, a, b))
        resid = np.linalg.norm(j1.k_part + j2.k_part + j3.k_part) + np.linalg.norm(
            j1.s_part + j2.s_part + j3.s_part
        )
        scale = np.prod([np.linalg.norm(e.k_part) + np.linalg.norm(e.s_part) for e in elems])
        worst = max(worst, resid / scale)
    _line("criterion 5 (Jacobi for base, deformed and semidirect brackets)",
          worst < 1e-10, f"max residual {worst:.3e} < 1e-10")


def test_criterion_06_psi_r_eigenvectors():
    worst = 0.0
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
                    worst = max(worst, float(np.linalg.norm(adr_h @ v - vals[i] * v)))
    _line("criterion 6 (ad_r(H) psi_r X_a = a(H) psi_r X_a)",
          worst < 1e-9, f"max residual {worst:.3e} < 1e-9")


def test_criterion_07_symplectic_nondegeneracy(sl2c, sl3c):
    ok, detail = True, []
    for cd, hc in (sl2c, sl3c):
        ctx = df.make_context(cd, math.inf)
        samples = df.sample_deformed_orbit(ctx, cd.chamber_H, SEED, n_base=25, n_fiber=4)
        assert len(samples) == 100
        report = sp.check_symplectic_on_orbit(hc, samples, "semidirect")
        ok = ok and report["full_rank"] and report["max_fiber_omega"] < 1e-10
        detail.append(
            f"n={cd.alg.n}: sv ratio {report['min_sv_ratio']:.3e}, "
            f"fiber omega {report['max_fiber_omega']:.3e}"
        )
    _line("criterion 7 (Omega symplectic on the orbit, fibers isotropic)", ok, "; ".join(detail))


def test_criterion_08_lagrangian_sections(sl2c):
    cd, hc = sl2c
    h = cd.chamber_H
    flag = al.flag_orbit_sample(cd, h, SEED, count=15)
    worst = max(sp.section_omega_residual(hc, h, flag, t) for t in (0.0, 0.5, 1.0, 2.0))
    _line("criterion 8 (sections x + t i grad f_H are Lagrangian)",
          worst < 1e-6, f"max |Omega| {worst:.3e} < 1e-6")


def test_criterion_09_pullback_symplectomorphism(sl2c):
    # psi~_r is a diffeomorphism but not an Omega-symplectomorphism.  Split a
    # tangent v = h_v + x_v into the derivatives of the base part Ad(k)H and
    # of the fiber part Ad(k)X; then d psi~_r v = h_v + psi_r x_v.  Since s is
    # Lagrangian, Omega(h, theta x) = Omega(h, x) for h in s, and
    # psi_r* Omega = (1 - q^2) Omega with q = (r-1)/(r+1), so
    #   Omega(v_r, w_r) = Omega(h_v, h_w) + (1+q)[Omega(h_v, x_w) + Omega(x_v, h_w)]
    #                     + (1-q^2) Omega(x_v, x_w).
    # pullback_check measures the difference from Omega(v, w): q Omega_1 - q^2 Omega_2,
    # with Omega_1 the bracketed term and Omega_2 = Omega(x_v, x_w).
    cd, hc = sl2c
    h = cd.chamber_H
    ctx1 = df.make_context(cd, 1.0)
    samples = df.sample_deformed_orbit(ctx1, h, SEED, n_base=25, n_fiber=2)
    assert len(samples) == 50
    n_plus, _, _ = al.h_subspaces(cd, h)
    step = 1e-5
    om = hc.omega.value
    flows = [
        (matrix_exp(step * cd.alg.ad(a)), matrix_exp(-step * cd.alg.ad(a))) for a in cd.k_basis.T
    ]

    def retag(p, k_op, coeffs):
        # the r = 1 sample with construction tags (k_op, n_plus @ coeffs), as a 1 x 1 batch
        base, fiber = k_op @ h, n_plus @ coeffs
        return al.OrbitBatch(
            points=(base + k_op @ fiber)[None, None], base_points=base[None], k_ops=k_op[None],
            fibers=fiber[None, None], fiber_coeffs=coeffs[None, None], kind=p.kind, r=p.r,
        )

    worst, defect_err, defects = 0.0, 0.0, []
    for r in (2.0, 10.0, math.inf):
        q = 1.0 if math.isinf(r) else (r - 1.0) / (r + 1.0)
        ctxr = df.make_context(cd, r)
        defect = 0.0
        for p in samples:
            c = p.fiber_coeffs
            curves = [(fp @ p.k_op, c, fm @ p.k_op, c) for fp, fm in flows]
            curves += [(p.k_op, c + step * e, p.k_op, c - step * e) for e in np.eye(len(c))]
            tangents = []
            for k_p, c_p, k_m, c_m in curves:
                plus, minus = retag(p, k_p, c_p), retag(p, k_m, c_m)
                h_v = (plus[0].base_point - minus[0].base_point) / (2 * step)
                x_v = (k_p @ plus[0].fiber - k_m @ minus[0].fiber) / (2 * step)
                v_r = df.tilde_psi_r(ctxr, plus)[0].point - df.tilde_psi_r(ctxr, minus)[0].point
                v_r /= 2 * step
                tangents.append((h_v, x_v, v_r))
            for a, (h_v, x_v, v_r) in enumerate(tangents):
                for h_w, x_w, w_r in tangents[a + 1:]:
                    mixed, fib = om(h_v, x_w) + om(x_v, h_w), om(x_v, x_w)
                    law = om(h_v, h_w) + (1 + q) * mixed + (1 - q * q) * fib
                    worst = max(worst, abs(om(v_r, w_r) - law))
                    defect = max(defect, abs(q * mixed - q * q * fib))
        measured = sp.pullback_check(hc, r, samples, n_plus)
        defect_err = max(defect_err, abs(measured - defect) / defect)
        defects.append(measured)
    _line("criterion 9 (psi~_r pulls Omega back to Omega_hh + (1+q) Omega_hx + (1-q^2) Omega_xx)",
          worst < 1e-5 and defect_err < 1e-6,
          f"max residual {worst:.3e} < 1e-5; pullback_check {[f'{d:.5g}' for d in defects]} "
          f"= max|q Omega_1 - q^2 Omega_2| to {defect_err:.1e} < 1e-6 relative")


def test_criterion_10_moment_isotropy(sl2c, sl3c):
    cd3, hc3 = sl3c
    rng = np.random.default_rng(SEED)
    worst_normal = 0.0
    for _ in range(50):
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d -= d.mean()
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q_mat, _ = np.linalg.qr(a)
        x = cd3.alg.to_vector(q_mat @ np.diag(d) @ q_mat.conj().T)
        worst_normal = max(worst_normal, float(np.linalg.norm(sp.u_moment(hc3, x))))
    nil = np.zeros((3, 3), dtype=complex)
    nil[0, 1] = 1.0
    nil_norm = float(np.linalg.norm(sp.u_moment(hc3, cd3.alg.to_vector(nil))))
    dims_ok = True
    for (cd, hc), (fd, ad) in zip((sl2c, sl3c), ((2, 4), (6, 12))):
        report = sp.unique_isotropic_orbit_check(hc, cd.chamber_H, SEED, n_random=20)
        dims_ok = dims_ok and report["flag_dim"] == fd and report["adjoint_dim"] == ad
        dims_ok = dims_ok and report["lagrangian"] and report["isotropy_drops"]
        dims_ok = dims_ok and report["min_moment_norm"] > 1e-2
    ok = worst_normal < 1e-9 and nil_norm > 1e-2 and dims_ok
    _line("criterion 10 (moment map isotropy classification)",
          ok, f"normal {worst_normal:.3e} < 1e-9, nilpotent {nil_norm:.3e} > 1e-2, dims (2,4),(6,12)")


def test_criterion_11_skew_form_toolkit():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(0, d + 1))
        p = rng.standard_normal((d, k))
        g = p @ rng.standard_normal((k, k)) @ p.T
        form = sp.make_skew_form(g - g.T)
        rad = sp.radical(form)
        w = sp.max_isotropic(form)
        ok = ok and (2 * w.shape[1] == d + rad.shape[1])
    _line("criterion 11 (2 dim W = dim V + dim radical on 200 random forms)", ok, "exact")


def test_criterion_12_cotangent_identification(sl2r, sl2c):
    # sl2c carries the canonical case: SO(3) rotating s = R^3 inside so(3,1)
    worst, ranks_ok = 0.0, True
    for cd in (sl2r[1], sl2c[0]):
        for p in sd.sample_semidirect_orbit(cd, cd.chamber_H, SEED, n_base=20, n_fiber=5):
            w, cov = sd.phi_cotangent(cd, p)
            m = sd.cotangent_moment(cd, w, cov)
            worst = max(worst, float(np.linalg.norm((m.k_part + m.s_part) - p.point)))
            tangent = sd.orbit_tangent_at(cd, w)
            f = np.stack(
                [cd.alg.bracket(w, tangent[:, i]) for i in range(tangent.shape[1])], axis=1
            )
            ranks_ok = ranks_ok and np.linalg.matrix_rank(f) == tangent.shape[1]
    _line("criterion 12 (phi fiberwise isomorphism, m o phi = id)",
          worst < 1e-9 and ranks_ok, f"roundtrip residual {worst:.3e} < 1e-9, ranks ok")
