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
from orbitdeform.numerics import matrix_exp, nullspace
from test_symplectic import unique_isotropic_orbit_check

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
    assert samples.points.shape == (100, 10, 3)
    x, y = samples.points[..., 0], samples.points[..., 1]
    worst = float(np.max(np.abs(x**2 + y**2 - 1.0)))
    _line("criterion 1 (cylinder x^2+y^2=1)", worst < 1e-9, f"max residual {worst:.3e} < 1e-9")


def test_criterion_02_hyperboloid(sl2r):
    _, cd = sl2r
    h = np.array([1.0, 0.0, 0.0])
    ctx = df.make_context(cd, 1.0)
    samples = df.sample_deformed_orbit(ctx, h, SEED, n_base=100, n_fiber=10)
    assert samples.points.shape == (100, 10, 3)
    x, y, z = np.moveaxis(samples.points, -1, 0)
    worst = float(np.max(np.abs(x**2 + y**2 - z**2 - 1.0)))
    _line("criterion 2 (hyperboloid x^2+y^2-z^2=1)", worst < 1e-8, f"max residual {worst:.3e} < 1e-8")


def test_criterion_03_deformed_invariance(sl2r):
    alg, cd = sl2r
    h = np.array([1.0, 0.0, 0.0])
    target = alg.killing_form(h, h)
    worst_k, worst_q = 0.0, 0.0
    for r in (0.1, 0.5, 2.0, 10.0, 100.0):
        ctx = df.make_context(cd, r)
        batch = df.sample_deformed_orbit(ctx, h, SEED, n_base=20, n_fiber=5)
        for q in batch.points.reshape(-1, 3):
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
    # c of the fibers c E12, from the sampler's seeded draw in n_H^+ (|E12| = 1/sqrt 2)
    n_plus, _, _ = al.h_subspaces(cd, h)
    coeffs = np.random.default_rng([SEED, 0x5F1BE]).standard_normal((4, n_plus.shape[1]))
    c_max = math.sqrt(2.0) * np.linalg.norm(coeffs @ n_plus.T, axis=-1).max()
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

    def norm(e):
        return np.linalg.norm(cd.project_k(e)) + np.linalg.norm(cd.project_s(e))

    def sd_br(a, b):
        return sd.semidirect_bracket(cd, a, b)

    for _ in range(100):
        elems = [cd.k_basis @ rng.standard_normal(dk) + cd.s_basis @ rng.standard_normal(ds)
                 for _ in range(3)]
        worst = max(worst, norm(jac(sd_br, *elems)) / np.prod([norm(e) for e in elems]))
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
        assert samples.points.shape[:2] == (25, 4)
        report = sp.check_symplectic_on_orbit(hc, samples)
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
    assert samples.points.shape[:2] == (25, 2)
    n_plus, _, _ = al.h_subspaces(cd, h)
    # the fiber coefficients of the batch: the sampler's own seeded draw
    coeffs = np.random.default_rng([SEED, 0x5F1BE]).standard_normal((2, n_plus.shape[1]))
    step = 1e-5
    om = hc.omega.value
    # the compact flows exp(+-step A) as n x n group elements
    flows = [
        (matrix_exp(step * cd.alg.to_matrix(a)), matrix_exp(-step * cd.alg.to_matrix(a)))
        for a in cd.k_basis.T
    ]
    conjugate = cd.alg.conjugate

    def retag(k, coeffs):
        # the r = 1 sample with construction tags (k, Ad(k) n_plus @ coeffs), as a 1 x 1 batch
        base, fiber = conjugate(k, h), conjugate(k, n_plus @ coeffs)
        return al.OrbitBatch(
            points=(base + fiber)[None, None], base_points=base[None], k=k[None],
            fibers=fiber[None, None], kind=samples.kind, r=samples.r,
        )

    worst, defect_err, defects = 0.0, 0.0, []
    for r in (2.0, 10.0, math.inf):
        q = 1.0 if math.isinf(r) else (r - 1.0) / (r + 1.0)
        ctxr = df.make_context(cd, r)
        defect = 0.0
        for b, f in np.ndindex(samples.points.shape[:2]):
            k, c = samples.k[b], coeffs[f]
            curves = [(fp @ k, c, fm @ k, c) for fp, fm in flows]
            curves += [(k, c + step * e, k, c - step * e) for e in np.eye(len(c))]
            tangents = []
            for k_p, c_p, k_m, c_m in curves:
                plus, minus = retag(k_p, c_p), retag(k_m, c_m)
                h_v = (plus.base_points[0] - minus.base_points[0]) / (2 * step)
                x_v = conjugate(k_p, n_plus @ c_p) - conjugate(k_m, n_plus @ c_m)
                x_v /= 2 * step
                v_r = (df.tilde_psi_r(ctxr, plus).points[0, 0]
                       - df.tilde_psi_r(ctxr, minus).points[0, 0])
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
        report = unique_isotropic_orbit_check(hc, cd.chamber_H, SEED)
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
        rad = nullspace(form.gram)
        w = sp.max_isotropic(form)
        ok = ok and (2 * w.shape[1] == d + rad.shape[1])
    _line("criterion 11 (2 dim W = dim V + dim radical on 200 random forms)", ok, "exact")


def test_criterion_12_cotangent_identification(sl2r, sl2c):
    # sl2c carries the canonical case: SO(3) rotating s = R^3 inside so(3,1)
    worst, ranks_ok = 0.0, True
    for cd in (sl2r[1], sl2c[0]):
        batch = sd.sample_semidirect_orbit(cd, cd.chamber_H, SEED, n_base=20, n_fiber=5)
        m = sd.cotangent_moment(cd, *sd.phi_cotangent(cd, batch))
        roundtrip = np.linalg.norm(m - batch.points, axis=-1)
        worst = max(worst, float(roundtrip.max()))
        for w in batch.base_points:
            tangent = sd.orbit_tangent_at(cd, w)
            f = np.stack(
                [cd.alg.bracket(w, tangent[:, i]) for i in range(tangent.shape[1])], axis=1
            )
            ranks_ok = ranks_ok and np.linalg.matrix_rank(f) == tangent.shape[1]
    _line("criterion 12 (phi fiberwise isomorphism, m o phi = id)",
          worst < 1e-9 and ranks_ok, f"roundtrip residual {worst:.3e} < 1e-9, ranks ok")
