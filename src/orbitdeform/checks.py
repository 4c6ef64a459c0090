"""Verification suites shared by the CLI `verify` command and the tests.

Each check evaluates one identity of the orbit-deformation theory at
seeded random samples and reports the observed residual against its
threshold.  Anchors are the identities themselves, written as short
formula strings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import algebra as al
from . import deformation as df
from . import semidirect as sd
from . import symplectic as sp
from .numerics import Tolerance, matrix_exp, nullspace, simultaneous_eigenspaces


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper_anchor: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.threshold)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = self.passed
        return d


def _proj_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Mutual projection residual between two orthonormal column spans."""
    ra = np.linalg.norm(a - b @ (b.T @ a)) if a.size else 0.0
    rb = np.linalg.norm(b - a @ (a.T @ b)) if b.size else 0.0
    return float(max(ra, rb))


def numerics_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a *= min(1.0, 5.0 / np.linalg.norm(a))
        worst = max(worst, float(np.linalg.norm(matrix_exp(a) @ matrix_exp(-a) - np.eye(n))))
    out.append(CheckResult("exp_inverse", "exp(A)exp(-A)=I", worst, 1e-10))

    worst_null, worst_orth = 0.0, 0.0
    tol = Tolerance()
    for _ in range(20):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        ns = nullspace(a, tol)
        if ns.shape[1]:
            worst_null = max(worst_null, float(np.linalg.norm(a @ ns)) / (10 * tol.scale(a)))
            worst_orth = max(
                worst_orth, float(np.linalg.norm(ns.T @ ns - np.eye(ns.shape[1])))
            )
    out.append(CheckResult("nullspace_quality", "||A v||<=10*tol, v orthonormal", worst_null, 1.0))
    out.append(CheckResult("nullspace_orthonormal", "v_i . v_j = delta_ij", worst_orth, 1e-12))

    alg = al.build_algebra("sl_real", 3)
    cd = al.cartan_structure(alg)
    ops = [alg.ad(cd.a_basis[:, i]) for i in range(cd.a_basis.shape[1])]
    blocks = simultaneous_eigenspaces(ops)
    total = sum(b.shape[1] for _, b in blocks)
    out.append(
        CheckResult("eigenspace_completeness", "sum dim g_a = dim g", float(abs(total - alg.dim)), 0.5)
    )
    return out


def algebra_suite(cd: al.CartanData, seed: int = 0) -> list[CheckResult]:
    alg = cd.alg
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(100):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        jac = alg.bracket(x, alg.bracket(y, z)) + alg.bracket(y, alg.bracket(z, x)) + alg.bracket(z, alg.bracket(x, y))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        worst = max(worst, float(np.linalg.norm(jac)) / scale)
    out.append(CheckResult("jacobi", "[X,[Y,Z]]+[Y,[Z,X]]+[Z,[X,Y]]=0", worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        worst = max(
            worst,
            abs(alg.killing_form(alg.bracket(x, y), z) + alg.killing_form(y, alg.bracket(x, z)))
            / (np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)),
        )
    out.append(CheckResult("killing_ad_invariance", "<[X,Y],Z>+<Y,[X,Z]>=0", worst, 1e-9))

    ks = float(np.max(np.abs(cd.k_basis.T @ alg.killing @ cd.s_basis))) if cd.s_basis.size else 0.0
    out.append(CheckResult("k_s_orthogonality", "<k,s>=0", ks, 1e-10))

    worst = 0.0
    for r in cd.roots:
        img = cd.theta @ r.space_basis
        other = cd.roots[r.theta_image_index].space_basis
        worst = max(worst, float(np.linalg.norm(img - other @ (other.T @ cd.b_theta @ img))))
    out.append(CheckResult("theta_root_exchange", "theta(g_a)=g_{-a}", worst, 1e-9))

    if cd.a_basis.shape[1]:
        n_plus, n_minus, z_h = al.h_subspaces(cd, cd.chamber_H)
        mismatch = abs(alg.dim - n_plus.shape[1] - n_minus.shape[1] - z_h.shape[1])
    else:
        mismatch = 0
    out.append(CheckResult("h_subspace_dims", "dim g = dim z_H + dim n+ + dim n-", float(mismatch), 0.5))

    worst = 0.0
    h_norm = alg.killing_form(cd.chamber_H, cd.chamber_H)
    for p in al.flag_orbit_sample(cd, cd.chamber_H, seed, 50):
        worst = max(worst, abs(alg.killing_form(p.point, p.point) - h_norm))
        worst = max(worst, float(np.linalg.norm(cd.project_k(p.point))))
    out.append(CheckResult("flag_norm_preservation", "<Ad(k)H,Ad(k)H>=<H,H>, Ad(k)H in s", worst, 1e-8))
    return out


def deformation_suite(cd: al.CartanData, seed: int = 0) -> list[CheckResult]:
    alg = cd.alg
    rng = np.random.default_rng(seed)
    out = []

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
    out.append(CheckResult("jacobi_r", "[X,[Y,Z]]_r + cyclic = 0", worst, 1e-10))

    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(10):
            x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
            lhs = ctx.t_r @ alg.bracket(x, y)
            rhs = df.bracket_r(ctx, ctx.t_r @ x, ctx.t_r @ y)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / max(1.0, np.linalg.norm(lhs)))
    out.append(CheckResult("t_r_isomorphism", "T_r[X,Y]=[T_rX,T_rY]_r", worst, 1e-12))

    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        for _ in range(10):
            x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
            lhs = df.killing_r(ctx, x, y)
            rhs = float(np.trace(df.ad_r(ctx, x) @ df.ad_r(ctx, y)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(CheckResult("killing_r_consistency", "<X,Y>_r = tr(ad_r X ad_r Y)", worst, 1e-8))

    worst = 0.0
    if cd.roots:
        h = cd.chamber_H
        vals = cd.root_values(h)
        for r in df.R_GRID:
            ctx = df.make_context(cd, r)
            adr_h = df.ad_r(ctx, h)
            for i, root in enumerate(cd.roots):
                for c in range(root.space_basis.shape[1]):
                    v = df.psi_r_map(ctx, root.space_basis[:, c])
                    worst = max(worst, float(np.linalg.norm(adr_h @ v - vals[i] * v)))
    out.append(CheckResult("psi_r_eigenvector", "ad_r(H) psi_r(X_a) = a(H) psi_r(X_a)", worst, 1e-9))

    worst = 0.0
    dim_k = cd.k_basis.shape[1]
    for r in df.R_GRID + (math.inf,):
        ctx = df.make_context(cd, r)
        for _ in range(5):
            a = cd.k_basis @ rng.standard_normal(dim_k)
            x = rng.standard_normal(alg.dim)
            ad_k = matrix_exp(alg.ad(a))
            worst = max(worst, float(np.linalg.norm(df.psi_r_map(ctx, ad_k @ x) - ad_k @ df.psi_r_map(ctx, x))))
    out.append(CheckResult("psi_r_equivariance", "psi_r(Ad(k)X)=Ad(k)psi_r(X), k in K", worst, 1e-8))

    worst = 0.0
    for r in (0.5, 2.0, 10.0):
        ctx = df.make_context(cd, r)
        a = cd.k_basis @ rng.standard_normal(dim_k)
        y = rng.standard_normal(alg.dim)
        t = 0.7
        lhs = df.ad_r_exp_orbit(ctx, a, t, y)
        rhs = matrix_exp((t / r) * alg.ad(a)) @ y
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    out.append(CheckResult("ad_r_exponential", "Ad_r(e^{tX})Y = Ad(e^{(t/r)X})Y", worst, 1e-9))

    if cd.roots:
        n_plus, _, _ = al.h_subspaces(cd, cd.chamber_H)
        worst = 0.0
        for r in df.R_GRID:
            ctx = df.make_context(cd, r)
            img = ctx.psi_r @ n_plus
            img_on = np.linalg.qr(img)[0]
            # r-root spaces: eigenspaces of ad_r(H) with positive eigenvalue
            adr_h = df.ad_r(ctx, cd.chamber_H)
            blocks = simultaneous_eigenspaces([adr_h])
            pos = [b for (v, b) in blocks if v[0] > 1e-8]
            pos_basis = np.hstack(pos) if pos else np.zeros((alg.dim, 0))
            worst = max(worst, _proj_residual(img_on, pos_basis))
        out.append(CheckResult("r_root_spaces", "n+_{r,H} = psi_r(n+_H)", worst, 1e-9))
    return out


def semidirect_suite(cd: al.CartanData, seed: int = 0) -> list[CheckResult]:
    alg = cd.alg
    rng = np.random.default_rng(seed)
    out = []
    dim_k, dim_s = cd.k_basis.shape[1], cd.s_basis.shape[1]

    def rand_elem():
        return sd.SemidirectElement(
            cd.k_basis @ rng.standard_normal(dim_k), cd.s_basis @ rng.standard_normal(dim_s)
        )

    worst = 0.0
    for _ in range(100):
        a, b, c = rand_elem(), rand_elem(), rand_elem()

        def norm(e):
            return np.linalg.norm(e.k_part) + np.linalg.norm(e.s_part)

        def br(x, y):
            return sd.semidirect_bracket(cd, x, y)

        j1, j2, j3 = br(a, br(b, c)), br(b, br(c, a)), br(c, br(a, b))
        resid = np.linalg.norm(j1.k_part + j2.k_part + j3.k_part) + np.linalg.norm(
            j1.s_part + j2.s_part + j3.s_part
        )
        worst = max(worst, resid / (norm(a) * norm(b) * norm(c)))
    out.append(CheckResult("jacobi_semidirect", "semidirect bracket Jacobi", worst, 1e-10))

    p_mat = np.hstack([cd.k_basis, cd.s_basis])
    gram = p_mat.T @ cd.b_theta @ p_mat
    worst = 0.0
    for _ in range(20):
        e = rand_elem()
        m = sd.ad_rho_matrix(cd, e)
        c = sd.coad_star_matrix(cd, e)
        worst = max(worst, float(np.max(np.abs(m.T @ gram + gram @ c))))
    out.append(CheckResult("coad_duality", "B(ad(e)a,b) + B(a,ad*(e)b) = 0", worst, 1e-9))

    h = cd.chamber_H
    samples = sd.sample_semidirect_orbit(cd, h, seed, 10, 3)
    worst = 0.0
    for i, p in enumerate(samples):
        for q in samples[i + 1 :]:
            if np.linalg.norm(p.base_point - q.base_point) > 1e-6:
                s_diff = np.linalg.norm(cd.project_s(p.point) - cd.project_s(q.point))
                worst = max(worst, 1.0 if s_diff < 1e-9 else 0.0)
    out.append(CheckResult("fiber_disjointness", "fibers over distinct bases are disjoint", worst, 0.5))

    if cd.roots:
        n_plus, _, _ = al.h_subspaces(cd, h)
        psi_inf = np.eye(alg.dim) + cd.theta
        img = np.linalg.qr(psi_inf @ n_plus)[0]
        fib = sd.coadjoint_fiber(cd, h)
        out.append(
            CheckResult("fiber_is_psi_n_plus", "[H,s] = psi(n+_H)", _proj_residual(img, fib), 1e-9)
        )

        ctx_inf = df.make_context(cd, math.inf)
        dsamples = df.sample_deformed_orbit(ctx_inf, h, seed, 10, 3)
        worst = 0.0
        for p, q in zip(samples, dsamples):
            worst = max(worst, float(np.linalg.norm(p.base_point - q.base_point)))
            fib_p = sd.coadjoint_fiber(cd, p.base_point)
            kq = cd.project_k(q.point)
            worst = max(worst, float(np.linalg.norm(kq - fib_p @ (fib_p.T @ kq))))
        out.append(
            CheckResult("semidirect_matches_r_inf", "K_ad.H = Ad_inf(G).H", worst, 1e-8)
        )

    worst = 0.0
    for p in samples:
        w, cov = sd.phi_cotangent(cd, p)
        m = sd.cotangent_moment(cd, w, cov)
        worst = max(worst, float(np.linalg.norm((m.k_part + m.s_part) - p.point)))
    out.append(CheckResult("moment_inverts_phi", "m(phi(p)) = p", worst, 1e-9))
    return out


def symplectic_suite(cd: al.CartanData, seed: int = 0) -> list[CheckResult]:
    if cd.alg.field_tag != "complex":
        return []
    rng = np.random.default_rng(seed)
    hc = sp.make_hermitian_context(cd)
    alg = cd.alg
    out = []

    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(alg.dim)
        worst = max(worst, abs(hc.omega.value(x, x)))
    out.append(CheckResult("omega_alternating", "Omega(X,X)=0", worst, 1e-12))

    worst = 0.0
    for _ in range(10):
        a = cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1])
        ad_k = matrix_exp(alg.ad(a))
        worst = max(worst, float(np.max(np.abs(ad_k.T @ hc.omega.gram @ ad_k - hc.omega.gram))))
    out.append(CheckResult("omega_invariance", "Omega(Ad(u)X, Ad(u)Y)=Omega(X,Y)", worst, 1e-8))

    u_iso = float(np.max(np.abs(cd.k_basis.T @ hc.omega.gram @ cd.k_basis)))
    out.append(CheckResult("u_isotropic", "Omega|u = 0", u_iso, 1e-12))

    h = cd.chamber_H
    ctx_inf = df.make_context(cd, math.inf)
    samples = df.sample_deformed_orbit(ctx_inf, h, seed, 25, 3)
    report = sp.check_symplectic_on_orbit(hc, samples, "semidirect")
    out.append(
        CheckResult(
            "orbit_nondegenerate",
            "Omega restricted to the semidirect orbit is symplectic",
            1e-8 / max(report["min_sv_ratio"], 1e-300),
            1.0,
        )
    )
    out.append(CheckResult("fiber_isotropic", "Omega|fiber = 0", report["max_fiber_omega"], 1e-10))
    out.append(
        CheckResult(
            "fiber_maximal_isotropic",
            "2 dim(fiber) = dim(orbit)",
            0.0 if report["fiber_maximal_isotropic"] else 1.0,
            0.5,
        )
    )

    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(0, d + 1))
        pmat = rng.standard_normal((d, k))
        g = pmat @ rng.standard_normal((k, k)) @ pmat.T
        form = sp.make_skew_form(g - g.T)
        rad = sp.radical(form)
        w = sp.max_isotropic(form)
        worst = max(worst, abs(2 * w.shape[1] - d - rad.shape[1]))
        worst = max(worst, float(np.max(np.abs(w.T @ form.gram @ w))) if w.size else 0.0)
    out.append(CheckResult("max_isotropic_dim", "2 dim W = dim V + dim R", worst, 0.5))

    flag = al.flag_orbit_sample(cd, h, seed, 10)
    out.append(
        CheckResult(
            "gradient_hamiltonian",
            "dF(w) = Omega(w, iY)",
            sp.gradient_hamiltonian_residual(hc, h, flag),
            1e-6,
        )
    )

    fr, sr = sp.hamiltonian_q_check(hc, cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1]), seed)
    out.append(CheckResult("hamiltonian_q", "d(Q/2)/dt = Omega(ad(A)a', a)", fr, 1e-6))
    out.append(CheckResult("beta_symmetric", "beta_A(X,Y)=beta_A(Y,X)", sr, 1e-10))

    worst_zero, nonzero_ok = 0.0, 1.0
    for p in samples[:20]:
        x = p.point
        mom = float(np.linalg.norm(sp.u_moment(hc, x)))
        tb = sp.orbit_tangent_basis(hc, p, "flag")  # compact orbit through x
        restr = float(np.max(np.abs(tb.T @ hc.omega.gram @ tb))) if tb.size else 0.0
        if mom < 1e-10:
            worst_zero = max(worst_zero, restr)
        elif mom > 1e-3:
            nonzero_ok = min(nonzero_ok, restr)
    out.append(CheckResult("isotropy_criterion_zero", "mu=0 => compact orbit isotropic", worst_zero, 1e-8))
    out.append(
        CheckResult(
            "isotropy_criterion_nonzero",
            "mu!=0 => compact orbit not isotropic",
            1e-8 / max(nonzero_ok, 1e-300),
            1.0,
        )
    )
    return out

