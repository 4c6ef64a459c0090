"""Verification suites shared by the CLI `verify` command and the tests.

Each check evaluates one identity of the orbit-deformation theory at
seeded random samples and reports the observed residual against its
threshold.  Anchors are the identities themselves, written as short
formula strings.

Each check is one stacked evaluation: it draws its samples as one array
(rng.standard_normal((n, k, dim)) gives the values of n x k sequential
draws) and evaluates its identity with one stacked call of the library
function per parameter value.  Only the draws whose sizes are themselves
random loop; their kernels run once per size.  The stacked products give
the bits of the per-sample ones, so the residuals do not depend on the
grouping.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import algebra as al
from . import deformation as df
from . import semidirect as sd
from . import symplectic as sp
from .numerics import TOL, apply, matrix_exp, nullspace, rank, simultaneous_eigenspaces


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


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each vector of a (..., dim) stack, from stacked dot products."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _draw(rng: np.random.Generator, n: int, k: int, dim: int) -> np.ndarray:
    """k arrays of n vectors: the values of n rounds of k sequential standard_normal(dim) draws."""
    return np.moveaxis(rng.standard_normal((n, k, dim)), 1, 0)


def numerics_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    by_size: dict[int, list[np.ndarray]] = {}
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a *= min(1.0, 5.0 / np.linalg.norm(a))
        by_size.setdefault(n, []).append(a)
    worst = 0.0
    for n, mats in by_size.items():
        a = np.stack(mats)
        e = matrix_exp(np.stack([a, -a]))
        # Frobenius norms as np.linalg.norm reckons them: the norm of the flattened matrix
        worst = max(worst, float(_norms((e[0] @ e[1] - np.eye(n)).reshape(len(a), -1)).max()))
    out.append(CheckResult("exp_inverse", "exp(A)exp(-A)=I", worst, 1e-10))

    worst_null, worst_orth = 0.0, 0.0
    for _ in range(20):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        ns = nullspace(a)
        if ns.shape[1]:
            worst_null = max(worst_null, float(np.linalg.norm(a @ ns)) / (10 * TOL.scale(a)))
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
    x, y, z = _draw(rng, 100, 3, alg.dim)
    jac = alg.bracket(x, alg.bracket(y, z)) + alg.bracket(y, alg.bracket(z, x)) + alg.bracket(z, alg.bracket(x, y))
    worst = float((_norms(jac) / (_norms(x) * _norms(y) * _norms(z))).max())
    out.append(CheckResult("jacobi", "[X,[Y,Z]]+[Y,[Z,X]]+[Z,[X,Y]]=0", worst, 1e-10))

    x, y, z = _draw(rng, 100, 3, alg.dim)
    resid = np.abs(alg.killing_form(alg.bracket(x, y), z) + alg.killing_form(y, alg.bracket(x, z)))
    worst = float((resid / (_norms(x) * _norms(y) * _norms(z))).max())
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

    h_norm = alg.killing_form(cd.chamber_H, cd.chamber_H)
    x = al.flag_orbit_sample(cd, cd.chamber_H, seed, 50).points
    norm_err = np.abs((x[..., None, :] @ alg.killing @ x[..., None]) - h_norm)
    worst = float(max(norm_err.max(), _norms(cd.project_k(x)).max()))
    out.append(CheckResult("flag_norm_preservation", "<Ad(k)H,Ad(k)H>=<H,H>, Ad(k)H in s", worst, 1e-8))
    return out


def deformation_suite(cd: al.CartanData, seed: int = 0) -> list[CheckResult]:
    alg = cd.alg
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        x, y, z = _draw(rng, 100 // len(df.R_GRID) + 1, 3, alg.dim)
        jac = (
            df.bracket_r(ctx, x, df.bracket_r(ctx, y, z))
            + df.bracket_r(ctx, y, df.bracket_r(ctx, z, x))
            + df.bracket_r(ctx, z, df.bracket_r(ctx, x, y))
        )
        worst = max(worst, float((_norms(jac) / (_norms(x) * _norms(y) * _norms(z))).max()))
    out.append(CheckResult("jacobi_r", "[X,[Y,Z]]_r + cyclic = 0", worst, 1e-10))

    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        x, y = _draw(rng, 10, 2, alg.dim)
        lhs = apply(ctx.t_r, alg.bracket(x, y))
        rhs = df.bracket_r(ctx, apply(ctx.t_r, x), apply(ctx.t_r, y))
        worst = max(worst, float((_norms(lhs - rhs) / np.maximum(1.0, _norms(lhs))).max()))
    out.append(CheckResult("t_r_isomorphism", "T_r[X,Y]=[T_rX,T_rY]_r", worst, 1e-12))

    worst = 0.0
    for r in df.R_GRID:
        ctx = df.make_context(cd, r)
        x, y = _draw(rng, 10, 2, alg.dim)
        lhs = df.killing_r(ctx, x, y)
        rhs = np.trace(df.ad_r(ctx, x) @ df.ad_r(ctx, y), axis1=-2, axis2=-1)
        worst = max(worst, float((np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))).max()))
    out.append(CheckResult("killing_r_consistency", "<X,Y>_r = tr(ad_r X ad_r Y)", worst, 1e-8))

    worst = 0.0
    if cd.roots:
        h = cd.chamber_H
        # every root vector X_a as a row, with its value a(H)
        root_vecs = np.hstack([root.space_basis for root in cd.roots]).T
        vals = np.repeat(cd.root_values(h), [root.space_basis.shape[1] for root in cd.roots])
        for r in df.R_GRID:
            ctx = df.make_context(cd, r)
            v = df.psi_r_map(ctx, root_vecs)
            worst = max(worst, float(_norms(apply(df.ad_r(ctx, h), v) - vals[:, None] * v).max()))
    out.append(CheckResult("psi_r_eigenvector", "ad_r(H) psi_r(X_a) = a(H) psi_r(X_a)", worst, 1e-9))

    worst = 0.0
    dim_k = cd.k_basis.shape[1]
    # per r, five rounds of (k-coefficients of a, then x)
    coeffs = rng.standard_normal((len(df.R_GRID_FULL), 5, dim_k + alg.dim))
    ad_k = matrix_exp(alg.ad(apply(cd.k_basis, coeffs[..., :dim_k])))
    for r, ad_k_r, x in zip(df.R_GRID_FULL, ad_k, coeffs[..., dim_k:]):
        ctx = df.make_context(cd, r)
        moved = df.psi_r_map(ctx, apply(ad_k_r, x)) - apply(ad_k_r, df.psi_r_map(ctx, x))
        worst = max(worst, float(_norms(moved).max()))
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

    def rand_elems(*shape):
        # each element draws its k-coefficients, then its s-coefficients
        c = rng.standard_normal((*shape, dim_k + dim_s))
        return apply(cd.k_basis, c[..., :dim_k]) + apply(cd.s_basis, c[..., dim_k:])

    def norm(e):
        return _norms(cd.project_k(e)) + _norms(cd.project_s(e))

    def br(x, y):
        return sd.semidirect_bracket(cd, x, y)

    a, b, c = np.moveaxis(rand_elems(100, 3), 1, 0)
    jac = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
    worst = float((norm(jac) / (norm(a) * norm(b) * norm(c))).max())
    out.append(CheckResult("jacobi_semidirect", "semidirect bracket Jacobi", worst, 1e-10))

    e = rand_elems(20)
    m, c = sd.ad_rho_matrix(cd, e), sd.coad_star_matrix(cd, e)
    worst = float(np.max(np.abs(np.swapaxes(m, -1, -2) @ cd.b_theta + cd.b_theta @ c)))
    out.append(CheckResult("coad_duality", "B(ad(e)a,b) + B(a,ad*(e)b) = 0", worst, 1e-9))

    h = cd.chamber_H
    batch = sd.sample_semidirect_orbit(cd, h, seed, 10, 3)
    base = np.broadcast_to(batch.base_points[:, None], batch.points.shape).reshape(-1, alg.dim)
    s_part = cd.project_s(batch.points.reshape(-1, alg.dim))
    # every pair of samples, in row-major order: distinct bases must give distinct s-parts
    far = _norms(base[:, None] - base[None]) > 1e-6
    same_s = _norms(s_part[:, None] - s_part[None]) < 1e-9
    worst = float(np.triu(far & same_s, 1).any())
    out.append(CheckResult("fiber_disjointness", "fibers over distinct bases are disjoint", worst, 0.5))

    if cd.roots:
        n_plus, _, _ = al.h_subspaces(cd, h)
        ctx_inf = df.make_context(cd, math.inf)
        img = np.linalg.qr(ctx_inf.psi_r @ n_plus)[0]
        fib = sd.coadjoint_fiber(cd, h)
        out.append(
            CheckResult("fiber_is_psi_n_plus", "[H,s] = psi(n+_H)", _proj_residual(img, fib), 1e-9)
        )

        dbatch = df.sample_deformed_orbit(ctx_inf, h, seed, 10, 3)
        fib = sd.coadjoint_fiber(cd, batch.base_points)[:, None]
        kq = cd.project_k(dbatch.points)[..., None]
        off_fiber = (kq - fib @ (np.swapaxes(fib, -1, -2) @ kq))[..., 0]
        worst = float(max(_norms(batch.base_points - dbatch.base_points).max(),
                          _norms(off_fiber).max()))
        out.append(
            CheckResult("semidirect_matches_r_inf", "K_ad.H = Ad_inf(G).H", worst, 1e-8)
        )

    m = sd.cotangent_moment(cd, *sd.phi_cotangent(batch))
    worst = float(_norms(m - batch.points).max())
    out.append(CheckResult("moment_inverts_phi", "m(phi(p)) = p", worst, 1e-9))
    return out


def symplectic_suite(cd: al.CartanData, seed: int = 0) -> list[CheckResult]:
    if cd.alg.field_tag != "complex":
        return []
    rng = np.random.default_rng(seed)
    hc = sp.make_hermitian_context(cd)
    alg = cd.alg
    out = []

    x = rng.standard_normal((50, alg.dim))
    worst = float(np.abs(hc.omega.value(x, x)).max())
    out.append(CheckResult("omega_alternating", "Omega(X,X)=0", worst, 1e-12))

    ad_k = matrix_exp(alg.ad(apply(cd.k_basis, rng.standard_normal((10, cd.k_basis.shape[1])))))
    gram = hc.omega.gram
    worst = float(np.max(np.abs(np.swapaxes(ad_k, -1, -2) @ gram @ ad_k - gram)))
    out.append(CheckResult("omega_invariance", "Omega(Ad(u)X, Ad(u)Y)=Omega(X,Y)", worst, 1e-8))

    u_iso = float(np.max(np.abs(cd.k_basis.T @ hc.omega.gram @ cd.k_basis)))
    out.append(CheckResult("u_isotropic", "Omega|u = 0", u_iso, 1e-12))

    h = cd.chamber_H
    ctx_inf = df.make_context(cd, math.inf)
    samples = df.sample_deformed_orbit(ctx_inf, h, seed, 25, 3)
    report = sp.check_symplectic_on_orbit(hc, samples)
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

    by_size: dict[int, list[np.ndarray]] = {}
    for _ in range(200):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(0, d + 1))
        pmat = rng.standard_normal((d, k))
        g = pmat @ rng.standard_normal((k, k)) @ pmat.T
        by_size.setdefault(d, []).append(g - g.T)
    worst = 0.0
    for d, grams in by_size.items():
        forms = sp.make_skew_form(np.stack(grams))
        dim_r = d - rank(forms.gram)
        # the bases differ in width, so their residuals are read one by one
        for w, n_rad, g in zip(sp.max_isotropic(forms), dim_r, forms.gram):
            worst = max(worst, float(abs(2 * w.shape[1] - d - n_rad)),
                        float(np.abs(w.T @ g @ w).max(initial=0.0)))
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

    def moment_and_omega(x):
        # |mu(x)| and max |Omega| on the tangents of the compact orbit through x
        tangents = sp.orbit_tangent_basis(hc, x, "flag")
        return _norms(sp.u_moment(hc, x)), sp.max_omega(hc, tangents)

    # mu = 0 on the flag points; off it, at the first 20 samples of the orbit
    mom, restr = moment_and_omega(samples.base_points)
    worst_zero = float(restr[mom < 1e-10].max(initial=0.0))
    mom, restr = moment_and_omega(samples.points.reshape(-1, alg.dim)[:20])
    # the smallest restriction where mu != 0; none such fails the check
    restr = restr[mom > 1e-3]
    smallest = float(restr.min()) if restr.size else 0.0
    out.append(CheckResult("isotropy_criterion_zero", "mu=0 => compact orbit isotropic", worst_zero, 1e-8))
    out.append(
        CheckResult(
            "isotropy_criterion_nonzero",
            "mu!=0 => compact orbit not isotropic",
            1e-8 / max(smallest, 1e-300),
            1.0,
        )
    )
    return out

