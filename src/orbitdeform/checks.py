"""Verification suites shared by the CLI `verify` command and the tests.

Each check evaluates one identity of the orbit-deformation theory at
seeded random samples and reports the observed residual against its
threshold.  Anchors are the identities themselves, written as short
formula strings.

SUITES names the suites in report order; run() looks each one up as the
module attribute <name>_suite when it runs, so a wrapper set on that
attribute is the function that runs.  Every suite is called as
<name>_suite(cd, h, seed), h the chamber element the checks sample at,
which the caller resolves with algebra.chamber_element; the numerics
suite checks library kernels and the joint eigenspaces of cd's ad(a),
and does not read h.  Each suite decides whether it applies to an
algebra: the deformation and semidirect suites return [] on an algebra
without roots (so(3), so(4)), the symplectic suite on one without a
complex structure J.

Every check hands its residuals to _check, the one reduction: a scalar,
an array, or a list of them (one per r), reduced to their largest value
as np.max reckons it.  A NaN residual is therefore the result and fails
the check; no residuals at all read 0.  A check that selects its samples
by a mask passes the NaN entries of what it masks too, so they fail it.

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
from .numerics import (
    apply, bilinear, cutoff, matrix_exp, nullspace, rank, simultaneous_eigenspaces,
)

SUITES = ("numerics", "algebra", "deformation", "semidirect", "symplectic")


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


def run(cd: al.CartanData, h: np.ndarray, seed: int, suite: str = "all") -> list[CheckResult]:
    """The results of the suite named, or of every suite in SUITES order for "all", at H = h."""
    results = []
    for name in SUITES:
        if suite in ("all", name):
            # read at each call, so a wrapper set on the attribute (perfbench/tracer.py) runs
            results += globals()[f"{name}_suite"](cd, h, seed)
    return results


def _check(name: str, anchor: str, residuals, threshold: float) -> CheckResult:
    """The check's result: the largest of its residuals, NaN if any is NaN."""
    if isinstance(residuals, list):
        # one flat array, whatever the shapes of the parts
        residuals = np.concatenate([np.zeros(0), *map(np.ravel, residuals)])
    return CheckResult(name, anchor, float(np.max(residuals, initial=0.0)), threshold)


def _proj_residual(cd: al.CartanData, a: np.ndarray, b: np.ndarray) -> float:
    """Mutual projection residual between two B_theta-orthonormal column spans (sd.span_basis)."""
    ra = np.linalg.norm(a.T - sd.span_projection(cd, b, a.T))
    rb = np.linalg.norm(b.T - sd.span_projection(cd, a, b.T))
    return float(max(ra, rb))


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each vector of a (..., dim) stack, from stacked dot products."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _draw(rng: np.random.Generator, n: int, k: int, dim: int) -> np.ndarray:
    """k arrays of n vectors: the values of n rounds of k sequential standard_normal(dim) draws."""
    return np.moveaxis(rng.standard_normal((n, k, dim)), 1, 0)


def numerics_suite(cd: al.CartanData, h: np.ndarray, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    by_size: dict[int, list[np.ndarray]] = {}
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a *= min(1.0, 5.0 / np.linalg.norm(a))
        by_size.setdefault(n, []).append(a)
    inverse = []
    for n, mats in by_size.items():
        a = np.stack(mats)
        e = matrix_exp(np.stack([a, -a]))
        # Frobenius norms as np.linalg.norm reckons them: the norm of the flattened matrix
        inverse.append(_norms((e[0] @ e[1] - np.eye(n)).reshape(len(a), -1)))
    out = [_check("exp_inverse", "exp(A)exp(-A)=I", inverse, 1e-10)]

    null, orth = [], []
    for _ in range(20):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        ns = nullspace(a)
        if ns.shape[1]:
            null.append(float(np.linalg.norm(a @ ns)) / (10 * cutoff(np.abs(a).max())))
            orth.append(np.linalg.norm(ns.T @ ns - np.eye(ns.shape[1])))
    out.append(_check("nullspace_quality", "||A v||<=10*tol, v orthonormal", null, 1.0))
    out.append(_check("nullspace_orthonormal", "v_i . v_j = delta_ij", orth, 1e-12))

    # ad(a), an empty family on so(n), whose one joint eigenspace is g
    total = sum(b.shape[1] for _, b in simultaneous_eigenspaces(cd.alg.ad(cd.a_basis.T), cd.b_theta))
    out.append(_check("eigenspace_completeness", "sum dim g_a = dim g", abs(total - cd.alg.dim), 0.5))
    return out


def algebra_suite(cd: al.CartanData, h: np.ndarray, seed: int = 0) -> list[CheckResult]:
    alg = cd.alg
    rng = np.random.default_rng(seed)
    x, y, z = _draw(rng, 100, 3, alg.dim)
    jac = alg.bracket(x, alg.bracket(y, z)) + alg.bracket(y, alg.bracket(z, x)) + alg.bracket(z, alg.bracket(x, y))
    out = [_check("jacobi", "[X,[Y,Z]]+[Y,[Z,X]]+[Z,[X,Y]]=0",
                  _norms(jac) / (_norms(x) * _norms(y) * _norms(z)), 1e-10)]

    x, y, z = _draw(rng, 100, 3, alg.dim)
    resid = np.abs(alg.killing_form(alg.bracket(x, y), z) + alg.killing_form(y, alg.bracket(x, z)))
    out.append(_check("killing_ad_invariance", "<[X,Y],Z>+<Y,[X,Z]>=0",
                      resid / (_norms(x) * _norms(y) * _norms(z)), 1e-9))

    out.append(_check("k_s_orthogonality", "<k,s>=0",
                      np.abs(alg.killing[cd.signs > 0][:, cd.signs < 0]), 1e-10))

    exchange = []
    for r in cd.roots:
        img = cd.signs[:, None] * r.space_basis
        other = cd.roots[r.theta_image_index].space_basis
        exchange.append(np.linalg.norm(img - other @ (other.T @ cd.b_theta @ img)))
    out.append(_check("theta_root_exchange", "theta(g_a)=g_{-a}", exchange, 1e-9))

    n_plus, n_minus, z_h = al.h_subspaces(cd, h)
    out.append(_check("h_subspace_dims", "dim g = dim z_H + dim n+ + dim n-",
                      abs(alg.dim - n_plus.shape[1] - n_minus.shape[1] - z_h.shape[1]), 0.5))

    h_norm = alg.killing_form(h, h)
    x = al.flag_orbit_sample(cd, h, seed, 50)
    norm_err = np.abs((x[..., None, :] @ alg.killing @ x[..., None]) - h_norm)
    out.append(_check("flag_norm_preservation", "<Ad(k)H,Ad(k)H>=<H,H>, Ad(k)H in s",
                      [norm_err, _norms(cd.project_k(x))], 1e-8))
    return out


def deformation_suite(cd: al.CartanData, h: np.ndarray, seed: int = 0) -> list[CheckResult]:
    if not cd.roots:
        return []
    alg = cd.alg
    rng = np.random.default_rng(seed)
    ctx = {r: df.make_context(cd, r) for r in df.R_GRID_FULL}
    adr_h = {r: df.ad_r(ctx[r], h) for r in df.R_GRID}

    jacobi = []
    for r in df.R_GRID:
        x, y, z = _draw(rng, 100 // len(df.R_GRID) + 1, 3, alg.dim)
        jac = (
            df.bracket_r(ctx[r], x, df.bracket_r(ctx[r], y, z))
            + df.bracket_r(ctx[r], y, df.bracket_r(ctx[r], z, x))
            + df.bracket_r(ctx[r], z, df.bracket_r(ctx[r], x, y))
        )
        jacobi.append(_norms(jac) / (_norms(x) * _norms(y) * _norms(z)))
    out = [_check("jacobi_r", "[X,[Y,Z]]_r + cyclic = 0", jacobi, 1e-10)]

    iso = []
    for r in df.R_GRID:
        x, y = _draw(rng, 10, 2, alg.dim)
        lhs = ctx[r].t_r * alg.bracket(x, y)
        rhs = df.bracket_r(ctx[r], ctx[r].t_r * x, ctx[r].t_r * y)
        iso.append(_norms(lhs - rhs) / np.maximum(1.0, _norms(lhs)))
    out.append(_check("t_r_isomorphism", "T_r[X,Y]=[T_rX,T_rY]_r", iso, 1e-12))

    killing = []
    for r in df.R_GRID:
        x, y = _draw(rng, 10, 2, alg.dim)
        lhs = df.killing_r(ctx[r], x, y)
        rhs = np.trace(df.ad_r(ctx[r], x) @ df.ad_r(ctx[r], y), axis1=-2, axis2=-1)
        killing.append(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    out.append(_check("killing_r_consistency", "<X,Y>_r = tr(ad_r X ad_r Y)", killing, 1e-8))

    # every root vector X_a as a row, with its value a(H)
    root_vecs = np.hstack([root.space_basis for root in cd.roots]).T
    vals = np.repeat(cd.root_values(h), [root.space_basis.shape[1] for root in cd.roots])
    eigen = []
    for r in df.R_GRID:
        v = df.psi_r_map(ctx[r], root_vecs)
        eigen.append(_norms(apply(adr_h[r], v) - vals[:, None] * v))
    out.append(_check("psi_r_eigenvector", "ad_r(H) psi_r(X_a) = a(H) psi_r(X_a)", eigen, 1e-9))

    dim_k = cd.k_basis.shape[1]
    # per r, five rounds of (k-coefficients of a, then x)
    coeffs = rng.standard_normal((len(df.R_GRID_FULL), 5, dim_k + alg.dim))
    k = matrix_exp(alg.to_matrix(apply(cd.k_basis, coeffs[..., :dim_k])))
    moved = [_norms(df.psi_r_map(ctx[r], alg.conjugate(g, x)) - alg.conjugate(g, df.psi_r_map(ctx[r], x)))
             for r, g, x in zip(df.R_GRID_FULL, k, coeffs[..., dim_k:])]
    out.append(_check("psi_r_equivariance", "psi_r(Ad(k)X)=Ad(k)psi_r(X), k in K", moved, 1e-8))

    expo = []
    for r in (0.5, 2.0, 10.0):
        a = cd.k_basis @ rng.standard_normal(dim_k)
        y = rng.standard_normal(alg.dim)
        t = 0.7
        lhs = df.ad_r_exp_orbit(ctx[r], a, t, y)
        rhs = alg.conjugate(matrix_exp((t / r) * alg.to_matrix(a)), y)
        expo.append(np.linalg.norm(lhs - rhs))
    out.append(_check("ad_r_exponential", "Ad_r(e^{tX})Y = Ad(e^{(t/r)X})Y", expo, 1e-9))

    n_plus, _, _ = al.h_subspaces(cd, h)
    spaces = []
    for r in df.R_GRID:
        img_on = sd.span_basis(cd, ctx[r].psi_r[:, None] * n_plus)
        # r-root spaces: eigenspaces of ad_r(H) with positive eigenvalue; ad_r(H) is
        # symmetric for T_r^-1 B_theta T_r^-1, as ad(H) is for B_theta
        metric = ctx[r].t_r_inv[:, None] * cd.b_theta * ctx[r].t_r_inv
        pos = [b for (v, b) in simultaneous_eigenspaces(adr_h[r][None], metric) if v[0] > 1e-8]
        pos_basis = sd.span_basis(cd, np.hstack(pos) if pos else np.zeros((alg.dim, 0)))
        spaces.append(_proj_residual(cd, img_on, pos_basis))
    out.append(_check("r_root_spaces", "n+_{r,H} = psi_r(n+_H)", spaces, 1e-9))
    return out


def semidirect_suite(cd: al.CartanData, h: np.ndarray, seed: int = 0) -> list[CheckResult]:
    if not cd.roots:
        return []
    alg = cd.alg
    rng = np.random.default_rng(seed)
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
    out = [_check("jacobi_semidirect", "semidirect bracket Jacobi",
                  norm(jac) / (norm(a) * norm(b) * norm(c)), 1e-10)]

    e = rand_elems(20)
    m, c = sd.ad_rho_matrix(cd, e), sd.coad_star_matrix(cd, e)
    out.append(_check("coad_duality", "B(ad(e)a,b) + B(a,ad*(e)b) = 0",
                      np.abs(np.swapaxes(m, -1, -2) @ cd.b_theta + cd.b_theta @ c), 1e-9))

    batch = sd.sample_semidirect_orbit(cd, h, seed, 10, 3)
    base = np.broadcast_to(batch.base_points[:, None], batch.points.shape).reshape(-1, alg.dim)
    s_part = cd.project_s(batch.points.reshape(-1, alg.dim))
    # every pair of samples, in row-major order: distinct bases must give distinct s-parts
    d_base, d_s = _norms(base[:, None] - base[None]), _norms(s_part[:, None] - s_part[None])
    clash = float(np.triu((d_base > 1e-6) & (d_s < 1e-9), 1).any())
    out.append(_check("fiber_disjointness", "fibers over distinct bases are disjoint",
                      [clash, d_base[np.isnan(d_base)], d_s[np.isnan(d_s)]], 0.5))

    n_plus, _, _ = al.h_subspaces(cd, h)
    ctx_inf = df.make_context(cd, math.inf)
    img = sd.span_basis(cd, ctx_inf.psi_r[:, None] * n_plus)
    fib = sd.coadjoint_fiber(cd, h)
    out.append(_check("fiber_is_psi_n_plus", "[H,s] = psi(n+_H)",
                      _proj_residual(cd, img, fib), 1e-9))

    dbatch = df.sample_deformed_orbit(ctx_inf, h, seed, 10, 3)
    kq = cd.project_k(dbatch.points)
    off_fiber = kq - sd.span_projection(cd, sd.coadjoint_fiber(cd, batch.base_points)[:, None], kq)
    out.append(_check("semidirect_matches_r_inf", "K_ad.H = Ad_inf(G).H",
                      [_norms(batch.base_points - dbatch.base_points), _norms(off_fiber)], 1e-8))

    m = sd.cotangent_moment(cd, *sd.phi_cotangent(cd, batch))
    out.append(_check("moment_inverts_phi", "m(phi(p)) = p", _norms(m - batch.points), 1e-9))
    return out


def symplectic_suite(cd: al.CartanData, h: np.ndarray, seed: int = 0) -> list[CheckResult]:
    if cd.alg.j_op is None:
        return []
    rng = np.random.default_rng(seed)
    hc = sp.make_hermitian_context(cd)
    alg = cd.alg

    x = rng.standard_normal((50, alg.dim))
    out = [_check("omega_alternating", "Omega(X,X)=0", np.abs(bilinear(x, hc.omega, x)), 1e-12)]

    u = matrix_exp(alg.to_matrix(apply(cd.k_basis, rng.standard_normal((10, cd.k_basis.shape[1])))))
    # the columns of each Ad(u) are its images of the basis
    ad_u = np.swapaxes(alg.conjugate(u[:, None], np.eye(alg.dim)), -1, -2)
    out.append(_check("omega_invariance", "Omega(Ad(u)X, Ad(u)Y)=Omega(X,Y)",
                      np.abs(np.swapaxes(ad_u, -1, -2) @ hc.omega @ ad_u - hc.omega), 1e-8))
    # the metric of every orbit basis is K-invariant, so Ad(u) carries bases to bases
    out.append(_check("b_theta_invariance", "B_theta(Ad(u)X, Ad(u)Y)=B_theta(X,Y)",
                      np.abs(np.swapaxes(ad_u, -1, -2) @ cd.b_theta @ ad_u - cd.b_theta), 1e-8))

    out.append(_check("u_isotropic", "Omega|u = 0",
                      np.abs(hc.omega[cd.signs > 0][:, cd.signs > 0]), 1e-12))

    ctx_inf = df.make_context(cd, math.inf)
    samples = df.sample_deformed_orbit(ctx_inf, h, seed, 25, 3)
    report = sp.check_symplectic_on_orbit(hc, samples)
    out.append(_check("orbit_nondegenerate", "Omega restricted to the semidirect orbit is symplectic",
                      1e-8 / max(report["min_sv_ratio"], 1e-300), 1.0))
    out.append(_check("fiber_isotropic", "Omega|fiber = 0", report["max_fiber_omega"], 1e-10))
    out.append(_check("fiber_maximal_isotropic", "2 dim(fiber) = dim(orbit)",
                      0.0 if report["fiber_maximal_isotropic"] else 1.0, 0.5))

    by_size: dict[int, list[np.ndarray]] = {}
    for _ in range(200):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(0, d + 1))
        pmat = rng.standard_normal((d, k))
        g = pmat @ rng.standard_normal((k, k)) @ pmat.T
        by_size.setdefault(d, []).append(g - g.T)
    isotropic = []
    for d, grams in by_size.items():
        forms = sp.make_skew_form(np.stack(grams))
        dim_r = d - rank(forms)
        # the bases differ in width, so their residuals are read one by one
        for w, n_rad, g in zip(sp.max_isotropic(forms), dim_r, forms):
            isotropic += [abs(2 * w.shape[1] - d - n_rad), np.abs(w.T @ g @ w)]
    out.append(_check("max_isotropic_dim", "2 dim W = dim V + dim R", isotropic, 0.5))

    flag = al.flag_orbit_sample(cd, h, seed, 10)
    out.append(_check("gradient_hamiltonian", "dF(w) = Omega(w, iY)",
                      sp.gradient_hamiltonian_residual(hc, h, flag), 1e-6))

    fr, sr = sp.hamiltonian_q_check(hc, cd.k_basis @ rng.standard_normal(cd.k_basis.shape[1]), seed)
    out.append(_check("hamiltonian_q", "d(Q/2)/dt = Omega(ad(A)a', a)", fr, 1e-6))
    out.append(_check("beta_symmetric", "beta_A(X,Y)=beta_A(Y,X)", sr, 1e-10))

    def moment_and_omega(x):
        # |mu(x)| and max |Omega| on the tangents of the compact orbit through x
        tangents = sp.orbit_tangent_basis(hc, x, "flag")
        return _norms(sp.u_moment(hc, x)), sp.max_omega(hc, tangents)

    # mu = 0 on the flag points; off it, at the first 20 samples of the orbit
    mom, restr = moment_and_omega(samples.base_points)
    out.append(_check("isotropy_criterion_zero", "mu=0 => compact orbit isotropic",
                      [restr[mom < 1e-10], mom[np.isnan(mom)]], 1e-8))
    mom, restr = moment_and_omega(samples.points.reshape(-1, alg.dim)[:20])
    # the smallest restriction where mu != 0; none such fails the check
    restr = restr[mom > 1e-3]
    smallest = float(restr.min()) if restr.size else 0.0
    out.append(_check("isotropy_criterion_nonzero", "mu!=0 => compact orbit not isotropic",
                      [1e-8 / max(smallest, 1e-300), mom[np.isnan(mom)]], 1.0))
    return out
