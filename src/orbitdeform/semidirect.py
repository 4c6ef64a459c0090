"""Semidirect products k x_ad s and their coadjoint orbit geometry.

Two instantiations of the compact-group-on-inner-product-space setup:

  * the Cartan case: K acting by ad on s inside a semisimple algebra,
    where the moment map of the representation is mu(X ^ Y) = [X, Y];
  * the canonical case: SO(n) acting on R^n, where mu(v ^ w) is the
    antisymmetric matrix w v^T - v w^T.

Coadjoint orbits through a point x are affine bundles over the compact
orbit of x: each point decomposes as w + mu(w ^ v) with w on the base
orbit and the fiber part in the dual of the tangent space at w.  The
map phi sends a fiber point to the covector it induces via the inner
product; the moment application m inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    CartanData,
    DomainError,
    LieAlgebraData,
    OrbitSample,
    RepresentationError,
    build_algebra,
    h_subspaces,
    sample_k_operators,
)
from .numerics import DimensionError, Tolerance, matrix_exp, orthonormal_range


@dataclass(frozen=True)
class SemidirectElement:
    """(X, v) with X in k and v in s, both as ambient coefficient vectors."""

    k_part: np.ndarray
    s_part: np.ndarray


@dataclass(frozen=True)
class CoadjointFiber:
    base: np.ndarray  # w on the compact orbit, ambient coefficients
    fiber_basis: np.ndarray  # orthonormal columns spanning [w, s] in k


def make_element(
    cd: CartanData, k_part: np.ndarray, s_part: np.ndarray, tol: Tolerance = Tolerance()
) -> SemidirectElement:
    k_part = np.asarray(k_part, dtype=float)
    s_part = np.asarray(s_part, dtype=float)
    eps = max(tol.abs_eps, 1e-10)
    if np.linalg.norm(cd.project_s(k_part)) > eps * (1 + np.linalg.norm(k_part)):
        raise DomainError("k_part has a component outside k")
    if np.linalg.norm(cd.project_k(s_part)) > eps * (1 + np.linalg.norm(s_part)):
        raise DomainError("s_part has a component outside s")
    return SemidirectElement(k_part=k_part, s_part=s_part)


def semidirect_bracket(
    cd: CartanData, a: SemidirectElement, b: SemidirectElement
) -> SemidirectElement:
    """([X,Y], [X,w] - [Y,v]) for a = (X,v), b = (Y,w)."""
    alg = cd.alg
    k = alg.bracket(a.k_part, b.k_part)
    s = alg.bracket(a.k_part, b.s_part) - alg.bracket(b.k_part, a.s_part)
    return SemidirectElement(k_part=k, s_part=s)


def moment_mu(
    cd: CartanData, x: np.ndarray, y: np.ndarray, tol: Tolerance = Tolerance()
) -> np.ndarray:
    """Moment map of ad: k -> gl(s) on a wedge: mu(x ^ y) = [x, y] in k."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = max(tol.abs_eps, 1e-10)
    for v in (x, y):
        if np.linalg.norm(cd.project_k(v)) > eps * (1 + np.linalg.norm(v)):
            raise DomainError("moment arguments must lie in s")
    return cd.alg.bracket(x, y)


def coad_star_matrix(cd: CartanData, e: SemidirectElement) -> np.ndarray:
    """Coadjoint matrix on the ordered (k-basis, s-basis) coordinates.

    Blocks [[ad(X)|k, -A(Y)], [0, ad(X)|s]] with A(Y)W = [Y, W]; the
    dual pairing is B_theta, under which this is minus the transpose of
    the adjoint action.
    """
    alg = cd.alg
    kb, sb = cd.k_basis, cd.s_basis
    ad_x = alg.ad(e.k_part)
    ad_y = alg.ad(e.s_part)
    nk, ns = kb.shape[1], sb.shape[1]
    out = np.zeros((nk + ns, nk + ns))
    out[:nk, :nk] = kb.T @ ad_x @ kb
    out[nk:, nk:] = sb.T @ ad_x @ sb
    out[:nk, nk:] = -(kb.T @ ad_y @ sb)
    return out


def ad_rho_matrix(cd: CartanData, e: SemidirectElement) -> np.ndarray:
    """Adjoint action of (X,Y) on (k, s) coordinates, for duality checks."""
    alg = cd.alg
    kb, sb = cd.k_basis, cd.s_basis
    ad_x = alg.ad(e.k_part)
    ad_y = alg.ad(e.s_part)
    nk, ns = kb.shape[1], sb.shape[1]
    out = np.zeros((nk + ns, nk + ns))
    out[:nk, :nk] = kb.T @ ad_x @ kb
    out[nk:, nk:] = sb.T @ ad_x @ sb
    out[nk:, :nk] = sb.T @ ad_y @ kb
    return out


def coadjoint_fiber(cd: CartanData, w: np.ndarray, tol: Tolerance = Tolerance()) -> CoadjointFiber:
    """The affine fiber direction [w, s] inside k over a base point w."""
    w = np.asarray(w, dtype=float)
    span = orthonormal_range(cd.alg.ad(w) @ cd.s_basis, tol)
    return CoadjointFiber(base=w, fiber_basis=span)


def orbit_tangent_at(cd: CartanData, w: np.ndarray) -> np.ndarray:
    """B_theta-orthonormal basis of T_w(Ad(K).w) = {[A, w] : A in k}.

    B_theta-orthonormality makes tangential projection (the complement
    being the centralizer directions) a plain coefficient contraction.
    """
    span = orthonormal_range(-cd.alg.ad(w) @ cd.k_basis)
    if span.shape[1] == 0:
        return span
    gram = span.T @ cd.b_theta @ span
    return span @ np.linalg.inv(np.linalg.cholesky(gram)).T


def sample_semidirect_orbit(
    cd: CartanData, h: np.ndarray, seed: int, n_base: int, n_fiber: int
) -> list[OrbitSample]:
    """Tagged points Ad(k).H + [Ad(k).H, v] with v random in s.

    The stored fiber tag is the tangential component of v at the base
    point, which determines the k-part uniquely.
    """
    cd.check_chamber(h)
    k_ops = sample_k_operators(cd, seed, n_base)
    rng = np.random.default_rng([seed, 0x5D1E])
    dim_s = cd.s_basis.shape[1]
    samples = []
    for b_tag, k_op in enumerate(k_ops):
        w = k_op @ np.asarray(h, dtype=float)
        tangent = orbit_tangent_at(cd, w)
        for f_tag in range(n_fiber):
            v = cd.s_basis @ rng.standard_normal(dim_s)
            v_t = tangent @ (tangent.T @ cd.b_theta @ v)
            p = w + cd.alg.bracket(w, v)
            samples.append(
                OrbitSample(
                    point=p,
                    kind="semidirect",
                    base_point=w,
                    k_op=k_op,
                    fiber=v_t,
                    fiber_coeffs=tangent.T @ cd.b_theta @ v,
                    r=np.inf,
                    base_tag=b_tag,
                    fiber_tag=f_tag,
                )
            )
    return samples


def phi_cotangent(cd: CartanData, p: OrbitSample) -> tuple[np.ndarray, np.ndarray]:
    """Cotangent identification: (base w, covector on T_w(Ad(K).H)).

    The covector f_v is stored as its B_theta-dual tangent vector: the
    tangential component of the fiber coordinate v at w.
    """
    if p.kind != "semidirect" or p.fiber is None:
        raise RepresentationError("need a tagged semidirect orbit sample")
    w = p.base_point
    tangent = orbit_tangent_at(cd, w)
    v_t = tangent @ (tangent.T @ cd.b_theta @ p.fiber)
    return w, v_t


def cotangent_moment(
    cd: CartanData, base_point: np.ndarray, covector: np.ndarray
) -> SemidirectElement:
    """Moment application m(gamma_y) = mu(y ^ covector) + y."""
    base_point = np.asarray(base_point, dtype=float)
    covector = np.asarray(covector, dtype=float)
    if covector.shape != base_point.shape:
        raise DimensionError("covector must be an ambient tangent representative")
    return SemidirectElement(
        k_part=cd.alg.bracket(base_point, covector), s_part=base_point
    )


# ---------------------------------------------------------------------------
# Generic compact-representation layer (canonical SO(n) on R^n instance)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemidirectRep:
    """A compact Lie algebra g represented on an inner product space V.

    rho[i] is the matrix of the i-th g-basis element on V; g_pair is a
    non-degenerate symmetric pairing on g coefficients used to identify
    g* with g; v_ip is the positive inner product on V.  The moment map
    mu: V x V -> g is defined by  pair(mu(v,w), A) = <rho(A)v, w>_V.
    """

    g_dim: int
    v_dim: int
    rho: np.ndarray  # (g_dim, v_dim, v_dim)
    g_pair: np.ndarray
    v_ip: np.ndarray

    def rho_of(self, a: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(a, dtype=float), self.rho, axes=(0, 0))

    def mu(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        rhs = np.array([float(r @ v @ self.v_ip @ w) for r in self.rho])
        return np.linalg.solve(self.g_pair, rhs)


@dataclass(frozen=True)
class RepOrbitSample:
    k_part: np.ndarray  # g coefficients of the fiber part mu(w ^ v)
    base: np.ndarray  # w in V
    fiber: np.ndarray  # tangential fiber coordinate v_t in V
    base_tag: int = 0
    fiber_tag: int = 0


def so_canonical_rep(n: int) -> SemidirectRep:
    """so(n) acting on R^n, pairing -1/2 tr(AB), Euclidean V.

    With these choices mu(v, w) = w v^T - v w^T.
    """
    alg = build_algebra("so", n)
    rho = np.stack([m.real for m in alg.basis])
    g_pair = np.zeros((alg.dim, alg.dim))
    for i in range(alg.dim):
        for j in range(alg.dim):
            g_pair[i, j] = -0.5 * np.trace(alg.basis[i].real @ alg.basis[j].real)
    return SemidirectRep(g_dim=alg.dim, v_dim=n, rho=rho, g_pair=g_pair, v_ip=np.eye(n))


def cartan_rep(cd: CartanData) -> SemidirectRep:
    """The Cartan instantiation: k on s with the Killing pairing on k.

    mu then reproduces the bracket: mu(v, w) = [v, w].
    """
    alg = cd.alg
    kb, sb = cd.k_basis, cd.s_basis
    rho = np.stack(
        [sb.T @ alg.ad(kb[:, i]) @ sb for i in range(kb.shape[1])]
    )
    g_pair = kb.T @ alg.killing @ kb
    v_ip = sb.T @ cd.b_theta @ sb
    return SemidirectRep(
        g_dim=kb.shape[1], v_dim=sb.shape[1], rho=rho, g_pair=g_pair, v_ip=v_ip
    )


def rep_group_elements(rep: SemidirectRep, seed: int, count: int) -> list[np.ndarray]:
    """Seeded orthogonal-ish group elements on V: products of 3 exponentials."""
    coeffs = np.random.default_rng(seed).standard_normal((count, 3, rep.g_dim))
    rhos = [rep.rho_of(c) for c in coeffs.reshape(-1, rep.g_dim)]
    exps = matrix_exp(np.reshape(rhos, (count, 3, rep.v_dim, rep.v_dim)))
    return list(exps[:, 2] @ (exps[:, 1] @ exps[:, 0]))


def rep_orbit_tangent(rep: SemidirectRep, w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of T_w(G.w) = rho(g).w in V (v_ip-orthonormal)."""
    cols = np.stack([r @ w for r in rep.rho], axis=1)
    chol = np.linalg.cholesky(rep.v_ip)
    on = orthonormal_range(chol.T @ cols)
    return np.linalg.solve(chol.T, on)


def sample_rep_orbit(
    rep: SemidirectRep, x: np.ndarray, seed: int, n_base: int, n_fiber: int
) -> list[RepOrbitSample]:
    """Coadjoint-orbit samples (mu(w ^ v), w) through (0, x)."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng([seed, 0x0CA])
    samples = []
    for b_tag, g in enumerate(rep_group_elements(rep, seed, n_base)):
        w = g @ x
        tangent = rep_orbit_tangent(rep, w)
        for f_tag in range(n_fiber):
            v = rng.standard_normal(rep.v_dim)
            v_t = tangent @ (tangent.T @ rep.v_ip @ v)
            samples.append(
                RepOrbitSample(
                    k_part=rep.mu(w, v),
                    base=w,
                    fiber=v_t,
                    base_tag=b_tag,
                    fiber_tag=f_tag,
                )
            )
    return samples


def rep_phi(rep: SemidirectRep, p: RepOrbitSample) -> tuple[np.ndarray, np.ndarray]:
    """phi: orbit point -> (base, covector as tangential V-vector)."""
    tangent = rep_orbit_tangent(rep, p.base)
    return p.base, tangent @ (tangent.T @ rep.v_ip @ p.fiber)


def rep_moment(rep: SemidirectRep, base: np.ndarray, covector: np.ndarray) -> RepOrbitSample:
    """m(gamma_y) = (mu(y ^ covector), y), the inverse of rep_phi."""
    return RepOrbitSample(k_part=rep.mu(base, covector), base=base, fiber=covector)
