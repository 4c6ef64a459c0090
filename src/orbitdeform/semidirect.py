"""The semidirect product k x_ad s of a Cartan decomposition g = k + s.

This is the contraction of g at r = inf: K acts on the abelian ideal s
by ad, and the moment map of that representation is mu(X ^ Y) = [X, Y]
in k.  The canonical SO(n) acting on R^n is the Cartan case of so(n,1).
For n = 3 that is sl(2,C) = so(3,1): K = SU(2) rotates s = i su(2),
and with s-coordinates (H, S, iA) read as R^3 and k-coordinates
(A, iH, iS), [v, w] = 2 (c3, -c1, -c2) for c = v x w.

Coadjoint orbits through a point x are affine bundles over the compact
orbit of x: each point decomposes as w + [w, v] with w on the base
orbit and the fiber part in the dual of the tangent space at w.  The
map phi sends a fiber point to the covector it induces via B_theta; the
moment application m inverts it.  The sampler returns an OrbitBatch;
the sampler and phi each take their tangents from one stacked
orbit_tangent_at call, and m works on the resulting stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CartanData,
    DomainError,
    OrbitBatch,
    RepresentationError,
    _b_orthonormalize,
    sample_k_operators,
)
from .numerics import DimensionError, Tolerance, apply, orthonormal_range


@dataclass(frozen=True)
class SemidirectElement:
    """(X, v) with X in k and v in s, both as ambient coefficient vectors or (..., dim) stacks."""

    k_part: np.ndarray
    s_part: np.ndarray


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
    """([X,Y], [X,w] - [Y,v]) for a = (X,v), b = (Y,w); stacked parts broadcast."""
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
    out, ad_y, nk = _diagonal_blocks(cd, e)
    out[..., :nk, nk:] = -(cd.k_basis.T @ ad_y @ cd.s_basis)
    return out


def ad_rho_matrix(cd: CartanData, e: SemidirectElement) -> np.ndarray:
    """Adjoint action of (X,Y) on (k, s) coordinates, for duality checks."""
    out, ad_y, nk = _diagonal_blocks(cd, e)
    out[..., nk:, :nk] = cd.s_basis.T @ ad_y @ cd.k_basis
    return out


def _diagonal_blocks(cd: CartanData, e: SemidirectElement) -> tuple[np.ndarray, np.ndarray, int]:
    """(the (k, s) matrix holding only the blocks ad(X)|k and ad(X)|s, ad(Y), dim k).

    An element whose parts are (..., dim) stacks of one shape gives (..., n, n) matrices.
    """
    kb, sb = cd.k_basis, cd.s_basis
    ad_x = cd.alg.ad(e.k_part)
    nk, n = kb.shape[1], kb.shape[1] + sb.shape[1]
    out = np.zeros((*ad_x.shape[:-2], n, n))
    out[..., :nk, :nk] = kb.T @ ad_x @ kb
    out[..., nk:, nk:] = sb.T @ ad_x @ sb
    return out, cd.alg.ad(e.s_part), nk


def coadjoint_fiber(cd: CartanData, w: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal columns spanning the fiber direction [w, s] inside k over w."""
    w = np.asarray(w, dtype=float)
    return orthonormal_range(cd.alg.ad(w) @ cd.s_basis, tol)


def orbit_tangent_at(cd: CartanData, w: np.ndarray) -> np.ndarray:
    """B_theta-orthonormal basis of T_w(Ad(K).w) = {[A, w] : A in k}.

    A (..., dim) stack of points gives a (..., dim, rank) stack, from one
    batched SVD and one batched Cholesky step.  B_theta-orthonormality
    makes tangential projection (the complement being the centralizer
    directions) a plain coefficient contraction.
    """
    return _b_orthonormalize(orthonormal_range(-cd.alg.ad(w) @ cd.k_basis), cd.b_theta)


def sample_semidirect_orbit(
    cd: CartanData, h: np.ndarray, seed: int, n_base: int, n_fiber: int
) -> OrbitBatch:
    """Tagged points Ad(k).H + [Ad(k).H, v] with v random in s.

    The stored fiber is the tangential component of v at the base
    point, which determines the k-part uniquely; fiber_coeffs are its
    coordinates in the orbit_tangent_at basis.
    """
    cd.check_chamber(h)
    k_ops = sample_k_operators(cd, seed, n_base)
    w = k_ops @ np.asarray(h, dtype=float)
    rng = np.random.default_rng([seed, 0x5D1E])
    v = rng.standard_normal((n_base, n_fiber, cd.s_basis.shape[1])) @ cd.s_basis.T
    # stacked matrix-vector products keep the bits of the per-sample ones
    tangent = orbit_tangent_at(cd, w)[:, None]
    coeffs = (np.swapaxes(tangent, -1, -2) @ cd.b_theta @ v[..., None])[..., 0]
    return OrbitBatch(
        points=w[:, None] + cd.alg.bracket(w[:, None], v),
        base_points=w, k_ops=k_ops, fibers=apply(tangent, coeffs),
        fiber_coeffs=coeffs, kind="semidirect", r=math.inf,
    )


def phi_cotangent(cd: CartanData, batch: OrbitBatch) -> tuple[np.ndarray, np.ndarray]:
    """Cotangent identification: (base w, covector on T_w(Ad(K).H)) at every sample.

    Both are (n_base, n_fiber, dim) stacks.  The covector f_v is stored
    as its B_theta-dual tangent vector: the tangential component of the
    fiber coordinate v at w.
    """
    if batch.kind != "semidirect" or batch.fibers is None:
        raise RepresentationError("need a tagged semidirect orbit batch")
    tangent = orbit_tangent_at(cd, batch.base_points)[:, None]
    coeffs = np.swapaxes(tangent, -1, -2) @ cd.b_theta @ batch.fibers[..., None]
    v_t = (tangent @ coeffs)[..., 0]
    return np.broadcast_to(batch.base_points[:, None], v_t.shape), v_t


def cotangent_moment(
    cd: CartanData, base_point: np.ndarray, covector: np.ndarray
) -> SemidirectElement:
    """Moment application m(gamma_y) = mu(y ^ covector) + y, at one point or a (..., dim) stack."""
    base_point = np.asarray(base_point, dtype=float)
    covector = np.asarray(covector, dtype=float)
    if covector.shape != base_point.shape:
        raise DimensionError("covector must be an ambient tangent representative")
    return SemidirectElement(
        k_part=cd.alg.bracket(base_point, covector), s_part=base_point
    )
