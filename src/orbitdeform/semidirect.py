"""The semidirect product k x_ad s of a Cartan decomposition g = k + s.

This is the contraction of g at r = inf: K acts on the abelian ideal s
by ad, and the moment map of that representation is mu(X ^ Y) = [X, Y]
in k.  The canonical SO(n) acting on R^n is the Cartan case of so(n,1).
For n = 3 that is sl(2,C) = so(3,1): K = SU(2) rotates s = i su(2),
and with s-coordinates (H, S, iA) read as R^3 and k-coordinates
(A, iH, iS), [v, w] = 2 (c3, -c1, -c2) for c = v x w.

The semidirect structure lives on g's own vector space.  An element
X + v (X in k, v in s) is its ambient coefficient vector, or a
(..., dim) stack of them, like every other element of the package; the
k- and s-parts are cd.project_k and cd.project_s of it.

Coadjoint orbits through a point x are affine bundles over the compact
orbit of x: each point decomposes as w + [w, v] with w on the base
orbit and the fiber part in the dual of the tangent space at w.  The
map phi sends a fiber point to the covector it induces via B_theta; the
moment application m inverts it.  Each compact-orbit object is formed
here, once: tangent_columns ([A, x] for A in k), orbit_tangent_at (a
basis t of their span), tangent_projection (the projection onto that
span, which phi and the height-function gradients of symplectic.py
read) and coadjoint_fiber ([w, s]).  The sampler's points are w + [w, v]
with the raw fiber coordinate v, which its OrbitBatch stores; phi
projects v where it is read, and m works on the stacks.

B_theta is the one metric of orbit bases: span_basis forms every
tangent and fiber basis of the package, B_theta-orthonormal, and
span_projection, t t^T B_theta v, is the one projection onto such a
span.  B_theta is Ad(K)-invariant, as the Euclidean coefficient metric
is not on sl(n), n >= 3, so Ad(k) maps a basis at y to one at Ad(k) y.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    CartanData,
    OrbitBatch,
    RepresentationError,
    _b_orthonormalize,
    sample_k_operators,
)
from .numerics import DimensionError, apply, orthonormal_range


def semidirect_bracket(cd: CartanData, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X + v, Y + w] = [X, Y] + ([X, w] - [Y, v]) for X, Y in k and v, w in s.

    x and y are ambient vectors or (..., dim) stacks, which broadcast.  The
    k-part and the s-part are formed apart, with the bits of the pair formulas.
    """
    bracket, k, s = cd.alg.bracket, cd.project_k, cd.project_s
    return bracket(k(x), k(y)) + (bracket(k(x), s(y)) - bracket(k(y), s(x)))


def ad_rho_matrix(cd: CartanData, x: np.ndarray) -> np.ndarray:
    """The adjoint action of X + v on g's coordinates: Y + w -> [X, Y] + [X, w] - [Y, v].

    A (..., dim) stack gives (..., dim, dim) matrices; ad(v) keeps its k columns (project_k).
    """
    return cd.alg.ad(cd.project_k(x)) + cd.project_k(cd.alg.ad(cd.project_s(x)))


def coad_star_matrix(cd: CartanData, x: np.ndarray) -> np.ndarray:
    """The coadjoint action of X + v on g's coordinates, dual to ad_rho_matrix under B_theta.

    It is ad(X) - ad(v) on the s columns (project_s), so that m.T @ b_theta +
    b_theta @ c = 0 for m = ad_rho_matrix(cd, x) and c = coad_star_matrix(cd, x).
    """
    return cd.alg.ad(cd.project_k(x)) - cd.project_s(cd.alg.ad(cd.project_s(x)))


def span_basis(cd: CartanData, cols: np.ndarray) -> np.ndarray:
    """B_theta-orthonormal basis of the span of the columns of a (..., dim, m) stack.

    One batched SVD (orthonormal_range, which fixes the rank with the
    package's zero rule) and one batched Cholesky step.  A stack whose
    ranks differ raises StructureError.
    """
    return _b_orthonormalize(orthonormal_range(cols), cd.b_theta)


def span_projection(cd: CartanData, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """t t^T B_theta v, the B_theta-orthogonal projection of v onto the span of a span_basis t.

    v is a (..., dim) stack that broadcasts against t's (..., dim, m).
    Stacked matrix-vector products, so each projected vector has the bits
    of its own per-point product.
    """
    return apply(t, apply(np.swapaxes(t, -1, -2) @ cd.b_theta, v))


def coadjoint_fiber(cd: CartanData, w: np.ndarray) -> np.ndarray:
    """span_basis of the fiber [w, s] inside k over w: the s columns of ad(w)."""
    return span_basis(cd, cd.alg.ad(w)[..., cd.signs < 0])


def tangent_columns(cd: CartanData, x: np.ndarray) -> np.ndarray:
    """The columns [A, x] for A over k_basis, which span T_x(Ad(K).x): the k columns of -ad(x).

    A (..., dim) stack of points gives a (..., dim, dim k) stack.
    """
    return -cd.alg.ad(x)[..., cd.signs > 0]


def orbit_tangent_at(cd: CartanData, w: np.ndarray) -> np.ndarray:
    """span_basis of T_w(Ad(K).w), the span of tangent_columns.

    A (..., dim) stack of points gives a (..., dim, rank) stack.
    B_theta-orthonormality makes tangential projection (the complement
    being the centralizer directions) a plain coefficient contraction,
    tangent_projection.
    """
    return span_basis(cd, tangent_columns(cd, w))


def tangent_projection(cd: CartanData, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The B_theta-orthogonal projection span_projection of v onto T_w(Ad(K).w).

    t = orbit_tangent_at(w), formed once per point of w: one point or a
    (..., dim) stack.  v is a (..., dim) stack that broadcasts against w;
    the result has the broadcast shape.
    """
    return span_projection(cd, orbit_tangent_at(cd, w), v)


def sample_semidirect_orbit(
    cd: CartanData, h: np.ndarray, seed: int, n_base: int, n_fiber: int
) -> OrbitBatch:
    """Tagged points Ad(k).H + [Ad(k).H, v] with v random in s.

    The stored fiber is the raw v; its tangential component at the base
    point, which determines the k-part uniquely, is phi_cotangent's.
    """
    cd.check_chamber(h)
    k = sample_k_operators(cd, seed, n_base)
    w = cd.alg.conjugate(k, h)
    rng = np.random.default_rng([seed, 0x5D1E])
    v = rng.standard_normal((n_base, n_fiber, cd.s_basis.shape[1])) @ cd.s_basis.T
    return OrbitBatch(
        points=w[:, None] + cd.alg.bracket(w[:, None], v),
        base_points=w, k=k, fibers=v, kind="semidirect", r=math.inf,
    )


def phi_cotangent(cd: CartanData, batch: OrbitBatch) -> tuple[np.ndarray, np.ndarray]:
    """Cotangent identification: (base w, covector on T_w(Ad(K).H)) at every sample.

    Both are (n_base, n_fiber, dim) stacks.  The covector f_v is returned
    as its B_theta-dual tangent vector, the tangent_projection at w of the
    fiber coordinate v that sample_semidirect_orbit stores.  Other
    batches, the deformed sampler's at r = inf too, raise.
    """
    if batch.kind != "semidirect" or batch.fibers is None:
        raise RepresentationError("need a tagged batch of sample_semidirect_orbit")
    w = batch.base_points[:, None]
    return np.broadcast_to(w, batch.fibers.shape), tangent_projection(cd, w, batch.fibers)


def cotangent_moment(cd: CartanData, base_point: np.ndarray, covector: np.ndarray) -> np.ndarray:
    """Moment application m(gamma_y) = mu(y ^ covector) + y, at one point or a (..., dim) stack."""
    base_point = np.asarray(base_point, dtype=float)
    covector = np.asarray(covector, dtype=float)
    if covector.shape != base_point.shape:
        raise DimensionError("covector must be an ambient tangent representative")
    return cd.alg.bracket(base_point, covector) + base_point
