"""The r-parameterized deformation of a semisimple Lie algebra.

T_r scales the compact part k by r and fixes s.  The deformed bracket
is [X,Y]_r = T_r[T_r^{-1}X, T_r^{-1}Y]; its Killing form is
<X,Y>_r = <T_r^{-1}X, T_r^{-1}Y>.  The map

    psi_r(Z) = Z + ((r-1)/(r+1)) theta(Z)

carries root spaces of the base algebra to eigenspaces of the deformed
ad(H).  At r = infinity the coefficient becomes 1 and psi sends n^+
into k; the deformed orbit degenerates to the semidirect orbit, a
bundle of affine fibers over the compact flag orbit.

r = infinity is a first-class context value; operations that only make
sense at finite r (the deformed bracket, Killing form and ad) reject it
explicitly instead of approximating with a large parameter.

Samples are OrbitBatch arrays.  psi~_r(Ad(k)(H + X)) = Ad(k)H +
psi_r Ad(k)X carries one r = 1 batch onto every deformed orbit, so an
r-sweep samples once; its distance to r = inf is (2/(r+1)) ||theta Ad(k)X||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import CartanData, DomainError, OrbitBatch, RepresentationError, h_subspaces, sample_k_operators
from .numerics import Tolerance, apply, matrix_exp

R_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
R_GRID_FULL = R_GRID + (math.inf,)


@dataclass(frozen=True)
class DeformationContext:
    cd: CartanData
    r: float
    t_r: np.ndarray | None  # None at r = infinity
    t_r_inv: np.ndarray | None
    psi_r: np.ndarray

    @property
    def finite(self) -> bool:
        return math.isfinite(self.r)

    @property
    def kind(self) -> str:
        """The orbit kind sampled at this parameter."""
        if not self.finite:
            return "semidirect"
        return "adjoint" if self.r == 1.0 else "deformed"

    def _require_finite(self, op: str):
        if not self.finite:
            raise DomainError(f"{op} is not defined at r = infinity")


def make_context(cd: CartanData, r: float) -> DeformationContext:
    """Build the deformation data for a parameter r > 0 or infinity."""
    if not (r > 0):
        raise DomainError("deformation parameter must satisfy r > 0")
    q = 1.0 if math.isinf(r) else (r - 1.0) / (r + 1.0)
    psi = np.eye(cd.alg.dim) + q * cd.theta
    if math.isinf(r):
        return DeformationContext(cd=cd, r=r, t_r=None, t_r_inv=None, psi_r=psi)
    # theta is diagonal +/-1 on the adapted basis, so T_r is diagonal too
    diag = np.where(np.abs(np.diag(cd.theta) - 1.0) < 1e-12, r, 1.0)
    t_r = np.diag(diag)
    t_r_inv = np.diag(1.0 / diag)
    return DeformationContext(cd=cd, r=r, t_r=t_r, t_r_inv=t_r_inv, psi_r=psi)


def bracket_r(ctx: DeformationContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y]_r = T_r [T_r^{-1}x, T_r^{-1}y]; (..., dim) stacks broadcast against each other."""
    ctx._require_finite("the deformed bracket")
    alg = ctx.cd.alg
    x, y = alg._check_stack(x), alg._check_stack(y)
    return apply(ctx.t_r, alg.bracket(apply(ctx.t_r_inv, x), apply(ctx.t_r_inv, y)))


def ad_r(ctx: DeformationContext, x: np.ndarray) -> np.ndarray:
    """Coefficient matrix of ad_r(x) = T_r ad(T_r^{-1}x) T_r^{-1}; a (..., dim) stack
    gives (..., dim, dim)."""
    ctx._require_finite("ad_r")
    return ctx.t_r @ ctx.cd.alg.ad(apply(ctx.t_r_inv, x)) @ ctx.t_r_inv


def killing_r(ctx: DeformationContext, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """<x, y>_r = <T_r^{-1}x, T_r^{-1}y>; (..., dim) stacks give (...) values."""
    ctx._require_finite("the deformed Killing form")
    alg = ctx.cd.alg
    x, y = alg._check_stack(x), alg._check_stack(y)
    return alg.killing_form(apply(ctx.t_r_inv, x), apply(ctx.t_r_inv, y))


def psi_r_map(ctx: DeformationContext, z: np.ndarray) -> np.ndarray:
    """psi_r(z) for one vector or every vector of a (..., dim) stack."""
    return apply(ctx.psi_r, ctx.cd.alg._check_stack(z))


def ad_r_exp_orbit(
    ctx: DeformationContext, a: np.ndarray, t: float, y: np.ndarray,
    tol: Tolerance = Tolerance(),
) -> np.ndarray:
    """exp(t ad_r(A)).Y for A in k; equals exp((t/r) ad(A)).Y."""
    ctx._require_finite("ad_r exponentials")
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(ctx.cd.project_s(a)) > tol.scale(a) * 10 + tol.abs_eps:
        raise DomainError("exponential direction must lie in the compact part k")
    return matrix_exp(t * ad_r(ctx, a)) @ np.asarray(y, dtype=float)


def _deformed_points(
    psi: np.ndarray, base: np.ndarray, k_ops: np.ndarray, fibers: np.ndarray
) -> np.ndarray:
    """Ad(k).H + psi(Ad(k).X) for every (base, fiber) pair: (n_base, n_fiber, dim).

    Stacked matrix-vector products, which give the bits of the
    per-sample products psi @ (k_op @ fiber).
    """
    return base[:, None] + (psi @ (k_ops[:, None] @ fibers[..., None]))[..., 0]


def sample_deformed_orbit(
    ctx: DeformationContext, h: np.ndarray, seed: int, n_base: int, n_fiber: int
) -> OrbitBatch:
    """Tagged samples Ad(k).H + psi_r(Ad(k).X_c), X_c random in n_H^+.

    At r = 1 this samples the adjoint orbit; at r = infinity the
    semidirect orbit over the flag Ad(K).H.  The n_fiber fibers X_c are
    shared by every base point.
    """
    cd = ctx.cd
    cd.check_chamber(h)
    n_plus, _, _ = h_subspaces(cd, h)
    k_ops = sample_k_operators(cd, seed, n_base)
    coeffs = np.random.default_rng([seed, 0x5F1BE]).standard_normal((n_fiber, n_plus.shape[1]))
    fibers = np.broadcast_to(apply(n_plus, coeffs), (n_base, n_fiber, cd.alg.dim))
    base = k_ops @ np.asarray(h, dtype=float)
    return OrbitBatch(
        points=_deformed_points(ctx.psi_r, base, k_ops, fibers), base_points=base, k_ops=k_ops,
        fibers=fibers, fiber_coeffs=np.broadcast_to(coeffs, (n_base, *coeffs.shape)),
        kind=ctx.kind, r=ctx.r,
    )


def _require_tags(batch: OrbitBatch):
    if batch.k_ops is None or batch.fibers is None or batch.k_ops.size == 0:
        raise RepresentationError("samples carry no construction tags")


def tilde_psi_r(ctx: DeformationContext, batch: OrbitBatch) -> OrbitBatch:
    """Push a tagged orbit batch to the deformation parameter of ctx.

    The base points are kept and the fiber coordinates are re-emitted
    through psi_r, following the bundle trivialization (k, X) ->
    Ad(k).H + psi_r(Ad(k).X).

    The map is a diffeomorphism of the r = 1 orbit onto the deformed
    orbit, but not an Omega-symplectomorphism.  On the complex families
    psi_r = (2/(r+1)) T_r and T_r* Omega = r Omega, so psi_r* Omega =
    (1 - q^2) Omega with q = (r-1)/(r+1); symplectic.pullback_check
    gives the law on mixed base/fiber tangent pairs.
    """
    _require_tags(batch)
    points = _deformed_points(ctx.psi_r, batch.base_points, batch.k_ops, batch.fibers)
    return replace(batch, points=points, kind=ctx.kind, r=ctx.r)


def limit_deviation(ctx: DeformationContext, batch: OrbitBatch) -> float:
    """max_p ||tilde_psi_r(p) - tilde_psi_inf(p)|| over a tagged batch, in closed form.

    The two images differ by (q - 1) theta(Ad(k).X) with q = (r-1)/(r+1),
    so the maximum is (2/(r+1)) max ||theta(Ad(k).X)||.
    """
    ctx._require_finite("the limit deviation")
    _require_tags(batch)
    moved = ctx.cd.theta @ (batch.k_ops[:, None] @ batch.fibers[..., None])
    return 2.0 / (ctx.r + 1.0) * float(np.linalg.norm(moved[..., 0], axis=-1).max())
