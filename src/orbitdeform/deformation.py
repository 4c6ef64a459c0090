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

Samples reach every deformed orbit by one route.  sample_deformed_orbit
draws the adjoint orbit (r = 1) as a "deformed" OrbitBatch, its fibers
Ad(k)X with X in n_H^+ conjugated once; tilde_psi_r, the one place psi_r
acts on a sample, carries it to each r, r = inf included:
psi~_r(Ad(k)(H + X)) = Ad(k)H + psi_r Ad(k)X.  So an r-sweep samples
once; its distance to r = inf is (2/(r+1)) ||Ad(k)X||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import CartanData, DomainError, OrbitBatch, RepresentationError, h_subspaces, sample_k_operators
from .numerics import apply, matrix_exp

R_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
R_GRID_FULL = R_GRID + (math.inf,)


@dataclass(frozen=True)
class DeformationContext:
    cd: CartanData
    r: float
    t_r: np.ndarray | None  # (dim,) diagonal of T_r: r on k, 1 on s; None at r = infinity
    t_r_inv: np.ndarray | None  # (dim,) 1 / t_r; None at r = infinity
    psi_r: np.ndarray  # (dim,) diagonal of psi_r = I + q theta: 1 + q signs

    @property
    def finite(self) -> bool:
        return math.isfinite(self.r)

    def _require_finite(self, op: str):
        if not self.finite:
            raise DomainError(f"{op} is not defined at r = infinity")


def make_context(cd: CartanData, r: float) -> DeformationContext:
    """Deformation data for r > 0 or inf (1/r finite); T_r, T_r^-1, psi_r as (dim,) diagonals."""
    if not (r > 0):
        raise DomainError("deformation parameter must satisfy r > 0")
    if not math.isfinite(1.0 / float(r)):
        raise DomainError(f"deformation parameter r = {float(r)!r} is too small: 1/r overflows")
    q = 1.0 if math.isinf(r) else (r - 1.0) / (r + 1.0)
    psi = 1.0 + q * cd.signs
    if math.isinf(r):
        return DeformationContext(cd=cd, r=r, t_r=None, t_r_inv=None, psi_r=psi)
    t_r = np.where(cd.signs > 0, r, 1.0)
    return DeformationContext(cd=cd, r=r, t_r=t_r, t_r_inv=1.0 / t_r, psi_r=psi)


def bracket_r(ctx: DeformationContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y]_r = T_r [T_r^{-1}x, T_r^{-1}y]; (..., dim) stacks broadcast against each other."""
    ctx._require_finite("the deformed bracket")
    alg = ctx.cd.alg
    x, y = alg._check_stack(x), alg._check_stack(y)
    return ctx.t_r * alg.bracket(ctx.t_r_inv * x, ctx.t_r_inv * y)


def ad_r(ctx: DeformationContext, x: np.ndarray) -> np.ndarray:
    """Coefficient matrix of ad_r(x) = T_r ad(T_r^{-1}x) T_r^{-1}; a (..., dim) stack
    gives (..., dim, dim).  The diagonals scale the rows and the columns of ad."""
    ctx._require_finite("ad_r")
    return ctx.t_r[:, None] * ctx.cd.alg.ad(ctx.t_r_inv * ctx.cd.alg._check_stack(x)) * ctx.t_r_inv


def killing_r(ctx: DeformationContext, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """<x, y>_r = <T_r^{-1}x, T_r^{-1}y>; (..., dim) stacks give (...) values."""
    ctx._require_finite("the deformed Killing form")
    alg = ctx.cd.alg
    x, y = alg._check_stack(x), alg._check_stack(y)
    return alg.killing_form(ctx.t_r_inv * x, ctx.t_r_inv * y)


def psi_r_map(ctx: DeformationContext, z: np.ndarray) -> np.ndarray:
    """psi_r(z) for one vector or every vector of a (..., dim) stack."""
    return ctx.psi_r * ctx.cd.alg._check_stack(z)


def ad_r_exp_orbit(ctx: DeformationContext, a: np.ndarray, t: float, y: np.ndarray) -> np.ndarray:
    """exp(t ad_r(A)).Y for A in k; equals exp((t/r) ad(A)).Y.

    An A that is not finite, or not in k by CartanData.require_k, raises DomainError.
    """
    ctx._require_finite("ad_r exponentials")
    a = ctx.cd.require_k(a, "exponential direction")
    return matrix_exp(t * ad_r(ctx, a)) @ np.asarray(y, dtype=float)


def sample_deformed_orbit(
    cd: CartanData, h: np.ndarray, seed: int, n_base: int, n_fiber: int
) -> OrbitBatch:
    """Tagged samples Ad(k).H + Ad(k).X_c of the adjoint orbit (r = 1), X_c random in n_H^+.

    The batch is "deformed" with r = 1; tilde_psi_r carries it to every
    other r, r = infinity (the semidirect orbit over the flag Ad(K).H)
    included.  The n_fiber draws X_c are shared by every base point; the
    batch stores their images Ad(k).X_c, each pair conjugated once.
    """
    n_plus, _, _ = h_subspaces(cd, h)
    k = sample_k_operators(cd, seed, n_base)
    coeffs = np.random.default_rng([seed, 0x5F1BE]).standard_normal((n_fiber, n_plus.shape[1]))
    fibers = cd.alg.conjugate(k[:, None], apply(n_plus, coeffs))
    base = cd.alg.conjugate(k, h)
    return OrbitBatch(points=base[:, None] + fibers, base_points=base, k=k,
                      fibers=fibers, kind="deformed", r=1.0)


def _require_tags(batch: OrbitBatch):
    if batch.k is None or batch.fibers is None or batch.k.size == 0:
        raise RepresentationError("samples carry no construction tags")
    if batch.kind == "semidirect":
        raise RepresentationError("a semidirect batch stores v in s, not Ad(k)X with X in n_H^+")


def tilde_psi_r(ctx: DeformationContext, batch: OrbitBatch) -> OrbitBatch:
    """Push a tagged orbit batch to the deformation parameter of ctx.

    The base points Ad(k).H and the stored fibers Ad(k).X are kept, and
    the points become Ad(k).H + psi_r(Ad(k).X), psi_r scaling each coordinate.

    The map is a diffeomorphism of the r = 1 orbit onto the deformed
    orbit, but not an Omega-symplectomorphism.  On the complex families
    psi_r = (2/(r+1)) T_r and T_r* Omega = r Omega, so psi_r* Omega =
    (1 - q^2) Omega with q = (r-1)/(r+1); symplectic.pullback_check
    gives the law on mixed base/fiber tangent pairs.
    """
    _require_tags(batch)
    points = batch.base_points[:, None] + ctx.psi_r * batch.fibers
    return replace(batch, points=points, r=ctx.r)


def limit_deviation(ctx: DeformationContext, batch: OrbitBatch) -> float:
    """max_p ||tilde_psi_r(p) - tilde_psi_inf(p)|| over a tagged batch, in closed form.

    The two images differ by (q - 1) theta(Ad(k).X), q = (r-1)/(r+1), and theta,
    the +-1 diagonal cd.signs, keeps norms: the maximum is (2/(r+1)) max ||Ad(k).X||.
    """
    ctx._require_finite("the limit deviation")
    _require_tags(batch)
    return 2.0 / (ctx.r + 1.0) * float(np.linalg.norm(batch.fibers, axis=-1).max())
