"""Hermitian symplectic structure on complex semisimple algebras.

On a complex algebra viewed as a real vector space with complex
structure J, the Hermitian metric is H_tau(X,Y) = -<X, tau Y> (complex
Killing form, tau the compact involution).  Its real part gives the
positive inner product B_tau = 2 Re H_tau, and the skew form used
throughout is

    Omega(X, Y) := B_tau(iX, Y),

a single fixed normalization of the imaginary part.  Omega is a plain
skew Gram array, J^T B_tau with B_tau = cd.b_theta and J = cd.alg.j_op,
so Omega(x, y) = numerics.bilinear(x, omega, y).  The compact real
form u and the fibers [w, s] of the semidirect orbit are Lagrangian /
isotropic for Omega; the restriction of Omega to the semidirect orbit
over a chamber element H is symplectic, which is certified at every
sample by rank.  The module also provides height-function gradients (the
B_theta-projection of N, semidirect.tangent_projection) and Lagrangian
sections on the flag orbit, checked on their exact tangents along the
compact flows; the defect by which the deformation maps fail to
preserve Omega, from exact tangents too (psi~_r is a diffeomorphism,
not a symplectomorphism; see pullback_check); the moment map of the
compact-group action; and a generic skew-form toolkit on the same
plain Gram arrays (maximal isotropic subspaces in the linear Darboux
form, with the package's zero rule, numerics.Tolerance.cutoff).
gradient_hamiltonian_residual and hamiltonian_q_check take central
differences, as evidence independent of the bracket formulas.

Samples are OrbitBatch arrays (the certificate, pullbacks) or (..., dim)
stacks of points (tangent bases, gradients, moments, and the flag points
of flag_orbit_sample that the sections and their residuals read): each
takes one stacked call, never a loop over samples.  The compact-orbit
tangent columns [A, x], the projection onto their span and the fibers
[w, s] come from semidirect.py, and so does every orthonormal basis of a
tangent or fiber space (semidirect.span_basis): each is B_theta-orthonormal,
in the metric Omega lives on.  Since B_theta is Ad(K)-invariant, the
certificate's singular-value ratios and max_omega read the same value at
every point of one K-orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deformation as df
from . import semidirect as sd
from .algebra import CartanData, DomainError, OrbitBatch, RepresentationError
from .numerics import DimensionError, StructureError, Tolerance, apply, bilinear, matrix_exp


def make_skew_form(gram: np.ndarray) -> np.ndarray:
    """The skew part of a (d, d) Gram matrix, or of each in a (..., d, d) stack."""
    gram = np.asarray(gram, dtype=float)
    if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2]:
        raise DimensionError("Gram matrix must be square, or a stack of square matrices")
    return 0.5 * (gram - np.swapaxes(gram, -1, -2))


def max_isotropic(form: np.ndarray) -> np.ndarray | list[np.ndarray]:
    """Orthonormal basis of a maximal isotropic subspace W containing the radical.

    form is a skew Gram matrix (make_skew_form).  Linear Darboux normal
    form: i * form is Hermitian, and for its eigenvectors u_j with
    eigenvalue above the radical's cutoff the vectors sqrt(2) Re u_j are
    orthonormal, isotropic and orthogonal to the radical.  So
    2 dim W = dim V + dim radical.

    An (m, d, d) stack of forms gives the list of its m bases, from one
    stacked SVD (the radicals, with nullspace's cutoff) and one stacked eigh.
    Any other shape raises DimensionError.
    """
    if form.ndim not in (2, 3) or form.shape[-1] != form.shape[-2]:
        raise DimensionError(f"expected a (d, d) form or an (m, d, d) stack, not {form.shape}")
    tol = Tolerance()  # the package's zero rule
    grams = form if form.ndim == 3 else form[None]
    _, s, vh = np.linalg.svd(grams)
    ranks = (s > tol.cutoff(s[:, :1])).sum(axis=-1)
    vals, vecs = np.linalg.eigh(1j * grams)
    paired = vals > tol.cutoff(np.abs(vals).max(axis=-1, keepdims=True, initial=0.0))
    if (2 * paired.sum(axis=-1) != ranks).any():
        raise StructureError("eigenvalue count does not match the radical")
    bases = [np.hstack([v[r:].conj().T, math.sqrt(2.0) * u[:, p].real])
             for v, r, u, p in zip(vh, ranks, vecs, paired)]
    return bases if form.ndim == 3 else bases[0]


@dataclass(frozen=True)
class HermitianContext:
    """cd and the skew Gram array Omega = J^T B_tau, with J = cd.alg.j_op and B_tau = cd.b_theta."""

    cd: CartanData
    omega: np.ndarray


def make_hermitian_context(cd: CartanData) -> HermitianContext:
    if cd.alg.j_op is None:
        raise DomainError("Hermitian structure requires a complex-family algebra")
    return HermitianContext(cd=cd, omega=make_skew_form(cd.alg.j_op.T @ cd.b_theta))


def u_moment(ctx: HermitianContext, x: np.ndarray) -> np.ndarray:
    """Moment map of the compact action: -i[tau x, x], an element of u.

    x is one point or a (..., dim) stack.  Vanishes exactly on points
    whose compact orbit is isotropic (x commuting with tau x, i.e. normal
    matrices).  A moment that is not finite, or whose s-part exceeds
    1e-8 (1 + |m|), raises DomainError.
    """
    cd = ctx.cd
    m = -apply(cd.alg.j_op, cd.alg.bracket(cd.signs * x, x))
    # a NaN fails the comparison, so finiteness is tested on its own
    if not np.isfinite(m).all() or (
            np.linalg.norm(cd.project_s(m), axis=-1) > 1e-8 * (1 + np.linalg.norm(m, axis=-1))).any():
        raise DomainError("moment value is not finite or escaped the compact form")
    return m


# ---------------------------------------------------------------------------
# Orbit tangent spaces and the symplectic certificate
# ---------------------------------------------------------------------------


def fiber_tangent_at(cd: CartanData, w: np.ndarray) -> np.ndarray:
    """B_theta-orthonormal basis of the fiber direction [w, s] inside u."""
    return sd.coadjoint_fiber(cd, w)


def orbit_tangent_basis(
    ctx: HermitianContext, x: np.ndarray, kind: str, r: float = 1.0
) -> np.ndarray:
    """B_theta-orthonormal tangent bases at a (..., dim) stack of orbit points: (..., dim, rank).

    flag: spanned by [A, x], A in u, semidirect.orbit_tangent_at;
    semidirect: those plus the fiber directions [w, s];  deformed:
    ad_r(g).x at finite r, the adjoint orbit's ad(g).x at r = 1.  An orbit
    has constant tangent rank, so a stack whose ranks differ raises
    StructureError.
    """
    cd = ctx.cd
    if kind == "flag":
        return sd.orbit_tangent_at(cd, x)
    if kind == "semidirect":
        return _semidirect_tangent(cd, x, fiber_tangent_at(cd, cd.project_s(x)))
    if kind == "deformed":
        return sd.span_basis(cd, -df.ad_r(df.make_context(cd, r), x))
    raise RepresentationError(f"unknown orbit kind {kind!r}")


def _semidirect_tangent(cd: CartanData, x: np.ndarray, fib: np.ndarray) -> np.ndarray:
    """The semidirect orbit_tangent_basis at x, given the fiber bases over its s-part."""
    return sd.span_basis(cd, np.concatenate([sd.tangent_columns(cd, x), fib], axis=-1))


def max_omega(ctx: HermitianContext, t: np.ndarray) -> np.ndarray:
    """max |Omega(u, v)| over B_theta-unit vectors u, v of a B_theta-orthonormal basis's span.

    That is the spectral norm of the restricted Gram matrix, so it does not
    depend on the choice of basis.  Omega(u, v) = B_theta(Ju, v) and J is a
    B_theta-isometry, so the value is at most 1, and it is 1 exactly when
    the span T meets JT.  A (..., dim, rank) stack gives (...) values, 0 at
    rank 0.
    """
    if not t.shape[-1]:
        return np.zeros(t.shape[:-2])
    return np.linalg.svd(np.swapaxes(t, -1, -2) @ ctx.omega @ t, compute_uv=False)[..., 0]


def check_symplectic_on_orbit(ctx: HermitianContext, batch: OrbitBatch) -> dict:
    """Certify non-degeneracy of Omega on the semidirect orbit and fiber isotropy.

    At every sample, in B_theta-orthonormal bases: the restriction of
    Omega to the orbit tangent space has full rank (smallest singular
    value > 1e-8 * largest; the ratio is constant along each K-orbit), the
    fiber tangents are isotropic, and they are maximal isotropic
    (2 dim fiber = dim tangent).  The batch may come from either r = inf
    sampler; only its points are read, and a batch at finite r raises.
    """
    if math.isfinite(batch.r):
        raise RepresentationError("need a batch of the semidirect orbit (r = inf)")
    fib = fiber_tangent_at(ctx.cd, ctx.cd.project_s(batch.points))
    t = _semidirect_tangent(ctx.cd, batch.points, fib)
    gram = np.swapaxes(t, -1, -2) @ ctx.omega @ t
    s = np.linalg.svd(make_skew_form(gram), compute_uv=False)
    min_ratio = float((s[..., -1] / s[..., 0]).min())
    return {
        "min_sv_ratio": min_ratio,
        "max_fiber_omega": float(max_omega(ctx, fib).max()),
        "fiber_maximal_isotropic": 2 * fib.shape[-1] == t.shape[-1],
        "tangent_dims": [t.shape[-1]],
        "full_rank": min_ratio > 1e-8,
    }


# ---------------------------------------------------------------------------
# Height-function gradients and Lagrangian sections on the flag orbit
# ---------------------------------------------------------------------------


def gradient_at(ctx: HermitianContext, x: np.ndarray, n_vec: np.ndarray) -> np.ndarray:
    """B_tau-gradient of the height function f(x) = B_tau(x, N) on the flag.

    It is the B_tau-orthogonal projection of N onto the tangent space,
    semidirect.tangent_projection (B_tau = B_theta).  x is one point or a
    (..., dim) stack of flag points, n_vec one N or a (..., dim) stack that
    broadcasts against x; the result has the broadcast shape.
    """
    return sd.tangent_projection(ctx.cd, x, n_vec)


_FD_STEP = 1e-5  # the step h of every central difference (f(+h) - f(-h)) / 2h


def _compact_flows(cd: CartanData) -> np.ndarray:
    """The elements exp(+-h A) of K for A over the compact basis, h = _FD_STEP: a
    (2, dim k, 1, n, n) stack, the + flow first.  conjugate applies it to (m, dim)
    points as a (2, dim k, m, dim) stack: Ad(exp(hA)) = exp(h ad A).

    In the package only gradient_hamiltonian_residual differentiates along it."""
    a = cd.alg.to_matrix(cd.k_basis.T)
    return matrix_exp(np.stack([_FD_STEP * a, -_FD_STEP * a]))[:, :, None]


def lagrangian_section(
    ctx: HermitianContext, n_vec: np.ndarray, x: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """The section points sigma_t(x) = x + t i Y(x) over the (n, dim) flag points x, Y = grad f_N.

    x is what flag_orbit_sample returns.  A scalar t gives (n, dim); a
    (n_t,) array gives (n_t, n, dim), t axis first, with Y computed once.
    Y is formed _SECTION_BLOCK points at a time, so temporaries do not grow with n.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((*t.shape, *x.shape))
    for start in range(0, x.shape[0], _SECTION_BLOCK):
        block = x[start:start + _SECTION_BLOCK]
        i_y = gradient_at(ctx, block, n_vec) @ ctx.cd.alg.j_op.T
        out[..., start:start + _SECTION_BLOCK, :] = block + t[..., None, None] * i_y
    return out


_SECTION_BLOCK = 256  # base points whose section points or tangents are formed in one stacked call


def _section_tangents(
    ctx: HermitianContext, n_vec: np.ndarray, x: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Exact tangents of sigma_t at the (b, dim) flag points x, a column per compact basis A.

    Along A the tangent is [A, x] + t i D_A Y with Y = gradient_at(x) and
    D_A Y = [A, Y] - P_x [A, N]: Y = P_x N, where P_x is the projection
    onto T_x that gradient_at applies, and K-equivariance
    P_{Ad(k)x} = Ad(k) P_x Ad(k)^-1 differentiates to it.  Y and every
    P_x [A, N] come from one gradient_at call on the (1 + dim k, dim)
    stack of N and the [A, N], so each point's tangent basis is formed
    once.  A scalar t gives (b, dim, dim k), a (n_t,) array
    (n_t, b, dim, dim k).
    """
    cd = ctx.cd
    grads = gradient_at(ctx, x[:, None], np.vstack([n_vec, sd.tangent_columns(cd, n_vec).T]))
    d_y = sd.tangent_columns(cd, grads[:, 0]) - np.swapaxes(grads[:, 1:], -1, -2)
    t = np.asarray(t, dtype=float)[..., None, None, None]
    return sd.tangent_columns(cd, x) + t * (cd.alg.j_op @ d_y)


def section_omega_residual(
    ctx: HermitianContext, n_vec: np.ndarray, x: np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """max |Omega(v, w)| over pairs of a B_theta-orthonormal basis of the tangent space of sigma_t.

    The section is over the (n, dim) flag points x.  The tangents are
    exact, along the flag curves Ad(exp(sA)) x for A ranging over the
    compact basis (_section_tangents).  A scalar t gives a float, a
    (n_t,) array one value per t.  The maximum is taken block by block
    over the base points, so memory does not grow with their number.
    """
    resid = np.zeros(np.shape(t))
    for start in range(0, x.shape[0], _SECTION_BLOCK):
        block = x[start:start + _SECTION_BLOCK]
        tb = sd.span_basis(ctx.cd, _section_tangents(ctx, n_vec, block, t))
        gram = np.swapaxes(tb, -1, -2) @ ctx.omega @ tb
        resid = np.maximum(resid, np.abs(gram).max(axis=(-3, -2, -1), initial=0.0))
    return float(resid) if resid.ndim == 0 else resid


def gradient_hamiltonian_residual(ctx: HermitianContext, n_vec: np.ndarray, x: np.ndarray) -> float:
    """|dF(w) - Omega(w, iY)| over flag tangent directions w at the (n, dim) flag points x.

    F is the height function lifted to the orbit; iY is its Hamiltonian
    field for Omega restricted to the symplectic orbit through the
    flag.  Under the fixed convention Omega(X,Y) = B_tau(iX,Y) the
    pairing slot matters: Omega(w, iY) = B_tau(w, Y) = dF(w).  The points are
    moved along the compact flows by conjugate, with n x n group elements.
    """
    # (1, dim) rows: stacked vector-matrix products keep the per-point bits
    xs = ctx.cd.alg.conjugate(_compact_flows(ctx.cd), x)[..., None, :]
    w = (xs[0] - xs[1]) / (2 * _FD_STEP)
    f = xs @ ctx.cd.b_theta @ np.asarray(n_vec, dtype=float)
    d_f = (f[0] - f[1]) / (2 * _FD_STEP)
    i_y = (gradient_at(ctx, x, n_vec) @ ctx.cd.alg.j_op.T)[..., None]
    return float(np.max(np.abs(d_f - (w @ ctx.omega @ i_y)[..., 0])))


# ---------------------------------------------------------------------------
# Pullback residuals for the deformation maps
# ---------------------------------------------------------------------------


def pullback_check(
    ctx: HermitianContext, r: float, batch: OrbitBatch, fiber_dirs: np.ndarray
) -> float:
    """max |Omega(d psi~_r v, d psi~_r w) - Omega(v, w)| over tangent pairs.

    The tangents at a tagged adjoint-orbit sample Ad(k)(H + X) are exact.
    Each splits as v = h_v + x_v, the derivatives of the base part Ad(k)H
    and of the fiber part Ad(k)X.  Along the compact flow of A in the
    compact basis, h_v = [A, Ad(k)H] and x_v = [A, Ad(k)X]; along a fiber
    direction d in fiber_dirs, h_v = 0 and x_v = Ad(k)d.  The differential
    of psi~_r sends v to h_v + psi_r x_v.

    The residual is not a tolerance-sized error: psi~_r does not preserve
    Omega.  With q = (r-1)/(r+1) (q = 1 at r = infinity) the returned
    value is max |q Omega_1 - q^2 Omega_2| with Omega_1 = Omega(h_v, x_w)
    + Omega(x_v, h_w) and Omega_2 = Omega(x_v, x_w).  It is zero only at
    r = 1.
    """
    cd = ctx.cd
    psi = df.make_context(cd, r).psi_r
    shape, n_dirs = batch.points.shape, fiber_dirs.shape[1]
    base = np.broadcast_to(batch.base_points[:, None], shape)
    h = np.concatenate([sd.tangent_columns(cd, base), np.zeros((*shape, n_dirs))], axis=-1)
    # the batch stores Ad(k)X; Ad(k) of the fiber directions as (n_base, n_dirs) rows
    dirs = np.swapaxes(cd.alg.conjugate(batch.k[:, None], fiber_dirs.T), -1, -2)
    x = np.concatenate([sd.tangent_columns(cd, batch.fibers),
                        np.broadcast_to(dirs[:, None], (*shape, n_dirs))], axis=-1)
    v, v_r = h + x, h + psi[:, None] * x
    diff = np.swapaxes(v_r, -1, -2) @ ctx.omega @ v_r - np.swapaxes(v, -1, -2) @ ctx.omega @ v
    return float(np.abs(np.triu(diff, 1)).max())


# ---------------------------------------------------------------------------
# Hamiltonian fields of the compact action
# ---------------------------------------------------------------------------


_Q_CURVES = 20  # random linear curves of hamiltonian_q_check


def hamiltonian_q_check(ctx: HermitianContext, a: np.ndarray, seed: int) -> tuple[float, float]:
    """(flow residual, symmetry residual) for Q(x) = Omega(ad(A)x, x).

    Along _Q_CURVES random linear curves alpha(t), d/dt (Q/2) must match
    Omega(ad(A) alpha', alpha); beta_A(X,Y) = Omega(ad(A)X, Y) must be
    symmetric.  A generator that is not finite, or not in the compact
    form, raises DomainError.
    """
    cd = ctx.cd
    a = np.asarray(a, dtype=float)
    # a NaN fails the comparison, so finiteness is tested on its own
    if not np.isfinite(a).all() or np.linalg.norm(cd.project_s(a)) > 1e-9 * (1 + np.linalg.norm(a)):
        raise DomainError("Hamiltonian generator must be finite and lie in the compact form")
    ad_a = cd.alg.ad(a)
    beta = ctx.omega @ ad_a
    sym_resid = float(np.max(np.abs(ad_a.T @ ctx.omega.T - beta)))
    # _Q_CURVES rounds of (x0, x1), drawn as one array
    x0, x1 = np.moveaxis(
        np.random.default_rng(seed).standard_normal((_Q_CURVES, 2, cd.alg.dim)), 1, 0)

    def q(t):
        x = x0 + t * x1
        return 0.5 * bilinear(apply(ad_a, x), ctx.omega, x)

    lhs = (q(_FD_STEP) - q(-_FD_STEP)) / (2 * _FD_STEP)
    rhs = bilinear(apply(ad_a, x1), ctx.omega, x0)
    return float(np.abs(lhs - rhs).max(initial=0.0)), sym_resid
