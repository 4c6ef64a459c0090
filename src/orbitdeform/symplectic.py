"""Hermitian symplectic structure on complex semisimple algebras.

On a complex algebra viewed as a real vector space with complex
structure J, the Hermitian metric is H_tau(X,Y) = -<X, tau Y> (complex
Killing form, tau the compact involution).  Its real part gives the
positive inner product B_tau = 2 Re H_tau, and the skew form used
throughout is

    Omega(X, Y) := B_tau(iX, Y),

a single fixed normalization of the imaginary part.  The compact real
form u and the fibers [w, s] of the semidirect orbit are Lagrangian /
isotropic for Omega; the restriction of Omega to the semidirect orbit
over a chamber element H is symplectic, which is certified pointwise by
rank.  The module also provides height-function gradients and
Lagrangian sections on the flag orbit, checked by central differences
along the compact flows exp(h ad A), with one gradient call on the stack
of flag points or of their flow images; the defect by which the
deformation maps fail to preserve Omega, from exact tangents (psi~_r is
a diffeomorphism, not a symplectomorphism; see pullback_check); the
moment map of the compact-group action; and a generic skew-form toolkit
(radical / maximal isotropic subspaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deformation as df
from . import semidirect as sd
from .algebra import CartanData, DomainError, OrbitBatch, OrbitSample, RepresentationError
from .numerics import DimensionError, Tolerance, matrix_exp, nullspace, orthonormal_range


@dataclass(frozen=True)
class SkewFormData:
    """A skew-symmetric bilinear form given by its Gram matrix."""

    gram: np.ndarray
    tol: Tolerance = Tolerance()

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x, dtype=float) @ self.gram @ np.asarray(y, dtype=float))


def make_skew_form(gram: np.ndarray, tol: Tolerance = Tolerance()) -> SkewFormData:
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DimensionError("Gram matrix must be square")
    return SkewFormData(gram=0.5 * (gram - gram.T), tol=tol)


def restrict_form(form: SkewFormData, tangent_basis: np.ndarray) -> SkewFormData:
    """Gram matrix of the form on the given (independent) columns."""
    tangent_basis = np.asarray(tangent_basis, dtype=float)
    if tangent_basis.shape[1] > 0:
        s = np.linalg.svd(tangent_basis, compute_uv=False)
        if s[-1] <= 1e-10 * s[0]:
            raise DimensionError("tangent basis is linearly dependent")
    return make_skew_form(tangent_basis.T @ form.gram @ tangent_basis, form.tol)


def radical(form: SkewFormData) -> np.ndarray:
    """Orthonormal basis of {v : form(v, .) = 0}; empty iff non-degenerate."""
    return nullspace(form.gram, form.tol)


def max_isotropic(form: SkewFormData) -> np.ndarray:
    """Greedy maximal isotropic subspace containing the radical.

    Extends the radical one vector at a time inside the form-orthogonal
    complement of the current span; the output W satisfies
    2 dim W = dim V + dim radical.
    """
    w = radical(form)
    while True:
        perp = nullspace(w.T @ form.gram, form.tol)
        # remove the part already in span(W)
        fresh = perp - w @ (w.T @ perp)
        cand = orthonormal_range(fresh, form.tol)
        if cand.shape[1] == 0:
            return w
        w = np.hstack([w, cand[:, :1]])


@dataclass(frozen=True)
class HermitianContext:
    """B_tau, Omega and J for a complex-family Cartan structure."""

    cd: CartanData
    b_tau: np.ndarray
    omega: SkewFormData
    j: np.ndarray


def make_hermitian_context(cd: CartanData, tol: Tolerance = Tolerance()) -> HermitianContext:
    if cd.alg.field_tag != "complex":
        raise DomainError("Hermitian structure requires a complex-family algebra")
    b_tau = cd.b_theta
    j = cd.alg.j_op
    omega = make_skew_form(j.T @ b_tau, tol)
    return HermitianContext(cd=cd, b_tau=b_tau, omega=omega, j=j)


def hermitian_form(ctx: HermitianContext, x: np.ndarray, y: np.ndarray) -> complex:
    """H_tau(X,Y) = -<X, tau Y>, sesquilinear with Re H_tau = B_tau / 2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    re = 0.5 * float(x @ ctx.b_tau @ y)
    im = -0.5 * float((ctx.j @ x) @ ctx.b_tau @ y)
    return complex(re, im)


def u_moment(ctx: HermitianContext, x: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Moment map of the compact action: -i[tau x, x], an element of u.

    Vanishes exactly on points whose compact orbit is isotropic (x
    commuting with tau x, i.e. normal matrices).
    """
    cd = ctx.cd
    x = np.asarray(x, dtype=float)
    m = -ctx.j @ cd.alg.bracket(cd.theta @ x, x)
    if np.linalg.norm(cd.project_s(m)) > 1e-8 * (1 + np.linalg.norm(m)):
        raise DomainError("moment value escaped the compact form")
    return m


# ---------------------------------------------------------------------------
# Orbit tangent spaces and the symplectic certificate
# ---------------------------------------------------------------------------


def fiber_tangent_at(cd: CartanData, w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the fiber direction [w, s] inside u."""
    return sd.coadjoint_fiber(cd, w)


def orbit_tangent_basis(
    ctx: HermitianContext, p: OrbitSample, kind: str | None = None
) -> np.ndarray:
    """Orthonormal tangent basis at a tagged orbit sample.

    flag: spanned by [A, x], A in u;  semidirect: those plus the fiber
    directions [w, s];  adjoint: the full ad(g).x;  deformed: ad_r(g).x
    at the sample's own parameter r.
    """
    cd = ctx.cd
    kind = kind or p.kind
    x = p.point
    if kind == "flag":
        cols = -cd.alg.ad(x) @ cd.k_basis
    elif kind == "semidirect":
        w = cd.s_basis @ (cd.s_basis.T @ x)  # base point = s-component
        cols = np.hstack([-cd.alg.ad(x) @ cd.k_basis, cd.alg.ad(w) @ cd.s_basis])
    elif kind == "adjoint":
        cols = -cd.alg.ad(x)
    elif kind == "deformed":
        cols = -df.ad_r(df.make_context(cd, p.r), x)
    else:
        raise RepresentationError(f"unknown orbit kind {kind!r}")
    return orthonormal_range(cols)


def check_symplectic_on_orbit(
    ctx: HermitianContext, samples: list[OrbitSample], kind: str | None = None
) -> dict:
    """Certify non-degeneracy of Omega on the orbit and fiber isotropy.

    At every sample: the restriction of Omega to the orbit tangent
    space has full rank (smallest singular value > 1e-8 * largest), the
    fiber tangents are isotropic, and they are maximal isotropic
    (2 dim fiber = dim tangent).
    """
    cd = ctx.cd
    min_ratio = math.inf
    max_fiber_omega = 0.0
    maximal = True
    dims = set()
    for p in samples:
        t = orbit_tangent_basis(ctx, p, kind)
        gram = restrict_form(ctx.omega, t).gram
        s = np.linalg.svd(gram, compute_uv=False)
        min_ratio = min(min_ratio, float(s[-1] / s[0]))
        w = cd.s_basis @ (cd.s_basis.T @ p.point)
        fib = fiber_tangent_at(cd, w)
        if fib.shape[1]:
            max_fiber_omega = max(
                max_fiber_omega, float(np.max(np.abs(fib.T @ ctx.omega.gram @ fib)))
            )
        maximal = maximal and (2 * fib.shape[1] == t.shape[1])
        dims.add(t.shape[1])
    return {
        "min_sv_ratio": min_ratio,
        "max_fiber_omega": max_fiber_omega,
        "fiber_maximal_isotropic": maximal,
        "tangent_dims": sorted(dims),
        "full_rank": min_ratio > 1e-8,
    }


# ---------------------------------------------------------------------------
# Height-function gradients and Lagrangian sections on the flag orbit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionSample:
    """(n, dim) arrays: flag points x, field values Y(x) and section points x + t i Y(x)."""

    base_points: np.ndarray
    field_values: np.ndarray
    t: float
    section_points: np.ndarray


def gradient_at(ctx: HermitianContext, x: np.ndarray, n_vec: np.ndarray) -> np.ndarray:
    """B_tau-gradient of the height function f(x) = B_tau(x, N) on the flag.

    x is one point or a (..., dim) stack of flag points; the result has its shape.
    """
    t = orthonormal_range(-ctx.cd.alg.ad(x) @ ctx.cd.k_basis)
    t_b = np.swapaxes(t, -1, -2) @ ctx.b_tau
    rhs = t_b @ np.asarray(n_vec, dtype=float)
    return (t @ np.linalg.solve(t_b @ t, rhs[..., None]))[..., 0]


def _flow_images(cd: CartanData, x: np.ndarray, step: float) -> np.ndarray:
    """exp(+-step ad A) x for A over the compact basis and x over the (n, dim)
    points: a (2, dim k, n, dim) stack, the + flow first."""
    ads = cd.alg.ad(cd.k_basis.T)
    flows = matrix_exp(np.stack([step * ads, -step * ads]))
    return (flows[:, :, None] @ x[..., None])[..., 0]


def lagrangian_section(
    ctx: HermitianContext, n_vec: np.ndarray, flag_samples: OrbitBatch, t: float
) -> SectionSample:
    """The section sigma(x) = x + t i Y(x) over the flag, Y = grad f_N."""
    x = flag_samples.base_points
    y = gradient_at(ctx, x, n_vec)
    return SectionSample(base_points=x, field_values=y, t=t, section_points=x + t * (y @ ctx.j.T))


def _section_differences(
    ctx: HermitianContext, n_vec: np.ndarray, x: np.ndarray, t: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Central differences (D_A Y, D_A sigma) at the points x along each
    compact flow: two (dim k, n, dim) stacks.  Y does not depend on t, so
    it is computed once, at every flow image in one stacked call."""
    xs = _flow_images(ctx.cd, x, step)
    ys = gradient_at(ctx, xs, n_vec)
    sig = xs + t * (ys @ ctx.j.T)
    return (ys[0] - ys[1]) / (2 * step), (sig[0] - sig[1]) / (2 * step)


def section_omega_residual(
    ctx: HermitianContext,
    n_vec: np.ndarray,
    flag_samples: OrbitBatch,
    t: float,
    step: float = 1e-5,
) -> float:
    """max |Omega(v, w)| over finite-difference tangent pairs of the section.

    Tangents are central differences of sigma along the flag curves
    x(h) = exp(h ad(A)) x for A ranging over the compact basis.
    """
    _, d_sig = _section_differences(ctx, n_vec, flag_samples.base_points, t, step)
    tb = orthonormal_range(np.moveaxis(d_sig, 0, -1))
    if not tb.shape[-1]:
        return 0.0
    return float(np.max(np.abs(np.swapaxes(tb, -1, -2) @ ctx.omega.gram @ tb)))


def section_tangent_formula_residual(
    ctx: HermitianContext,
    n_vec: np.ndarray,
    flag_samples: OrbitBatch,
    t: float,
    step: float = 1e-5,
) -> float:
    """Cross-check of the section tangents against the bracket formula.

    The tangent to the section along A is [A, x] + t i [A, Y(x)] +
    t i (D_A Y)(x), with the field derivative D_A Y estimated by finite
    differences of Y along the flow of A.
    """
    cd = ctx.cd
    x = flag_samples.base_points
    dy, fd = _section_differences(ctx, n_vec, x, t, step)
    formula = (cd.alg.ad(cd.k_basis.T)[:, None] @ x[..., None])[..., 0] + t * (dy @ ctx.j.T)
    return float(np.linalg.norm(fd - formula, axis=-1).max())


def gradient_hamiltonian_residual(
    ctx: HermitianContext, n_vec: np.ndarray, flag_samples: OrbitBatch,
    step: float = 1e-5,
) -> float:
    """|dF(w) - Omega(w, iY)| over flag tangent directions w.

    F is the height function lifted to the orbit; iY is its Hamiltonian
    field for Omega restricted to the symplectic orbit through the
    flag.  Under the fixed convention Omega(X,Y) = B_tau(iX,Y) the
    pairing slot matters: Omega(w, iY) = B_tau(w, Y) = dF(w).
    """
    x = flag_samples.base_points
    # (1, dim) rows: stacked vector-matrix products keep the per-point bits
    xs = _flow_images(ctx.cd, x, step)[..., None, :]
    w = (xs[0] - xs[1]) / (2 * step)
    f = xs @ ctx.b_tau @ np.asarray(n_vec, dtype=float)
    d_f = (f[0] - f[1]) / (2 * step)
    i_y = (gradient_at(ctx, x, n_vec) @ ctx.j.T)[..., None]
    return float(np.max(np.abs(d_f - (w @ ctx.omega.gram @ i_y)[..., 0])))


# ---------------------------------------------------------------------------
# Pullback residuals for the deformation maps
# ---------------------------------------------------------------------------


def pullback_check(
    ctx: HermitianContext, r: float, samples: list[OrbitSample], fiber_dirs: np.ndarray
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
    gram = ctx.omega.gram
    no_base = np.zeros((cd.alg.dim, fiber_dirs.shape[1]))
    worst = 0.0
    for p in samples:
        h = np.hstack([-cd.alg.ad(p.base_point) @ cd.k_basis, no_base])
        x = np.hstack([-cd.alg.ad(p.k_op @ p.fiber) @ cd.k_basis, p.k_op @ fiber_dirs])
        v, v_r = h + x, h + psi @ x
        diff = v_r.T @ gram @ v_r - v.T @ gram @ v
        worst = max(worst, float(np.max(np.abs(np.triu(diff, 1)))))
    return worst


# ---------------------------------------------------------------------------
# Hamiltonian fields of the compact action and the isotropy classification
# ---------------------------------------------------------------------------


def hamiltonian_q_check(
    ctx: HermitianContext, a: np.ndarray, seed: int, n: int = 20, step: float = 1e-5
) -> tuple[float, float]:
    """(flow residual, symmetry residual) for Q(x) = Omega(ad(A)x, x).

    Along random linear curves alpha(t), d/dt (Q/2) must match
    Omega(ad(A) alpha', alpha); beta_A(X,Y) = Omega(ad(A)X, Y) must be
    symmetric.
    """
    cd = ctx.cd
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(cd.project_s(a)) > 1e-9 * (1 + np.linalg.norm(a)):
        raise DomainError("Hamiltonian generator must lie in the compact form")
    ad_a = cd.alg.ad(a)
    beta = ctx.omega.gram @ ad_a
    sym_resid = float(np.max(np.abs(ad_a.T @ ctx.omega.gram.T - beta)))
    rng = np.random.default_rng(seed)
    flow_resid = 0.0
    for _ in range(n):
        x0 = rng.standard_normal(cd.alg.dim)
        x1 = rng.standard_normal(cd.alg.dim)

        def q(t):
            x = x0 + t * x1
            return 0.5 * ctx.omega.value(ad_a @ x, x)

        lhs = (q(step) - q(-step)) / (2 * step)
        rhs = ctx.omega.value(ad_a @ x1, x0)
        flow_resid = max(flow_resid, abs(lhs - rhs))
    return flow_resid, sym_resid


def compact_isotropy_dim(ctx: HermitianContext, x: np.ndarray) -> int:
    """dim of {A in u : [A, x] = 0}."""
    return nullspace(-ctx.cd.alg.ad(x) @ ctx.cd.k_basis).shape[1]


def unique_isotropic_orbit_check(
    ctx: HermitianContext, h: np.ndarray, seed: int, n_random: int = 20
) -> dict:
    """Certify that the flag is the only isotropic compact orbit.

    (a) the flag through H is Lagrangian: half the adjoint-orbit
    dimension with vanishing Omega; (b) moving into the fiber strictly
    lowers the compact isotropy dimension, so those orbits are too
    large to be isotropic; (c) their moment values are nonzero.
    """
    from .algebra import flag_orbit_sample, h_subspaces

    cd = ctx.cd
    h = np.asarray(h, dtype=float)
    adj_cols = -cd.alg.ad(h)  # column i is [e_i, H]
    flag_dim = orthonormal_range(adj_cols @ cd.k_basis).shape[1]
    adjoint_dim = adj_cols.shape[1] - nullspace(adj_cols).shape[1]
    flag_samples = flag_orbit_sample(cd, h, seed, 25)
    max_flag_omega = 0.0
    for p in flag_samples:
        tb = orbit_tangent_basis(ctx, p, "flag")
        if tb.shape[1]:
            max_flag_omega = max(
                max_flag_omega, float(np.max(np.abs(tb.T @ ctx.omega.gram @ tb)))
            )
    n_plus, _, _ = h_subspaces(cd, h)
    iso_h = compact_isotropy_dim(ctx, h)
    rng = np.random.default_rng(seed)
    drops, moments = [], []
    for _ in range(n_random):
        x = n_plus @ rng.standard_normal(n_plus.shape[1])
        iso_hx = compact_isotropy_dim(ctx, h + x)
        drops.append(iso_hx < iso_h)
        moments.append(float(np.linalg.norm(u_moment(ctx, h + x))))
    return {
        "flag_dim": flag_dim,
        "adjoint_dim": adjoint_dim,
        "lagrangian": 2 * flag_dim == adjoint_dim,
        "max_flag_omega": max_flag_omega,
        "isotropy_drops": all(drops),
        "min_moment_norm": min(moments) if moments else 0.0,
    }
