"""Concrete matrix Lie algebras with their Cartan structure.

Supported families: sl(n,R), sl(n,C) and so(n), each one entry of
_FAMILIES (n x n basis, exact coordinate reader, Killing constant).  A
complex algebra is handled as a real vector space of dimension 2*dim_C
together with the operator J of multiplication by i, so that one
real-linear substrate serves both field cases.  J and the maximal
abelian a are read off the basis: J exists exactly when it has a nonzero
imaginary part, and a is spanned by its real diagonal elements.

Basis conventions (fixed, canonical order):

  sl(n,R):  H_i = E_ii - E_{i+1,i+1}  (i = 1..n-1),
            S_ij = E_ij + E_ji        (i < j),
            A_ij = E_ij - E_ji        (i < j).
  sl(n,C):  the sl(n,R) basis followed by i times the same matrices.
  so(n):    A_ij = E_ij - E_ji        (i < j).

For sl(2,R) this gives exactly the basis {H, S, A} with coordinates
(x, y, z) = xH + yS + zA.  Coordinates are read off the matrix entries
of an element of the algebra: H_i takes the cumulative sum of the
diagonal, S_ij and A_ij take (m_ij +- m_ji)/2, so(n) reads A_ij = m_ij,
and sl(n,C) reads its real part, then its imaginary part.  So the
structure constants (in {0, +-1, +-2}), the Killing matrix (the trace
form c Re tr(e_i e_j)) and theta, kept as its +-1 diagonal CartanData.signs
that scales and selects, are exact.  No structure tensor is stored: bracket is
to_vector(XY - YX) and ad stacks to_vector(X e_j - e_j X) over the basis,
n x n products that give a stack the bits of the per-vector calls.
The compact group acts as n x n matrices g = exp(A), A in k, never as
(dim, dim) Ad(g) operators or exponentials exp(ad A): the samplers, the
compact flows of symplectic.py and the verify checks all conjugate, and
LieAlgebraData.conjugate, to_vector(g X g^H), is the one place where Ad(g)
acts.  The one dense exponential is exp(t ad_r A) in
deformation.ad_r_exp_orbit, the deformed action that the ad_r_exponential
check compares with conjugate.
Chamber elements H are computed in one place, chamber_element(cd, spec), for
every preset and coefficient list; CartanData stores none.
The bundle samplers return an OrbitBatch, one set of arrays over (base,
fiber); the flag sampler returns its base points as a plain array.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionError,
    StructureError,
    bilinear,
    cutoff,
    matrix_exp,
    simultaneous_eigenspaces,
)


class ConfigurationError(ValueError):
    """Unsupported algebra family or rank."""


class DomainError(ValueError):
    """Argument outside the operation's domain (wrong subspace, bad chamber)."""


class RepresentationError(ValueError):
    """A sample lacks the construction tags the operation needs."""


def _sl_real_basis(n: int) -> list[np.ndarray]:
    e = np.eye(n * n).reshape(n, n, n, n)  # e[i, j] is the matrix unit E_ij
    s = [e[i, j] + e[j, i] for i, j in itertools.combinations(range(n), 2)]
    return [e[i, i] - e[i + 1, i + 1] for i in range(n - 1)] + s + _so_basis(n)


def _so_basis(n: int) -> list[np.ndarray]:
    e = np.eye(n * n).reshape(n, n, n, n)
    return [e[i, j] - e[j, i] for i, j in itertools.combinations(range(n), 2)]


_pairs = functools.cache(lambda n: np.triu_indices(n, 1))  # the (i, j), i < j, of n x n


def _sl_coords(m: np.ndarray) -> np.ndarray:
    """sl(n,R) coordinates of a (..., n, n) stack; of both parts at once if it is complex."""
    rows, cols = _pairs(m.shape[-1])
    upper, lower = m[..., rows, cols], m[..., cols, rows]
    diag = m.diagonal(0, -2, -1)[..., :-1].cumsum(-1)
    return np.concatenate([diag, 0.5 * (upper + lower), 0.5 * (upper - lower)], axis=-1)


def _sl_complex_coords(m: np.ndarray) -> np.ndarray:
    c = _sl_coords(m)
    return np.concatenate([c.real, c.imag], axis=-1)


def _so_coords(m: np.ndarray) -> np.ndarray:
    rows, cols = _pairs(m.shape[-1])  # C-contiguous rows: a stack's dot products sum as one's
    return np.ascontiguousarray(m.real[..., rows, cols])


@dataclass(frozen=True)
class LieAlgebraData:
    """A concrete matrix Lie algebra over a fixed real basis."""

    family: str  # a key of _FAMILIES
    n: int
    dim: int  # real dimension
    basis: np.ndarray  # (dim, n, n), complex dtype for complex families
    killing: np.ndarray  # (dim, dim), tr(ad e_i . ad e_j) = c Re tr(e_i e_j)
    j_op: np.ndarray | None  # (dim, dim) multiplication by i; None on a real basis

    def to_matrix(self, v: np.ndarray) -> np.ndarray:
        """The matrix of a coefficient vector, or of each in a (..., dim) stack: (..., n, n).

        One real product of the stack against the flattened basis, a complex
        entry read as its two floats.
        """
        v = self._check_stack(v)
        flat = v.reshape(-1, self.dim) @ self.basis.reshape(self.dim, -1).view(float)
        return flat.view(self.basis.dtype).reshape(*v.shape[:-1], self.n, self.n)

    def to_vector(self, m: np.ndarray) -> np.ndarray:
        """Basis coefficients of a matrix, or of each in a (..., n, n) stack, read off its entries.

        Precondition: m lies in the algebra.  Nothing checks it; what lies
        outside (a trace, a symmetric part on so(n), an imaginary part on a
        real family) is dropped.
        """
        return _FAMILIES[self.family][1](np.asarray(m))

    def conjugate(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Ad(g)x = to_vector(g X g^H) for g in K; (..., n, n) and (..., dim) stacks broadcast.

        K is SO(n) or SU(n), so g^H = g^-1.
        """
        return self.to_vector(g @ self.to_matrix(x) @ np.conj(np.swapaxes(g, -1, -2)))

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] = to_vector(XY - YX) on basis coefficients; (..., dim) stacks broadcast.

        einsum sums every entry of every product in index order, so a stack
        gives the bits of the per-vector calls, and [k, k] lies in k and
        [k, s] in s to the bit, which complex BLAS products miss at some n.
        """
        xm, ym, product = self.to_matrix(x), self.to_matrix(y), "...ij,...jk->...ik"
        return self.to_vector(np.einsum(product, xm, ym) - np.einsum(product, ym, xm))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) on basis coefficients; a (..., dim) stack gives (..., dim, dim).

        Column j is to_vector(X e_j - e_j X), from X times the basis side by side and
        the basis stacked times X, exact: e_j has one nonzero (+-1, +-i) per row and column.
        """
        xm, n, dim = self.to_matrix(x), self.n, self.dim
        x_e = (xm @ self.basis.transpose(1, 0, 2).reshape(n, dim * n)).reshape(*xm.shape[:-1], dim, n)
        e_x = (self.basis.reshape(dim * n, n) @ xm).reshape(*xm.shape[:-2], dim, n, n)
        return np.swapaxes(self.to_vector(np.swapaxes(x_e, -3, -2) - e_x), -1, -2)

    def killing_form(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        """<x, y> on basis coefficients; (..., dim) stacks broadcast and give (...) values."""
        return bilinear(self._check_stack(x), self.killing, self._check_stack(y))

    def _check_stack(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise DimensionError(f"expected coefficient vectors of length {self.dim}")
        return v


@dataclass(frozen=True)
class RootDatum:
    functional: np.ndarray  # values alpha(H_i) on a_basis columns
    space_basis: np.ndarray  # (dim, k) B_theta-orthonormal columns
    theta_image_index: int  # index of the root -alpha


@dataclass(frozen=True)
class CartanData:
    alg: LieAlgebraData
    signs: np.ndarray  # (dim,) diagonal of the involution theta: +1 on k, -1 on s
    k_basis: np.ndarray  # +1 eigenspace columns, identity columns
    s_basis: np.ndarray  # -1 eigenspace columns, identity columns
    b_theta: np.ndarray  # B_theta(X,Y) = -<X, theta Y>, the Killing columns scaled by -signs
    a_basis: np.ndarray  # columns spanning the maximal abelian a in s
    m_a_basis: np.ndarray  # B_theta-orthonormal columns of m + a, the joint zero eigenspace of ad(a)
    roots: tuple[RootDatum, ...]
    simple_set: tuple[int, ...]

    def a_coefficients(self, h: np.ndarray) -> np.ndarray:
        """a_basis coordinates of h; DomainError unless |residual/s| <= cutoff(|h/s|).

        s = max(|h|_inf, 1): a is a subspace, so h lies in it when h/s does, and the
        norms of h/s cannot overflow, as |h| does beyond about 1.3e154.
        """
        h = np.asarray(h, dtype=float)
        coeffs, *_ = np.linalg.lstsq(self.a_basis, h, rcond=None)
        s = max(np.abs(h).max(initial=0.0), 1.0)
        if not np.linalg.norm((self.a_basis @ coeffs - h) / s) <= cutoff(np.linalg.norm(h / s)):
            raise DomainError("element does not lie in the maximal abelian subalgebra")
        return coeffs

    def root_values(self, h: np.ndarray) -> np.ndarray:
        """alpha(H) for every root, H given in ambient coefficients."""
        coeffs = self.a_coefficients(h)
        return np.array([r.functional @ coeffs for r in self.roots])

    def check_chamber(self, h: np.ndarray) -> np.ndarray:
        """The root values of H, 0 where |alpha(H)| <= cutoff(max_beta |beta(H)|).

        A root value within that cutoff is a wall: h_subspaces counts its root
        space in z_H, not in n_H^+ or n_H^-.  DomainError for an H that is
        not finite, not in a, outside the closed chamber (a simple root value below
        -cutoff) or nonzero with every root value zero, too small to resolve.
        """
        if not np.all(np.isfinite(h)):
            raise DomainError("chamber element must be finite")
        vals = self.root_values(h)
        vals = np.where(np.abs(vals) > cutoff(np.abs(vals).max(initial=0.0)), vals, 0.0)
        if (vals[list(self.simple_set)] < 0).any():
            raise DomainError("element lies outside the closed positive Weyl chamber")
        if np.any(h) and not vals.any():
            raise DomainError("chamber element is nonzero but every root value is zero: "
                              "it is too small to resolve")
        return vals

    def require_k(self, x: np.ndarray, what: str) -> np.ndarray:
        """x as floats, checked to lie in k: a vector, or each point of a (..., dim) stack.

        A point lies in k when its norm |x| is finite and its s-part is zero by the
        one rule, |project_s(x)| <= cutoff(|x|); else DomainError names what.  A
        NaN or inf entry, or finite entries whose squares overflow (|x| beyond
        about 1.3e154), give a norm that is not finite, refused before any other
        product.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing norm is inf, and refused
            norm = np.linalg.norm(x, axis=-1)
        # an inf k-coordinate would pass the s-part test (0 <= inf), so the norm is tested first
        if not (np.isfinite(norm).all()
                and (np.linalg.norm(self.project_s(x), axis=-1) <= cutoff(norm)).all()):
            raise DomainError(f"{what} must be finite and lie in the compact part k")
        return x

    def project_k(self, v: np.ndarray) -> np.ndarray:
        """The k-part of a vector or of each of a (..., dim) stack: its k coordinates kept."""
        return np.where(self.signs > 0, v, 0.0)

    def project_s(self, v: np.ndarray) -> np.ndarray:
        """The s-part of a vector or of each of a (..., dim) stack: its s coordinates kept."""
        return np.where(self.signs < 0, v, 0.0)


@dataclass(frozen=True)
class OrbitBatch:
    """n_base x n_fiber tagged orbit samples as arrays; the tags are the indices.

    points and fibers are (n_base, n_fiber, dim) arrays, base_points is
    (n_base, dim) and k the (n_base, n, n) group elements of
    sample_k_operators, which act through LieAlgebraData.conjugate;
    consumers read them in stacked calls.  The fiber is stored before any
    deformation map, in the format that kind names: Ad(k)X with X in
    n_H^+ (point = base + psi_r fiber) for "deformed" batches, which
    sample_deformed_orbit makes at r = 1 and tilde_psi_r carries to every r
    (r = inf included), the raw fiber coordinate v in s (point = w + [w, v])
    for "semidirect" batches, which only sample_semidirect_orbit makes.
    """

    points: np.ndarray
    base_points: np.ndarray
    k: np.ndarray
    fibers: np.ndarray
    kind: str
    r: float


# family: (its n x n basis, the coordinates of each matrix of a (..., n, n) stack,
# the Killing constant c with tr(ad X ad Y) = c Re tr(XY)).  A complex basis is
# a real one followed by i times it.  c is 2n on sl(n,R), 4n on sl(n,C) as a real
# algebra (twice the real part of its complex form 2n tr(XY)) and n - 2 on so(n)
_FAMILIES = {
    "sl_real": (_sl_real_basis, lambda m: _sl_coords(m.real), lambda n: 2 * n),
    "sl_complex": (lambda n: _sl_real_basis(n) + [1j * m for m in _sl_real_basis(n)],
                   _sl_complex_coords, lambda n: 4 * n),
    "so": (_so_basis, _so_coords, lambda n: n - 2),
}

DESCRIPTORS = {
    "sl2r": ("sl_real", 2),
    "sl3r": ("sl_real", 3),
    "sl2c": ("sl_complex", 2),
    "sl3c": ("sl_complex", 3),
    "so3": ("so", 3),
    "so4": ("so", 4),
}


def parse_descriptor(name: str) -> tuple[str, int]:
    if name in DESCRIPTORS:
        return DESCRIPTORS[name]
    raise ConfigurationError(f"unknown algebra descriptor {name!r}")


def build_algebra(family: str, n: int) -> LieAlgebraData:
    """Construct the algebra: its n x n basis, Killing matrix and J, in O(dim^2 n^2).

    The Killing matrix is the trace form c Re tr(e_i e_j), exact integers.
    J is built exactly when the basis has a nonzero imaginary part.
    """
    if family not in _FAMILIES:
        raise ConfigurationError(f"unsupported family {family!r}")
    if n < 2:
        raise ConfigurationError("rank must satisfy n >= 2")
    make_basis, _, c = _FAMILIES[family]
    basis = np.stack(make_basis(n)).astype(complex)
    dim = len(basis)
    # tr(e_i e_j) = sum_ab (e_i)_ab (e_j)_ba, one product of the flattened bases
    killing = c(n) * (basis.reshape(dim, -1) @ np.swapaxes(basis, 1, 2).reshape(dim, -1).T).real

    # J is [[0, -I], [I, 0]] on a real basis followed by i times it
    j_op = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(dim // 2)) if basis.imag.any() else None

    return LieAlgebraData(
        family=family,
        n=n,
        dim=dim,
        basis=basis if j_op is not None else np.ascontiguousarray(basis.real),
        killing=killing,
        j_op=j_op,
    )


def cartan_structure(alg: LieAlgebraData) -> CartanData:
    """Cartan decomposition, maximal abelian subalgebra and restricted roots.

    theta(X) = -X^T for real families, tau(X) = -conj(X)^T for complex
    ones.  The maximal abelian a is the span of the real diagonal basis
    elements; on so(n) a = 0, and the empty stack ad(a) has g as its one
    joint eigenspace, so there are no roots.  Positivity is the
    lexicographic choice that makes the strictly upper-triangular root
    vectors positive.  ad(a) is exact and symmetric for B_theta, so
    simultaneous_eigenspaces returns each joint eigenspace B_theta-orthonormal.
    cutoff of the largest joint |eigenvalue| decides the zero root (kept as
    m_a_basis, m + a), theta-pairs (alpha + beta = 0), simple roots (no
    alpha - beta - gamma = 0) and positivity (alpha(probe) above it).
    """
    theta = alg.to_vector(-np.conj(np.swapaxes(alg.basis, -1, -2))).T  # column j: theta(e_j)
    signs = np.diag(theta)
    if not (np.array_equal(theta, np.diag(signs)) and (np.abs(signs) == 1.0).all()):
        raise StructureError("theta is not diagonal with entries +-1 on the basis")
    eye = np.eye(alg.dim)
    k_basis, s_basis = eye[:, signs == 1.0], eye[:, signs == -1.0]
    b_theta = -alg.killing * signs

    off_diagonal = alg.basis[:, ~np.eye(alg.n, dtype=bool)]
    a_basis = eye[:, ~(off_diagonal.any(axis=1) | alg.basis.imag.any(axis=(1, 2)))]

    blocks = simultaneous_eigenspaces(alg.ad(a_basis.T), b_theta)
    vals = np.array([v for v, _ in blocks]).reshape(len(blocks), a_basis.shape[1])
    zero = cutoff(np.abs(vals).max(initial=0.0))

    def vanishes(x):  # every entry of a joint eigenvalue (difference) is zero by the one rule
        return (np.abs(x) <= zero).all(axis=-1)

    is_root = ~vanishes(vals)
    if is_root.all():
        raise StructureError("joint zero eigenspace missing")
    funcs = vals[is_root]
    spaces = [basis for (_, basis), root in zip(blocks, is_root) if root]
    m_a_basis = np.hstack([basis for (_, basis), root in zip(blocks, is_root) if not root])

    # pair alpha with -alpha and check theta(g_alpha) = g_{-alpha}
    opposite = vanishes(funcs[None] + funcs[:, None])  # [i, j]: root j is -(root i)
    if not opposite.any(axis=1).all():
        raise StructureError("a root has no opposite root")
    roots = []
    for functional, space, row in zip(funcs, spaces, opposite):
        j = int(row.argmax())  # the first opposite, as a search in root order finds it
        img = signs[:, None] * space
        resid = img - spaces[j] @ (spaces[j].T @ b_theta @ img)
        if np.linalg.norm(resid) > 1e-9:
            raise StructureError("theta does not exchange opposite root spaces")
        roots.append(RootDatum(functional, space, j))

    # positivity: evaluate on a probe with strictly decreasing diagonal
    nn = alg.n
    probe_diag = np.diag([nn - 1 - 2 * i for i in range(nn)]).astype(complex)
    probe = alg.to_vector(probe_diag)
    probe_coeffs, *_ = np.linalg.lstsq(a_basis, probe, rcond=None)
    positive = np.flatnonzero(funcs @ probe_coeffs > zero)
    # simple: the positive roots that are no sum of two positive roots
    pos = funcs[positive]
    is_sum = vanishes(pos[:, None, None] - pos[:, None] - pos[None]).any(axis=(1, 2))
    simple = tuple(int(i) for i in positive[~is_sum])

    return CartanData(
        alg=alg,
        signs=signs,
        k_basis=k_basis,
        s_basis=s_basis,
        b_theta=b_theta,
        a_basis=a_basis,
        m_a_basis=m_a_basis,
        roots=tuple(roots),
        simple_set=simple,
    )


_H_MAX = 1e300  # largest |coefficient| of H: [w, v] overflows at 5e307, the root values at 1e308


def chamber_element(cd: CartanData, spec: str) -> np.ndarray:
    """Ambient vector of the chamber element spec, the one place an H is computed.

    "regular" solves alpha(H) = 2 on every simple root (giving
    diag(1,-1) for sl(2), up to roundoff); "wall:k" zeroes the k-th simple root value
    (0-based) and keeps the rest at 2.  The regular element is the H of
    Grajales & Grama (arXiv 2007.14541) that verify checks at; on so(n)
    the simple root functionals form a (0, 0) matrix, so every preset is 0.
    Any other spec is "c1,...,ck", the coefficients of H on a_basis, each
    finite and at most _H_MAX in size.  Every H passes check_chamber.
    """
    if spec == "regular" or spec.startswith("wall:"):
        targets = np.full(len(cd.simple_set), 2.0)
        if spec != "regular":
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"wall index of {spec!r} is not an integer") from None
            if not 0 <= k < targets.size:
                raise DomainError(f"wall index {k} out of range")
            targets[k] = 0.0
        m = np.array([cd.roots[i].functional for i in cd.simple_set])
        coeffs, *_ = np.linalg.lstsq(m.reshape(targets.size, cd.a_basis.shape[1]), targets, rcond=None)
    else:
        coeffs = np.array([float(x) for x in spec.split(",")])
        if coeffs.shape[0] != cd.a_basis.shape[1]:
            raise DomainError(f"expected {cd.a_basis.shape[1]} chamber coefficients, got {coeffs.shape[0]}")
        # before any product: inf times a zero entry of a_basis is nan
        if not np.all(np.abs(coeffs) <= _H_MAX):
            raise DomainError(f"--H coefficients must be finite and at most {_H_MAX:g} in size")
    h = cd.a_basis @ coeffs
    cd.check_chamber(h)
    return h


def h_subspaces(cd: CartanData, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_H^+, n_H^-, z_H) bases for H in the closed positive chamber.

    Each is a sum of blocks of the root decomposition g = (m + a) + sum g_alpha:
    n_H^+- the root spaces whose values check_chamber keeps above and below 0,
    z_H the zero block m_a_basis and the root spaces whose values it zeroes.  So
    the three are one B_theta-orthonormal partition of g.
    """
    vals = cd.check_chamber(h)
    empty = [np.zeros((cd.alg.dim, 0))]  # the basis of a side without roots
    n_plus = np.hstack(empty + [r.space_basis for r, v in zip(cd.roots, vals) if v > 0])
    n_minus = np.hstack(empty + [r.space_basis for r, v in zip(cd.roots, vals) if v < 0])
    z_h = np.hstack([cd.m_a_basis] + [r.space_basis for r, v in zip(cd.roots, vals) if v == 0])
    return n_plus, n_minus, z_h


_K_BLOCK = 256  # samples whose three exponentials are formed in one stacked call


def sample_k_operators(cd: CartanData, seed: int, count: int) -> np.ndarray:
    """Seeded elements g = exp(A3) exp(A2) exp(A1) of K, A_i random in k: (count, n, n).

    Each factor is an n x n exponential.  k is the -X^H-fixed part of g
    on every family (K = SO(n) or SU(n)), so g^-1 = g^H, and Ad(g) acts
    through LieAlgebraData.conjugate; exp(ad A) = Ad(exp A) makes it the
    product of the exp(ad A_i).  The A_i are one draw, exponentiated
    _K_BLOCK samples at a time, so the temporaries do not grow with count.
    """
    alg = cd.alg
    coeffs = np.random.default_rng(seed).standard_normal((count, 3, cd.k_basis.shape[1]))
    out = np.empty((count, alg.n, alg.n), dtype=np.result_type(alg.basis, float))
    for start in range(0, count, _K_BLOCK):
        exps = matrix_exp(alg.to_matrix(coeffs[start:start + _K_BLOCK] @ cd.k_basis.T))
        out[start:start + _K_BLOCK] = exps[:, 2] @ (exps[:, 1] @ exps[:, 0])
    return out


def flag_orbit_sample(cd: CartanData, h: np.ndarray, seed: int, count: int) -> np.ndarray:
    """Samples Ad(k).H of the compact orbit Ad(K).H (the flag manifold through H): (count, dim).

    The k are sample_k_operators(cd, seed, count), the draw of the bundle
    samplers' base points at the same seed.
    """
    cd.check_chamber(h)
    return cd.alg.conjugate(sample_k_operators(cd, seed, count), h)
