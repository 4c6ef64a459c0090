"""Concrete matrix Lie algebras with their Cartan structure.

Supported families: sl(n,R), sl(n,C) and so(n).  A complex algebra is
handled as a real vector space of dimension 2*dim_C together with the
operator J of multiplication by i, so that one real-linear substrate
serves both field cases.

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
structure constants (in {0, +-1, +-2}), the Killing matrix and the
involution theta (diagonal +-1) are exact; the Killing matrix is the
trace form c Re tr(e_i e_j).  bracket and ad contract with the structure
tensor through one kernel: stacked row-times-matrix products against its
(dim, dim^2) view, which give a stack the bits of the per-vector calls.
The compact group is sampled as n x n matrices g, never as (dim, dim)
Ad(g) operators: LieAlgebraData.conjugate, to_vector(g X g^H), is the
one place where Ad(g) acts.
The bundle samplers return an OrbitBatch, one set of arrays over (base,
fiber); the flag sampler returns its base points as a plain array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionError,
    StructureError,
    TOL,
    apply,
    bilinear,
    matrix_exp,
    nullspace,
    simultaneous_eigenspaces,
)


class ConfigurationError(ValueError):
    """Unsupported algebra family or rank."""


class DomainError(ValueError):
    """Argument outside the operation's domain (wrong subspace, bad chamber)."""


class RepresentationError(ValueError):
    """A sample lacks the construction tags the operation needs."""


def _sl_real_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n - 1):
        h = np.zeros((n, n))
        h[i, i], h[i + 1, i + 1] = 1.0, -1.0
        basis.append(h)
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n))
            s[i, j] = s[j, i] = 1.0
            basis.append(s)
    return basis + _so_basis(n)


def _so_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n))
            a[i, j], a[j, i] = 1.0, -1.0
            basis.append(a)
    return basis


@dataclass(frozen=True)
class LieAlgebraData:
    """A concrete matrix Lie algebra over a fixed real basis."""

    family: str  # "sl_real" | "sl_complex" | "so"
    n: int
    field_tag: str  # "real" | "complex"
    dim: int  # real dimension
    basis: np.ndarray  # (dim, n, n), complex dtype for complex families
    structure: np.ndarray  # c[i,j,k]: [e_i, e_j] = sum_k c[i,j,k] e_k
    killing: np.ndarray  # (dim, dim), tr(ad e_i . ad e_j) = c Re tr(e_i e_j)
    j_op: np.ndarray | None  # (dim, dim) multiplication by i, complex case only

    def to_matrix(self, v: np.ndarray) -> np.ndarray:
        """The matrix of a coefficient vector, or of each in a (..., dim) stack: (..., n, n)."""
        return np.tensordot(self._check_stack(v), self.basis, axes=(-1, 0))

    def to_vector(self, m: np.ndarray) -> np.ndarray:
        """Basis coefficients of a matrix, or of each in a (..., n, n) stack, read off its entries.

        Precondition: m lies in the algebra.  Nothing checks it; what lies
        outside (a trace, a symmetric part on so(n), an imaginary part on a
        real family) is dropped.
        """
        return _coordinates(self.family, np.asarray(m))

    def conjugate(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Ad(g)x = to_vector(g X g^H) for g in K; (..., n, n) and (..., dim) stacks broadcast.

        K is SO(n) or SU(n), so g^H = g^-1.
        """
        return self.to_vector(g @ self.to_matrix(x) @ np.conj(np.swapaxes(g, -1, -2)))

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] on basis coefficients; (..., dim) stacks broadcast against each other.

        y's row times the ad rows of x, as stacked products: a stack gives
        the bits of the per-vector calls.
        """
        x, y = self._check_stack(x), self._check_stack(y)
        return (y[..., None, :] @ self._ad_rows(x))[..., 0, :]

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) on basis coefficients; a (..., dim) stack gives (..., dim, dim).

        The transpose of the ad rows of x: column j holds [x, e_j].
        """
        return np.swapaxes(self._ad_rows(self._check_stack(x)), -1, -2)

    def _ad_rows(self, x: np.ndarray) -> np.ndarray:
        """R(x)[..., j, k] = sum_i x_i c[i, j, k]: row j holds the coefficients of [x, e_j].

        One stacked row-times-matrix product per vector against the
        (dim, dim**2) view of the structure tensor, the only contraction
        with it after build_algebra.
        """
        rows = (x[..., None, :] @ self.structure.reshape(self.dim, -1))[..., 0, :]
        return rows.reshape(*x.shape[:-1], self.dim, self.dim)

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
    theta: np.ndarray  # (dim, dim) involution on coefficients
    k_basis: np.ndarray  # +1 eigenspace columns
    s_basis: np.ndarray  # -1 eigenspace columns
    b_theta: np.ndarray  # B_theta(X,Y) = -<X, theta Y>
    a_basis: np.ndarray  # columns spanning the maximal abelian a in s
    roots: tuple[RootDatum, ...]
    positive_set: tuple[int, ...]
    simple_set: tuple[int, ...]
    chamber_H: np.ndarray  # ambient coefficients of the default regular element

    def a_coefficients(self, h: np.ndarray) -> np.ndarray:
        """Express an ambient vector in a_basis coordinates; error if outside a."""
        h = np.asarray(h, dtype=float)
        coeffs, *_ = np.linalg.lstsq(self.a_basis, h, rcond=None)
        if np.linalg.norm(self.a_basis @ coeffs - h) > TOL.scale(h) * 10 + TOL.abs_eps:
            raise DomainError("element does not lie in the maximal abelian subalgebra")
        return coeffs

    def root_values(self, h: np.ndarray) -> np.ndarray:
        """alpha(H) for every root, H given in ambient coefficients."""
        coeffs = self.a_coefficients(h)
        return np.array([r.functional @ coeffs for r in self.roots])

    def check_chamber(self, h: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(h)):
            raise DomainError("chamber element must be finite")
        vals = self.root_values(h)
        for i in self.simple_set:
            if vals[i] < -TOL.abs_eps:
                raise DomainError("element lies outside the closed positive Weyl chamber")
        return vals

    def project_k(self, v: np.ndarray) -> np.ndarray:
        """The k-part of a vector or of each vector of a (..., dim) stack."""
        return 0.5 * (v + apply(self.theta, v))

    def project_s(self, v: np.ndarray) -> np.ndarray:
        """The s-part of a vector or of each vector of a (..., dim) stack."""
        return 0.5 * (v - apply(self.theta, v))


@dataclass(frozen=True)
class OrbitBatch:
    """n_base x n_fiber tagged orbit samples as arrays; the tags are the indices.

    points and fibers are (n_base, n_fiber, dim) arrays, base_points is
    (n_base, dim) and k the (n_base, n, n) group elements of
    sample_k_operators, which act through LieAlgebraData.conjugate;
    consumers read them in stacked calls.  The fiber is stored before any
    deformation map, in the format that kind names: Ad(k)X with X in
    n_H^+ (point = base + psi_r fiber) for "deformed" batches (r = 1 and
    r = inf included), the raw fiber coordinate v in s (point = w + [w, v])
    for "semidirect" batches, which only sample_semidirect_orbit makes.
    """

    points: np.ndarray
    base_points: np.ndarray
    k: np.ndarray
    fibers: np.ndarray
    kind: str
    r: float


_FAMILIES = {"sl_real", "sl_complex", "so"}

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


def _coordinates(family: str, m: np.ndarray) -> np.ndarray:
    """Coordinates of each matrix of a (..., n, n) stack, i < j in row-major order."""
    if family == "sl_complex":
        return np.concatenate(
            [_coordinates("sl_real", m.real), _coordinates("sl_real", m.imag)], axis=-1
        )
    m = m.real
    rows, cols = np.triu_indices(m.shape[-1], 1)
    upper, lower = m[..., rows, cols], m[..., cols, rows]
    if family == "so":
        return upper
    diag = np.cumsum(np.diagonal(m, axis1=-2, axis2=-1)[..., :-1], axis=-1)
    return np.concatenate([diag, 0.5 * (upper + lower), 0.5 * (upper - lower)], axis=-1)


def build_algebra(family: str, n: int) -> LieAlgebraData:
    """Construct the algebra with structure tensor and Killing matrix.

    The structure tensor comes from the matrix commutators of all pairs
    of basis elements, read back by entries; the Killing matrix from the
    trace form c Re tr(e_i e_j) on that basis.  Both are exact integers.
    """
    if family not in _FAMILIES:
        raise ConfigurationError(f"unsupported family {family!r}")
    if n < 2:
        raise ConfigurationError("rank must satisfy n >= 2")
    if family == "sl_real":
        mats = [m.astype(complex) for m in _sl_real_basis(n)]
        field_tag = "real"
    elif family == "sl_complex":
        real_part = _sl_real_basis(n)
        mats = [m.astype(complex) for m in real_part] + [1j * m for m in real_part]
        field_tag = "complex"
    else:
        mats = [m.astype(complex) for m in _so_basis(n)]
        field_tag = "real"

    dim = len(mats)
    basis = np.stack(mats)
    products = basis[:, None] @ basis[None]
    structure = _coordinates(family, products - np.swapaxes(products, 0, 1))

    # tr(ad X ad Y) = c Re tr(XY): 2n on sl(n,R), 4n on sl(n,C) as a real algebra
    # (twice the real part of its complex form 2n tr(XY)), n - 2 on so(n)
    scale = {"sl_real": 2 * n, "sl_complex": 4 * n, "so": n - 2}[family]
    # tr(e_i e_j) = sum_ab (e_i)_ab (e_j)_ba, one product of the flattened bases
    killing = scale * (basis.reshape(dim, -1) @ np.swapaxes(basis, 1, 2).reshape(dim, -1).T).real

    j_op = None
    if field_tag == "complex":
        half = dim // 2
        j_op = np.zeros((dim, dim))
        j_op[half:, :half] = np.eye(half)
        j_op[:half, half:] = -np.eye(half)

    return LieAlgebraData(
        family=family,
        n=n,
        field_tag=field_tag,
        dim=dim,
        basis=basis if field_tag == "complex" else basis.real,
        structure=structure,
        killing=killing,
        j_op=j_op,
    )


def _theta_matrix(alg: LieAlgebraData) -> np.ndarray:
    """Coefficient matrix of theta(X) = -X^T (real) or tau(X) = -conj(X)^T."""
    return alg.to_vector(-np.conj(np.swapaxes(alg.basis, -1, -2))).T


def _b_orthonormalize(basis: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a matrix, or of each in a stack, for the positive form b."""
    if basis.shape[-1] == 0:
        return basis
    gram = np.swapaxes(basis, -1, -2) @ b @ basis
    chol = np.linalg.cholesky(gram)
    return basis @ np.swapaxes(np.linalg.inv(chol), -1, -2)


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.allclose(a, b, atol=1e-8) along the last axis of broadcasting stacks.

    Its rule, |a - b| <= 1e-8 + 1e-5 |b| in every entry, on every pair at once.
    """
    return (np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)).all(axis=-1)


def cartan_structure(alg: LieAlgebraData) -> CartanData:
    """Cartan decomposition, maximal abelian subalgebra and restricted roots.

    theta(X) = -X^T for real families, tau(X) = -conj(X)^T for complex
    ones.  The maximal abelian a is the span of the real diagonal basis
    elements, zero on so(n), which then has no roots; positivity is the
    lexicographic choice that makes the strictly upper-triangular root
    vectors positive.  ad(a) is exact, so
    fixed cutoffs serve: eigenvalues within 1e-9 are one root, |alpha| <= 1e-8 is zero.
    """
    theta = _theta_matrix(alg)
    signs = np.diag(theta)
    if not (np.array_equal(theta, np.diag(signs)) and (np.abs(signs) == 1.0).all()):
        raise StructureError("theta is not diagonal with entries +-1 on the basis")
    eye = np.eye(alg.dim)
    k_basis, s_basis = eye[:, signs == 1.0], eye[:, signs == -1.0]
    b_theta = -alg.killing @ theta

    a_basis = eye[:, : 0 if alg.family == "so" else alg.n - 1]

    ops = [alg.ad(a_basis[:, i]) for i in range(a_basis.shape[1])]
    blocks = simultaneous_eigenspaces(ops) if ops else [(np.zeros(0), eye)]

    roots: list[RootDatum] = []
    zero_space = None
    for vals, basis in blocks:
        if np.abs(vals).max(initial=0.0) <= 1e-8:
            zero_space = basis
            continue
        roots.append(
            RootDatum(
                functional=vals,
                space_basis=_b_orthonormalize(basis, b_theta),
                theta_image_index=-1,
            )
        )
    if zero_space is None:
        raise StructureError("joint zero eigenspace missing")
    covered = zero_space.shape[1] + sum(r.space_basis.shape[1] for r in roots)
    if covered != alg.dim:
        raise StructureError("root decomposition does not close")

    # pair alpha with -alpha and check theta(g_alpha) = g_{-alpha}
    funcs = np.array([r.functional for r in roots]).reshape(len(roots), a_basis.shape[1])
    opposite = _close(funcs[None], -funcs[:, None])  # [i, j]: root j is -(root i)
    if not opposite.any(axis=1).all():
        raise StructureError("a root has no opposite root")
    paired = []
    for r, row in zip(roots, opposite):
        j = int(row.argmax())  # the first opposite, as a search in root order finds it
        img = theta @ r.space_basis
        resid = img - roots[j].space_basis @ (roots[j].space_basis.T @ b_theta @ img)
        if np.linalg.norm(resid) > 1e-9:
            raise StructureError("theta does not exchange opposite root spaces")
        paired.append(RootDatum(r.functional, r.space_basis, j))
    roots = paired

    # positivity: evaluate on a probe with strictly decreasing diagonal
    nn = alg.n
    probe_diag = np.diag([nn - 1 - 2 * i for i in range(nn)]).astype(complex)
    probe = alg.to_vector(probe_diag)
    probe_coeffs, *_ = np.linalg.lstsq(a_basis, probe, rcond=None)
    positive = tuple(np.flatnonzero(funcs @ probe_coeffs > 1e-8).tolist())
    # simple: the positive roots that are no sum of two positive roots
    pos = funcs[list(positive)]
    is_sum = _close(pos[:, None, None], pos[:, None] + pos[None]).any(axis=(1, 2))
    simple = tuple(i for i, summed in zip(positive, is_sum) if not summed)

    chamber_H = chamber_element(a_basis, roots, simple, "regular")
    return CartanData(
        alg=alg,
        theta=theta,
        k_basis=k_basis,
        s_basis=s_basis,
        b_theta=b_theta,
        a_basis=a_basis,
        roots=tuple(roots),
        positive_set=positive,
        simple_set=simple,
        chamber_H=chamber_H,
    )


def chamber_element(
    a_basis: np.ndarray,
    roots: tuple[RootDatum, ...] | list[RootDatum],
    simple_set: tuple[int, ...],
    spec: str,
) -> np.ndarray:
    """Ambient vector for a named chamber preset.

    "regular" solves alpha(H) = 2 on every simple root (giving
    diag(1,-1) for sl(2)); "wall:k" zeroes the k-th simple root value
    (0-based) and keeps the rest at 2.
    """
    targets = np.full(len(simple_set), 2.0)
    if spec.startswith("wall:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"wall index of {spec!r} is not an integer") from None
        if not 0 <= k < len(simple_set):
            raise DomainError(f"wall index {k} out of range")
        targets[k] = 0.0
    elif spec != "regular":
        raise DomainError(f"unknown chamber preset {spec!r}")
    if not simple_set:
        return np.zeros(a_basis.shape[0])
    m = np.stack([roots[i].functional for i in simple_set])
    coeffs, *_ = np.linalg.lstsq(m, targets, rcond=None)
    return a_basis @ coeffs


def h_subspaces(cd: CartanData, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_H^+, n_H^-, z_H) bases for H in the closed positive chamber."""
    vals = cd.check_chamber(h)
    eps = TOL.abs_eps
    plus_cols = [cd.roots[i].space_basis for i in range(len(cd.roots)) if vals[i] > eps]
    minus_cols = [cd.roots[i].space_basis for i in range(len(cd.roots)) if vals[i] < -eps]
    dim = cd.alg.dim
    n_plus = np.hstack(plus_cols) if plus_cols else np.zeros((dim, 0))
    n_minus = np.hstack(minus_cols) if minus_cols else np.zeros((dim, 0))
    z_h = nullspace(cd.alg.ad(h))
    if n_plus.shape[1] + n_minus.shape[1] + z_h.shape[1] != dim:
        raise StructureError("dim g != dim z_H + dim n_H^+ + dim n_H^-")
    return n_plus, n_minus, z_h


def sample_k_operators(cd: CartanData, seed: int, count: int) -> np.ndarray:
    """Seeded elements g = exp(A3) exp(A2) exp(A1) of K, A_i random in k: (count, n, n).

    Each factor is an n x n exponential.  k is the -X^H-fixed part of g
    on every family (K = SO(n) or SU(n)), so g^-1 = g^H, and Ad(g) acts
    through LieAlgebraData.conjugate; exp(ad A) = Ad(exp A) makes it the
    product of the exp(ad A_i).
    """
    alg = cd.alg
    coeffs = np.random.default_rng(seed).standard_normal((count, 3, cd.k_basis.shape[1]))
    exps = matrix_exp(alg.to_matrix(coeffs @ cd.k_basis.T))
    return exps[:, 2] @ (exps[:, 1] @ exps[:, 0])


def flag_orbit_sample(cd: CartanData, h: np.ndarray, seed: int, count: int) -> np.ndarray:
    """Samples Ad(k).H of the compact orbit Ad(K).H (the flag manifold through H): (count, dim).

    The k are sample_k_operators(cd, seed, count), the draw of the bundle
    samplers' base points at the same seed.
    """
    cd.check_chamber(h)
    return cd.alg.conjugate(sample_k_operators(cd, seed, count), h)
