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
(x, y, z) = xH + yS + zA.  The orbit samplers return an OrbitBatch:
arrays over (base, fiber) whose items are OrbitSample views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DimensionError,
    StructureError,
    Tolerance,
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
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n))
            a[i, j], a[j, i] = 1.0, -1.0
            basis.append(a)
    return basis


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
    killing: np.ndarray  # (dim, dim), tr(ad e_i . ad e_j)
    j_op: np.ndarray | None  # (dim, dim) multiplication by i, complex case only
    _expand_pinv: np.ndarray = field(repr=False, default=None)

    def to_matrix(self, v: np.ndarray) -> np.ndarray:
        v = self._check_vec(v)
        return np.tensordot(v, self.basis, axes=(0, 0))

    def to_vector(self, m: np.ndarray) -> np.ndarray:
        flat = np.concatenate([m.real.ravel(), m.imag.ravel()]).astype(float)
        return self._expand_pinv @ flat

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = self._check_vec(x), self._check_vec(y)
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) on basis coefficients; a (..., dim) stack gives (..., dim, dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionError(f"expected coefficient vectors of length {self.dim}")
        return np.einsum("...i,ijk->...kj", x, self.structure)

    def killing_form(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self._check_vec(x) @ self.killing @ self._check_vec(y))

    def _check_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionError(f"expected coefficient vector of length {self.dim}")
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
    zero_space: np.ndarray  # centralizer of a (joint zero eigenspace) columns

    def a_coefficients(self, h: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
        """Express an ambient vector in a_basis coordinates; error if outside a."""
        h = np.asarray(h, dtype=float)
        coeffs, *_ = np.linalg.lstsq(self.a_basis, h, rcond=None)
        if np.linalg.norm(self.a_basis @ coeffs - h) > tol.scale(h) * 10 + tol.abs_eps:
            raise DomainError("element does not lie in the maximal abelian subalgebra")
        return coeffs

    def root_values(self, h: np.ndarray) -> np.ndarray:
        """alpha(H) for every root, H given in ambient coefficients."""
        coeffs = self.a_coefficients(h)
        return np.array([r.functional @ coeffs for r in self.roots])

    def check_chamber(self, h: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
        if not np.all(np.isfinite(h)):
            raise DomainError("chamber element must be finite")
        vals = self.root_values(h)
        for i in self.simple_set:
            if vals[i] < -max(tol.abs_eps, 1e-9):
                raise DomainError("element lies outside the closed positive Weyl chamber")
        return vals

    def project_k(self, v: np.ndarray) -> np.ndarray:
        return 0.5 * (v + self.theta @ v)

    def project_s(self, v: np.ndarray) -> np.ndarray:
        return 0.5 * (v - self.theta @ v)


@dataclass(frozen=True)
class OrbitSample:
    """A point of an orbit together with its construction tags.

    ``fiber`` stores the fiber element before any deformation map is
    applied: an element of n_H^+ for adjoint/deformed samples, the
    tangential fiber coordinate v (with point = w + [w, v]) for
    semidirect samples.
    """

    point: np.ndarray
    kind: str  # "flag" | "adjoint" | "deformed" | "semidirect"
    base_point: np.ndarray
    k_op: np.ndarray
    fiber: np.ndarray
    fiber_coeffs: np.ndarray
    r: float = 1.0
    base_tag: int = 0
    fiber_tag: int = 0


@dataclass(frozen=True)
class OrbitBatch:
    """n_base x n_fiber tagged orbit samples as arrays; the tags are the indices.

    points, fibers (the fiber element before any deformation map) and
    fiber_coeffs are (n_base, n_fiber, ...) arrays, base_points is
    (n_base, dim) and k_ops (n_base, dim, dim).  len, iteration and
    indexing give OrbitSample views in (base_tag, fiber_tag) row-major
    order; a slice gives a list of them.
    """

    points: np.ndarray
    base_points: np.ndarray
    k_ops: np.ndarray
    fibers: np.ndarray
    fiber_coeffs: np.ndarray
    kind: str
    r: float

    def __len__(self) -> int:
        return self.points.shape[0] * self.points.shape[1]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[j] for j in i]
        b, f = divmod(i, self.points.shape[1])
        return OrbitSample(
            point=self.points[b, f], kind=self.kind, base_point=self.base_points[b],
            k_op=self.k_ops[b], fiber=self.fibers[b, f], fiber_coeffs=self.fiber_coeffs[b, f],
            r=self.r, base_tag=b, fiber_tag=f,
        )


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


def build_algebra(family: str, n: int) -> LieAlgebraData:
    """Construct the algebra with structure tensor and Killing matrix.

    The structure tensor comes from matrix commutators of the canonical
    basis; the Killing matrix from tr(ad o ad) on that basis.
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
    flat = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats], axis=1)
    expand_pinv = np.linalg.pinv(flat)

    def vec(m):
        return expand_pinv @ np.concatenate([m.real.ravel(), m.imag.ravel()])

    structure = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            c = vec(mats[i] @ mats[j] - mats[j] @ mats[i])
            structure[i, j] = c
            structure[j, i] = -c

    ads = np.einsum("ijk->ikj", structure)  # ads[i] = ad(e_i)
    killing = np.einsum("iab,jba->ij", ads, ads)
    killing = 0.5 * (killing + killing.T)

    j_op = None
    if field_tag == "complex":
        half = dim // 2
        j_op = np.zeros((dim, dim))
        j_op[half:, :half] = np.eye(half)
        j_op[:half, half:] = -np.eye(half)

    if family == "sl_real" or family == "sl_complex":
        basis_out = basis if field_tag == "complex" else basis.real
    else:
        basis_out = basis.real
    return LieAlgebraData(
        family=family,
        n=n,
        field_tag=field_tag,
        dim=dim,
        basis=basis_out,
        structure=structure,
        killing=killing,
        j_op=j_op,
        _expand_pinv=expand_pinv,
    )


def _theta_matrix(alg: LieAlgebraData) -> np.ndarray:
    """Coefficient matrix of theta(X) = -X^T (real) or tau(X) = -conj(X)^T."""
    cols = []
    for m in alg.basis:
        cols.append(alg.to_vector(-np.conj(m).T))
    return np.stack(cols, axis=1)


def _eigen_basis_indices(theta: np.ndarray, sign: float) -> np.ndarray:
    """Columns of the identity that are theta-eigenvectors with given sign."""
    dim = theta.shape[0]
    idx = [i for i in range(dim) if abs(theta[i, i] - sign) < 1e-12]
    basis = np.zeros((dim, len(idx)))
    for col, i in enumerate(idx):
        basis[i, col] = 1.0
    return basis


def _b_orthonormalize(basis: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a matrix, or of each in a stack, for the positive form b."""
    if basis.shape[-1] == 0:
        return basis
    gram = np.swapaxes(basis, -1, -2) @ b @ basis
    chol = np.linalg.cholesky(gram)
    return basis @ np.swapaxes(np.linalg.inv(chol), -1, -2)


def cartan_structure(alg: LieAlgebraData, tol: Tolerance = Tolerance()) -> CartanData:
    """Cartan decomposition, maximal abelian subalgebra and restricted roots.

    theta(X) = -X^T for real families, tau(X) = -conj(X)^T for complex
    ones.  The maximal abelian a is the span of the real diagonal basis
    elements; positivity is the lexicographic choice that makes the
    strictly upper-triangular root vectors positive.
    """
    theta = _theta_matrix(alg)
    if np.linalg.norm(theta @ theta - np.eye(alg.dim)) > 1e-10:
        raise StructureError("involution failed theta^2 = I")
    k_basis = _eigen_basis_indices(theta, +1.0)
    s_basis = _eigen_basis_indices(theta, -1.0)
    if k_basis.shape[1] + s_basis.shape[1] != alg.dim:
        raise StructureError("basis is not adapted to the involution")
    b_theta = -alg.killing @ theta
    b_theta = 0.5 * (b_theta + b_theta.T)

    if alg.family in ("sl_real", "sl_complex"):
        a_basis = np.eye(alg.dim)[:, : alg.n - 1]
    else:
        a_basis = np.zeros((alg.dim, 0))

    if a_basis.shape[1] == 0:
        return CartanData(
            alg=alg,
            theta=theta,
            k_basis=k_basis,
            s_basis=s_basis,
            b_theta=b_theta,
            a_basis=a_basis,
            roots=(),
            positive_set=(),
            simple_set=(),
            chamber_H=np.zeros(alg.dim),
            zero_space=np.eye(alg.dim),
        )

    ops = [alg.ad(a_basis[:, i]) for i in range(a_basis.shape[1])]
    blocks = simultaneous_eigenspaces(ops, tol)

    roots: list[RootDatum] = []
    zero_space = None
    for vals, basis in blocks:
        if np.max(np.abs(vals)) <= max(tol.abs_eps, 1e-8):
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
    paired = []
    for i, r in enumerate(roots):
        j = next(
            k
            for k, other in enumerate(roots)
            if np.allclose(other.functional, -r.functional, atol=1e-8)
        )
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
    positive = tuple(
        i for i, r in enumerate(roots) if float(r.functional @ probe_coeffs) > 1e-8
    )
    pos_funcs = [roots[i].functional for i in positive]
    simple = []
    for i in positive:
        f = roots[i].functional
        is_sum = any(
            np.allclose(f, fa + fb, atol=1e-8) for fa in pos_funcs for fb in pos_funcs
        )
        if not is_sum:
            simple.append(i)

    chamber_H = chamber_element(a_basis, roots, tuple(simple), "regular")
    return CartanData(
        alg=alg,
        theta=theta,
        k_basis=k_basis,
        s_basis=s_basis,
        b_theta=b_theta,
        a_basis=a_basis,
        roots=tuple(roots),
        positive_set=positive,
        simple_set=tuple(simple),
        chamber_H=chamber_H,
        zero_space=zero_space,
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
    if not simple_set:
        return np.zeros(a_basis.shape[0])
    targets = np.full(len(simple_set), 2.0)
    if spec.startswith("wall:"):
        k = int(spec.split(":", 1)[1])
        if not 0 <= k < len(simple_set):
            raise DomainError(f"wall index {k} out of range")
        targets[k] = 0.0
    elif spec != "regular":
        raise DomainError(f"unknown chamber preset {spec!r}")
    m = np.stack([roots[i].functional for i in simple_set])
    coeffs, *_ = np.linalg.lstsq(m, targets, rcond=None)
    return a_basis @ coeffs


def h_subspaces(
    cd: CartanData, h: np.ndarray, tol: Tolerance = Tolerance()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_H^+, n_H^-, z_H) bases for H in the closed positive chamber."""
    vals = cd.check_chamber(h, tol)
    eps = max(tol.abs_eps, 1e-9)
    plus_cols = [cd.roots[i].space_basis for i in range(len(cd.roots)) if vals[i] > eps]
    minus_cols = [cd.roots[i].space_basis for i in range(len(cd.roots)) if vals[i] < -eps]
    dim = cd.alg.dim
    n_plus = np.hstack(plus_cols) if plus_cols else np.zeros((dim, 0))
    n_minus = np.hstack(minus_cols) if minus_cols else np.zeros((dim, 0))
    z_h = nullspace(cd.alg.ad(h), tol)
    if n_plus.shape[1] + n_minus.shape[1] + z_h.shape[1] != dim:
        raise StructureError("dim g != dim z_H + dim n_H^+ + dim n_H^-")
    return n_plus, n_minus, z_h


def sample_k_operators(cd: CartanData, seed: int, count: int) -> np.ndarray:
    """Seeded Ad(K) operators (count, dim, dim): products of 3 exponentials of random k-elements."""
    coeffs = np.random.default_rng(seed).standard_normal((count, 3, cd.k_basis.shape[1]))
    exps = matrix_exp(cd.alg.ad(coeffs @ cd.k_basis.T))
    return exps[:, 2] @ (exps[:, 1] @ exps[:, 0])


def flag_orbit_sample(cd: CartanData, h: np.ndarray, seed: int, count: int) -> OrbitBatch:
    """Samples of the compact orbit Ad(K).H (the flag manifold through H), one fiber point each."""
    cd.check_chamber(h)
    k_ops = sample_k_operators(cd, seed, count)
    base = k_ops @ np.asarray(h, dtype=float)
    return OrbitBatch(
        points=base[:, None], base_points=base, k_ops=k_ops,
        fibers=np.zeros((count, 1, cd.alg.dim)), fiber_coeffs=np.zeros((count, 1, 0)),
        kind="flag", r=math.inf,
    )
