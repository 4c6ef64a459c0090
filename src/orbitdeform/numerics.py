"""Deterministic dense linear-algebra substrate with fixed tolerances.

Everything downstream (algebra construction, orbit sampling, form checks)
goes through these routines so that rank / nullspace / eigenspace decisions
are made with one rule, cutoff: sigma is zero when sigma <= 1e-9 + 1e-7
sigma_max, and simultaneous_eigenspaces splits sorted eigenvalues where a
gap exceeds cutoff of the largest |eigenvalue|.  The same rule decides
membership, in CartanData: x lies in k
when |project_s(x)| <= cutoff(|x|) (require_k), h in a when its lstsq
residual is at most cutoff(|h|), both over max(|h|_inf, 1)
(a_coefficients), and a root value of H is zero when |alpha(H)| <=
cutoff(max_beta |beta(H)|) (check_chamber).
symplectic.max_isotropic reads it for the radical and the paired eigenvalues.

matrix_exp and orthonormal_range also take (..., n, m) stacks, one matrix
per orbit sample; apply and bilinear evaluate matrix-vector products and
bilinear forms on (..., dim) stacks.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between operands."""


class StructureError(ValueError):
    """Input violates a structural precondition (e.g. non-commuting family)."""


def cutoff(largest):
    """The zero cutoff 1e-9 + 1e-7 largest for the largest magnitude, or for an array of them.

    A magnitude v counts as zero when v <= cutoff(largest): the package's one zero rule.
    """
    return 1e-9 + 1e-7 * largest


def apply(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """op @ x for one vector or every vector of a (..., dim) stack.

    Stacked matrix-vector products, which give the bits of the per-vector products.
    """
    return (op @ np.asarray(x, dtype=float)[..., None])[..., 0]


def bilinear(x: np.ndarray, m: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """x^T M y: a float for two vectors, a (...) array for (..., dim) stacks.

    Stacked vector-matrix-vector products, which give the bits of x @ M @ y.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v = (x[..., None, :] @ m @ y[..., None])[..., 0, 0]
    return float(v) if v.ndim == 0 else v


def _require_square(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """A as an array, checked to be a finite square matrix (or a (..., n, n) stack if `stack`)."""
    a = np.asarray(a)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


# Numerator coefficients b_0 .. b_13 of the [13/13] Pade approximant to exp,
# divided by b_0 so that exp(0) = solve(I, I) = I exactly, and the 1-norm up
# to which the approximant is accurate to double precision (Higham 2005).
_PADE_13 = tuple(c / 64764752532480000 for c in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
))
_THETA_13 = 5.371920351148152


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp(A) for one real or complex matrix or a (..., n, n) stack of them.

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26(4), 2005): each matrix is scaled by its own power of
    two 2^-s so that its 1-norm is at most theta_13, the approximant is
    evaluated, and the result is squared s times.  Real input gives a real
    result.  exp(0) = I exactly.
    """
    a = _require_square(a, stack=True)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(math.prod(shape[:-2]), n, n).astype(np.result_type(a.dtype, float))
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norm, _THETA_13) / _THETA_13)).astype(int)
    a = a * np.exp2(-s)[:, None, None]
    b = _PADE_13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    out = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        part = out[sq]
        out[sq] = part @ part
    return out.reshape(shape)


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of A.

    A singular value sigma is treated as zero when sigma <= cutoff(sigma_max).
    Returns a (cols, k) array, k = 0 when A has full column rank.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    # a has entries, so s does: s[0] is sigma_max
    rank = int(np.sum(s > cutoff(s[0])))
    return vh[rank:].conj().T


def rank(a: np.ndarray) -> np.ndarray:
    """Numerical rank of A, or of each A in a (..., rows, cols) stack, with the cutoff of its sigma_max."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2], dtype=int)
    s = np.linalg.svd(a, compute_uv=False)
    return (s > cutoff(s[..., :1])).sum(axis=-1)


def orthonormal_range(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) for the span of A, or of each A in a (..., rows, cols) stack.

    Each matrix gets its own cutoff, cutoff(sigma_max).  The
    result of a stack is one array, so a stack whose ranks differ raises
    StructureError.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a.reshape(*a.shape[:-1], 0)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    # s is sorted, so each row of keep is a prefix: equal rows, equal ranks
    keep = (s > cutoff(s[..., :1])).reshape(-1, s.shape[-1])
    if keep.shape[0] > 1 and (keep != keep[0]).any():
        ranks = sorted(set(keep.sum(axis=1).tolist()))
        raise StructureError(f"matrices in the stack have ranks {ranks}")
    return u[..., keep[0]]


def simultaneous_eigenspaces(ops: np.ndarray, metric: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Joint eigenspaces of a commuting (m, n, n) stack, m >= 0, of operators symmetric for metric.

    metric is an (n, n) positive form M, and each operator A has M A = (M A)^T.
    The one block of the empty family is the M-orthonormal inv(cholesky(M))^T;
    each operator refines every block V by one eigh of V^T M A V, split where
    its sorted eigenvalues gap by more than cutoff of the largest |eigenvalue|.
    So the blocks are M-orthonormal and span the space.  Returns a list of
    (eigenvalue_vector, basis) pairs, one eigenvalue per operator, the mean of
    its split.  Raises StructureError when an operator is not M-symmetric, or
    when the operators fail to commute.
    """
    ops, metric = _require_square(ops, stack=True), _require_square(metric)
    if ops.ndim != 3 or metric.shape != ops.shape[1:]:
        raise DimensionError(f"expected an (m, n, n) stack of operators and an (n, n) metric, "
                             f"got shapes {ops.shape} and {metric.shape}")
    m_ops = metric @ ops
    for m_op in m_ops:
        if np.abs(m_op - m_op.T).max(initial=0.0) > cutoff(np.abs(m_op).max(initial=0.0)):
            raise StructureError("operator is not symmetric for the metric")
    scale = max([1.0, *(float(np.linalg.norm(op)) for op in ops)])
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            largest = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
            if np.linalg.norm(a @ b - b @ a) > cutoff(largest) * scale * 10:
                raise StructureError("operators do not commute within tolerance")

    blocks: list[tuple[tuple[float, ...], np.ndarray]] = [((), np.linalg.inv(np.linalg.cholesky(metric)).T)]
    for m_op in m_ops:
        refined = []
        for vals, basis in blocks:
            lam, vecs = np.linalg.eigh(basis.T @ m_op @ basis)
            cuts = np.flatnonzero(np.diff(lam) > cutoff(np.abs(lam).max())) + 1
            for part, sub in zip(np.split(lam, cuts), np.split(vecs, cuts, axis=1)):
                refined.append((vals + (float(np.mean(part)),), basis @ sub))
        blocks = refined
    return [(np.array(vals), basis) for vals, basis in blocks]
