"""Deterministic dense linear-algebra substrate with an explicit tolerance policy.

Everything downstream (algebra construction, orbit sampling, form checks)
goes through these routines so that rank / nullspace / eigenspace decisions
are made with one consistent rule.  matrix_exp and orthonormal_range also
take (..., n, m) stacks, one matrix per orbit sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between operands."""


class StructureError(ValueError):
    """Input violates a structural precondition (e.g. non-commuting family)."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison rule: |a - b| <= abs_eps + rel_eps * max(|a|, |b|)."""

    abs_eps: float = 1e-9
    rel_eps: float = 1e-7

    def __post_init__(self):
        if not (0 <= self.abs_eps < math.inf and 0 <= self.rel_eps < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")

    def close(self, a, b) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return bool(
            np.all(np.abs(a - b) <= self.abs_eps + self.rel_eps * np.maximum(np.abs(a), np.abs(b)))
        )

    def scale(self, *arrays) -> float:
        m = max((float(np.max(np.abs(a))) if np.asarray(a).size else 0.0) for a in arrays)
        return self.abs_eps + self.rel_eps * m


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


def nullspace(a: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of A.

    A singular value sigma is treated as zero when
    sigma <= abs_eps + rel_eps * sigma_max.  Returns a (cols, k) array,
    k = 0 when A has full column rank.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    cutoff = tol.abs_eps + tol.rel_eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def rank(a: np.ndarray, tol: Tolerance = Tolerance()) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = tol.abs_eps + tol.rel_eps * (s[0] if s.size else 0.0)
    return int(np.sum(s > cutoff))


def orthonormal_range(a: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis (columns) for the span of A, or of each A in a (..., rows, cols) stack.

    Each matrix gets its own cutoff abs_eps + rel_eps * sigma_max.  The
    result of a stack is one array, so a stack whose ranks differ raises
    StructureError.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a.reshape(*a.shape[:-1], 0)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    # s is sorted, so each row of keep is a prefix: equal rows, equal ranks
    keep = (s > tol.abs_eps + tol.rel_eps * s[..., :1]).reshape(-1, s.shape[-1])
    if keep.shape[0] > 1 and (keep != keep[0]).any():
        ranks = sorted(set(keep.sum(axis=1).tolist()))
        raise StructureError(f"matrices in the stack have ranks {ranks}")
    return u[..., keep[0]]


def _cluster(values: np.ndarray, eps: float) -> list[np.ndarray]:
    """Group sorted indices of `values` into clusters with gaps > eps."""
    order = np.argsort(values)
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= eps:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def simultaneous_eigenspaces(
    ops: list[np.ndarray], tol: Tolerance = Tolerance()
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Joint eigenspace decomposition of a commuting, real-diagonalizable family.

    Returns a list of (eigenvalue_vector, orthonormal_basis) pairs; the
    eigenvalue vector collects one eigenvalue per operator.  Nearby
    eigenvalues (within abs_eps) are merged into a single cluster.
    Raises StructureError when the operators fail to commute.
    """
    ops = [_require_square(op) for op in ops]
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].shape[0]
    scale = max(1.0, *(float(np.linalg.norm(op)) for op in ops))
    for i, a in enumerate(ops):
        if a.shape[0] != n:
            raise DimensionError("operators act on different spaces")
        for b in ops[i + 1 :]:
            if np.linalg.norm(a @ b - b @ a) > tol.scale(a, b) * scale * 10:
                raise StructureError("operators do not commute within tolerance")

    blocks: list[tuple[tuple[float, ...], np.ndarray]] = [((), np.eye(n))]
    for op in ops:
        refined = []
        for vals, basis in blocks:
            restricted = basis.T @ op @ basis
            eigvals = np.linalg.eigvals(restricted)
            if np.max(np.abs(eigvals.imag)) > 1e-6 * scale:
                raise StructureError("operator is not real-diagonalizable on a joint block")
            eigvals = eigvals.real
            for group in _cluster(eigvals, max(tol.abs_eps, 1e-10)):
                lam = float(np.mean(eigvals[group]))
                sub = nullspace(
                    restricted - lam * np.eye(restricted.shape[0]),
                    Tolerance(abs_eps=max(tol.abs_eps, 1e-8) * max(1.0, scale), rel_eps=0.0),
                )
                if sub.shape[1] != len(group):
                    raise StructureError(
                        "eigenspace dimension mismatch; operator may not be diagonalizable"
                    )
                refined.append((vals + (lam,), basis @ sub))
        blocks = refined
    total = sum(b.shape[1] for _, b in blocks)
    if total != n:
        raise StructureError(f"eigenspace dimensions sum to {total}, expected {n}")
    return [(np.array(vals), basis) for vals, basis in blocks]
