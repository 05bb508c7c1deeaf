"""Dense complex-matrix kernel: Hermitian eigendecomposition and singular value
decomposition, as thin wrappers over numpy's LAPACK drivers that fix the
conventions the rest of entkit relies on (descending order, unitary factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting anything else."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def is_hermitian(a, tol: float = HERMITIAN_TOL) -> bool:
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
    return float(np.max(np.abs(arr - arr.conj().T))) <= tol * scale


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (LAPACK ``heevd``).

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted in
    descending order (stable for ties) and eigenvectors as the columns of a
    unitary matrix, so ``H @ vecs[:, k] == vals[k] * vecs[:, k]``. Raises
    ValueError if the input is not square or not Hermitian within
    ``HERMITIAN_TOL``.
    """
    H = as_complex_matrix(h, "eigen input")
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"eigen input must be square, got shape {H.shape}")
    if not is_hermitian(H):
        raise ValueError("eigen input is not Hermitian within tolerance")
    # Work on the exactly-Hermitian part; the input may be off by up to the
    # validation tolerance.
    vals, vecs = np.linalg.eigh((H + H.conj().T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


@dataclass(frozen=True)
class SVDResult:
    """Decomposition C = U D V with U (m x m) and V (n x n) unitary and D the
    m x n diagonal of the singular values (descending, non-negative)."""

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = self.left_vectors.shape[0]
        n = self.right_vectors.shape[0]
        d = np.zeros((m, n))
        np.fill_diagonal(d, self.singular_values)
        return self.left_vectors @ d @ self.right_vectors


def svd(c) -> SVDResult:
    """Full singular value decomposition of C (LAPACK ``gesdd``), computed on
    C itself rather than on C*C, so tiny singular values keep their accuracy.
    A zero matrix yields all-zero singular values."""
    u, s, vh = np.linalg.svd(as_complex_matrix(c), full_matrices=True)
    return SVDResult(left_vectors=u, singular_values=s, right_vectors=vh)
