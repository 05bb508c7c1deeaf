"""Dense complex-matrix kernel: Hermitian eigendecomposition and singular value
decomposition, sized for desk-scale problems (dims <= 256).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
JACOBI_OFFDIAG_REL = 1e-14
JACOBI_MAX_SWEEPS = 100
SVD_LEFT_TOL = 1e-12


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
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted in
    descending order (stable for ties) and eigenvectors as the columns of a
    unitary matrix, so ``H @ vecs[:, k] == vals[k] * vecs[:, k]``.

    Sweeps stop once the off-diagonal Frobenius norm falls below
    ``JACOBI_OFFDIAG_REL * ||H||_F``, or after ``JACOBI_MAX_SWEEPS`` sweeps.
    Unconditionally convergent at the matrix sizes this kernel targets.

    Raises
    ------
    ValueError
        If the input is not square or not Hermitian within ``HERMITIAN_TOL``.
    """
    H = as_complex_matrix(h, "eigen input")
    n = H.shape[0]
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"eigen input must be square, got shape {H.shape}")
    if not is_hermitian(H):
        raise ValueError("eigen input is not Hermitian within tolerance")

    # Work on the exactly-Hermitian part; the input may be off by up to the
    # validation tolerance.
    A = (H + H.conj().T) / 2.0
    V = np.eye(n, dtype=complex)
    hnorm = float(np.linalg.norm(A))
    if n == 1 or hnorm == 0.0:
        vals = np.real(np.diag(A)).copy()
        order = np.argsort(-vals, kind="stable")
        return vals[order], V[:, order]

    # Pivots below this threshold are skipped; n of them together still keep
    # the off-diagonal norm under the termination target.
    skip = (JACOBI_OFFDIAG_REL / (2.0 * n)) * hnorm
    for _ in range(JACOBI_MAX_SWEEPS):
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= JACOBI_OFFDIAG_REL * hnorm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = A[p, q]
                ab = abs(b)
                if ab <= skip:
                    continue
                app = A[p, p].real
                aqq = A[q, q].real
                tau = (app - aqq) / (2.0 * ab)
                # Smaller-magnitude root of t^2 - 2*tau*t - 1 = 0, for stability.
                if tau >= 0.0:
                    t = -1.0 / (tau + np.sqrt(tau * tau + 1.0))
                else:
                    t = 1.0 / (-tau + np.sqrt(tau * tau + 1.0))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (t * c) * (b / ab)
                sc = s.conjugate()

                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - s * rowq
                A[q, :] = sc * rowp + c * rowq
                A[:, p] = A[p, :].conj()
                A[:, q] = A[q, :].conj()
                # The 2x2 pivot block is known in closed form; writing it
                # directly keeps the matrix exactly Hermitian.
                A[p, p] = app - t * ab
                A[q, q] = aqq + t * ab
                A[p, q] = 0.0
                A[q, p] = 0.0

                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - sc * vq
                V[:, q] = s * vp + c * vq

    vals = np.real(np.diag(A)).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], V[:, order]


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


def _project_out(u: np.ndarray, basis: np.ndarray, cols: list[int]) -> np.ndarray:
    # Two Gram-Schmidt passes; one is not enough near degeneracies.
    for _ in range(2):
        for j in cols:
            u = u - (basis[:, j].conj() @ u) * basis[:, j]
    return u


def svd(c) -> SVDResult:
    """Singular value decomposition via the Hermitian eigenproblem of C*C.

    The eigenvectors of C*C give the right factor; each left vector is the
    normalized image ``C v_i``, and its norm is taken as the singular value
    (more accurate than sqrt of the eigenvalue when sigma is tiny). Columns
    whose singular value falls below ``SVD_LEFT_TOL`` relative to the largest
    are completed to a unitary left basis by Gram-Schmidt against the standard
    basis. A zero matrix yields all-zero singular values.
    """
    C = as_complex_matrix(c)
    m, n = C.shape
    # Only the eigenvectors are needed: taking each singular value as the norm
    # of C v_i sidesteps the sqrt of eigenvalues that may round slightly
    # negative (they stay within -1e-12 of zero for these PSD products).
    _, W = hermitian_eigen(C.conj().T @ C)

    k = min(m, n)
    mapped = C @ W[:, :k]
    sigma = np.linalg.norm(mapped, axis=0) if k else np.zeros(0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    mapped = mapped[:, order]
    W = W[:, np.concatenate([order, np.arange(k, n)])]

    smax = float(sigma[0]) if k else 0.0
    U = np.zeros((m, m), dtype=complex)
    filled: list[int] = []
    pending: list[int] = []
    for i in range(m):
        if i < k and smax > 0.0 and sigma[i] > SVD_LEFT_TOL * smax:
            u = _project_out(mapped[:, i].copy(), U, filled)
            nu = float(np.linalg.norm(u))
            if nu > 0.5 * sigma[i]:
                U[:, i] = u / nu
                filled.append(i)
                continue
        pending.append(i)

    # Fill leftover columns with the standard basis vector least represented
    # in the span built so far.
    for slot in pending:
        best_u = None
        best_norm = -1.0
        for kidx in range(m):
            e = np.zeros(m, dtype=complex)
            e[kidx] = 1.0
            e = _project_out(e, U, filled)
            nu = float(np.linalg.norm(e))
            if nu > best_norm:
                best_norm = nu
                best_u = e
        U[:, slot] = best_u / best_norm
        filled.append(slot)

    return SVDResult(left_vectors=U, singular_values=sigma, right_vectors=W.conj().T)
