"""Factorization test, Schmidt decomposition and the entanglement number.

A two-part pure state either factors into local parts or it is entangled.
Three complementary tools decide and quantify this:

* a coefficient-sum criterion that checks c_ij * c == (row sum)_i * (col sum)_j
  for every entry and, on success, reads the local parts straight off the row
  and column sums;
* the Schmidt decomposition, obtained from the singular value decomposition of
  the coefficient matrix, whose retained index r equals 1 exactly for product
  states;
* the entanglement number e = sqrt(1 - sum lambda_i^2), computed either from
  the Schmidt weights or, independently, from the fourth moment of the
  coefficient matrix via its row Gram matrix. The two routes agree to high
  accuracy and serve as mutual oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigen, svd
from .states import BipartiteState

RANK_TOL = 1e-10
RESIDUAL_TOL = 1e-9
MAXIMAL_TOL = 1e-8
SUM_CUTOFF = 1e-10
PHASE_FLOOR = 1e-12
_FORM_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Retained Schmidt data: coefficients sqrt(lambda_i) sorted descending,
    matching orthonormal left/right states (one per row), and the index r."""

    coefficients: np.ndarray
    left_states: np.ndarray
    right_states: np.ndarray
    index: int

    @property
    def weights(self) -> np.ndarray:
        """The probability vector lambda_i = coefficients^2."""
        return self.coefficients**2


@dataclass(frozen=True)
class FactorizationVerdict:
    """Outcome of the product test.

    ``max_residual`` is the largest raw violation of the entrywise identity
    c_ij * c = (row sum)_i * (col sum)_j; ``method`` records whether the
    sum criterion or the Schmidt-rank fallback decided.
    """

    factorized: bool
    local_left: np.ndarray | None
    local_right: np.ndarray | None
    max_residual: float
    method: str


@dataclass(frozen=True)
class EntanglementReport:
    entanglement_number: float
    schmidt_index: int
    distribution: np.ndarray
    upper_bound: float
    maximal: bool
    method: str
    fourth_moment: float


def _canonical_phase_pair(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Local parts are only defined up to opposite phases; fix a representative
    # by making the first sizable left amplitude real positive.
    for entry in left:
        if abs(entry) > PHASE_FLOOR:
            phase = entry / abs(entry)
            return left / phase, right * phase
    return left, right


def schmidt_decompose(state: BipartiteState, rank_tol: float = RANK_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of a two-part state.

    Singular values above ``rank_tol`` relative to the largest are retained;
    their squares form the weight distribution and their count is the index.
    Product states come out with index exactly 1.
    """
    result = svd(state.coefficients)
    sigma = result.singular_values
    smax = float(sigma[0]) if sigma.size else 0.0
    if smax <= 0.0:
        raise ValueError("coefficient matrix has no nonzero singular value")
    r = int(np.sum(sigma > rank_tol * smax))
    if r == 0:
        raise ValueError(f"rank tolerance {rank_tol} retained no singular values")
    coeffs = sigma[:r].copy()
    lefts = np.ascontiguousarray(result.left_vectors[:, :r].T)
    rights = np.ascontiguousarray(result.right_vectors[:r, :])
    for i in range(r):
        lefts[i], rights[i] = _canonical_phase_pair(lefts[i], rights[i])
    return SchmidtDecomposition(
        coefficients=coeffs, left_states=lefts, right_states=rights, index=r
    )


def factor_test(
    state: BipartiteState,
    residual_tol: float = RESIDUAL_TOL,
    rank_tol: float = RANK_TOL,
) -> FactorizationVerdict:
    """Decide whether a state is a product state and extract its local parts.

    The primary path requires the coefficient sum c to be nonzero: the state
    factors iff c_ij * c = (row sum)_i * (col sum)_j holds for every entry,
    within ``residual_tol * (1 + |c| * max|c_ij|)``. The local parts are then
    the normalized row-sum and column-sum vectors, phase-canonicalized.

    When |c| <= 1e-10 the criterion's hypothesis fails, so the decision falls
    back to the Schmidt index (1 iff factorized) with local parts taken from
    the top singular triple.
    """
    c = state.coefficients
    total = complex(np.sum(c))
    row_sums = np.sum(c, axis=1)
    col_sums = np.sum(c, axis=0)
    residuals = np.abs(c * total - np.outer(row_sums, col_sums))
    max_residual = float(residuals.max())

    if abs(total) > SUM_CUTOFF:
        tol = residual_tol * (1.0 + abs(total) * float(np.max(np.abs(c))))
        if max_residual <= tol:
            left = row_sums / total
            left = left / np.linalg.norm(left)
            right = col_sums / np.linalg.norm(col_sums)
            left, right = _canonical_phase_pair(left, right)
            return FactorizationVerdict(True, left, right, max_residual, "sum-criterion")
        return FactorizationVerdict(False, None, None, max_residual, "sum-criterion")

    decomposition = schmidt_decompose(state, rank_tol)
    if decomposition.index == 1:
        return FactorizationVerdict(
            True,
            decomposition.left_states[0],
            decomposition.right_states[0],
            max_residual,
            "schmidt-rank",
        )
    return FactorizationVerdict(False, None, None, max_residual, "schmidt-rank")


def max_entanglement_bound(r: int) -> float:
    """Largest possible entanglement number at Schmidt index r: sqrt((r-1)/r)."""
    if r < 1:
        raise ValueError("the Schmidt index is at least 1")
    return float(np.sqrt((r - 1) / r))


def _is_uniform(weights: np.ndarray, r: int) -> bool:
    return r >= 2 and bool(np.all(np.abs(weights - 1.0 / r) <= MAXIMAL_TOL))


def _number_from_weights(weights: np.ndarray) -> tuple[float, float]:
    s1 = float(np.sum(weights))
    s2 = float(np.sum(weights**2))
    # The three equivalent forms collapse to the same value when the weights
    # sum to one; verify instead of assuming.
    forms = (1.0 - s2, s1 * s1 - s2, s1 - s2)
    spread = max(forms) - min(forms)
    if spread > _FORM_AGREEMENT_TOL + 2.0 * abs(s1 - 1.0):
        raise ArithmeticError(f"equivalent forms disagree by {spread:.3e}")
    # Evaluate e^2 as the pairwise form 2 * sum_{i<j} w_i w_j: it is a sum of
    # nonnegative products, so single-weight distributions give exactly 0,
    # where 1 - s2 would leave ~1e-16 of cancellation noise and sqrt would
    # blow it up to ~1e-8.
    acc = 0.0
    tail = 0.0
    for w in reversed(weights):
        acc += float(w) * tail
        tail += float(w)
    return float(np.sqrt(max(0.0, 2.0 * acc))), s2


def entanglement_number_schmidt(
    state: BipartiteState, rank_tol: float = RANK_TOL
) -> EntanglementReport:
    """Entanglement number from the Schmidt weights: e = sqrt(1 - sum lambda_i^2)."""
    decomposition = schmidt_decompose(state, rank_tol)
    weights = decomposition.weights
    r = decomposition.index
    number, s2 = _number_from_weights(weights)
    return EntanglementReport(
        entanglement_number=number,
        schmidt_index=r,
        distribution=weights,
        upper_bound=max_entanglement_bound(r),
        maximal=_is_uniform(weights, r),
        method="schmidt-route",
        fourth_moment=s2,
    )


def _trace_number(c: np.ndarray) -> tuple[float, float]:
    """The trace route's ``(e, tr(|C|^4))`` from G = C C^*, with no eigensolve.

    1 - tr(|C|^4) is twice the sum of the 2x2 principal minors of G (tr G = 1
    for a unit-norm state). Each minor is the squared area spanned by two rows,
    taken by vector rejection so that nearly parallel rows (product states)
    give ~0 rather than 1e-16-scale cancellation noise that sqrt would amplify.
    """
    gram = c @ c.conj().T
    fourth = float(np.sum(np.abs(gram) ** 2))
    minor_sum = 0.0
    m = c.shape[0]
    for i in range(m - 1):
        x = c[i]
        nx = float(np.real(np.vdot(x, x)))
        if nx <= 0.0:
            continue  # a zero row spans no area with anything
        for j in range(i + 1, m):
            y = c[j]
            rej = y - (np.vdot(x, y) / nx) * x
            minor_sum += nx * float(np.real(np.vdot(rej, rej)))
    return float(np.sqrt(max(0.0, 2.0 * minor_sum))), fourth


def entanglement_number_trace(
    state: BipartiteState, rank_tol: float = RANK_TOL
) -> EntanglementReport:
    """Entanglement number from the fourth moment of the coefficient matrix.

    With G = C C^* the Gram matrix of the rows, tr(|C|^4) equals the sum of
    |G_rs|^2 over all entries, and e = sqrt(1 - tr(|C|^4)). The state is
    factorized exactly when the fourth moment is 1. Everything here is
    derived from G alone, independent of the SVD used by the Schmidt route;
    the report's weight distribution comes from the spectrum of G.
    """
    c = state.coefficients
    number, fourth = _trace_number(c)
    _, vecs = hermitian_eigen(c @ c.conj().T)
    # |C^* u_i| recovers sqrt(lambda_i) with better accuracy than the raw
    # eigenvalue when lambda_i is tiny.
    sigma = np.linalg.norm(c.conj().T @ vecs, axis=0)
    sigma = sigma[np.argsort(-sigma, kind="stable")]
    smax = float(sigma[0]) if sigma.size else 0.0
    if smax <= 0.0:
        raise ValueError("coefficient matrix has no nonzero singular value")
    r = int(np.sum(sigma > rank_tol * smax))
    weights = sigma[:r] ** 2
    return EntanglementReport(
        entanglement_number=number,
        schmidt_index=r,
        distribution=weights,
        upper_bound=max_entanglement_bound(r),
        maximal=_is_uniform(weights, r),
        method="trace-route",
        fourth_moment=fourth,
    )
