"""Pure states, projective events, tensor products and measurement update.

Vectors and operators are plain complex numpy arrays over the standard basis.
A two-part system state is held as its coefficient matrix: the amplitude of
basis pair (i, j) sits at entry (i, j), or at flat index i * dim_right + j
after row-major flattening. That layout is load-bearing for the embedded
events built by :func:`embed_left` / :func:`embed_right` and must not change.

Under it, ``(P (x) I) vec(C) = vec(P C)`` and ``(I (x) Q) vec(C) = vec(C Q^T)``,
so :func:`local_probability` and :func:`local_collapse` evaluate one-sided
events on the coefficient matrix as ``P C Q^T`` without building the
``(mn) x (mn)`` operators; the embeddings stay as the layout contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-8
PROJECTION_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
UNITARY_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
REDUCTION_WEIGHT_TOL = 1e-14
_REALNESS_TOL = 1e-10


class ZeroProbabilityEvent(ValueError):
    """Raised when conditioning on an event of (numerically) zero probability."""


class NonOrthogonalInput(ValueError):
    """Raised when a construction requires orthogonal states but got none."""


def as_state_vector(psi, name: str = "state") -> np.ndarray:
    """Coerce to a 1-D complex array and check it is a unit vector."""
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite (found NaN or inf)")
    norm_sq = float(np.sum(np.abs(vec) ** 2))
    if abs(norm_sq - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} is not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
    return vec


def is_projection(p, tol: float = PROJECTION_TOL) -> bool:
    """True when P is square with P*P = P = P^* entrywise within tol."""
    mat = np.asarray(p, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    if float(np.max(np.abs(mat - mat.conj().T))) > tol:
        return False
    return float(np.max(np.abs(mat @ mat - mat))) <= tol


def check_projection(p, name: str = "event") -> np.ndarray:
    mat = np.asarray(p, dtype=complex)
    if not is_projection(mat):
        raise ValueError(f"{name} is not a projection (needs P^2 = P = P^*)")
    return mat


def check_unitary(u, name: str = "operator") -> np.ndarray:
    mat = np.asarray(u, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    eye = np.eye(mat.shape[0])
    if float(np.max(np.abs(mat @ mat.conj().T - eye))) > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary within tolerance")
    return mat


@dataclass(frozen=True)
class BipartiteState:
    """State of a two-part system as its coefficient matrix C = [c_ij].

    The matrix has shape (dim_left, dim_right) and unit Frobenius norm,
    i.e. sum |c_ij|^2 = 1 within ``UNIT_NORM_TOL``.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        mat = np.array(self.coefficients, dtype=complex)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("coefficients must form a non-empty 2-D matrix")
        # NaN would slip past the norm test: abs(nan - 1) > tol is False.
        if not np.all(np.isfinite(mat)):
            raise ValueError("coefficients must be finite (found NaN or inf)")
        norm_sq = float(np.sum(np.abs(mat) ** 2))
        if abs(norm_sq - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"coefficients are not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "coefficients", mat)

    @property
    def dim_left(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dim_right(self) -> int:
        return self.coefficients.shape[1]

    def to_vector(self) -> np.ndarray:
        """Row-major flattening onto the combined space."""
        return self.coefficients.reshape(-1)

    @classmethod
    def from_vector(cls, vec, dim_left: int, dim_right: int) -> "BipartiteState":
        arr = np.asarray(vec, dtype=complex)
        if arr.size != dim_left * dim_right:
            raise ValueError("vector length does not match dims")
        return cls(arr.reshape(dim_left, dim_right))


@dataclass(frozen=True)
class MixedStateReduction:
    """Convex weights and left-space states describing one subsystem's statistics."""

    weights: np.ndarray
    states: tuple

    def expectation(self, p) -> float:
        """Evaluate sum_j w_j <a_j, P a_j> for a left-space event P."""
        mat = check_projection(p, "left event")
        total = 0.0
        for w, a in zip(self.weights, self.states):
            total += float(w) * float(np.real(np.vdot(a, mat @ a)))
        return total


def probability(psi, p) -> float:
    """Probability <psi, P psi> that event P occurs in state psi.

    The value is real within 1e-10 by Hermiticity and gets clamped to [0, 1].
    """
    vec = as_state_vector(psi)
    mat = check_projection(p)
    if mat.shape[0] != vec.size:
        raise ValueError(f"dimension mismatch: state dim {vec.size}, event dim {mat.shape[0]}")
    return _real_probability(complex(np.vdot(vec, mat @ vec)))


def collapse(psi, p) -> np.ndarray:
    """State update P psi / ||P psi|| after event P is confirmed.

    Raises ``ZeroProbabilityEvent`` when the event has probability at or
    below ``ZERO_PROB_TOL``, where conditioning is undefined.
    """
    vec = as_state_vector(psi)
    mat = check_projection(p)
    if mat.shape[0] != vec.size:
        raise ValueError(f"dimension mismatch: state dim {vec.size}, event dim {mat.shape[0]}")
    return _normalized(mat @ vec)


def _real_probability(raw: complex) -> float:
    """A probability <psi, E psi> as a float: real within 1e-10, clamped to [0, 1]."""
    if abs(raw.imag) > _REALNESS_TOL:
        raise ArithmeticError(f"probability came out non-real: {raw!r}")
    return min(1.0, max(0.0, raw.real))


def _normalized(projected: np.ndarray) -> np.ndarray:
    """Rescale a projected state to unit norm, refusing a zero-probability event."""
    norm_sq = float(np.sum(np.abs(projected) ** 2))
    if norm_sq <= ZERO_PROB_TOL:
        raise ZeroProbabilityEvent(
            f"cannot condition on an event of probability {norm_sq:.3e}"
        )
    return projected / np.sqrt(norm_sq)


def _project_locally(state: BipartiteState, p, q) -> np.ndarray:
    """Coefficient matrix P C Q^T of (P (x) Q) applied to the state.

    Each given event is validated once as a small projector; an omitted one
    stands for the identity on its side.
    """
    projected = state.coefficients
    if p is not None:
        pm = check_projection(p, "left event")
        if pm.shape[0] != state.dim_left:
            raise ValueError(
                f"dimension mismatch: left dim {state.dim_left}, left event dim {pm.shape[0]}"
            )
        projected = pm @ projected
    if q is not None:
        qm = check_projection(q, "right event")
        if qm.shape[0] != state.dim_right:
            raise ValueError(
                f"dimension mismatch: right dim {state.dim_right}, right event dim {qm.shape[0]}"
            )
        projected = projected @ qm.T
    return projected


def local_probability(state: BipartiteState, p=None, q=None) -> float:
    """Probability that left event P and right event Q both occur in the state.

    Equals ``probability(state.to_vector(), embed_left(p, n) @ embed_right(q, m))``
    for an m x n state; either event may be omitted. The value is real within
    1e-10 and gets clamped to [0, 1].
    """
    return _real_probability(complex(np.vdot(state.coefficients, _project_locally(state, p, q))))


def local_collapse(state: BipartiteState, p=None, q=None) -> BipartiteState:
    """State after left event P and right event Q are confirmed.

    The coefficient matrix of :func:`collapse` under the embedded events,
    computed as P C Q^T / ||P C Q^T||; either event may be omitted. Raises
    ``ZeroProbabilityEvent`` at probability at or below ``ZERO_PROB_TOL``.
    """
    return BipartiteState(_normalized(_project_locally(state, p, q)))


def tensor_state(alpha, beta) -> BipartiteState:
    """Product state with coefficients c_ij = alpha_i * beta_j."""
    a = as_state_vector(alpha, "left factor")
    b = as_state_vector(beta, "right factor")
    return BipartiteState(np.outer(a, b))


def embed_left(p, dim_right: int) -> np.ndarray:
    """Event P acting on the left part only, as P (x) I on the combined space."""
    mat = check_projection(p, "left event")
    if dim_right < 1:
        raise ValueError("dim_right must be positive")
    return np.kron(mat, np.eye(dim_right))


def embed_right(q, dim_left: int) -> np.ndarray:
    """Event Q acting on the right part only, as I (x) Q on the combined space."""
    mat = check_projection(q, "right event")
    if dim_left < 1:
        raise ValueError("dim_left must be positive")
    return np.kron(np.eye(dim_left), mat)


def singlet(alpha, beta) -> BipartiteState:
    """Antisymmetric combination (alpha (x) beta - beta (x) alpha) / sqrt(2).

    Requires orthogonal unit vectors of the same dimension; the result is
    always entangled.
    """
    a = as_state_vector(alpha, "first state")
    b = as_state_vector(beta, "second state")
    if a.size != b.size:
        raise ValueError("singlet requires two states of the same dimension")
    overlap = complex(np.vdot(a, b))
    if abs(overlap) > ORTHOGONALITY_TOL:
        raise NonOrthogonalInput(f"states are not orthogonal: |<a,b>| = {abs(overlap):.3e}")
    return BipartiteState((np.outer(a, b) - np.outer(b, a)) / np.sqrt(2.0))


def reduce_left(state: BipartiteState) -> MixedStateReduction:
    """Reduce a two-part state to weights and left states for left-only events.

    Column j of the coefficient matrix yields weight w_j = sum_i |c_ij|^2 and
    state a_j = column / sqrt(w_j); columns with w_j <= 1e-14 are dropped.
    For every left event P, <state, (P (x) I) state> = sum_j w_j <a_j, P a_j>.
    """
    c = state.coefficients
    weights = []
    vectors = []
    for j in range(state.dim_right):
        col = c[:, j]
        w = float(np.sum(np.abs(col) ** 2))
        if w <= REDUCTION_WEIGHT_TOL:
            continue
        weights.append(w)
        vectors.append(col / np.sqrt(w))
    return MixedStateReduction(weights=np.array(weights), states=tuple(vectors))


def phase_aligned_difference(a, b) -> float:
    """Largest amplitude difference between two vectors after the global phase
    of the first is aligned to the second; orthogonal inputs compare as-is."""
    av = np.asarray(a, dtype=complex).reshape(-1)
    bv = np.asarray(b, dtype=complex).reshape(-1)
    if av.shape != bv.shape:
        raise ValueError("vectors must have matching shapes")
    overlap = complex(np.vdot(av, bv))
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.max(np.abs(av * phase - bv)))


def apply_local_unitary(state: BipartiteState, u, v) -> BipartiteState:
    """Transform a state by a pair of one-sided unitaries.

    The coefficient matrix maps to U C V^T, which is the coefficient matrix
    of (U (x) V) applied to the state; the norm is preserved.
    """
    um = check_unitary(u, "left unitary")
    vm = check_unitary(v, "right unitary")
    if um.shape[0] != state.dim_left or vm.shape[0] != state.dim_right:
        raise ValueError("unitary dimensions do not match the state")
    return BipartiteState(um @ state.coefficients @ vm.T)
