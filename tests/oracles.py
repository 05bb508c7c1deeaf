"""Vector-level reference for the coefficient-matrix event path.

A state is its row-major vector psi = vec(C) (flat index i * dim_right + j),
a left event P acts on it as P (x) I and a right event Q as I (x) Q. This is
the layout contract that ``entkit.states.local_probability`` and
``local_collapse`` evaluate as ``P C Q^T``; the tests compare the two. The
arithmetic here is written out on its own, sharing none of the code it checks.
"""

import numpy as np

from entkit.states import (
    ZERO_PROB_TOL,
    BipartiteState,
    ZeroProbabilityEvent,
    as_state_vector,
    check_projection,
)


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


def _vector_and_event(psi, p) -> tuple[np.ndarray, np.ndarray]:
    vec = as_state_vector(psi)
    mat = check_projection(p)
    if mat.shape[0] != vec.size:
        raise ValueError(f"dimension mismatch: state dim {vec.size}, event dim {mat.shape[0]}")
    return vec, mat


def probability(psi, p) -> float:
    """Probability <psi, P psi> that event P occurs in state psi, clamped to [0, 1]."""
    vec, mat = _vector_and_event(psi, p)
    raw = complex(np.vdot(vec, mat @ vec))
    if abs(raw.imag) > 1e-10:
        raise ArithmeticError(f"probability came out non-real: {raw!r}")
    return min(1.0, max(0.0, raw.real))


def collapse(psi, p) -> np.ndarray:
    """State update P psi / ||P psi|| after event P is confirmed."""
    vec, mat = _vector_and_event(psi, p)
    projected = mat @ vec
    norm = float(np.linalg.norm(projected))
    if norm**2 <= ZERO_PROB_TOL:
        raise ZeroProbabilityEvent(f"cannot condition on an event of probability {norm**2:.3e}")
    return projected / norm


def from_vector(vec, dim_left: int, dim_right: int) -> BipartiteState:
    """The state whose row-major flattening is ``vec``."""
    arr = np.asarray(vec, dtype=complex)
    if arr.size != dim_left * dim_right:
        raise ValueError("vector length does not match dims")
    return BipartiteState(arr.reshape(dim_left, dim_right))
