"""Two-lab measurement scenario: does a first-lab measurement change the
second lab's statistics?

Alice holds the left part and tests an event P; Bob holds the right part and
tests an event Q. For a product state the collapse caused by Alice's outcome
leaves Bob's probability exactly as it was. For the antisymmetric combination
of two orthogonal states it does not: Bob's before/after probabilities have
closed forms, and for P = Q = (projector onto alpha) they are 1/2 and 0.

Both runs are deterministic: they evaluate the statistics of the confirmed-P
branch rather than sampling an outcome. Each closed form is cross-checked
against the generic collapse-then-measure pipeline before being returned.
That pipeline acts on the joint coefficient matrix as ``P C`` and ``C Q^T``
(see :func:`~entkit.states.local_collapse`), so a run costs O(d^3) rather
than the O(d^6) of the embedded ``d^2 x d^2`` events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    ZERO_PROB_TOL,
    ZeroProbabilityEvent,
    as_state_vector,
    check_projection,
    local_collapse,
    local_probability,
    singlet,
    tensor_state,
)

MATCH_TOL = 1e-10


@dataclass(frozen=True)
class ScenarioResult:
    """Bob's statistics around Alice's measurement.

    ``normalization`` is the norm of the projected joint state, so its square
    is the probability of Alice's confirmed outcome. ``changed`` flags a
    before/after difference beyond ``MATCH_TOL``.
    """

    before_probability: float
    after_probability: float
    normalization: float
    alice_outcome_probability: float
    changed: bool


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def _expect(vec: np.ndarray, op: np.ndarray) -> complex:
    return complex(np.vdot(vec, op @ vec))


def run_product_scenario(alpha, beta, p, q) -> ScenarioResult:
    """Alice measures P on the left factor of alpha (x) beta; Bob's Q statistics
    are computed before and after and are verified to coincide."""
    a = as_state_vector(alpha, "left state")
    b = as_state_vector(beta, "right state")
    joint = tensor_state(a, b)
    # The local_* calls validate each event and its dimension.
    alice_prob = local_probability(joint, p=p)
    if alice_prob <= ZERO_PROB_TOL:
        raise ZeroProbabilityEvent(
            f"Alice cannot confirm an event of probability {alice_prob:.3e}"
        )

    before = local_probability(joint, q=q)
    after = local_probability(local_collapse(joint, p=p), q=q)

    if abs(before - after) > MATCH_TOL:
        raise ArithmeticError(
            f"product-state run changed Bob's statistics by {abs(before - after):.3e}"
        )
    return ScenarioResult(
        before_probability=before,
        after_probability=after,
        normalization=float(np.sqrt(alice_prob)),
        alice_outcome_probability=alice_prob,
        changed=abs(before - after) > MATCH_TOL,
    )


def run_entangled_scenario(alpha, beta, p, q) -> ScenarioResult:
    """Alice measures P on her half of the antisymmetric state built from the
    orthogonal pair (alpha, beta); Bob's Q statistics change.

    Before the measurement Bob sees (<b,Qb> + <a,Qa>) / 2. After it, with
    N^2 = (<a,Pa> + <b,Pb>) / 2 the probability of Alice's outcome, he sees

        (<a,Pa><b,Qb> - <a,Pb><b,Qa> - <b,Pa><a,Qb> + <b,Pb><a,Qa>) / (2 N^2).

    Both values are cross-checked against the generic pipeline within 1e-10.
    """
    a = as_state_vector(alpha, "first state")
    b = as_state_vector(beta, "second state")
    pm = check_projection(p, "left event")
    qm = check_projection(q, "right event")
    dim = a.size
    if b.size != dim or pm.shape[0] != dim or qm.shape[0] != dim:
        raise ValueError("states and events must share one dimension")

    joint = singlet(a, b)

    p_aa = float(np.real(_expect(a, pm)))
    p_bb = float(np.real(_expect(b, pm)))
    if p_aa + p_bb <= 2.0 * ZERO_PROB_TOL:
        raise ZeroProbabilityEvent(
            f"Alice cannot confirm an event of probability {(p_aa + p_bb) / 2:.3e}"
        )

    before = _clamp((float(np.real(_expect(b, qm))) + float(np.real(_expect(a, qm)))) / 2.0)
    before_direct = local_probability(joint, q=qm)
    if abs(before - before_direct) > MATCH_TOL:
        raise ArithmeticError(
            f"closed-form before-probability off by {abs(before - before_direct):.3e}"
        )

    norm_sq = (p_aa + p_bb) / 2.0
    normalization = float(np.sqrt(norm_sq))

    # The two mixed terms are complex conjugates, so only their real part
    # survives.
    p_ab = complex(np.vdot(a, pm @ b))
    q_ba = complex(np.vdot(b, qm @ a))
    four_terms = (
        p_aa * float(np.real(_expect(b, qm)))
        - 2.0 * (p_ab * q_ba).real
        + p_bb * float(np.real(_expect(a, qm)))
    )
    after = _clamp(four_terms / (2.0 * norm_sq))

    after_direct = local_probability(local_collapse(joint, p=pm), q=qm)
    if abs(after - after_direct) > MATCH_TOL:
        raise ArithmeticError(
            f"closed-form after-probability off by {abs(after - after_direct):.3e}"
        )

    return ScenarioResult(
        before_probability=before,
        after_probability=after,
        normalization=normalization,
        alice_outcome_probability=norm_sq,
        changed=abs(before - after) > MATCH_TOL,
    )
