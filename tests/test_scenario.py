import math

import numpy as np
import pytest

from entkit.demos import run_demo
from entkit.sampling import random_orthonormal_pair, random_projection, random_state_vector
from entkit.scenario import run_entangled_scenario, run_product_scenario
from entkit.states import (
    NonOrthogonalInput,
    ZeroProbabilityEvent,
    collapse,
    embed_left,
    embed_right,
    probability,
    singlet,
    tensor_state,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def projector(vec):
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


class TestProductScenario:
    def test_certain_event_for_bob(self):
        rng = np.random.default_rng(0)
        a = random_state_vector(rng, 2)
        b = random_state_vector(rng, 2)
        result = run_product_scenario(a, b, random_projection(rng, 2, rank=1), np.eye(2))
        assert result.before_probability == pytest.approx(1.0, abs=1e-12)
        assert result.after_probability == pytest.approx(1.0, abs=1e-12)
        assert not result.changed

    def test_random_runs_never_change_bob(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 1000:
            dim_a, dim_b = (int(d) for d in rng.integers(2, 5, size=2))
            a = random_state_vector(rng, dim_a)
            b = random_state_vector(rng, dim_b)
            p = random_projection(rng, dim_a)
            q = random_projection(rng, dim_b)
            if probability(a, p) <= 1e-9:
                continue
            result = run_product_scenario(a, b, p, q)
            assert abs(result.before_probability - result.after_probability) <= 1e-10
            assert result.before_probability == pytest.approx(probability(b, q), abs=1e-10)
            assert not result.changed
            done += 1

    def test_projector_onto_alpha_leaves_joint_state(self):
        rng = np.random.default_rng(2)
        a = random_state_vector(rng, 3)
        b = random_state_vector(rng, 3)
        joint = tensor_state(a, b)
        collapsed = collapse(joint.to_vector(), embed_left(projector(a), 3))
        np.testing.assert_allclose(collapsed, joint.to_vector(), atol=1e-12)
        result = run_product_scenario(a, b, projector(a), random_projection(rng, 3))
        assert result.alice_outcome_probability == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome_raises(self):
        with pytest.raises(ZeroProbabilityEvent):
            run_product_scenario(E1, E2, projector(E2), np.eye(2))

    def test_normalization_squares_to_outcome_probability(self):
        rng = np.random.default_rng(3)
        a = random_state_vector(rng, 2)
        b = random_state_vector(rng, 2)
        p = random_projection(rng, 2, rank=1)
        result = run_product_scenario(a, b, p, np.eye(2))
        assert result.normalization**2 == pytest.approx(
            result.alice_outcome_probability, abs=1e-12
        )


class TestEntangledScenario:
    def test_alpha_projector_case(self):
        p = projector(E1)
        result = run_entangled_scenario(E1, E2, p, p)
        assert result.before_probability == pytest.approx(0.5, abs=1e-12)
        assert result.after_probability == pytest.approx(0.0, abs=1e-12)
        assert result.changed

    def test_certain_event_stays_certain(self):
        result = run_entangled_scenario(E1, E2, projector(E1), np.eye(2))
        assert result.before_probability == pytest.approx(1.0, abs=1e-12)
        assert result.after_probability == pytest.approx(1.0, abs=1e-12)
        assert not result.changed

    def test_closed_forms_match_generic_pipeline(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_orthonormal_pair(rng, 3)
            p = random_projection(rng, 3, rank=int(rng.integers(1, 3)))
            q = random_projection(rng, 3)
            result = run_entangled_scenario(a, b, p, q)

            joint = singlet(a, b)
            before = probability(joint.to_vector(), embed_right(q, 3))
            collapsed = collapse(joint.to_vector(), embed_left(p, 3))
            after = probability(collapsed, embed_right(q, 3))
            assert result.before_probability == pytest.approx(before, abs=1e-10)
            assert result.after_probability == pytest.approx(after, abs=1e-10)

    def test_alice_outcome_probability_matches_embedded_event(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = random_orthonormal_pair(rng, 3)
            p = random_projection(rng, 3)
            result = run_entangled_scenario(a, b, p, random_projection(rng, 3))
            joint = singlet(a, b)
            assert result.alice_outcome_probability == pytest.approx(
                probability(joint.to_vector(), embed_left(p, 3)), abs=1e-10
            )
            assert result.normalization**2 == pytest.approx(
                result.alice_outcome_probability, abs=1e-12
            )

    def test_complement_event_also_valid(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = random_orthonormal_pair(rng, 3)
            p = random_projection(rng, 3, rank=1)
            q = random_projection(rng, 3)
            direct = run_entangled_scenario(a, b, p, q)
            flipped = run_entangled_scenario(a, b, np.eye(3) - p, q)
            assert 0.0 <= flipped.after_probability <= 1.0
            # Bob's pre-measurement statistics cannot depend on Alice's event.
            assert flipped.before_probability == pytest.approx(
                direct.before_probability, abs=1e-12
            )

    def test_rejects_non_orthogonal_pair(self):
        with pytest.raises(NonOrthogonalInput):
            run_entangled_scenario(E1, (E1 + E2) / math.sqrt(2), np.eye(2), np.eye(2))

    def test_impossible_outcome_raises(self):
        e3 = np.array([0.0, 0.0, 1.0])
        p = projector(e3)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ZeroProbabilityEvent):
            run_entangled_scenario(a, b, p, np.eye(3))

    def test_probabilities_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a, b = random_orthonormal_pair(rng, dim)
            result = run_entangled_scenario(
                a, b, random_projection(rng, dim), random_projection(rng, dim)
            )
            assert 0.0 <= result.before_probability <= 1.0
            assert 0.0 <= result.after_probability <= 1.0


def test_action_at_a_distance_demo_passes_at_dim_128():
    result = run_demo("action-at-a-distance", seed=3, dim=128)
    assert result.passed, [check for check in result.checks if not check.passed]
