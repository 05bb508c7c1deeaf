import math

import numpy as np
import pytest

from entkit.sampling import (
    random_bipartite_state,
    random_orthonormal_pair,
    random_product_state,
    random_projection,
    random_state_vector,
    random_unitary,
)
from entkit.states import (
    BipartiteState,
    NonOrthogonalInput,
    ZeroProbabilityEvent,
    apply_local_unitary,
    is_projection,
    local_collapse,
    local_probability,
    phase_aligned_difference,
    reduce_left,
    singlet,
    tensor_state,
)
from entkit.linalg import svd
from oracles import collapse, embed_left, embed_right, from_vector, probability

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def projector(vec):
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


class TestProbability:
    def test_identity_always_occurs(self):
        rng = np.random.default_rng(0)
        psi = random_state_vector(rng, 4)
        assert probability(psi, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_never_occurs(self):
        rng = np.random.default_rng(1)
        psi = random_state_vector(rng, 4)
        assert probability(psi, np.zeros((4, 4))) == 0.0

    def test_complement_law(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            psi = random_state_vector(rng, dim)
            p = random_projection(rng, dim)
            assert probability(psi, np.eye(dim) - p) == pytest.approx(
                1.0 - probability(psi, p), abs=1e-10
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(ValueError, match="finite"):
            probability(np.array([bad, 1.0]), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            probability(E1, np.eye(3))

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError, match="projection"):
            probability(E1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_always_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            value = probability(random_state_vector(rng, dim), random_projection(rng, dim))
            assert 0.0 <= value <= 1.0


class TestCollapse:
    def test_eigenvector_unchanged(self):
        p = projector(E1)
        np.testing.assert_allclose(collapse(E1, p), E1, atol=0)

    def test_repeatability(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            psi = random_state_vector(rng, dim)
            p = random_projection(rng, dim)
            if probability(psi, p) <= 1e-6:
                continue
            assert probability(collapse(psi, p), p) == pytest.approx(1.0, abs=1e-10)

    def test_two_dim_hand_case(self):
        psi = (E1 + E2) / math.sqrt(2)
        p = projector(E1)
        assert probability(psi, p) == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(collapse(psi, p), E1, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            psi = random_state_vector(rng, dim)
            p = random_projection(rng, dim)
            if probability(psi, p) <= 1e-6:
                continue
            once = collapse(psi, p)
            np.testing.assert_allclose(collapse(once, p), once, atol=1e-10)

    def test_zero_probability_event(self):
        with pytest.raises(ZeroProbabilityEvent):
            collapse(E1, projector(E2))


class TestTensorState:
    def test_basis_pair(self):
        state = tensor_state(E1, E1)
        np.testing.assert_allclose(state.coefficients, [[1, 0], [0, 0]], atol=0)

    def test_worked_two_by_two(self):
        alpha = (E1 + E2) / math.sqrt(2)
        beta = np.array([1.0, -2.0j]) / math.sqrt(5)
        state = tensor_state(alpha, beta)
        expected = np.array([[1, -2j], [1, -2j]], dtype=complex) / math.sqrt(10)
        np.testing.assert_allclose(state.coefficients, expected, atol=1e-15)

    def test_inner_product_factorizes(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a1, b1 = random_state_vector(rng, 3), random_state_vector(rng, 4)
            a2, b2 = random_state_vector(rng, 3), random_state_vector(rng, 4)
            lhs = np.vdot(tensor_state(a1, b1).to_vector(), tensor_state(a2, b2).to_vector())
            rhs = np.vdot(a1, a2) * np.vdot(b1, b2)
            assert abs(lhs - rhs) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            tensor_state(np.array([1.0, 1.0]), E1)


class TestEmbedding:
    def test_identity_embeds_to_identity(self):
        np.testing.assert_allclose(embed_left(np.eye(2), 3), np.eye(6), atol=0)
        np.testing.assert_allclose(embed_right(np.eye(3), 2), np.eye(6), atol=0)

    def test_left_event_sees_only_left_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = random_state_vector(rng, 2)
            beta = random_state_vector(rng, 2)
            p = random_projection(rng, 2)
            joint = tensor_state(alpha, beta)
            lhs = probability(joint.to_vector(), embed_left(p, 2))
            assert lhs == pytest.approx(probability(alpha, p), abs=1e-10)

    def test_right_event_sees_only_right_factor(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = random_state_vector(rng, 3)
            beta = random_state_vector(rng, 2)
            q = random_projection(rng, 2)
            joint = tensor_state(alpha, beta)
            lhs = probability(joint.to_vector(), embed_right(q, 3))
            assert lhs == pytest.approx(probability(beta, q), abs=1e-10)

    def test_embedded_product_matches_kron(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_projection(rng, 3)
            q = random_projection(rng, 2)
            lhs = embed_left(p, 2) @ embed_right(q, 3)
            np.testing.assert_allclose(lhs, np.kron(p, q), atol=1e-12)

    def test_embeddings_are_projections(self):
        rng = np.random.default_rng(10)
        p = random_projection(rng, 3)
        assert is_projection(embed_left(p, 4))
        assert is_projection(embed_right(p, 4))


# Left/right dims with d <= 6, non-square shapes included, as the product
# scenario builds them from factors of different sizes.
LOCAL_SHAPES = [(1, 4), (2, 2), (2, 5), (3, 3), (4, 2), (5, 3), (6, 6), (6, 1)]


def kronecker_event(p, q, dim_left, dim_right):
    """The combined-space operator of left event p and right event q (None = identity)."""
    op = np.eye(dim_left * dim_right, dtype=complex)
    if p is not None:
        op = embed_left(p, dim_right) @ op
    if q is not None:
        op = embed_right(q, dim_left) @ op
    return op


class TestLocalEvents:
    """P C Q^T on the coefficient matrix against the embedded operators as oracle.

    The projectors are complex (Haar), since a real Q cannot tell C Q^T
    from the wrong C Q.
    """

    @pytest.mark.parametrize("shape", LOCAL_SHAPES)
    def test_probability_matches_kronecker_oracle(self, shape):
        m, n = shape
        rng = np.random.default_rng(100 + 10 * m + n)
        for _ in range(10):
            state = random_bipartite_state(rng, m, n)
            p = random_projection(rng, m)
            q = random_projection(rng, n)
            for events in ((p, None), (None, q), (p, q)):
                oracle = probability(state.to_vector(), kronecker_event(*events, m, n))
                assert abs(local_probability(state, *events) - oracle) <= 1e-12

    @pytest.mark.parametrize("shape", LOCAL_SHAPES)
    def test_collapse_matches_kronecker_oracle(self, shape):
        m, n = shape
        rng = np.random.default_rng(200 + 10 * m + n)
        for _ in range(10):
            state = random_bipartite_state(rng, m, n)
            p = random_projection(rng, m)
            q = random_projection(rng, n)
            for events in ((p, None), (None, q), (p, q)):
                oracle = collapse(state.to_vector(), kronecker_event(*events, m, n))
                collapsed = local_collapse(state, *events)
                assert collapsed.coefficients.shape == (m, n)
                np.testing.assert_allclose(collapsed.to_vector(), oracle, rtol=0, atol=1e-12)

    def test_omitted_events_are_identity(self):
        rng = np.random.default_rng(12)
        state = random_bipartite_state(rng, 3, 2)
        assert local_probability(state) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(local_collapse(state).coefficients, state.coefficients, atol=1e-12)

    def test_zero_probability_event(self):
        state = tensor_state(E1, E2)
        assert local_probability(state, p=projector(E2)) == 0.0
        with pytest.raises(ZeroProbabilityEvent):
            local_collapse(state, p=projector(E2))
        with pytest.raises(ZeroProbabilityEvent):
            local_collapse(state, q=projector(E1))

    def test_dimension_mismatch(self):
        state = tensor_state(E1, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            local_probability(state, p=np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            local_collapse(state, q=np.eye(2))

    def test_rejects_non_projection(self):
        state = tensor_state(E1, E2)
        with pytest.raises(ValueError, match="left event is not a projection"):
            local_probability(state, p=np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="right event is not a projection"):
            local_collapse(state, q=2.0 * np.eye(2))


class TestSinglet:
    def test_basis_pair_matrix(self):
        state = singlet(E1, E2)
        expected = np.array([[0, 1], [-1, 0]]) / math.sqrt(2)
        np.testing.assert_allclose(state.coefficients, expected, atol=1e-15)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NonOrthogonalInput):
            singlet(E1, (E1 + E2) / math.sqrt(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            singlet(E1, np.array([0.0, 1.0, 0.0]))


class TestReduction:
    def test_product_state_columns(self):
        rng = np.random.default_rng(11)
        alpha = random_state_vector(rng, 3)
        beta = random_state_vector(rng, 4)
        reduction = reduce_left(tensor_state(alpha, beta))
        np.testing.assert_allclose(
            sorted(reduction.weights), sorted(np.abs(beta) ** 2), atol=1e-12
        )
        for a in reduction.states:
            assert phase_aligned_difference(a, alpha) <= 1e-10

    def test_singlet_columns(self):
        reduction = reduce_left(singlet(E1, E2))
        np.testing.assert_allclose(reduction.weights, [0.5, 0.5], atol=1e-14)
        assert phase_aligned_difference(reduction.states[0], -E2) <= 1e-12
        assert phase_aligned_difference(reduction.states[1], E1) <= 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            state = random_bipartite_state(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            assert abs(np.sum(reduce_left(state).weights) - 1.0) <= 1e-10

    def test_reduction_reproduces_left_event_statistics(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            state = random_bipartite_state(rng, m, n)
            p = random_projection(rng, m)
            lhs = probability(state.to_vector(), embed_left(p, n))
            rhs = reduce_left(state).expectation(p)
            assert abs(lhs - rhs) <= 1e-10

    def test_zero_columns_dropped(self):
        state = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
        reduction = reduce_left(state)
        assert len(reduction.weights) == 1
        assert len(reduction.states) == 1


class TestLocalUnitary:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(14)
        state = random_bipartite_state(rng, 3, 2)
        moved = apply_local_unitary(state, np.eye(3), np.eye(2))
        np.testing.assert_allclose(moved.coefficients, state.coefficients, atol=0)

    def test_singular_values_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            state = random_bipartite_state(rng, 3, 4)
            u = random_unitary(rng, 3)
            v = random_unitary(rng, 4)
            moved = apply_local_unitary(state, u, v)
            np.testing.assert_allclose(
                svd(moved.coefficients).singular_values,
                svd(state.coefficients).singular_values,
                atol=1e-10,
            )

    def test_product_stays_product(self):
        rng = np.random.default_rng(16)
        state = random_product_state(rng, 3, 3)
        moved = apply_local_unitary(state, random_unitary(rng, 3), random_unitary(rng, 3))
        sigma = svd(moved.coefficients).singular_values
        assert abs(sigma[0] - 1.0) <= 1e-10
        assert np.all(sigma[1:] <= 1e-10)

    def test_rejects_non_unitary(self):
        rng = np.random.default_rng(17)
        state = random_bipartite_state(rng, 2, 2)
        with pytest.raises(ValueError, match="unitary"):
            apply_local_unitary(state, np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_rejects_mismatched_dimensions(self):
        rng = np.random.default_rng(18)
        state = random_bipartite_state(rng, 2, 3)
        with pytest.raises(ValueError, match="match"):
            apply_local_unitary(state, np.eye(3), np.eye(3))


class TestBipartiteState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            BipartiteState(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        coeffs = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        coeffs[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BipartiteState(coeffs)

    def test_vector_round_trip(self):
        rng = np.random.default_rng(18)
        state = random_bipartite_state(rng, 2, 3)
        again = from_vector(state.to_vector(), 2, 3)
        np.testing.assert_allclose(again.coefficients, state.coefficients, atol=0)

    def test_flattening_is_row_major(self):
        state = tensor_state(E2, E1)  # basis pair (2, 1) of a 2x2 system
        vec = state.to_vector()
        assert vec[2] == pytest.approx(1.0)
        assert np.sum(np.abs(vec)) == pytest.approx(1.0)

    def test_coefficients_immutable(self):
        rng = np.random.default_rng(19)
        state = random_bipartite_state(rng, 2, 2)
        with pytest.raises(ValueError):
            state.coefficients[0, 0] = 0.0


def test_orthonormal_pair_is_orthonormal():
    rng = np.random.default_rng(20)
    a, b = random_orthonormal_pair(rng, 5)
    assert abs(np.vdot(a, a) - 1) <= 1e-12
    assert abs(np.vdot(b, b) - 1) <= 1e-12
    assert abs(np.vdot(a, b)) <= 1e-14


def test_phase_aligned_difference_ignores_global_phase():
    rng = np.random.default_rng(21)
    psi = random_state_vector(rng, 4)
    rotated = psi * np.exp(1.2j)
    assert phase_aligned_difference(rotated, psi) <= 1e-14
    assert phase_aligned_difference(psi, np.roll(psi, 1)) > 1e-3
