import math

import numpy as np
import pytest

from entkit.demos import (
    spectrum_quartet,
    three_by_three_local_parts,
    three_by_three_state,
    two_by_two_entangled_state,
    two_by_two_factorized_state,
    two_by_two_lopsided_state,
)
from entkit.entanglement import (
    entanglement_number_schmidt,
    entanglement_number_trace,
    factor_test,
    max_entanglement_bound,
    schmidt_decompose,
)
from entkit.sampling import (
    random_bipartite_state,
    random_product_state,
    random_state_vector,
    random_unitary,
)
from entkit.states import (
    BipartiteState,
    apply_local_unitary,
    phase_aligned_difference,
    singlet,
    tensor_state,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestFactorTest:
    def test_three_by_three_is_product(self):
        verdict = factor_test(three_by_three_state())
        assert verdict.factorized
        assert verdict.method == "sum-criterion"
        left, right = three_by_three_local_parts()
        assert phase_aligned_difference(verdict.local_left, left) <= 1e-10
        assert phase_aligned_difference(verdict.local_right, right) <= 1e-10

    def test_singlet_uses_fallback_and_is_entangled(self):
        verdict = factor_test(singlet(E1, E2))
        assert not verdict.factorized
        assert verdict.method == "schmidt-rank"
        assert verdict.local_left is None and verdict.local_right is None

    def test_two_by_two_entangled(self):
        verdict = factor_test(two_by_two_entangled_state())
        assert not verdict.factorized
        assert verdict.method == "sum-criterion"
        assert verdict.max_residual > 1e-3

    def test_zero_sum_product_state_falls_back(self):
        # A product state whose coefficient sum vanishes: left factor sums to 0.
        alpha = np.array([1.0, -1.0]) / math.sqrt(2)
        rng = np.random.default_rng(0)
        beta = random_state_vector(rng, 3)
        verdict = factor_test(tensor_state(alpha, beta))
        assert verdict.method == "schmidt-rank"
        assert verdict.factorized
        rebuilt = tensor_state(verdict.local_left, verdict.local_right)
        assert phase_aligned_difference(
            rebuilt.coefficients, np.outer(alpha, beta)
        ) <= 1e-10

    def test_factorized_verdicts_reconstruct(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            state = random_product_state(rng, m, n)
            verdict = factor_test(state)
            assert verdict.factorized
            rebuilt = np.outer(verdict.local_left, verdict.local_right)
            assert np.linalg.norm(rebuilt - state.coefficients) <= 1e-8

    def test_canonical_phase_of_local_parts(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = random_product_state(rng, 3, 3)
            verdict = factor_test(state)
            lead = verdict.local_left[np.flatnonzero(np.abs(verdict.local_left) > 1e-12)[0]]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0


class TestSchmidtDecompose:
    def test_product_state_has_index_one(self):
        rng = np.random.default_rng(3)
        decomposition = schmidt_decompose(random_product_state(rng, 4, 3))
        assert decomposition.index == 1
        np.testing.assert_allclose(decomposition.coefficients, [1.0], atol=1e-12)

    def test_diagonal_known_weights(self):
        state = BipartiteState(np.diag([math.sqrt(0.99), math.sqrt(0.01)]))
        decomposition = schmidt_decompose(state)
        np.testing.assert_allclose(decomposition.weights, [0.99, 0.01], atol=1e-12)

    def test_three_level_spectrum(self):
        gamma = spectrum_quartet()["gamma"]
        decomposition = schmidt_decompose(gamma)
        assert decomposition.index == 3
        np.testing.assert_allclose(
            decomposition.weights, [1 / 2, 1 / 3, 1 / 6], atol=1e-12
        )

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            state = random_bipartite_state(rng, m, n)
            decomposition = schmidt_decompose(state)
            assert abs(np.sum(decomposition.weights) - 1.0) <= 1e-10
            # sum_i sqrt(lambda_i) (left_i (x) right_i), as a matrix.
            rebuilt = (
                decomposition.left_states.T * decomposition.coefficients
            ) @ decomposition.right_states
            assert np.linalg.norm(rebuilt - state.coefficients) <= 1e-9
            r = decomposition.index
            gram_left = decomposition.left_states.conj() @ decomposition.left_states.T
            gram_right = decomposition.right_states.conj() @ decomposition.right_states.T
            assert np.max(np.abs(gram_left - np.eye(r))) <= 1e-10
            assert np.max(np.abs(gram_right - np.eye(r))) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_tiny_second_coefficient_keeps_true_rank(self, seed):
        # True rank 2 with sigma_2 / sigma_1 = 1e-13: a tolerance of 1e-15 keeps
        # the second pair and must not invent a third from rounding.
        rng = np.random.default_rng(seed)
        sigma = np.array([1.0, 1e-13, 0.0]) / math.hypot(1.0, 1e-13)
        c = (random_unitary(rng, 3) * sigma) @ random_unitary(rng, 3)
        decomposition = schmidt_decompose(BipartiteState(c), rank_tol=1e-15)
        assert decomposition.index == 2
        np.testing.assert_allclose(decomposition.coefficients, sigma[:2], rtol=0, atol=1e-15)

    def test_rank_tolerance_guard(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="rank tolerance"):
            schmidt_decompose(random_bipartite_state(rng, 2, 2), rank_tol=1.5)


class TestEntanglementNumber:
    def test_quartet_values(self):
        states = spectrum_quartet()
        expected = {
            "alpha": 1 / math.sqrt(2),
            "beta": math.sqrt(2 / 3),
            "gamma": math.sqrt(11 / 18),
            "delta": math.sqrt(30) / 9,
        }
        values = {
            name: entanglement_number_schmidt(state).entanglement_number
            for name, state in states.items()
        }
        for name in expected:
            assert values[name] == pytest.approx(expected[name], abs=1e-10)
        assert values["delta"] < values["alpha"] < values["gamma"] < values["beta"]

    def test_peaked_distribution(self):
        state = BipartiteState(np.diag([math.sqrt(0.99), math.sqrt(0.01)]))
        number = entanglement_number_schmidt(state).entanglement_number
        assert number == pytest.approx(math.sqrt(198) / 100, abs=1e-12)
        assert abs(number - 0.14) <= 0.005

    def test_trace_route_fourth_moments(self):
        assert entanglement_number_trace(
            two_by_two_factorized_state()
        ).fourth_moment == pytest.approx(1.0, abs=1e-12)
        report = entanglement_number_trace(two_by_two_entangled_state())
        assert report.fourth_moment == pytest.approx(17 / 25, abs=1e-12)
        assert report.entanglement_number == pytest.approx(2 * math.sqrt(2) / 5, abs=1e-10)
        report = entanglement_number_trace(two_by_two_lopsided_state())
        assert report.fourth_moment == pytest.approx(17 / 18, abs=1e-12)
        assert report.entanglement_number == pytest.approx(1 / (3 * math.sqrt(2)), abs=1e-10)

    def test_singlet_value(self):
        report = entanglement_number_schmidt(singlet(E1, E2))
        assert report.entanglement_number == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert report.schmidt_index == 2

    def test_routes_agree_on_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            state = random_bipartite_state(rng, m, n)
            a = entanglement_number_schmidt(state)
            b = entanglement_number_trace(state)
            assert abs(a.entanglement_number - b.entanglement_number) <= 1e-9
            assert a.schmidt_index == b.schmidt_index

    def test_zero_iff_factorized_iff_index_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            product = random_product_state(rng, m, n)
            assert entanglement_number_schmidt(product).entanglement_number <= 1e-9
            assert factor_test(product).factorized
            assert schmidt_decompose(product).index == 1

            generic = random_bipartite_state(rng, m, n)
            assert entanglement_number_schmidt(generic).entanglement_number > 1e-6
            assert not factor_test(generic).factorized
            assert schmidt_decompose(generic).index > 1

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            state = random_bipartite_state(rng, m, n)
            base = entanglement_number_schmidt(state).entanglement_number
            moved = apply_local_unitary(state, random_unitary(rng, m), random_unitary(rng, n))
            assert abs(
                entanglement_number_schmidt(moved).entanglement_number - base
            ) <= 1e-9

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            state = random_bipartite_state(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            swapped = BipartiteState(state.coefficients.T)
            assert abs(
                entanglement_number_schmidt(state).entanglement_number
                - entanglement_number_schmidt(swapped).entanglement_number
            ) <= 1e-10

    def test_bound_and_equality_condition(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            state = random_bipartite_state(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            report = entanglement_number_schmidt(state)
            assert report.entanglement_number <= report.upper_bound + 1e-10
            if report.schmidt_index >= 2:
                at_bound = abs(report.entanglement_number - report.upper_bound) <= 1e-8
                assert at_bound == report.maximal
            else:
                # At index 1 the bound is 0 and trivially attained, but
                # maximality requires index >= 2 by definition.
                assert not report.maximal

    def test_criterion_consistency_on_entangled_states(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            state = random_bipartite_state(rng, m, n)
            assert factor_test(state).factorized == (schmidt_decompose(state).index == 1)

    def test_criterion_residual_tiny_on_products(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            state = random_product_state(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            verdict = factor_test(state)
            if verdict.method == "sum-criterion":
                assert verdict.max_residual <= 1e-10


class TestBoundAndMaximality:
    def test_bound_values(self):
        assert max_entanglement_bound(1) == 0.0
        assert max_entanglement_bound(2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert max_entanglement_bound(3) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_bound_rejects_zero(self):
        with pytest.raises(ValueError):
            max_entanglement_bound(0)

    def test_quartet_maximality(self):
        states = spectrum_quartet()
        reports = {k: entanglement_number_schmidt(v) for k, v in states.items()}
        assert reports["alpha"].maximal
        assert reports["beta"].maximal
        assert not reports["gamma"].maximal
        assert not reports["delta"].maximal
        assert reports["alpha"].schmidt_index == 2
        assert reports["beta"].schmidt_index == 3

    def test_product_state_never_maximal(self):
        rng = np.random.default_rng(13)
        assert not entanglement_number_schmidt(random_product_state(rng, 3, 3)).maximal

    def test_maximal_states_reach_bound(self):
        states = spectrum_quartet()
        for name in ("alpha", "beta"):
            report = entanglement_number_schmidt(states[name])
            assert report.entanglement_number == pytest.approx(report.upper_bound, abs=1e-10)
