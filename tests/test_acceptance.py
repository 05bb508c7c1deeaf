"""Acceptance suite: every criterion prints one PASS/FAIL line and asserts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math

import numpy as np

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
    schmidt_decompose,
)
from entkit.sampling import (
    random_bipartite_state,
    random_product_state,
    random_projection,
    random_state_vector,
    random_unitary,
)
from entkit.scenario import run_entangled_scenario, run_product_scenario
from entkit.states import (
    BipartiteState,
    apply_local_unitary,
    phase_aligned_difference,
    reduce_left,
)
from oracles import embed_left, probability


def _report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {status}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_01_three_by_three_local_parts():
    failures = []
    verdict = factor_test(three_by_three_state())
    _check(failures, verdict.factorized, "state not declared factorized")
    if verdict.factorized:
        left, right = three_by_three_local_parts()
        err_left = phase_aligned_difference(verdict.local_left, left)
        err_right = phase_aligned_difference(verdict.local_right, right)
        _check(failures, err_left <= 1e-10, f"left part off by {err_left:.3e}")
        _check(failures, err_right <= 1e-10, f"right part off by {err_right:.3e}")
    _report(1, "3x3 state factorizes with the expected local parts", failures)


def test_criterion_02_factorized_two_by_two():
    failures = []
    state = two_by_two_factorized_state()
    fourth = entanglement_number_trace(state).fourth_moment
    _check(failures, abs(fourth - 1.0) <= 1e-12, f"fourth moment {fourth!r}")
    verdict = factor_test(state)
    _check(failures, verdict.factorized, "not declared factorized")
    if verdict.factorized:
        rebuilt = np.outer(verdict.local_left, verdict.local_right)
        flat_err = np.linalg.norm(rebuilt - state.coefficients)
        _check(failures, flat_err <= 1e-10, f"reconstruction error {flat_err:.3e}")
    _report(2, "2x2 product state: tr(|C|^4)=1 and local parts reconstruct", failures)


def test_criterion_03_entangled_two_by_two():
    failures = []
    report = entanglement_number_trace(two_by_two_entangled_state())
    _check(
        failures,
        abs(report.fourth_moment - 17 / 25) <= 1e-12,
        f"fourth moment {report.fourth_moment!r}",
    )
    expected = 2 * math.sqrt(2) / 5
    _check(
        failures,
        abs(report.entanglement_number - expected) <= 1e-10,
        f"e = {report.entanglement_number!r}",
    )
    _report(3, "2x2 entangled state: tr(|C|^4)=17/25 and e=2*sqrt(2)/5", failures)


def test_criterion_04_lopsided_two_by_two():
    failures = []
    state = two_by_two_lopsided_state()
    c = state.coefficients
    squared = c.conj().T @ c
    expected_squared = np.array([[5, 2], [2, 1]], dtype=complex) / 6.0
    err = float(np.max(np.abs(squared - expected_squared)))
    _check(failures, err <= 1e-12, f"|C|^2 off by {err:.3e}")
    report = entanglement_number_trace(state)
    _check(
        failures,
        abs(report.fourth_moment - 17 / 18) <= 1e-12,
        f"fourth moment {report.fourth_moment!r}",
    )
    expected = 1 / (3 * math.sqrt(2))
    _check(
        failures,
        abs(report.entanglement_number - expected) <= 1e-10,
        f"e = {report.entanglement_number!r}",
    )
    _report(4, "2x2 state: |C|^2, tr(|C|^4)=17/18 and e=1/(3*sqrt(2))", failures)


def test_criterion_05_spectrum_quartet():
    failures = []
    states = spectrum_quartet()
    reports = {name: entanglement_number_schmidt(state) for name, state in states.items()}
    expected = {
        "alpha": 1 / math.sqrt(2),
        "beta": math.sqrt(2 / 3),
        "gamma": math.sqrt(11 / 18),
        "delta": math.sqrt(30) / 9,
    }
    for name, value in expected.items():
        got = reports[name].entanglement_number
        _check(failures, abs(got - value) <= 1e-10, f"e({name}) = {got!r}")
    e = {name: reports[name].entanglement_number for name in reports}
    _check(
        failures,
        e["delta"] < e["alpha"] < e["gamma"] < e["beta"],
        "ordering e(delta) < e(alpha) < e(gamma) < e(beta) violated",
    )
    _check(failures, reports["alpha"].maximal and reports["alpha"].schmidt_index == 2,
           "alpha not maximal at index 2")
    _check(failures, reports["beta"].maximal and reports["beta"].schmidt_index == 3,
           "beta not maximal at index 3")
    _check(failures, not reports["gamma"].maximal, "gamma wrongly maximal")
    _check(failures, not reports["delta"].maximal, "delta wrongly maximal")
    _report(5, "diagonal quartet: values, ordering and maximality flags", failures)


def test_criterion_06_measurement_scenario():
    failures = []
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    p_alpha = np.outer(e1, e1.conj())
    result = run_entangled_scenario(e1, e2, p_alpha, p_alpha)
    _check(
        failures,
        abs(result.before_probability - 0.5) <= 1e-12,
        f"before = {result.before_probability!r}",
    )
    _check(
        failures,
        abs(result.after_probability) <= 1e-12,
        f"after = {result.after_probability!r}",
    )

    rng = np.random.default_rng(106)
    done = 0
    worst = 0.0
    while done < 1000:
        dim = int(rng.integers(2, 6))
        a = random_state_vector(rng, dim)
        b = random_state_vector(rng, dim)
        p = random_projection(rng, dim)
        q = random_projection(rng, dim)
        if probability(a, p) <= 1e-9:
            continue
        run = run_product_scenario(a, b, p, q)
        worst = max(worst, abs(run.before_probability - run.after_probability))
        done += 1
    _check(failures, worst <= 1e-10, f"product runs drifted by {worst:.3e}")
    _report(6, "scenario: fixed case gives 1/2 vs 0; product runs never change", failures)


def test_criterion_07_peaked_distribution():
    failures = []
    state = BipartiteState(np.diag([math.sqrt(0.99), math.sqrt(0.01)]))
    number = entanglement_number_schmidt(state).entanglement_number
    exact = math.sqrt(198) / 100  # independent oracle: sqrt(1 - 0.99^2 - 0.01^2)
    _check(failures, abs(number - exact) <= 1e-12, f"e = {number!r} vs oracle {exact!r}")
    _check(failures, abs(number - 0.14) <= 0.005, f"e = {number!r} not near 0.14")
    _report(7, "peaked weights (99/100, 1/100) give e close to 0.14", failures)


def test_criterion_08_route_equivalence_properties():
    failures = []
    rng = np.random.default_rng(108)

    worst_gap = 0.0
    worst_bound = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        state = random_bipartite_state(rng, m, n)
        via_schmidt = entanglement_number_schmidt(state)
        via_trace = entanglement_number_trace(state)
        worst_gap = max(
            worst_gap,
            abs(via_schmidt.entanglement_number - via_trace.entanglement_number),
        )
        worst_bound = max(
            worst_bound, via_schmidt.entanglement_number - via_schmidt.upper_bound
        )
    _check(failures, worst_gap <= 1e-9, f"routes disagree by {worst_gap:.3e}")

    worst_product_e = 0.0
    non_factorized = 0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        state = random_product_state(rng, m, n)
        report = entanglement_number_schmidt(state)
        worst_product_e = max(worst_product_e, report.entanglement_number)
        worst_bound = max(worst_bound, report.entanglement_number - report.upper_bound)
        if not factor_test(state).factorized:
            non_factorized += 1
    _check(failures, worst_product_e <= 1e-9, f"product e up to {worst_product_e:.3e}")
    _check(failures, non_factorized == 0, f"{non_factorized} product states misclassified")
    _check(failures, worst_bound <= 1e-10, f"bound violated by {worst_bound:.3e}")
    _report(8, "1000-state property suite: route agreement, products, bound", failures)


def test_criterion_09_reduction_identity():
    failures = []
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        state = random_bipartite_state(rng, m, n)
        p = random_projection(rng, m)
        lhs = probability(state.to_vector(), embed_left(p, n))
        rhs = reduce_left(state).expectation(p)
        worst = max(worst, abs(lhs - rhs))
    _check(failures, worst <= 1e-10, f"identity violated by {worst:.3e}")
    _report(9, "left-event statistics match the weighted reduction (100 pairs)", failures)


def test_criterion_10_local_unitary_invariance():
    failures = []
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        state = random_bipartite_state(rng, m, n)
        base = entanglement_number_schmidt(state).entanglement_number
        for _ in range(5):
            moved = apply_local_unitary(
                state, random_unitary(rng, m), random_unitary(rng, n)
            )
            worst = max(
                worst,
                abs(entanglement_number_schmidt(moved).entanglement_number - base),
            )
    _check(failures, worst <= 1e-9, f"e drifts by {worst:.3e} under local unitaries")
    _report(10, "e invariant under 100 local-unitary pairs on 20 states", failures)
