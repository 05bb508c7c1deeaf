"""Built-in worked examples with known closed-form answers.

Each demo builds a fixed state (or scenario), runs the library on it and
compares against the expected values, so a user can verify the whole pipeline
from the command line. ``action-at-a-distance`` additionally runs a seeded
random instance of the two-lab scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    entanglement_number_schmidt,
    entanglement_number_trace,
    factor_test,
    schmidt_decompose,
)
from .sampling import random_orthonormal_pair, random_projection
from .scenario import run_entangled_scenario, run_product_scenario
from .states import (
    BipartiteState,
    local_probability,
    phase_aligned_difference,
    singlet,
)

VALUE_TOL = 1e-10
MOMENT_TOL = 1e-12
SCENARIO_TOL = 1e-12
# Largest --dim the scenario demo accepts: a run holds a few d x d complex
# matrices and costs O(d^3), a few seconds at this size on a desktop core.
MAX_SCENARIO_DIM = 1024


@dataclass(frozen=True)
class DemoCheck:
    label: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class DemoResult:
    name: str
    checks: tuple[DemoCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _num(x: float) -> str:
    return f"{x:.12g}"


def _value_check(label: str, expected: float, computed: float, tol: float) -> DemoCheck:
    return DemoCheck(label, _num(expected), _num(computed), abs(expected - computed) <= tol)


def _flag_check(label: str, expected, computed) -> DemoCheck:
    return DemoCheck(label, str(expected), str(computed), expected == computed)


# ---------------------------------------------------------------------------
# fixed states


def singlet_state() -> BipartiteState:
    return singlet(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def three_by_three_state() -> BipartiteState:
    raw = np.array(
        [[4, -3j, 5], [-8, 6j, -10], [12, -9j, 15]],
        dtype=complex,
    )
    return BipartiteState(raw / np.linalg.norm(raw))


def three_by_three_local_parts() -> tuple[np.ndarray, np.ndarray]:
    left = np.array([1.0, -2.0, 3.0]) / math.sqrt(14.0)
    right = np.array([4.0, -3.0j, 5.0]) / (5.0 * math.sqrt(2.0))
    return left, right


def diagonal_state(amplitudes) -> BipartiteState:
    return BipartiteState(np.diag(np.asarray(amplitudes, dtype=complex)))


def spectrum_quartet() -> dict[str, BipartiteState]:
    """Four diagonal states whose weight distributions are (1/2, 1/2),
    (1/3, 1/3, 1/3), (1/2, 1/3, 1/6) and (1/9, 1/9, 7/9)."""
    s = math.sqrt
    return {
        "alpha": diagonal_state([1 / s(2), 1 / s(2)]),
        "beta": diagonal_state([1 / s(3), 1 / s(3), 1 / s(3)]),
        "gamma": diagonal_state([1 / s(2), 1 / s(3), 1 / s(6)]),
        "delta": diagonal_state([1 / 3, 1 / 3, s(7) / 3]),
    }


def two_by_two_factorized_state() -> BipartiteState:
    return BipartiteState(np.array([[1, -2j], [1, -2j]], dtype=complex) / math.sqrt(10.0))


def two_by_two_entangled_state() -> BipartiteState:
    return BipartiteState(np.array([[1, -2j], [1, 2j]], dtype=complex) / math.sqrt(10.0))


def two_by_two_lopsided_state() -> BipartiteState:
    return BipartiteState(np.array([[3, 1], [1, 1]], dtype=complex) / (2.0 * math.sqrt(3.0)))


# ---------------------------------------------------------------------------
# demo runners


def _run_example1() -> DemoResult:
    state = singlet_state()
    verdict = factor_test(state)
    report = entanglement_number_schmidt(state)
    checks = (
        _flag_check("verdict", "entangled", "factorized" if verdict.factorized else "entangled"),
        _flag_check("schmidt index", 2, report.schmidt_index),
        _value_check("entanglement number", 1 / math.sqrt(2), report.entanglement_number, VALUE_TOL),
    )
    return DemoResult("example1", checks)


def _run_example2() -> DemoResult:
    state = three_by_three_state()
    verdict = factor_test(state)
    decomposition = schmidt_decompose(state)
    checks = (
        _flag_check("verdict", "factorized", "factorized" if verdict.factorized else "entangled"),
        _flag_check("schmidt index", 1, decomposition.index),
    )
    notes = ("a 3x3 state whose product structure is not apparent by inspection",)
    return DemoResult("example2", checks, notes)


def _run_example3() -> DemoResult:
    state = three_by_three_state()
    verdict = factor_test(state)
    left, right = three_by_three_local_parts()
    checks = [
        _flag_check("verdict", "factorized", "factorized" if verdict.factorized else "entangled"),
        _flag_check("decided by", "sum-criterion", verdict.method),
    ]
    if verdict.factorized:
        checks.append(
            _value_check(
                "local left error (up to phase)",
                0.0,
                phase_aligned_difference(verdict.local_left, left),
                VALUE_TOL,
            )
        )
        checks.append(
            _value_check(
                "local right error (up to phase)",
                0.0,
                phase_aligned_difference(verdict.local_right, right),
                VALUE_TOL,
            )
        )
    return DemoResult("example3", tuple(checks))


def _run_example4() -> DemoResult:
    states = spectrum_quartet()
    expected = {
        "alpha": 1 / math.sqrt(2),
        "beta": math.sqrt(2 / 3),
        "gamma": math.sqrt(11 / 18),
        "delta": math.sqrt(30) / 9,
    }
    expected_maximal = {"alpha": True, "beta": True, "gamma": False, "delta": False}
    reports = {name: entanglement_number_schmidt(state) for name, state in states.items()}
    checks = []
    for name in ("alpha", "beta", "gamma", "delta"):
        checks.append(
            _value_check(
                f"e({name})", expected[name], reports[name].entanglement_number, VALUE_TOL
            )
        )
        checks.append(_flag_check(f"{name} maximal", expected_maximal[name], reports[name].maximal))
    checks.append(_flag_check("alpha index", 2, reports["alpha"].schmidt_index))
    checks.append(_flag_check("beta index", 3, reports["beta"].schmidt_index))
    e = {name: reports[name].entanglement_number for name in reports}
    checks.append(
        _flag_check("ordering e(delta) < e(alpha) < e(gamma) < e(beta)", True,
                    e["delta"] < e["alpha"] < e["gamma"] < e["beta"])
    )
    notes = (
        "e(delta)={:.6g} < e(alpha)={:.6g} < e(gamma)={:.6g} < e(beta)={:.6g}".format(
            e["delta"], e["alpha"], e["gamma"], e["beta"]
        ),
    )
    return DemoResult("example4", tuple(checks), notes)


def _run_example5() -> DemoResult:
    state = two_by_two_factorized_state()
    verdict = factor_test(state)
    report = entanglement_number_trace(state)
    checks = [
        _value_check("fourth moment tr(|C|^4)", 1.0, report.fourth_moment, MOMENT_TOL),
        _flag_check("verdict", "factorized", "factorized" if verdict.factorized else "entangled"),
    ]
    if verdict.factorized:
        rebuilt = np.outer(verdict.local_left, verdict.local_right)
        checks.append(
            _value_check(
                "reconstruction error",
                0.0,
                phase_aligned_difference(rebuilt, state.coefficients),
                VALUE_TOL,
            )
        )
    return DemoResult("example5", tuple(checks))


def _run_example6() -> DemoResult:
    state = two_by_two_entangled_state()
    verdict = factor_test(state)
    report = entanglement_number_trace(state)
    checks = (
        _value_check("fourth moment tr(|C|^4)", 17 / 25, report.fourth_moment, MOMENT_TOL),
        _value_check(
            "entanglement number", 2 * math.sqrt(2) / 5, report.entanglement_number, VALUE_TOL
        ),
        _flag_check("verdict", "entangled", "factorized" if verdict.factorized else "entangled"),
    )
    return DemoResult("example6", checks)


def _run_example7() -> DemoResult:
    state = two_by_two_lopsided_state()
    c = state.coefficients
    squared = c.conj().T @ c
    expected_squared = np.array([[5, 2], [2, 1]], dtype=complex) / 6.0
    report = entanglement_number_trace(state)
    checks = (
        _value_check(
            "|C|^2 entrywise error",
            0.0,
            float(np.max(np.abs(squared - expected_squared))),
            MOMENT_TOL,
        ),
        _value_check("fourth moment tr(|C|^4)", 17 / 18, report.fourth_moment, MOMENT_TOL),
        _value_check(
            "entanglement number", 1 / (3 * math.sqrt(2)), report.entanglement_number, VALUE_TOL
        ),
    )
    return DemoResult("example7", checks)


def _run_action_at_a_distance(seed: int, dim: int) -> DemoResult:
    if dim < 2:
        raise ValueError("the scenario needs dimension >= 2")
    if dim > MAX_SCENARIO_DIM:
        raise ValueError(f"the scenario needs dimension <= {MAX_SCENARIO_DIM}, got {dim}")
    alpha = np.zeros(dim, dtype=complex)
    beta = np.zeros(dim, dtype=complex)
    alpha[0] = 1.0
    beta[1] = 1.0
    projector = np.outer(alpha, alpha.conj())
    fixed = run_entangled_scenario(alpha, beta, projector, projector)
    checks = [
        _value_check("before probability (P=Q=P_alpha)", 0.5, fixed.before_probability, SCENARIO_TOL),
        _value_check("after probability (P=Q=P_alpha)", 0.0, fixed.after_probability, SCENARIO_TOL),
    ]
    notes = [
        f"fixed case: before={fixed.before_probability:.6g} after={fixed.after_probability:.6g}",
    ]

    rng = np.random.default_rng(seed)
    a, b = random_orthonormal_pair(rng, dim)
    p = random_projection(rng, dim, rank=max(1, dim - 1))
    q = random_projection(rng, dim)
    entangled = run_entangled_scenario(a, b, p, q)
    joint = singlet(a, b)
    alice = local_probability(joint, p=p)
    checks.append(
        _value_check(
            "random entangled run: N^2 vs outcome probability",
            alice,
            entangled.alice_outcome_probability,
            1e-10,
        )
    )
    product = run_product_scenario(a, b, p, q)
    checks.append(
        _value_check(
            "random product run: |before - after|",
            0.0,
            abs(product.before_probability - product.after_probability),
            1e-10,
        )
    )
    notes.append(
        f"random entangled run (seed={seed}, dim={dim}): "
        f"before={entangled.before_probability:.6g} after={entangled.after_probability:.6g} "
        f"changed={entangled.changed}"
    )
    notes.append(
        f"random product run: before={product.before_probability:.6g} "
        f"after={product.after_probability:.6g} changed={product.changed}"
    )
    return DemoResult("action-at-a-distance", tuple(checks), tuple(notes))


_FIXED_RUNNERS = {
    "example1": _run_example1,
    "example2": _run_example2,
    "example3": _run_example3,
    "example4": _run_example4,
    "example5": _run_example5,
    "example6": _run_example6,
    "example7": _run_example7,
}


def demo_names() -> tuple[str, ...]:
    return tuple(_FIXED_RUNNERS) + ("action-at-a-distance",)


def run_demo(name: str, seed: int = 0, dim: int = 2) -> DemoResult:
    if name in _FIXED_RUNNERS:
        return _FIXED_RUNNERS[name]()
    if name == "action-at-a-distance":
        return _run_action_at_a_distance(seed, dim)
    raise ValueError(f"unknown demo {name!r}; choose from {', '.join(demo_names())} or 'all'")
