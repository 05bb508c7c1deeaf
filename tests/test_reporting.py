import json

import numpy as np
import pytest

import entkit.entanglement
import entkit.reporting
from entkit.demos import singlet_state, two_by_two_lopsided_state
from entkit.entanglement import SchmidtDecomposition
from entkit.reporting import (
    build_analysis_report,
    build_enumber_report,
    build_schmidt_report,
    emit_machine,
    parse_machine,
    render_text,
)
from entkit.states import BipartiteState


@pytest.fixture
def decompositions(monkeypatch):
    """Names of the decompositions run: each ``svd`` and ``hermitian_eigen``
    call the entanglement routes make. In the test names below, "eigensolve"
    stands for either kind of decomposition."""
    calls = []

    def counting(name):
        original = getattr(entkit.entanglement, name)

        def wrapper(matrix):
            calls.append(name)
            return original(matrix)

        monkeypatch.setattr(entkit.entanglement, name, wrapper)

    counting("svd")
    counting("hermitian_eigen")
    return calls


def test_analysis_runs_one_eigensolve(decompositions):
    # The Schmidt route's SVD; the trace route's number and moment need none.
    report = build_analysis_report(two_by_two_lopsided_state())
    assert decompositions == ["svd"]
    assert report.fourth_moment == pytest.approx(17 / 18, abs=1e-12)


def test_zero_sum_analysis_runs_two_eigensolves(decompositions):
    # The factor test's Schmidt-rank fallback adds a second SVD.
    report = build_analysis_report(singlet_state())
    assert report.factor_method == "schmidt-rank"
    assert len(decompositions) == 2


@pytest.mark.parametrize("method", ["schmidt", "trace", "both"])
def test_enumber_runs_one_eigensolve(decompositions, method):
    # "both" takes only the trace route's number and moment, which need none.
    report = build_enumber_report(two_by_two_lopsided_state(), method=method)
    assert len(decompositions) == 1
    assert report.index == 2


def test_enumber_route_difference_matches_analyze():
    # Both take the difference of the unrounded route numbers.
    for state in (two_by_two_lopsided_state(), singlet_state()):
        assert (build_enumber_report(state).route_difference
                == build_analysis_report(state).route_difference)


def test_enumber_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        build_enumber_report(singlet_state(), method="svd")


def test_round_trip_of_factorized_zero_sum_state():
    # The Schmidt-rank fallback supplies the local parts here.
    state = BipartiteState(np.outer([1, -1], [1, 1j]).astype(complex) / 2.0)
    report = build_analysis_report(state)
    assert (report.verdict, report.factor_method) == ("factorized", "schmidt-rank")
    assert parse_machine(emit_machine(report)) == report


def test_negative_zero_prints_as_zero(monkeypatch):
    decomposition = SchmidtDecomposition(
        coefficients=np.array([1.0, -0.0]),
        left_states=np.array([[complex(-0.0, -0.0), 1], [1, complex(-0.0, -0.0)]]),
        right_states=np.array([[1, complex(-0.0, -0.0)], [complex(-0.0, -0.0), 1]]),
        index=2,
    )
    monkeypatch.setattr(entkit.reporting, "schmidt_decompose", lambda state, rank_tol: decomposition)
    report = build_schmidt_report(singlet_state())
    text = render_text(report)
    assert "pair 1  left:  0+0i 1+0i" in text
    assert "coefficients  1 0" in text
    assert "-0" not in text
    machine = emit_machine(report)
    assert "-0.0" not in machine
    assert json.loads(machine)["left_states"][0][0] == [0.0, 0.0]
