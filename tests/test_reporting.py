import numpy as np
import pytest

import entkit.entanglement
import entkit.linalg
from entkit.demos import singlet_state, two_by_two_lopsided_state
from entkit.reporting import build_analysis_report, build_enumber_report, emit_machine, parse_machine
from entkit.states import BipartiteState


@pytest.fixture
def eigen_calls(monkeypatch):
    calls = []
    original = entkit.linalg.hermitian_eigen

    def counting(h):
        calls.append(h.shape)
        return original(h)

    monkeypatch.setattr(entkit.linalg, "hermitian_eigen", counting)
    monkeypatch.setattr(entkit.entanglement, "hermitian_eigen", counting)
    return calls


def test_analysis_runs_one_eigensolve(eigen_calls):
    # The Schmidt route's SVD; the trace route's number and moment need none.
    report = build_analysis_report(two_by_two_lopsided_state())
    assert len(eigen_calls) == 1
    assert report.fourth_moment == pytest.approx(17 / 18, abs=1e-12)


def test_zero_sum_analysis_runs_two_eigensolves(eigen_calls):
    # The factor test's Schmidt-rank fallback adds a second SVD.
    report = build_analysis_report(singlet_state())
    assert report.factor_method == "schmidt-rank"
    assert len(eigen_calls) == 2


@pytest.mark.parametrize("method", ["schmidt", "trace", "both"])
def test_enumber_runs_one_eigensolve(eigen_calls, method):
    # "both" takes only the trace route's number and moment, which need none.
    report = build_enumber_report(two_by_two_lopsided_state(), method=method)
    assert len(eigen_calls) == 1
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
