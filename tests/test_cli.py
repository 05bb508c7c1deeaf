import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from entkit.cli import main
from entkit.reporting import (
    build_analysis_report,
    emit_machine,
    parse_machine,
    render_text,
)
from entkit.statefile import parse_state_file
from entkit.states import MAX_DIM

STATES = Path(__file__).resolve().parent.parent / "states"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_factorized_state_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", str(STATES / "example5.state"))
        assert code == 0
        assert "factorized" in out

    def test_entangled_state_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "analyze", str(STATES / "example6.state")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "entangled"
        assert doc["entanglement_number"] == pytest.approx(2 * math.sqrt(2) / 5, abs=1e-10)
        assert doc["fourth_moment"] == pytest.approx(17 / 25, abs=1e-12)

    def test_known_number_for_lopsided_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "analyze", str(STATES / "example7.state")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["entanglement_number"] == pytest.approx(1 / (3 * math.sqrt(2)), abs=1e-10)

    def test_text_renders_machine_values(self, capsys):
        _, machine_out, _ = run_cli(
            capsys, "--format", "machine", "analyze", str(STATES / "example6.state")
        )
        doc = json.loads(machine_out)
        _, text_out, _ = run_cli(capsys, "analyze", str(STATES / "example6.state"))
        assert f"{doc['entanglement_number']:.6g}" in text_out
        assert f"{doc['fourth_moment']:.6g}" in text_out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-file.state")
        assert code == 2
        assert "error" in err

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.state"
        bad.write_text("dims 2 2\ndense\n1 nope\n0 0\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("entry", ["nan", "1e400"])
    def test_non_finite_entry_exits_two(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.state"
        bad.write_text(f"dims 2 2\nnormalize\ndense\n{entry} 0\n0 1\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert f"line 4: complex literal '{entry}' is not finite" in err

    @pytest.mark.parametrize("dims", ["1000000 1000000", f"{MAX_DIM + 1} 1", f"1 {MAX_DIM + 1}"])
    def test_oversized_dims_exit_two(self, tmp_path, capsys, dims):
        # Rejected at the dims line, before the matrix is allocated.
        bad = tmp_path / "big.state"
        bad.write_text(f"# too large\ndims {dims}\nsparse\n1 1 1\n")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert out == ""
        assert f"line 2: dims must be at most {MAX_DIM}" in err

    def test_largest_dims_parse(self, tmp_path, capsys):
        edge = tmp_path / "edge.state"
        edge.write_text(f"dims {MAX_DIM} 1\nsparse\n{MAX_DIM} 1 -i\n")
        code, out, _ = run_cli(capsys, "factor", str(edge))
        assert code == 0
        assert "factorized" in out

    def test_tolerance_flag_loosens_criterion(self, capsys):
        strict, _, _ = run_cli(capsys, "analyze", str(STATES / "example6.state"))
        loose, _, _ = run_cli(
            capsys, "--tolerance", "10", "analyze", str(STATES / "example6.state")
        )
        assert strict == 1
        assert loose == 0

    def test_normalize_flag(self, tmp_path, capsys):
        raw = tmp_path / "raw.state"
        raw.write_text("dims 2 2\ndense\n3 0\n0 4\n")
        code, _, _ = run_cli(capsys, "analyze", str(raw))
        assert code == 2
        code, out, _ = run_cli(capsys, "--format", "machine", "--normalize", "analyze", str(raw))
        assert code == 1
        doc = json.loads(out)
        assert doc["distribution"] == pytest.approx([0.64, 0.36], abs=1e-12)


    @pytest.mark.parametrize("entry", ["1e200", "1e-200"])
    def test_normalize_at_extreme_scales(self, tmp_path, capsys, entry):
        unit = tmp_path / "unit.state"
        unit.write_text("dims 2 2\nnormalize\ndense\n1 0\n0 1\n")
        scaled = tmp_path / "scaled.state"
        scaled.write_text(f"dims 2 2\nnormalize\ndense\n{entry} 0\n0 {entry}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "--format", "machine", "analyze", str(scaled))
        assert (code, err) == (1, "")
        assert json.loads(out)["distribution"] == [0.5, 0.5]
        assert out == run_cli(capsys, "--format", "machine", "analyze", str(unit))[1]


class TestSchmidt:
    def test_bell_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "schmidt", str(STATES / "bell.state")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["index"] == 2
        assert doc["coefficients"] == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-10)

    def test_rank_tolerance_flag(self, capsys):
        # sigma ratio of this state is ~0.17, so a 0.5 cutoff drops the tail.
        code, out, _ = run_cli(
            capsys,
            "--format",
            "machine",
            "--rank-tol",
            "0.5",
            "schmidt",
            str(STATES / "example7.state"),
        )
        assert code == 0
        assert json.loads(out)["index"] == 1


class TestEnumber:
    def test_both_routes_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "enumber", str(STATES / "example7.state")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["schmidt_route"] == pytest.approx(doc["trace_route"], abs=1e-9)
        assert doc["route_difference"] <= 1e-9

    @pytest.mark.parametrize("method,key", [("schmidt", "schmidt_route"), ("trace", "trace_route")])
    def test_single_route(self, capsys, method, key):
        code, out, _ = run_cli(
            capsys,
            "--format",
            "machine",
            "enumber",
            str(STATES / "example6.state"),
            "--method",
            method,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc[key] == pytest.approx(2 * math.sqrt(2) / 5, abs=1e-10)


class TestFactor:
    def test_product_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "factor", str(STATES / "example3.state")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["factorized"] is True
        assert doc["method"] == "sum-criterion"
        assert len(doc["local_left"]) == 3
        assert len(doc["local_right"]) == 3

    def test_entangled_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "factor", str(STATES / "example1.state")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["factorized"] is False
        assert doc["local_left"] is None


class TestDemo:
    def test_all_demos_pass(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "machine", "demo", "all")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {result["name"] for result in doc["results"]} == {
            "example1",
            "example2",
            "example3",
            "example4",
            "example5",
            "example6",
            "example7",
            "action-at-a-distance",
        }

    def test_quartet_demo_prints_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "example4")
        assert code == 0
        assert "e(delta)" in out and "< e(beta)" in out

    def test_scenario_demo_values(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "machine", "demo", "action-at-a-distance")
        assert code == 0
        doc = json.loads(out)
        checks = {c["label"]: c for c in doc["results"][0]["checks"]}
        assert float(checks["before probability (P=Q=P_alpha)"]["computed"]) == 0.5
        assert float(checks["after probability (P=Q=P_alpha)"]["computed"]) == 0.0

    def test_seed_and_dim_flags(self, capsys):
        code1, out1, _ = run_cli(capsys, "demo", "action-at-a-distance", "--seed", "5", "--dim", "4")
        code2, out2, _ = run_cli(capsys, "demo", "action-at-a-distance", "--seed", "5", "--dim", "4")
        assert code1 == code2 == 0
        assert out1 == out2  # deterministic under a fixed seed

    @pytest.mark.parametrize(
        "dim,message",
        [(MAX_DIM + 1, f"dimension <= {MAX_DIM}"), (1, "dimension >= 2")],
    )
    def test_scenario_dim_out_of_range_exits_two(self, capsys, dim, message):
        code, out, err = run_cli(capsys, "demo", "action-at-a-distance", "--dim", str(dim))
        assert code == 2
        assert out == ""
        assert message in err

    def test_entangled_singlet_demo(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "example1")
        assert code == 0
        assert "entangled" in out

    def test_unknown_demo_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "demo", "example99")
        assert code == 2
        assert "unknown demo" in err


class TestMachineRoundTrip:
    def test_report_survives_emit_parse(self):
        state = parse_state_file((STATES / "example6.state").read_text())
        report = build_analysis_report(state)
        assert parse_machine(emit_machine(report)) == report

    def test_factorized_report_round_trip(self):
        state = parse_state_file((STATES / "example3.state").read_text())
        report = build_analysis_report(state)
        assert parse_machine(emit_machine(report)) == report
        assert report.local_left is not None

    def test_text_is_rendered_from_report(self):
        state = parse_state_file((STATES / "example7.state").read_text())
        report = build_analysis_report(state)
        text = render_text(report)
        assert f"{report.entanglement_number:.6g}" in text
        assert report.verdict in text


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "entkit.cli", "--format", "machine",
         "analyze", str(STATES / "example5.state")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "factorized"
