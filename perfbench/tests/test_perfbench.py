"""Tests of the benchmark itself: inputs, ground truth, tracing and a smoke run.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from entkit.statefile import parse_state_file  # noqa: E402
from perfbench import gen, metrics, tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / "perfbench" / "run.py"


def generated(seed):
    return gen.analyze_cases(seed) + gen.file_cases(seed, ROOT / "states")


def test_same_seed_gives_identical_inputs(tmp_path):
    first, second = generated(3), generated(3)
    assert [c.name for c in first] == [c.name for c in second]
    for a, b in zip(first, second):
        assert (a.sigma, a.r, a.e_true, a.text) == (b.sigma, b.r, b.e_true, b.text)
        if a.coefficients is not None:
            assert a.coefficients.tobytes() == b.coefficients.tobytes()
    files = gen.file_cases(3, ROOT / "states")
    paths_a = gen.write_files(files, tmp_path / "a")
    paths_b = gen.write_files(gen.file_cases(3, ROOT / "states"), tmp_path / "b")
    assert [p.read_bytes() for p in paths_a] == [p.read_bytes() for p in paths_b]
    assert gen.scenario_cases(3) == gen.scenario_cases(3)


def test_another_seed_gives_other_inputs():
    a, b = gen.analyze_cases(3), gen.analyze_cases(4)
    assert all(x.coefficients.tobytes() != y.coefficients.tobytes() for x, y in zip(a, b))
    assert gen.scenario_cases(3) != gen.scenario_cases(4)


def _numpy_truth(c):
    s = np.linalg.svd(c, compute_uv=False)
    s = s / np.linalg.norm(s)
    w = s**2
    pairs = math.fsum(w[i] * w[j] for i in range(len(w)) for j in range(i + 1, len(w)))
    return s, int(np.sum(s > gen.RANK_CUTOFF * s[0])), math.sqrt(2 * pairs)


@pytest.mark.parametrize("seed", [1, 2])
def test_ground_truth_agrees_with_numpy_svd(seed):
    for case in generated(seed):
        if case.coefficients is not None:
            c = case.coefficients
        else:
            c = parse_state_file(case.text).coefficients
        s, r, e = _numpy_truth(c)
        assert r == case.r, case.name
        assert abs(e - case.e_true) <= 1e-12, case.name
        assert np.max(np.abs(s[: len(case.sigma)] - np.asarray(case.sigma))) <= 1e-12, case.name


def test_generated_files_parse_back_to_their_states():
    for case in gen.file_cases(2, ROOT / "states"):
        if case.coefficients is None:
            continue
        parsed = parse_state_file(case.text).coefficients
        assert np.max(np.abs(parsed - case.coefficients)) <= 1e-12, case.name


def test_zerosum_class_has_zero_coefficient_sum():
    for case in gen.analyze_cases(1):
        if case.cls == "zerosum":
            assert abs(np.sum(case.coefficients)) <= 1e-12, case.name


def test_near_threshold_class_straddles_the_rank_cutoff():
    near = [c for c in gen.file_cases(1, ROOT / "states") if c.cls == "near-threshold"]
    assert {c.r for c in near} == {1, 2}


def test_near_threshold_files_are_probed_not_timed(tmp_path):
    from perfbench import workloads

    wl = workloads.make("files", 1, tmp_path, False, ROOT)
    near = {i for i, c in enumerate(wl.cases) if c.cls == gen.NEAR_THRESHOLD}
    assert near and set(wl.probe) == near
    assert not near & (set(wl.cycle) | set(wl.warmup) | set(wl.process_cases))
    assert sorted(wl.cycle + wl.probe) == list(range(len(wl.cases)))


def test_benchmark_json_matches_the_metric_tables():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit, better, bound) for name, unit, better, bound, _ in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in metrics.PER_LAYER
    ]


def test_a_wrapped_name_that_is_gone_records_nothing(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [
        ("entkit.linalg", "no_such_kernel", "linalg.eigen", None, None),
    ])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.layer_totals() == {}


def test_tail_reads_the_fixed_percentile():
    values = list(range(1, 101))
    assert metrics.tail(values, 90) == 90
    assert metrics.tail(values, 99) == 99


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_unit_and_direction(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    report = {line.split()[0]: line.split() for line in lines[:-1] if line.startswith("  ")}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0, m["name"]
        fields = report[m["name"]]
        assert fields[2] == m["unit"] and fields[3] == m["better"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
