"""The three workloads: what one op is, its inputs, and how its output is checked.

Each workload exposes a fixed ``cycle`` of items; runs time whole cycles so
every run measures the same mix, and ``tail_pct`` fixes the percentile its
tail latency is read at. ``op`` is the only timed call. ``check``
returns the failure kinds of one op's output (empty when correct),
``process_argv`` lists the CLI processes of the workload's process phase, and
``probe`` lists the items of a known defect, run untimed and reported apart.

* ``analyze`` -- one ``build_analysis_report(state)`` per op. ``linalg`` does
  most of the work; tall and wide shapes use it differently (left-basis
  completion and the trace route's row-pair loop against one large ``C*C``
  eigensolve), so a change that helps one and hurts the other shows.
* ``files`` -- one state file through ``entkit.cli.main`` four times per op
  (``analyze --format machine``, ``factor``, ``schmidt``, ``enumber``).
  ``linalg`` is small here and argument parsing, file parsing, validation
  and rendering dominate; it also carries the cross-command agreement check.
  Its near-threshold files are a known-defect probe: they run untimed after
  the timed phases, through the same op and checks, and their failures are
  reported apart from the run's own (see ``Files.probe``).
* ``scenario`` -- one ``run_demo("action-at-a-distance", seed, dim)`` per op.
  Only ``states`` and ``scenario`` work here, through Kronecker-sized
  operators whose memory grows like d^4.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import entkit.cli
import entkit.demos
import entkit.entanglement
import entkit.reporting
from entkit.states import BipartiteState

from . import gen

# An answer counts as right when e and the reconstruction are within these
# absolute errors of ground truth: six digits on unit-norm quantities. The
# seed's C*C kernel reaches 7 to 8 digits on graded spectra (worst of 300
# sampled states: 1.05e-7), so a tighter target would fail ops at random
# from seed to seed; the digits achieved are reported as e_digits and
# recon_digits.
E_TOL = 1e-6
RECON_TOL = 1e-6

EXIT_CODES = {"factorized": 0, "entangled": 1}


def _answer_checks(case: gen.Case, verdict: str, index: int, e: float) -> list[str]:
    kinds = []
    if verdict != case.verdict:
        kinds.append("verdict")
    if index != case.r:
        kinds.append("index")
    if verdict == "factorized" and index >= 2:
        kinds.append("factorized_with_index")
    if abs(e - case.e_true) > E_TOL:
        kinds.append("accuracy_e")
    return kinds


def _text_field(text: str, field: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(field + " "):
            return line[len(field):].strip()
    return None


class Analyze:
    name = "analyze"
    tail_pct = 76  # one pass is 43 ops
    reference = "loop"  # op times track the harness's interpreter-bound reference loop
    # The host's speed swings within a second, and a run times under a hundred
    # ops, so the reference is re-timed before every op.
    reference_every_ns = 0

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.cases = gen.analyze_cases(seed, smoke)
        self.probe = []
        self.states = [BipartiteState(c.coefficients) for c in self.cases]
        self.cycle = list(range(len(self.cases)))
        self.e_error = 0.0
        self._recon: dict[int, float] = {}
        # The case of each spectrum class with the shortest side (the seed's
        # cost grows with the cube of the longer side) runs once as warm-up.
        cheapest = {}
        for i, case in enumerate(self.cases):
            if case.cls not in cheapest or max(case.dims) < max(self.cases[cheapest[case.cls]].dims):
                cheapest[case.cls] = i
        self.warmup = sorted(cheapest.values())
        # The CLI processes analyze the smallest square states, one per class.
        side = min(c.dims[0] for c in self.cases if c.shape_class == "square")
        per_class = {}
        for i, case in enumerate(self.cases):
            if case.dims == (side, side):
                per_class.setdefault(case.cls, i)
        self.process_cases = sorted(per_class.values())
        self.files = {}
        for i in self.process_cases:
            path = workdir / f"{self.cases[i].name}.state"
            path.write_text(gen.state_file_text(self.cases[i].coefficients, "dense", False))
            self.files[i] = path

    def shape_class(self, item) -> str:
        return self.cases[item].shape_class

    def label(self, item) -> str:
        return self.cases[item].name

    def input_class(self, item) -> str:
        return self.cases[item].cls

    def op(self, item):
        return entkit.reporting.build_analysis_report(self.states[item])

    def check(self, item, report) -> list[str]:
        case = self.cases[item]
        kinds = _answer_checks(case, report.verdict, report.schmidt_index,
                               report.entanglement_number)
        self.e_error = max(self.e_error, abs(report.entanglement_number - case.e_true))
        if self.recon_error(item) > RECON_TOL:
            kinds.append("accuracy_recon")
        return kinds

    def recon_error(self, item) -> float:
        """||C - sum s_i l_i (x) r_i||_F, computed once per state, outside any timed op."""
        if item not in self._recon:
            d = entkit.entanglement.schmidt_decompose(self.states[item])
            rebuilt = sum(s * np.outer(l, r) for s, l, r in
                          zip(d.coefficients, d.left_states, d.right_states))
            self._recon[item] = float(np.linalg.norm(self.cases[item].coefficients - rebuilt))
        return self._recon[item]

    def accuracy(self) -> dict:
        return {"e_error": self.e_error, "recon_error": max(self._recon.values(), default=0.0)}

    def process_argv(self) -> list[tuple[list[str], int]]:
        return [(["-m", "entkit.cli", "analyze", str(self.files[i])], i) for i in self.process_cases]

    def check_process(self, item, code: int, stdout: str) -> list[str]:
        case = self.cases[item]
        kinds = []
        if _text_field(stdout, "verdict") != case.verdict or code != EXIT_CODES[case.verdict]:
            kinds.append("process_verdict")
        if _text_field(stdout, "schmidt index") != str(case.r):
            kinds.append("process_index")
        return kinds


COMMANDS = (["--format", "machine", "analyze"], ["factor"], ["schmidt"], ["enumber"])


class Files:
    name = "files"
    # A run at the seed times over 1000 ops. The slowest 8% are the zero-sum
    # 8x8 and 7x7 files; p97 sits inside that block, where p99 would read the
    # few ops a host hiccup slowed.
    tail_pct = 97
    reference = "loop"
    reference_every_ns = 200_000_000  # ops take milliseconds; re-time the reference every 200 ms of them

    def __init__(self, seed: int, workdir: Path, smoke: bool, states_dir: Path):
        self.cases = gen.file_cases(seed, states_dir, smoke)
        self.paths = [str(p) for p in gen.write_files(self.cases, workdir)]
        # At the seed, normalized diag(1, eps) with eps between the 1e-10 rank
        # cutoff and factor_test's 1e-9 residual tolerance comes out
        # "factorized" with Schmidt index 2, and the four commands' exit codes
        # disagree. A run is correct only when every timed op is, and these
        # files would fail every run until that is fixed, so they form the
        # probe: checked every run, their failures reported as
        # entanglement.near_threshold_fail_frac rather than filtered out.
        self.probe = [i for i, c in enumerate(self.cases) if c.cls == gen.NEAR_THRESHOLD]
        self.cycle = [i for i in range(len(self.cases)) if i not in self.probe]
        first = {}
        for i in self.cycle:
            first.setdefault(self.cases[i].cls, i)
        self.warmup = sorted(first.values())
        self.process_cases = [i for i, c in enumerate(self.cases) if c.cls == "shipped"]
        if smoke:
            self.process_cases = self.process_cases[:2]

    shape_class = Analyze.shape_class
    label = Analyze.label
    input_class = Analyze.input_class

    def op(self, item):
        results = []
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = entkit.cli.main(command + [self.paths[item]])
            results.append((code, out.getvalue()))
        return results

    def check(self, item, results) -> list[str]:
        case = self.cases[item]
        codes = [code for code, _ in results]
        kinds = []
        if len(set(codes)) > 1:
            kinds.append("exit_disagree")
        if any(code not in (0, 1) for code in codes):
            kinds.append("error_exit")
            return kinds
        text = results[0][1]
        report = json.loads(text)
        kinds += _answer_checks(case, report["verdict"], report["schmidt_index"],
                                report["entanglement_number"])
        if codes[0] != EXIT_CODES[case.verdict]:
            kinds.append("exit_code")
        if entkit.reporting.emit_machine(entkit.reporting.parse_machine(text)) != text.rstrip("\n"):
            kinds.append("roundtrip")
        return kinds

    def accuracy(self) -> dict:
        return {}

    def process_argv(self) -> list[tuple[list[str], int]]:
        return [(["-m", "entkit.cli", "analyze", self.paths[i]], i) for i in self.process_cases]

    check_process = Analyze.check_process


class Scenario:
    name = "scenario"
    tail_pct = 80  # one pass is 54 ops, a run at the seed 4 passes: p50 and p80 fall on d=16
    # BLAS-bound: the projector checks multiply Kronecker-sized operators, so
    # op times track a matrix-product reference, not the interpreter loop.
    reference = "gemm"
    reference_every_ns = 200_000_000

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.cases = gen.scenario_cases(seed, smoke)
        self.probe = []
        self.cycle = list(range(len(self.cases)))
        first = {}
        for i, (_k, d) in enumerate(self.cases):
            first.setdefault(d, i)
        self.warmup = sorted(first.values())
        # CLI processes run two cases of each of the two smallest dims, so
        # interpreter start-up dominates them.
        self.process_cases = [i for d in sorted(first)[:2]
                              for i in [j for j, (_k, dj) in enumerate(self.cases) if dj == d][:2]]

    def shape_class(self, item) -> None:
        return None

    def label(self, item) -> str:
        seed, dim = self.cases[item]
        return f"seed={seed} dim={dim}"

    def input_class(self, item) -> str:
        return f"dim-{self.cases[item][1]}"

    def op(self, item):
        seed, dim = self.cases[item]
        return entkit.demos.run_demo("action-at-a-distance", seed=seed, dim=dim)

    def check(self, item, result) -> list[str]:
        return [] if result.passed else ["demo_check"]

    def accuracy(self) -> dict:
        return {}

    def process_argv(self) -> list[tuple[list[str], int]]:
        argv = []
        for i in self.process_cases:
            seed, dim = self.cases[i]
            argv.append((["-m", "entkit.cli", "demo", "action-at-a-distance",
                          "--seed", str(seed), "--dim", str(dim)], i))
        return argv

    def check_process(self, item, code: int, stdout: str) -> list[str]:
        passed = code == 0 and "demo action-at-a-distance: PASS" in stdout
        return [] if passed else ["process_demo"]


CLASSES = {"analyze": Analyze, "files": Files, "scenario": Scenario}


def make(name: str, seed: int, workdir: Path, smoke: bool, root: Path):
    """Generate the named workload's inputs, writing its files under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "files":
        return Files(seed, workdir, smoke, root / "states")
    return CLASSES[name](seed, workdir, smoke)
