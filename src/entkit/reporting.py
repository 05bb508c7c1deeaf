"""Command reports: one frozen dataclass per command, rendered two ways.

``emit_machine`` writes any report as one JSON document, field by field, with
floats rounded to 12 significant digits when the report is built, so an
``AnalysisReport`` parses back into an equal report. ``render_text`` shows the
same values at 6 significant digits, one row per field with the value at the
report's ``TEXT_COLUMN``; ``None`` shows no row. Field metadata overrides the
defaults: ``key`` (JSON key), ``omit_none`` (leave ``None`` out of the JSON,
not ``null``), ``label`` (text label, else the key with spaces; ``None`` hides
the row), ``text`` (the value's text form), ``last`` (row after all others)
and ``lines`` (a block of lines from the whole report, in place of the row).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import ClassVar

from .demos import DemoResult, demo_names, run_demo
from .entanglement import (
    RANK_TOL,
    RESIDUAL_TOL,
    _trace_number,
    entanglement_number_schmidt,
    entanglement_number_trace,
    factor_test,
    schmidt_decompose,
)
from .states import BipartiteState

MACHINE_DIGITS = 12
TEXT_DIGITS = 6


def round_sig(x: float, digits: int = MACHINE_DIGITS) -> float:
    # -0.0 + 0.0 is 0.0, so no zero is ever printed with a sign.
    return float(f"{float(x):.{digits}g}") + 0.0


def complex_to_pair(z: complex, digits: int = MACHINE_DIGITS) -> list[float]:
    return [round_sig(z.real, digits), round_sig(z.imag, digits)]


def pair_to_complex(pair) -> complex:
    return complex(pair[0], pair[1])


def format_complex(z: complex, digits: int = TEXT_DIGITS) -> str:
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def _reals(values) -> tuple[float, ...]:
    return tuple(round_sig(x) for x in values)


def _complexes(values) -> tuple[complex, ...] | None:
    return None if values is None else tuple(pair_to_complex(complex_to_pair(z)) for z in values)


def _pair_lines(report: SchmidtReport) -> list[str]:
    lines = []
    for i, (left, right) in enumerate(zip(report.left_states, report.right_states)):
        lines.append(f"pair {i + 1}  left:  {_text_value(left)}")
        lines.append(f"        right: {_text_value(right)}")
    return lines


def _demo_lines(report: DemoReport) -> list[str]:
    lines = []
    for result in report.results:
        lines.append(f"demo {result.name}: {'PASS' if result.passed else 'FAIL'}")
        for check in result.checks:
            lines.append(
                f"  [{'PASS' if check.passed else 'FAIL'}] {check.label}: "
                f"expected {check.expected}, computed {check.computed}"
            )
        lines.extend(f"  note: {note}" for note in result.notes)
    return lines


_DIMS = {"text": lambda dims: f"{dims[0]} x {dims[1]}"}
_HIDDEN = {"label": None}


def _optional(**metadata):
    return field(default=None, metadata={"omit_none": True, **metadata})


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze command reports about one state."""

    TEXT_COLUMN: ClassVar[int] = 25
    dims: tuple[int, int] = field(metadata=_DIMS)
    verdict: str
    entanglement_number: float
    entanglement_number_schmidt: float = field(metadata={"label": "  schmidt route"})
    entanglement_number_trace: float = field(metadata={"label": "  trace route"})
    route_difference: float = field(metadata={"label": "  route difference"})
    schmidt_index: int
    distribution: tuple[float, ...]
    fourth_moment: float = field(metadata={"label": "fourth moment tr(|C|^4)"})
    upper_bound: float
    maximal: bool = field(
        metadata={"label": "maximally entangled", "text": lambda m: "yes" if m else "no"}
    )
    factor_method: str
    max_residual: float
    local_left: tuple[complex, ...] | None = field(metadata={"last": True})
    local_right: tuple[complex, ...] | None = field(metadata={"last": True})
    residual_tolerance: float
    rank_tolerance: float


@dataclass(frozen=True)
class SchmidtReport:
    """The retained Schmidt data: coefficients, weights and state pairs."""

    TEXT_COLUMN: ClassVar[int] = 14
    command: str = field(default="schmidt", init=False, metadata=_HIDDEN)
    dims: tuple[int, int] = field(metadata=_DIMS)
    index: int = field(metadata={"label": "schmidt index"})
    coefficients: tuple[float, ...]
    distribution: tuple[float, ...]
    left_states: tuple[tuple[complex, ...], ...] = field(metadata={"lines": _pair_lines})
    right_states: tuple[tuple[complex, ...], ...] = field(metadata=_HIDDEN)


@dataclass(frozen=True)
class EnumberReport:
    """The entanglement number by the Schmidt route, the trace route or both.
    A route that did not run leaves its keys out; the Schmidt index comes from
    the Schmidt route if it ran, else after the trace route's numbers."""

    TEXT_COLUMN: ClassVar[int] = 19
    command: str = field(default="enumber", init=False, metadata=_HIDDEN)
    method: str
    schmidt_route: float | None = _optional()
    schmidt_index: int | None = _optional()
    upper_bound: float | None = _optional()
    trace_route: float | None = _optional()
    fourth_moment: float | None = _optional()
    trace_schmidt_index: int | None = _optional(key="schmidt_index")
    route_difference: float | None = _optional()

    @property
    def index(self) -> int:
        return self.trace_schmidt_index if self.schmidt_index is None else self.schmidt_index


@dataclass(frozen=True)
class FactorReport:
    """The factorization verdict, its residual and, if it factors, the local parts."""

    TEXT_COLUMN: ClassVar[int] = 19
    command: str = field(default="factor", init=False, metadata=_HIDDEN)
    factorized: bool = field(
        metadata={"label": "verdict", "text": lambda f: "factorized" if f else "entangled"}
    )
    method: str
    max_residual: float
    residual_tolerance: float
    local_left: tuple[complex, ...] | None
    local_right: tuple[complex, ...] | None


@dataclass(frozen=True)
class DemoReport:
    """The checks and notes of one or more worked examples."""

    command: str = field(default="demo", init=False, metadata=_HIDDEN)
    results: tuple[DemoResult, ...] = field(metadata={"lines": _demo_lines})
    passed: bool = field(metadata=_HIDDEN)


def build_analysis_report(
    state: BipartiteState, residual_tol: float = RESIDUAL_TOL, rank_tol: float = RANK_TOL
) -> AnalysisReport:
    """Run the factor test and both entanglement-number routes on a state.

    The trace route gives only its number and fourth moment, which need no
    eigensolve; the index and weights come from the Schmidt route.
    """
    verdict = factor_test(state, residual_tol=residual_tol, rank_tol=rank_tol)
    schmidt_report = entanglement_number_schmidt(state, rank_tol=rank_tol)
    trace_number, fourth_moment = _trace_number(state.coefficients)
    return AnalysisReport(
        dims=(state.dim_left, state.dim_right),
        verdict="factorized" if verdict.factorized else "entangled",
        entanglement_number=round_sig(schmidt_report.entanglement_number),
        entanglement_number_schmidt=round_sig(schmidt_report.entanglement_number),
        entanglement_number_trace=round_sig(trace_number),
        route_difference=round_sig(abs(schmidt_report.entanglement_number - trace_number)),
        schmidt_index=schmidt_report.schmidt_index,
        distribution=_reals(schmidt_report.distribution),
        fourth_moment=round_sig(fourth_moment),
        upper_bound=round_sig(schmidt_report.upper_bound),
        maximal=schmidt_report.maximal,
        factor_method=verdict.method,
        max_residual=round_sig(verdict.max_residual),
        local_left=_complexes(verdict.local_left),
        local_right=_complexes(verdict.local_right),
        residual_tolerance=round_sig(residual_tol),
        rank_tolerance=round_sig(rank_tol),
    )


def build_schmidt_report(state: BipartiteState, rank_tol: float = RANK_TOL) -> SchmidtReport:
    decomposition = schmidt_decompose(state, rank_tol=rank_tol)
    return SchmidtReport(
        dims=(state.dim_left, state.dim_right),
        index=decomposition.index,
        coefficients=_reals(decomposition.coefficients),
        distribution=_reals(decomposition.weights),
        left_states=tuple(_complexes(v) for v in decomposition.left_states),
        right_states=tuple(_complexes(v) for v in decomposition.right_states),
    )


def build_enumber_report(
    state: BipartiteState, method: str = "both", rank_tol: float = RANK_TOL
) -> EnumberReport:
    """The entanglement number by ``method``: "schmidt", "trace" or "both".

    Only ``trace`` takes the Schmidt index from the trace route, which costs
    that route's eigensolve; ``both`` needs just its number and fourth moment.
    """
    if method not in ("schmidt", "trace", "both"):
        raise ValueError(f"unknown method {method!r}; choose schmidt, trace or both")
    values = {}
    if method == "trace":
        report = entanglement_number_trace(state, rank_tol=rank_tol)
        trace_number, fourth_moment = report.entanglement_number, report.fourth_moment
        values["trace_schmidt_index"] = report.schmidt_index
    else:
        report = entanglement_number_schmidt(state, rank_tol=rank_tol)
        values["schmidt_route"] = round_sig(report.entanglement_number)
        values["schmidt_index"] = report.schmidt_index
        values["upper_bound"] = round_sig(report.upper_bound)
        if method == "schmidt":
            return EnumberReport(method=method, **values)
        trace_number, fourth_moment = _trace_number(state.coefficients)
        # From the unrounded numbers, as in build_analysis_report.
        values["route_difference"] = round_sig(abs(report.entanglement_number - trace_number))
    values["trace_route"] = round_sig(trace_number)
    values["fourth_moment"] = round_sig(fourth_moment)
    return EnumberReport(method=method, **values)


def build_factor_report(
    state: BipartiteState, residual_tol: float = RESIDUAL_TOL, rank_tol: float = RANK_TOL
) -> FactorReport:
    verdict = factor_test(state, residual_tol=residual_tol, rank_tol=rank_tol)
    return FactorReport(
        factorized=verdict.factorized,
        method=verdict.method,
        max_residual=round_sig(verdict.max_residual),
        residual_tolerance=round_sig(residual_tol),
        local_left=_complexes(verdict.local_left),
        local_right=_complexes(verdict.local_right),
    )


def build_demo_report(name: str, seed: int = 0, dim: int = 2) -> DemoReport:
    """Run the named demo, or every demo for ``"all"``."""
    names = demo_names() if name == "all" else (name,)
    results = tuple(run_demo(n, seed=seed, dim=dim) for n in names)
    return DemoReport(results=results, passed=all(result.passed for result in results))


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def _to_json(value):
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, complex):
        return complex_to_pair(value)
    if is_dataclass(value):
        return report_to_dict(value)
    return value


def _from_json(value):
    # The inverse of _to_json on AnalysisReport's fields: a list becomes a
    # tuple, and a list inside it is a complex [re, im] pair.
    if isinstance(value, list):
        return tuple(pair_to_complex(v) if isinstance(v, list) else v for v in value)
    return value


def report_to_dict(report) -> dict:
    """The JSON document of any report (or of a result nested in one)."""
    return {
        _key(f): _to_json(getattr(report, f.name))
        for f in fields(report)
        if getattr(report, f.name) is not None or not f.metadata.get("omit_none")
    }


def report_from_dict(data: dict) -> AnalysisReport:
    return AnalysisReport(**{f.name: _from_json(data[_key(f)]) for f in fields(AnalysisReport)})


def emit_machine(report) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def parse_machine(text: str) -> AnalysisReport:
    return report_from_dict(json.loads(text))


def _text_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.{TEXT_DIGITS}g}"
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, tuple):
        return " ".join(_text_value(v) for v in value)
    return str(value)


def render_text(report) -> str:
    lines = []
    for f in sorted(fields(report), key=lambda f: f.metadata.get("last", False)):
        value = getattr(report, f.name)
        label = f.metadata.get("label", _key(f).replace("_", " "))
        if value is None or label is None:
            continue
        if "lines" in f.metadata:
            lines += f.metadata["lines"](report)
        else:
            text = f.metadata.get("text", _text_value)(value)
            lines.append(label.ljust(report.TEXT_COLUMN) + text)
    return "\n".join(lines)
