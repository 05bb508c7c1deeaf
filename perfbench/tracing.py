"""In-memory spans around entkit's layer boundaries, installed from outside.

Each public function is wrapped under the name its caller imports it by (for
example ``entkit.entanglement.svd``, the binding ``schmidt_decompose`` calls),
so no source file changes. A name a later version no longer has is skipped and
simply records zero calls.

A span is ``[name, start_ns, end_ns, parent_index, op_id, info]``. Spans are
kept in memory during the run and written out once at the end; a layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _fallback(result) -> dict:
    return {"fallback": getattr(result, "method", None) == "schmidt-rank"}


def _unitarity(result) -> dict:
    defect = 0.0
    for name in ("left_vectors", "right_vectors"):
        u = getattr(result, name, None)
        if isinstance(u, np.ndarray) and u.ndim == 2 and u.shape[0] == u.shape[1]:
            defect = max(defect, float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))))
    return {"unitarity_defect": defect}


def _route_difference(result) -> dict:
    value = getattr(result, "route_difference", None)
    return {} if value is None else {"route_difference": float(value)}


def _nbytes(result) -> dict:
    # Computed from the operator's shape and dtype, not measured traffic.
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _text_bytes(args) -> dict:
    return {"bytes": len(args[0].encode("utf-8"))} if args and isinstance(args[0], str) else {}


# (module, attribute, span name, info from the result, info from the arguments)
WRAPS = [
    ("entkit.cli", "main", "cli.main", None, None),
    ("entkit.cli", "parse_state_file", "statefile.parse", None, _text_bytes),
    ("entkit.cli", "build_analysis_report", "reporting.build", _route_difference, None),
    ("entkit.cli", "render_text", "reporting.render", None, None),
    ("entkit.cli", "emit_machine", "reporting.render", None, None),
    ("entkit.cli", "factor_test", "entanglement.factor", _fallback, None),
    ("entkit.cli", "schmidt_decompose", "entanglement.schmidt", None, None),
    ("entkit.cli", "entanglement_number_schmidt", "entanglement.schmidt", None, None),
    ("entkit.cli", "entanglement_number_trace", "entanglement.trace", None, None),
    ("entkit.cli", "run_demo", "demos.run_demo", None, None),
    ("entkit.reporting", "build_analysis_report", "reporting.build", _route_difference, None),
    ("entkit.reporting", "factor_test", "entanglement.factor", _fallback, None),
    ("entkit.reporting", "entanglement_number_schmidt", "entanglement.schmidt", None, None),
    ("entkit.reporting", "entanglement_number_trace", "entanglement.trace", None, None),
    ("entkit.entanglement", "schmidt_decompose", "entanglement.schmidt", None, None),
    ("entkit.entanglement", "svd", "linalg.svd", _unitarity, None),
    ("entkit.entanglement", "hermitian_eigen", "linalg.eigen", None, None),
    ("entkit.linalg", "hermitian_eigen", "linalg.eigen", None, None),
    ("entkit.states", "BipartiteState.__post_init__", "states.validate", None, None),
    ("entkit.scenario", "embed_left", "states.embed", _nbytes, None),
    ("entkit.scenario", "embed_right", "states.embed", _nbytes, None),
    ("entkit.scenario", "probability", "states.probability", None, None),
    ("entkit.scenario", "collapse", "states.collapse", None, None),
    ("entkit.scenario", "singlet", "states.construct", None, None),
    ("entkit.scenario", "tensor_state", "states.construct", None, None),
    ("entkit.demos", "run_demo", "demos.run_demo", None, None),
    ("entkit.demos", "run_entangled_scenario", "scenario.run", None, None),
    ("entkit.demos", "run_product_scenario", "scenario.run", None, None),
    ("entkit.demos", "embed_left", "states.embed", _nbytes, None),
    ("entkit.demos", "probability", "states.probability", None, None),
    ("entkit.demos", "singlet", "states.construct", None, None),
]


class Tracer:
    """Records spans of the op in progress; calls outside an op pass straight through."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name, from_result, from_args in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, leaf, self._wrap(original, span_name, from_result, from_args))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def _wrap(self, original, span_name, from_result, from_args):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, 0, 0, parent, tracer.op_id, {}]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if from_args is not None:
                span[5].update(from_args(args))
            if from_result is not None:
                span[5].update(from_result(result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_totals(self, op_ids=None) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, and merged info.

        ``op_ids`` restricts the totals to spans of those ops. Info values
        that are flags or byte counts are summed; others keep their maximum.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "info": {}})
        for index, (name, start, end, _parent, op, info) in enumerate(self.spans):
            if op_ids is not None and op not in op_ids:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
            for key, value in info.items():
                if isinstance(value, bool) or key == "bytes":
                    entry["info"][key] = entry["info"].get(key, 0) + int(value)
                else:
                    entry["info"][key] = max(entry["info"].get(key, 0.0), value)
        return totals
