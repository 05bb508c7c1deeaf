"""Line-oriented state files holding a coefficient matrix.

Format (``#`` starts a comment, blank lines are ignored)::

    dims <m> <n>
    normalize            # optional: rescale to unit norm after reading
    dense                # followed by m lines of n complex literals
    <row 1> ... <row m>

or, instead of the dense block::

    sparse               # followed by "<i> <j> <complex>" lines, 1-based
    1 1 0.5+0.5i
    2 2 -0.5i

Complex literals are ``a+bi``, ``a-bi``, ``bi`` or ``a`` with optional
scientific notation (``1.5e-3+2e4i``); a bare ``i`` means ``1i``. NaN, inf and
literals that overflow to inf are rejected. Without the
``normalize`` directive the entries must already have unit norm within 1e-8.
"""

from __future__ import annotations

import cmath
import re

import numpy as np

from .states import UNIT_NORM_TOL, BipartiteState

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_REAL_RE = re.compile(rf"[-+]?{_NUM}\Z")
_IMAG_RE = re.compile(rf"(?P<coef>[-+]?{_NUM}|[-+])?i\Z")
_FULL_RE = re.compile(rf"(?P<re>[-+]?{_NUM})(?P<im>[-+]{_NUM}|[-+])i\Z")
_NONFINITE_RE = re.compile(r"nan|inf", re.IGNORECASE)


class StateFileError(ValueError):
    """Parse or validation failure, carrying the 1-based source line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_complex(token: str) -> complex:
    """Parse one finite complex literal; raises ValueError on malformed input
    and on NaN, inf or a value that overflows to inf (such as ``1e400``)."""
    value = _parse_literal(token)
    if not cmath.isfinite(value):
        raise ValueError(f"complex literal {token!r} is not finite (overflows to inf)")
    return value


def _parse_literal(token: str) -> complex:
    if _REAL_RE.fullmatch(token):
        return complex(float(token), 0.0)
    match = _IMAG_RE.fullmatch(token)
    if match:
        coef = match.group("coef")
        if coef is None or coef in ("+", "-"):
            value = 1.0 if coef != "-" else -1.0
        else:
            value = float(coef)
        return complex(0.0, value)
    match = _FULL_RE.fullmatch(token)
    if match:
        imag = match.group("im")
        if imag in ("+", "-"):
            imag_value = 1.0 if imag == "+" else -1.0
        else:
            imag_value = float(imag)
        return complex(float(match.group("re")), imag_value)
    if _NONFINITE_RE.search(token):
        raise ValueError(f"complex literal {token!r} is not finite")
    raise ValueError(f"malformed complex literal {token!r}")


def _meaningful_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def parse_state_file(text: str, force_normalize: bool = False) -> BipartiteState:
    """Parse the file contents into a state.

    Raises ``StateFileError`` with the offending line number on any syntax
    problem, dimension mismatch, duplicate sparse entry, or a non-unit norm
    without the ``normalize`` directive (or ``force_normalize``).
    """
    lines = list(_meaningful_lines(text))
    if not lines:
        raise StateFileError(1, "empty state file")

    cursor = 0

    def take():
        nonlocal cursor
        if cursor >= len(lines):
            last = lines[-1][0] if lines else 1
            raise StateFileError(last, "unexpected end of file")
        item = lines[cursor]
        cursor += 1
        return item

    number, header = take()
    fields = header.split()
    if len(fields) != 3 or fields[0] != "dims":
        raise StateFileError(number, "expected 'dims <m> <n>' as the first directive")
    try:
        m, n = int(fields[1]), int(fields[2])
    except ValueError:
        raise StateFileError(number, f"dims must be integers, got {fields[1]!r} {fields[2]!r}")
    if m < 1 or n < 1:
        raise StateFileError(number, "dims must be positive")

    number, tag = take()
    normalize = force_normalize
    if tag == "normalize":
        normalize = True
        number, tag = take()

    coeffs = np.zeros((m, n), dtype=complex)
    if tag == "dense":
        for i in range(m):
            number, row = take()
            tokens = row.split()
            if len(tokens) != n:
                raise StateFileError(
                    number, f"dense row {i + 1} has {len(tokens)} entries, expected {n}"
                )
            for j, token in enumerate(tokens):
                try:
                    coeffs[i, j] = parse_complex(token)
                except ValueError as exc:
                    raise StateFileError(number, str(exc))
        if cursor < len(lines):
            raise StateFileError(lines[cursor][0], "unexpected content after the dense block")
    elif tag == "sparse":
        seen = set()
        while cursor < len(lines):
            number, entry = take()
            tokens = entry.split()
            if len(tokens) != 3:
                raise StateFileError(number, "sparse entries use '<i> <j> <complex>'")
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise StateFileError(number, f"sparse indices must be integers: {entry!r}")
            if not (1 <= i <= m and 1 <= j <= n):
                raise StateFileError(number, f"sparse index ({i}, {j}) outside {m}x{n}")
            if (i, j) in seen:
                raise StateFileError(number, f"duplicate sparse entry ({i}, {j})")
            seen.add((i, j))
            try:
                coeffs[i - 1, j - 1] = parse_complex(tokens[2])
            except ValueError as exc:
                raise StateFileError(number, str(exc))
    else:
        raise StateFileError(number, f"expected 'dense' or 'sparse', got {tag!r}")

    norm = float(np.linalg.norm(coeffs))
    if normalize:
        if norm == 0.0:
            raise StateFileError(lines[-1][0], "cannot normalize an all-zero matrix")
        coeffs = coeffs / norm
    elif abs(norm * norm - 1.0) > UNIT_NORM_TOL:
        raise StateFileError(
            lines[-1][0],
            f"entries have norm {norm:.6g}, not 1; add a 'normalize' directive",
        )
    return BipartiteState(coeffs)
