"""Byte-for-byte CLI output on the shipped state files and the demos.

``tests/data/golden_cli.json`` maps a case id to the exit code and stdout
that ``entkit`` gave for it. Every state file in ``states/`` runs through
``analyze``, ``factor``, ``schmidt`` and ``enumber`` (each ``--method``) in
both output formats, plus ``demo all`` and a seeded scenario demo.

Regenerate the data only for an intended output change, from the repository
root, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from entkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

COMMANDS = {
    "analyze": ["analyze"],
    "factor": ["factor"],
    "schmidt": ["schmidt"],
    "enumber-schmidt": ["enumber", "--method", "schmidt"],
    "enumber-trace": ["enumber", "--method", "trace"],
    "enumber-both": ["enumber", "--method", "both"],
}
DEMOS = {
    "demo-all": ["demo", "all"],
    "demo-scenario-seed5-dim4": ["demo", "action-at-a-distance", "--seed", "5", "--dim", "4"],
}


def cases() -> dict[str, list[str]]:
    """Case id -> argv, with state paths relative to the repository root."""
    out = {}
    for fmt in ("text", "machine"):
        for path in sorted((ROOT / "states").glob("*.state")):
            for name, command in COMMANDS.items():
                argv = ["--format", fmt, command[0], f"states/{path.name}", *command[1:]]
                out[f"{fmt}/{name}/{path.stem}"] = argv
        for name, command in DEMOS.items():
            out[f"{fmt}/{name}"] = ["--format", fmt, *command]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    argv = [str(ROOT / a) if a.startswith("states/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def record() -> None:
    data = {}
    for case_id, argv in cases().items():
        code, stdout = run(argv)
        data[case_id] = {"argv": argv, "exit": code, "stdout": stdout}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert set(_golden()) == set(cases())


@pytest.mark.parametrize("case_id", sorted(cases()))
def test_cli_output_is_byte_identical(case_id):
    expected = _golden()[case_id]
    assert expected["argv"] == cases()[case_id]
    code, stdout = run(expected["argv"])
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    sys.exit(record())
