"""Byte-for-byte CLI output on every sample graph, against a stored capture.

Every command runs in-process on every ``graphs/*.json`` document, in both
output formats.  The commands whose output depends on the edge order
(bitstrings, activity strings, the dual's ``edge_order``) also run with
``--order`` reversing each document's edges.  Standard output and the exit
code must equal the capture in ``golden_cli.json``.  Only timings are masked: the ``elapsed_ms`` values
of JSON payloads and the ``ms`` column of the ``verify`` table (which
``compute --method all`` also prints).

Regenerate the capture, only when an output change is intended, with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from ribbonpoly import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
FIXTURES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "graphs").glob("*.json"))
COMMANDS = (
    ("compute", "--method", "statesum"),
    ("compute", "--method", "tree"),
    ("compute", "--method", "recursive"),
    ("compute", "--method", "quasitree"),
    ("compute", "--method", "all"),
    ("quasitrees",),
    ("count",),
    ("verify",),
    ("dual",),
    ("spanning-trees",),
)
ORDERED_COMMANDS = (
    ("quasitrees",),
    ("spanning-trees",),
    ("compute", "--method", "all"),
    ("count",),
    ("dual",),
)
TIMED_TEXT = {("compute", "--method", "all"), ("verify",)}

_JSON_MS = re.compile(r'"elapsed_ms": [-+0-9.eE]+')
_TEXT_MS = re.compile(r"^(\S+ +\d+ +)\d+\.\d\d +", re.M)


def _reversed_order(path: str) -> str:
    edge_count = len(json.loads((ROOT / path).read_text(encoding="utf-8"))["sigma1"])
    return ",".join(str(i) for i in range(edge_count, 0, -1))


def _cases() -> list[tuple[str, ...]]:
    plain = [
        (*command, path, "--format", fmt)
        for path in FIXTURES
        for command in COMMANDS
        for fmt in ("text", "json")
    ]
    reordered = [
        (*command, path, "--order", _reversed_order(path), "--format", fmt)
        for path in FIXTURES
        for command in ORDERED_COMMANDS
        for fmt in ("text", "json")
    ]
    return plain + reordered


def _command(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The words before the graph path."""
    return argv[: next(i for i, word in enumerate(argv) if word.endswith(".json"))]


def _run(argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    if argv[-1] == "json":
        text = _JSON_MS.sub('"elapsed_ms": "<ms>"', text)
    elif _command(argv) in TIMED_TEXT:
        text = _TEXT_MS.sub(r"\1<ms>  ", text)
    return {"exit": code, "stdout": text}


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_capture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=_key)
def test_output_matches_capture(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run(argv) == golden[_key(argv)]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    capture = {_key(argv): _run(argv) for argv in _cases()}
    GOLDEN.write_text(json.dumps(capture, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
