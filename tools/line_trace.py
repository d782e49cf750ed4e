"""Statement trace of the test suite over src/hpheat.

Runs the suite in this process under pytest, with a `sys.settrace` line
tracer that starts before hpheat is first imported, so that module-level
statements count too, and prints every statement of src/hpheat that no
test runs as `file:line: text`.  Run it from anywhere as

    python tools/line_trace.py [pytest arguments]

By default it runs the configured test paths with `-q
--continue-on-collection-errors`.  It exits with pytest's status when a
test fails, else 1 when a statement is unreached and 0 when every one is
reached.  A statement is an `ast` statement whose first line carries
bytecode; it counts as reached when that line runs.  The suite takes
about twice as long as untraced.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hpheat"
SUITE_ARGS = ["-q", "--continue-on-collection-errors"]


def code_lines(code: types.CodeType) -> set[int]:
    """Lines that carry bytecode in code and the code nested in it."""
    lines: set[int] = set()
    codes = [code]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def statements(path: Path) -> dict[int, str]:
    """First line -> stripped source line of each statement of the file
    whose first line carries bytecode."""
    source = path.read_text()
    lines = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return {
        node.lineno: text[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt) and node.lineno in lines
    }


class LineTrace:
    """pytest plugin: records the lines run in src/hpheat from the moment
    it is created, and reports the statements never run.

    A frame stops reporting lines once every statement of its code object
    has run, and a call of such code is not traced at all, which keeps hot
    loops near their untraced speed.  A call also marks its first line,
    the def line, which no line event reports.
    """

    def __init__(self) -> None:
        # filename -> (lines reached, statements), or None outside
        # src/hpheat.
        self.files: dict[str, tuple[set[int], dict[int, str]] | None] = {}
        # code object -> statement lines of it not yet reached.
        self.pending: dict[types.CodeType, set[int]] = {}
        sys.settrace(self._call)

    def _file(self, filename: str) -> tuple[set[int], dict[int, str]] | None:
        path = Path(os.path.realpath(filename))
        entry = None
        if path.parent == PACKAGE:
            entry = self.files.get(str(path)) or (set(), statements(path))
            self.files[str(path)] = entry
        self.files[filename] = entry
        return entry

    def _call(self, frame, event, arg):
        code = frame.f_code
        entry = self.files.get(code.co_filename, False)
        if entry is False:
            entry = self._file(code.co_filename)
        if entry is None:
            return None
        reached, stmts = entry
        pending = self.pending.get(code)
        if pending is None:
            pending = {n for *_, n in code.co_lines() if n in stmts} - reached
            self.pending[code] = pending
        reached.add(frame.f_lineno)
        pending.discard(frame.f_lineno)
        if not pending:
            return None

        def line(frame, event, arg):
            if event == "line":
                reached.add(frame.f_lineno)
                pending.discard(frame.f_lineno)
                if not pending:
                    frame.f_trace_lines = False
            return line

        return line

    def stop(self) -> None:
        sys.settrace(None)

    def unreached(self) -> list[str]:
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            reached, stmts = self.files.get(str(path)) or (set(), statements(path))
            rel = path.relative_to(ROOT)
            found += [f"{rel}:{n}: {text}" for n, text in sorted(stmts.items()) if n not in reached]
        return found

    def pytest_terminal_summary(self, terminalreporter, exitstatus, config):
        found = self.unreached()
        terminalreporter.section(f"statements of src/hpheat no test runs: {len(found)}")
        for entry in found:
            terminalreporter.line(entry)


def main(argv: list[str]) -> int:
    if "hpheat" in sys.modules:
        raise RuntimeError("hpheat was imported before the trace started")
    os.chdir(ROOT)
    trace = LineTrace()
    try:
        status = pytest.main(argv or SUITE_ARGS, plugins=[trace])
    finally:
        trace.stop()
    if status != 0:
        return int(status)
    return 1 if trace.unreached() else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
