"""Run pytest under a line trace of ``src/hybridprec`` and list the lines it never reaches.

    PYTHONPATH=src python tests/line_coverage.py --hypothesis-seed=0 -k "not test_runtime_scaling"

Every argument goes to ``pytest.main``. A module's executable lines are the
line numbers of its compiled code objects (``co_lines``); a line counts as
reached when the trace sees it run in this process, so code that runs only in a
subprocess is not counted. Prints each unreached ``path:line`` with its source
and exits 1 if there is one; exits with pytest's status if the tests fail.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybridprec"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some bytecode of the module at ``path`` is attributed to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTrace:
    """``sys.settrace`` hook that records the lines run in files under one directory."""

    def __init__(self, root: Path):
        self.root = str(root) + "/"
        self.reached: dict[str, set[int]] = {}
        self._traced: dict[object, set[int] | None] = {}

    def _lines_for(self, code) -> set[int] | None:
        if code not in self._traced:
            path = str(Path(code.co_filename).resolve())
            self._traced[code] = (self.reached.setdefault(path, set())
                                  if path.startswith(self.root) else None)
        return self._traced[code]

    def __call__(self, frame, event, arg):
        lines = self._lines_for(frame.f_code)
        if lines is None:
            return None
        # a function's first line (``def`` or decorator) fires no line event
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def main(argv: list[str]) -> int:
    trace = LineTrace(PACKAGE)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        reached = trace.reached.get(str(path), set())
        for line in sorted(executable_lines(path) - reached):
            print(f"unreached {path.relative_to(PACKAGE.parent.parent)}:{line}: "
                  f"{source[line - 1].strip()}")
            missed += 1
    print(f"line coverage of {PACKAGE.name}: {missed} unreached line(s)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
