"""Library lines that no test runs.

Runs pytest on ``tests`` and ``bench`` in this process, under
``sys.settrace`` and ``threading.settrace`` limited to ``src/ramanasdp``,
and records each line executed there.  Then it prints, per module, every
executable line that no test ran, with its text, and the total.  A line
is executable when an instruction starts on it, as the code objects'
``co_lines`` say.  A test that fails under tracing (a test that bounds
the memory it holds can, as tracing adds to it) is reported by pytest,
and the walk goes on.

    python3 tools/unreached.py

It has no options and takes about 40 s on a 2-core Xeon.  Not a test:
pytest collects only ``tests`` and ``bench``.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ramanasdp"
sys.path[:0] = [str(ROOT / "src")]

import pytest  # noqa: E402


def executable_lines(path: Path) -> set[int]:
    """The lines on which an instruction of the module or of any code
    object nested in it starts."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file of the package."""
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran[frame.f_code.co_filename]
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "bench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_traced()
    if code:
        print(f"\npytest exited with {code}; the lines below count every test that ran")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        if not missed:
            continue
        total += len(missed)
        text = path.read_text().splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"\ntotal: {total} lines that no test runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
