"""List the lines of ``src/qsakit`` that the test suite never runs.

Run it from a checkout with ``python tools/unrun_lines.py``.  It runs
``pytest tests`` in this process under ``sys.settrace`` (and
``threading.settrace``), recording line events only in frames whose code
lives under ``src/qsakit``, then prints, module by module, each executable
line that never ran, with its text.  A line is executable when a code
object of its module maps an instruction to it (``co_lines``); ``def`` and
decorator lines and docstrings are left out, since they run on import or
hold no instruction.  Code that a test runs in a child process is not
seen and counts as unrun, so the suite also runs ``python -m qsakit``
in-process through ``runpy``.

It needs only the standard library next to pytest, and it is not part of
the test suite.  A run takes about 100 s on a 2-CPU machine, more than twice
the untraced suite, lists no line and ends with pytest exit code 0: the
planner's hub-family search is bounded by counted calls, not wall time, so
the tracer's slowdown fails no case of it.  The script itself exits 0
whatever pytest's verdict, and the listing is complete either way.  Edit no
module of ``src/qsakit`` during a run: lines are recorded as imported and
listed as read at the end.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsakit"


def _skipped_lines(source: str) -> set[int]:
    """``def``/``class`` header lines, decorator lines and docstring lines of ``source``."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skipped.add(node.lineno)
            for decorator in node.decorator_list:
                skipped.update(range(decorator.lineno, decorator.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    return skipped


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """Lines of ``source`` that its code objects map an instruction to, less
    :func:`_skipped_lines`."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines - _skipped_lines(source)


def line_tracer(prefix: str, ran: dict[str, set[int]]):
    """A ``sys.settrace`` function that adds to ``ran[filename]`` each line run
    in a file whose path starts with ``prefix``; other frames are not traced."""
    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return global_


def unrun_lines(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """``(line number, text)`` of each executable line of ``path`` not in ``ran``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    return [(n, text[n - 1].strip()) for n in sorted(executable_lines(source, str(path)) - ran)]


def main() -> int:
    import pytest

    os.chdir(ROOT)
    ran: dict[str, set[int]] = {}
    tracer = line_tracer(str(PACKAGE), ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        verdict = pytest.main(["tests", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unrun_lines(path, ran.get(str(path), set()))
        total += len(lines)
        print(f"\n{path.relative_to(ROOT)}: {len(lines)} unrun")
        for number, text in lines:
            print(f"  {number:5d}  {text}")
    print(f"\n{total} unrun lines; pytest exit code {int(verdict)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
