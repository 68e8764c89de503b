"""The line lister of ``tools/unrun_lines.py``, on a two-function source."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"

SOURCE = '''\
"""A module docstring."""
import functools


@functools.cache
def ran(x):
    """Runs."""
    y = x + 1
    return y


def never(x):
    if x:
        return 1
    return 2
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("unrun_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_lister_names_each_line_of_the_function_that_never_ran(tmp_path):
    tool = load_tool()
    # def, decorator and docstring lines are not listed
    assert tool.executable_lines(SOURCE) == {2, 8, 9, 13, 14, 15}
    path = tmp_path / "two.py"
    path.write_text(SOURCE)
    ran = {}
    namespace = {}
    previous = sys.gettrace()
    sys.settrace(tool.line_tracer(str(tmp_path), ran))
    try:
        exec(compile(SOURCE, str(path), "exec"), namespace)
        namespace["ran"](1)
    finally:
        sys.settrace(previous)
    assert {2, 8, 9} <= ran[str(path)]
    assert tool.unrun_lines(path, ran[str(path)]) == [
        (13, "if x:"), (14, "return 1"), (15, "return 2"),
    ]
