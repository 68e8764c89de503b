"""No public module-level function or class of qsakit is left without a caller.

A public name passes when it is referenced in ``src/qsakit`` outside its own
definition, exported by ``qsakit/__init__.py``, or named in the benchmark's
per-layer list ``bench/tracing.REPORTED`` (read from its source, not run).
"""

import ast
from pathlib import Path

import qsakit

SRC = Path(qsakit.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _reported() -> set[tuple[str, str]]:
    """``(module, name)`` for every name in ``REPORTED``."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "REPORTED":
            reported = ast.literal_eval(node.value)
            return {(module, name) for module, names in reported.items() for name in names}
    raise AssertionError(f"no REPORTED assignment in {TRACING}")


def _names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names, attributes and imported names used in ``tree`` outside ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def uncalled(sources: dict[str, str], exported: set[tuple[str, str]],
             reported: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each public def or class of ``sources`` that passes no rule."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (module, node.name) in exported | reported:
                continue
            if not any(node.name in _names(other, node) for other in trees.values()):
                out.append(f"{module}.{node.name}")
    return out


def test_every_public_function_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert {"propagator_engine", "analysis", "cli"} <= set(sources)
    exported = {(module, name) for module, names in qsakit._EXPORTS.items() for name in names}
    assert uncalled(sources, exported, _reported()) == []


def test_the_guard_finds_an_uncalled_function():
    sources = {
        "a": "def used():\n    pass\n\ndef lonely():\n    return lonely()\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\ndef traced():\n    pass\n",
    }
    assert uncalled(sources, {("b", "Kept")}, {("b", "traced")}) == ["a.lonely"]
