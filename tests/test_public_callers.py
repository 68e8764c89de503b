"""No public function, class or method of qsakit is left without a caller.

A module-level name passes when it is referenced in ``src/qsakit`` outside its
own definition, exported by ``qsakit/__init__.py``, or named in the
benchmark's per-layer list ``bench/tracing.REPORTED`` (read from its source,
not run).  A public method of a public class passes when it is called as
``x.method(...)`` or referenced as ``Class.method`` in ``src/qsakit`` outside
its own definition (a property when it is read as ``x.method``), or
``Class.method`` is in ``REPORTED`` or in :data:`KEPT_METHODS`; exporting the
class does not cover its methods, and reading an attribute of the same name,
such as ``args.path``, does not cover a method.
"""

import ast
from pathlib import Path

import qsakit

SRC = Path(qsakit.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

#: ``(module, "Class.method")`` kept with no caller under ``src/``, with why.
KEPT_METHODS = {
    ("anyon_logic", "LoopCnot.composite_apply"):
        "the exact CNOT from three commuting logical rotations, which the "
        "tests check against the braid route",
    ("pauli_core", "PauliString.adjoint"):
        "the Hermitian adjoint of the exported Pauli type, pinned against the kron oracle",
    ("schedule_compiler", "ConnectivityGraph.complete"):
        "the all-to-all graph of the exported graph type; tests build their "
        "complete couplings with it",
    ("schedule_compiler", "ConnectivityGraph.path"):
        "the line graph of the exported graph type; tests build their path "
        "couplings with it",
}


def _reported() -> set[tuple[str, str]]:
    """``(module, name)`` for every name in ``REPORTED``."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "REPORTED":
            reported = ast.literal_eval(node.value)
            return {(module, name) for module, names in reported.items() for name in names}
    raise AssertionError(f"no REPORTED assignment in {TRACING}")


def _names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """What ``tree`` uses outside ``skip``.

    Names, imported names and attributes read appear as themselves; an
    attribute called as ``x.attr(...)`` also as ``attr()``, and one read as
    ``Name.attr`` also as ``Name.attr``.
    """
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            if isinstance(node.value, ast.Name):
                used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            used.add(f"{node.func.attr}()")
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public(nodes) -> list:
    return [
        node for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _uses(cls: ast.ClassDef, method: ast.FunctionDef) -> set[str]:
    """The uses of ``_names`` that count for ``method`` of ``cls``."""
    uses = {f"{method.name}()", f"{cls.name}.{method.name}"}
    if any(ast.unparse(d) == "property" for d in method.decorator_list):
        uses.add(method.name)
    return uses


def uncalled(sources: dict[str, str], exported: set[tuple[str, str]],
             reported: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each public def, class or method of ``sources`` that passes no rule.

    ``exported`` names module-level defs and classes; ``reported`` also names
    methods as ``Class.method``.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    out = []
    for module, tree in trees.items():
        for node in _public(tree.body):
            candidates = [(node.name, node, {node.name}, exported | reported)]
            if isinstance(node, ast.ClassDef):
                candidates += [
                    (f"{node.name}.{method.name}", method, _uses(node, method), reported)
                    for method in _public(node.body) if isinstance(method, ast.FunctionDef)
                ]
            for name, defn, uses, kept in candidates:
                if (module, name) in kept:
                    continue
                if not any(uses & _names(other, defn) for other in trees.values()):
                    out.append(f"{module}.{name}")
    return out


def test_every_public_function_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert {"propagator_engine", "analysis", "cli"} <= set(sources)
    exported = {(module, name) for module, names in qsakit._EXPORTS.items() for name in names}
    assert uncalled(sources, exported, _reported() | set(KEPT_METHODS)) == []


def test_the_guard_finds_an_uncalled_function():
    sources = {
        "a": "def used():\n    pass\n\ndef lonely():\n    return lonely()\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\ndef traced():\n    pass\n",
    }
    assert uncalled(sources, {("b", "Kept")}, {("b", "traced")}) == ["a.lonely"]


def test_the_guard_finds_an_uncalled_method():
    sources = {
        "a": (
            "class Box:\n"
            "    def used(self):\n        return self.lonely()\n"
            "    def lonely(self):\n        return self.lonely()\n"
            "    def named(self):\n        pass\n"
            "    @property\n    def size(self):\n        return 0\n"
            "    def traced(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
        ),
        "b": (
            "from .a import Box\n\n"
            "def f(box):\n    return box.used(), box.size, Box.named\n"
        ),
    }
    exported, reported = {("a", "Box"), ("b", "f")}, {("a", "Box.traced")}
    assert uncalled(sources, exported, reported) == []
    # reading an attribute of the same name, like ``args.lonely``, is no call
    sources["a"] = sources["a"].replace("return self.lonely()\n", "return self.lonely\n", 1)
    assert uncalled(sources, exported, reported) == ["a.Box.lonely"]
    # a method read off another name than its class is no reference either
    sources["b"] = sources["b"].replace("Box.named", "box.named")
    assert uncalled(sources, exported, reported) == ["a.Box.lonely", "a.Box.named"]
