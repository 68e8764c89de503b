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

No optional parameter of a public function or method is left unset either:
each is passed, by keyword or by position, by some call under ``src/qsakit``
or ``bench/`` (tests do not count), or it is listed in :data:`KEPT_OPTIONS`.
"""

import ast
from pathlib import Path

import qsakit

SRC = Path(qsakit.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"

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

#: ``(module, "name", parameter)`` optional parameters that no call under
#: ``src/`` or ``bench/`` sets, kept with why.
KEPT_OPTIONS = {
    ("propagator_engine", "make_attachment", "direction"):
        "make_attachment exists only because bench/tracing.REPORTED names it",
    ("propagator_engine", "make_swapper", "direction"):
        "make_swapper exists only because bench/tracing.REPORTED names it",
    ("analysis", "pulse_product", "offsets"):
        "the tests' reference product of a perturbed pulse program",
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


def _optional(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each optional parameter of ``fn``.

    The position of a method's parameter does not count ``self`` or ``cls``;
    a keyword-only parameter has none.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    bound = method and not any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
    first = len(positional) - len(args.defaults)
    out = [(a.arg, k - bound) for k, a in enumerate(positional) if k >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _calls(tree: ast.AST) -> list[tuple[str, ast.Call, tuple]]:
    """``(callee, call, enclosing defs)`` of each ``f(...)`` or ``x.f(...)`` call in ``tree``."""
    out, stack = [], [(tree, ())]
    while stack:
        node, within = stack.pop()
        if isinstance(node, ast.FunctionDef):
            within += (node,)
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee is not None:
                out.append((callee, node, within))
        stack.extend((child, within) for child in ast.iter_child_nodes(node))
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position``; ``*`` and ``**`` may pass any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(k == position or isinstance(a, ast.Starred) for k, a in enumerate(call.args))


def unset_options(sources: dict[str, str], callers: dict[str, str], kept) -> list[str]:
    """``module.name(parameter)`` of each optional parameter of a public def or method of
    ``sources`` that no call passes and ``kept`` does not list.

    A call is looked for in ``sources`` and ``callers``, outside the def itself, by
    the def's name alone: ``f(...)`` or ``x.f(...)``.  ``kept`` holds
    ``(module, "name", parameter)``, a method named ``Class.method``.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = [
        call for tree in [*trees.values(), *map(ast.parse, callers.values())]
        for call in _calls(tree)
    ]
    out = []
    for module, tree in trees.items():
        for node in _public(tree.body):
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, False)]
            else:
                defs = [
                    (f"{node.name}.{method.name}", method, True)
                    for method in _public(node.body) if isinstance(method, ast.FunctionDef)
                ]
            for name, fn, method in defs:
                for param, position in _optional(fn, method):
                    if (module, name, param) in kept:
                        continue
                    if not any(
                        callee == fn.name and fn not in within and _passes(call, param, position)
                        for callee, call, within in calls
                    ):
                        out.append(f"{module}.{name}({param})")
    return out


def test_every_optional_parameter_is_set():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = {p.stem: p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))}
    assert {"run", "inputs"} <= set(callers)
    assert unset_options(sources, callers, KEPT_OPTIONS) == []
    # every exemption is needed
    assert sorted(unset_options(sources, callers, {})) == sorted(
        f"{module}.{name}({param})" for module, name, param in KEPT_OPTIONS
    )


def test_the_guard_finds_an_unset_option():
    sources = {
        "a": (
            "def f(x, by_keyword=1, by_position=2, kept=3, lonely=4, *, flag=False):\n"
            "    return f(x, lonely=lonely)\n"
            "class Box:\n"
            "    def put(self, item, where=None):\n        pass\n"
            "    @classmethod\n    def make(cls, size=0):\n        return cls()\n"
            "    @staticmethod\n    def empty(size=0):\n        pass\n"
        ),
    }
    callers = {
        "b": (
            "from a import Box, f\n\n"
            "f(0, by_keyword=1)\nf(0, 1, 2)\nf(0, flag=True)\n"
            "Box.make().put(1, 'top')\nBox.empty(3)\n"
        ),
    }
    kept = {("a", "f", "kept")}
    assert unset_options(sources, callers, kept) == ["a.f(lonely)", "a.Box.make(size)"]
    # a call of the def from its own body does not count, a call from outside does
    callers["b"] += "f(0, lonely=5)\nBox.make(2)\n"
    assert unset_options(sources, callers, kept) == []
    assert unset_options(sources, callers, set()) == ["a.f(kept)"]
    # a keyword-only option is not set by position, and a method's position skips self
    callers["b"] = callers["b"].replace("f(0, flag=True)", "f(0, 1, 2, 3, 4, True)")
    callers["b"] = callers["b"].replace("put(1, 'top')", "put('top')")
    assert unset_options(sources, callers, kept) == ["a.f(flag)", "a.Box.put(where)"]
