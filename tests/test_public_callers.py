"""No public function, class or method of qsakit is left without a caller.

A module-level name passes when it is referenced in ``src/qsakit`` outside its
own definition, exported by ``qsakit/__init__.py``, or named in the
benchmark's per-layer list ``bench/tracing.REPORTED`` (read from its source,
not run).  A public method of a public class passes when ``Class.method`` is
in ``REPORTED`` or in :data:`KEPT_METHODS`, or when it has a use outside its
own definition; exporting the class does not cover its methods.

* A method whose name only one public class defines is used when it is called
  as ``x.method(...)`` or referenced as ``Class.method`` in ``src/qsakit`` (a
  property when it is read as ``x.method``); reading an attribute of the same
  name, such as ``args.path``, does not cover a method.
* A method whose name two or more public classes define, such as ``to_dict``,
  is used by ``r.method`` in ``src/qsakit`` or ``bench/`` only when the
  receiver ``r`` resolves to its class (see :class:`_Receivers`).  A use
  whose receiver does not resolve counts for no class.

No optional parameter of a public function or method is left unset either:
each is passed, by keyword or by position, by some call under ``src/qsakit``
or ``bench/`` (tests do not count), or it is listed in :data:`KEPT_OPTIONS`.
Every entry of either list must still be needed.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import qsakit

SRC = Path(qsakit.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"

#: ``(module, "Class.method")`` kept with no use the guard finds, with why.
KEPT_METHODS = {
    ("anyon_logic", "LoopCnot.composite_apply"):
        "the exact CNOT on a logical frame of both holes from three commuting "
        "logical rotations, which the tests check against the conftest code state",
    ("pauli_core", "PauliString.adjoint"):
        "the Hermitian adjoint of the exported Pauli type, pinned against the kron oracle",
    ("pauli_core", "PauliString.is_identity"):
        "WeightedPauliSum.is_identity calls it on self.terms[0][1], a receiver "
        "the guard does not type",
    ("propagator_engine", "AttachmentSpec.to_dict"):
        "QsaSchedule.to_dict calls it on the items of layers, which the guard does not type",
    ("propagator_engine", "SwapperSpec.to_dict"):
        "QsaSchedule.to_dict calls it on the items of final_swappers, which the "
        "guard does not type",
    ("schedule_compiler", "ConnectivityGraph.complete"):
        "the all-to-all graph of the exported graph type; tests build their "
        "complete couplings with it",
    ("schedule_compiler", "ConnectivityGraph.path"):
        "the line graph of the exported graph type; tests build their path "
        "couplings with it",
    ("toric_lattice", "PlaquetteSet.hamiltonian"):
        "DigitalSequence.hamiltonian calls it on self.lattice, which the guard does not type",
}

#: ``(module, "name", parameter)`` optional parameters that no call under
#: ``src/`` or ``bench/`` sets, kept with why.
KEPT_OPTIONS = {
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


def _annotated(node) -> set[str]:
    """The type names of an annotation: ``C``, ``"C"``, ``m.C`` or a ``|`` union of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotated(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotated(node.left) | _annotated(node.right)
    return set()


def _own(body: list) -> list:
    """The nodes of ``body`` outside any def, class or lambda it holds, in source order."""
    out, stack = [], list(body)
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))


class _Receivers:
    """The classes of ``sources`` and the class each receiver ``r`` of ``r.name`` resolves to.

    ``r`` resolves to class ``C`` when it is ``C`` or ``module.C``; the first
    parameter of a method of ``C`` or of a class ``C`` derives from; a
    parameter annotated ``C`` or a union holding ``C``; a name the same
    function assigns from ``C(...)``, ``C.<classmethod>(...)`` or a call of a
    function annotated to return ``C``; or such a call itself.
    """

    def __init__(self, sources: list[ast.Module], callers: list[ast.Module]):
        defs = [node for tree in sources for node in tree.body if isinstance(node, ast.ClassDef)]
        self.classes = {node.name for node in defs}
        bases = {node.name: set().union(*map(_annotated, node.bases)) & self.classes for node in defs}
        self.ancestors = {}
        for name in self.classes:
            found, todo = set(), [name]
            while todo:
                for base in bases[todo.pop()] - found:
                    found.add(base)
                    todo.append(base)
            self.ancestors[name] = found
        self.classmethods = {
            (node.name, fn.name) for node in defs for fn in node.body
            if isinstance(fn, ast.FunctionDef)
            and any(ast.unparse(d) == "classmethod" for d in fn.decorator_list)
        }
        self.returns = {
            fn.name: _annotated(fn.returns) & self.classes
            for tree in [*sources, *callers] for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.returns is not None
        }

    def of(self, expr: ast.AST, env: dict) -> set[str]:
        """The classes ``expr`` is, or is an instance of; empty when it does not resolve."""
        if isinstance(expr, ast.Name):
            return env[expr.id] if expr.id in env else {expr.id} & self.classes
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            return {expr.attr} & self.classes
        if not isinstance(expr, ast.Call):
            return set()
        func = expr.func
        if isinstance(func, ast.Attribute):
            owners = self.of(func.value, env)
            if owners:
                return {c for c in owners if (c, func.attr) in self.classmethods}
            if not isinstance(func.value, ast.Name) or func.value.id in env:
                return set()
            name = func.attr  # module.C(...) or module.f(...)
        elif isinstance(func, ast.Name) and func.id not in env:
            name = func.id
        else:
            return set()
        return ({name} & self.classes) or self.returns.get(name, set())

    def _scope(self, fn: ast.FunctionDef | ast.Module, outer: dict, owner: str | None) -> dict:
        """``outer`` with the names ``fn`` binds: its parameters, then its assignments."""
        env = dict(outer)
        if isinstance(fn, ast.FunctionDef):
            positional = fn.args.posonlyargs + fn.args.args
            for arg in positional + fn.args.kwonlyargs:
                env[arg.arg] = _annotated(arg.annotation) & self.classes
            static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
            if owner is not None and positional and not static:
                env[positional[0].arg] = {c for c in self.classes if owner in self.ancestors[c] | {c}}
        for node in _own(fn.body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if isinstance(target, ast.Name):
                env[target.id] = self.of(value, env)
        return env

    def uses(self, tree: ast.Module) -> list[tuple[str, set[str], tuple]]:
        """``(name, classes, enclosing defs)`` of each ``r.name`` in ``tree`` whose ``r`` resolves.

        ``classes`` holds the receiver's classes and every class they derive from.
        """
        out = []

        def visit(node, env, owner, within):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, env, child.name, within)
                elif isinstance(child, ast.FunctionDef):
                    visit(child, self._scope(child, env, owner), None, within + (child,))
                else:
                    if isinstance(child, ast.Attribute):
                        found = self.of(child.value, env)
                        if found:
                            found = found.union(*(self.ancestors[c] for c in found))
                            out.append((child.attr, found, within))
                    visit(child, env, None, within)

        visit(tree, self._scope(tree, {}, None), None, ())
        return out


def uncalled(sources: dict[str, str], callers: dict[str, str],
             exported: set[tuple[str, str]], reported: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each public def, class or method of ``sources`` that passes no rule.

    ``exported`` names module-level defs and classes; ``reported`` also names
    methods as ``Class.method``.  A method whose name two or more public
    classes define counts only the uses ``r.name`` in ``sources`` and
    ``callers`` whose receiver ``r`` resolves to its class (see
    :class:`_Receivers`); any other method counts the uses of ``_names`` in
    ``sources``.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    caller_trees = [ast.parse(text) for text in callers.values()]
    receivers = _Receivers(list(trees.values()), caller_trees)
    typed = [use for tree in [*trees.values(), *caller_trees] for use in receivers.uses(tree)]
    defined = Counter(
        method.name for tree in trees.values() for node in _public(tree.body)
        if isinstance(node, ast.ClassDef)
        for method in _public(node.body) if isinstance(method, ast.FunctionDef)
    )
    out = []
    for module, tree in trees.items():
        for node in _public(tree.body):
            candidates = [(node.name, node, None, exported | reported)]
            if isinstance(node, ast.ClassDef):
                candidates += [
                    (f"{node.name}.{method.name}", method, node.name, reported)
                    for method in _public(node.body) if isinstance(method, ast.FunctionDef)
                ]
            for name, defn, cls, kept in candidates:
                if (module, name) in kept:
                    continue
                if cls is not None and defined[defn.name] > 1:
                    used = any(
                        attr == defn.name and cls in classes and defn not in within
                        for attr, classes, within in typed
                    )
                else:
                    uses = {name} if cls is None else _uses(node, defn)
                    used = any(uses & _names(other, defn) for other in trees.values())
                if not used:
                    out.append(f"{module}.{name}")
    return out


def stale_methods(sources: dict[str, str], callers: dict[str, str],
                  exported: set[tuple[str, str]], reported: set[tuple[str, str]], kept) -> list[str]:
    """``module.Class.method`` of each entry of ``kept`` that :func:`uncalled` passes without it."""
    flagged = set(uncalled(sources, callers, exported, reported))
    return sorted(f"{module}.{name}" for module, name in kept if f"{module}.{name}" not in flagged)


def test_every_public_function_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = {p.stem: p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))}
    assert {"propagator_engine", "analysis", "cli"} <= set(sources)
    assert {"run", "inputs"} <= set(callers)
    exported = {(module, name) for module, names in qsakit._EXPORTS.items() for name in names}
    assert uncalled(sources, callers, exported, _reported() | set(KEPT_METHODS)) == []
    # every exemption is needed
    assert stale_methods(sources, callers, exported, _reported(), KEPT_METHODS) == []


def test_the_guard_finds_an_uncalled_function():
    sources = {
        "a": "def used():\n    pass\n\ndef lonely():\n    return lonely()\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\ndef traced():\n    pass\n",
    }
    assert uncalled(sources, {}, {("b", "Kept")}, {("b", "traced")}) == ["a.lonely"]


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
    assert uncalled(sources, {}, exported, reported) == []
    # reading an attribute of the same name, like ``args.lonely``, is no call
    sources["a"] = sources["a"].replace("return self.lonely()\n", "return self.lonely\n", 1)
    assert uncalled(sources, {}, exported, reported) == ["a.Box.lonely"]
    # a method read off another name than its class is no reference either
    sources["b"] = sources["b"].replace("Box.named", "box.named")
    assert uncalled(sources, {}, exported, reported) == ["a.Box.lonely", "a.Box.named"]


#: A module whose classes share the method name ``tag``; ``{use}`` is the body of ``Box.use``.
SHARED = (
    "class Box(_Shelf):\n"
    "    def tag(self):\n        pass\n"
    "    def use(self):\n        return {use}\n"
    "    @classmethod\n    def make(cls):\n        return cls()\n"
    "class Bag:\n"
    "    def tag(self):\n        pass\n"
    "def box_of() -> 'Box':\n    return Box()\n"
)
SHARED_KEPT = {("a", "Box"), ("a", "Bag"), ("a", "box_of"), ("b", "f")}
SHARED_REPORTED = {("a", "Box.use"), ("a", "Box.make")}


def test_the_guard_matches_a_shared_method_name_to_its_class():
    sources = {"a": SHARED.format(use="None"), "b": "def f(bag: Bag, x):\n    return bag.tag()\n"}
    # a call on a Bag does not cover Box.tag, though the name matches
    assert uncalled(sources, {}, SHARED_KEPT, SHARED_REPORTED) == ["a.Box.tag"]
    # a receiver that resolves to no class covers neither
    sources["b"] = "def f(x):\n    return x.tag()\n"
    assert uncalled(sources, {}, SHARED_KEPT, SHARED_REPORTED) == ["a.Box.tag", "a.Bag.tag"]


@pytest.mark.parametrize("use, caller, bench", [
    ("None", "from a import Box\n\ndef f():\n    return Box.tag\n", ""),
    ("None", "import a\n\ndef f():\n    return a.Box.tag\n", ""),
    ("self.tag()", "", ""),
    ("None", "class _Shelf:\n    def go(self):\n        return self.tag()\n", ""),
    ("None", "def f(box: Box):\n    return box.tag()\n", ""),
    ("None", "def f(box: 'Bin | Box | None'):\n    return box.tag()\n", ""),
    ("None", "def f():\n    box = Box()\n    return box.tag()\n", ""),
    ("None", "def f():\n    box = Box.make()\n    return box.tag()\n", ""),
    ("None", "def f():\n    box = box_of()\n    return box.tag()\n", ""),
    ("None", "def f():\n    return box_of().tag()\n", ""),
    ("None", "", "def f(box: Box):\n    return box.tag()\n"),
], ids=[
    "class", "module-class", "self", "self-in-base", "annotated", "annotated-union",
    "constructed", "classmethod", "returned", "call", "bench",
])
def test_each_receiver_form_credits_its_class(use, caller, bench):
    sources = {"a": SHARED.format(use=use), "b": caller}
    assert uncalled(sources, {"run": bench}, SHARED_KEPT, SHARED_REPORTED) == ["a.Bag.tag"]


def test_a_stale_method_exemption_is_found():
    sources = {"a": SHARED.format(use="None"), "b": "def f(box: Box):\n    return box.tag()\n"}
    kept = {("a", "Bag.tag"): "no caller", ("a", "Box.tag"): "called by b.f"}
    assert uncalled(sources, {}, SHARED_KEPT, SHARED_REPORTED | set(kept)) == []
    assert stale_methods(sources, {}, SHARED_KEPT, SHARED_REPORTED, kept) == ["a.Box.tag"]


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
