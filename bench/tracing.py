"""Per-layer spans around qsakit's public functions, recorded from outside.

:func:`install` wraps every public module-level function of each qsakit
module, plus the public methods named in :data:`METHODS`, and rebinds each
wrapper wherever a qsakit module (or the package namespace) holds the
original, because the modules import each other's functions by name. No file
of the package changes.

A span is recorded only while :attr:`Tracer.active` is set, so warm-ups and
correctness checks leave no spans. Spans go into flat in-memory arrays (name,
parent span, operation, start, end) and are written out once, when the run
ends. A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "pauli_core", "propagator_engine", "schedule_compiler", "dense_oracle",
    "toric_lattice", "anyon_logic", "analysis", "cli",
)

METHODS = {
    "pauli_core": ("WeightedPauliSum.from_terms",),
    "toric_lattice": ("DigitalSequence.unitary", "DigitalSequence.apply"),
    "anyon_logic": ("LoopCnot.truth_table",),
}

# The per-layer metrics the benchmark reports: (module, qualified name).
REPORTED = {
    "pauli_core": ("multiply", "commutes", "WeightedPauliSum.from_terms", "is_involution"),
    "propagator_engine": ("conjugate", "conjugate_string", "make_attachment",
                          "make_swapper", "apply_swap"),
    "schedule_compiler": ("compile_schedule", "replay_symbolic", "validate"),
    "dense_oracle": ("string_action", "apply_string", "apply_rotation",
                     "schedule_unitary", "apply_schedule", "verify_schedule",
                     "expm", "distance", "to_matrix"),
    "toric_lattice": ("build_wen", "build_kitaev_holes", "digital_sequence",
                      "DigitalSequence.unitary", "DigitalSequence.apply",
                      "ground_state_sweep", "ground_state_projector"),
    "anyon_logic": ("syndrome_of", "predict_syndrome", "braiding_phase", "memory_basis",
                    "memory_encode", "magic_report", "loop_cnot", "LoopCnot.truth_table"),
    "analysis": ("error_scaling", "pulse_product"),
    "cli": ("main",),
}

COMPUTED_BYTES = "dense_oracle.apply_rotation"


def metric_specs() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for module, names in REPORTED.items():
        for name in names:
            specs += [(f"{module}.{name}.calls", "count"), (f"{module}.{name}.self_s", "s")]
    specs += [(f"{module}.self_s", "s") for module in MODULES]
    specs.append((f"{COMPUTED_BYTES}.computed_bytes", "bytes"))
    return specs


class Tracer:
    """In-memory span recorder shared by all wrappers of one run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, summed child duration]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.computed_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        ident = self._id(name)
        count_bytes = name == COMPUTED_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_bytes:
                generator = args[0] if args else kwargs["generator"]
                arr = args[2] if len(args) > 2 else kwargs["array"]
                self.computed_bytes += arr.nbytes * len(generator.terms)
            index = len(self.start)
            self.name_id.append(ident)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            self._stack.append([index, 0.0])
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t = perf_counter()
                self.end[index] = t
                _, child = self._stack.pop()
                duration = t - self.start[index]
                self.calls[ident] += 1
                self.self_s[ident] += duration - child
                if self._stack:
                    self._stack[-1][1] += duration

        return traced

    def metrics(self, passes: int) -> dict:
        """Per-pass per-layer metrics, keyed as in :func:`metric_specs`."""
        per_module = {m: 0.0 for m in MODULES}
        by_name = {}
        for ident, name in enumerate(self.names):
            by_name[name] = (self.calls[ident], self.self_s[ident])
            per_module[name.split(".")[0]] += self.self_s[ident]
        out = {}
        for name, unit in metric_specs():
            key, _, field = name.rpartition(".")
            if field == "computed_bytes":
                value = self.computed_bytes / passes
            elif key in per_module:
                value = per_module[key] / passes
            else:
                calls, self_s = by_name.get(key, (0, 0.0))
                value = calls / passes if field == "calls" else self_s / passes
            out[name] = {"value": value, "unit": unit}
        return out

    def save(self, path: str) -> None:
        """Write every span as parallel arrays into a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _targets(module):
    """(qualified name, owner, attribute, function) of everything to wrap."""
    for attr, value in vars(module).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == module.__name__):
            yield attr, module, attr, value
    short = module.__name__.rsplit(".", 1)[1]
    for qualified in METHODS.get(short, ()):
        cls_name, meth = qualified.split(".")
        cls = getattr(module, cls_name)
        yield qualified, cls, meth, inspect.getattr_static(cls, meth)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every qsakit module in place."""
    modules = [importlib.import_module(f"qsakit.{m}") for m in MODULES]
    replaced = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for qualified, owner, attr, value in list(_targets(module)):
            name = f"{short}.{qualified}"
            if isinstance(value, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, value.__func__)))
            elif isinstance(owner, type):
                setattr(owner, attr, tracer.wrap(name, value))
            else:
                replaced[id(value)] = (value, tracer.wrap(name, value))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qsakit" and not mod_name.startswith("qsakit."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    missing = [f"{m}.{n}" for m, names in REPORTED.items() for n in names
               if f"{m}.{n}" not in tracer.names]
    if missing:
        raise RuntimeError(f"reported functions not found in qsakit: {missing}")
