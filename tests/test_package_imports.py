"""The package's import graph: numpy loads only in commands that reach the dense oracle."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsakit
from qsakit import dense_limit, dense_oracle
from qsakit.cli import main

SRC = Path(qsakit.__file__).resolve().parent.parent

# The export set of qsakit/__init__.py; a change to it must be recorded.
EXPORTS = sorted([
    "AttachmentSpec", "ConnectivityGraph", "DigitalSequence",
    "EncodingError", "HoleSpec",
    "LatticeError", "LatticeSpec", "LoopCnot", "PathError",
    "PauliString", "PlaquetteSet", "QsaSchedule", "ResourceLimitError",
    "StrengthParams", "StringPath", "SwapperSpec", "Syndrome",
    "TwistSpec", "UnsupportedOperationError", "WeightedPauliSum",
    "anticommuting_pairs", "anyon_walk", "apply_schedule", "apply_swap",
    "braiding_phase", "build_variant", "build_wen", "commutes",
    "compile_schedule", "conjugate", "depth_bound", "digital_sequence", "distance",
    "error_scaling", "expectation", "expm", "ground_state_projector", "ground_state_sweep",
    "hole_logicals", "interleaved_propagators", "loop_cnot",
    "magic_report", "magic_state", "make_attachment", "make_swapper", "memory_basis",
    "memory_encode", "memory_qubits", "multiply", "naive_move_error", "path_string",
    "predict_syndrome",
    "replay_symbolic", "schedule_unitary",
    "square", "strength_target", "strength_toric",
    "sum_commutes", "syndrome_of", "to_matrix", "validate", "verify_schedule",
])


def fresh_python(code: str) -> list[str]:
    """Run ``code`` in a new interpreter (default dense limit); its stdout lines."""
    env = {k: v for k, v in os.environ.items() if k != "QSA_MAX_DENSE_QUBITS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


def test_importing_the_cli_loads_no_numpy():
    assert fresh_python("import sys, qsakit.cli; print('numpy' in sys.modules)") == ["False"]


def test_compile_above_the_dense_limit_loads_no_numpy():
    lines = fresh_python(
        "import contextlib, io, sys\n"
        "from qsakit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['compile', '--target', 'XZ' * 10])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert lines == ["0 False"]


@pytest.mark.parametrize(
    "module", ["pauli_core", "propagator_engine", "schedule_compiler", "dense_limit",
               "toric_lattice", "anyon_logic"]
)
def test_symbolic_exports_load_no_numpy(module):
    names = qsakit._EXPORTS[module]
    lines = fresh_python(
        "import sys\n"
        f"for name in {names!r}:\n"
        "    exec(f'from qsakit import {name}')\n"
        "    print(name, 'numpy' in sys.modules)\n"
    )
    assert lines == [f"{name} False" for name in names]


def test_a_schedules_pulse_program_loads_no_numpy():
    lines = fresh_python(
        "import sys\n"
        "from qsakit.pauli_core import PauliString\n"
        "from qsakit.schedule_compiler import compile_schedule\n"
        "pulses = compile_schedule(PauliString.parse('XYZZYX'), tg=0.3).pulses()\n"
        "print(len(pulses), 'numpy' in sys.modules)\n"
    )
    assert lines == ["17 False"]


def test_the_pulse_executor_loads_no_schedule_compiler():
    lines = fresh_python(
        "import sys, qsakit.dense_oracle\n"
        "print('qsakit.schedule_compiler' in sys.modules)\n"
    )
    assert lines == ["False"]


def run_lattice_command(tmp_path, command, action, spec, payload=None):
    """``qsakit <command> <action>`` on ``spec`` (and ``payload`` as ``--path``)
    in a fresh interpreter: one line of its exit code and whether numpy was
    loaded before and after."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [command, action, "--spec", str(path)]
    if payload is not None:
        (tmp_path / "payload.json").write_text(json.dumps(payload))
        argv += ["--path", str(tmp_path / "payload.json")]
    return fresh_python(
        "import contextlib, io, sys\n"
        "from qsakit.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, before, 'numpy' in sys.modules)\n"
    )


@pytest.mark.parametrize("action", ["build", "ground"])
@pytest.mark.parametrize("spec", [
    {"rows": 3, "cols": 3},
    {"rows": 4, "cols": 4, "boundary": "periodic"},
], ids=["open3x3", "periodic4x4"])
def test_toric_build_and_ground_load_no_numpy(tmp_path, action, spec):
    assert run_lattice_command(tmp_path, "toric", action, spec) == ["0 False False"]


def test_toric_digital_loads_the_dense_oracle(tmp_path):
    lines = run_lattice_command(tmp_path, "toric", "digital", {"rows": 2, "cols": 3})
    assert lines == ["0 False True"]


HOLES = {"rows": 3, "cols": 4, "model": "kitaev_holes",
         "holes": [{"plaquettes": [[1, 0]], "kind": "smooth"},
                   {"plaquettes": [[1, 2]], "kind": "rough"}]}


@pytest.mark.parametrize("action, spec, payload", [
    ("syndrome", {"rows": 4, "cols": 4}, {"sites": [[1, 1], [2, 2]], "letters": "ZZ"}),
    ("braid", {"rows": 4, "cols": 4}, {"center": [1, 1]}),
    ("cnot", HOLES, {"control": 0, "target": 1}),
    ("memory", {"rows": 4, "cols": 4, "boundary": "periodic"}, {"amplitudes": [1, [0, 1], 0, -1]}),
    ("magic", HOLES, {"hole": 1, "theta": 0.7}),
])
def test_symbolic_anyon_commands_load_no_numpy(tmp_path, action, spec, payload):
    lines = run_lattice_command(tmp_path, "anyon", action, spec, payload)
    assert lines == ["0 False False"]


def test_verify_loads_the_dense_oracle(tmp_path, capsys):
    schedule = tmp_path / "six.json"
    assert main(["compile", "--target", "XYZZYX", "--out", str(schedule)]) == 0
    capsys.readouterr()
    lines = fresh_python(
        "import contextlib, io, sys\n"
        "from qsakit.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['verify', '--schedule', {str(schedule)!r}])\n"
        "print(code, before, 'numpy' in sys.modules)\n"
    )
    assert lines == ["0 False True"]


def test_the_export_set_is_unchanged():
    assert sorted(qsakit.__all__) == EXPORTS
    assert len(set(qsakit.__all__)) == len(qsakit.__all__)


def test_every_export_is_its_submodules_object():
    listed = dir(qsakit)
    for name in qsakit.__all__:
        home = importlib.import_module(f"qsakit.{qsakit._HOME[name]}")
        assert getattr(qsakit, name) is getattr(home, name), name
        assert name in listed
    namespace = {}
    exec("from qsakit import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS


def test_the_dense_limit_is_one_object_under_both_names():
    assert qsakit.ResourceLimitError is dense_oracle.ResourceLimitError
    for name in ("ResourceLimitError", "max_dense_qubits", "check_dense_limit",
                 "DENSE_LIMIT_ENV", "DEFAULT_DENSE_LIMIT"):
        assert getattr(dense_oracle, name) is getattr(dense_limit, name), name


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        qsakit.no_such_export
