"""qsakit: exact N-body Pauli propagators from untunable two-body pulses.

The package compiles arbitrary Pauli-string targets into analytically exact
schedules of fixed-strength attachment and swapper pulses, applies the
construction to a plaquette spin model (Hamiltonian build, digital evolution,
ground-state preparation), drives string/anyon logic on top of it (syndromes,
loop memories, magic states, a braided CNOT), and quantifies pulse-strength
dilution and control-error scaling.  Everything is verified against a dense
matrix/statevector oracle.

Each export below loads its submodule on first access (PEP 562), so code
that uses only the symbolic layer never imports numpy.
"""

from importlib import import_module as _import_module

# Every export, by the submodule that defines it.
_EXPORTS = {
    "pauli_core": (
        "PauliString", "WeightedPauliSum", "anticommuting_pairs", "commutes",
        "multiply", "square", "sum_commutes",
    ),
    "propagator_engine": (
        "AttachmentSpec", "SwapperSpec", "make_attachment", "make_swapper",
        "conjugate", "apply_swap",
    ),
    "schedule_compiler": (
        "ConnectivityGraph", "QsaSchedule", "compile_schedule", "depth_bound",
        "replay_symbolic", "validate",
    ),
    "dense_limit": ("ResourceLimitError",),
    "dense_oracle": (
        "expectation", "to_matrix", "expm",
        "apply_schedule", "schedule_unitary", "distance", "verify_schedule",
    ),
    "toric_lattice": (
        "LatticeSpec", "HoleSpec", "TwistSpec", "LatticeError", "PlaquetteSet",
        "DigitalSequence", "build_wen", "build_variant", "plaquette_schedule",
        "digital_sequence", "ground_state_projector", "ground_state_sweep",
    ),
    "anyon_logic": (
        "StringPath", "Syndrome", "LoopCnot",
        "PathError", "EncodingError", "UnsupportedOperationError",
        "path_string", "syndrome_of", "predict_syndrome",
        "interleaved_propagators", "anyon_walk", "braiding_phase", "memory_qubits",
        "memory_basis", "memory_encode", "code_state", "hole_logicals",
        "magic_state", "magic_report", "loop_cnot", "naive_move_error",
    ),
    "analysis": (
        "StrengthParams", "ErrorScalingReport", "strength_target", "strength_toric",
        "error_scaling",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
