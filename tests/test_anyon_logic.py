"""String syndromes, loop memories, holes, braiding and hole moves."""

import math

import numpy as np
import pytest

from qsakit import anyon_logic, dense_oracle
from qsakit.anyon_logic import (
    EncodingError,
    PathError,
    StringPath,
    UnsupportedOperationError,
    anyon_walk,
    braiding_phase,
    hole_logicals,
    interleaved_propagators,
    loop_cnot,
    loop_path,
    magic_report,
    magic_state,
    memory_basis,
    memory_encode,
    memory_qubits,
    naive_move_error,
    path_is_closed,
    path_string,
    predict_syndrome,
    syndrome_of,
)
from qsakit.dense_oracle import (
    _random_state,
    apply_rotation,
    apply_schedule,
    run_pulses,
)
from qsakit.pauli_core import PauliString, commutes, multiply
from qsakit.schedule_compiler import compile_schedule
from qsakit.stabilizer_state import LogicalFrame
from qsakit.toric_lattice import (
    HoleSpec,
    LatticeError,
    LatticeSpec,
    build_variant,
    build_wen,
    digital_sequence,
    ground_state_projector,
    ground_state_sweep,
    kitaev_edge_index,
    plaquette_range,
)

from conftest import (
    count_calls,
    kron_expm,
    kron_letters,
    kron_product_state,
    lattice_ground,
    pauli_image,
    rotated,
    stabilizer_vector,
)

SEED = 20240816

HOLES_SPEC = LatticeSpec(
    rows=3, cols=4, model="kitaev_holes",
    holes=(HoleSpec(((1, 0),), "smooth"), HoleSpec(((1, 2),), "rough")),
)


def random_walk_path(rng, spec, length):
    """Self-avoiding king-move walk with random letters."""
    while True:
        site = (int(rng.integers(0, spec.rows)), int(rng.integers(0, spec.cols)))
        sites = [site]
        for _ in range(length - 1):
            i, j = sites[-1]
            moves = [
                (i + di, j + dj)
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0)
            ]
            if spec.boundary == "periodic":
                moves = [(a % spec.rows, b % spec.cols) for a, b in moves]
            else:
                moves = [
                    (a, b)
                    for a, b in moves
                    if 0 <= a < spec.rows and 0 <= b < spec.cols
                ]
            moves = [m for m in moves if m not in sites]
            if not moves:
                break
            sites.append(moves[int(rng.integers(0, len(moves)))])
        if len(sites) == length:
            letters = tuple(str(rng.choice(["X", "Y", "Z"])) for _ in sites)
            return StringPath(tuple(sites), letters)


def test_string_path_validation_and_serialization():
    with pytest.raises(PathError):
        StringPath(((0, 0),), ("Q",))
    with pytest.raises(PathError):
        StringPath(((0, 0), (0, 0)), ("Z", "Z"))
    with pytest.raises(PathError):
        StringPath((), ())
    p = StringPath(((0, 0), (1, 1)), ("Z", "X"))
    d = p.to_dict()
    assert d["letters"] == "ZX"
    assert StringPath.from_dict(d) == p
    assert StringPath.from_dict({"sites": [[0, 0]], "letters": ["Y"]}).letters == ("Y",)


def test_path_string_resolution_and_errors():
    spec = LatticeSpec(rows=4, cols=4)
    p = StringPath(((1, 1), (2, 2)), ("Z", "Z"))
    s = path_string(p, spec)
    assert s.letter(spec.site_index(1, 1)) == "Z"
    assert s.letter(spec.site_index(2, 2)) == "Z"
    assert s.weight == 2
    with pytest.raises(PathError):
        path_string(StringPath(((0, 0), (2, 2)), ("Z", "Z")), spec)
    with pytest.raises(PathError):
        path_string(StringPath(((0, 0), (0, 5)), ("Z", "Z")), spec)


def test_prediction_matches_anticommutation_randomized():
    rng = np.random.default_rng(SEED)
    one_cell = (HoleSpec(((1, 1),)),)
    two_cells = (HoleSpec(((1, 1), (2, 1))),)
    specs = [
        LatticeSpec(rows=4, cols=4, boundary=boundary, holes=holes)
        for holes in ((), one_cell, two_cells)
        for boundary in ("open", "periodic")
    ]
    for spec in specs:
        for _ in range(60):
            path = random_walk_path(rng, spec, int(rng.integers(1, 7)))
            assert (
                predict_syndrome(path, spec).entries
                == syndrome_of(path, spec).entries
            )


def test_an_off_lattice_hole_is_refused_before_any_syndrome():
    # the spec refuses the hole when it is made, so neither route ever reads it
    with pytest.raises(LatticeError, match=r"^hole plaquette \(3, 0\) out of range$"):
        LatticeSpec(rows=4, cols=4, holes=(HoleSpec(((3, 0),)),))


def test_single_letter_syndromes():
    spec = LatticeSpec(rows=4, cols=4)
    z = syndrome_of(StringPath(((2, 2),), ("Z",)), spec)
    assert z.entries == (((1, 1), "e"), ((2, 2), "e"))
    x = syndrome_of(StringPath(((2, 2),), ("X",)), spec)
    assert x.entries == (((1, 2), "m"), ((2, 1), "m"))
    y = syndrome_of(StringPath(((2, 2),), ("Y",)), spec)
    assert len(y.entries) == 4
    assert {k for _, k in y.entries} == {"e", "m"}


def test_diagonal_string_moves_the_anyon():
    spec = LatticeSpec(rows=5, cols=5)
    path = StringPath(((1, 1), (2, 2), (3, 3)), ("Z", "Z", "Z"))
    s = syndrome_of(path, spec)
    assert s.entries == (((0, 0), "e"), ((3, 3), "e"))


def test_loop_paths_close_and_clear_the_syndrome():
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    for kind in ("e", "m"):
        for orientation in ("vertical", "horizontal"):
            loop = loop_path(spec, kind, orientation)
            assert path_is_closed(loop, spec)
            assert syndrome_of(loop, spec).entries == ()


def test_memory_loop_algebra_is_symbolic():
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    (x1, z1), (x2, z2) = memory_qubits(spec)
    assert x1 == path_string(loop_path(spec, "m", "vertical"), spec)
    assert z1 == path_string(loop_path(spec, "e", "horizontal"), spec)
    assert x2 == path_string(loop_path(spec, "m", "horizontal"), spec)
    assert z2 == path_string(loop_path(spec, "e", "vertical"), spec)
    assert not commutes(x1, z1)
    assert not commutes(x2, z2)
    assert commutes(x1, z2) and commutes(x2, z1)
    assert commutes(x1, x2) and commutes(z1, z2)
    for term in build_wen(spec).terms:
        for logical in (x1, z1, x2, z2):
            assert commutes(logical, term.operator)


def test_memory_qubits_need_loops_that_close():
    # a vertical loop on two rows is two sites, which close no loop
    with pytest.raises(PathError, match="^memory loop paths must be closed$"):
        memory_qubits(LatticeSpec(rows=2, cols=4, boundary="periodic"))


def recorded_rotations(monkeypatch):
    """Every ``LogicalFrame.evolve`` call, as ``(frame, string, angle)``, run as before."""
    runs = []
    evolve = LogicalFrame.evolve

    def recording(frame, q, angle):
        runs.append((frame, q, angle))
        evolve(frame, q, angle)

    monkeypatch.setattr(LogicalFrame, "evolve", recording)
    return runs


def memory_vectors(spec):
    """The conftest ground state of the torus and its X1, X2 and X1 X2 images."""
    (x1, _), (x2, _) = memory_qubits(spec)
    ground = lattice_ground(spec)
    return [ground, pauli_image(x1, ground), pauli_image(x2, ground),
            pauli_image(x2, pauli_image(x1, ground))]


def test_memory_basis_and_encode(monkeypatch):
    # the basis tableaux fix the conftest basis vectors, and the frame's
    # amplitudes are the overlaps of the conftest ground state run through
    # the same loop rotations
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    basis, vectors = memory_basis(spec), memory_vectors(spec)
    for i in range(4):
        for g in basis[i].stabilizers:
            assert np.abs(pauli_image(g, vectors[i]) - vectors[i]).max() <= 1e-12
        for j in range(i + 1, 4):
            assert basis[i].overlap(basis[j]) == 0.0
            assert abs(np.vdot(vectors[i], vectors[j])) <= 1e-12
    rng = np.random.default_rng(SEED + 1)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps = amps / np.linalg.norm(amps)
    runs = recorded_rotations(monkeypatch)
    overlaps = memory_encode(spec, list(amps), basis[0])
    assert np.max(np.abs(np.array(overlaps) - amps)) <= 1e-12
    state = vectors[0]
    for _, q, angle in runs:
        state = rotated(state, q, angle)
    want = np.array([np.vdot(v, state) for v in vectors])
    assert np.max(np.abs(np.array(runs[0][0].amplitudes) - want)) <= 1e-12


def test_memory_logical_zs_are_e_loops_on_the_seed_state():
    # memory_encode gives the Z loops no sign: each puts Z on the spins
    # the seed sets to |0> ((i + j) even) and X on those it sets to |+>
    for rows in range(4, 21, 2):
        for cols in range(4, 21, 2):
            spec = LatticeSpec(rows=rows, cols=cols, boundary="periodic")
            spins = {spec.site_index(i, j): (i, j) for i in range(rows) for j in range(cols)}
            for _, z_bar in memory_qubits(spec):
                assert z_bar.phase_exp == 0
                for site in z_bar.support:
                    i, j = spins[site]
                    assert z_bar.letter(site) == ("Z" if (i + j) % 2 == 0 else "X")
    spec = _memory_spec()
    seed = kron_product_state("ZX"[(i + j) % 2] for i in range(4) for j in range(4))
    for _, z_bar in memory_qubits(spec):
        assert np.array_equal(pauli_image(z_bar, seed), seed)


MEMORY_CASES = {f"basis-{k}": np.eye(4)[k] for k in range(4)} | {
    "bell": [1, 0, 0, 1], "bell-phase": [1, 0, 0, 1j],
    "product-q1": [1, 1, 0, 0], "product-plus": [1, 1, 1, 1],
} | {
    f"random-{k}": v
    for k, v in enumerate(np.random.default_rng(SEED + 2).normal(size=(10, 4, 2)) @ [1, 1j])
}


@pytest.mark.parametrize("amps", MEMORY_CASES.values(), ids=MEMORY_CASES.keys())
def test_memory_encode_runs_at_most_seven_loop_rotations(monkeypatch, amps):
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    basis = memory_basis(spec)
    runs = recorded_rotations(monkeypatch)
    amps = np.asarray(amps, dtype=complex) / np.linalg.norm(amps)
    overlaps = memory_encode(spec, list(amps), basis[0])
    assert np.max(np.abs(np.array(overlaps) - amps)) <= 1e-12
    # Y2, then Y1 and Z2 Y1, then Z2, Z1 and Z1 Z2, each dropped at angle 0
    assert len({id(frame) for frame, _, _ in runs}) <= 1 and len(runs) <= 6


def test_single_loop_rotation_amplitudes():
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    (x1, z1), (x2, z2) = memory_qubits(spec)
    frame = LogicalFrame(memory_basis(spec)[0], [(x2, z2), (x1, z1)], [1, 0, 0, 0])
    frame.evolve(x1, math.pi / 8.0)
    assert frame.amplitudes == [math.cos(math.pi / 8.0), -1j * math.sin(math.pi / 8.0), 0, 0]
    vectors = memory_vectors(spec)
    state = rotated(vectors[0], x1, math.pi / 8.0)
    want = [np.vdot(v, state) for v in vectors]
    assert max(abs(a - w) for a, w in zip(frame.amplitudes, want)) <= 1e-12


def kron_propagator(string, tg, data):
    """scipy's ``exp(-i tg P)`` of ``P``'s letters on its support, contracted into ``data``."""
    sites, k = string.support, len(string.support)
    local = kron_expm(kron_letters([string.letter(site) for site in sites]), tg)
    tensor = np.moveaxis(data.reshape((2,) * string.n_sites), sites, range(k))
    out = (local @ tensor.reshape(1 << k, -1)).reshape(tensor.shape)
    return np.moveaxis(out, range(k), sites).reshape(data.shape)


def test_a_path_string_pulse_is_its_propagator(dense16):
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    ground = lattice_ground(spec)
    m_loop = loop_path(spec, "m", "vertical")
    e_loop = loop_path(spec, "e", "vertical")
    walk = anyon_walk(spec, [(0, 0), (1, 1), (2, 2)])
    for path, tg in ((m_loop, 0.3), (e_loop, -1.1), (walk, 0.7)):
        pulse = (path_string(path, spec), tg)
        want = kron_propagator(pulse[0], tg, ground)
        assert np.abs(run_pulses([pulse], ground) - want).max() <= 1e-12


def test_a_string_pulse_on_another_register_is_refused():
    pulse = (PauliString.parse("XZZX"), 0.3)
    wider = np.zeros(32, dtype=np.complex128)
    with pytest.raises(ValueError, match="generator on 4 sites, array on 5"):
        run_pulses([pulse], wider)
    with pytest.raises(ValueError, match="generator on 4 sites, array on 5"):
        apply_rotation(*pulse, wider)
    with pytest.raises(ValueError, match="propagators act on different registers"):
        interleaved_propagators(pulse, (PauliString.parse("XZZXI"), 0.3))


def test_interleaved_crossings_rejected():
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    (x1, z1), (x2, _) = memory_qubits(spec)
    x1, z1, x2 = (x1, 0.3), (z1, 0.4), (x2, 0.5)
    assert interleaved_propagators(x1, x2) == (x1, x2)
    with pytest.raises(UnsupportedOperationError):
        interleaved_propagators(x1, z1)


def test_anyon_walk_hop_rules():
    spec = LatticeSpec(rows=4, cols=4)
    walk = anyon_walk(spec, [(0, 0), (1, 1)])
    assert walk.sites == ((1, 1),) and walk.letters == ("Z",)
    walk = anyon_walk(spec, [(1, 1), (0, 2)])
    assert walk.sites == ((1, 2),) and walk.letters == ("X",)


def test_anyon_walk_ring_equals_plaquette():
    spec = LatticeSpec(rows=3, cols=3)
    ring = anyon_walk(spec, [(0, 1), (1, 2), (2, 1), (1, 0), (0, 1)])
    plaquette = next(t for t in build_wen(spec).terms if t.index == (1, 1))
    assert path_string(ring, spec) == plaquette.operator


def test_braiding_phase_is_minus_one():
    spec = LatticeSpec(rows=3, cols=3)
    report = braiding_phase(spec, center=(1, 1))
    assert report["expectation_ground"] == pytest.approx(1.0, abs=1e-10)
    assert report["expectation_excited"] == pytest.approx(-1.0, abs=1e-10)
    assert report["braiding_phase"] == pytest.approx(-1.0, abs=1e-10)


def test_hole_qubit_edges_and_logicals():
    xs, zs = hole_logicals(HOLES_SPEC.holes[0], HOLES_SPEC)
    xr, zr = hole_logicals(HOLES_SPEC.holes[1], HOLES_SPEC)
    assert xs.weight == 1 and zs.weight == 4
    assert xr.weight == 4 and zr.weight == 1
    assert not commutes(xs, zs)
    assert not commutes(xr, zr)
    assert commutes(xs, zr) and commutes(xr, zs)
    for term in build_variant(HOLES_SPEC).terms:
        for logical in (xs, zs, xr, zr):
            assert commutes(logical, term.operator)


def test_hole_qubit_requires_declared_hole():
    with pytest.raises(EncodingError, match="^hole is not part of the lattice spec$"):
        hole_logicals(HoleSpec(((0, 1),), "smooth"), HOLES_SPEC)


SMOOTH = HoleSpec(((1, 0),), "smooth")
WIDE = HoleSpec(((1, 0), (1, 2)), "smooth")


@pytest.mark.parametrize("hole, spec, error", [
    (SMOOTH, LatticeSpec(rows=3, cols=4, holes=(SMOOTH,)),
     "hole qubits require the kitaev_holes model"),
    (SMOOTH, LatticeSpec(rows=4, cols=4, boundary="periodic", model="kitaev_holes",
                         holes=(SMOOTH,)),
     "hole logicals need boundaries to terminate on"),
    (WIDE, LatticeSpec(rows=3, cols=4, model="kitaev_holes", holes=(WIDE,)),
     "multi-plaquette holes are not supported as qubits"),
], ids=["wen-model", "periodic", "two-plaquettes"])
def test_hole_logicals_refuses_a_hole_that_frees_no_qubit(hole, spec, error):
    with pytest.raises(EncodingError, match=f"^{error}$"):
        hole_logicals(hole, spec)


def test_code_state_is_the_logical_zero():
    # every kept term and both holes' logical Z fix the tableau, and every
    # stabilizer of the tableau fixes the conftest code state
    state, tableau = lattice_ground(HOLES_SPEC), anyon_logic._code_tableau(HOLES_SPEC)
    logical_zs = [hole_logicals(hole, HOLES_SPEC)[1] for hole in HOLES_SPEC.holes]
    for op in [*build_variant(HOLES_SPEC).operators(), *logical_zs]:
        assert tableau.expectation(op) == 1
    for g in tableau.stabilizers:
        assert np.abs(pauli_image(g, state) - state).max() <= 1e-12


def hole_vectors(code):
    """``X^b |code>`` of the two holes' logical X, the first hole the most significant bit."""
    x_s, x_r = (hole_logicals(hole, HOLES_SPEC)[0] for hole in HOLES_SPEC.holes)
    return [code, pauli_image(x_r, code), pauli_image(x_s, code),
            pauli_image(x_s, pauli_image(x_r, code))]


def test_logical_basis_is_orthonormal():
    # the frame's basis of the two holes: orthogonal tableaux, and
    # orthonormal conftest vectors that those tableaux fix
    code = anyon_logic._code_tableau(HOLES_SPEC)
    x_s, x_r = (hole_logicals(hole, HOLES_SPEC)[0] for hole in HOLES_SPEC.holes)
    tableaux = []
    for xs in ([], [x_r], [x_s], [x_s, x_r]):
        state = code.copy()
        for x_bar in xs:
            state.apply_string(x_bar)
        tableaux.append(state)
    vectors = hole_vectors(lattice_ground(HOLES_SPEC))
    for i in range(4):
        assert abs(np.linalg.norm(vectors[i]) - 1.0) <= 1e-12
        for g in tableaux[i].stabilizers:
            assert np.abs(pauli_image(g, vectors[i]) - vectors[i]).max() <= 1e-12
        for j in range(i + 1, 4):
            assert tableaux[i].overlap(tableaux[j]) == 0.0
            assert abs(np.vdot(vectors[i], vectors[j])) <= 1e-12


def test_magic_state_fidelities():
    # against the conftest code state rotated by the same two logical rotations
    code = lattice_ground(HOLES_SPEC)
    for hole in HOLES_SPEC.holes:
        x_bar, z_bar = hole_logicals(hole, HOLES_SPEC)
        zero, one = code, pauli_image(x_bar, code)
        for theta in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi, 4.693663):
            report = magic_report(hole, theta, HOLES_SPEC)
            assert report["fidelity"] >= 1.0 - 1e-10
            state = rotated(rotated(code, x_bar, math.pi / 4.0), z_bar, (theta + math.pi / 2) / 2)
            state = state / report["recorded_phase"]
            target = (zero + np.exp(1j * theta) * one) / math.sqrt(2.0)
            assert abs(report["fidelity"] - abs(np.vdot(target, state)) ** 2) <= 1e-12
            assert abs(report["overlap_zero"] - np.vdot(zero, state)) <= 1e-12
            assert abs(report["overlap_one"] - np.vdot(one, state)) <= 1e-12


def test_magic_report_builds_the_code_state_once(monkeypatch):
    hole = HOLES_SPEC.holes[0]
    zero, one = magic_state(hole, 0.7, HOLES_SPEC).amplitudes
    calls = count_calls(monkeypatch, anyon_logic, "_code_tableau")
    report = magic_report(hole, 0.7, HOLES_SPEC)
    assert calls == {"_code_tableau": 1}
    # the same numbers as magic_state gives
    assert (report["overlap_zero"], report["overlap_one"]) == (zero, one)
    assert report["fidelity"] == abs((zero + complex(np.exp(-0.7j)) * one) / math.sqrt(2.0)) ** 2


def test_memory_magic_and_cnot_build_no_dense_state(monkeypatch):
    # the dense oracle's kernels, where they live: every pulse program runs
    # through _apply_fused and every dense Pauli image through apply_string
    calls = count_calls(monkeypatch, dense_oracle, "_apply_fused", "apply_string")
    spec = _memory_spec()
    memory_encode(spec, [0.5, 0.5j, -0.5, 0.5], memory_basis(spec)[0])
    magic_report(HOLES_SPEC.holes[1], 0.7, HOLES_SPEC)
    _cnot().truth_table()
    _cnot().composite_apply(_hole_frame(3))
    assert set(calls.values()) == {0}
    # the hooks are live: the hole move's loop route runs its schedule through
    # the fused kernel, and the oracle's expectation applies a string
    naive_move_error(("h", 1, 0), HOLES_SPEC, HOLES_SPEC.holes[0], 0.3)
    assert calls["_apply_fused"] > 0
    dense_oracle.expectation(_cnot().braid, lattice_ground(HOLES_SPEC))
    assert calls["apply_string"] > 0


def test_naive_move_error_builds_the_code_state_once(monkeypatch):
    hole, tg = HOLES_SPEC.holes[0], math.pi / 4.0
    want = naive_move_error(("h", 1, 0), HOLES_SPEC, hole, tg)
    calls = count_calls(monkeypatch, anyon_logic, "_code_tableau")
    assert naive_move_error(("h", 1, 0), HOLES_SPEC, hole, tg) == want
    assert calls == {"_code_tableau": 1}


def _memory_spec():
    return LatticeSpec(rows=4, cols=4, boundary="periodic")


def _cnot():
    return loop_cnot(HOLES_SPEC.holes[0], HOLES_SPEC.holes[1], HOLES_SPEC)


def _schedule_on_a_probe():
    schedule = compile_schedule(PauliString.parse("XZZX"), tg=0.3)
    return [apply_schedule(schedule, _random_state(4, seed=3))]


WEN_3X3 = LatticeSpec(rows=3, cols=3)

def _memory_state():
    """The memory state as a vector: its overlaps on the conftest basis vectors."""
    spec = _memory_spec()
    overlaps = memory_encode(spec, [1.0, 0.5j, 0.0, -0.25], memory_basis(spec)[0])
    return sum(a * v for a, v in zip(overlaps, memory_vectors(spec)))


def _magic_vector():
    """The magic state as a vector: its frame's amplitudes on the conftest code state."""
    hole = HOLES_SPEC.holes[0]
    zero, one = magic_state(hole, 0.7, HOLES_SPEC).amplitudes
    code = lattice_ground(HOLES_SPEC)
    return zero * code + one * pauli_image(hole_logicals(hole, HOLES_SPEC)[0], code)


def _hole_frame(b):
    """A logical frame of both holes of ``HOLES_SPEC`` (control first) in basis state ``b``."""
    pairs = [hole_logicals(hole, HOLES_SPEC) for hole in HOLES_SPEC.holes]
    return LogicalFrame(anyon_logic._code_tableau(HOLES_SPEC), pairs, [k == b for k in range(4)])


def _frame_vector(frame, scalar=1.0):
    """``scalar`` times a frame of both holes, as a vector: its amplitudes on the
    conftest code state's hole basis vectors."""
    vectors = hole_vectors(lattice_ground(HOLES_SPEC))
    return scalar * sum(a * v for a, v in zip(frame.amplitudes, vectors))


def _braided_frame():
    frame = _hole_frame(0)
    frame.evolve(_cnot().braid, 0.4)
    return frame


def _composite_vectors():
    """The composite CNOT of each basis frame, its recorded scalar applied, as vectors."""
    frames = [_hole_frame(b) for b in range(4)]
    return [_frame_vector(frame, _cnot().composite_apply(frame)) for frame in frames]


# every state a function hands back, as a dense vector: (register width, the
# vectors); a tableau is the conftest vector its stabilizers fix, and a
# frame or a list of overlaps weighs the conftest basis vectors
STATE_MAKERS = {
    "ground_state_projector": (9, lambda: [
        stabilizer_vector(ground_state_projector(WEN_3X3))
    ]),
    "ground_state_sweep": (9, lambda: [stabilizer_vector(ground_state_sweep(WEN_3X3)[0])]),
    "DigitalSequence.apply": (9, lambda: [
        digital_sequence(WEN_3X3, 0.3).apply(lattice_ground(WEN_3X3))
    ]),
    "memory_basis": (16, lambda: [stabilizer_vector(b) for b in memory_basis(_memory_spec())]),
    "memory_encode": (16, lambda: [_memory_state()]),
    "_code_tableau": (HOLES_SPEC.n_sites, lambda: [
        stabilizer_vector(anyon_logic._code_tableau(HOLES_SPEC))
    ]),
    "magic_state": (HOLES_SPEC.n_sites, lambda: [_magic_vector()]),
    "LoopCnot.braid": (HOLES_SPEC.n_sites, lambda: [_frame_vector(_braided_frame())]),
    "LoopCnot.composite_apply": (HOLES_SPEC.n_sites, _composite_vectors),
    "apply_schedule": (4, _schedule_on_a_probe),
}


@pytest.mark.parametrize("n_sites, make", STATE_MAKERS.values(), ids=STATE_MAKERS.keys())
def test_every_state_is_a_unit_complex_array(dense16, n_sites, make):
    for state in make():
        assert isinstance(state, np.ndarray)
        assert state.shape == (1 << n_sites,) and state.dtype == np.complex128
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_apply_schedule_refuses_a_state_of_the_wrong_width():
    schedule = compile_schedule(PauliString.parse("XZZX"), tg=0.3)
    for wrong in (np.zeros(8, dtype=np.complex128), np.zeros((16, 1), dtype=np.complex128)):
        with pytest.raises(ValueError, match="^state width does not match schedule$"):
            apply_schedule(schedule, wrong)


def test_phase_gate_identity_two_by_two():
    for tg in (0.3, math.pi / 8.0, 1.1):
        z = np.diag([1.0, -1.0]).astype(complex)
        pulse = np.exp(1j * tg) * (
            math.cos(tg) * np.eye(2) - 1j * math.sin(tg) * z
        )
        want = np.diag([1.0, np.exp(2j * tg)])
        assert np.max(np.abs(pulse - want)) <= 1e-12


def test_loop_cnot_truth_table_and_composite():
    gate = loop_cnot(HOLES_SPEC.holes[0], HOLES_SPEC.holes[1], HOLES_SPEC)
    table = gate.truth_table()
    assert table["max_distance"] <= 1e-8
    assert (gate.control, gate.target) == HOLES_SPEC.holes
    # each row's distance, against the conftest code state braided alike
    vectors = hole_vectors(lattice_ground(HOLES_SPEC))
    for row in table["rows"]:
        (c, t), expected = row["input"], row["expected"]
        out = rotated(vectors[t], gate.braid, math.pi / 2.0 * c)
        want = np.linalg.norm(out - row["recorded_phase"] * vectors[2 * expected[0] + expected[1]])
        assert abs(row["distance"] - want) <= 1e-12
    # the composite CNOT on a frame of both holes: the recorded scalar times
    # the frame is the permuted basis state, and the conftest code state run
    # through the same three rotations agrees
    _, z_c = hole_logicals(gate.control, HOLES_SPEC)
    x_t, _ = hole_logicals(gate.target, HOLES_SPEC)
    expected_index = {0: 0, 1: 1, 2: 3, 3: 2}
    for k in range(4):
        frame = _hole_frame(k)
        recorded = gate.composite_apply(frame)
        assert abs(recorded - np.exp(1j * math.pi / 4.0)) <= 1e-15
        want = [float(b == expected_index[k]) for b in range(4)]
        assert max(abs(recorded * a - w) for a, w in zip(frame.amplitudes, want)) <= 1e-15
        state = vectors[k]
        for string, sign in ((z_c, 1), (x_t, 1), (multiply(z_c, x_t), -1)):
            state = rotated(state, string, sign * math.pi / 4)
        assert np.abs(recorded * state - vectors[expected_index[k]]).max() <= 1e-12


def test_loop_cnot_rejects_wrong_hole_kinds():
    with pytest.raises(EncodingError):
        loop_cnot(HOLES_SPEC.holes[1], HOLES_SPEC.holes[0], HOLES_SPEC)


def _hole_pairs():
    """Every (smooth face, rough star) one-plaquette hole pair the spec accepts,
    on open kitaev_holes grids from 2x2 to 5x5: (spec, kept terms)."""
    for rows in range(2, 6):
        for cols in range(2, 6):
            prow, pcol = plaquette_range(LatticeSpec(rows=rows, cols=cols, model="kitaev_holes"))
            faces = [(i, j) for i in range(prow) for j in range(pcol)]
            stars = [(i, j) for i in range(1, rows) for j in range(cols)]  # none on the top row
            for face in faces:
                for star in stars:
                    holes = (HoleSpec((face,), "smooth"), HoleSpec((star,), "rough"))
                    try:
                        spec = LatticeSpec(rows=rows, cols=cols, model="kitaev_holes", holes=holes)
                    except LatticeError:  # the face and the star share an edge
                        continue
                    yield spec, build_variant(spec).terms


def test_every_hole_pair_braid_stays_in_the_code_space_and_links_both_holes():
    # what loop_cnot and composite_apply need of the braid, on every pair
    count = 0
    for spec, terms in _hole_pairs():
        control, target = spec.holes
        braid = loop_cnot(control, target, spec).braid
        _, z_c = hole_logicals(control, spec)
        x_t, z_t = hole_logicals(target, spec)
        assert all(commutes(braid, term.operator) for term in terms)
        assert not commutes(braid, z_c) and not commutes(braid, z_t)
        assert multiply(z_c, x_t).phase_exp == 0
        count += 1
    assert count == 880


def test_naive_move_error_values():
    # the distance against the conftest code state moved both ways, and the
    # closed form on an 8x8 hole lattice of 105 edges, above the dense limit
    hole = HOLES_SPEC.holes[0]
    extension = ("h", 1, 0)
    code = lattice_ground(HOLES_SPEC)
    x_bar, _ = hole_logicals(hole, HOLES_SPEC)
    ext_site = kitaev_edge_index(HOLES_SPEC, *extension)
    ext = PauliString.from_sites(HOLES_SPEC.n_sites, {ext_site: "X"})
    for tg, expect_zero in ((math.pi / 4.0, False), (math.pi / 2.0, True), (0.3, False)):
        report = naive_move_error(extension, HOLES_SPEC, hole, tg)
        naive = pauli_image(ext, rotated(code, x_bar, tg))
        intended = rotated(code, multiply(x_bar, ext), tg)
        assert abs(report["distance"] - np.linalg.norm(naive - intended)) <= 1e-12
        assert report["distance"] == report["predicted"]
        if expect_zero:
            assert report["distance"] <= 1e-10
        else:
            assert report["distance"] > 0.5
        assert report["loop_route_distance"] <= 1e-10
    big = LatticeSpec(rows=8, cols=8, model="kitaev_holes", holes=(HoleSpec(((3, 3),), "smooth"),))
    assert big.n_sites == 105
    for tg in (0.3, math.pi / 4.0):
        report = naive_move_error(("h", 3, 3), big, big.holes[0], tg)
        # a single X edge anticommutes with a face of the code state: e = 0
        assert report["overlap_factor"] == math.sqrt(2.0) / 2.0
        assert abs(report["distance"] - math.sqrt(2.0) * abs(math.cos(tg))) <= 1e-15
        assert report["loop_route_distance"] <= 1e-10 and report["string_weight"] == 5
    with pytest.raises(EncodingError, match="^hole moves are demonstrated on a smooth hole$"):
        naive_move_error(extension, HOLES_SPEC, HOLES_SPEC.holes[1], tg)
    # a fractional index is refused, not truncated to edge ("h", 1, 0)
    with pytest.raises(
        TypeError, match="^extension: 'float' object cannot be interpreted as an integer$"
    ):
        naive_move_error(("h", 1.7, 0), HOLES_SPEC, hole, tg)


TORUS_44 = LatticeSpec(rows=4, cols=4, boundary="periodic")


@pytest.mark.parametrize("call, error, message", [
    (lambda: anyon_walk(TORUS_44, [(0, 0)]), PathError, "a walk needs at least two plaquettes"),
    (lambda: anyon_walk(TORUS_44, [(0, 0), (0, 1)]), PathError,
     "plaquettes (0, 0) and (0, 1) are not diagonal neighbors"),
    (lambda: loop_path(TORUS_44, "f", "vertical"), PathError,
     "loop kind must be 'e' or 'm', got 'f'"),
    (lambda: loop_path(TORUS_44, "e", "diagonal"), PathError,
     "orientation must be vertical or horizontal, got 'diagonal'"),
    # the smooth hole's X string is the one edge below it
    (lambda: naive_move_error(("h", 2, 0), HOLES_SPEC, HOLES_SPEC.holes[0], 0.3), EncodingError,
     "extension edge already belongs to the hole string"),
    # the CLI refuses both before the ground state; these guard library callers,
    # whose fifth amplitude the 2x2 coefficient matrix would drop unread
    (lambda: memory_encode(TORUS_44, [1, 0, 0, 0, 1], None), ValueError,
     "amplitudes must have exactly four entries"),
    (lambda: memory_encode(TORUS_44, [0, 0, 0, 0], None), ValueError,
     "amplitudes must not all vanish"),
], ids=["walk-of-one", "walk-off-the-diagonal", "loop-kind", "loop-orientation",
        "move-onto-the-string", "five-amplitudes", "zero-amplitudes"])
def test_an_anyon_routine_refuses_what_it_cannot_do(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
