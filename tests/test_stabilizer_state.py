"""The stabilizer tableau and the logical frame against the kron oracle and
the conftest ground states."""

import itertools
import math
import re

import numpy as np
import pytest
from conftest import (
    counted_ground_work,
    kron_product_state,
    kron_string,
    lattice_ground,
    pauli_image,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit import propagator_engine, stabilizer_state
from qsakit.pauli_core import PauliString, commutes, multiply
from qsakit.propagator_engine import quarter_conjugate
from qsakit.stabilizer_state import LogicalFrame, ProjectionError, StabilizerState
from qsakit.toric_lattice import (
    LatticeSpec,
    build_wen,
    ground_state_projector,
    ground_state_sweep,
)


def strings(n):
    """Hermitian strings of ``n`` sites: any letters, sign +1 or -1."""
    return st.builds(
        lambda letters, phase: PauliString(n, letters, phase),
        st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n),
        st.sampled_from([0, 2]),
    )


def programs(n):
    """A product seed and up to ten projections, string applications and pi/4 rotations."""
    return st.tuples(
        st.text(alphabet="ZX", min_size=n, max_size=n),
        st.lists(st.tuples(st.sampled_from(["project", "apply", "rotate"]), strings(n)),
                 max_size=10),
    )


def run_both(seed, program):
    """The program on a tableau and on a kron statevector, side by side."""
    state, vector = StabilizerState.product(seed), kron_product_state(seed)
    for kind, q in program:
        m = kron_string(q) @ vector
        if kind == "apply":
            state.apply_string(q)
            vector = m
        elif kind == "rotate":
            state.rotate(q)
            vector = (vector - 1j * m) / math.sqrt(2.0)
        else:
            projected = (vector + m) / 2.0
            norm = np.linalg.norm(projected)
            if norm <= 1e-6:  # <q> = -1: the projection is zero
                with pytest.raises(ProjectionError, match="annihilates the state"):
                    state.project(q)
                continue
            state.project(q)
            vector = projected / norm
    return state, vector


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(programs(n), programs(n), st.lists(strings(n), max_size=6))))
def test_the_tableau_matches_the_kron_oracle(case):
    (seed_a, program_a), (seed_b, program_b), probes = case
    a, vec_a = run_both(seed_a, program_a)
    b, vec_b = run_both(seed_b, program_b)
    for q in [*probes, *(q for _, q in program_a), *a.stabilizers]:
        want = np.vdot(vec_a, kron_string(q) @ vec_a).real
        assert a.expectation(q) in (-1, 0, 1)
        assert abs(a.expectation(q) - want) <= 1e-12
    want = abs(np.vdot(vec_a, vec_b)) ** 2
    assert abs(a.overlap(b) - want) <= 1e-12
    assert abs(b.overlap(a) - want) <= 1e-12


def test_a_projection_that_annihilates_raises_and_keeps_the_state():
    state = StabilizerState.product("ZX")
    minus_z = PauliString.parse("-ZI")
    with pytest.raises(ProjectionError, match=r"\+1 space of -ZI annihilates the state"):
        state.project(minus_z)
    assert [g.format() for g in state.stabilizers] == ["ZI", "IX"]
    state.project(PauliString.parse("XX"))  # <XX> = 0: halves the state
    with pytest.raises(ProjectionError):
        state.project(PauliString.parse("-XX"))
    assert state.expectation(PauliString.parse("XX")) == 1


def test_overlaps_of_one_qubit_states_are_one_half_and_zero():
    zero, plus = StabilizerState.product("Z"), StabilizerState.product("X")
    one = zero.copy()
    one.apply_string(PauliString.parse("X"))
    assert [g.format() for g in one.stabilizers] == ["-Z"]
    assert [g.format() for g in zero.stabilizers] == ["Z"]  # only the copy flipped
    assert (zero.overlap(plus), plus.overlap(one), zero.overlap(one), one.overlap(one)) == (
        0.5, 0.5, 0.0, 1.0)
    plus.rotate(PauliString.parse("Y"))  # exp(-i pi/4 Y)|+> = |1>: X -> iXY = -Z
    assert [g.format() for g in plus.stabilizers] == ["-Z"]
    assert plus.overlap(one) == 1.0


def test_an_imaginary_string_is_refused():
    state = StabilizerState.product("Z")
    for call in (state.project, state.rotate, state.expectation):
        with pytest.raises(ValueError, match="is not Hermitian"):
            call(PauliString.parse("iX"))


def test_the_pauli_image_is_the_kron_product():
    rng = np.random.default_rng(5)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    for letters in itertools.product("IXYZ", repeat=3):
        string = PauliString(3, letters, 1)
        assert np.abs(pauli_image(string, state) - kron_string(string) @ state).max() <= 1e-15


WEN_SPECS = [
    LatticeSpec(rows=rows, cols=cols, boundary=boundary)
    for rows, cols in itertools.product(range(2, 5), repeat=2)
    for boundary in ("open", "periodic")
    if boundary == "open" or (rows % 2 == 0 and cols % 2 == 0)
]


@pytest.mark.parametrize("spec", WEN_SPECS, ids=lambda s: f"{s.boundary}{s.rows}x{s.cols}")
def test_the_tableaux_are_the_dense_ground_states(spec):
    # a state is fixed by its n stabilizers up to a phase, so each tableau
    # equals the conftest ground state when every stabilizer fixes that state
    dense = lattice_ground(spec)
    tableaux = [ground_state_projector(spec)]
    if spec.boundary == "open":
        swept, stages = ground_state_sweep(spec)
        assert sorted(entry[:2] for stage in stages for entry in stage) == sorted(
            t.index for t in build_wen(spec).terms if sum(t.index) % 2 == 0)
        tableaux.append(swept)
    for tableau in tableaux:
        for g in tableau.stabilizers:
            assert np.abs(pauli_image(g, dense) - dense).max() <= 1e-12
        for term in build_wen(spec).terms:
            want = np.vdot(dense, pauli_image(term.operator, dense)).real
            assert tableau.expectation(term.operator) == 1
            assert abs(want - 1.0) <= 1e-12
    assert tableaux[-1].overlap(tableaux[0]) == 1.0


def test_the_ground_work_grows_at_most_as_the_square_of_the_spins(monkeypatch):
    # each of the ~n + T operations (T terms) scans at most two rows per spin,
    # so the counted work is bounded by n * (n + T), a quadratic in n; its
    # share of that budget must not grow from 64 to 256 spins
    budget = {side: side * side * (side * side + (side - 1) ** 2) for side in (8, 16)}
    work = {side: counted_ground_work(monkeypatch, side) for side in (8, 16)}
    assert work[16] / budget[16] <= work[8] / budget[8] <= 2.0


def logical_rotations(n, k):
    """Rotations ``(letters per logical qubit, stabilizer subset, sign, angle)``
    of a code with ``k`` logical qubits on ``n`` sites."""
    return st.lists(st.tuples(
        st.lists(st.sampled_from("IXYZ"), min_size=k, max_size=k),
        st.integers(0, (1 << (n - k)) - 1),
        st.sampled_from([0, 2]),
        st.floats(-math.pi, math.pi),
    ), max_size=6)


def codes(n):
    """A code of ``k`` logical qubits scrambled by pi/4 rotations, a start and its rotations."""
    return st.integers(1, min(2, n)).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(strings(n), max_size=8),
        st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1 << k, max_size=1 << k),
        logical_rotations(n, k),
        st.lists(st.tuples(strings(n), st.floats(-math.pi, math.pi)), max_size=2),
    ))


def hermitian(q):
    """``q`` times the power of ``i`` that makes its phase real."""
    return q.with_phase_exp(q.phase_exp + q.phase_exp % 2)


def logical_string(pairs, stabilizers, letters, subset, sign):
    """The product of the logical letters and the stabilizers in ``subset``, made Hermitian."""
    q = PauliString.from_sites(pairs[0][0].n_sites, {})
    for (x, z), letter in zip(pairs, letters):
        if letter in "XY":
            q = multiply(q, x)
        if letter in "ZY":
            q = multiply(q, z)
    for k, g in enumerate(stabilizers):
        if subset >> k & 1:
            q = multiply(q, g)
    q = hermitian(q)
    return q.with_phase_exp(q.phase_exp + sign)


def basis_vectors(pairs, vector):
    """``X^b |vector>`` for every ``b``, the first pair the most significant bit."""
    out = []
    for b in range(1 << len(pairs)):
        v = vector
        for j, (x, _) in enumerate(pairs):
            if b >> (len(pairs) - 1 - j) & 1:
                v = kron_string(x) @ v
        out.append(v)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), codes(n))))
def test_the_frame_matches_the_kron_oracle(case):
    # |0...0> with X_j, Z_j on the first k sites and Z on the others as the
    # code's stabilizers, scrambled by pi/4 rotations on the tableau, on
    # every logical string and on the kron vector alike
    n, (k, scramble, start, rotations, probes) = case
    base, vector = StabilizerState.product("Z" * n), kron_product_state("Z" * n)
    pairs = [(PauliString.from_sites(n, {j: "X"}), PauliString.from_sites(n, {j: "Z"}))
             for j in range(k)]
    stabilizers = [PauliString.from_sites(n, {j: "Z"}) for j in range(k, n)]
    for s in scramble:
        base.rotate(s)
        pairs = [(quarter_conjugate(x, s), quarter_conjugate(z, s)) for x, z in pairs]
        stabilizers = [quarter_conjugate(g, s) for g in stabilizers]
        vector = (vector - 1j * kron_string(s) @ vector) / math.sqrt(2.0)
    frame = LogicalFrame(base, pairs, start)
    rows = (list(base.stabilizers), list(base.destabilizers))
    basis = basis_vectors(pairs, vector)
    state = sum(a * v for a, v in zip(start, basis))
    steps = [(logical_string(pairs, stabilizers, *spec[:3]), spec[3]) for spec in rotations]
    for q, angle in [*steps, *probes]:
        if all(commutes(q, g) for g in stabilizers):
            frame.evolve(q, angle)
            state = math.cos(angle) * state - 1j * math.sin(angle) * (kron_string(q) @ state)
        else:
            before = list(frame.amplitudes)
            with pytest.raises(ValueError, match="does not keep the code space of the frame"):
                frame.evolve(q, angle)
            assert frame.amplitudes == before
    want = [np.vdot(v, state) for v in basis]
    assert max(abs(a - w) for a, w in zip(frame.amplitudes, want)) <= 1e-12
    assert (base.stabilizers, base.destabilizers) == rows  # the tableau is never changed


def test_a_rotation_that_leaves_the_code_space_raises():
    # one logical qubit on site 0 of |00>, whose site 1 is fixed by the stabilizer IZ
    x, z = PauliString.parse("XI"), PauliString.parse("ZI")
    frame = LogicalFrame(StabilizerState.product("ZZ"), [(x, z)], [0.6, 0.8j])
    for q in ("IX", "XY", "-ZX"):
        with pytest.raises(ValueError, match=f"^{re.escape(q)} does not keep the code space"):
            frame.evolve(PauliString.parse(q), 0.3)
    assert frame.amplitudes == [0.6, 0.8j]
    # exp(-i pi/2 YZ) = -i YZ, and YZ|00> = i|10>, YZ|10> = -i|00>
    frame.evolve(PauliString.parse("YZ"), math.pi / 2.0)
    assert frame.amplitudes == pytest.approx([-0.8j, 0.6], abs=1e-15)


def test_a_frame_refuses_a_logical_z_that_does_not_fix_its_base():
    x, z = PauliString.parse("XI"), PauliString.parse("ZI")
    with pytest.raises(ValueError, match="^the logical ZI does not fix the base state$"):
        LogicalFrame(StabilizerState.product("XZ"), [(x, z)], [1, 0])
    with pytest.raises(ValueError, match="^the logical -ZI does not fix the base state$"):
        LogicalFrame(StabilizerState.product("ZZ"), [(x, PauliString.parse("-ZI"))], [1, 0])
    with pytest.raises(ValueError, match="^1 logical pairs take 2 amplitudes, not 4$"):
        LogicalFrame(StabilizerState.product("ZZ"), [(x, z)], [1, 0, 0, 0])
