"""The stabilizer tableau against the kron oracle and the dense ground states."""

import itertools
import math

import numpy as np
import pytest
from conftest import count_calls, kron_string
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit import propagator_engine, stabilizer_state
from qsakit.pauli_core import PauliString
from qsakit.stabilizer_state import ProjectionError, StabilizerState
from qsakit.toric_lattice import (
    LatticeSpec,
    build_wen,
    ground_state_projector,
    ground_state_sweep,
    projector_tableau,
    sweep_tableau,
)

ZERO = np.array([1.0, 0.0], dtype=np.complex128)
PLUS = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


def kron_product_state(letters):
    """|0> for each ``Z`` and |+> for each ``X``, site 0 first."""
    state = np.array([1.0], dtype=np.complex128)
    for letter in letters:
        state = np.kron(state, ZERO if letter == "Z" else PLUS)
    return state


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


def pauli_image(string, state):
    """``string |state>`` by axis flips and signs on the ``(2,)*n`` tensor, site 0
    first; written out here, apart from the package's dense oracle."""
    n = string.n_sites
    tensor = state.reshape((2,) * n) * (1j ** string.phase_exp)
    for site, letter in enumerate(string.letters):
        if letter in "YZ":  # Z first: Y = i X Z
            shape = [1] * n
            shape[site] = 2
            signs = np.array([1.0, -1.0]).reshape(shape)
            tensor = tensor * (signs * (1j if letter == "Y" else 1.0))
        if letter in "XY":
            tensor = np.flip(tensor, axis=site)
    return tensor.reshape(-1)


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
def test_the_tableaux_are_the_dense_ground_states(dense16, spec):
    # a state is fixed by its n stabilizers up to a phase, so each tableau
    # equals its dense state when every stabilizer fixes that state
    pairs = [(projector_tableau(spec), ground_state_projector(spec))]
    if spec.boundary == "open":
        (swept, stages), (dense_swept, dense_stages) = sweep_tableau(spec), ground_state_sweep(spec)
        assert stages == dense_stages
        pairs.append((swept, dense_swept))
    for tableau, dense in pairs:
        for g in tableau.stabilizers:
            assert np.abs(pauli_image(g, dense) - dense).max() <= 1e-12
        for term in build_wen(spec).terms:
            want = np.vdot(dense, pauli_image(term.operator, dense)).real
            assert tableau.expectation(term.operator) == 1
            assert abs(want - 1.0) <= 1e-12
    if spec.boundary == "open":
        (projected, dense_projected), _ = pairs
        assert swept.overlap(projected) == 1.0
        assert abs(abs(np.vdot(dense_swept, dense_projected)) ** 2 - 1.0) <= 1e-12


def counted_ground_work(monkeypatch, side):
    """``commutes`` and ``multiply`` calls of the open ``side x side`` ground
    tableaux, their overlap and every plaquette expectation (the work of
    ``toric ground``)."""
    calls = [count_calls(monkeypatch, module, "commutes", "multiply")
             for module in (stabilizer_state, propagator_engine)]
    spec = LatticeSpec(rows=side, cols=side)
    reference = projector_tableau(spec)
    swept, _ = sweep_tableau(spec)
    assert swept.overlap(reference) == 1.0
    assert all(swept.expectation(op) == 1 for op in build_wen(spec).operators())
    monkeypatch.undo()
    return sum(sum(c.values()) for c in calls)


def test_the_ground_work_grows_at_most_as_the_square_of_the_spins(monkeypatch):
    # each of the ~n + T operations (T terms) scans at most two rows per spin,
    # so the counted work is bounded by n * (n + T), a quadratic in n; its
    # share of that budget must not grow from 64 to 256 spins
    budget = {side: side * side * (side * side + (side - 1) ** 2) for side in (8, 16)}
    work = {side: counted_ground_work(monkeypatch, side) for side in (8, 16)}
    assert work[16] / budget[16] <= work[8] / budget[8] <= 2.0
