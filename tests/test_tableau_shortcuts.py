"""The tableau's shortcuts: the overlap of two tableaux with the same letters,
and one register check per operation instead of one per row."""

import random

import numpy as np
import pytest
from conftest import counted_ground_work, kron_product_state, kron_string

from qsakit import stabilizer_state
from qsakit.pauli_core import PauliString
from qsakit.stabilizer_state import StabilizerState


def random_string(rng, n):
    letters = [rng.choice("IXYZ") for _ in range(n)]
    return PauliString(n, letters, rng.choice([0, 2]))


def random_state(rng, n):
    """A seeded random stabilizer state and its kron vector: a product seed, then
    pi/4 rotations and string applications."""
    seed = "".join(rng.choice("ZX") for _ in range(n))
    state, vector = StabilizerState.product(seed), kron_product_state(seed)
    for _ in range(rng.randrange(8)):
        q = random_string(rng, n)
        image = kron_string(q) @ vector
        if rng.random() < 0.5:
            state.rotate(q)
            vector = (vector - 1j * image) / np.sqrt(2.0)
        else:
            state.apply_string(q)
            vector = image
    return state, vector


def letters(state):
    return [(g.x, g.z) for g in state.stabilizers]


def reordered(state, rng):
    """The same state with its rows (stabilizer and destabilizer together) shuffled."""
    order = list(range(len(state.stabilizers)))
    rng.shuffle(order)
    return StabilizerState([state.stabilizers[k] for k in order],
                           [state.destabilizers[k] for k in order])


@pytest.mark.parametrize("seed", range(40))
def test_the_same_letters_overlap_agrees_with_the_projection_route(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    a, vec_a = random_state(rng, n)
    b, vec_b = a.copy(), vec_a
    for _ in range(rng.randrange(3)):  # flips the signs the strings anticommute with
        q = random_string(rng, n)
        b.apply_string(q)
        vec_b = kron_string(q) @ vec_b
    assert letters(a) == letters(b)
    want = abs(np.vdot(vec_a, vec_b)) ** 2
    fast = a.overlap(b)
    assert fast in (0.0, 1.0) and abs(fast - want) <= 1e-12
    # rows in another order differ in their letters, so they take the projections
    shuffled = reordered(a, rng)
    if letters(shuffled) != letters(a):
        assert shuffled.overlap(b) == fast
    # and unrelated states take them too
    c, vec_c = random_state(rng, n)
    assert abs(a.overlap(c) - abs(np.vdot(vec_a, vec_c)) ** 2) <= 1e-12


def test_a_sign_flip_on_a_copy_is_orthogonal_without_projections(monkeypatch):
    state = StabilizerState.product("ZXZX")
    flipped = state.copy()
    flipped.apply_string(PauliString.parse("XIII"))
    monkeypatch.setattr(StabilizerState, "_force_plus", None)  # no projection may run
    assert (state.overlap(flipped), state.overlap(state.copy())) == (0.0, 1.0)


def test_tableaux_of_other_widths_are_refused():
    wide, narrow = StabilizerState.product("ZX"), StabilizerState.product("Z")
    with pytest.raises(ValueError, match="register mismatch: 2 vs 1 sites"):
        narrow.overlap(wide)


@pytest.mark.parametrize("operation", ["apply_string", "rotate", "expectation", "project"])
def test_a_string_on_another_register_is_refused_once(monkeypatch, operation):
    state = StabilizerState.product("ZXZ")
    tested = []
    parity = stabilizer_state._anticommute
    monkeypatch.setattr(stabilizer_state, "_anticommute",
                        lambda a, b: tested.append(a) or parity(a, b))
    with pytest.raises(ValueError, match="register mismatch: 3 vs 2 sites"):
        getattr(state, operation)(PauliString.parse("XZ"))
    assert tested == []  # refused before any row is tested
    getattr(state, operation)(PauliString.parse("ZII"))
    assert tested


def test_the_ground_row_scans_grow_at_most_as_the_square_of_the_spins(monkeypatch):
    # the row loops test the bare parity, which the counted work includes: the
    # share of n * (n + T) (n spins, T terms) that the work of toric ground on
    # open side x side takes must not grow
    share = {side: counted_ground_work(monkeypatch, side)
             / (side * side * (side * side + (side - 1) ** 2)) for side in (8, 16)}
    assert 1.0 < share[16] <= share[8]  # the parity tests are counted
