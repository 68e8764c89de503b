"""Shared brute-force helpers: an independent np.kron Pauli oracle.

Everything here is built from 2x2 matrices and numpy/scipy only, so the
tests never trust the package's own dense backend for ground truth.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from qsakit.toric_lattice import build_variant

SIGMA = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


# Single-site products, written out letter by letter as a reference for the
# package's bit-packed algebra: (a, b) -> (letter of a*b, power of i).
# E.g. X*Y = iZ, Z*Y = -iX.
PRODUCT = {}
for _l in "IXYZ":
    PRODUCT[("I", _l)] = (_l, 0)
    PRODUCT[(_l, "I")] = (_l, 0)
    PRODUCT[(_l, _l)] = ("I", 0)
PRODUCT[("X", "Y")] = ("Z", 1)
PRODUCT[("Y", "X")] = ("Z", 3)
PRODUCT[("Y", "Z")] = ("X", 1)
PRODUCT[("Z", "Y")] = ("X", 3)
PRODUCT[("Z", "X")] = ("Y", 1)
PRODUCT[("X", "Z")] = ("Y", 3)


def letter_product(a_letters, a_phase, b_letters, b_phase):
    """(letters, phase exponent mod 4) of a product, site by site."""
    letters, phase = [], a_phase + b_phase
    for la, lb in zip(a_letters, b_letters):
        letter, extra = PRODUCT[(la, lb)]
        letters.append(letter)
        phase += extra
    return tuple(letters), phase % 4


def letters_commute(a_letters, b_letters):
    """Even count of sites where both letters are non-identity and differ."""
    clashes = sum(1 for la, lb in zip(a_letters, b_letters) if "I" != la != lb != "I")
    return clashes % 2 == 0


def kron_letters(letters):
    """Tensor product of single-site Paulis, site 0 leftmost."""
    m = np.array([[1.0 + 0.0j]])
    for letter in letters:
        m = np.kron(m, SIGMA[letter])
    return m


def kron_string(string):
    """Dense matrix of a PauliString including its i**phase_exp prefix."""
    return (1j ** string.phase_exp) * kron_letters(string.letters)


def kron_sum(weighted_sum):
    """Dense matrix of a WeightedPauliSum."""
    dim = 1 << weighted_sum.n_sites
    m = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, string in weighted_sum.terms:
        m += coeff * kron_string(string)
    return m


def kron_expm(generator_matrix, angle):
    """scipy's exp(-i angle H) as the independent propagator oracle."""
    return scipy.linalg.expm(-1j * angle * generator_matrix)


def bitwise_equal(a, b):
    """Equal shapes and equal real and imaginary parts, entry by entry; a
    scalar counts as one entry."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and np.array_equal(a.view(float), b.view(float))


def frobenius_distance(a, b):
    """Frobenius norm of ``a - b``."""
    return float(np.linalg.norm(a - b))


def random_string_letters(rng, n_sites, min_weight=2):
    """Random letter tuple with at least ``min_weight`` non-identity sites."""
    while True:
        letters = tuple(rng.choice(["I", "X", "Y", "Z"]) for _ in range(n_sites))
        if sum(1 for l in letters if l != "I") >= min_weight:
            return letters


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of ``module`` to count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def dense16(monkeypatch):
    """Raise the dense-oracle ceiling to cover 16-spin lattices."""
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "16")


ZERO = np.array([1.0, 0.0], dtype=np.complex128)
PLUS = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


def kron_product_state(letters):
    """|0> for each ``Z`` and |+> for each ``X``, site 0 first."""
    state = np.array([1.0], dtype=np.complex128)
    for letter in letters:
        state = np.kron(state, ZERO if letter == "Z" else PLUS)
    return state


def pauli_image(string, state):
    """``string |state>`` by axis flips and signs on the ``(2,)*n`` tensor, site 0
    first: the action of :func:`kron_string`, for registers whose matrices
    would not fit."""
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


def projected(state, strings):
    """The unit vector along ``prod (1 + P)/2 |state>`` over commuting Hermitian ``strings``."""
    for string in strings:
        state = (state + pauli_image(string, state)) / 2.0
    return state / np.linalg.norm(state)


def rotated(state, string, angle):
    """``exp(-i angle P)|state>`` of a Hermitian string ``P``, which squares to 1."""
    return math.cos(angle) * state - 1j * math.sin(angle) * pauli_image(string, state)


def lattice_ground(spec):
    """The Wen ground state (the |0>/|+> seed projected onto every even
    plaquette) or the hole model's code state (|0...0> projected onto every
    kept vertex star), as a vector."""
    terms = build_variant(spec).terms
    if spec.model == "wen":
        seed = kron_product_state(
            "ZX"[(i + j) % 2] for i in range(spec.rows) for j in range(spec.cols))
        return projected(seed, [t.operator for t in terms if sum(t.index) % 2 == 0])
    zero = np.zeros(1 << spec.n_sites, dtype=np.complex128)
    zero[0] = 1.0
    return projected(zero, [t.operator for t in terms if t.kind == "vertex"])


def stabilizer_vector(state, seed=0):
    """The unit vector a tableau ``state`` fixes, up to its global phase: a
    random vector projected onto the +1 space of every stabilizer."""
    rng = np.random.default_rng(seed)
    dim = 1 << state.stabilizers[0].n_sites
    return projected(rng.normal(size=dim) + 1j * rng.normal(size=dim), state.stabilizers)
