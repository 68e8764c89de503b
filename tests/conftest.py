"""Shared brute-force helpers: an independent np.kron Pauli oracle.

Everything here is built from 2x2 matrices and numpy/scipy only, so the
tests never trust the package's own dense backend for ground truth.
"""

import numpy as np
import pytest
import scipy.linalg

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


def frobenius_distance(a, b):
    """Frobenius norm of ``a - b``."""
    return float(np.linalg.norm(a - b))


def random_string_letters(rng, n_sites, min_weight=2):
    """Random letter tuple with at least ``min_weight`` non-identity sites."""
    while True:
        letters = tuple(rng.choice(["I", "X", "Y", "Z"]) for _ in range(n_sites))
        if sum(1 for l in letters if l != "I") >= min_weight:
            return letters


@pytest.fixture
def dense16(monkeypatch):
    """Raise the dense-oracle ceiling to cover 16-spin lattices."""
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "16")
