"""Pauli-string algebra against the independent np.kron oracle."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.pauli_core import (
    PauliFormatError,
    PauliString,
    WeightedPauliSum,
    anticommuting_pairs,
    commutes,
    float_field,
    is_involution,
    multiply,
    restrict,
    square,
    sum_commutes,
)

from conftest import (
    kron_string,
    kron_sum,
    letter_product,
    letters_commute,
    random_string_letters,
)

SEED = 20240811


def random_string(rng, n_sites, min_weight=0):
    letters = tuple(rng.choice(["I", "X", "Y", "Z"]) for _ in range(n_sites))
    if min_weight and sum(1 for l in letters if l != "I") < min_weight:
        letters = random_string_letters(rng, n_sites, min_weight)
    return PauliString(n_sites, letters, int(rng.integers(0, 4)))


def test_parse_format_round_trip():
    for text in ["XZZX", "IY", "-iXY", "iZ", "-Z", "IIXII", "YYYY"]:
        assert PauliString.parse(text).format() == text


def test_parse_rejects_garbage():
    for bad in ["", "-i", "XQ", "ix", "X Z"]:
        with pytest.raises(PauliFormatError):
            PauliString.parse(bad)
    with pytest.raises(PauliFormatError):
        PauliString.parse("XZ", n_sites=3)


def test_phase_prefix_values():
    assert PauliString.parse("X").phase == 1
    assert PauliString.parse("iX").phase == 1j
    assert PauliString.parse("-X").phase == -1
    assert PauliString.parse("-iX").phase == -1j


def test_support_weight_letter():
    s = PauliString.parse("IXIZY")
    assert s.support == (1, 3, 4)
    assert s.weight == 3
    assert s.letter(3) == "Z"
    assert not s.is_identity()
    assert PauliString.from_sites(4, {}).is_identity()


def test_multiply_matches_kron_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = random_string(rng, n)
        b = random_string(rng, n)
        got = kron_string(multiply(a, b))
        want = kron_string(a) @ kron_string(b)
        assert np.allclose(got, want, atol=1e-12)


def test_multiply_known_products():
    x = PauliString.parse("X")
    y = PauliString.parse("Y")
    z = PauliString.parse("Z")
    assert multiply(x, y).format() == "iZ"
    assert multiply(y, x).format() == "-iZ"
    assert multiply(x, x).format() == "I"
    assert multiply(z, x).format() == "iY"


def test_adjoint_conjugates_phase():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        s = random_string(rng, int(rng.integers(1, 5)))
        assert np.allclose(
            kron_string(s.adjoint()), kron_string(s).conj().T, atol=1e-12
        )


def test_commutes_matches_kron_commutator():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = random_string(rng, n)
        b = random_string(rng, n)
        ma, mb = kron_string(a), kron_string(b)
        assert commutes(a, b) == bool(
            np.allclose(ma @ mb, mb @ ma, atol=1e-12)
        )


def brute_force_anticommuting(strings):
    return [
        (a, b)
        for a in range(len(strings))
        for b in range(a + 1, len(strings))
        if not commutes(strings[a], strings[b])
    ]


@st.composite
def string_batches(draw):
    """Strings on one register; identity-heavy, so supports are often disjoint."""
    n = draw(st.integers(1, 10))
    letters = st.lists(st.sampled_from("IIIXYZ"), min_size=n, max_size=n)
    rows = draw(st.lists(letters, max_size=12))
    phases = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    return [PauliString(n, tuple(r), p) for r, p in zip(rows, phases)]


@settings(max_examples=300, deadline=None)
@given(string_batches())
def test_anticommuting_pairs_matches_brute_force(strings):
    assert anticommuting_pairs(strings) == brute_force_anticommuting(strings)


def test_anticommuting_pairs_known_cases():
    strings = [PauliString.parse(t) for t in ["XXII", "IIZZ", "IZIZ", "ZIII", "YYYY"]]
    # (0, 2) clash at site 1 and (0, 3) at site 0; YYYY clashes twice with
    # each of the first three strings but once with ZIII
    assert anticommuting_pairs(strings) == [(0, 2), (0, 3), (3, 4)]
    assert anticommuting_pairs(strings) == brute_force_anticommuting(strings)
    assert anticommuting_pairs([]) == []
    with pytest.raises(ValueError):
        anticommuting_pairs([PauliString.parse("XX"), PauliString.parse("Z")])


def test_register_width_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(PauliString.parse("XX"), PauliString.parse("X"))
    with pytest.raises(ValueError, match="^term on 1 sites in a 2-site sum$"):
        WeightedPauliSum.from_terms(2, [(1.0, PauliString.parse("X"))])


def test_sum_folds_duplicates_and_orders():
    x = PauliString.parse("XI")
    z = PauliString.parse("ZZ")
    s = WeightedPauliSum.from_terms(2, [(0.5, x), (1.0, z), (0.25, x)])
    assert len(s.terms) == 2
    assert np.allclose(
        kron_sum(s), 0.75 * kron_string(x) + kron_string(z), atol=1e-12
    )


def test_sum_folds_phases_into_real_coefficients():
    s = WeightedPauliSum.from_terms(1, [(1.0, PauliString.parse("-X"))])
    ((coeff, string),) = s.terms
    assert coeff == -1.0 and string.phase_exp == 0
    with pytest.raises(ValueError):
        WeightedPauliSum.from_terms(1, [(1.0, PauliString.parse("iX"))])


def test_sum_drops_cancelled_terms():
    x = PauliString.parse("X")
    s = WeightedPauliSum.from_terms(1, [(1.0, x), (-1.0, x)])
    assert s.terms == ()


def test_sum_square_matches_kron():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a = WeightedPauliSum.from_terms(
            n,
            [
                (float(rng.normal()), random_string(rng, n).with_phase_exp(0))
                for _ in range(int(rng.integers(1, 4)))
            ],
        )
        if not a.terms:
            continue
        m = kron_sum(a)
        assert np.allclose(kron_sum(square(a)), m @ m, atol=1e-10)


def test_sum_product_rejects_non_real_results():
    x = WeightedPauliSum.from_string(PauliString.parse("X"))
    y = WeightedPauliSum.from_string(PauliString.parse("Y"))
    with pytest.raises(ValueError):
        x * y  # X*Y = iZ has no real-coefficient representation


def test_sum_commutes_matches_kron():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = WeightedPauliSum.from_terms(
            n,
            [
                (float(rng.normal()), random_string(rng, n).with_phase_exp(0))
                for _ in range(2)
            ],
        )
        b = WeightedPauliSum.from_terms(
            n,
            [
                (float(rng.normal()), random_string(rng, n).with_phase_exp(0))
                for _ in range(2)
            ],
        )
        if not a.terms or not b.terms:
            continue
        ma, mb = kron_sum(a), kron_sum(b)
        assert sum_commutes(a, b) == bool(
            np.allclose(ma @ mb, mb @ ma, atol=1e-10)
        )


def test_square_and_involution():
    root2 = np.sqrt(2.0)
    h = WeightedPauliSum.from_terms(
        1,
        [(1 / root2, PauliString.parse("X")), (1 / root2, PauliString.parse("Z"))],
    )
    assert is_involution(h)
    assert square(h).is_identity()
    attach = WeightedPauliSum.from_terms(
        2,
        [(1 / root2, PauliString.parse("ZI")), (1 / root2, PauliString.parse("XX"))],
    )
    assert is_involution(attach)
    not_inv = WeightedPauliSum.from_terms(
        1, [(1.0, PauliString.parse("X")), (1.0, PauliString.parse("Z"))]
    )
    assert not is_involution(not_inv)


def test_single_string_sums_are_involutions():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        s = random_string(rng, n, min_weight=1).with_phase_exp(0)
        assert is_involution(WeightedPauliSum.from_string(s))


# -- the algebra against the kron oracle, on random phased strings and sums -----


@st.composite
def phased_strings(draw, n):
    letters = tuple(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
    return PauliString(n, letters, draw(st.integers(0, 3)))


# small integers and halves: every cancellation in a collected sum is exact
COEFFS = st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0])


@st.composite
def weighted_terms(draw, n):
    """(coefficient, phased string) pairs whose products are real: each
    coefficient carries the conjugate of its string's phase."""
    strings = draw(st.lists(phased_strings(n), min_size=1, max_size=5))
    return [(draw(COEFFS) * (-1j) ** s.phase_exp, s) for s in strings]


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(1, 6))
    a, b = draw(phased_strings(n)), draw(phased_strings(n))
    terms_a = draw(weighted_terms(n))
    sum_a = WeightedPauliSum.from_terms(n, terms_a)
    kind = draw(st.sampled_from(["random", "square", "scaled", "pair"]))
    if kind == "square":
        sum_b = square(sum_a)
    elif kind == "scaled":
        factor = draw(COEFFS)
        sum_b = WeightedPauliSum.from_terms(n, [(factor * c, s) for c, s in sum_a.terms])
    elif kind == "pair":  # (0.6 P + 0.8 Q): an involution iff P, Q anticommute
        p, q = draw(phased_strings(n)), draw(phased_strings(n))
        sum_b = WeightedPauliSum.from_terms(
            n, [(0.6 * (-1j) ** p.phase_exp, p), (0.8 * (-1j) ** q.phase_exp, q)]
        )
    else:
        sum_b = WeightedPauliSum.from_terms(n, draw(weighted_terms(n)))
    return a, b, terms_a, sum_a, sum_b


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_algebra_matches_the_kron_oracle(case):
    a, b, terms_a, sum_a, sum_b = case
    ma, mb = kron_string(a), kron_string(b)
    assert np.array_equal(kron_string(multiply(a, b)), ma @ mb)
    assert commutes(a, b) == np.array_equal(ma @ mb, mb @ ma)

    want = sum(c * kron_string(s) for c, s in terms_a)
    assert np.abs(kron_sum(sum_a) - want).max() <= 1e-12
    assert all(s.phase_exp == 0 and abs(c) > 1e-12 for c, s in sum_a.terms)
    assert len({s.letters for _, s in sum_a.terms}) == len(sum_a.terms)

    ha, hb = kron_sum(sum_a), kron_sum(sum_b)
    assert sum_commutes(sum_a, sum_b) == (np.abs(ha @ hb - hb @ ha).max() <= 1e-9)
    eye = np.eye(len(hb))
    for h, m in ((sum_a, ha), (sum_b, hb)):
        assert is_involution(h) == (np.abs(m @ m - eye).max() <= 1e-9)


def test_from_terms_refuses_a_non_real_collection():
    with pytest.raises(ValueError, match="non-real"):
        WeightedPauliSum.from_terms(2, [(1.0, PauliString.parse("iXZ"))])


# -- the bit-packed core against the letter-by-letter reference -----------------

_PREFIX = ("", "i", "-", "-i")


def wide_letters(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


# word boundaries of the bit masks (63, 64, 65, 128) always run, next to
# random widths up to 200
@pytest.mark.parametrize("width", [63, 64, 65, 128, None])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bit_packed_core_matches_the_letter_table(width, data):
    n = width or data.draw(st.integers(1, 200))
    la, lb = data.draw(wide_letters(n)), data.draw(wide_letters(n))
    pa, pb = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a, b = PauliString(n, tuple(la), pa), PauliString(n, tuple(lb), pb)

    product = multiply(a, b)
    assert (product.letters, product.phase_exp) == letter_product(la, pa, lb, pb)
    assert commutes(a, b) == letters_commute(la, lb)

    support = tuple(i for i, letter in enumerate(la) if letter != "I")
    assert a.letters == tuple(la)
    assert a.support == support
    assert a.weight == len(support)
    assert a.is_identity() == (not support)
    assert [a.letter(i) for i in range(n)] == list(la)
    assert a.letter(-1) == la[-1]
    assert a.format() == _PREFIX[pa] + la
    assert PauliString.parse(a.format()) == a

    # the same operator built three ways is one value
    from_sites = PauliString.from_sites(n, {i: la[i] for i in support}).with_phase_exp(pa)
    from_product = multiply(multiply(a, b), b.adjoint())
    for other in (from_sites, from_product):
        assert other == a and hash(other) == hash(a)
    assert a != a.with_phase_exp(pa + 1)

    # collected sums keep the letter order
    rows = data.draw(st.lists(wide_letters(n), min_size=1, max_size=8))
    total = WeightedPauliSum.from_terms(
        n, [(1.0 + k, PauliString(n, tuple(row))) for k, row in enumerate(rows)]
    )
    order = [s.letters for _, s in total.terms]
    assert order == sorted(set(tuple(row) for row in rows))


def test_constructor_errors_and_numpy_letters():
    with pytest.raises(ValueError, match="^n_sites must be positive, got 0$"):
        PauliString(0, ())
    with pytest.raises(ValueError, match="^expected 3 letters, got 2$"):
        PauliString(3, ("X", "Y"))
    with pytest.raises(ValueError, match=r"^invalid Pauli letters: \['Q', 'x'\]$"):
        PauliString(4, ("X", "Q", "x", "I"))
    with pytest.raises(ValueError, match=r"^invalid Pauli letters: \['Q'\]$"):
        PauliString.from_sites(3, {2: "Q", 0: "X"})
    with pytest.raises(ValueError, match="^site 5 out of range for 3 sites$"):
        PauliString.from_sites(3, {5: "X"})
    with pytest.raises(ValueError, match="^n_sites must be positive, got 0$"):
        PauliString.from_sites(0, {})

    letters = np.array(["X", "I", "Z", "Y"])
    assert isinstance(letters[0], np.str_)
    s = PauliString(4, tuple(letters), np.int64(2))
    assert s == PauliString.parse("-XIZY")
    assert s.letters == ("X", "I", "Z", "Y")
    assert PauliString.from_sites(4, {np.int64(3): letters[0]}).format() == "IIIX"


def test_strings_are_immutable():
    s = PauliString.parse("XZ")
    for name, value in (("x", 0), ("z", 0), ("phase_exp", 1), ("n_sites", 3), ("letters", ())):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    with pytest.raises(AttributeError):
        del s.x
    assert s == PauliString.parse("XZ")
    assert repr(s) == "PauliString(n_sites=2, letters=('X', 'Z'), phase_exp=0)"
    assert s != 3 and s.__eq__(3) is NotImplemented
    assert str(WeightedPauliSum.from_terms(2, [])) == "0"
    assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s


@pytest.mark.parametrize("value, error, message", [
    (None, TypeError, "J: float() argument must be a string or a real number, not 'NoneType'"),
    (10**400, ValueError, "J: int too large to convert to float"),
], ids=["null", "huge-integer"])
def test_float_field_names_the_field_it_refuses(value, error, message):
    with pytest.raises(error) as info:
        float_field(value, "J")
    assert type(info.value) is error and str(info.value) == message


def test_restrict_keeps_the_letters_and_phase_of_the_support():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        string = random_string(rng, n)
        extra = [s for s in range(n) if s not in string.support and rng.random() < 0.5]
        sites = sorted({*string.support, *extra}) or [0]
        local = restrict(string, sites)
        assert local.n_sites == len(sites) and local.phase_exp == string.phase_exp
        assert local.letters == tuple(string.letter(s) for s in sites)
        # on the full register the string is the local one on its sites, identity elsewhere
        order = [*sites, *(s for s in range(n) if s not in sites)]
        full = np.kron(kron_string(local), np.eye(1 << (n - len(sites)))).reshape((2,) * (2 * n))
        inverse = np.argsort(order)
        full = full.transpose([*inverse, *(n + inverse)]).reshape(1 << n, 1 << n)
        assert np.array_equal(full, kron_string(string))


def test_restrict_refuses_a_site_list_that_misses_the_support():
    with pytest.raises(ValueError, match=r"site 3 of -XIIZ is not in \[0, 1\]"):
        restrict(PauliString.parse("-XIIZ"), [0, 1])
    with pytest.raises(ValueError, match="n_sites must be positive"):
        restrict(PauliString.parse("II"), [])
