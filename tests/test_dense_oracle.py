"""Dense backend against np.kron matrices and scipy.linalg.expm."""

import contextlib
import dataclasses
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsakit import dense_oracle
from qsakit.analysis import pulse_product
from qsakit.dense_oracle import (
    MATRIX_QUBIT_CAP,
    PROBE_SEED,
    PROBES,
    ResourceLimitError,
    _random_state,
    apply_rotation,
    apply_schedule,
    apply_string,
    certified_distance,
    check_dense_limit,
    compare_pulses,
    distance,
    expectation,
    expm,
    fuse_pulses,
    max_dense_qubits,
    program_distances,
    pulse_unitary,
    run_pulses,
    schedule_unitary,
    string_action,
    to_matrix,
    verify_schedule,
)
from qsakit.pauli_core import PauliString, WeightedPauliSum, commutes
from qsakit.propagator_engine import (
    AttachmentSpec,
    SwapperSpec,
    make_attachment,
    make_swapper,
)
from qsakit.schedule_compiler import ConnectivityGraph, compile_schedule
from qsakit.toric_lattice import LatticeSpec, build_variant, digital_sequence

from conftest import (
    SIGMA,
    bitwise_equal,
    count_calls,
    frobenius_distance,
    kron_expm,
    kron_string,
    kron_sum,
    random_string_letters,
)

SEED = 20240814


def random_string(rng, n_sites):
    letters = tuple(rng.choice(["I", "X", "Y", "Z"]) for _ in range(n_sites))
    return PauliString(n_sites, letters, int(rng.integers(0, 4)))


def test_to_matrix_matches_kron():
    rng = np.random.default_rng(SEED)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        s = random_string(rng, n)
        assert np.allclose(to_matrix(s), kron_string(s), atol=1e-12)
        perm, phase = string_action(s)
        m = np.zeros((1 << n, 1 << n), dtype=np.complex128)
        m[perm, np.arange(1 << n)] = phase
        assert np.allclose(m, kron_string(s), atol=1e-12)


def test_apply_string_matches_kron_on_vectors():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        s = random_string(rng, n)
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(apply_string(s, vec), kron_string(s) @ vec, atol=1e-12)
    with pytest.raises(ValueError, match="^array of dimension 8 does not fit 2 sites$"):
        apply_string(PauliString.parse("XZ"), np.zeros(8, dtype=np.complex128))


def test_apply_rotation_matches_scipy_expm():
    rng = np.random.default_rng(SEED + 2)
    root2 = np.sqrt(2.0)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = PauliString(n, random_string_letters(rng, n, 1))
        # an anticommuting partner (different letter on one support site)
        # keeps (a + b)/sqrt(2) an involution, like real pulse generators
        site = int(a.support[0])
        other = {"X": "Z", "Y": "X", "Z": "Y"}[a.letter(site)]
        b = PauliString.from_sites(n, {site: other})
        h = WeightedPauliSum.from_terms(n, [(1 / root2, a), (1 / root2, b)])
        angle = float(rng.uniform(-3, 3))
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        got = apply_rotation(h, angle, vec)
        want = kron_expm(kron_sum(h), angle) @ vec
        assert np.allclose(got, want, atol=1e-10)


def test_expm_matches_scipy_for_sums():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        terms = [
            (float(rng.normal()), random_string(rng, n).with_phase_exp(0))
            for _ in range(int(rng.integers(1, 4)))
        ]
        h = WeightedPauliSum.from_terms(n, terms)
        if not h.terms:
            continue
        tg = float(rng.uniform(-2, 2))
        assert np.allclose(
            expm(h, tg), kron_expm(kron_sum(h), tg), atol=1e-10
        )


def test_distance_is_exact_spectral_norm():
    rng = np.random.default_rng(SEED + 4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    want = np.linalg.norm(a - b, ord=2)
    assert distance(a, b) == pytest.approx(want, rel=1e-12)
    assert distance(a, a) == 0.0
    assert frobenius_distance(a, b) >= distance(a, b) - 1e-12
    with pytest.raises(ValueError, match=r"^shape mismatch \(8, 8\) vs \(4, 4\)$"):
        distance(a, np.eye(4))


def test_random_state_is_the_seeded_gaussian_draw():
    v = _random_state(4, seed=5)
    # the probes of compare_pulses: real parts drawn first, then imaginary parts
    rng = np.random.default_rng(5)
    draw = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert v.dtype == np.complex128
    assert np.array_equal(v, draw / float(np.linalg.norm(draw)))
    assert np.isclose(np.linalg.norm(v), 1.0)
    z = np.zeros(4, dtype=np.complex128)
    z[3] = 1.0
    assert expectation(PauliString.parse("ZZ"), z) == pytest.approx(1.0)


def test_expectation_matches_kron():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        s = random_string(rng, n).with_phase_exp(0)
        v = _random_state(n, seed=int(rng.integers(0, 10**6)))
        want = np.vdot(v, kron_string(s) @ v)
        assert np.isclose(expectation(s, v), want, atol=1e-12)


@pytest.mark.parametrize("coeff", [1, -1, 0.5, 0.3, 1j])
def test_expectation_is_bitwise_the_applied_sum(coeff):
    # the one-term pass against <state| apply_sum(op) |state>, which fills a
    # zeroed sum with coeff * P|state>; a string phase of +-1 (+-i for 1j)
    # keeps the folded coefficient real; 0.3, unlike a power of two, rounds
    # differently when it is multiplied in elsewhere
    rng = np.random.default_rng(SEED + 5)
    phases = [1, 3] if coeff == 1j else [0, 2]
    for _ in range(40):
        n = int(rng.integers(1, 9))
        string = random_string(rng, n).with_phase_exp(int(rng.choice(phases)))
        op = WeightedPauliSum.from_terms(n, [(coeff, string)])
        state = _random_state(n, seed=int(rng.integers(0, 10**6)))
        want = np.vdot(state, dense_oracle.apply_sum(op, state))
        assert bitwise_equal(expectation(op, state), want)
        if coeff == 1:
            assert bitwise_equal(expectation(string, state), want)


def test_schedule_unitary_equals_pulse_product():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        target = PauliString(n, random_string_letters(rng, n))
        schedule = compile_schedule(
            target, ConnectivityGraph.complete(n), tg=float(rng.uniform(-2, 2))
        )
        u = np.eye(1 << n, dtype=np.complex128)
        for generator, angle in schedule.pulses():
            u = kron_expm(kron_sum(generator), angle) @ u
        assert np.allclose(schedule_unitary(schedule), u, atol=1e-9)


@pytest.mark.parametrize("target", ["XZZX", "YYYY", "XYZXY", "ZZZZZZ"])
def test_schedule_pulses_are_the_spec_rotations_in_time_order(target):
    n = len(target)
    schedule = compile_schedule(PauliString.parse(target), ConnectivityGraph.path(n), tg=0.3)
    swappers, layers = schedule.final_swappers, schedule.layers
    want = (
        [(spec.generator(n), spec.inverse_angle) for spec in swappers]
        + [(spec.generator(n), spec.inverse_angle) for layer in reversed(layers) for spec in layer]
        + [(WeightedPauliSum.from_string(schedule.seed), 0.3)]
        + [make_attachment(spec, n) for layer in layers for spec in layer]
        + [make_swapper(spec, n) for spec in swappers]
    )
    assert schedule.pulses() == want
    assert len(want) == 1 + 2 * (len(swappers) + sum(len(layer) for layer in layers))


def test_dense_products_are_square_arrays():
    n = 4
    x, zz = PauliString.parse("XIII"), PauliString.parse("ZZII")
    commuting = WeightedPauliSum.from_terms(n, [(0.5, x), (0.25, PauliString.parse("XXII"))])
    general = WeightedPauliSum.from_terms(n, [(0.5, x), (0.25, zz)])
    schedule = compile_schedule(PauliString.parse("XZZX"), ConnectivityGraph.complete(n), tg=0.3)
    products = [
        pulse_unitary(n, [(x, 0.2), (zz, 0.1)], "test"),
        schedule_unitary(schedule),
        to_matrix(x),
        to_matrix(commuting),
        expm(x, 0.3),
        expm(commuting, 0.3),
        expm(general, 0.3),
        pulse_product(n, schedule.pulses()),
        digital_sequence(LatticeSpec(rows=2, cols=2), tau=0.3).unitary(),
    ]
    for product in products:
        assert type(product) is np.ndarray
        assert product.shape == (1 << n, 1 << n)


def test_dense_oracle_imports_nothing_from_the_pulse_engine():
    assert "propagator_engine" not in Path(dense_oracle.__file__).read_text(encoding="utf-8")


def test_schedule_unitary_realizes_target_exponential():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        target = PauliString(n, random_string_letters(rng, n))
        tg = float(rng.uniform(-2, 2))
        schedule = compile_schedule(target, ConnectivityGraph.complete(n), tg=tg)
        want = kron_expm(kron_string(target), tg)
        assert distance(schedule_unitary(schedule), want) <= 1e-10


def test_apply_schedule_matches_unitary_action():
    rng = np.random.default_rng(SEED + 8)
    target = PauliString.parse("XZZX")
    schedule = compile_schedule(target, ConnectivityGraph.complete(4), tg=0.3)
    for k in range(5):
        v = _random_state(4, seed=k)
        got = apply_schedule(schedule, v)
        want = schedule_unitary(schedule) @ v
        assert np.allclose(got, want, atol=1e-12)
    del rng


def with_one_letter_changed(schedule, site=None):
    """The schedule with one target letter swapped: a planted defect."""
    letters = list(schedule.target.letters)
    site = schedule.target.support[0] if site is None else site
    letters[site] = {"X": "Z", "Y": "X", "Z": "Y"}[letters[site]]
    wrong = PauliString(schedule.n_sites, tuple(letters))
    return dataclasses.replace(schedule, target=wrong)


def test_verify_schedule_matrix_and_probe_paths():
    small = compile_schedule(
        PauliString.parse("XZZX"), ConnectivityGraph.complete(4), tg=0.3
    )
    report = verify_schedule(small)
    assert report["passed"] and report["metric"] == "spectral_distance_bound"
    report = verify_schedule(with_one_letter_changed(small))
    assert not report["passed"] and report["metric"] == "spectral_distance"

    n = MATRIX_QUBIT_CAP + 1
    big_target = PauliString(n, tuple("Z" * n))
    big = compile_schedule(big_target, ConnectivityGraph.complete(n), tg=0.2)
    report = verify_schedule(big)
    assert report["passed"] and report["metric"] == f"max_state_l2[{PROBES} probes]"


def test_env_var_limits_dense_work(monkeypatch):
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "4")
    assert max_dense_qubits() == 4
    check_dense_limit(4, "test")
    with pytest.raises(ResourceLimitError):
        check_dense_limit(5, "test")
    target = PauliString(5, tuple("Z" * 5))
    schedule = compile_schedule(target, ConnectivityGraph.complete(5))
    with pytest.raises(ResourceLimitError):
        schedule_unitary(schedule)
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS")
    assert max_dense_qubits() == 14


@pytest.mark.parametrize("n", [4, 6])
def test_schedule_unitary_is_bitwise_equal_under_every_admitting_limit(n):
    # on a path each attachment shares a site with the next, so runs of pulses
    # span 3 or more sites; the groups span up to FUSED_SITES sites whatever
    # the limit, so every limit that admits the register makes one product
    target = PauliString(n, tuple("XYZ"[k % 3] for k in range(n)))
    schedule = compile_schedule(target, ConnectivityGraph.path(n), "line_endpoints", 0.7)
    products = []
    for limit in (n, 8, 14):
        with dense_limit(limit):
            products.append(schedule_unitary(schedule))
            report = verify_schedule(schedule)
        assert report["passed"] and report["metric"] == "spectral_distance_bound"
    assert all(np.array_equal(u, products[0]) for u in products[1:])
    want = kron_expm(kron_string(target), 0.7)
    assert np.abs(products[0] - want).max() <= 1e-12


def test_a_one_qubit_swapper_runs_at_a_dense_limit_of_one():
    pulse = make_swapper(SwapperSpec(0, "X", "Z"), 1)
    state = _random_state(1, seed=3)
    want = run_pulses([pulse], state)
    with dense_limit(1):
        assert np.array_equal(run_pulses([pulse], state), want)


def test_a_lone_multi_term_pulse_wider_than_a_group_is_held_to_the_limit():
    # (P + Q)/sqrt(2) with P, Q anticommuting on all 8 sites: its own 2^8 x 2^8
    # matrix counts as a 16-qubit state
    p, q = PauliString.parse("XXXXXXXX"), PauliString.parse("YXXXXXXX")
    wide = WeightedPauliSum.from_terms(8, [(1 / math.sqrt(2.0), p), (1 / math.sqrt(2.0), q)])
    with dense_limit(14), pytest.raises(ResourceLimitError, match="local pulse unitary"):
        run_pulses([(wide, 0.3)], _random_state(8, seed=3))


def test_env_var_that_is_not_an_integer_is_malformed_input(monkeypatch):
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "abc")
    with pytest.raises(ValueError, match="QSA_MAX_DENSE_QUBITS"):
        max_dense_qubits()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_env_var_below_one_is_malformed_input(monkeypatch, value):
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", value)
    with pytest.raises(ValueError, match="QSA_MAX_DENSE_QUBITS value .* at least 1"):
        max_dense_qubits()
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "1")
    assert max_dense_qubits() == 1


# -- the pulse executor against the kron/scipy oracle --------------------------

PAULI = st.sampled_from("XYZ")


@st.composite
def local_generators(draw, n, window=None):
    """Two-term involutions on 1-3 sites of ``window`` (default: all ``n``):
    attachments, swappers, and any anticommuting pair (P + Q)/sqrt(2)."""
    window = range(n) if window is None else window
    kind = draw(st.sampled_from(["attachment", "swapper", "pair"]))
    if kind == "swapper" or len(window) == 1:
        alpha, beta = draw(st.lists(PAULI, min_size=2, max_size=2, unique=True))
        return SwapperSpec(draw(st.sampled_from(window)), alpha, beta).generator(n)
    if kind == "attachment":
        c, a = draw(st.lists(st.sampled_from(window), min_size=2, max_size=2, unique=True))
        alpha, beta = draw(st.lists(PAULI, min_size=2, max_size=2, unique=True))
        return AttachmentSpec(c, alpha, beta, a, draw(PAULI)).generator(n)
    sites = draw(st.lists(
        st.sampled_from(window), min_size=1, max_size=min(3, len(window)), unique=True
    ))
    p = PauliString.from_sites(n, {s: draw(PAULI) for s in sites})
    q = PauliString.from_sites(n, {s: draw(PAULI) for s in sites})
    assume(not commutes(p, q))
    return WeightedPauliSum.from_terms(
        n, [(1 / math.sqrt(2.0), p), (1 / math.sqrt(2.0), q)]
    )


@st.composite
def string_generators(draw, n):
    """One Pauli string of any weight (identity included), coefficient +-1."""
    letters = tuple(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
    coeff = draw(st.sampled_from([1.0, -1.0]))
    return WeightedPauliSum.from_terms(n, [(coeff, PauliString(n, letters))])


ANGLES = st.floats(-math.pi, math.pi, allow_nan=False)


@contextlib.contextmanager
def dense_limit(value):
    """Set (or, for None, unset) QSA_MAX_DENSE_QUBITS, restoring it afterwards."""
    saved = os.environ.pop("QSA_MAX_DENSE_QUBITS", None)
    if value is not None:
        os.environ["QSA_MAX_DENSE_QUBITS"] = str(value)
    try:
        yield
    finally:
        os.environ.pop("QSA_MAX_DENSE_QUBITS", None)
        if saved is not None:
            os.environ["QSA_MAX_DENSE_QUBITS"] = saved


@st.composite
def pulse_runs(draw):
    """Up to 12 pulses on 1-7 sites: two runs, some generators drawn from a
    2-3 site window so that a run fills the fused group's cap and overflows
    it, with a full-weight string between the runs."""
    n = draw(st.integers(1, 7))
    width = draw(st.integers(1, min(3, n)))
    start = draw(st.integers(0, n - width))
    window = range(start, start + width)
    generator = st.one_of(
        local_generators(n), local_generators(n, window), string_generators(n)
    )
    first = draw(st.lists(st.tuples(generator, ANGLES), min_size=1, max_size=6))
    second = draw(st.lists(st.tuples(generator, ANGLES), max_size=5))
    if second:
        wide = WeightedPauliSum.from_string(
            PauliString(n, tuple(draw(st.lists(PAULI, min_size=n, max_size=n))))
        )
        second.insert(0, (wide, draw(ANGLES)))
    pulses = first + second
    columns = draw(st.sampled_from([None, 1, 3]))
    limit = draw(st.sampled_from([None, 4, 6]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, pulses, columns, limit, seed


@settings(max_examples=200, deadline=None)
@given(pulse_runs())
def test_run_pulses_matches_kron_oracle(run):
    n, pulses, columns, limit, seed = run
    rng = np.random.default_rng(seed)
    shape = (1 << n,) if columns is None else (1 << n, columns)
    array = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = array.copy()
    want = array
    for generator, angle in pulses:
        want = kron_expm(kron_sum(generator), angle) @ want
    # every generator is at most FUSED_SITES wide or a single string, so no
    # limit refuses the run
    with dense_limit(limit):
        got = run_pulses(pulses, array)
    assert got.shape == shape
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(array, before)


def test_identity_pulses_fuse_into_a_group_on_no_site():
    identity = PauliString.parse("II")
    state = _random_state(2, seed=5)
    (group,) = fuse_pulses(2, [(identity, 0.3), (identity, 0.4)])
    assert group[0] == () and group[1].shape == (1, 1)
    got = run_pulses([(identity, 0.3), (identity, 0.4)], state)
    assert np.abs(got - np.exp(-0.7j) * state).max() <= 1e-15


def test_rotation_refuses_generators_that_are_not_involutions():
    x, z = PauliString.parse("XI"), PauliString.parse("ZI")
    raw = WeightedPauliSum.from_terms(2, [(1.0, x), (1.0, z)])
    inv_sqrt2 = 1 / math.sqrt(2.0)
    normalised = WeightedPauliSum.from_terms(2, [(inv_sqrt2, x), (inv_sqrt2, z)])
    swap = AttachmentSpec(0, "X", "Y", 1, "Z").generator(2)
    zz = PauliString.parse("ZZ")
    vec = _random_state(2, seed=3)
    for bad in (raw, WeightedPauliSum.from_terms(2, [(2.0, x)])):
        with pytest.raises(ValueError, match="not an involution") as err:
            apply_rotation(bad, 0.4, vec)
        assert str(bad) in str(err.value)
        with pytest.raises(ValueError, match="not an involution"):
            run_pulses([(normalised, 0.1), (bad, 0.4)], np.eye(4))
        # third in a run of four pulses on sites 0 and 1, fused into one group
        run = [(normalised, 0.1), (swap, 0.2), (bad, 0.4), (zz, 0.3)]
        matrix = np.eye(4, dtype=np.complex128)
        with pytest.raises(ValueError, match="not an involution") as err:
            run_pulses(run, matrix)
        assert str(bad) in str(err.value)
        assert np.array_equal(matrix, np.eye(4))
    want = kron_expm(kron_sum(normalised), 0.4) @ vec
    assert np.allclose(apply_rotation(normalised, 0.4, vec), want, atol=1e-12)


def test_batched_probes_match_a_per_probe_loop():
    n = MATRIX_QUBIT_CAP + 1
    target = PauliString(n, tuple("XYZ"[k % 3] for k in range(n)))
    schedule = compile_schedule(target, ConnectivityGraph.complete(n), tg=0.4)
    report = verify_schedule(schedule)
    target_sum = WeightedPauliSum.from_string(target)
    worst = 0.0
    for k in range(PROBES):
        probe = _random_state(n, PROBE_SEED + k)
        via_schedule = apply_schedule(schedule, probe)
        via_target = apply_rotation(target_sum, 0.4, probe)
        worst = max(worst, float(np.linalg.norm(via_schedule - via_target)))
    assert report["metric"] == f"max_state_l2[{PROBES} probes]" and "seed" not in report
    assert abs(report["distance"] - worst) <= 1e-14


# -- identity products, a block of columns at a time ------------------------------


def random_program(rng, n):
    """Seeded pulses on ``n`` sites: swappers and attachments, which fuse into
    groups of 2-4 sites, strings of any weight, and from 5 sites one string
    on every site, a flip, and one two-term pulse on 5 sites, which is wider
    than a group and runs alone."""
    pulses = []
    kinds = ["swapper", "string", "attachment"] if n > 1 else ["swapper", "string"]
    for _ in range(int(rng.integers(6, 12))):
        alpha, beta, gamma = rng.choice(list("XYZ"), size=3, replace=False)
        kind = rng.choice(kinds)
        if kind == "swapper":
            generator = SwapperSpec(int(rng.integers(n)), alpha, beta).generator(n)
        elif kind == "string":
            generator = PauliString(n, tuple(rng.choice(list("IXYZ"), size=n)))
        else:
            c, a = (int(s) for s in rng.choice(n, size=2, replace=False))
            generator = AttachmentSpec(c, alpha, beta, a, gamma).generator(n)
        pulses.append((generator, float(rng.uniform(-math.pi, math.pi))))
    if n >= 5:
        sites = [int(s) for s in rng.choice(n, size=5, replace=False)]
        pairs = [rng.choice(list("XYZ"), size=2, replace=False) for _ in sites]
        # the two strings differ at all five sites, so they anticommute
        p, q = (PauliString.from_sites(n, {s: pair[k] for s, pair in zip(sites, pairs)})
                for k in (0, 1))
        wide = WeightedPauliSum.from_terms(n, [(1 / math.sqrt(2.0), p), (1 / math.sqrt(2.0), q)])
        full = PauliString(n, tuple(rng.choice(list("XYZ"), size=n)))
        pulses[len(pulses) // 2:len(pulses) // 2] = [(wide, 0.3), (full, -0.8)]
    return pulses


def seeded_programs(n):
    """:func:`random_program` on ``n`` sites under the name ``pulses``, with
    programs to judge against it: ``split``, the same product written as
    another program; ``defect``, one angle off by 1e-3, whose norm bound
    exceeds any tolerance near 1e-10; ``empty`` and a lone ``flip``."""
    rng = np.random.default_rng(SEED + 30 + n)
    pulses = random_program(rng, n)
    (first, angle), rest = pulses[0], pulses[1:]
    k = int(rng.integers(len(pulses)))
    return {
        "pulses": pulses,
        "split": [(first, 0.25 * angle), (first, 0.75 * angle)] + rest,
        "defect": pulses[:k] + [(pulses[k][0], pulses[k][1] + 1e-3)] + pulses[k + 1:],
        "empty": [],
        "flip": [(PauliString(n, tuple(rng.choice(list("XYZ"), size=n))), 0.4)],
    }


@pytest.mark.parametrize("n", range(1, MATRIX_QUBIT_CAP + 1))
def test_identity_products_are_bitwise_the_whole_identity_run(n):
    programs = seeded_programs(n)
    fused = {name: fuse_pulses(n, program) for name, program in programs.items()}
    widths = {len(key) if isinstance(key, tuple) else "flip" for key, _ in fused["pulses"]}
    assert n == 1 or widths & {2, 3, 4}
    assert n < 5 or {5, "flip"} <= widths
    assert isinstance(fused["flip"][0][0], PauliString)
    eye = np.eye(1 << n, dtype=np.complex128)
    whole = {name: dense_oracle._apply_fused(f, eye) for name, f in fused.items()}
    for name, program in programs.items():
        assert np.array_equal(pulse_unitary(n, program, "test"), whole[name])
    assert np.array_equal(whole["empty"], eye)
    if n <= dense_oracle.MATRIX_DISTANCE_SITES:
        others = ("split", "defect", "empty", "flip")
        got = program_distances(n, [fused[name] for name in others], fused["pulses"])
        assert got == [distance(whole[name], whole["pulses"]) for name in others]


# -- the verdict, a block of columns at a time -----------------------------------


def formed_report(n, program, reference, tolerance):
    """:func:`compare_pulses`' report from formed arrays: the two identity
    products compared by :func:`certified_distance` up to the cap, the whole
    ``PROBES``-column batch above it."""
    fused = [fuse_pulses(n, pulses) for pulses in (program, reference)]
    if n <= MATRIX_QUBIT_CAP:
        products = [dense_oracle._identity_product(n, f) for f in fused]
        dist, metric = certified_distance(*products, tolerance)
    else:
        probes = np.stack([_random_state(n, PROBE_SEED + k) for k in range(PROBES)], axis=1)
        outputs, expected = (dense_oracle._apply_fused(f, probes) for f in fused)
        dist = max(float(np.linalg.norm(a - b)) for a, b in zip(outputs.T, expected.T))
        metric = f"max_state_l2[{PROBES} probes]"
    return {"metric": metric, "distance": dist, "tolerance": tolerance, "passed": dist <= tolerance}


@pytest.mark.parametrize("width", [None, 1, 3])
@pytest.mark.parametrize("n", range(1, MATRIX_QUBIT_CAP + 3))
def test_the_streamed_verdict_is_bitwise_the_formed_one(monkeypatch, n, width):
    if width is not None:  # blocks of one and of three columns, the last one short
        monkeypatch.setattr(dense_oracle, "IDENTITY_BLOCK", width << n)
    programs = seeded_programs(n)
    want = {
        name: formed_report(n, programs[name], programs["pulses"], 1e-10)
        for name in ("split", "defect")
    }
    assert want["split"]["passed"] and not want["defect"]["passed"]
    if n <= MATRIX_QUBIT_CAP:
        # the defect's bound fails, so the verdict forms both products
        assert want["split"]["metric"] == "spectral_distance_bound"
        assert want["defect"]["metric"] == "spectral_distance"
    for name, report in want.items():
        assert compare_pulses(n, programs[name], programs["pulses"], 1e-10) == report


def verify_peak(n):
    """``verify_schedule``'s report and its ``tracemalloc`` peak in bytes, on an
    ``n``-site schedule with the lru caches filled outside the trace."""
    target = PauliString(n, tuple("XYZ"[k % 3] for k in range(n)))
    schedule = compile_schedule(target, ConnectivityGraph.complete(n), tg=0.7)
    verify_schedule(schedule)
    tracemalloc.start()
    try:
        report = verify_schedule(schedule)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a block of IDENTITY_BLOCK complex entries; six of them hold the input block,
# the difference, the second run's two work buffers and numpy's temporaries
BLOCK_BYTES = 16 * dense_oracle.IDENTITY_BLOCK


def test_a_verify_at_nine_sites_holds_no_full_identity():
    # the float64 magnitudes are half an array of 4^n complex entries, and
    # the blocks 0.75 of one more at 9 sites; the products, their difference
    # and its magnitudes made 3.5
    report, peak = verify_peak(9)
    assert report["passed"]
    assert peak <= 8 * 4**9 + 6 * BLOCK_BYTES


@pytest.mark.parametrize("n", [MATRIX_QUBIT_CAP, 14])
def test_a_verify_holds_the_magnitudes_and_block_buffers_only(n):
    # 11 MiB at 10 sites, where the whole products made 56; 3 MiB at 14
    # sites, where three whole PROBES-column batches made 20
    report, peak = verify_peak(n)
    assert report["passed"]
    magnitudes = 8 * 4**n if n <= MATRIX_QUBIT_CAP else 0
    assert peak <= magnitudes + 6 * BLOCK_BYTES


# -- one judgement: pulse program against reference program ---------------------


def sparse_string(string):
    """scipy.sparse matrix of a phase-free string, a kron of 2x2 factors."""
    m = scipy.sparse.identity(1, dtype=np.complex128, format="csr")
    for letter in string.letters:
        m = scipy.sparse.kron(m, SIGMA[letter], format="csr")
    return m


def oracle_run(program, array):
    """scipy's action of exp(-i angle P) for each (P, angle), first applied first."""
    for string, angle in program:
        array = scipy.sparse.linalg.expm_multiply(-1j * angle * sparse_string(string), array)
    return array


@pytest.mark.parametrize("n", [6, MATRIX_QUBIT_CAP + 1])
def test_compare_pulses_matches_the_kron_oracle_on_both_sides_of_the_cap(n):
    rng = np.random.default_rng(SEED + 9 + n)
    pulses, reference = (
        [(PauliString(n, random_string_letters(rng, n, 1)), float(rng.uniform(-2, 2)))
         for _ in range(4)]
        for _ in range(2)
    )
    report = compare_pulses(n, pulses, reference, 1e-10)
    assert not report["passed"] and report["tolerance"] == 1e-10
    if n <= MATRIX_QUBIT_CAP:
        u, v = (oracle_run(program, np.eye(1 << n, dtype=np.complex128))
                for program in (pulses, reference))
        assert report["metric"] == "spectral_distance"
        assert report["distance"] == pytest.approx(np.linalg.norm(u - v, 2), rel=1e-10)
    else:
        probes = np.stack([_random_state(n, PROBE_SEED + k) for k in range(PROBES)], axis=1)
        want = np.linalg.norm(oracle_run(pulses, probes) - oracle_run(reference, probes), axis=0)
        assert report["metric"] == f"max_state_l2[{PROBES} probes]"
        assert report["distance"] == pytest.approx(want.max(), rel=1e-10)
    # the same product written as another program passes
    (first, angle), rest = pulses[0], pulses[1:]
    split = [(first, 0.25 * angle), (first, 0.75 * angle)] + rest
    report = compare_pulses(n, pulses, split, 1e-10)
    assert report["passed"] and report["distance"] <= 1e-10


@pytest.mark.parametrize("n, metric", [
    (6, "spectral_distance"), (MATRIX_QUBIT_CAP, "spectral_distance"),
    (MATRIX_QUBIT_CAP + 1, f"max_state_l2[{PROBES} probes]"),
])
def test_compare_pulses_fails_a_planted_angle_defect(n, metric):
    target = PauliString(n, tuple("XYZ"[k % 3] for k in range(n)))
    pulses = compile_schedule(target, ConnectivityGraph.complete(n), tg=0.7).pulses()
    reference = [(target, 0.7)]
    assert compare_pulses(n, pulses, reference, 1e-10)["passed"]
    for k in (0, len(pulses) // 2, len(pulses) - 1):
        defect = list(pulses)
        generator, angle = defect[k]
        defect[k] = (generator, angle + 1e-3)
        report = compare_pulses(n, defect, reference, 1e-10)
        assert not report["passed"] and report["metric"] == metric
        # for an involution G, exp(-i d G) - 1 has norm 2|sin(d/2)| on every state
        assert abs(report["distance"] - 2 * math.sin(5e-4)) <= 1e-12


def test_a_passing_verify_at_the_cap_is_certified_by_the_bound():
    n = MATRIX_QUBIT_CAP
    target = PauliString(n, tuple("XYZ"[k % 3] for k in range(n)))
    report = verify_schedule(compile_schedule(target, ConnectivityGraph.complete(n), tg=0.4))
    assert report["passed"] and report["metric"] == "spectral_distance_bound"
    assert report["distance"] <= report["tolerance"]


# -- certified distances -------------------------------------------------------


@st.composite
def matrix_pairs(draw):
    """(a, b) up to 64x64: random complex, rank-1, diagonal, one-column and
    one-row differences, and differences of two unitaries, at scales from
    1e-16 to 1e2.  A difference in one column has its largest column sum far
    above its largest row sum, and one in one row the other way round, so
    the bound needs both sums."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["complex", "rank1", "diagonal", "column", "row", "unitaries"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "unitaries":
        a, b = (np.linalg.qr(gaussian(n, n))[0] for _ in range(2))
        if draw(st.booleans()):  # nearly equal unitaries
            b = a @ scipy.linalg.expm(1j * 1e-9 * (b + b.conj().T))
        return a, b
    if kind == "complex":
        d = gaussian(n, n)
    elif kind == "rank1":
        d = np.outer(gaussian(n), gaussian(n).conj())
    elif kind == "diagonal":
        d = np.diag(gaussian(n))
    else:
        d = np.zeros((n, n), dtype=np.complex128)
        k = draw(st.integers(0, n - 1))
        if kind == "column":
            d[:, k] = gaussian(n)
        else:
            d[k, :] = gaussian(n)
    d *= 10.0 ** draw(st.integers(-16, 2))
    b = gaussian(n, n)
    return b + d, b


@settings(max_examples=300, deadline=None)
@given(matrix_pairs(), st.floats(1e-17, 1e3))
def test_certified_distance_bounds_the_exact_spectral_norm(pair, tolerance):
    a, b = pair
    exact = float(np.linalg.norm(a - b, 2))
    bound, metric = certified_distance(a, b, 1e300)
    assert metric == "spectral_distance_bound"
    assert bound >= exact * (1 - 1e-12)
    d = a - b
    norms = [np.linalg.norm(d, order) for order in ("fro", 1, np.inf)]
    assert bound == pytest.approx(min(norms[0], math.sqrt(norms[1] * norms[2])), rel=1e-12)
    value, metric = certified_distance(a, b, tolerance)
    if metric == "spectral_distance_bound":
        assert value == bound and value <= tolerance
    else:
        assert metric == "spectral_distance"
        assert value == pytest.approx(exact, rel=1e-12) and bound > tolerance


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("tolerance", [1e-10, 1.0, 1e300])
def test_certified_distance_never_passes_a_non_finite_entry(bad, tolerance):
    a = np.eye(16, dtype=np.complex128)
    b = a.copy()
    b[3, 5] = bad
    for x, y in ((a, b), (b, a)):
        value, metric = certified_distance(x, y, tolerance)
        assert metric == "spectral_distance"
        assert not value <= tolerance


def test_verify_schedule_with_a_nan_angle_fails():
    schedule = compile_schedule(PauliString.parse("XZZX"), ConnectivityGraph.complete(4))
    report = verify_schedule(dataclasses.replace(schedule, tg=math.nan))
    assert not report["passed"] and report["metric"] == "spectral_distance"


# -- the Krylov spectral norm --------------------------------------------------


def gaussian_matrix(rng, rows):
    return rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))


def haar_unitary(rng, rows):
    """Haar-random unitary: QR of a complex Gaussian with the phases of R fixed."""
    q, r = np.linalg.qr(gaussian_matrix(rng, rows))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def schedule_difference(n, delta, seed):
    """``U(delta) - U(0)`` for a doubling schedule of a random n-site target."""
    rng = np.random.default_rng(seed)
    target = PauliString(n, random_string_letters(rng, n, min_weight=n))
    graph = ConnectivityGraph.complete(n)
    pulses = compile_schedule(target, graph, "doubling", 0.7).pulses()
    return pulse_product(n, pulses, np.full(len(pulses), delta)) - pulse_product(n, pulses)


def wen_difference(delta):
    sequence = digital_sequence(LatticeSpec(3, 3), 0.7)
    pulses = sequence.pulses()
    return (pulse_product(sequence.n_sites, pulses, np.full(len(pulses), delta))
            - pulse_product(sequence.n_sites, pulses))


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices handed to ``np.linalg.svd`` from here on."""
    calls = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def assert_spectral_norm(d, calls):
    """``distance(d, 0)`` is ``||d||_2`` within 1e-13; returns the SVD shapes it used."""
    want = float(np.linalg.norm(d, 2))  # numpy's own SVD, which the spy does not see
    start = len(calls)
    assert distance(d, np.zeros_like(d)) == pytest.approx(want, rel=1e-13, abs=0.0)
    return calls[start:]


@pytest.mark.parametrize("rows", [
    1, 2, 3, 5, 8, 13, 31, 64,
    dense_oracle.KRYLOV_MIN_ROWS - 1, dense_oracle.KRYLOV_MIN_ROWS, 300,
])
def test_spectral_norm_matches_the_svd_on_random_matrices(svd_calls, rows):
    rng = np.random.default_rng(SEED + rows)
    a, b = gaussian_matrix(rng, rows), gaussian_matrix(rng, rows)
    assert distance(a, b) == pytest.approx(np.linalg.norm(a - b, 2), rel=1e-13, abs=0.0)
    assert_spectral_norm(rng.normal(size=(rows, rows)), svd_calls)  # real steps


def test_spectral_norm_of_a_rank_one_matrix_stops_on_an_invariant_space(svd_calls):
    rng = np.random.default_rng(SEED)
    rows = dense_oracle.KRYLOV_MIN_ROWS
    d = np.outer(rng.normal(size=rows) + 1j, rng.normal(size=rows) - 2j)
    used = assert_spectral_norm(d, svd_calls)
    assert max(used)[0] <= 3  # one or two Krylov steps, no SVD of d


def test_spectral_norm_of_a_zero_matrix_is_exactly_zero(svd_calls):
    rows = dense_oracle.KRYLOV_MIN_ROWS
    zero = np.zeros((rows, rows), dtype=np.complex128)
    assert distance(zero, zero) == 0.0
    assert svd_calls == []  # no iteration, no SVD


def test_a_difference_orthogonal_to_the_start_vector_takes_the_svd(svd_calls):
    # D = a b^T with b orthogonal to the fixed real start vector v0: D v0 = 0
    # reads as a zero norm, so the top value comes from the SVD of D
    rows = dense_oracle.KRYLOV_MIN_ROWS
    v0 = np.random.default_rng(0).standard_normal(rows)  # as _krylov_norm draws it
    v0 /= np.linalg.norm(v0)
    b = np.zeros(rows)
    b[0], b[1] = v0[1], -v0[0]
    # powers of two keep every entry of D an exact product, so each row of
    # D v0 is a multiple of v0[1] v0[0] - v0[0] v0[1]: exactly zero where the
    # matrix-vector product sums columns 0 and 1 in separate accumulators
    a = np.random.default_rng(SEED).choice([-2.0, -1.0, 0.5, 1.0, 4.0], size=rows)
    d = np.outer(a, b)
    assert not (d @ v0).any()
    assert distance(d, np.zeros_like(d)) == float(np.linalg.svd(d, compute_uv=False)[0])
    assert svd_calls == [d.shape, d.shape]  # the fallback's SVD, then this test's


def test_a_start_vector_in_the_kernel_falls_back_on_the_svd(svd_calls, monkeypatch):
    # the start vector is drawn as e_0 and column 0 of d is zero, so d v = 0
    # would read as a zero norm; the SVD of d gives the top value instead
    rows = dense_oracle.KRYLOV_MIN_ROWS
    d = np.random.default_rng(SEED).normal(size=(rows, rows))
    d[:, 0] = 0.0
    want = float(np.linalg.norm(d, 2))

    class FirstBasisVector:
        def standard_normal(self, n):
            return np.eye(1, n)[0]

    monkeypatch.setattr(np.random, "default_rng", lambda seed: FirstBasisVector())
    assert distance(d, np.zeros_like(d)) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert svd_calls == [d.shape]


@pytest.mark.parametrize("factor", [1e-200, 1e150])
def test_spectral_norm_of_tiny_and_huge_entries(svd_calls, factor):
    d = schedule_difference(8, 1e-3, SEED) * factor
    used = assert_spectral_norm(d, svd_calls)
    assert d.shape not in used


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_spectral_norm_of_schedule_differences(svd_calls, n):
    budget = (1 << n) // dense_oracle.KRYLOV_ROWS_PER_STEP
    for delta in (1e-2, 1e-3, 1e-4):
        d = schedule_difference(n, delta, SEED + n)
        used = assert_spectral_norm(d, svd_calls)
        if len(d) >= dense_oracle.KRYLOV_MIN_ROWS:
            # converged within the budget: only the projected problems were solved
            assert used and max(used)[0] <= budget


def test_spectral_norm_of_the_degenerate_wen_difference(svd_calls):
    for delta in (1e-2, 1e-3, 1e-4):
        d = wen_difference(delta)
        top = np.linalg.svd(d, compute_uv=False)[:5]
        assert np.allclose(top[:4], top[0], rtol=1e-12, atol=0.0) and top[4] < top[0] * (1 - 1e-3)
        used = assert_spectral_norm(d, svd_calls)
        assert d.shape not in used
        # the Ritz-gap stop does not wait for every copy of the top to grow
        assert max(used) <= (32, 32)


@pytest.mark.parametrize("split", [1e-9, 1e-10, 1e-11, 1e-12])
def test_spectral_norm_of_a_near_degenerate_top(svd_calls, split):
    # theta2 is the next Ritz value the Krylov space has found, not the
    # second singular value: until the space separates the top pair, theta1
    # is a mix of the two with a residual of about the split, which the
    # Ritz-gap term alone would accept
    rows = 300
    d = np.diag(np.concatenate([[1.0, 1.0 - split], np.linspace(0.5, 0.0, rows - 2)]))
    assert_spectral_norm(d, svd_calls)


def test_a_tiny_offset_stops_at_the_roundoff_of_its_operands(svd_calls):
    # a difference of two unitaries carries their roundoff, about eps, so the
    # copies of its 4-fold top split by about eps / distance (2e-11 at delta
    # 1e-7); the residual cap scales with the operands' norm, 1, and does not
    # wait for the Krylov space to part copies that only roundoff split
    pulses = digital_sequence(LatticeSpec(3, 3), 0.7).pulses()
    ideal = pulse_product(9, pulses)
    for delta in (1e-5, 1e-6, 1e-7):
        perturbed = pulse_product(9, pulses, delta)
        want = np.linalg.norm(perturbed - ideal, 2)
        start = len(svd_calls)
        formed = distance(perturbed, ideal)
        free, = program_distances(
            9, [fuse_pulses(9, shifted(pulses, delta))], fuse_pulses(9, pulses))
        assert max(svd_calls[start:]) <= (32, 32)
        assert formed == pytest.approx(want, rel=1e-10, abs=0.0)
        assert free == pytest.approx(want, rel=1e-10, abs=0.0)


def shifted(pulses, delta):
    """``pulses`` with every angle shifted by ``delta``."""
    return [(generator, angle + delta) for generator, angle in pulses]


def schedule_program(n, seed):
    rng = np.random.default_rng(seed)
    target = PauliString(n, random_string_letters(rng, n, min_weight=n))
    return compile_schedule(target, None, "doubling", 0.7).pulses()


@pytest.mark.parametrize("n, program", [
    (8, lambda: schedule_program(8, SEED)),
    (9, lambda: schedule_program(9, SEED + 9)),
    (8, lambda: digital_sequence(LatticeSpec(2, 4), 0.7).pulses()),
    (9, lambda: digital_sequence(LatticeSpec(3, 3), 0.3).pulses()),
], ids=["schedule8", "schedule9", "wen2x4", "wen3x3"])
def test_fused_distance_matches_the_svd_without_a_matrix(monkeypatch, n, program):
    monkeypatch.setattr(dense_oracle, "MATRIX_DISTANCE_SITES", 0)  # matrix-free at 8 sites too
    pulses = program()
    ideal = fuse_pulses(n, pulses)
    for delta in (1e-2, 1e-3, 1e-4):
        offsets = np.full(len(pulses), delta)
        want = np.linalg.norm(pulse_product(n, pulses, offsets) - pulse_product(n, pulses), 2)
        got, = program_distances(n, [fuse_pulses(n, shifted(pulses, delta))], ideal)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [
    4, dense_oracle.MATRIX_DISTANCE_SITES, dense_oracle.MATRIX_DISTANCE_SITES + 1,
])
def test_program_distances_form_the_products_only_up_to_the_crossover(monkeypatch, n):
    pulses = schedule_program(n, SEED + n)
    deltas = (1e-2, 1e-3)
    programs = [fuse_pulses(n, shifted(pulses, delta)) for delta in deltas]
    got = program_distances(n, programs, fuse_pulses(n, pulses))
    for delta, value in zip(deltas, got):
        want = np.linalg.norm(pulse_product(n, pulses, delta) - pulse_product(n, pulses), 2)
        assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    # only the matrix-free path has a budget it cannot fall back from
    monkeypatch.setattr(dense_oracle, "MATRIX_FREE_STEPS", 3)
    if n > dense_oracle.MATRIX_DISTANCE_SITES:
        with pytest.raises(ResourceLimitError, match="MATRIX_FREE_STEPS"):
            program_distances(n, programs, fuse_pulses(n, pulses))
    else:
        assert program_distances(n, programs, fuse_pulses(n, pulses)) == got


def test_the_adjoint_program_is_the_conjugate_transpose():
    pulses = schedule_program(5, SEED) + [(PauliString.parse("XYZIZ"), 0.4)]
    pulses = shifted(pulses, 0.01)
    fused = fuse_pulses(5, pulses)
    assert any(isinstance(key, PauliString) for key, _ in fused)  # a flip group too
    eye = np.eye(32, dtype=np.complex128)
    adjoint = dense_oracle._apply_fused(dense_oracle._adjoint(fused), eye)
    assert np.abs(adjoint - run_pulses(pulses, eye).conj().T).max() <= 1e-14


def test_fused_distance_names_its_step_budget(monkeypatch):
    pulses = schedule_program(8, SEED)
    monkeypatch.setattr(dense_oracle, "MATRIX_DISTANCE_SITES", 0)
    monkeypatch.setattr(dense_oracle, "MATRIX_FREE_STEPS", 3)
    with pytest.raises(ResourceLimitError, match="MATRIX_FREE_STEPS budget of 3 Krylov steps"):
        program_distances(8, [fuse_pulses(8, shifted(pulses, 1e-3))], fuse_pulses(8, pulses))


# -- matrix-free solves in lockstep ----------------------------------------------


def offset_programs(n, pulses, deltas, seed):
    """The fused programs of ``pulses`` with every angle offset by each delta, or
    with a ``seed`` by draws from [-delta, delta], as ``error_scaling`` offsets them."""
    rng = None if seed is None else np.random.default_rng(seed)
    programs = []
    for delta in deltas:
        offsets = (np.full(len(pulses), delta) if rng is None
                   else rng.uniform(-delta, delta, size=len(pulses)))
        programs.append(fuse_pulses(n, [(g, a + float(o)) for (g, a), o in zip(pulses, offsets)]))
    return programs


def lone_distance(n, program, reference):
    """The matrix-free solver fed one product at a time: the program and the
    reference each run on the lone vector, and their difference sent back."""
    solver = dense_oracle._krylov_norm(1 << n, np.complex128, dense_oracle.MATRIX_FREE_STEPS, 1.0)
    runs = [(program, reference),
            (dense_oracle._adjoint(program), dense_oracle._adjoint(reference))]
    vector, turn = next(solver), 0
    while True:
        mine, theirs = runs[turn]
        image = dense_oracle._apply_fused(mine, vector) - dense_oracle._apply_fused(theirs, vector)
        try:
            vector = solver.send(image)
        except StopIteration as stop:
            return stop.value
        turn ^= 1


@pytest.mark.parametrize("n", [5, 9])
def test_a_stacked_program_runs_each_column_bitwise_as_its_own_program(n):
    pulses = random_program(np.random.default_rng(SEED + 40 + n), n)
    programs = [fuse_pulses(n, shifted(pulses, delta)) for delta in (0.0, 1e-2, -0.3)]
    widths = {len(key) if isinstance(key, tuple) else "flip" for key, _ in programs[0]}
    assert {5, "flip"} <= widths  # a wide lone pulse and a flip besides the 2-4-site groups
    block = np.stack([_random_state(n, PROBE_SEED + k) for k in range(3)], axis=1)
    stacked = dense_oracle._stacked(programs)
    for run, lone in [(stacked, programs),
                      (dense_oracle._adjoint(stacked), map(dense_oracle._adjoint, programs))]:
        image = dense_oracle._apply_fused(run, block)
        for column, program in enumerate(lone):
            assert bitwise_equal(np.ascontiguousarray(image[:, column]),
                                 dense_oracle._apply_fused(program, block[:, column]))
    x, z = (PauliString(n, letter * n) for letter in "XZ")
    with pytest.raises(ValueError, match="share one fusion plan"):
        dense_oracle._stacked([fuse_pulses(n, [(x, 0.1)]), fuse_pulses(n, [(z, 0.1)])])
    with pytest.raises(ValueError):  # one program has a group more
        dense_oracle._stacked([fuse_pulses(n, [(x, 0.1)]), []])


@pytest.mark.parametrize("n, pulses, seed", [
    (9, lambda: schedule_program(9, SEED + 9), None),
    (10, lambda: schedule_program(10, SEED + 10), 5),
    (12, lambda: schedule_program(12, SEED + 12), None),
    (9, lambda: digital_sequence(LatticeSpec(3, 3), 0.3).pulses(), 5),
    (10, lambda: digital_sequence(LatticeSpec(2, 5), 0.7).pulses(), None),
], ids=["schedule9", "schedule10-random", "schedule12", "wen3x3-random", "wen2x5"])
def test_lockstep_distances_are_bitwise_those_of_lone_solves(monkeypatch, n, pulses, seed):
    pulses = pulses()
    reference = fuse_pulses(n, pulses)
    programs = offset_programs(n, pulses, (1e-2, 1e-3, 1e-4), seed)
    builds = count_calls(monkeypatch, dense_oracle, "_stacked")
    got = program_distances(n, programs, reference)
    # the three solvers stop at three different steps: the stack is built at
    # the start and again each time one of the first two leaves it
    assert builds == {"_stacked": 3}
    monkeypatch.undo()
    assert got == [program_distances(n, [program], reference)[0] for program in programs]
    # and a one-program call is what running the two programs apart gives
    assert got[0] == lone_distance(n, programs[0], reference)


def test_a_solver_that_spends_its_budget_stops_the_lockstep(monkeypatch):
    # with random offsets the 3x3 solvers stop at different steps; under this
    # budget (they converge alone within 41, 35 and 28 steps) the first one
    # spends it while the other two converge
    pulses = digital_sequence(LatticeSpec(3, 3), 0.3).pulses()
    reference = fuse_pulses(9, pulses)
    programs = offset_programs(9, pulses, (1e-2, 1e-3, 1e-4), 5)
    monkeypatch.setattr(dense_oracle, "MATRIX_FREE_STEPS", 38)
    spent = []
    for program in programs:
        try:
            program_distances(9, [program], reference)
        except ResourceLimitError:
            spent.append(True)
        else:
            spent.append(False)
    assert spent == [True, False, False]
    with pytest.raises(ResourceLimitError, match="MATRIX_FREE_STEPS budget of 38 Krylov steps"):
        program_distances(9, programs, reference)


def test_forty_deltas_at_nine_sites_run_in_two_lockstep_groups(monkeypatch):
    assert max(1, dense_oracle.IDENTITY_BLOCK >> (9 + 1)) == 32
    pulses = digital_sequence(LatticeSpec(3, 3), 0.3).pulses()
    reference = fuse_pulses(9, pulses)
    programs = offset_programs(9, pulses, np.geomspace(0.1, 1e-5, 40), 3)
    groups = count_calls(monkeypatch, dense_oracle, "_lockstep_distances")
    got = program_distances(9, programs, reference)
    assert groups == {"_lockstep_distances": 2}
    monkeypatch.undo()
    for k in (0, 31, 32, 39):  # each group's first and last solver
        assert got[k] == program_distances(9, [programs[k]], reference)[0]


def test_a_lockstep_group_at_thirteen_sites_holds_two_solvers_bases():
    n = 13
    assert max(1, dense_oracle.IDENTITY_BLOCK >> (n + 1)) == 2
    bases = 2 * dense_oracle.MATRIX_FREE_STEPS * (1 << n) * 16  # one solver's, left and right
    pulses = compile_schedule(PauliString.parse("XYZ" + "I" * (n - 3)), None, "doubling",
                              0.7).pulses()
    programs = offset_programs(n, pulses, (1e-2, 1e-3, 1e-4), None)
    reference = fuse_pulses(n, pulses)
    tracemalloc.start()
    try:
        program_distances(n, programs, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three solvers run as a group of two and then one: two solvers' bases at
    # once, never three, next to a few MiB of work arrays (the group's passes
    # reuse three blocks of 512 KiB and 256 KiB of difference rows, and each
    # solver holds a projected problem of 290 KiB)
    assert 2 * bases < peak <= 2 * bases + (4 << 20)


def test_spectral_distance_is_symmetric_and_repeatable():
    rng = np.random.default_rng(SEED)
    for a, b in [
        (schedule_difference(8, 1e-3, SEED), np.zeros((256, 256))),  # Krylov converges
        (haar_unitary(rng, 256), haar_unitary(rng, 256)),  # the budget runs out
        (gaussian_matrix(rng, 40), np.eye(40)),  # below the crossover
    ]:
        first = distance(a, b)
        assert distance(b, a) == first
        assert distance(a, b) == first


@pytest.mark.parametrize("rows", [128, 256, 512])
def test_haar_differences_fall_back_to_the_svd_within_the_budget(svd_calls, rows):
    # differences of random unitaries have no gap at the top of the spectrum,
    # so the Krylov solver spends its whole budget and then takes one SVD
    rng = np.random.default_rng(SEED + rows)
    d = haar_unitary(rng, rows) - haar_unitary(rng, rows)
    used = assert_spectral_norm(d, svd_calls)
    assert used.count(d.shape) == 1
    ritz = [shape for shape in used if shape != d.shape]
    if rows < dense_oracle.KRYLOV_MIN_ROWS:
        assert ritz == []
    else:
        assert max(ritz) == (rows // dense_oracle.KRYLOV_ROWS_PER_STEP,) * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectral_norm_of_a_non_finite_entry_is_non_finite_at_once(svd_calls, bad):
    d = schedule_difference(8, 1e-3, SEED)
    d[17, 200] = bad
    assert not math.isfinite(distance(d, np.zeros_like(d)))
    assert svd_calls == []


def test_planted_defect_fails_with_the_exact_spectral_distance():
    target = PauliString.parse("XYZZYX")
    schedule = compile_schedule(target, ConnectivityGraph.complete(6), tg=0.7)
    for site in target.support:
        defect = with_one_letter_changed(schedule, site)
        report = verify_schedule(defect)
        u = np.eye(64, dtype=np.complex128)
        for generator, angle in defect.pulses():
            u = kron_expm(kron_sum(generator), angle) @ u
        want = np.linalg.norm(u - kron_expm(kron_string(defect.target), 0.7), 2)
        assert not report["passed"]
        assert report["metric"] == "spectral_distance"
        assert abs(report["distance"] - want) <= 1e-12


# -- expm of commuting sums -----------------------------------------------------


@st.composite
def commuting_sums(draw):
    """A real-weighted sum of pairwise commuting strings on 1-6 sites."""
    n = draw(st.integers(1, 6))
    letters = st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)
    kept = []
    for row in draw(st.lists(letters, min_size=1, max_size=8)):
        string = PauliString(n, tuple(row))
        if all(commutes(string, other) for other in kept):
            kept.append(string)
    coeffs = draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False), min_size=len(kept), max_size=len(kept)
    ))
    return WeightedPauliSum.from_terms(n, zip(coeffs, kept))


@settings(max_examples=200, deadline=None)
@given(commuting_sums(), ANGLES)
def test_expm_of_commuting_sums_matches_scipy(h, angle):
    got = expm(h, angle)
    assert np.abs(got - kron_expm(kron_sum(h), angle)).max() <= 1e-12


def test_expm_of_the_wen_hamiltonian_needs_no_eigendecomposition(monkeypatch):
    h = build_variant(LatticeSpec(3, 3)).hamiltonian(0.8)
    want = kron_expm(kron_sum(h), 0.3)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called for a commuting sum")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert np.abs(expm(h, 0.3) - want).max() <= 1e-12
