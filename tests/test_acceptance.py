"""Acceptance gate: the twelve headline guarantees at their stated tolerances.

Each test pins one claim end to end.  Spectral distances come from the exact
SVD-based norm where stated; the randomized schedule sweep (criterion 3)
bounds the spectral distance by the Frobenius norm, which is never smaller.
"""

import math
import time

import numpy as np
import pytest

from qsakit.analysis import (
    StrengthParams,
    error_scaling,
    strength_target,
    strength_toric,
)
from qsakit.anyon_logic import (
    loop_cnot,
    magic_report,
    memory_basis,
    memory_qubits,
    naive_move_error,
)
from qsakit.dense_oracle import (
    _random_state,
    apply_rotation,
    distance,
    expectation,
    expm,
    run_pulses,
    schedule_unitary,
)
from qsakit.pauli_core import PauliString, WeightedPauliSum, sum_commutes
from qsakit.schedule_compiler import (
    ConnectivityGraph,
    compile_schedule,
    replay_symbolic,
    validate,
)
from qsakit.toric_lattice import (
    HoleSpec,
    LatticeSpec,
    build_wen,
    digital_sequence,
    ground_state_projector,
    ground_state_sweep,
)

from conftest import frobenius_distance, random_string_letters

SEED = 20240818

TWO_HOLE_SPEC = LatticeSpec(
    rows=3, cols=4, model="kitaev_holes",
    holes=(HoleSpec(((1, 0),), "smooth"), HoleSpec(((1, 2),), "rough")),
)


def test_criterion_01_plaquette_identity():
    start = time.monotonic()
    target = PauliString.parse("XZZX")
    tg = 0.3  # J * tau
    schedule = compile_schedule(target, ConnectivityGraph.complete(4), tg=tg)
    dist = distance(
        schedule_unitary(schedule), expm(WeightedPauliSum.from_string(target), tg)
    )
    assert dist <= 1e-10
    assert time.monotonic() - start < 1.0


def test_criterion_02_depth_laws():
    rng = np.random.default_rng(SEED)
    for n, depth in ((4, 1), (8, 2), (16, 3)):
        target = PauliString(n, tuple(rng.choice(["X", "Y", "Z"], size=n)))
        schedule = compile_schedule(
            target, ConnectivityGraph.complete(n), strategy="doubling"
        )
        assert schedule.depth == depth

    n = 10
    edges = [(k, k + 1) for k in range(n - 1)] + [(k, k + 2) for k in range(n - 2)]
    graph = ConnectivityGraph.from_edges(n, edges)
    target = PauliString(n, tuple(rng.choice(["X", "Y", "Z"], size=n)))
    schedule = compile_schedule(target, graph, strategy="line_endpoints")
    assert schedule.depth == 4
    assert validate(schedule, graph) == []

    for n in (5, 6, 7):
        target = PauliString(n, tuple(rng.choice(["X", "Y", "Z"], size=n)))
        schedule = compile_schedule(
            target, ConnectivityGraph.complete(n), strategy="single_endpoint"
        )
        assert schedule.depth == n - 2


def test_criterion_03_symbolic_dense_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    strategies = ("auto", "doubling", "line_endpoints", "single_endpoint", "greedy")
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 11))
        target = PauliString(n, random_string_letters(rng, n))
        graph = ConnectivityGraph.complete(n)
        strategy = strategies[int(rng.integers(0, len(strategies)))]
        schedule = compile_schedule(
            target, graph, strategy=strategy, tg=float(rng.uniform(-2.0, 2.0))
        )
        assert validate(schedule, graph) == []
        replayed = replay_symbolic(schedule)
        assert replayed == target
        ideal = expm(WeightedPauliSum.from_string(replayed), schedule.tg)
        # Frobenius >= spectral, so this bounds the stated spectral tolerance
        assert frobenius_distance(schedule_unitary(schedule), ideal) <= 1e-10
        checked += 1
    assert time.monotonic() - start < 60.0


def test_criterion_04_noncommutativity_obstruction():
    rng = np.random.default_rng(SEED + 4)
    two_layer = []
    for n in (5, 6, 7, 8):
        for strategy in ("doubling", "line_endpoints"):
            target = PauliString(n, tuple(rng.choice(["X", "Y", "Z"], size=n)))
            schedule = compile_schedule(
                target, ConnectivityGraph.complete(n), strategy=strategy
            )
            if schedule.depth == 2:
                two_layer.append(schedule)
    for _ in range(40):
        n = int(rng.integers(5, 9))
        target = PauliString(n, random_string_letters(rng, n))
        schedule = compile_schedule(target, ConnectivityGraph.complete(n))
        if schedule.depth == 2:
            two_layer.append(schedule)
    assert len(two_layer) >= 10

    for schedule in two_layer:
        n = schedule.n_sites
        layer1 = [spec.generator(n) for spec in schedule.layers[0]]
        layer2 = [spec.generator(n) for spec in schedule.layers[1]]
        obstructed = False
        for g2 in layer2:
            for g1 in layer1:
                if set(g1.support) & set(g2.support):
                    if not sum_commutes(g1, g2):
                        obstructed = True
        assert obstructed
        for layer in (layer1, layer2):
            for i, a in enumerate(layer):
                for b in layer[i + 1 :]:
                    assert sum_commutes(a, b)


def test_criterion_05_toric_digital_sequence(dense16):
    spec = LatticeSpec(rows=3, cols=3)
    tau = 0.3
    seq = digital_sequence(spec, tau)
    ideal = expm(seq.hamiltonian(), tau)
    assert ideal.shape == (512, 512)
    assert distance(seq.unitary(), ideal) <= 1e-8

    big = LatticeSpec(rows=4, cols=4)
    big_seq = digital_sequence(big, tau)
    terms = build_wen(big).terms
    for k in range(20):
        probe = _random_state(big.n_sites, seed=SEED + k)
        via_seq = big_seq.apply(probe)
        # exact evolution: the plaquettes commute, so exp(-i tau H) factors
        via_exp = probe
        for term in terms:
            via_exp = apply_rotation(term.operator, -big.J * tau, via_exp)
        infidelity = 1.0 - abs(np.vdot(via_seq, via_exp)) ** 2
        assert infidelity <= 1e-8


def test_criterion_06_ground_state(dense16):
    spec = LatticeSpec(rows=4, cols=4)
    swept, _ = ground_state_sweep(spec)
    reference = ground_state_projector(spec)
    assert abs(np.vdot(swept, reference)) >= 1.0 - 1e-10
    for term in build_wen(spec).terms:
        assert abs(expectation(term.operator, swept).real - 1.0) <= 1e-10


def test_criterion_07_quantum_memory(dense16):
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    basis = memory_basis(spec)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.vdot(basis[i], basis[j])) <= 1e-10

    (x1, _), _ = memory_qubits(spec)
    tg = math.pi / 8.0
    pulse = (x1, tg)
    rotated = run_pulses([pulse], basis[0])
    assert abs(np.vdot(basis[0], rotated) - math.cos(tg)) <= 1e-10
    assert abs(np.vdot(basis[1], rotated) - (-1j) * math.sin(tg)) <= 1e-10


def test_criterion_08_magic_states():
    hole = TWO_HOLE_SPEC.holes[0]
    for theta in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi):
        report = magic_report(hole, theta, TWO_HOLE_SPEC)
        assert report["fidelity"] >= 1.0 - 1e-10

    for tg in (0.3, math.pi / 8.0, 2.0):
        z = np.diag([1.0, -1.0]).astype(complex)
        pulse = np.exp(1j * tg) * (
            math.cos(tg) * np.eye(2) - 1j * math.sin(tg) * z
        )
        assert np.max(np.abs(pulse - np.diag([1.0, np.exp(2j * tg)]))) <= 1e-12


def test_criterion_09_loop_cnot():
    gate = loop_cnot(TWO_HOLE_SPEC.holes[0], TWO_HOLE_SPEC.holes[1], TWO_HOLE_SPEC)
    table = gate.truth_table()
    assert table["max_distance"] <= 1e-8
    assert [row["expected"] for row in table["rows"]] == [
        (0, 0), (0, 1), (1, 1), (1, 0),
    ]


def test_criterion_10_naive_move_error():
    hole = TWO_HOLE_SPEC.holes[0]
    extension = ("h", 1, 0)

    tg = math.pi / 4.0
    report = naive_move_error(extension, TWO_HOLE_SPEC, hole, tg)
    assert report["distance"] > 0.0
    assert report["loop_route_distance"] <= 1e-10

    tg = math.pi / 2.0
    report = naive_move_error(extension, TWO_HOLE_SPEC, hole, tg)
    assert report["distance"] <= 1e-10
    assert report["loop_route_distance"] <= 1e-10


def test_criterion_11_strength_formulas():
    p1 = StrengthParams(g=1.0, t=1.0, tau=0.1, tau_prime=0.1, n=1)
    assert strength_target(p1) == pytest.approx(1.0 / 1.2, abs=1e-15)
    p3 = StrengthParams(g=1.0, t=1.0, tau=0.1, tau_prime=0.1, n=3)
    assert strength_target(p3) == pytest.approx(1.0 / 1.6, abs=1e-15)
    assert strength_toric(p1) == pytest.approx(1.0 / 4.8, abs=1e-15)

    rng = np.random.default_rng(SEED + 11)
    for _ in range(200):
        p = StrengthParams(
            g=float(rng.uniform(0.05, 5.0)),
            t=float(rng.uniform(0.05, 5.0)),
            tau=float(rng.uniform(0.0, 2.0)),
            tau_prime=float(rng.uniform(0.0, 2.0)),
            n=int(rng.integers(1, 9)),
        )
        lhs = p.t * p.g
        rhs = p.total_time() * strength_target(p)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))
        if p.n == 1 and p.tau + p.tau_prime <= p.t:
            assert strength_toric(p) / p.g >= 1.0 / 10.0


def test_criterion_12_error_scaling():
    rng = np.random.default_rng(SEED + 12)
    deltas = (1e-2, 1e-3, 1e-4)

    start = time.monotonic()
    plaquette = compile_schedule(
        PauliString.parse("XZZX"), ConnectivityGraph.complete(4), tg=0.3
    )
    assert 0.9 <= error_scaling(plaquette, deltas).slope <= 1.1
    assert time.monotonic() - start < 300.0

    start = time.monotonic()
    eight_body = compile_schedule(
        PauliString(8, tuple(rng.choice(["X", "Y", "Z"], size=8))),
        ConnectivityGraph.complete(8),
        strategy="doubling",
        tg=0.4,
    )
    assert eight_body.depth == 2
    assert 0.9 <= error_scaling(eight_body, deltas).slope <= 1.1
    assert time.monotonic() - start < 300.0

    start = time.monotonic()
    seq = digital_sequence(LatticeSpec(rows=3, cols=3), tau=0.3)
    assert 0.9 <= error_scaling(seq, deltas).slope <= 1.1
    assert time.monotonic() - start < 300.0
