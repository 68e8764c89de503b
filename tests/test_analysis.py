"""Strength bookkeeping and first-order error scaling."""

import math

import numpy as np
import pytest

from qsakit import dense_oracle
from qsakit.analysis import (
    StrengthParams,
    error_scaling,
    pulse_product,
    strength_target,
    strength_toric,
)
from qsakit.pauli_core import PauliString
from qsakit.schedule_compiler import ConnectivityGraph, compile_schedule
from qsakit.toric_lattice import LatticeSpec, digital_sequence

from conftest import bitwise_equal, count_calls, kron_expm, kron_sum

SEED = 20240817


def plaquette_schedule():
    return compile_schedule(
        PauliString.parse("XZZX"), ConnectivityGraph.complete(4), tg=0.3
    )


def test_strength_spot_values():
    p = StrengthParams(g=1.0, t=1.0, tau=0.1, tau_prime=0.1, n=1)
    assert strength_target(p) == pytest.approx(1.0 / 1.2, abs=1e-15)
    p3 = StrengthParams(g=1.0, t=1.0, tau=0.1, tau_prime=0.1, n=3)
    assert strength_target(p3) == pytest.approx(1.0 / 1.6, abs=1e-15)
    assert strength_toric(p) == pytest.approx(1.0 / 4.8, abs=1e-15)
    assert strength_toric(p) * 4.0 == strength_target(p)


def test_zero_duration_keeps_the_full_strength():
    p = StrengthParams(g=2.5, t=0.7, tau=0.0, tau_prime=0.0, n=6)
    assert strength_target(p) == 2.5


def test_omega_and_tau_forms_agree():
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        tau = float(rng.uniform(0.01, 1.0))
        tau_prime = float(rng.uniform(0.01, 1.0))
        base = dict(
            g=float(rng.uniform(0.1, 3.0)),
            t=float(rng.uniform(0.1, 3.0)),
            n=int(rng.integers(1, 5)),
        )
        by_tau = StrengthParams(tau=tau, tau_prime=tau_prime, **base)
        by_omega = StrengthParams(
            omega=-math.pi / (2.0 * tau),
            omega_prime=math.pi / (2.0 * tau_prime),
            **base,
        )
        assert strength_target(by_tau) == pytest.approx(
            strength_target(by_omega), rel=1e-12
        )


def test_conservation_of_t_times_g():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        p = StrengthParams(
            g=float(rng.uniform(0.1, 5.0)),
            t=float(rng.uniform(0.1, 5.0)),
            tau=float(rng.uniform(0.0, 2.0)),
            tau_prime=float(rng.uniform(0.0, 2.0)),
            n=int(rng.integers(1, 8)),
        )
        lhs = p.t * p.g
        rhs = p.total_time() * strength_target(p)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, lhs)


def test_strength_monotonically_decreasing():
    base = dict(g=1.0, t=1.0)
    values_n = [
        strength_target(StrengthParams(tau=0.2, tau_prime=0.1, n=n, **base))
        for n in (1, 2, 3, 5)
    ]
    assert all(a > b for a, b in zip(values_n, values_n[1:]))
    values_tau = [
        strength_target(StrengthParams(tau=tau, tau_prime=0.1, n=2, **base))
        for tau in (0.0, 0.1, 0.5, 1.0)
    ]
    assert all(a > b for a, b in zip(values_tau, values_tau[1:]))


def test_wall_clock_ratio_in_regime():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        t = float(rng.uniform(0.2, 3.0))
        tau = float(rng.uniform(0.0, t / 2.0))
        tau_prime = float(rng.uniform(0.0, t - tau))
        p = StrengthParams(g=1.0, t=t, tau=tau, tau_prime=tau_prime, n=1)
        assert strength_toric(p) / p.g >= 1.0 / 10.0


def test_params_validation():
    with pytest.raises(ValueError):
        StrengthParams(g=1.0, t=0.0, tau=0.1, tau_prime=0.1)
    with pytest.raises(ValueError):
        StrengthParams(g=1.0, t=1.0)
    with pytest.raises(ValueError):
        StrengthParams(
            g=1.0, t=1.0, tau=0.1, tau_prime=0.1, omega=-1.0, omega_prime=1.0
        )
    with pytest.raises(ValueError):
        StrengthParams(g=1.0, t=1.0, tau=-0.1, tau_prime=0.1)
    with pytest.raises(ValueError):
        StrengthParams(g=1.0, t=1.0, omega=1.0, omega_prime=2.0)
    with pytest.raises(ValueError):
        StrengthParams(g=1.0, t=1.0, tau=0.1, tau_prime=0.1, n=0)
    with pytest.raises(ValueError):
        strength_toric(StrengthParams(g=1.0, t=1.0, tau=0.1, tau_prime=0.1, n=2))


def test_error_scaling_slope_on_plaquette():
    report = error_scaling(plaquette_schedule(), deltas=(1e-2, 1e-3, 1e-4))
    assert list(report) == [
        "subject", "deltas", "distances", "slope", "intercept", "mode", "seed", "max_offset",
    ]
    assert 0.9 <= report["slope"] <= 1.1
    assert report["mode"] == "uniform"
    assert len(report["distances"]) == 3
    assert all(a > b for a, b in zip(report["distances"], report["distances"][1:]))


def test_error_scaling_zero_offset_gives_zero_distance():
    schedule = plaquette_schedule()
    pulses = schedule.pulses()
    n = schedule.n_sites
    zero = pulse_product(n, pulses, np.zeros(len(pulses)))
    assert np.array_equal(zero, pulse_product(n, pulses))


PER_PULSE = [0.01, -0.02, 0.0, 0.03, -0.01, 0.02, 0.0, 0.01, -0.03]


@pytest.mark.parametrize("offsets", [0.01, PER_PULSE], ids=["one-for-all", "per-pulse"])
def test_pulse_product_shifts_each_angle_by_its_offset(offsets):
    schedule = plaquette_schedule()
    pulses = schedule.pulses()
    shifts = np.broadcast_to(offsets, (len(pulses),))
    want = np.eye(1 << schedule.n_sites)
    for (generator, angle), shift in zip(pulses, shifts):
        want = kron_expm(kron_sum(generator), angle + shift) @ want
    assert np.abs(pulse_product(schedule.n_sites, pulses, offsets) - want).max() <= 1e-12


def test_error_scaling_first_order_bound():
    schedule = plaquette_schedule()
    n_pulses = len(schedule.pulses())
    report = error_scaling(schedule, deltas=(1e-2, 1e-3, 1e-4))
    for delta, dist in zip(report["deltas"], report["distances"]):
        assert dist <= 2.0 * delta * n_pulses
        assert dist >= 0.1 * delta


def test_error_scaling_delta_validation():
    schedule = plaquette_schedule()
    with pytest.raises(ValueError):
        error_scaling(schedule, deltas=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        error_scaling(schedule, deltas=(0.2, 0.1))
    with pytest.raises(ValueError):
        error_scaling(schedule, deltas=(1e-2, 1e-2))
    with pytest.raises(ValueError):
        error_scaling(schedule, deltas=())


def test_error_scaling_needs_two_deltas():
    # a line through one point has no meaningful slope
    for deltas in ((), (1e-2,)):
        with pytest.raises(ValueError, match="at least two deltas"):
            error_scaling(plaquette_schedule(), deltas=deltas)
    # refused with the other delta checks, before the subject is looked at
    with pytest.raises(ValueError, match="at least two deltas"):
        error_scaling(object(), deltas=(1e-2,))


def test_error_scaling_refuses_a_distance_the_fit_cannot_log():
    # a delta of 1e-300 moves no angle in floating point: the distance is 0
    with pytest.raises(ValueError, match=r"distance 0\.0 at delta 1e-300"):
        error_scaling(plaquette_schedule(), deltas=(1e-300, 1e-301))
    with pytest.raises(ValueError, match="at delta 1e-301"):
        error_scaling(plaquette_schedule(), deltas=(1e-2, 1e-301))


def test_error_scaling_random_offsets_mode():
    report = error_scaling(plaquette_schedule(), deltas=(1e-2, 1e-3), seed=3)
    assert report["mode"] == "random"
    assert report["seed"] == 3
    assert 0.0 < report["max_offset"] <= 1e-2
    again = error_scaling(plaquette_schedule(), deltas=(1e-2, 1e-3), seed=3)
    assert again["distances"] == report["distances"]


def test_uniform_offsets_draw_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("uniform offsets made a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    report = error_scaling(plaquette_schedule(), deltas=(1e-2, 1e-3))
    assert (report["mode"], report["seed"], report["max_offset"]) == ("uniform", None, 1e-2)


def test_error_scaling_digital_subject():
    seq = digital_sequence(LatticeSpec(rows=2, cols=3), tau=0.3)
    report = error_scaling(seq, deltas=(1e-2, 1e-3, 1e-4))
    assert 0.9 <= report["slope"] <= 1.1
    assert report["subject"].startswith("digital[")


def test_error_scaling_rejects_unknown_subject():
    with pytest.raises(TypeError):
        error_scaling(object(), deltas=(1e-2, 1e-3))


@pytest.mark.parametrize("subject", [
    plaquette_schedule(),
    compile_schedule(PauliString.parse("XYZXZ" * 2), tg=0.7),
    digital_sequence(LatticeSpec(rows=3, cols=3), tau=0.4),
], ids=["plaquette", "schedule10", "digital3x3"])
@pytest.mark.parametrize("seed", [None, 5])
def test_error_scaling_fuses_once_and_matches_fusing_each_program(monkeypatch, subject, seed):
    deltas = (1e-2, 1e-3, 1e-4)
    calls = count_calls(monkeypatch, dense_oracle, "_local_generator")
    report = error_scaling(subject, deltas=deltas, seed=seed)
    monkeypatch.undo()
    # one local matrix per pulse of a fused group, built once for every program
    plan = dense_oracle._fusion_plan(subject.n_sites, [g for g, _ in subject.pulses()])
    assert calls["_local_generator"] == sum(
        len(op) for key, op in plan if not isinstance(key, PauliString)) > 0
    # fusing each shifted program in a call of its own gives the same
    # distances, bit for bit
    pulses, n = subject.pulses(), subject.n_sites
    rng = None if seed is None else np.random.default_rng(seed)
    want = []
    for delta in deltas:
        offsets = (np.full(len(pulses), delta) if rng is None
                   else rng.uniform(-delta, delta, size=len(pulses)))
        angles = [a + float(o) for (_, a), o in zip(pulses, offsets)]
        want += dense_oracle.program_distances(n, pulses, [angles])
    assert bitwise_equal(np.array(report["distances"]), np.array(want))
