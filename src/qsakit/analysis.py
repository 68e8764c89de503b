"""Strength accounting and first-order error scaling for pulse schedules.

Conjugating a seed propagator does not change the product t*g, so realizing
``exp(-i t' g' target)`` costs the seed time plus the pulse durations: with
n attachment steps of durations tau (forward) and tau' (inverse) per step,
``t' = t + n(tau + tau')`` and hence ``g' = g t / t'``.  The toric-code
Hamiltonian splits into four sequential stages, which divides the effective
coupling by another factor of four.

Coherent control errors enter as a common offset delta added to every pulse
angle; the resulting distance from the ideal unitary is first order in
delta, verified here by a log-log fit over a span of deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense_oracle import distance, pulse_unitary, schedule_pulses
from .schedule_compiler import QsaSchedule
from .toric_lattice import DigitalSequence


@dataclass(frozen=True)
class StrengthParams:
    """Inputs to the strength formulas.

    Exactly one parameterization drives the pulse durations: either the
    durations (tau, tau_prime) directly, or the pulse strengths
    (omega, omega_prime) with omega < 0 < omega_prime, giving
    tau = -pi/(2 omega) and tau' = pi/(2 omega') — the durations that make
    the forward/inverse pulse angles -pi/2 and +pi/2.
    """

    g: float
    t: float
    tau: float | None = None
    tau_prime: float | None = None
    omega: float | None = None
    omega_prime: float | None = None
    n: int = 1

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise ValueError("evolution time t must be positive")
        if self.n < 1:
            raise ValueError("step count n must be a positive integer")
        tau_given = self.tau is not None or self.tau_prime is not None
        omega_given = self.omega is not None or self.omega_prime is not None
        if tau_given == omega_given:
            raise ValueError(
                "provide exactly one parameterization: (tau, tau_prime) "
                "or (omega, omega_prime)"
            )
        if tau_given:
            if self.tau is None or self.tau_prime is None:
                raise ValueError("both tau and tau_prime are required")
            if self.tau < 0 or self.tau_prime < 0:
                raise ValueError("pulse durations must be nonnegative")
        else:
            if self.omega is None or self.omega_prime is None:
                raise ValueError("both omega and omega_prime are required")
            if not (self.omega < 0.0 < self.omega_prime):
                raise ValueError("pulse strengths need omega < 0 < omega_prime")

    def durations(self) -> tuple[float, float]:
        """(tau, tau_prime), derived from the strengths when needed."""
        if self.tau is not None:
            return float(self.tau), float(self.tau_prime)
        return -math.pi / (2.0 * self.omega), math.pi / (2.0 * self.omega_prime)

    def total_time(self) -> float:
        """t' = t + n(tau + tau'): seed evolution plus all pulse durations."""
        tau, tau_prime = self.durations()
        return self.t + self.n * (tau + tau_prime)


def strength_target(p: StrengthParams) -> float:
    """Effective target strength g' = g t / (t + n(tau + tau')).

    The conserved product gives t' g' = t g exactly, so g' only decreases
    through the added pulse time; tau = tau' = 0 returns g unchanged.
    """
    return p.g * p.t / p.total_time()


def strength_toric(p: StrengthParams) -> float:
    """Per-plaquette coupling of the four-stage digital sequence.

    Each stage occupies a quarter of the wall time (t_w = 4 t'), so
    g_w = g t / (4 (t + tau + tau')).  Only the single-step (n == 1)
    four-body schedule enters the digital sequence.
    """
    if p.n != 1:
        raise ValueError("the toric strength formula applies to n == 1 steps")
    return strength_target(p) / 4.0


@dataclass(frozen=True)
class ErrorScalingReport:
    """Log-log error-scaling fit for one perturbed subject."""

    subject: str
    deltas: tuple[float, ...]
    distances: tuple[float, ...]
    slope: float
    intercept: float
    mode: str = "uniform"
    seed: int | None = None
    max_offset: float = 0.0

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "deltas": list(self.deltas),
            "distances": list(self.distances),
            "slope": self.slope,
            "intercept": self.intercept,
            "mode": self.mode,
            "seed": self.seed,
            "max_offset": self.max_offset,
        }


def _subject_pulses(subject) -> tuple[int, list, str]:
    if isinstance(subject, QsaSchedule):
        return (
            subject.n_sites,
            schedule_pulses(subject),
            f"schedule[{subject.target}]",
        )
    if isinstance(subject, DigitalSequence):
        spec = subject.spec
        return (
            subject.n_sites,
            subject.pulses(),
            f"digital[{spec.rows}x{spec.cols} {spec.boundary} {spec.model}]",
        )
    raise TypeError("subject must be a QsaSchedule or a DigitalSequence")


def pulse_product(n_sites: int, pulses, offsets=None) -> np.ndarray:
    """Time-ordered pulse product as a matrix, with optional angle offsets."""
    return pulse_unitary(n_sites, pulses, "pulse product", offsets)


def perturbed_distance(subject, delta: float) -> float:
    """Spectral distance to the ideal product when every angle shifts by +delta.

    Accepts delta = 0 (returning 0 up to roundoff); the scaling fit in
    :func:`error_scaling` restricts its deltas to (0, 0.1].
    """
    n_sites, pulses, _ = _subject_pulses(subject)
    ideal = pulse_product(n_sites, pulses)
    perturbed = pulse_product(n_sites, pulses, np.full(len(pulses), float(delta)))
    return distance(perturbed, ideal)


def error_scaling(
    subject,
    deltas=(1e-2, 1e-3, 1e-4),
    random_offsets: bool = False,
    seed: int = 11,
) -> ErrorScalingReport:
    """Perturb every pulse angle (seed included) and fit the error order.

    For each delta the perturbed product offsets all pulse angles by +delta
    (or, behind the ``random_offsets`` flag, by independent uniform draws
    from [-delta, +delta]); the reported distance is the exact spectral
    distance to the ideal product.  slope/intercept are the least-squares
    fit of log(distance) against log(delta).

    Raises:
        ValueError: deltas not strictly decreasing, outside (0, 0.1], or
            fewer than two (a line through one point fits nothing); or a
            distance that is 0 or not finite, whose log the fit cannot take
            (a delta too small to move any angle in floating point).
    """
    deltas = tuple(float(d) for d in deltas)
    if any(not (0.0 < d <= 0.1) for d in deltas):
        raise ValueError("deltas must lie in (0, 0.1]")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")

    n_sites, pulses, label = _subject_pulses(subject)
    if len(deltas) < 2:
        raise ValueError(
            f"the slope fit needs at least two deltas, got {len(deltas)}"
        )
    ideal = pulse_product(n_sites, pulses)

    rng = np.random.default_rng(seed)
    max_offset = 0.0
    dists = []
    for delta in deltas:
        if random_offsets:
            offsets = rng.uniform(-delta, delta, size=len(pulses))
            max_offset = max(max_offset, float(np.max(np.abs(offsets))))
        else:
            offsets = np.full(len(pulses), delta)
            max_offset = max(max_offset, delta)
        perturbed = pulse_product(n_sites, pulses, offsets)
        dist = distance(perturbed, ideal)
        if not (math.isfinite(dist) and dist > 0.0):
            raise ValueError(
                f"distance {dist} at delta {delta!r}: the log-log fit needs "
                "a positive, finite distance for every delta"
            )
        dists.append(dist)

    slope, intercept = np.polyfit(np.log(deltas), np.log(dists), 1)
    return ErrorScalingReport(
        subject=label,
        deltas=deltas,
        distances=tuple(dists),
        slope=float(slope),
        intercept=float(intercept),
        mode="random" if random_offsets else "uniform",
        seed=seed if random_offsets else None,
        max_offset=max_offset,
    )
