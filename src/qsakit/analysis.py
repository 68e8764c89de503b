"""Strength accounting and first-order error scaling for pulse schedules.

Conjugating a seed propagator does not change the product t*g, so realizing
``exp(-i t' g' target)`` costs the seed time plus the pulse durations: with
n attachment steps of durations tau (forward) and tau' (inverse) per step,
``t' = t + n(tau + tau')`` and hence ``g' = g t / t'``.  The toric-code
Hamiltonian splits into four sequential stages, which divides the effective
coupling by another factor of four.

Coherent control errors enter as a common offset delta added to every pulse
angle; the resulting distance from the ideal unitary is first order in
delta, verified here by a log-log fit over a span of deltas.  The offsets
are this module's: it shifts a program's angles and hands the dense oracle
the shifted program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense_oracle import program_distances, pulse_unitary
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


def _subject_label(subject) -> str:
    if isinstance(subject, QsaSchedule):
        return f"schedule[{subject.target}]"
    if isinstance(subject, DigitalSequence):
        spec = subject.spec
        return f"digital[{spec.rows}x{spec.cols} {spec.boundary} {spec.model}]"
    raise TypeError("subject must be a QsaSchedule or a DigitalSequence")


def _shifted(pulses, offsets) -> list:
    """``pulses`` with each angle shifted by its offset: one value per pulse, or one for all."""
    shifts = np.broadcast_to(offsets, (len(pulses),))
    return [(generator, angle + float(shift)) for (generator, angle), shift in zip(pulses, shifts)]


def pulse_product(n_sites: int, pulses, offsets=None) -> np.ndarray:
    """Time-ordered pulse product as a matrix, with optional angle offsets."""
    if offsets is not None:
        pulses = _shifted(pulses, offsets)
    return pulse_unitary(n_sites, pulses, "pulse product")


def error_scaling(
    subject: QsaSchedule | DigitalSequence,
    deltas=(1e-2, 1e-3, 1e-4),
    seed: int | None = None,
) -> dict:
    """Perturb every pulse angle (the seed pulse included) and fit the error order.

    For each delta the perturbed product offsets all pulse angles by +delta
    (or, given a ``seed``, by independent uniform draws from [-delta, +delta]
    of ``numpy.random.default_rng(seed)``; with no seed no generator is made);
    the reported distance is the spectral distance to the ideal product, from
    :func:`~qsakit.dense_oracle.program_distances` on the ideal program and
    the perturbed angle lists, which fuses them on one shared plan.
    Up to 7 sites it forms both products and takes
    :func:`~qsakit.dense_oracle.distance`: numpy's SVD below 256 rows, at
    256 a Golub–Kahan–Lanczos bidiagonalization that stops on a Ritz-gap
    estimate, with the SVD past a budget of one step per five rows.  From 8
    sites up no product is formed: the same solver runs matrix-free on each
    perturbed program minus the ideal one, with no SVD to fall back on, the
    solvers in lockstep (one stacked pass of every program per step), each
    value bitwise that of a lone solve.
    On a top pair split by less than about ``1000 eps`` (the products are
    unitary, of norm 1), such as the floating-point split of a degenerate
    top, either may return a value between the two copies.  The matrix-free
    path also carries the roundoff of running two programs, about ``eps``
    over the distance: on 8-10-site schedules at delta 1e-4 its values lie
    within 1.2e-13 of the SVD of the formed difference.
    slope/intercept are the least-squares fit of log(distance) against
    log(delta).

    Returns the report ``{"subject", "deltas", "distances", "slope",
    "intercept", "mode", "seed", "max_offset"}``: ``mode`` is ``"uniform"``
    with no seed and ``"random"`` with one, and ``max_offset`` is the largest
    ``|offset|`` applied.

    Raises:
        ResourceLimitError: above the dense limit, or from 8 sites up when
            the matrix-free solver spends its step budget.
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
    if len(deltas) < 2:
        raise ValueError(
            f"the slope fit needs at least two deltas, got {len(deltas)}"
        )

    label = _subject_label(subject)
    n_sites, pulses = subject.n_sites, subject.pulses()
    rng = None if seed is None else np.random.default_rng(seed)
    max_offset = 0.0
    angle_sets = []
    for delta in deltas:
        if rng is None:
            offsets = np.full(len(pulses), delta)
            max_offset = max(max_offset, delta)
        else:
            offsets = rng.uniform(-delta, delta, size=len(pulses))
            max_offset = max(max_offset, float(np.max(np.abs(offsets))))
        angle_sets.append([angle for _, angle in _shifted(pulses, offsets)])
    dists = program_distances(n_sites, pulses, angle_sets)
    for delta, dist in zip(deltas, dists):
        if not (math.isfinite(dist) and dist > 0.0):
            raise ValueError(
                f"distance {dist} at delta {delta!r}: the log-log fit needs "
                "a positive, finite distance for every delta"
            )

    slope, intercept = np.polyfit(np.log(deltas), np.log(dists), 1)
    return {
        "subject": label,
        "deltas": list(deltas),
        "distances": list(dists),
        "slope": float(slope),
        "intercept": float(intercept),
        "mode": "uniform" if seed is None else "random",
        "seed": seed,
        "max_offset": max_offset,
    }
