"""Dense-matrix and statevector oracle for verifying schedules and states.

Every symbolic claim in the package can be replayed here numerically.  An
array (dim,) or (dim, k) is viewed as a ``(2,)*n + rest`` tensor; a Pauli
string flips its X/Y axes and signs its Y/Z axes.  Every pulse sequence runs
through :func:`run_pulses`, which fuses consecutive pulses whose joint
support spans at most :data:`FUSED_SITES` sites into one ``2^k x 2^k``
unitary contracted over those ``k`` axes, so a run of two-body pulses costs
one pass over the array instead of one pass each.  A lone one-string pulse
``cos(t) - i sin(t) P`` keeps the flip.  Every dense product is a plain
``2^n x 2^n`` array and every state a plain ``(2^n,)`` complex array;
:func:`expectation` reads an operator's mean on one.

The register width accepted for dense work is capped by the environment
variable ``QSA_MAX_DENSE_QUBITS`` (default 14); the cap and its
:class:`ResourceLimitError` live in :mod:`qsakit.dense_limit`, which loads
no numpy, and are re-exported here.  Every verdict on whether a
pulse program equals its exact reference is made by :func:`compare_pulses`.
Up to 10 qubits it compares the full products through
:func:`certified_distance`: a norm bound on the difference decides a pass,
and only a bound above the tolerance pays for the spectral norm.  Beyond
that it compares their action on a batch of seeded random states.

The spectral norm behind :func:`distance` and :func:`certified_distance`
needs only the largest singular value.  From :data:`KRYLOV_MIN_ROWS` rows
up it is a Golub–Kahan–Lanczos bidiagonalization that stops once the top
Ritz residual is at roundoff (``4 eps sigma``) or the Krylov space is
invariant.  After a budget of one step per :data:`KRYLOV_ROWS_PER_STEP`
rows, and below the crossover, it is the top value of numpy's SVD.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dense_limit import (
    DEFAULT_DENSE_LIMIT,
    DENSE_LIMIT_ENV,
    ResourceLimitError,
    check_dense_limit,
    max_dense_qubits,
)
from .pauli_core import (
    TOL,
    PauliString,
    WeightedPauliSum,
    _sites,
    anticommuting_pairs,
    is_involution,
)
from .schedule_compiler import QsaSchedule

#: Hard cap for full-matrix (4^n) comparisons in :func:`compare_pulses`.
MATRIX_QUBIT_CAP = 10

#: Default number of probe states above the matrix cap.
DEFAULT_PROBES = 20

#: Most sites a fused group of pulses may span in :func:`run_pulses`.  One
#: pass over a 10-qubit matrix costs 5.4, 6.4, 8.2, 11.6, 12.0 and 16.9 ms
#: for 1 to 6 local sites (2-vCPU host, BLAS on one thread), while a wider
#: cap saves passes: a 10-site doubling schedule runs its 31 pulses in 20,
#: 11, 9 and 6 passes at caps 3 to 6.  Caps 4 and 5 were the fastest in a
#: sweep of 2 to 6 (``BENCH_10.json``); 4 keeps each group's matrix 16 x 16.
FUSED_SITES = 4

#: Fewest rows and columns for which the spectral norm runs the Krylov solver
#: instead of the SVD.  Per call on schedule differences (2-vCPU host, BLAS on
#: one thread): 1.8 ms against 0.6 ms for the SVD at 64 rows; at 128 rows
#: 2.5 ms against 3.1 ms with 32 steps allowed, but the 25 steps of the
#: budget below ran out and cost 1.6-1.7 times the SVD; 4 ms against 16 ms
#: at 256 rows (``BENCH_17.json``).
KRYLOV_MIN_ROWS = 256

#: Krylov-step budget of the spectral norm: one step per this many rows.  A
#: step passes over the matrix twice, the SVD costs about ``n`` passes, so
#: the worst case, a difference of random unitaries with no gap at the top
#: of its spectrum, costs the budget plus one SVD: 1.25-1.65 times the SVD
#: at 256-1024 rows, against 1.6-1.9 for one step per four rows.  The
#: benchmark's schedule and 3x3 differences converge in 29-71 steps.
KRYLOV_ROWS_PER_STEP = 5


# -- Pauli action ----------------------------------------------------------------

# Factor of a z-site by output bit after the x flip, indexed by its x bit:
# Z|b> = (-1)^b |b>; Y|0> = i|1>, Y|1> = -i|0>.
_SIGN = (np.array([1.0, -1.0]), np.array([-1j, 1j]))


def _tensor(array: np.ndarray, n_sites: int) -> np.ndarray:
    """View a (2^n,) + rest array as a ``(2,)*n + rest`` tensor, site 0 first."""
    if array.shape[0] != 1 << n_sites:
        raise ValueError(f"array of dimension {array.shape[0]} does not fit {n_sites} sites")
    return np.asarray(array, dtype=np.complex128).reshape((2,) * n_sites + array.shape[1:])


def _pauli(string: PauliString, tensor: np.ndarray, scale: complex = 1.0, out=None):
    """``scale * P`` on a tensor: flip the ``x`` axes, then sign the ``z`` axes."""
    sign = np.full((1,) * tensor.ndim, scale * string.phase)
    for site in _sites(string.z):
        factor = _SIGN[string.x >> site & 1]
        sign = sign * factor.reshape((2,) + (1,) * (tensor.ndim - 1 - site))
    return np.multiply(np.flip(tensor, axis=_sites(string.x)), sign, out=out)


def string_action(string: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(perm, phase)`` with ``P |k> = phase[k] |perm[k]>``.

    Site 0 is the leftmost tensor factor (most significant bit), matching
    ``kron(site0, site1, ...)``.
    """
    n = string.n_sites
    flips = int(format(string.x, f"0{n}b")[::-1], 2)
    perm = np.arange(1 << n) ^ flips
    return perm, apply_string(string, np.ones(1 << n))[perm]


def apply_string(string: PauliString, array: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a state (dim,) or matrix (dim, k) array."""
    return _pauli(string, _tensor(array, string.n_sites)).reshape(array.shape)


def apply_sum(op: WeightedPauliSum, array: np.ndarray) -> np.ndarray:
    """Apply a weighted Pauli sum to a state or matrix array."""
    out = np.zeros_like(array, dtype=np.complex128)
    for coeff, string in op.terms:
        out += coeff * apply_string(string, array)
    return out


def apply_rotation(
    generator: PauliString | WeightedPauliSum, angle: float, array: np.ndarray
) -> np.ndarray:
    """Apply ``exp(-i * angle * generator)``: a one-pulse :func:`run_pulses`."""
    return run_pulses([(generator, angle)], array)


def _as_sum(op: PauliString | WeightedPauliSum) -> WeightedPauliSum:
    if isinstance(op, PauliString):
        return WeightedPauliSum.from_string(op)
    return op


# -- the pulse executor ---------------------------------------------------------


def _require_involution(deviation: float, generator: WeightedPauliSum) -> None:
    if deviation > TOL:
        raise ValueError(
            f"pulse generator {generator} is not an involution (G*G != I), "
            "so cos(t) - i sin(t) G is not its propagator"
        )


@functools.lru_cache(maxsize=256)
def _pauli_matrix(letters: tuple[str, ...]) -> np.ndarray:
    """Read-only matrix of a phase-free string on ``len(letters)`` sites."""
    k = len(letters)
    if k == 0:
        m = np.ones((1, 1), dtype=np.complex128)
    else:
        m = _pauli(PauliString(k, letters), _tensor(np.eye(1 << k), k)).reshape(1 << k, 1 << k)
    m.flags.writeable = False
    return m


def _local_unitary(generator: WeightedPauliSum, angle: float, sites: tuple[int, ...]) -> np.ndarray:
    """``cos - i sin G`` as a ``2^k x 2^k`` matrix on ``sites``.

    ``sites`` is ascending and holds the generator's support.  Its ``4^k``
    entries are held to the dense cap like a ``2k``-qubit state.
    """
    check_dense_limit(2 * len(sites), "local pulse unitary")
    eye = np.eye(1 << len(sites), dtype=np.complex128)
    local = np.zeros_like(eye)
    for coeff, string in generator.terms:
        local += coeff * string.phase * _pauli_matrix(tuple(string.letter(s) for s in sites))
    _require_involution(np.abs(local @ local - eye).max(), generator)
    return math.cos(angle) * eye - 1j * math.sin(angle) * local


def _fused_groups(pulses, shifts, n: int, cap: int):
    """Yield ``(group, mask)``: runs of consecutive pulses, in program order.

    A pulse joins the open group while the union ``mask`` of their supports
    spans at most ``cap`` sites; a wider pulse makes a group of its own.
    Each generator becomes a sum, takes its shift and has its register width
    checked as the walk reaches it.
    """
    group, joint = [], 0
    for (generator, angle), shift in zip(pulses, shifts):
        generator = _as_sum(generator)
        if generator.n_sites != n:
            raise ValueError(f"generator on {generator.n_sites} sites, array on {n}")
        mask = 0
        for _, string in generator.terms:
            mask |= string.x | string.z
        if group and (joint | mask).bit_count() > cap:
            yield group, joint
            group, joint = [], 0
        group.append((generator, angle + float(shift)))
        joint |= mask
    if group:
        yield group, joint


def run_pulses(pulses, array: np.ndarray, offsets=None) -> np.ndarray:
    """Apply ``exp(-i * (angle + offset) * generator)`` for each pulse in order.

    ``pulses`` holds ``(generator, angle)`` pairs, first applied first; a
    generator is a string or a weighted sum on the array's register and must
    be an involution (checked once per pulse, ``ValueError`` naming it
    otherwise).  ``array`` is a state (dim,) or a matrix / batch of states
    (dim, k) and is not modified.  ``offsets`` shifts the angles, one value
    per pulse or one for all.

    Gate fusion (Häner & Steiger, arXiv:1704.01127): consecutive pulses are
    grouped, without reordering, while their joint support spans at most
    ``min(FUSED_SITES, max_dense_qubits() // 2)`` sites, so the group's
    ``4^k`` entries stay within the dense cap.  A group that is one
    one-string pulse is applied as a flip plus a sign; any other group is
    the ordered product of its pulses' ``cos - i sin G`` on the group's
    sites, applied as one local unitary.  A multi-term generator wider than
    the cap is a group of its own.
    """
    n = array.shape[0].bit_length() - 1
    # two buffers take turns as source and destination, so a run holds three
    # arrays of this size, the input included
    own = np.array(_tensor(array, n))
    spare = np.empty_like(own)
    tensor = own
    shifts = np.broadcast_to(0.0 if offsets is None else offsets, (len(pulses),))
    cap = min(FUSED_SITES, max_dense_qubits() // 2)
    for group, mask in _fused_groups(pulses, shifts, n, cap):
        generator, angle = group[0]
        if len(group) == 1 and len(generator.terms) == 1:
            (coeff, string), = generator.terms
            _require_involution(abs(coeff * coeff - 1.0), generator)
            out = _pauli(string, tensor, -1j * math.sin(angle) * coeff, out=spare)
            tensor *= math.cos(angle)
            out += tensor
            own, spare, tensor = spare, own, out
        else:
            sites = _sites(mask)
            unitary = np.eye(1 << len(sites), dtype=np.complex128)
            for generator, angle in group:
                unitary = _local_unitary(generator, angle, sites) @ unitary
            # copy the group's axes to the front, act on them, put them back
            order = sites + tuple(a for a in range(own.ndim) if a not in sites)
            moved = spare.reshape(tensor.transpose(order).shape)
            np.copyto(moved, tensor.transpose(order))
            flat = own.reshape(1 << len(sites), own.size >> len(sites))
            np.matmul(unitary, moved.reshape(flat.shape), out=flat)
            tensor = own.reshape(moved.shape).transpose(np.argsort(order))
    if not tensor.flags.c_contiguous:
        np.copyto(spare, tensor)
        tensor = spare
    return tensor.reshape(array.shape)


def pulse_unitary(n_sites: int, pulses, context: str, offsets=None) -> np.ndarray:
    """Time-ordered product of ``pulses`` as a matrix: :func:`run_pulses` on the identity.

    The register is held to the dense cap; ``context`` names the caller in the error.
    """
    check_dense_limit(n_sites, context)
    eye = np.eye(1 << n_sites, dtype=np.complex128)
    return run_pulses(pulses, eye, offsets)


# -- dense matrices -------------------------------------------------------------


def to_matrix(op: PauliString | WeightedPauliSum) -> np.ndarray:
    """Explicit ``2^n x 2^n`` matrix of a string or weighted sum (respects the dense cap)."""
    check_dense_limit(op.n_sites, "to_matrix")
    apply = apply_string if isinstance(op, PauliString) else apply_sum
    return apply(op, np.eye(1 << op.n_sites, dtype=np.complex128))


def expm(generator: PauliString | WeightedPauliSum, angle: float) -> np.ndarray:
    """Exact ``exp(-i * angle * generator)`` as a ``2^n x 2^n`` matrix.

    Involution generators use the closed form.  A sum of pairwise commuting
    strings is the product of its per-term rotations
    ``exp(-i * angle * c * P)``, run by :func:`pulse_unitary`.  Anything else
    falls back to a Hermitian eigendecomposition.
    """
    h = _as_sum(generator)
    check_dense_limit(h.n_sites, "expm")
    if is_involution(h):
        m = to_matrix(h)
        return math.cos(angle) * np.eye(len(m)) - 1j * math.sin(angle) * m
    if not anticommuting_pairs([string for _, string in h.terms]):
        return pulse_unitary(h.n_sites, [(s, c * angle) for c, s in h.terms], "expm")
    vals, vecs = np.linalg.eigh(to_matrix(h))
    return (vecs * np.exp(-1j * angle * vals)) @ vecs.conj().T


def _difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a - b


_EPS = float(np.finfo(float).eps)

#: Most bidiagonalization steps between two solves of the projected problem.
_RITZ_EVERY = 8


def _krylov_norm(d: np.ndarray) -> float | None:
    """Largest singular value of ``d`` by Golub–Kahan–Lanczos, or ``None``.

    The bidiagonalization (Golub & Kahan 1965) starts from a fixed-seed
    Gaussian unit vector and reorthogonalizes each new vector against all
    earlier ones.  ``D^H u`` is computed as ``(u^H D)^H``, and every product
    is divided by the peak entry of the first one, so entries near the ends
    of the float range neither underflow nor overflow.  The top Ritz value
    of the bidiagonal ``B`` is returned once its residual ``beta |x_k|`` is
    at most ``4 eps sigma``, or once a new ``alpha`` or ``beta`` is that
    small, which means the Krylov space is invariant and the value exact.
    ``B`` is solved every :data:`_RITZ_EVERY` steps, or sooner where the
    residual, falling geometrically since the last solve, should reach the
    bound.  ``None`` means "take the SVD": the start vector lies in the
    kernel of a nonzero ``d``, or ``min(m, n) // KRYLOV_ROWS_PER_STEP``
    steps did not converge.  A NaN or infinite entry is returned as a
    non-finite value at once, and a zero matrix as exactly 0.0.
    """
    m, n = d.shape
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if np.iscomplexobj(d) else 0.0)
    v /= np.linalg.norm(v)
    with np.errstate(invalid="ignore"):  # an infinite entry may sum to inf - inf
        u = d @ v
    scale = float(np.abs(u).max())
    if not math.isfinite(scale):
        return scale
    if scale == 0.0:
        return None if d.any() else 0.0
    steps = min(m, n) // KRYLOV_ROWS_PER_STEP
    right = np.empty((steps, n), u.dtype)
    left = np.empty((steps, m), u.dtype)
    bidiagonal = np.zeros((steps, steps + 1))
    right[0] = v
    u /= scale
    peak = 0.0  # largest entry of B so far: a lower bound on its norm
    check, last = _RITZ_EVERY, None
    for k in range(steps):
        alpha = math.sqrt(np.vdot(u, u).real)
        bidiagonal[k, k] = alpha
        peak = max(peak, alpha)
        if alpha <= 4 * _EPS * peak:
            return scale * float(np.linalg.svd(bidiagonal[:k + 1, :k + 1], compute_uv=False)[0])
        np.multiply(u, 1.0 / alpha, out=left[k])
        w = np.conjugate(left[k]) @ d
        np.conjugate(w, out=w)
        w *= 1.0 / scale
        w -= alpha * right[k]
        w -= np.conjugate(right[:k + 1] @ np.conjugate(w)) @ right[:k + 1]
        beta = math.sqrt(np.vdot(w, w).real)
        bidiagonal[k, k + 1] = beta
        peak = max(peak, beta)
        if k + 1 in (check, steps) or beta <= 4 * _EPS * peak:
            x, s, _ = np.linalg.svd(bidiagonal[:k + 1, :k + 1])
            residual, bound = beta * abs(x[k, 0]), 4 * _EPS * s[0]
            if residual <= bound:
                return scale * float(s[0])
            gap = _RITZ_EVERY
            if last is not None and residual < last[1]:
                rate = math.log(residual / last[1]) / (k + 1 - last[0])
                gap = min(gap, max(1, math.ceil(math.log(bound / residual) / rate)))
            last, check = (k + 1, residual), k + 1 + gap
        if k + 1 == steps:
            return None
        np.multiply(w, 1.0 / beta, out=right[k + 1])
        u = d @ right[k + 1]
        u *= 1.0 / scale
        u -= beta * left[k]
        u -= np.conjugate(left[:k + 1] @ np.conjugate(u)) @ left[:k + 1]
    return None


def _spectral_norm(d: np.ndarray) -> float:
    sigma = _krylov_norm(d) if d.ndim == 2 and min(d.shape) >= KRYLOV_MIN_ROWS else None
    return float(np.linalg.svd(d, compute_uv=False)[0]) if sigma is None else sigma


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral distance: the largest singular value of ``a - b``.

    From :data:`KRYLOV_MIN_ROWS` (256) rows up it comes from a Golub–Kahan–
    Lanczos bidiagonalization with a fixed-seed start and full
    reorthogonalization, which stops when the top Ritz residual is at most
    ``4 eps sigma`` or the Krylov space is invariant (the value is then
    exact).  Past a budget of ``rows // KRYLOV_ROWS_PER_STEP`` steps (a
    spectrum with no gap at the top, like a difference of random unitaries)
    and below 256 rows, where the SVD is faster, it is the top value of
    ``np.linalg.svd``.  Both agree at roundoff.  On the Krylov path a NaN or
    infinite entry gives a non-finite distance at once.
    """
    return _spectral_norm(_difference(a, b))


def certified_distance(a: np.ndarray, b: np.ndarray, tolerance: float) -> tuple[float, str]:
    """``(value, metric)`` deciding whether ``a`` and ``b`` agree to ``tolerance``.

    With ``D = a - b``, ``||D||_2 <= min(||D||_F, sqrt(||D||_1 * ||D||_inf))``.
    When that bound is at most ``tolerance`` it is returned under the metric
    ``spectral_distance_bound``: the exact distance is no larger, so the pass
    is certified without a spectral norm.  Otherwise :func:`distance` is
    returned under ``spectral_distance``: a Golub–Kahan–Lanczos value that
    stops at a ``4 eps sigma`` Ritz residual from 256 rows up, and the SVD
    below 256 rows or past the ``rows // KRYLOV_ROWS_PER_STEP`` step budget.
    It matches the SVD at roundoff, so ``value <= tolerance`` is the verdict
    the exact distance gives.  A NaN or infinite entry is returned as a
    non-finite exact distance without any iteration, so it passes no finite
    tolerance.
    """
    d = _difference(a, b)
    mag = np.abs(d)
    bound = min(
        float(np.linalg.norm(mag)),
        math.sqrt(float(mag.sum(axis=0).max()) * float(mag.sum(axis=1).max())),
    )
    if bound <= tolerance:  # False for NaN
        return bound, "spectral_distance_bound"
    peak = float(mag.max())
    del mag  # the norm allocates its own work arrays
    if not math.isfinite(peak):
        return peak, "spectral_distance"
    return _spectral_norm(d), "spectral_distance"


# -- states ----------------------------------------------------------------------


def expectation(op: PauliString | WeightedPauliSum, state: np.ndarray) -> complex:
    """``<state|op|state>`` of a string or weighted sum on a ``(2^n,)`` state."""
    return complex(np.vdot(state, apply_sum(_as_sum(op), state)))


def _random_state(n_sites: int, seed: int) -> np.ndarray:
    """A seeded Gaussian unit state on ``n_sites`` qubits (held to the dense cap)."""
    check_dense_limit(n_sites, "random state")
    rng = np.random.default_rng(seed)
    data = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return data / float(np.linalg.norm(data))


# -- schedule execution --------------------------------------------------------


def schedule_pulses(
    schedule: QsaSchedule, tg: float | None = None
) -> list[tuple[WeightedPauliSum, float]]:
    """The schedule's pulse list in the time order of :func:`schedule_unitary`.

    Each attachment or swapper pulse is its spec's generator at the spec's
    inverse or forward branch angle; the seed runs at ``tg``.
    """
    n = schedule.n_sites
    tg = schedule.tg if tg is None else tg
    swappers = list(schedule.final_swappers)
    inverse = swappers + [spec for layer in reversed(schedule.layers) for spec in layer]
    forward = [spec for layer in schedule.layers for spec in layer] + swappers
    return [
        *[(spec.generator(n), spec.inverse_angle) for spec in inverse],
        (WeightedPauliSum.from_string(schedule.seed), tg),
        *[(spec.generator(n), spec.forward_angle) for spec in forward],
    ]


def apply_schedule(
    schedule: QsaSchedule, state: np.ndarray, tg: float | None = None
) -> np.ndarray:
    """Run the schedule's pulse sequence on a ``(2^n,)`` state."""
    if state.shape != (1 << schedule.n_sites,):
        raise ValueError("state width does not match schedule")
    return run_pulses(schedule_pulses(schedule, tg), state)


def schedule_unitary(schedule: QsaSchedule, tg: float | None = None) -> np.ndarray:
    """The ordered pulse product as an explicit matrix.

    Time order: inverse swappers, inverse attachment pulses (outermost layer
    first), the seed propagator, forward attachment pulses (innermost layer
    first), forward swappers.  :func:`run_pulses` transforms the identity's
    columns, at O(4^n) per fused group of pulses with no full-matrix products.
    """
    return pulse_unitary(schedule.n_sites, schedule_pulses(schedule, tg), "schedule_unitary")


def compare_pulses(
    n_sites: int,
    pulses,
    reference,
    tolerance: float,
    n_probes: int = DEFAULT_PROBES,
    seed: int = 7,
) -> dict:
    """Judge the pulse program ``pulses`` against the pulse program ``reference``.

    Both are ``(generator, angle)`` lists as :func:`run_pulses` takes them.  Up
    to :data:`MATRIX_QUBIT_CAP` sites both products are built by
    :func:`pulse_unitary` and compared by :func:`certified_distance`.  Above
    that, up to the dense limit, both lists run on one ``(2^n, n_probes)``
    batch of random states (probe ``k`` drawn from ``seed + k``), and the
    distance is the largest L2 deviation, under the metric
    ``max_state_l2[<n_probes> probes]``.  No separate norm check is needed:
    ``||a - b|| >= | ||a|| - ||b|| |``, so a program that loses norm fails the
    tolerance like any other wrong output.

    Returns a deterministic report with the metric, distance, tolerance, probe
    seed (``None`` when no probe was drawn) and pass flag.
    """
    if n_sites <= MATRIX_QUBIT_CAP:
        dist, metric = certified_distance(
            pulse_unitary(n_sites, pulses, "compare_pulses"),
            pulse_unitary(n_sites, reference, "compare_pulses"),
            tolerance,
        )
        seed = None
    else:
        check_dense_limit(n_sites, "compare_pulses")
        if n_probes < 1:
            raise ValueError(f"n_probes must be at least 1, got {n_probes}")
        probes = np.empty((1 << n_sites, n_probes), dtype=np.complex128)
        for k in range(n_probes):
            probes[:, k] = _random_state(n_sites, seed + k)
        dist = max(
            float(np.linalg.norm(a - b))
            for a, b in zip(run_pulses(pulses, probes).T, run_pulses(reference, probes).T)
        )
        metric = f"max_state_l2[{n_probes} probes]"
    return {
        "metric": metric,
        "distance": dist,
        "tolerance": tolerance,
        "seed": seed,
        "passed": bool(dist <= tolerance),
    }


def verify_schedule(
    schedule: QsaSchedule,
    tg: float | None = None,
    tolerance: float = 1e-10,
    n_probes: int = DEFAULT_PROBES,
    seed: int = 7,
) -> dict:
    """Compare the schedule's pulse product against the target exponential.

    The reference is the one-pulse program ``[(target, tg)]``, which is the
    exact ``exp(-i tg target)``; :func:`compare_pulses` makes the judgement
    (full matrices up to 10 sites, ``n_probes`` probe states from ``seed``
    above).  Returns its report plus ``n_sites`` and the angle ``tg`` used.
    """
    tg = schedule.tg if tg is None else tg
    report = compare_pulses(
        schedule.n_sites, schedule_pulses(schedule, tg), [(schedule.target, tg)],
        tolerance, n_probes, seed,
    )
    return {"n_sites": schedule.n_sites, "tg": tg, **report}
