"""Dense-matrix and statevector oracle for verifying schedules and states.

Every symbolic claim in the package can be replayed here numerically.  An
array (dim,) or (dim, k) is viewed as a ``(2,)*n + rest`` tensor; a Pauli
string flips its X/Y axes and signs its Y/Z axes.  Every pulse sequence runs
through :func:`run_pulses`, which fuses consecutive pulses whose joint
support spans at most :data:`FUSED_SITES` sites into one ``2^k x 2^k``
unitary contracted over those ``k`` axes (:func:`fuse_pulses`), so a run
of two-body pulses costs one pass over the array instead of one pass each.
The grouping does not depend on the dense limit, so a program's result is
the same under every limit that admits its register.
A lone one-string pulse ``cos(t) - i sin(t) P`` keeps the flip.  The
executor runs the program it is given: a schedule's program comes from
``QsaSchedule.pulses`` in :mod:`qsakit.schedule_compiler`, and
:mod:`qsakit.analysis` shifts the angles of a perturbed one.  Every
dense product is a plain ``2^n x 2^n`` array and every state a plain
``(2^n,)`` complex array; :func:`expectation` reads an operator's mean on
one, a one-term operator in one pass into one new array and one
``np.vdot``.  A product, whether :func:`pulse_unitary`'s or the formed
branch of :func:`program_distances`, comes from :func:`_identity_product`:
the fused program runs on the identity's columns a block of
:data:`IDENTITY_BLOCK` entries at a time, each block written into the one
output array, so the groups pass over a cache-sized block and the full
identity is never formed (cache blocking, Häner & Steiger,
arXiv:1704.01127).  Columns are
transformed independently, so the product is bitwise the whole identity's.
A state runs whole.

The register width accepted for dense work is capped by the environment
variable ``QSA_MAX_DENSE_QUBITS`` (default 14); the cap and its
:class:`ResourceLimitError` live in :mod:`qsakit.dense_limit`, which loads
no numpy, and are re-exported here.  Every verdict on whether a
pulse program equals its exact reference is made by :func:`compare_pulses`,
which runs both programs on one fixed input batch per register width, a
block of :data:`IDENTITY_BLOCK` entries at a time, and keeps only what the
verdict reads.  Up to 10 qubits the batch is the identity: the blocks'
``|program - reference|`` fill one float64 ``2^n x 2^n`` array, whose norm
bound decides a pass, and only a bound above the tolerance forms both
products for :func:`certified_distance` and its spectral norm.  Beyond that
the batch is :data:`PROBES` probe states drawn from :data:`PROBE_SEED` on,
and the verdict reads their largest deviation.  Either way the report is
bitwise the whole batch's: a function of the two programs and the tolerance.
A program made of segments, each realizing commuting terms of its
reference, is judged by :func:`compare_segments`: each segment by
:func:`compare_pulses` on its own few sites, the sum of their spectral
distances bounding the whole program's, and the global verdict whenever that
sum certifies no pass.

The spectral norm behind :func:`distance` and :func:`certified_distance`
needs only the largest singular value.  From :data:`KRYLOV_MIN_ROWS` rows
up it is a Golub–Kahan–Lanczos bidiagonalization that stops on the Ritz
gap: once the top Ritz residual ``r`` is at most ``max(4 eps theta1,
min(sqrt(8 eps (theta1^2 - theta2^2)), 1000 eps max(theta1, m)))`` for the
top two Ritz values and a lower bound ``m`` on the norms of the two
operands, where the Kato–Temple estimate of the error falls to ``4 eps
theta1`` and the residual itself to the cap :data:`_RESIDUAL_CAP`, or once
the Krylov space is invariant.  That is an estimate, not a rigorous bound;
on a top pair split by less than about ``1000 eps max(theta1, m)``, such as
the floating-point split of a degenerate top, it returns a value between
the two.  After a budget of one step per :data:`KRYLOV_ROWS_PER_STEP` rows,
and below the crossover, it is the top value of numpy's SVD.
:func:`fused_distance` runs the same solver on the difference of two fused
pulse programs as an operator, with no ``2^n x 2^n`` array and a fixed
budget of :data:`MATRIX_FREE_STEPS` steps.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

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
    restrict,
)

#: Hard cap for full-matrix (4^n) comparisons in :func:`compare_pulses`.
MATRIX_QUBIT_CAP = 10

#: Number of probe states :func:`compare_pulses` runs above the matrix cap.
PROBES = 20

#: Seed of the first probe state: probe ``k`` is drawn from ``PROBE_SEED + k``.
PROBE_SEED = 11

#: Largest distance :func:`verify_schedule` accepts between a schedule's
#: pulse product and its target exponential.
SCHEDULE_TOLERANCE = 1e-10

#: Most sites a fused group of pulses may span in :func:`run_pulses`.  One
#: pass over a 10-qubit matrix costs 5.4, 6.4, 8.2, 11.6, 12.0 and 16.9 ms
#: for 1 to 6 local sites (2-vCPU host, BLAS on one thread), while a wider
#: cap saves passes: a 10-site doubling schedule runs its 31 pulses in 20,
#: 11, 9 and 6 passes at caps 3 to 6.  Caps 4 and 5 were the fastest in a
#: sweep of 2 to 6 (``BENCH_10.json``); 4 keeps each group's matrix 16 x 16.
FUSED_SITES = 4

#: Entries of one column block of a fixed input batch in :func:`_input_blocks`.
#: A block of ``2^15`` complex entries is 512 KiB, so the block and the two
#: work buffers of :func:`_apply_fused` stay in a 4 MiB L2 cache while every
#: fused group runs over them (cache blocking, Häner & Steiger,
#: arXiv:1704.01127).  Summed over the five verify-dense schedules of 8 to
#: 10 sites (medians of 15 rounds, 2-vCPU host, BLAS on one thread),
#: ``verify_schedule`` took 188 ms on the whole identity and 164, 143, 139,
#: 145 and 159 ms with blocks of ``2^13`` to ``2^17`` entries; the 10-site
#: schedule alone fell from 136 to 91 ms (``BENCH_30.json``).
IDENTITY_BLOCK = 1 << 15

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
#: at 256-1024 rows, against 1.6-1.9 for one step per four rows.  With the
#: Ritz-gap stop, 8-10-site schedule differences converge in 24-38 steps and
#: 3x3 lattice differences, whose top is 4-fold degenerate, in 29-34.
KRYLOV_ROWS_PER_STEP = 5

#: Krylov-step budget of :func:`fused_distance`, which has no SVD to fall
#: back on.  Each step keeps one left and one right vector of ``2^n``
#: complex entries, so at 14 sites the two bases hold at most 96 MiB.
MATRIX_FREE_STEPS = 192

#: Widest register on which :func:`program_distances` forms the products and
#: takes :func:`distance`; from one site more it runs :func:`fused_distance`.
#: Three distances (deltas 1e-2, 1e-3, 1e-4; 2-vCPU host, BLAS on one
#: thread) take 3.6-4.2 ms formed against 16-31 ms matrix-free on 6-site
#: schedules, 11-17 against 26-31 at 7 and 22-33 against 38-67 at 8, where
#: each Krylov step pays the Python cost of four program runs; at 9 sites
#: 121-140 against 61-113 (the 3x3 Wen lattice 77 against 31), and at 10
#: 531-699 against 78-150 (``BENCH_23.json``).
MATRIX_DISTANCE_SITES = 8


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


def _apply_string_into(string: PauliString, array: np.ndarray, out: np.ndarray) -> None:
    """:func:`apply_string` written into ``out``: a complex array of ``array``'s
    shape that does not overlap it."""
    n = string.n_sites
    _pauli(string, _tensor(array, n), out=_tensor(out, n))


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


def _local_generator(generator: WeightedPauliSum, sites: tuple[int, ...]) -> np.ndarray:
    """The generator ``G`` as a ``2^k x 2^k`` matrix on ``sites``, checked to square to 1.

    ``sites`` is ascending and holds the generator's support.  A fused
    group spans at most :data:`FUSED_SITES` sites whatever the dense limit;
    only a lone multi-term pulse can be wider, and then its ``4^k`` entries
    are held to the dense cap like a ``2k``-qubit state.
    """
    if len(sites) > FUSED_SITES:
        check_dense_limit(2 * len(sites), "local pulse unitary")
    eye = np.eye(1 << len(sites), dtype=np.complex128)
    local = np.zeros_like(eye)
    for coeff, string in generator.terms:
        local += coeff * string.phase * _pauli_matrix(tuple(string.letter(s) for s in sites))
    _require_involution(np.abs(local @ local - eye).max(), generator)
    return local


def _fusion_plan(n_sites: int, generators) -> list:
    """The groups of :func:`fuse_pulses` for a program's generators, before any angle.

    The grouping depends on the supports alone, so programs that share
    their generators and differ in their angles share one plan.  A group
    that is one one-string pulse becomes ``(string, coeff)``; any other
    ``(sites, locals)``, each pulse's :func:`_local_generator` on the
    group's sites.  Each generator is checked to be an involution
    (``ValueError`` naming it).
    """
    groups = []  # [generators, mask of their joint support], in program order
    for generator in generators:
        generator = _as_sum(generator)
        if generator.n_sites != n_sites:
            raise ValueError(f"generator on {generator.n_sites} sites, array on {n_sites}")
        mask = 0
        for _, string in generator.terms:
            mask |= string.x | string.z
        if not groups or (groups[-1][1] | mask).bit_count() > FUSED_SITES:
            groups.append([[], 0])
        groups[-1][0].append(generator)
        groups[-1][1] |= mask
    plan = []
    for group, mask in groups:
        if len(group) == 1 and len(group[0].terms) == 1:
            (coeff, string), = group[0].terms
            _require_involution(abs(coeff * coeff - 1.0), group[0])
            plan.append((string, coeff))
        else:
            sites = _sites(mask)
            plan.append((sites, [_local_generator(generator, sites) for generator in group]))
    return plan


def _fused_at(plan: list, angles) -> list:
    """The fused program of :func:`_fusion_plan`'s ``plan`` at ``angles``, one per pulse.

    A flip becomes ``(string, (cos, scale))`` with ``scale = -i sin coeff``;
    a group becomes ``(sites, unitary)``, the ordered product of its
    pulses' ``cos - i sin G``.
    """
    angles = iter(angles)
    fused = []
    for key, op in plan:
        if isinstance(key, PauliString):
            angle = next(angles)
            fused.append((key, (math.cos(angle), -1j * math.sin(angle) * op)))
        else:
            eye = np.eye(1 << len(key), dtype=np.complex128)
            unitary = eye
            for local in op:
                angle = next(angles)
                unitary = (math.cos(angle) * eye - 1j * math.sin(angle) * local) @ unitary
            fused.append((key, unitary))
    return fused


def fuse_pulses(n_sites: int, pulses) -> list:
    """The pulse program ``pulses`` on ``n_sites`` as fused groups, first applied first.

    ``pulses`` is as :func:`run_pulses` takes it.  Gate fusion (Häner &
    Steiger, arXiv:1704.01127): a pulse joins the open group, without
    reordering, while their joint support spans at most
    :data:`FUSED_SITES` sites; a wider pulse opens a group of its own.  The
    grouping ignores the dense limit, so the groups, and every product they
    make, are the same under every limit.  A group
    that is one one-string pulse becomes ``(string, (cos, scale))``, the
    flip ``cos + scale P``; any other group becomes ``(sites, unitary)``,
    the ordered product of its pulses' ``cos - i sin G`` on the group's
    sites.  Each generator is checked to be an involution (``ValueError``
    naming it).  :func:`_apply_fused` runs the groups, so a program fused
    once can act on many arrays.  It is :func:`_fused_at` on
    :func:`_fusion_plan`.
    """
    pulses = list(pulses)
    plan = _fusion_plan(n_sites, [generator for generator, _ in pulses])
    return _fused_at(plan, [angle for _, angle in pulses])


def _adjoint(fused: list) -> list:
    """The fused program of the adjoint: groups reversed, each conjugate-transposed.

    A flip's generator is Hermitian, so its adjoint is the flip with the
    sign of ``scale`` turned.
    """
    return [
        (key, (op[0], -op[1]) if isinstance(key, PauliString) else op.conj().T)
        for key, op in reversed(fused)
    ]


@functools.lru_cache(maxsize=1024)
def _axis_orders(sites: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(order, inverse)``: the transpose that brings ``sites`` to the front, and its undoing."""
    order = sites + tuple(a for a in range(ndim) if a not in sites)
    inverse = [0] * ndim
    for position, axis in enumerate(order):
        inverse[axis] = position
    return order, tuple(inverse)


def _apply_fused(fused: list, array: np.ndarray) -> np.ndarray:
    """Run the groups of :func:`fuse_pulses` on a state (dim,) or matrix (dim, k) array.

    A flip is an axis flip plus a sign; a unitary group is contracted over
    its sites' axes.  ``array`` is not modified.  Every column is
    transformed on its own, so a block of columns comes out bitwise as it
    does inside the whole matrix where BLAS multiplies both alike, as it
    does on the blocks of :func:`_input_blocks` (on one or three columns a
    five-site group's 32 x 32 product can differ in the last bit).
    """
    n = array.shape[0].bit_length() - 1
    # two buffers take turns as source and destination, so a run holds three
    # arrays of this size, the input included; an identity product holds
    # three of one block's size next to its output
    own = np.array(_tensor(array, n))
    spare = np.empty_like(own)
    tensor = own
    for key, op in fused:
        if isinstance(key, PauliString):
            cos, scale = op
            out = _pauli(key, tensor, scale, out=spare)
            tensor *= cos
            out += tensor
            own, spare, tensor = spare, own, out
        else:
            # copy the group's axes to the front, act on them, put them back
            order, inverse = _axis_orders(key, own.ndim)
            moved = spare.reshape(tensor.transpose(order).shape)
            np.copyto(moved, tensor.transpose(order))
            flat = own.reshape(1 << len(key), own.size >> len(key))
            np.matmul(op, moved.reshape(flat.shape), out=flat)
            tensor = own.reshape(moved.shape).transpose(inverse)
    if not tensor.flags.c_contiguous:
        np.copyto(spare, tensor)
        tensor = spare
    return tensor.reshape(array.shape)


def run_pulses(pulses, array: np.ndarray) -> np.ndarray:
    """Apply ``exp(-i * angle * generator)`` for each pulse in order.

    ``pulses`` holds ``(generator, angle)`` pairs, first applied first; a
    generator is a string or a weighted sum on the array's register and must
    be an involution (checked once per pulse, ``ValueError`` naming it
    otherwise).  ``array`` is a state (dim,) or a matrix / batch of states
    (dim, k) and is not modified.  The program is fused by
    :func:`fuse_pulses` and run by :func:`_apply_fused`.
    """
    n = array.shape[0].bit_length() - 1
    return _apply_fused(fuse_pulses(n, pulses), array)


def _input_blocks(n_sites: int, probes: bool):
    """Yield ``(columns, block)``: the identity, or with ``probes`` the :data:`PROBES`
    probe states (column ``k`` from ``PROBE_SEED + k``), as ``(2^n, width)`` blocks
    of :data:`IDENTITY_BLOCK` entries with their column slices, never whole.
    """
    dim = 1 << n_sites
    count, width = PROBES if probes else dim, max(1, IDENTITY_BLOCK >> n_sites)
    for start in range(0, count, width):
        columns = range(start, min(start + width, count))
        if probes:
            block = np.stack([_random_state(n_sites, PROBE_SEED + k) for k in columns], axis=1)
        else:
            block = np.eye(dim, len(columns), -start, dtype=np.complex128)
        yield slice(start, columns.stop), block


def _identity_product(n_sites: int, fused: list) -> np.ndarray:
    """The fused program's ``2^n x 2^n`` product: :func:`_apply_fused` on the identity.

    The identity's columns run a block at a time (:func:`_input_blocks`) into
    the one output array, bitwise as the whole identity's.
    """
    product = np.empty((1 << n_sites,) * 2, dtype=np.complex128)
    for columns, block in _input_blocks(n_sites, False):
        product[:, columns] = _apply_fused(fused, block)
    return product


def pulse_unitary(n_sites: int, pulses, context: str) -> np.ndarray:
    """Time-ordered product of ``pulses`` as a ``2^n x 2^n`` matrix.

    The program is fused by :func:`fuse_pulses` and run on the identity a
    block of columns at a time by :func:`_identity_product`, so the result
    is bitwise :func:`run_pulses` on the whole identity.  The register is
    held to the dense cap; ``context`` names the caller in the error.
    """
    check_dense_limit(n_sites, context)
    return _identity_product(n_sites, fuse_pulses(n_sites, pulses))


# -- dense matrices -------------------------------------------------------------


def to_matrix(op: PauliString | WeightedPauliSum) -> np.ndarray:
    """Explicit ``2^n x 2^n`` matrix of a string or weighted sum (respects the dense cap)."""
    check_dense_limit(op.n_sites, "to_matrix")
    apply = apply_string if isinstance(op, PauliString) else apply_sum
    return apply(op, np.eye(1 << op.n_sites, dtype=np.complex128))


def expm(generator: PauliString | WeightedPauliSum, angle: float) -> np.ndarray:
    """Exact ``exp(-i * angle * generator)`` as a ``2^n x 2^n`` matrix.

    An involution generator is one pulse ``(h, angle)``, and a sum of
    pairwise commuting strings the product of its per-term rotations
    ``exp(-i * angle * c * P)``, both run by :func:`pulse_unitary`.  Anything
    else falls back to a Hermitian eigendecomposition.
    """
    h = _as_sum(generator)
    check_dense_limit(h.n_sites, "expm")
    if is_involution(h):
        return pulse_unitary(h.n_sites, [(h, angle)], "expm")
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

#: Largest top Ritz residual the Ritz-gap stop accepts, in units of ``eps
#: max(theta1, m)`` for a lower bound ``m`` on the operands' norms.
#: ``theta2`` is only the next value the Krylov space has found: a top pair
#: split by ``delta`` that it has not yet separated leaves ``theta1`` a mix
#: of the two with a residual of about ``delta``, which the gap term alone
#: would accept up to ``sqrt(8 eps) theta1``.  Under the cap such a pair must
#: be separated, unless its split is below the roundoff the operands leave
#: in their difference, about ``eps m``.  On diagonals with a top split of
#: 5e-14 to 1e-8 the value stays within 3e-14 of the SVD, where the gap term
#: alone is off by 5e-13 at a split of 1e-12; 3x3 Wen differences stop in
#: 29-34 steps, against 24-29 without the cap and 34-69 for a residual of
#: ``4 eps``.  With ``m`` left out, a Wen difference at delta 1e-5 to 1e-7
#: would take 99-106 steps to part copies that only roundoff split.
_RESIDUAL_CAP = 1000


def _krylov_norm(
    product, adjoint, n: int, dtype, steps: int, operand_norm: float = 0.0
) -> float | None:
    """Largest singular value of an operator ``D`` by Golub–Kahan–Lanczos, or ``None``.

    ``D`` has ``n`` columns and is given by its two products: ``product(v)``
    returns ``D v`` and ``adjoint(u)`` returns ``D^H u``.  The
    bidiagonalization (Golub & Kahan 1965) starts from a fixed-seed Gaussian
    unit vector, real for a real ``dtype``, and reorthogonalizes each new
    vector against all earlier ones.  Every product is divided by the peak
    entry of the first one, so entries near the ends of the float range
    neither underflow nor overflow.

    The projected bidiagonal ``B`` is solved every :data:`_RITZ_EVERY`
    steps, or sooner where the top Ritz residual ``r = beta |x_k|``, falling
    geometrically since the last solve, should reach the stop bound.  With
    ``theta1 > theta2`` the top two Ritz values, the top one is returned
    once ``r <= max(4 eps theta1, min(sqrt(8 eps (theta1^2 - theta2^2)),
    _RESIDUAL_CAP eps max(theta1, operand_norm)))``: the Kato–Temple bound
    ``sigma - theta1 <= theta1 r^2 / (2 (theta1^2 - theta2^2))`` (Parlett,
    *The Symmetric Eigenvalue Problem*) set to ``4 eps theta1``, with the
    residual held under the cap :data:`_RESIDUAL_CAP`.  ``operand_norm`` is
    a lower bound on the norms of the operands ``D`` is the difference of (0
    when it is none), whose roundoff ``D`` carries.  ``theta2`` stands in
    for the true second singular value, so this is a Ritz-gap estimate, not
    a rigorous bound; the cap keeps a top pair the Krylov space has not yet
    separated from passing for a gap.  On a degenerate top it returns a
    value within the floating-point split of the top copies instead of
    waiting for the Krylov space to grow every copy.  The
    value is also returned once a new ``alpha`` or ``beta`` is at roundoff,
    which means the Krylov space is invariant and the value exact.

    ``None`` means ``steps`` steps did not converge.  A NaN or infinite
    first product is returned as a non-finite value at once, and a start
    vector in the kernel of ``D`` as 0.0.
    """
    rng = np.random.default_rng(0)
    real = not np.issubdtype(dtype, np.complexfloating)
    v = rng.standard_normal(n) + (0.0 if real else 1j * rng.standard_normal(n))
    v /= np.linalg.norm(v)
    with np.errstate(invalid="ignore"):  # an infinite entry may sum to inf - inf
        u = product(v)
    scale = float(np.abs(u).max())
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    right = np.empty((steps, n), u.dtype)
    left = np.empty((steps, u.shape[0]), u.dtype)
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
        w = adjoint(left[k])
        w *= 1.0 / scale
        w -= alpha * right[k]
        w -= np.conjugate(right[:k + 1] @ np.conjugate(w)) @ right[:k + 1]
        beta = math.sqrt(np.vdot(w, w).real)
        bidiagonal[k, k + 1] = beta
        peak = max(peak, beta)
        if k + 1 in (check, steps) or beta <= 4 * _EPS * peak:
            x, s, _ = np.linalg.svd(bidiagonal[:k + 1, :k + 1])
            gap = (s[0] - s[1]) * (s[0] + s[1]) if k else 0.0
            residual = beta * abs(x[k, 0])
            cap = _RESIDUAL_CAP * _EPS * max(s[0], operand_norm / scale)
            bound = max(4 * _EPS * s[0], min(math.sqrt(8 * _EPS * gap), cap))
            if residual <= bound:
                return scale * float(s[0])
            wait = _RITZ_EVERY
            if last is not None and residual < last[1]:
                rate = math.log(residual / last[1]) / (k + 1 - last[0])
                wait = min(wait, max(1, math.ceil(math.log(bound / residual) / rate)))
            last, check = (k + 1, residual), k + 1 + wait
        if k + 1 == steps:
            return None
        np.multiply(w, 1.0 / beta, out=right[k + 1])
        u = product(right[k + 1])
        u *= 1.0 / scale
        u -= beta * left[k]
        u -= np.conjugate(left[:k + 1] @ np.conjugate(u)) @ left[:k + 1]


def _spectral_norm(d: np.ndarray, operands=()) -> float:
    sigma = None
    if d.ndim == 2 and min(d.shape) >= KRYLOV_MIN_ROWS:
        # ||x||_F / sqrt(min(shape)) <= ||x||_2 bounds the operands' norms from below
        operand_norm = max((float(np.linalg.norm(x)) for x in operands), default=0.0)
        sigma = _krylov_norm(
            lambda v: d @ v,
            lambda u: np.conjugate(np.conjugate(u) @ d),  # (u^H d)^H: no second n x n array
            d.shape[1], d.dtype, min(d.shape) // KRYLOV_ROWS_PER_STEP,
            operand_norm / math.sqrt(min(d.shape)),
        )
        if sigma == 0.0 and d.any():  # the start vector lies in the kernel
            sigma = None
    return float(np.linalg.svd(d, compute_uv=False)[0]) if sigma is None else sigma


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral distance: the largest singular value of ``a - b``.

    From :data:`KRYLOV_MIN_ROWS` (256) rows up it comes from a Golub–Kahan–
    Lanczos bidiagonalization with a fixed-seed start and full
    reorthogonalization, which stops when the Kato–Temple estimate from the
    top two Ritz values puts the top one within ``4 eps`` of the singular
    value and its residual is at most ``1000 eps`` of the larger of that
    value and a lower bound on the norms of ``a`` and ``b`` (a Ritz-gap
    estimate, not a rigorous bound; on a top pair split by less than that,
    such as the floating-point split of a degenerate top, the value lies
    between the two), or when the Krylov space is invariant (the value is
    then exact).  Past a budget of ``rows // KRYLOV_ROWS_PER_STEP`` steps (a
    spectrum with no gap at the top, like a difference of random unitaries)
    and below 256 rows, where the SVD is faster, it is the top value of
    ``np.linalg.svd``.  Both agree within that split of the top.  On the
    Krylov path a NaN or infinite entry gives a non-finite distance at once.
    """
    return _spectral_norm(_difference(a, b), (a, b))


def _norm_bound(mag: np.ndarray) -> float:
    """``min(||D||_F, sqrt(||D||_1 ||D||_inf))``, at least ``||D||_2``, from ``|D|``."""
    spread = float(mag.sum(axis=0).max()) * float(mag.sum(axis=1).max())
    return min(float(np.linalg.norm(mag)), math.sqrt(spread))


def certified_distance(a: np.ndarray, b: np.ndarray, tolerance: float) -> tuple[float, str]:
    """``(value, metric)`` deciding whether ``a`` and ``b`` agree to ``tolerance``.

    With ``D = a - b``, ``||D||_2 <= min(||D||_F, sqrt(||D||_1 * ||D||_inf))``.
    When that bound is at most ``tolerance`` it is returned under the metric
    ``spectral_distance_bound``: the exact distance is no larger, so the pass
    is certified without a spectral norm.  Otherwise :func:`distance` is
    returned under ``spectral_distance``: a Golub–Kahan–Lanczos value that
    stops on the Ritz-gap estimate of :func:`distance` from 256 rows up, and
    the SVD below 256 rows or past the ``rows // KRYLOV_ROWS_PER_STEP`` step
    budget.  It matches the SVD within the split of a top pair closer than
    about ``1000 eps`` of the larger of the distance and the operands'
    norms, so ``value <= tolerance`` is the verdict the exact distance gives,
    up to a tolerance that close to the distance.  A NaN or infinite entry
    is returned as a non-finite exact distance without any iteration, so it
    passes no finite tolerance.
    """
    d = _difference(a, b)
    mag = np.abs(d)
    bound = _norm_bound(mag)
    if bound <= tolerance:  # False for NaN
        return bound, "spectral_distance_bound"
    peak = float(mag.max())
    del mag  # the norm allocates its own work arrays
    if not math.isfinite(peak):
        return peak, "spectral_distance"
    return _spectral_norm(d, (a, b)), "spectral_distance"


def fused_distance(n_sites: int, program: list, reference: list) -> float:
    """Spectral distance between two fused pulse programs, without forming either product.

    ``program`` and ``reference`` come from :func:`fuse_pulses` on
    ``n_sites``.  The Golub–Kahan–Lanczos solver of :func:`distance` runs on
    their difference as an operator: ``D v`` is both programs run on ``v`` by
    :func:`_apply_fused`, and ``D^H u`` both adjoint programs (groups
    reversed and conjugate-transposed) run on ``u``, so the work is
    ``O(2^n)`` per product and no ``2^n x 2^n`` array exists.  Both programs
    are unitary, so the stop takes 1 as the operands' norm.  There is no
    SVD to fall back on, so the solver stops after
    :data:`MATRIX_FREE_STEPS` steps and raises :class:`ResourceLimitError`
    naming that budget.  A start vector the two programs map alike reads as
    0.0.  The register is held to the dense cap.
    """
    check_dense_limit(n_sites, "fused_distance")
    program_h, reference_h = _adjoint(program), _adjoint(reference)
    sigma = _krylov_norm(
        lambda v: _apply_fused(program, v) - _apply_fused(reference, v),
        lambda u: _apply_fused(program_h, u) - _apply_fused(reference_h, u),
        1 << n_sites, np.complex128, MATRIX_FREE_STEPS, 1.0,
    )
    if sigma is None:
        raise ResourceLimitError(
            f"fused_distance: the spectral norm did not converge within the "
            f"MATRIX_FREE_STEPS budget of {MATRIX_FREE_STEPS} Krylov steps"
        )
    return sigma


def program_distances(n_sites: int, programs: list, reference: list) -> list[float]:
    """Spectral distance from each fused program in ``programs`` to ``reference``.

    All come from :func:`fuse_pulses` on ``n_sites``.  Up to
    :data:`MATRIX_DISTANCE_SITES` sites each program is run on the identity
    once and compared by :func:`distance`, which falls back on the SVD past
    its step budget; wider registers go through :func:`fused_distance`, so
    no ``2^n x 2^n`` array exists and a spent budget raises
    :class:`ResourceLimitError`.  The register is held to the dense cap.
    """
    check_dense_limit(n_sites, "program_distances")
    if n_sites > MATRIX_DISTANCE_SITES:
        return [fused_distance(n_sites, program, reference) for program in programs]
    ideal = _identity_product(n_sites, reference)
    return [distance(_identity_product(n_sites, program), ideal) for program in programs]


# -- states ----------------------------------------------------------------------


def expectation(op: PauliString | WeightedPauliSum, state: np.ndarray) -> complex:
    """``<state|op|state>`` of a string or weighted sum on a ``(2^n,)`` state.

    A one-term operator ``c P`` costs one pass, ``P |state>`` into one new
    array, scaled in place when ``c`` is not 1, and one ``np.vdot``; every
    entry is what :func:`apply_sum` gives, up to the sign of a zero, so the
    value is the same.  A sum of several terms goes through
    :func:`apply_sum`.
    """
    h = _as_sum(op)
    if len(h.terms) != 1:
        return complex(np.vdot(state, apply_sum(h, state)))
    (coeff, string), = h.terms
    image = apply_string(string, state)
    if coeff != 1:
        np.multiply(coeff, image, out=image)
    return complex(np.vdot(state, image))


def _random_state(n_sites: int, seed: int) -> np.ndarray:
    """A seeded Gaussian unit state on ``n_sites`` qubits: real parts drawn first."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return data / float(np.linalg.norm(data))


# -- schedule execution --------------------------------------------------------
#
# A schedule is a :class:`~qsakit.schedule_compiler.QsaSchedule`, which owns
# its time order, branch angles and seed angle: ``schedule.pulses()`` is its
# program.


def apply_schedule(schedule, state: np.ndarray) -> np.ndarray:
    """Run the schedule's pulse program on a ``(2^n,)`` state."""
    if state.shape != (1 << schedule.n_sites,):
        raise ValueError("state width does not match schedule")
    return run_pulses(schedule.pulses(), state)


def schedule_unitary(schedule) -> np.ndarray:
    """The schedule's pulse product as an explicit matrix.

    :func:`pulse_unitary` transforms the identity's columns a block at a
    time, at O(4^n) per fused group of pulses with no full-matrix products,
    and holds one ``2^n x 2^n`` array, the result.
    """
    return pulse_unitary(schedule.n_sites, schedule.pulses(), "schedule_unitary")


def compare_pulses(n_sites: int, pulses, reference, tolerance: float) -> dict:
    """Judge the pulse program ``pulses`` against the pulse program ``reference``.

    Both are ``(generator, angle)`` lists as :func:`run_pulses` takes them,
    and both run on one fixed input batch, held to the dense cap once, a
    block of columns at a time (:func:`_input_blocks`).  Up to
    :data:`MATRIX_QUBIT_CAP` sites it is the identity; the blocks'
    ``|program - reference|`` fill one float64 ``2^n x 2^n`` array whose
    ``spectral_distance_bound`` passes, or else the formed products go to
    :func:`certified_distance`.  Above that column ``k`` of :data:`PROBES` is
    the probe state drawn from ``PROBE_SEED + k``, and the distance is the
    largest L2 deviation of a column, under ``max_state_l2[<PROBES> probes]``.
    No separate norm check is needed: ``||a - b|| >= | ||a|| - ||b|| |``, so a
    program that loses norm fails the tolerance like any other wrong output.

    Returns a deterministic report with the metric, distance, tolerance and
    pass flag: a function of the two programs and the tolerance alone.
    """
    check_dense_limit(n_sites, "compare_pulses")
    program, ideal = fuse_pulses(n_sites, pulses), fuse_pulses(n_sites, reference)
    matrix = n_sites <= MATRIX_QUBIT_CAP  # the one test of the cap
    mag = np.empty((1 << n_sites,) * 2) if matrix else None
    deviations = []
    for columns, block in _input_blocks(n_sites, not matrix):
        difference = _apply_fused(program, block)
        difference -= _apply_fused(ideal, block)
        if matrix:
            np.abs(difference, out=mag[:, columns])
        else:
            deviations += [float(np.linalg.norm(column)) for column in difference.T]
    if matrix:
        dist, metric = _norm_bound(mag), "spectral_distance_bound"
        if not dist <= tolerance:  # rare: only a failing bound forms the products
            del mag
            products = [_identity_product(n_sites, fused) for fused in (program, ideal)]
            dist, metric = certified_distance(*products, tolerance)
    else:
        dist, metric = max(deviations), f"max_state_l2[{PROBES} probes]"
    return {
        "metric": metric,
        "distance": dist,
        "tolerance": tolerance,
        "passed": bool(dist <= tolerance),
    }


def _restricted(pulses, sites: tuple[int, ...]) -> tuple:
    """``pulses`` on the register ``sites``, each generator term by term through :func:`restrict`.

    Every dropped site is the identity in every term, so the collected terms
    keep their coefficients and their order.
    """
    return tuple(
        (WeightedPauliSum(len(sites), tuple(
            (coeff, restrict(string, sites)) for coeff, string in _as_sum(generator).terms)),
         angle)
        for generator, angle in pulses
    )


def compare_segments(n_sites: int, segments, reference, tolerance: float) -> dict:
    """Judge a program made of segments against ``reference``, one segment at a time.

    Each segment is a pair ``(pulses, terms)``: a piece of the program and
    the pulses of ``reference`` it realizes.  The program is the segments'
    pulses in order.  When the segments' terms are ``reference``'s pulses,
    each matched to exactly one segment, and every string of their
    generators commutes with every other, ``reference`` is the product of
    the segments' terms in segment order.  For unitaries the errors of a
    product add at most linearly, ``||S_T...S_1 - R_T...R_1||_2 <= sum_k
    ||S_k - R_k||_2`` (the triangle inequality plus unitary invariance), and
    ``S_k - R_k`` is ``(s_k - r_k) (x) I`` for its restriction to the joint
    support of the segment, which has the same spectral norm.  So each
    segment is restricted to its support (:func:`_restricted`) and judged by
    :func:`compare_pulses` there, a segment equal to an earlier one only
    once, and the sum of their distances, when it is at most ``tolerance``,
    is returned under ``spectral_distance_bound``.  Otherwise, or when a
    support is wider than :data:`MATRIX_QUBIT_CAP` (no certified matrix
    branch), the verdict is :func:`compare_pulses` on the whole program, so
    no pass comes without a certificate and every failing report is the
    global one.
    """
    terms = [pulse for _, pulses in segments for pulse in pulses]
    strings = [string for generator, _ in terms for _, string in _as_sum(generator).terms]
    if Counter(terms) == Counter(reference) and not anticommuting_pairs(strings):
        total, seen = 0.0, {}
        for pulses, pulse_terms in segments:
            mask = 0
            for generator, _ in (*pulses, *pulse_terms):
                generator = _as_sum(generator)
                if generator.n_sites != n_sites:
                    raise ValueError(f"generator on {generator.n_sites} sites, array on {n_sites}")
                for _, string in generator.terms:
                    mask |= string.x | string.z
            sites = _sites(mask)
            key = (_restricted(pulses, sites), _restricted(pulse_terms, sites))
            if key not in seen:
                seen[key] = (compare_pulses(len(sites), *key, tolerance)["distance"]
                             if len(sites) <= MATRIX_QUBIT_CAP else math.inf)
            total += seen[key]
            if not total <= tolerance:
                break
        else:
            return {
                "metric": "spectral_distance_bound",
                "distance": total,
                "tolerance": tolerance,
                "passed": True,
            }
    program = [pulse for pulses, _ in segments for pulse in pulses]
    return compare_pulses(n_sites, program, reference, tolerance)


def verify_schedule(schedule) -> dict:
    """Compare the schedule's pulse product against the target exponential.

    The reference is the one-pulse program ``[(target, tg)]`` at the
    schedule's seed angle, which is the exact ``exp(-i tg target)``;
    :func:`compare_pulses` makes the judgement at
    :data:`SCHEDULE_TOLERANCE` (full matrices up to 10 sites, the fixed
    probe states above) and its report is returned.
    """
    return compare_pulses(
        schedule.n_sites, schedule.pulses(), [(schedule.target, schedule.tg)],
        SCHEDULE_TOLERANCE,
    )
