"""Anyons, string propagators, and logical qubits on the plaquette models.

A logical qubit is its pair of Pauli strings ``(X_logical, Z_logical)``.

Wen-model side: Pauli strings on spins create/move anyon pairs on the
diagonally adjacent plaquettes (Z excites the bottom-left/top-right pair, X
the top-left/bottom-right pair, interior excitations cancel pairwise).
Plaquettes are colored by anchor parity -- dark ``(i+j) even`` hosts ``e``
anyons, light hosts ``m`` -- and closed loop strings commute with every
plaquette.  On the periodic lattice the two homology classes of loops supply
two logical qubits (the quantum memory, :func:`memory_qubits`); arbitrary
two-qubit encodings are synthesized from loop-string rotations alone.

Hole-model side: removing a face (smooth hole) or a vertex star (rough hole)
frees one logical qubit each, named by the hole's
:class:`~qsakit.toric_lattice.HoleSpec`.  Its logical operators
(:func:`hole_logicals`) are the removed stabilizer (the loop around the hole)
paired with a string tying the hole to the matching boundary.  Magic states,
the braiding CNOT, and the single-Pauli hole-move error live here too.
Every state is a tableau or a :class:`~qsakit.stabilizer_state.LogicalFrame`
over one: no ``2^n`` array and no numpy.  Only :func:`naive_move_error`'s loop
route imports the dense oracle, when called.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .pauli_core import LETTERS, PauliString, commutes, index_field, multiply, pair_field, restrict
from .schedule_compiler import compile_schedule
from .stabilizer_state import LogicalFrame, StabilizerState, check_tableau_limit
from .toric_lattice import (
    HoleSpec,
    LatticeSpec,
    build_variant,
    build_wen,
    ground_state_projector,
    kitaev_edge_index,
    kitaev_operator,
    plaquette_range,
)


class PathError(ValueError):
    """Raised for site paths that do not fit the host lattice."""


class EncodingError(ValueError):
    """Raised for logical-qubit constructions with incompatible geometry."""


class UnsupportedOperationError(RuntimeError):
    """Raised for operation patterns outside the supported scope."""


# -- string paths ---------------------------------------------------------------


@dataclass(frozen=True)
class StringPath:
    """An ordered list of (row, col) spins with one Pauli letter per spin."""

    sites: tuple[tuple[int, int], ...]
    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.sites) != len(self.letters):
            raise PathError("path needs one letter per site")
        if not self.sites:
            raise PathError("path must not be empty")
        for letter in self.letters:
            if letter not in LETTERS:
                raise PathError(f"invalid path letter {letter!r}")
        if len(set(self.sites)) != len(self.sites):
            raise PathError("path sites must be distinct")

    def to_dict(self) -> dict:
        return {"sites": [list(s) for s in self.sites], "letters": "".join(self.letters)}

    @classmethod
    def from_dict(cls, data: dict) -> "StringPath":
        return cls(
            tuple(pair_field(site, "sites") for site in data["sites"]),
            tuple(data["letters"]),
        )


def _adjacent(spec: LatticeSpec, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """King-move adjacency on the spin grid, wrapped on the torus."""
    di, dj = abs(a[0] - b[0]), abs(a[1] - b[1])
    if spec.boundary == "periodic":
        di = min(di, spec.rows - di)
        dj = min(dj, spec.cols - dj)
    return max(di, dj) == 1


def path_string(path: StringPath, spec: LatticeSpec) -> PauliString:
    """Resolve a path to the Pauli string it applies.

    Raises:
        PathError: sites off the lattice, or consecutive sites not adjacent.
    """
    if spec.model != "wen":
        raise PathError("string paths address wen-model spins")
    sites: dict[int, str] = {}
    for (i, j), letter in zip(path.sites, path.letters):
        if spec.boundary != "periodic" and not (
            0 <= i < spec.rows and 0 <= j < spec.cols
        ):
            raise PathError(f"path site ({i}, {j}) is off the lattice")
        sites[spec.site_index(i, j)] = letter
    for a, b in zip(path.sites, path.sites[1:]):
        if not _adjacent(spec, a, b):
            raise PathError(f"path sites {a} and {b} are not adjacent")
    return PauliString.from_sites(spec.n_sites, sites)


def path_is_closed(path: StringPath, spec: LatticeSpec) -> bool:
    """True when the last site steps back to the first (loop)."""
    return len(path.sites) > 2 and _adjacent(spec, path.sites[-1], path.sites[0])


# -- syndromes ------------------------------------------------------------------


@dataclass(frozen=True)
class Syndrome:
    """Excited plaquettes with their anyon kinds.

    Kinds follow the color rule: dark plaquettes ``(i+j) even`` (the
    bottom-left plaquette is dark) host ``e`` anyons, light host ``m``.  The
    fermionic composite (an ``e`` and an ``m`` bound on adjacent plaquettes)
    has no dedicated type; a syndrome simply lists both members.
    """

    entries: tuple[tuple[tuple[int, int], str], ...]

    def to_dict(self) -> dict:
        return {"entries": [[list(p), k] for p, k in self.entries]}


def _anyon_kind(i: int, j: int) -> str:
    return "e" if (i + j) % 2 == 0 else "m"


def syndrome_of(path: StringPath, spec: LatticeSpec) -> Syndrome:
    """Excitations of a path string: the terms it anticommutes with.

    The color picture (Z strings excite the bottom-left/top-right diagonal,
    X strings the antidiagonal, interior pairs cancel) is exactly the
    anticommutation computation performed here.
    """
    string = path_string(path, spec)
    entries = []
    for term in build_wen(spec).terms:
        if not commutes(term.operator, string):
            entries.append((term.index, _anyon_kind(*term.index)))
    return Syndrome(tuple(sorted(entries)))


def predict_syndrome(path: StringPath, spec: LatticeSpec) -> Syndrome:
    """Syndrome via the diagonal color rule instead of anticommutation.

    Per site: Z excites anchors (i-1, j-1) and (i, j); X excites (i-1, j) and
    (i, j-1); Y excites all four.  Repeated excitations cancel pairwise.
    Only standard lattices (no twists) are supported; the plaquettes listed
    in ``spec.holes`` are not driven, so they cannot be excited.
    """
    if spec.twists:
        raise PathError("the color-rule prediction does not cover twist defects")
    path_string(path, spec)  # validate geometry
    prow, pcol = plaquette_range(spec)
    holes = {p for hole in spec.holes for p in hole.plaquettes}
    excited: set[tuple[int, int]] = set()
    for (i, j), letter in zip(path.sites, path.letters):
        anchors = []
        if letter in ("Z", "Y"):
            anchors += [(i - 1, j - 1), (i, j)]
        if letter in ("X", "Y"):
            anchors += [(i - 1, j), (i, j - 1)]
        for (a, b) in anchors:
            if spec.boundary == "periodic":
                a %= prow
                b %= pcol
            elif not (0 <= a < prow and 0 <= b < pcol):
                continue
            if (a, b) in holes:
                continue
            excited ^= {(a, b)}
    return Syndrome(tuple(sorted((p, _anyon_kind(*p)) for p in excited)))


# -- string propagators -----------------------------------------------------------


def interleaved_propagators(
    first: tuple[PauliString, float], second: tuple[PauliString, float]
) -> tuple[tuple[PauliString, float], tuple[PauliString, float]]:
    """Serialize two string propagators ``(P, tg)``, rejecting time-interleaved crossings.

    Two loop propagators whose strings commute can always be applied one
    after the other.  When the strings anticommute (they cross an odd number
    of times) and their physical schedules would have to interleave in time,
    neither serialization represents the braided process; that pattern is
    outside the supported scope.
    """
    if first[0].n_sites != second[0].n_sites:
        raise ValueError("propagators act on different registers")
    if not commutes(first[0], second[0]):
        raise UnsupportedOperationError(
            "interleaved crossing propagators are not supported: the two "
            "strings anticommute, so no sequential pulse order reproduces "
            "the time-mixed braid"
        )
    return (first, second)


# -- memory loops on the torus ---------------------------------------------------


def _loop_letter(kind: str, i: int, j: int) -> str:
    """``e`` loops carry Z on even spins and X on odd ones; ``m`` loops the reverse."""
    return "Z" if ((i + j) % 2 == 0) == (kind == "e") else "X"


def loop_path(spec: LatticeSpec, kind: str, orientation: str) -> StringPath:
    """A homologically nontrivial loop string on the periodic lattice.

    Both kinds commute with every plaquette (no excitations).  ``e`` loops
    stabilize the reference ground state (+1 eigenvalue, logical-Z role);
    ``m`` loops anticommute with the crossing e-loops and flip the ground
    state into its orthogonal partners (logical-X role).  orientation is
    ``vertical`` (column 0) or ``horizontal`` (row 0).
    """
    if spec.model != "wen" or spec.boundary != "periodic":
        raise PathError("memory loops require the periodic wen model")
    if kind not in ("e", "m"):
        raise PathError(f"loop kind must be 'e' or 'm', got {kind!r}")
    if orientation == "vertical":
        sites = tuple((i, 0) for i in range(spec.rows))
    elif orientation == "horizontal":
        sites = tuple((0, j) for j in range(spec.cols))
    else:
        raise PathError(f"orientation must be vertical or horizontal, got {orientation!r}")
    return StringPath(sites, tuple(_loop_letter(kind, i, j) for (i, j) in sites))


def memory_qubits(spec: LatticeSpec) -> tuple[tuple[PauliString, PauliString], ...]:
    """``((X1, Z1), (X2, Z2))``: the two loop-encoded qubits of the periodic lattice.

    Qubit 1: logical X = vertical m-loop (column 0), logical Z = horizontal
    e-loop (row 0).  Qubit 2: the transposed pair.  Conjugate pairs cross at
    exactly one spin with clashing letters; all other combinations share
    either nothing, one spin with equal letters, or a full line with an even
    number of clashes, so they commute.

    Raises:
        PathError: not the periodic wen model, or a side of 2 (no loop closes).
    """
    pairs = (
        (loop_path(spec, "m", "vertical"), loop_path(spec, "e", "horizontal")),
        (loop_path(spec, "m", "horizontal"), loop_path(spec, "e", "vertical")),
    )
    if not all(path_is_closed(path, spec) for pair in pairs for path in pair):
        raise PathError("memory loop paths must be closed")
    return tuple((path_string(x, spec), path_string(z, spec)) for x, z in pairs)


def memory_basis(spec: LatticeSpec) -> list[StabilizerState]:
    """[|G>, X1|G>, X2|G>, X1 X2|G>]: the four loop-distinct ground tableaux."""
    (x1, _), (x2, _) = memory_qubits(spec)
    ground = ground_state_projector(spec)
    basis = [ground]
    for x_bar in (x1, x2, multiply(x1, x2)):
        state = ground.copy()
        state.apply_string(x_bar)
        basis.append(state)
    return basis


def _unit_amplitudes(amplitudes) -> list[complex]:
    """``amplitudes`` over their L2 norm, ``ValueError`` when all are zero.  Each
    entry is first divided by the largest real or imaginary part, so the norm,
    taken by :func:`math.hypot`, neither overflows nor underflows."""
    values = [complex(a) for a in amplitudes]
    scale = max(abs(part) for a in values for part in (a.real, a.imag))
    if scale == 0.0:
        raise ValueError("amplitudes must not all vanish")
    norm = math.hypot(*(part / scale for a in values for part in (a.real, a.imag)))
    return [a / scale / norm for a in values]


def memory_encode(spec: LatticeSpec, amplitudes, ground: StabilizerState) -> list[complex]:
    """The overlaps of the memory state that rotating the ground tableau
    ``ground`` (``memory_basis(spec)[0]``) encodes, with the four basis states.

    The normalized coefficients over (|G>, X1|G>, X2|G>, X1X2|G>) come from
    uniformly controlled rotations (Mottonen et al., quant-ph/0407010), with
    ``Y_j = i X_j Z_j``: ``Y2`` splits the weight between the qubit-2 halves,
    ``Y1`` and ``Z2 Y1`` set each half's magnitudes, and ``Z2``, ``Z1`` and
    ``Z1 Z2`` the phases up to their mean, a recorded scalar the hardware
    never applies, folded back in.  Both logical Z loops are e-loops: they
    commute with every plaquette and put Z on the spins the seed state sets
    to |0> and X on those it sets to |+>, so ``Z_logical|G> = +|G>`` and the
    Z-loop angles need no sign.  The overlaps, read off a logical frame of
    both loop qubits, equal the normalized amplitudes up to float roundoff.
    Zero-angle rotations are dropped: at most six loop rotations run.
    """
    a = _unit_amplitudes(amplitudes)
    if len(a) != 4:
        raise ValueError("amplitudes must have exactly four entries")

    (x1, z1), (x2, z2) = memory_qubits(spec)
    y1, y2 = (p.with_phase_exp(p.phase_exp + 1) for p in (multiply(x1, z1), multiply(x2, z2)))
    mag = [abs(v) for v in a]
    half0, half1 = math.atan2(mag[1], mag[0]), math.atan2(mag[3], mag[2])
    p0, p1, p2, p3 = (cmath.phase(v) for v in a)
    pulses = [
        (y2, math.atan2(math.hypot(mag[2], mag[3]), math.hypot(mag[0], mag[1]))),
        (y1, (half0 + half1) / 2.0),
        (multiply(z2, y1), (half0 - half1) / 2.0),
        (z2, (p2 + p3 - p0 - p1) / 4.0),
        (z1, (p1 + p3 - p0 - p2) / 4.0),
        (multiply(z1, z2), (p1 + p2 - p0 - p3) / 4.0),
    ]
    logical = LogicalFrame(ground, [(x2, z2), (x1, z1)], [1, 0, 0, 0])
    for string, angle in pulses:
        if angle:
            logical.evolve(string, angle)
    recorded = cmath.exp(0.25j * (p0 + p1 + p2 + p3))
    return [recorded * amplitude for amplitude in logical.amplitudes]


# -- braiding statistics ----------------------------------------------------------


def anyon_walk(spec: LatticeSpec, plaquettes) -> StringPath:
    """The spin string transporting an anyon along a diagonal plaquette walk.

    Each hop between diagonally adjacent plaquettes applies one letter on
    their shared spin: Z for a bottom-left/top-right hop, X for the
    antidiagonal hop.
    """
    plaqs = [tuple(p) for p in plaquettes]
    if len(plaqs) < 2:
        raise PathError("a walk needs at least two plaquettes")
    prow, pcol = plaquette_range(spec)
    sites: list[tuple[int, int]] = []
    letters: list[str] = []
    for p, q in zip(plaqs, plaqs[1:]):
        di = q[0] - p[0]
        dj = q[1] - p[1]
        if spec.boundary == "periodic":
            di = (di + prow // 2) % prow - prow // 2
            dj = (dj + pcol // 2) % pcol - pcol // 2
        if (abs(di), abs(dj)) != (1, 1):
            raise PathError(f"plaquettes {p} and {q} are not diagonal neighbors")
        if (di, dj) == (1, 1):
            spin = q
        elif (di, dj) == (-1, -1):
            spin = p
        elif (di, dj) == (1, -1):
            spin = (p[0] + 1, p[1])
        else:
            spin = (p[0], p[1] + 1)
        spin = (spin[0] % spec.rows, spin[1] % spec.cols) if spec.boundary == "periodic" else spin
        sites.append(spin)
        letters.append("Z" if di * dj > 0 else "X")
    return StringPath(tuple(sites), tuple(letters))


def braiding_phase(spec: LatticeSpec, center: tuple[int, int] = (1, 1)) -> dict:
    """Transport an m anyon around an e anyon and read off the -1.

    An e pair is created by a Z spin flip placing one anyon on the dark
    plaquette ``center``; the m transport loop is the four-hop diagonal walk
    around that plaquette.  The loop operator leaves the ground state alone
    (+1) and multiplies the excited state by -1.  Both states are stabilizer
    tableaux (:func:`~qsakit.toric_lattice.ground_state_projector`), so both
    expectations are exactly -1, 0 or +1 and the phase, their ratio, is
    their product; a ground expectation of 0 gives the phase 0.
    """
    ci, cj = center
    if _anyon_kind(ci, cj) != "e":
        raise PathError("braiding reference expects a dark (e) center plaquette")
    ring = [
        (ci - 1, cj), (ci, cj + 1), (ci + 1, cj), (ci, cj - 1), (ci - 1, cj),
    ]
    loop = anyon_walk(spec, ring)
    loop_op = path_string(loop, spec)

    ground = ground_state_projector(spec)
    error_spin = ((ci + 1) % spec.rows, (cj + 1) % spec.cols)
    error = PauliString.from_sites(spec.n_sites, {spec.site_index(*error_spin): "Z"})
    excited = ground.copy()
    excited.apply_string(error)

    ref = ground.expectation(loop_op)
    braided = excited.expectation(loop_op)
    return {
        "center": [ci, cj],
        "loop": loop.to_dict(),
        "expectation_ground": float(ref),
        "expectation_excited": float(braided),
        "braiding_phase": float(braided * ref),
    }


# -- hole-model logical qubits -----------------------------------------------------


def _code_tableau(spec: LatticeSpec) -> StabilizerState:
    """Logical all-|0> state of the hole model, for a spec :func:`hole_logicals` accepts.

    Projects |0...0> (already +1 for every Z-type face and for both kinds of
    hole logical Z) onto the +1 space of every kept vertex star.
    """
    check_tableau_limit(spec.n_sites, "code-state tableau")
    state = StabilizerState.product("Z" * spec.n_sites)
    for term in build_variant(spec).terms:
        if term.kind == "vertex":
            state.project(term.operator)
    return state


def hole_logicals(hole: HoleSpec, spec: LatticeSpec) -> tuple[PauliString, PauliString]:
    """(X_logical, Z_logical) of the qubit a one-plaquette hole of ``spec`` frees.

    Smooth hole: X string of edges from the hole straight down to the smooth
    bottom boundary; Z is the removed face (the Z loop around the hole).
    Rough hole: X is the removed vertex star (the X loop around the hole);
    Z string of edges straight up to the rough top boundary.

    Raises:
        EncodingError: not the open ``kitaev_holes`` model, a hole the spec
            does not list, or a hole of more than one plaquette.
    """
    if spec.model != "kitaev_holes":
        raise EncodingError("hole qubits require the kitaev_holes model")
    if spec.boundary != "open":
        raise EncodingError("hole logicals need boundaries to terminate on")
    if hole not in spec.holes:
        raise EncodingError("hole is not part of the lattice spec")
    if len(hole.plaquettes) != 1:
        raise EncodingError("multi-plaquette holes are not supported as qubits")
    (a, b), = hole.plaquettes
    if hole.kind == "smooth":
        x_bar = PauliString.from_sites(
            spec.n_sites,
            {kitaev_edge_index(spec, "h", i, b): "X" for i in range(a + 1, spec.rows)},
        )
        z_bar = kitaev_operator(spec, "face", a, b)
    else:
        x_bar = kitaev_operator(spec, "vertex", a, b)
        z_bar = PauliString.from_sites(
            spec.n_sites,
            {kitaev_edge_index(spec, "v", i, b): "Z" for i in range(0, a)},
        )
    return x_bar, z_bar


def magic_state(hole: HoleSpec, theta: float, spec: LatticeSpec) -> LogicalFrame:
    """Prepare ``(|0> + e^{i theta}|1>)/sqrt(2)`` on the qubit of one hole.

    The logical-X quarter rotation gives ``(|0> - i|1>)/sqrt(2)``; the -i is
    then turned into e^{i theta} by the phase gate P(theta + pi/2), realized
    as a logical-Z rotation.  The rotation's scalar prefactor
    ``exp(-i (theta + pi/2)/2)`` is a global phase the hardware never needs
    to apply; it is divided back out so the returned frame's amplitudes over
    the hole's ``|0>`` and ``|1>`` match the target exactly.
    """
    x_bar, z_bar = hole_logicals(hole, spec)
    phi = theta + math.pi / 2.0
    frame = LogicalFrame(_code_tableau(spec), [(x_bar, z_bar)], [1, 0])
    frame.evolve(x_bar, math.pi / 4.0)
    frame.evolve(z_bar, phi / 2.0)
    recorded = cmath.exp(-1j * phi / 2.0)
    frame.amplitudes = [a / recorded for a in frame.amplitudes]
    return frame


def magic_report(hole: HoleSpec, theta: float, spec: LatticeSpec) -> dict:
    """Magic-state preparation summary: fidelity vs analytic target, phase."""
    zero, one = magic_state(hole, theta, spec).amplitudes
    # <target|state> with target = (|0> + e^{i theta}|1>)/sqrt(2)
    overlap = (zero + cmath.exp(-1j * theta) * one) / math.sqrt(2.0)
    return {
        "theta": theta,
        "recorded_phase": cmath.exp(-1j * (theta + math.pi / 2.0) / 2.0),
        "fidelity": abs(overlap) ** 2,
        "overlap_zero": zero,
        "overlap_one": one,
    }


# -- braiding CNOT -----------------------------------------------------------------


@dataclass(frozen=True)
class LoopCnot:
    """The braid of a smooth (control) hole around a rough (target) hole.

    The braid string ``W = X_control * X_target`` (:func:`loop_cnot`) is the
    control's boundary tail times the X loop around the target hole: it
    commutes with every kept term and anticommutes with both holes' logical
    Z.  Applying ``exp(-i tg W)`` to |0, t> yields exactly the
    state CNOT produces on a superposed control ``cos(tg)|0> - i sin(tg)|1>``
    against target ``t``; at tg = pi/2 the basis rows |1, t> -> |1, 1-t|
    appear with recorded phase -i.  ``composite_apply`` realizes the exact
    CNOT on a logical frame of both holes from three commuting logical
    rotations (the control's Z loop and the target's X loop share no edge)
    plus a recorded scalar.
    """

    spec: LatticeSpec
    control: HoleSpec
    target: HoleSpec
    braid: PauliString

    def truth_table(self) -> dict:
        """Braid-route CNOT rows on the logical basis (control = most significant bit).

        Control-0 rows need no braid (the empty hole transports trivially);
        control-1 rows are generated from |0, t> with the tg = pi/2 loop
        propagator and come with the recorded -i.  Each row's distance is
        that of the amplitudes of a logical frame of both holes.
        """
        base = _code_tableau(self.spec)
        pairs = [hole_logicals(self.control, self.spec), hole_logicals(self.target, self.spec)]
        rows = []
        for c, tg, phase in ((0, 0.0, complex(1.0)), (1, math.pi / 2.0, complex(-1j))):
            for t in (0, 1):
                frame = LogicalFrame(base, pairs, [b == t for b in range(4)])
                frame.evolve(self.braid, tg)
                expected = 2 * c + (t ^ c)
                rows.append({
                    "input": (c, t), "expected": (c, t ^ c),
                    "recorded_phase": phase,
                    "distance": math.hypot(*(
                        abs(a - phase * (b == expected)) for b, a in enumerate(frame.amplitudes)
                    )),
                })
        return {"rows": rows, "max_distance": max(r["distance"] for r in rows)}

    def composite_apply(self, frame: LogicalFrame) -> complex:
        """Exact CNOT on ``frame``, a logical frame of the control and target holes:
        three commuting rotations in place; returns the recorded ``e^{i pi/4}``."""
        _, z_c = hole_logicals(self.control, self.spec)
        x_t, _ = hole_logicals(self.target, self.spec)
        quarter = math.pi / 4.0
        # disjoint strings: their product has phase +1
        for string, angle in ((z_c, quarter), (x_t, quarter), (multiply(z_c, x_t), -quarter)):
            frame.evolve(string, angle)
        return cmath.exp(1j * quarter)


def loop_cnot(control_hole: HoleSpec, target_hole: HoleSpec, spec: LatticeSpec) -> LoopCnot:
    """Build the braiding CNOT handle for two holes of the lattice.

    The braid string is the control's boundary tail times the loop around
    the target (the dual walk from the boundary to the control hole, around
    the target hole, and back, with doubly crossed edges cancelled).  Both
    factors are X strings that every kept face meets on an even number of
    edges, so the braid stays in the code space; it anticommutes with both
    holes' logical Z, so it encloses the target and drags the control.

    Raises:
        EncodingError: control is not smooth / target is not rough, or a
            hole :func:`hole_logicals` refuses.
    """
    if control_hole.kind != "smooth":
        raise EncodingError("the braided (control) hole must be smooth")
    if target_hole.kind != "rough":
        raise EncodingError("the enclosed (target) hole must be rough")
    x_c, _ = hole_logicals(control_hole, spec)
    x_t, _ = hole_logicals(target_hole, spec)
    return LoopCnot(spec, control_hole, target_hole, multiply(x_c, x_t))  # X strings: phase +1


# -- hole moves --------------------------------------------------------------------


def naive_move_error(extension: tuple, spec: LatticeSpec, hole: HoleSpec, tg: float) -> dict:
    """Compare the single-Pauli hole move against the intended extension.

    The hole is prepared in the superposition ``exp(-i tg X_bar)|0>_L``.
    The naive move applies one X on the extension edge; the intended result
    is the propagator of the extended string on |0>_L.  ``X_bar`` and
    ``X_ext`` commute, so they differ by ``cos tg (X_ext - 1)|0>_L``, of norm
    ``2|cos tg| * f`` with ``f = sqrt(2(1 - e)) / 2`` for the code tableau's
    ``e = <X_ext>``, exactly -1, 0 or +1.  The faithful route -- the extended
    string's compiled schedule -- is judged by
    :func:`~qsakit.dense_oracle.verify_schedule` on the string's own sites:
    a bound on its spectral distance from the exact propagator.
    """
    if hole.kind != "smooth":
        raise EncodingError("hole moves are demonstrated on a smooth hole")
    from .dense_oracle import verify_schedule

    x_bar, _ = hole_logicals(hole, spec)
    kind, i, j = extension
    i, j = index_field(i, "extension"), index_field(j, "extension")
    ext_index = kitaev_edge_index(spec, kind, i, j)
    if ext_index in x_bar.support:
        raise EncodingError("extension edge already belongs to the hole string")
    ext = PauliString.from_sites(spec.n_sites, {ext_index: "X"})
    extended = multiply(x_bar, ext)

    factor = math.sqrt(2.0 * (1 - _code_tableau(spec).expectation(ext))) / 2.0
    distance = 2.0 * abs(math.cos(tg)) * factor
    schedule = compile_schedule(restrict(extended, extended.support), strategy="auto", tg=tg)

    return {
        "tg": tg,
        "extension_edge": [kind, i, j],
        "distance": distance,
        "overlap_factor": factor,
        "predicted": distance,
        "loop_route_distance": verify_schedule(schedule)["distance"],
        "string_weight": extended.weight,
    }
