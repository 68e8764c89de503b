"""Plaquette spin models: builders, digital evolution, ground-state routes.

Two models share the :class:`PlaquetteSet` container, and each model spells
out its terms once, as data:

* ``wen`` -- one spin per vertex of a ``rows x cols`` grid (row 0 at the
  bottom, site index ``i*cols + j``).  The table ``_WEN_SHAPES`` gives each
  term shape as letters by ``(row, col)`` offset from the anchor spin
  ``(i, j)``: the four-body ``plaquette``
  ``X(i,j) Z(i,j+1) Z(i+1,j) X(i+1,j+1)``, the five-body ``twist`` defect,
  the ``skew`` terms that follow a twist along its row, and the two
  rotations of the ground-state sweep.
* ``kitaev_holes`` -- one qubit per edge of a ``rows x cols`` vertex grid
  with a rough top boundary (the top row of horizontal edges is absent, so
  top faces are three-body and top vertex stars are missing) and smooth
  left/right/bottom boundaries.  The table ``_KITAEV_KINDS`` gives each term
  kind its four edge offsets, its letter, its digital groups and the hole
  kind that removes it: ``face`` terms carry Z and are removed by smooth
  holes, ``vertex`` stars carry X and are removed by rough holes.

Every builder checks that all emitted terms pairwise commute and that the
four digital groups have pairwise site-disjoint members.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .pauli_core import (
    PauliString, WeightedPauliSum, anticommuting_pairs, float_field, index_field, pair_field,
)
from .schedule_compiler import QsaSchedule, compile_schedule
from .dense_oracle import (
    apply_string,
    check_dense_limit,
    pulse_unitary,
    run_pulses,
)

MODELS = ("wen", "kitaev_holes")
BOUNDARIES = ("open", "periodic")
HOLE_KINDS = ("smooth", "rough")


class LatticeError(ValueError):
    """Raised for inconsistent lattice specifications or geometry."""


@dataclass(frozen=True)
class HoleSpec:
    """An undriven region: faces (smooth) or vertex stars (rough).

    For the wen model the kind is carried but has no semantic effect; the
    listed plaquettes are simply never driven.
    """

    plaquettes: tuple[tuple[int, int], ...]
    kind: str = "smooth"

    def __post_init__(self) -> None:
        if self.kind not in HOLE_KINDS:
            raise LatticeError(f"hole kind must be one of {HOLE_KINDS}, got {self.kind!r}")
        if not self.plaquettes:
            raise LatticeError("hole must list at least one plaquette")

    def to_dict(self) -> dict:
        return {"plaquettes": [list(p) for p in self.plaquettes], "kind": self.kind}

    @classmethod
    def from_dict(cls, data: dict) -> "HoleSpec":
        return cls(
            tuple(pair_field(cell, "plaquettes") for cell in data["plaquettes"]),
            data.get("kind", "smooth"),
        )


@dataclass(frozen=True)
class TwistSpec:
    """A dislocation anchored at plaquette ``(row, col)``.

    The anchored plaquette becomes the five-body defect; every standard
    plaquette to its right in the same row is replaced by a skewed four-body
    term, out to the open right boundary.
    """

    row: int
    col: int

    def to_dict(self) -> dict:
        return {"row": self.row, "col": self.col}

    @classmethod
    def from_dict(cls, data: dict) -> "TwistSpec":
        return cls(index_field(data["row"], "row"), index_field(data["col"], "col"))


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry + model + coupling for a plaquette lattice."""

    rows: int
    cols: int
    boundary: str = "open"
    model: str = "wen"
    J: float = 1.0
    holes: tuple[HoleSpec, ...] = field(default_factory=tuple)
    twists: tuple[TwistSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise LatticeError(f"lattice needs rows, cols >= 2, got {self.rows}x{self.cols}")
        if self.boundary not in BOUNDARIES:
            raise LatticeError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.model not in MODELS:
            raise LatticeError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.boundary == "periodic" and (self.rows % 2 or self.cols % 2):
            raise LatticeError(
                "periodic lattices need even rows and cols for the four "
                "commuting groups"
            )
        if self.twists:
            if self.model != "wen":
                raise LatticeError("twists are only defined for the wen model")
            if self.boundary != "open":
                raise LatticeError("twists require an open boundary")
            if self.cols < 3:
                raise LatticeError("twists need cols >= 3")
            rows_used = set()
            for tw in self.twists:
                if not (0 <= tw.row <= self.rows - 2 and 0 <= tw.col <= self.cols - 3):
                    raise LatticeError(f"twist anchor ({tw.row}, {tw.col}) out of range")
                if tw.row in rows_used:
                    raise LatticeError("at most one twist per plaquette row")
                rows_used.add(tw.row)

    @property
    def n_sites(self) -> int:
        """Qubit count: spins for wen, edges for kitaev_holes."""
        if self.model == "wen":
            return self.rows * self.cols
        if self.boundary == "periodic":
            return 2 * self.rows * self.cols
        return (self.rows - 1) * (2 * self.cols - 1)

    def site_index(self, i: int, j: int) -> int:
        """Row-major spin index for the wen model (row 0 at the bottom)."""
        if self.model != "wen":
            raise LatticeError("site_index addresses wen spins; use kitaev_edge_index")
        if self.boundary == "periodic":
            i %= self.rows
            j %= self.cols
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise LatticeError(f"spin ({i}, {j}) outside the {self.rows}x{self.cols} grid")
        return i * self.cols + j

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "boundary": self.boundary,
            "model": self.model,
            "J": self.J,
            "holes": [h.to_dict() for h in self.holes],
            "twists": [t.to_dict() for t in self.twists],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeSpec":
        return cls(
            rows=index_field(data["rows"], "rows"),
            cols=index_field(data["cols"], "cols"),
            boundary=data.get("boundary", "open"),
            model=data.get("model", "wen"),
            J=float_field(data.get("J", 1.0), "J"),
            holes=tuple(HoleSpec.from_dict(h) for h in data.get("holes", [])),
            twists=tuple(TwistSpec.from_dict(t) for t in data.get("twists", [])),
        )


@dataclass(frozen=True)
class PlaquetteTerm:
    """One driven stabilizer term.

    kind is ``plaquette``/``twist``/``skew`` for wen and ``face``/``vertex``
    for the hole model; group is the digital stage (1..4) the term runs in.
    """

    index: tuple[int, int]
    operator: PauliString
    group: int
    kind: str = "plaquette"


@dataclass(frozen=True)
class PlaquetteSet:
    """All driven terms of a lattice, with their digital grouping."""

    n_sites: int
    terms: tuple[PlaquetteTerm, ...]

    def operators(self) -> tuple[PauliString, ...]:
        return tuple(t.operator for t in self.terms)

    def term_at(self, index: tuple[int, int], kind: str | None = None) -> PlaquetteTerm:
        for t in self.terms:
            if t.index == tuple(index) and (kind is None or t.kind == kind):
                return t
        raise LatticeError(f"no driven term at index {tuple(index)} (hole or out of range)")

    def groups(self) -> dict[int, tuple[PlaquetteTerm, ...]]:
        out: dict[int, list[PlaquetteTerm]] = {}
        for t in self.terms:
            out.setdefault(t.group, []).append(t)
        return {g: tuple(v) for g, v in sorted(out.items())}

    def group_overlap(self) -> tuple[int, list[int]] | None:
        """``(group, shared sites)`` of the first group with overlapping members, or None."""
        for group, members in self.groups().items():
            shared = _shared_sites(term.operator.support for term in members)
            if shared:
                return group, shared
        return None

    def hamiltonian(self, J: float) -> WeightedPauliSum:
        """``H = -J * sum(terms)``."""
        return WeightedPauliSum.from_terms(
            self.n_sites, [(-J, t.operator) for t in self.terms]
        )


def _shared_sites(supports) -> list[int]:
    """Sorted sites the first overlapping support shares with those before it; [] if disjoint."""
    seen: set[int] = set()
    for support in supports:
        overlap = seen.intersection(support)
        if overlap:
            return sorted(overlap)
        seen.update(support)
    return []


#: The checks :func:`_validate_set` makes on every built set, by report name.
LATTICE_CHECKS = ("terms-pairwise-commute", "groups-support-disjoint")


def _validate_set(pset: PlaquetteSet) -> None:
    """Builder sanity: mutual commutation and group support-disjointness."""
    clashing = anticommuting_pairs(pset.operators())
    if clashing:
        a, b = (pset.terms[k] for k in clashing[0])
        raise LatticeError(
            f"terms {a.index}/{a.kind} and {b.index}/{b.kind} do not commute"
        )
    overlap = pset.group_overlap()
    if overlap is not None:
        group, sites = overlap
        raise LatticeError(f"group {group} members share sites {sites}")


def plaquette_range(spec: LatticeSpec) -> tuple[int, int]:
    """Plaquette (wen) or face (kitaev_holes) grid shape: (rows-1, cols-1) open, (rows, cols) periodic."""
    if spec.boundary == "periodic":
        return spec.rows, spec.cols
    return spec.rows - 1, spec.cols - 1


# -- wen builder --------------------------------------------------------------

#: Letters of each wen term shape by (row, col) offset from its anchor spin.
_WEN_SHAPES: dict[str, dict[tuple[int, int], str]] = {
    # X, Z on the bottom row and Z, X above
    "plaquette": {(0, 0): "X", (0, 1): "Z", (1, 0): "Z", (1, 1): "X"},
    # the five-body defect at a twist anchor: X, Z below and Z, Y, X above
    "twist": {(0, 0): "X", (0, 1): "Z", (1, 0): "Z", (1, 1): "Y", (1, 2): "X"},
    # a twist row's later terms: the top row shifted one column to the right
    "skew": {(0, 0): "X", (0, 1): "Z", (1, 1): "Z", (1, 2): "X"},
    # sweep rotations, Y on the corner spin that is still fresh in |0>
    "xzzy": {(0, 0): "X", (0, 1): "Z", (1, 0): "Z", (1, 1): "Y"},
    "yzzx": {(0, 0): "Y", (0, 1): "Z", (1, 0): "Z", (1, 1): "X"},
}


def _wen_term(spec: LatticeSpec, shape: str, i: int, j: int) -> PauliString:
    s = spec.site_index
    return PauliString.from_sites(
        spec.n_sites,
        {s(i + di, j + dj): letter for (di, dj), letter in _WEN_SHAPES[shape].items()},
    )


def _wen_group(i: int, j: int) -> int:
    return 2 * (i % 2) + (j % 2) + 1


def build_wen(spec: LatticeSpec) -> PlaquetteSet:
    """All driven wen terms with digital groups ``2*(i%2) + (j%2) + 1``.

    Holes skip their plaquettes; a twist replaces its anchor plaquette by the
    five-body defect and the rest of its row by skewed terms.

    Raises:
        LatticeError: wrong model; invalid holes.
    """
    if spec.model != "wen":
        raise LatticeError(f"build_wen needs model 'wen', got {spec.model!r}")
    prow, pcol = plaquette_range(spec)
    holes: set[tuple[int, int]] = set()
    for hole in spec.holes:
        for (i, j) in hole.plaquettes:
            if not (0 <= i < prow and 0 <= j < pcol):
                raise LatticeError(f"hole plaquette ({i}, {j}) out of range")
            if (i, j) in holes:
                raise LatticeError(f"holes overlap at plaquette ({i}, {j})")
            holes.add((i, j))

    twist_rows = {tw.row: tw.col for tw in spec.twists}
    terms: list[PlaquetteTerm] = []
    for i in range(prow):
        for j in range(pcol):
            if (i, j) in holes:
                continue
            shape = "plaquette"
            c = twist_rows.get(i)
            if c is not None and j >= c:
                # the anchor's defect covers columns c..c+2; skewed terms
                # continue from column c+1 and the row ends one term early
                if j > pcol - 2:
                    continue
                shape = "twist" if j == c else "skew"
            terms.append(
                PlaquetteTerm((i, j), _wen_term(spec, shape, i, j), _wen_group(i, j), shape)
            )
    pset = PlaquetteSet(spec.n_sites, tuple(terms))
    _validate_set(pset)
    return pset


# -- hole-model builder --------------------------------------------------------


def _kitaev_edges(spec: LatticeSpec) -> Mapping[tuple, int]:
    """Deterministic edge -> qubit indexing, built once per grid geometry."""
    return _kitaev_edge_table(spec.rows, spec.cols, spec.boundary)


@functools.lru_cache(maxsize=16)
def _kitaev_edge_table(r: int, c: int, boundary: str) -> Mapping[tuple, int]:
    """Read-only edge table of an ``r x c`` vertex grid.

    Open boundary: vertical edges first (row-major), then horizontal edges of
    rows 1..rows-1 (the rough top has no row-0 horizontals).  Periodic: every
    vertex gets one downward and one rightward edge.
    """
    edges: dict[tuple, int] = {}
    if boundary == "periodic":
        for i in range(r):
            for j in range(c):
                edges[("v", i, j)] = i * c + j
        for i in range(r):
            for j in range(c):
                edges[("h", i, j)] = r * c + i * c + j
    else:
        for i in range(r - 1):
            for j in range(c):
                edges[("v", i, j)] = i * c + j
        for i in range(1, r):
            for j in range(c - 1):
                edges[("h", i, j)] = (r - 1) * c + (i - 1) * (c - 1) + j
    return MappingProxyType(edges)


def kitaev_edge_index(spec: LatticeSpec, kind: str, i: int, j: int) -> int:
    """Qubit index of edge ('v', i, j) = (i,j)-(i+1,j) or ('h', i, j) = (i,j)-(i,j+1)."""
    if spec.boundary == "periodic":
        i %= spec.rows
        j %= spec.cols
    table = _kitaev_edges(spec)
    key = (kind, i, j)
    if key not in table:
        raise LatticeError(f"edge {key} does not exist on this lattice")
    return table[key]


class _KitaevKind(NamedTuple):
    letter: str  # on every edge of the term
    group: int  # digital group of even anchors; odd anchors run in group + 1
    hole: str  # the hole kind that removes the term
    offsets: tuple[tuple[str, int, int], ...]  # edge keys relative to the anchor
    name: str  # singular and plural, for error messages
    plural: str


#: Face and vertex-star terms of the hole model, in build order.
_KITAEV_KINDS: dict[str, _KitaevKind] = {
    "face": _KitaevKind(
        "Z", 1, "smooth", (("v", 0, 0), ("v", 0, 1), ("h", 0, 0), ("h", 1, 0)), "face", "faces",
    ),
    "vertex": _KitaevKind(
        "X", 3, "rough", (("v", -1, 0), ("v", 0, 0), ("h", 0, -1), ("h", 0, 0)),
        "vertex star", "vertices",
    ),
}


def _kitaev_anchors(spec: LatticeSpec, kind: str) -> tuple[range, range]:
    """Anchor rows and cols: faces fill the plaquette grid, vertex stars every
    vertex but the open grid's rough top row 0."""
    if kind == "vertex" and spec.boundary == "open":
        return range(1, spec.rows), range(spec.cols)
    prow, pcol = plaquette_range(spec)
    return range(prow), range(pcol)


def kitaev_edge_keys(spec: LatticeSpec, kind: str, i: int, j: int) -> tuple[tuple, ...]:
    """Edge keys ('v'|'h', i, j) of the face or vertex star ``kind`` at (i, j).

    They are the kind's four offsets from (i, j), wrapped on a periodic grid;
    an edge the grid does not have, past an open boundary, is left out.
    """
    rows, cols = _kitaev_anchors(spec, kind)
    if i not in rows or j not in cols:
        raise LatticeError(f"{_KITAEV_KINDS[kind].name} ({i}, {j}) out of range")
    table = _kitaev_edges(spec)
    keys = []
    for edge, di, dj in _KITAEV_KINDS[kind].offsets:
        a, b = i + di, j + dj
        if spec.boundary == "periodic":
            a, b = a % spec.rows, b % spec.cols
        if (edge, a, b) in table:
            keys.append((edge, a, b))
    return tuple(keys)


def kitaev_operator(spec: LatticeSpec, kind: str, i: int, j: int) -> PauliString:
    """The face (Z) or vertex-star (X) operator at (i, j), whether driven or removed as a hole."""
    edges = _kitaev_edges(spec)
    letter = _KITAEV_KINDS[kind].letter
    return PauliString.from_sites(
        spec.n_sites, {edges[e]: letter for e in kitaev_edge_keys(spec, kind, i, j)}
    )


def build_kitaev_holes(spec: LatticeSpec) -> PlaquetteSet:
    """Face (Z) and vertex-star (X) terms with hole regions omitted."""
    if spec.model != "kitaev_holes":
        raise LatticeError(
            f"build_kitaev_holes needs model 'kitaev_holes', got {spec.model!r}"
        )
    # each removed cell -> the index of the hole that lists it
    skips: dict[str, dict[tuple[int, int], int]] = {kind: {} for kind in HOLE_KINDS}
    for index, hole in enumerate(spec.holes):
        for coord in hole.plaquettes:
            if coord in skips[hole.kind]:
                raise LatticeError(f"holes overlap at {coord}")
            skips[hole.kind][coord] = index

    terms: list[PlaquetteTerm] = []
    regions: list[set[int]] = [set() for _ in spec.holes]  # sites each hole removes
    for kind, entry in _KITAEV_KINDS.items():
        skip = skips[entry.hole]
        rows, cols = _kitaev_anchors(spec, kind)
        for i in rows:
            for j in cols:
                operator = kitaev_operator(spec, kind, i, j)
                if (i, j) in skip:
                    regions[skip.pop((i, j))].update(operator.support)
                    continue
                terms.append(
                    PlaquetteTerm((i, j), operator, entry.group + (i + j) % 2, kind)
                )
    for entry in _KITAEV_KINDS.values():
        if skips[entry.hole]:
            raise LatticeError(
                f"{entry.hole} hole {entry.plural} out of range: {sorted(skips[entry.hole])}"
            )
    if _shared_sites(regions):
        raise LatticeError("hole regions share edges; holes must be disjoint")

    pset = PlaquetteSet(spec.n_sites, tuple(terms))
    _validate_set(pset)
    return pset


def build_variant(spec: LatticeSpec) -> PlaquetteSet:
    """Dispatch to the model-specific builder (twists/holes included)."""
    if spec.model == "wen":
        return build_wen(spec)
    return build_kitaev_holes(spec)


# -- schedules ----------------------------------------------------------------


def plaquette_schedule(
    i: int, j: int, spec: LatticeSpec, tau: float = 1.0,
    strategy: str = "line_endpoints",
) -> QsaSchedule:
    """Compile one wen term's propagator ``exp(-i * J*tau * P_{i,j})``.

    The default strategy seeds the middle pair of the term's (sorted) support
    and grows both ends, which realizes the standard plaquette with zero
    swappers.

    Raises:
        LatticeError: non-wen model, or no driven term at ``(i, j)``
            (hole overlap / out of range).
    """
    if spec.model != "wen":
        raise LatticeError("plaquette_schedule addresses wen terms")
    term = build_wen(spec).term_at((i, j))
    return compile_schedule(term.operator, strategy=strategy, tg=spec.J * tau)


@dataclass(frozen=True)
class DigitalSequence:
    """Four commuting stages realizing ``exp(+i J tau sum(P))`` exactly, for
    the ``tau`` given to :func:`digital_sequence`.

    Each stage holds one compiled schedule per group member; every schedule's
    seed angle is ``-J*tau``, so the per-term propagator is
    ``exp(+i J tau P)`` and the full product equals the evolution
    ``exp(-i tau H)`` under ``H = -J sum(P)``.
    """

    spec: LatticeSpec
    stages: tuple[tuple[QsaSchedule, ...], ...]

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    def pulses(self) -> list[tuple[WeightedPauliSum, float]]:
        """Every pulse of every stage, in execution order."""
        return [p for stage in self.stages for sched in stage for p in sched.pulses()]

    def apply(self, state: np.ndarray) -> np.ndarray:
        return run_pulses(self.pulses(), state)

    def unitary(self) -> np.ndarray:
        return pulse_unitary(self.n_sites, self.pulses(), "digital unitary")

    def hamiltonian(self) -> WeightedPauliSum:
        return build_variant(self.spec).hamiltonian(self.spec.J)


def digital_sequence(spec: LatticeSpec, tau: float) -> DigitalSequence:
    """Compile the four-stage digital program for evolution time ``tau``.

    Stages follow the group order 1..4; group members commute (disjoint
    supports), so the intra-stage order is immaterial.  Hole terms are
    absent from every stage by construction.
    """
    stages = tuple(
        tuple(
            compile_schedule(term.operator, strategy="line_endpoints", tg=-spec.J * tau)
            for term in members
        )
        for members in build_variant(spec).groups().values()
    )
    return DigitalSequence(spec, stages)


# -- wen ground states ----------------------------------------------------------


def build_psi0(spec: LatticeSpec) -> np.ndarray:
    """Product seed state: odd-parity spins in |+>, even-parity spins in |0>.

    Odd-anchored plaquettes place X on the odd spins and Z on the even spins,
    so they all stabilize this seed already; the ground state only needs the
    even-anchored half enforced.
    """
    if spec.model != "wen":
        raise LatticeError("build_psi0 is defined for the wen model")
    check_dense_limit(spec.rows * spec.cols, "build_psi0")
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    state = np.array([1.0], dtype=np.complex128)
    for i in range(spec.rows):
        for j in range(spec.cols):
            state = np.kron(state, plus if (i + j) % 2 else zero)
    return state


def _even_terms(pset: PlaquetteSet) -> list[PlaquetteTerm]:
    return [t for t in pset.terms if (t.index[0] + t.index[1]) % 2 == 0]


def project_plus(array: np.ndarray, operators, error: Exception) -> np.ndarray:
    """Normalized ``prod (1 + P)/sqrt(2)`` of ``array`` over commuting ``operators``.

    Raises:
        error: the projection annihilated the state.
    """
    for op in operators:
        array = (array + apply_string(op, array)) / math.sqrt(2.0)
    norm = float(np.linalg.norm(array))
    if norm < 1e-9:
        raise error
    return array / norm


def ground_state_projector(spec: LatticeSpec) -> np.ndarray:
    """Ground state via ``prod_even (1 + P)/sqrt(2)`` on the seed state.

    Works for open and periodic boundaries (the periodic product of all even
    terms is +1, so the projection never annihilates the seed); the result
    is normalized explicitly.
    """
    if spec.twists:
        raise LatticeError("ground-state construction does not support twists")
    return project_plus(
        build_psi0(spec),
        (term.operator for term in _even_terms(build_wen(spec))),
        LatticeError("projector annihilated the seed state"),
    )


def ground_state_sweep(spec: LatticeSpec):
    """Ground state via the staged unitary sweep (open boundary only).

    Even-anchored plaquettes are grouped into diagonals of constant ``i - j``.
    Diagonals with ``i - j >= 0`` run bottom-left to top-right, each step the
    rotation ``exp(-i pi/4 * XZZY)`` (Y on the top-right corner spin, which
    is still fresh in |0>); diagonals with ``i - j < 0`` run top-right to
    bottom-left with ``exp(-i pi/4 * YZZX)`` (Y on the bottom-left corner).
    While the corner is fresh each rotation acts exactly as ``(1 + P)/sqrt(2)``,
    so the sweep reproduces the projector ground state; stages pick one
    plaquette per diagonal.

    Returns:
        (state, stages) where stages is a tuple of per-stage tuples of
        ``(i, j, "A"|"B")`` entries.
    """
    if spec.boundary != "open":
        raise LatticeError("the unitary sweep requires an open boundary")
    if spec.twists:
        raise LatticeError("ground-state construction does not support twists")
    psi0 = build_psi0(spec)

    diagonals: dict[int, list[tuple[int, int]]] = {}
    for term in _even_terms(build_wen(spec)):
        i, j = term.index
        diagonals.setdefault(i - j, []).append((i, j))
    plan: dict[int, list[tuple[int, int, str]]] = {}
    for c, members in diagonals.items():
        members.sort()
        if c >= 0:
            plan[c] = [(i, j, "A") for (i, j) in members]
        else:
            plan[c] = [(i, j, "B") for (i, j) in reversed(members)]

    n_stages = max(len(v) for v in plan.values()) if plan else 0
    stages = []
    for step in range(n_stages):
        stage = tuple(
            plan[c][step] for c in sorted(plan) if step < len(plan[c])
        )
        stages.append(stage)

    pulses = []
    used_corners: set[int] = set()
    for stage in stages:
        for (i, j, kind) in stage:
            rotation = _wen_term(spec, "xzzy" if kind == "A" else "yzzx", i, j)
            corner = next(k for k in rotation.support if rotation.letter(k) == "Y")
            if corner in used_corners:
                raise LatticeError(
                    f"sweep ordering bug: corner spin {corner} reused at ({i},{j})"
                )
            pulses.append((rotation, math.pi / 4))
            # every spin this plaquette touched is no longer fresh
            used_corners.update(rotation.support)
    return run_pulses(pulses, psi0), tuple(stages)
