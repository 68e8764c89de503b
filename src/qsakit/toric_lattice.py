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

A :class:`LatticeSpec` refuses a bad hole when it is made, so every spec it
accepts builds.  The builders only build: neighbouring terms share an even
number of clashing sites by construction, so every set they emit pairwise
commutes, and each digital group has site-disjoint members.
``qsakit toric build`` computes both invariants from the set it built and
reports them as its checks ``terms-pairwise-commute`` and
``groups-support-disjoint``; a fault in a term table is a failed check (exit 1).

The wen ground state starts from a product seed of |0> and |+> spins and is
reached by projection onto every even term (:func:`ground_state_projector`)
or by the pi/4 sweep (:func:`ground_state_sweep`).  Both run on a
:class:`~qsakit.stabilizer_state.StabilizerState`, with no 2^n array, up to
:data:`~qsakit.stabilizer_state.MAX_TABLEAU_SITES` spins.  The module loads
no numpy: only :meth:`DigitalSequence.apply` and
:meth:`DigitalSequence.unitary` reach the dense oracle, and they import it
when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .pauli_core import (
    PauliString, WeightedPauliSum, float_field, index_field, pair_field,
)
from .schedule_compiler import QsaSchedule, compile_schedule
from .stabilizer_state import StabilizerState, check_tableau_limit

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
        _check_holes(self)

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
        LatticeError: wrong model.
    """
    if spec.model != "wen":
        raise LatticeError(f"build_wen needs model 'wen', got {spec.model!r}")
    prow, pcol = plaquette_range(spec)
    holes = {cell for hole in spec.holes for cell in hole.plaquettes}
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
    return PlaquetteSet(spec.n_sites, tuple(terms))


# -- hole-model builder --------------------------------------------------------


def _kitaev_edge(spec: LatticeSpec, kind: str, i: int, j: int) -> int | None:
    """Qubit index of edge (kind, i, j) of an ``r x c`` vertex grid, or None if it has none.

    Open boundary: vertical edges first (row-major), then horizontal edges of
    rows 1..r-1 (the rough top has no row-0 horizontals).  Periodic: every
    vertex gets one downward and one rightward edge, verticals first.
    """
    r, c = spec.rows, spec.cols
    if spec.boundary == "periodic":
        if kind in ("v", "h") and 0 <= i < r and 0 <= j < c:
            return (r * c if kind == "h" else 0) + i * c + j
    elif kind == "v" and 0 <= i < r - 1 and 0 <= j < c:
        return i * c + j
    elif kind == "h" and 1 <= i < r and 0 <= j < c - 1:
        return (r - 1) * c + (i - 1) * (c - 1) + j
    return None


def kitaev_edge_index(spec: LatticeSpec, kind: str, i: int, j: int) -> int:
    """Qubit index of edge ('v', i, j) = (i,j)-(i+1,j) or ('h', i, j) = (i,j)-(i,j+1)."""
    index = _kitaev_edge(spec, kind, i, j)
    if index is None:
        raise LatticeError(f"edge {(kind, i, j)} does not exist on this lattice")
    return index


class _KitaevKind(NamedTuple):
    letter: str  # on every edge of the term
    group: int  # digital group of even anchors; odd anchors run in group + 1
    hole: str  # the hole kind that removes the term
    offsets: tuple[tuple[str, int, int], ...]  # edge keys relative to the anchor
    name: str  # for error messages


#: Face and vertex-star terms of the hole model, in build order.
_KITAEV_KINDS: dict[str, _KitaevKind] = {
    "face": _KitaevKind(
        "Z", 1, "smooth", (("v", 0, 0), ("v", 0, 1), ("h", 0, 0), ("h", 1, 0)), "face",
    ),
    "vertex": _KitaevKind(
        "X", 3, "rough", (("v", -1, 0), ("v", 0, 0), ("h", 0, -1), ("h", 0, 0)),
        "vertex star",
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
    keys = []
    for edge, di, dj in _KITAEV_KINDS[kind].offsets:
        a, b = i + di, j + dj
        if spec.boundary == "periodic":
            a, b = a % spec.rows, b % spec.cols
        if _kitaev_edge(spec, edge, a, b) is not None:
            keys.append((edge, a, b))
    return tuple(keys)


def kitaev_operator(spec: LatticeSpec, kind: str, i: int, j: int) -> PauliString:
    """The face (Z) or vertex-star (X) operator at (i, j), whether driven or removed as a hole."""
    letter = _KITAEV_KINDS[kind].letter
    return PauliString.from_sites(
        spec.n_sites, {_kitaev_edge(spec, *e): letter for e in kitaev_edge_keys(spec, kind, i, j)}
    )


def build_kitaev_holes(spec: LatticeSpec) -> PlaquetteSet:
    """Face (Z) and vertex-star (X) terms with hole regions omitted."""
    if spec.model != "kitaev_holes":
        raise LatticeError(
            f"build_kitaev_holes needs model 'kitaev_holes', got {spec.model!r}"
        )
    terms: list[PlaquetteTerm] = []
    for kind, entry in _KITAEV_KINDS.items():
        skip = {cell for hole in spec.holes if hole.kind == entry.hole for cell in hole.plaquettes}
        rows, cols = _kitaev_anchors(spec, kind)
        terms += [
            PlaquetteTerm(
                (i, j), kitaev_operator(spec, kind, i, j), entry.group + (i + j) % 2, kind
            )
            for i in rows for j in cols if (i, j) not in skip
        ]
    return PlaquetteSet(spec.n_sites, tuple(terms))


def _check_holes(spec: LatticeSpec) -> None:
    """Refuse hole cells off the cell grid or listed twice and, in the hole model,
    holes whose removed terms share an edge.  Wen checks cell by cell; the hole
    model checks every repeat, then the faces' range, the stars', then the edges."""
    if spec.model == "wen":
        prow, pcol = plaquette_range(spec)
        seen: set[tuple[int, int]] = set()
        for (i, j) in (cell for hole in spec.holes for cell in hole.plaquettes):
            if not (0 <= i < prow and 0 <= j < pcol):
                raise LatticeError(f"hole plaquette ({i}, {j}) out of range")
            if (i, j) in seen:
                raise LatticeError(f"holes overlap at plaquette ({i}, {j})")
            seen.add((i, j))
        return
    cells: dict[str, set[tuple[int, int]]] = {kind: set() for kind in HOLE_KINDS}
    for hole in spec.holes:
        for coord in hole.plaquettes:
            if coord in cells[hole.kind]:
                raise LatticeError(f"holes overlap at {coord}")
            cells[hole.kind].add(coord)
    for kind, entry in _KITAEV_KINDS.items():
        rows, cols = _kitaev_anchors(spec, kind)
        off = sorted((i, j) for (i, j) in cells[entry.hole] if i not in rows or j not in cols)
        if off:
            plural = "faces" if kind == "face" else "vertices"
            raise LatticeError(f"{entry.hole} hole {plural} out of range: {off}")
    removed = {entry.hole: kind for kind, entry in _KITAEV_KINDS.items()}
    regions = (
        {e for cell in hole.plaquettes for e in kitaev_edge_keys(spec, removed[hole.kind], *cell)}
        for hole in spec.holes
    )
    if _shared_sites(regions):
        raise LatticeError("hole regions share edges; holes must be disjoint")


def build_variant(spec: LatticeSpec) -> PlaquetteSet:
    """Dispatch to the model-specific builder (twists/holes included)."""
    if spec.model == "wen":
        return build_wen(spec)
    return build_kitaev_holes(spec)


# -- schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class DigitalSequence:
    """Four commuting stages realizing ``exp(+i J tau sum(P))`` exactly, for
    the time step ``tau``.

    ``lattice`` is the built term set and ``stages`` holds one compiled
    schedule per member of each of its groups, in group order; every
    schedule's seed angle is ``-J*tau``, so the per-term propagator is
    ``exp(+i J tau P)`` and the full product equals the evolution
    ``exp(-i tau H)`` under ``H = -J sum(P)``.
    """

    spec: LatticeSpec
    tau: float
    lattice: PlaquetteSet
    stages: tuple[tuple[QsaSchedule, ...], ...]

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    def segments(self) -> list[tuple[list, list]]:
        """One ``(pulses, terms)`` pair per schedule, in execution order.

        ``pulses`` is the schedule's program and ``terms`` the pulse
        ``(P, c * tau)`` of the Hamiltonian term ``c P`` it was compiled
        for, read from :meth:`hamiltonian`, not from the schedule (no pulse
        when the term's coefficient collected to zero).
        """
        coefficients = {(s.x, s.z): (c, s) for c, s in self.hamiltonian().terms}
        members = [t for group in self.lattice.groups().values() for t in group]
        schedules = [sched for stage in self.stages for sched in stage]
        out = []
        for term, schedule in zip(members, schedules, strict=True):
            hit = coefficients.get((term.operator.x, term.operator.z))
            out.append((schedule.pulses(), [] if hit is None else [(hit[1], hit[0] * self.tau)]))
        return out

    def pulses(self) -> list[tuple[WeightedPauliSum, float]]:
        """Every pulse of every stage, in execution order: the segments' pulses."""
        return [pulse for pulses, _ in self.segments() for pulse in pulses]

    def apply(self, state):
        """The program run on a ``(2^n,)`` state or ``(2^n, k)`` array."""
        from .dense_oracle import run_pulses

        return run_pulses(self.pulses(), state)

    def unitary(self):
        """The program's product, a ``2^n x 2^n`` array."""
        from .dense_oracle import pulse_unitary

        return pulse_unitary(self.n_sites, self.pulses(), "digital unitary")

    def hamiltonian(self) -> WeightedPauliSum:
        return self.lattice.hamiltonian(self.spec.J)


def digital_sequence(spec: LatticeSpec, tau: float) -> DigitalSequence:
    """Compile the four-stage digital program for evolution time ``tau``.

    Stages follow the group order 1..4; group members commute (disjoint
    supports), so the intra-stage order is immaterial.  Hole terms are
    absent from every stage by construction.  Each term is compiled with
    ``line_endpoints``, which seeds the middle pair of its (sorted) support
    and grows both ends: a standard plaquette needs one layer and no
    swappers.  The lattice is built once, here.
    """
    lattice = build_variant(spec)
    stages = tuple(
        tuple(
            compile_schedule(term.operator, strategy="line_endpoints", tg=-spec.J * tau)
            for term in members
        )
        for members in lattice.groups().values()
    )
    return DigitalSequence(spec, tau, lattice, stages)


# -- wen ground states ----------------------------------------------------------


def _seed(spec: LatticeSpec) -> StabilizerState:
    """The product seed: |+> (``X``) on odd-parity spins, |0> (``Z``) on even ones.

    Odd-anchored plaquettes place X on the odd spins and Z on the even spins,
    so they all stabilize this seed already; the ground state only needs the
    even-anchored half enforced.  The register is checked against the
    tableau cap before any letter is made.

    Raises:
        LatticeError: not the wen model.
    """
    if spec.model != "wen":
        raise LatticeError("ground states are defined for the wen model")
    check_tableau_limit(spec.n_sites, "ground-state tableau")
    return StabilizerState.product(
        "".join("ZX"[(i + j) % 2] for i in range(spec.rows) for j in range(spec.cols))
    )


def _even_terms(pset: PlaquetteSet) -> list[PlaquetteTerm]:
    return [t for t in pset.terms if (t.index[0] + t.index[1]) % 2 == 0]


def ground_state_projector(spec: LatticeSpec) -> StabilizerState:
    """Ground state: the seed projected onto the +1 space of every even term.

    Works for open and periodic boundaries (the periodic product of all even
    terms is +1, so no projection annihilates the seed), at any width up to
    :data:`~qsakit.stabilizer_state.MAX_TABLEAU_SITES`.
    """
    if spec.twists:
        raise LatticeError("ground-state construction does not support twists")
    state = _seed(spec)
    for term in _even_terms(build_wen(spec)):
        state.project(term.operator)
    return state


def _sweep_plan(spec: LatticeSpec):
    """``(seed state, stages, rotations)`` of the open sweep (see :func:`ground_state_sweep`).

    The seed is made before the lattice is built, so a spec it refuses does
    no other work.  ``stages`` holds per-stage tuples of ``(i, j, "A"|"B")``
    entries; ``rotations`` holds the ``XZZY`` (A) or ``YZZX`` (B) string of
    every entry, in execution order, each run as ``exp(-i pi/4 * string)``.
    """
    if spec.boundary != "open":
        raise LatticeError("the unitary sweep requires an open boundary")
    if spec.twists:
        raise LatticeError("ground-state construction does not support twists")
    state = _seed(spec)
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
    stages = tuple(
        tuple(plan[c][step] for c in sorted(plan) if step < len(plan[c]))
        for step in range(n_stages)
    )
    rotations = [
        _wen_term(spec, "xzzy" if kind == "A" else "yzzx", i, j)
        for stage in stages for (i, j, kind) in stage
    ]
    return state, stages, rotations


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
        (state, stages): the swept tableau, and per-stage tuples of
        ``(i, j, "A"|"B")`` entries.
    """
    state, stages, rotations = _sweep_plan(spec)
    for rotation in rotations:
        state.rotate(rotation)
    return state, stages
