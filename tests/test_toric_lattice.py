"""Lattice builds, digital evolution and ground states vs brute force."""

import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qsakit.anyon_logic import _code_tableau
from qsakit.cli import main
from qsakit.dense_oracle import distance, expectation
from qsakit.pauli_core import PauliString, anticommuting_pairs, commutes, multiply
from qsakit import toric_lattice
from qsakit.schedule_compiler import validate
from qsakit.toric_lattice import (
    HoleSpec,
    LatticeError,
    LatticeSpec,
    PlaquetteSet,
    PlaquetteTerm,
    TwistSpec,
    build_kitaev_holes,
    build_variant,
    build_wen,
    digital_sequence,
    ground_state_projector,
    ground_state_sweep,
    kitaev_edge_index,
    kitaev_operator,
)

from conftest import (
    bitwise_equal, kron_product_state, kron_sum, lattice_ground, pauli_image, stepwise_projection,
)


def gf2_rank(rows):
    """Rank of binary row vectors over GF(2)."""
    rows = [int(r) for r in rows]
    rank = 0
    for bit in range(max(rows).bit_length() if rows else 0):
        pivot = None
        for k, r in enumerate(rows):
            if (r >> bit) & 1:
                pivot = k
                break
        if pivot is None:
            continue
        rank += 1
        pr = rows.pop(pivot)
        rows = [r ^ pr if (r >> bit) & 1 else r for r in rows]
    return rank


def symplectic_row(string):
    """(x|z) bit row of a Pauli string, for GF(2) independence checks."""
    x_bits = 0
    z_bits = 0
    for k, letter in enumerate(string.letters):
        if letter in ("X", "Y"):
            x_bits |= 1 << k
        if letter in ("Z", "Y"):
            z_bits |= 1 << k
    return x_bits | (z_bits << string.n_sites)


def test_spec_validation():
    with pytest.raises(LatticeError):
        LatticeSpec(rows=1, cols=4)
    with pytest.raises(LatticeError):
        LatticeSpec(rows=3, cols=4, boundary="periodic")
    with pytest.raises(LatticeError):
        LatticeSpec(rows=4, cols=4, boundary="twisted")
    with pytest.raises(LatticeError):
        LatticeSpec(rows=4, cols=4, model="kitaev")
    with pytest.raises(LatticeError):
        LatticeSpec(
            rows=4, cols=4, boundary="periodic",
            twists=(TwistSpec(1, 0),),
        )
    with pytest.raises(LatticeError):
        LatticeSpec(rows=4, cols=4, twists=(TwistSpec(3, 0),))
    with pytest.raises(LatticeError):
        LatticeSpec(
            rows=4, cols=4, twists=(TwistSpec(0, 0), TwistSpec(0, 1)),
        )


def test_spec_from_dict():
    spec = LatticeSpec(
        rows=3, cols=4, model="kitaev_holes",
        holes=(HoleSpec(((1, 0),), "smooth"), HoleSpec(((1, 2),), "rough")),
    )
    data = {
        "rows": 3, "cols": 4, "boundary": "open", "model": "kitaev_holes", "J": 1.0,
        "holes": [{"plaquettes": [[1, 0]], "kind": "smooth"}, {"plaquettes": [[1, 2]], "kind": "rough"}],
        "twists": [],
    }
    assert LatticeSpec.from_dict(data) == spec
    twisted = LatticeSpec(rows=4, cols=4, twists=(TwistSpec(1, 0),))
    assert LatticeSpec.from_dict({"rows": 4, "cols": 4, "twists": [{"row": 1, "col": 0}]}) == twisted


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_spec_with_a_non_finite_coupling_is_refused(value):
    with pytest.raises(ValueError) as info:
        LatticeSpec.from_dict({"rows": 3, "cols": 3, "J": value})
    assert str(info.value) == f"J: must be a finite number, got {value!r}"


def test_wen_plaquette_pattern():
    spec = LatticeSpec(rows=3, cols=3)
    term = next(t for t in build_wen(spec).terms if t.index == (0, 0))
    # X at the two corners of one diagonal, Z at the other
    assert term.operator.letter(spec.site_index(0, 0)) == "X"
    assert term.operator.letter(spec.site_index(0, 1)) == "Z"
    assert term.operator.letter(spec.site_index(1, 0)) == "Z"
    assert term.operator.letter(spec.site_index(1, 1)) == "X"
    assert term.operator.weight == 4


def test_wen_groups_partition_and_commute():
    spec = LatticeSpec(rows=4, cols=4)
    pset = build_wen(spec)
    assert len(pset.terms) == 9
    groups = pset.groups()
    assert sorted(groups) == [1, 2, 3, 4]
    for terms in groups.values():
        seen = set()
        for t in terms:
            support = set(t.operator.support)
            assert not (support & seen)
            seen |= support
    ops = pset.operators()
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            assert commutes(a, b)


def test_wen_periodic_count_and_commutation():
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    pset = build_wen(spec)
    assert len(pset.terms) == 16
    ops = pset.operators()
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            assert commutes(a, b)


def test_wen_holes_skip_terms():
    spec = LatticeSpec(rows=4, cols=4, holes=(HoleSpec(((1, 1),)),))
    pset = build_wen(spec)
    assert len(pset.terms) == 8
    assert (1, 1) not in [t.index for t in pset.terms]
    with pytest.raises(LatticeError):
        build_wen(LatticeSpec(rows=4, cols=4, holes=(HoleSpec(((5, 5),)),)))


def test_twist_row_builds_and_commutes():
    spec = LatticeSpec(rows=4, cols=4, twists=(TwistSpec(1, 0),))
    pset = build_wen(spec)
    kinds = sorted(t.kind for t in pset.terms)
    assert kinds.count("twist") == 1
    assert kinds.count("skew") == 1
    ops = pset.operators()
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            assert commutes(a, b)
    pentagon = next(t for t in pset.terms if t.kind == "twist")
    assert pentagon.operator.weight == 5
    assert sorted(
        pentagon.operator.letter(s) for s in pentagon.operator.support
    ) == ["X", "X", "Y", "Z", "Z"]


def test_twist_pentagon_compiles():
    spec = LatticeSpec(rows=4, cols=4, twists=(TwistSpec(1, 0),))
    pentagon = next(
        t for t in build_wen(spec).terms if t.kind == "twist"
    )
    schedules = [s for stage in digital_sequence(spec, 0.4).stages for s in stage]
    assert pentagon.operator in [s.target for s in schedules]
    assert all(validate(s) == [] for s in schedules)


def test_plaquette_schedule_depth_and_identity():
    # the digital sequence's schedule of a standard plaquette
    spec = LatticeSpec(rows=3, cols=3, J=2.0)
    schedule = digital_sequence(spec, 0.25).stages[0][0]
    assert schedule.target == build_wen(spec).terms[0].operator
    assert schedule.depth == 1
    assert len(schedule.final_swappers) == 0
    assert schedule.tg == pytest.approx(-0.5)  # -J * tau
    assert validate(schedule) == []


def test_digital_sequence_matches_exact_evolution():
    spec = LatticeSpec(rows=2, cols=3, J=1.3)
    tau = 0.21
    seq = digital_sequence(spec, tau)
    assert len(seq.stages) <= 4
    h = kron_sum(seq.hamiltonian())
    want = scipy.linalg.expm(-1j * tau * h)
    assert distance(seq.unitary(), want) <= 1e-10


def test_digital_sequence_stage_angles():
    spec = LatticeSpec(rows=2, cols=3, J=1.3)
    seq = digital_sequence(spec, 0.21)
    for stage in seq.stages:
        for sched in stage:
            assert sched.tg == pytest.approx(-1.3 * 0.21)
            assert validate(sched) == []


def test_psi0_is_stabilized_by_odd_plaquettes():
    spec = LatticeSpec(rows=3, cols=3)
    seed = toric_lattice._seed(spec)
    psi0 = kron_seed(spec)
    for term in build_wen(spec).terms:
        i, j = term.index
        if (i + j) % 2 == 1:
            assert seed.expectation(term.operator) == 1
            assert np.array_equal(pauli_image(term.operator, psi0), psi0)


def test_ground_state_projector_stabilizes_everything():
    # every spec up to 12 sites that a projection accepts: every driven
    # term, projected or not, stabilizes the wen ground tableau and the hole
    # model's code-state tableau
    projected = 0
    for spec, pset in accepted_builds(12, max_sites=12):
        if spec.twists:
            continue
        state = ground_state_projector(spec) if spec.model == "wen" else _code_tableau(spec)
        assert all(state.expectation(op) == 1 for op in pset.operators())
        projected += 1
    assert projected == 285


def kron_seed(spec):
    """The wen seed as an ``np.kron`` chain of single-spin states, site 0 first."""
    return kron_product_state(
        "ZX"[(i + j) % 2] for i in range(spec.rows) for j in range(spec.cols))


def test_the_seed_is_bitwise_the_kron_chain():
    # each of the seed tableau's n stabilizers fixes the kron chain exactly,
    # so the tableau is that state
    checked = 0
    for rows, cols in itertools.product(range(2, 9), repeat=2):
        for boundary in ("open", "periodic"):
            if rows * cols > 16 or (boundary == "periodic" and (rows % 2 or cols % 2)):
                continue
            spec = LatticeSpec(rows=rows, cols=cols, boundary=boundary)
            state = kron_seed(spec)
            for g in toric_lattice._seed(spec).stabilizers:
                assert np.array_equal(pauli_image(g, state), state), spec
            checked += 1
    assert checked == 27  # 19 open grids and 8 periodic ones


def test_projection_is_bitwise_the_stepwise_formula():
    # the hole model's code state is |0...0> projected star by star: each
    # stabilizer of its tableau fixes that vector exactly
    checked = 0
    for spec, pset in accepted_builds(4, max_sites=12):
        if spec.model != "kitaev_holes":
            continue
        zero = np.zeros(1 << spec.n_sites, dtype=np.complex128)
        zero[0] = 1.0
        stars = [t.operator for t in pset.terms if t.kind == "vertex"]
        state = stepwise_projection(zero, stars)
        for g in _code_tableau(spec).stabilizers:
            assert bitwise_equal(pauli_image(g, state), state), spec
        checked += 1
    assert checked == 55  # with no hole or one single-cell hole, up to 12 edges


def traced_arrays(call, n_sites):
    """The ``tracemalloc`` peak of ``call()``, in arrays of ``2^n`` complex entries."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (16 << n_sites)
    finally:
        tracemalloc.stop()


def test_the_4x4_states_hold_only_their_work_arrays(dense16):
    # at 16 spins; at 12, numpy's iterator buffers (two of 8192 entries, a
    # quarter of a 16-spin state) would dominate the peak
    spec = LatticeSpec(rows=4, cols=4, boundary="periodic")
    ops = build_wen(spec).operators()
    state = lattice_ground(spec)
    assert len(ops) == 16
    # one image P|state> and the iterator buffers: 1.26 measured, where the
    # zeroed sum, the image and its scaled copy made 3.00
    assert traced_arrays(lambda: [expectation(op, state) for op in ops], 16) <= 1.3


def test_ground_state_sweep_equals_projector():
    for rows, cols in [(3, 3), (3, 4)]:
        spec = LatticeSpec(rows=rows, cols=cols)
        swept, stages = ground_state_sweep(spec)
        reference = ground_state_projector(spec)
        assert swept.overlap(reference) == 1.0
        assert len(stages) >= 1
        for term in build_wen(spec).terms:
            assert swept.expectation(term.operator) == 1
        # the tableau is the conftest ground state: each stabilizer fixes it
        dense = lattice_ground(spec)
        for g in swept.stabilizers:
            assert np.abs(pauli_image(g, dense) - dense).max() <= 1e-12


def test_sweep_rotations_find_their_y_corner_fresh():
    # the sweep's rotations only: each rotation acts as (1 + P)/sqrt(2)
    # because its Y corner is still in |0>, untouched by every rotation
    # before it; grids up to 12x12 without a hole, and every even-anchored
    # single hole up to 8x8 (only even terms are swept)
    for rows, cols in itertools.product(range(2, 13), repeat=2):
        holes = [()]
        if rows <= 8 and cols <= 8:
            holes += [
                (HoleSpec((cell,)),)
                for cell in itertools.product(range(rows - 1), range(cols - 1))
                if sum(cell) % 2 == 0
            ]
        for hole in holes:
            spec = LatticeSpec(rows=rows, cols=cols, holes=hole)
            _, stages, rotations = toric_lattice._sweep_plan(spec)
            entries = [entry for stage in stages for entry in stage]
            assert len(rotations) == len(entries)
            touched = set()
            for rotation, (i, j, kind) in zip(rotations, entries):
                corner = spec.site_index(i + 1, j + 1) if kind == "A" else spec.site_index(i, j)
                assert rotation.letter(corner) == "Y"
                assert corner not in touched, (spec, i, j)
                touched.update(rotation.support)


def test_ground_state_energy_is_minimal():
    spec = LatticeSpec(rows=3, cols=3)
    g = ground_state_projector(spec)
    hamiltonian = build_wen(spec).hamiltonian(spec.J)
    energy = sum(coeff * g.expectation(term) for coeff, term in hamiltonian.terms)
    ground = scipy.linalg.eigh(kron_sum(hamiltonian), eigvals_only=True)[0]
    assert energy == pytest.approx(ground, abs=1e-9)
    # the dense expectation of the whole sum, on the conftest ground state
    assert expectation(hamiltonian, lattice_ground(spec)) == pytest.approx(ground, abs=1e-9)


def test_kitaev_edge_indexing_and_counts():
    spec = LatticeSpec(rows=3, cols=4, model="kitaev_holes")
    assert spec.n_sites == 14
    seen = set()
    for i in range(2):
        for j in range(4):
            seen.add(kitaev_edge_index(spec, "v", i, j))
    for i in range(1, 3):
        for j in range(3):
            seen.add(kitaev_edge_index(spec, "h", i, j))
    assert seen == set(range(14))
    with pytest.raises(LatticeError):
        kitaev_edge_index(spec, "h", 0, 0)  # rough top row has no horizontals


def test_site_index_on_a_hole_spec_names_an_existing_function():
    spec = LatticeSpec(rows=3, cols=4, model="kitaev_holes")
    with pytest.raises(LatticeError) as info:
        spec.site_index(0, 0)
    named = re.search(r"use (\w+)", str(info.value)).group(1)
    assert callable(getattr(toric_lattice, named, None))


def test_kitaev_bare_lattice_fills_the_register():
    spec = LatticeSpec(rows=3, cols=4, model="kitaev_holes")
    pset = build_kitaev_holes(spec)
    assert len(pset.terms) == 14
    ops = pset.operators()
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            assert commutes(a, b)
    rows = [symplectic_row(op) for op in ops]
    assert gf2_rank(rows) == 14  # independent stabilizers, no logical qubit


def test_kitaev_holes_free_logical_qubits():
    spec = LatticeSpec(
        rows=3, cols=4, model="kitaev_holes",
        holes=(HoleSpec(((1, 0),), "smooth"), HoleSpec(((1, 2),), "rough")),
    )
    pset = build_kitaev_holes(spec)
    assert len(pset.terms) == 12
    rows = [symplectic_row(op) for op in pset.operators()]
    assert gf2_rank(rows) == 12  # n - k with k = number of holes


def test_kitaev_two_cell_hole_is_one_hole():
    # adjacent faces listed by one hole share an edge; only separate holes must be disjoint
    spec = LatticeSpec.from_dict(_kitaev_with(([(1, 0), (1, 1)], "smooth")))
    pset = build_kitaev_holes(spec)
    faces = {term.index for term in pset.terms if term.kind == "face"}
    assert (1, 0) not in faces and (1, 1) not in faces
    removed = multiply(
        kitaev_operator(spec, "face", 1, 0), kitaev_operator(spec, "face", 1, 1)
    )
    edge = PauliString.from_sites(spec.n_sites, {kitaev_edge_index(spec, "h", 2, 0): "X"})
    for op in pset.operators():
        assert commutes(removed, op) and commutes(edge, op)
    assert not commutes(edge, removed)


def test_kitaev_periodic_needs_even_dims():
    with pytest.raises(LatticeError):
        LatticeSpec(rows=3, cols=4, model="kitaev_holes", boundary="periodic")
    spec = LatticeSpec(rows=2, cols=2, model="kitaev_holes", boundary="periodic")
    pset = build_kitaev_holes(spec)
    assert spec.n_sites == 8
    for term in pset.terms:
        assert term.operator.weight == 4


def hand_set(*terms):
    """PlaquetteSet from ``(literal, group)`` pairs, indexed ``(0, k)``."""
    return PlaquetteSet(
        len(terms[0][0]),
        tuple(
            PlaquetteTerm((0, k), PauliString.parse(text), group)
            for k, (text, group) in enumerate(terms)
        ),
    )


def first_anticommuting(pset):
    ops = pset.operators()
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if not commutes(ops[a], ops[b]):
                return a, b
    return None


def toric_build_checks(monkeypatch, capsys, tmp_path, spec, pset=None):
    """The checks ``qsakit toric build`` reports on ``spec``, whose build is ``pset`` if given."""
    if pset is not None:
        monkeypatch.setattr(toric_lattice, "build_variant", lambda _: pset)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["toric", "build", "--spec", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == {"pass": 0, "fail": 1}[report["status"]]
    return report["checks"]


def test_toric_build_names_the_first_anticommuting_pair(monkeypatch, capsys, tmp_path):
    # XXII anticommutes with IZIZ (site 1) and with ZIII (site 0)
    pset = hand_set(("XXII", 1), ("IIZZ", 2), ("IZIZ", 3), ("ZIII", 4))
    assert first_anticommuting(pset) == (0, 2)
    assert toric_build_checks(monkeypatch, capsys, tmp_path, {"rows": 2, "cols": 2}, pset) == [
        {"name": "terms-pairwise-commute", "passed": False,
         "detail": "terms (0, 0)/plaquette and (0, 2)/plaquette do not commute"},
        {"name": "groups-support-disjoint", "passed": True},
    ]


def test_toric_build_catches_a_planted_letter_on_a_lattice(monkeypatch, capsys, tmp_path):
    terms = list(build_wen(LatticeSpec(rows=5, cols=5)).terms)
    # plant a Y in one term, then in a second one as well
    for k in (5, 10):
        op = terms[k].operator
        site = op.support[-1]
        letters = list(op.letters)
        letters[site] = "Y"
        terms[k] = PlaquetteTerm(
            terms[k].index, PauliString(op.n_sites, tuple(letters)),
            terms[k].group, terms[k].kind,
        )
        pset = PlaquetteSet(op.n_sites, tuple(terms))
        ops = pset.operators()
        expected = [
            (a, b) for a in range(len(ops)) for b in range(a + 1, len(ops))
            if not commutes(ops[a], ops[b])
        ]
        assert expected
        assert anticommuting_pairs(ops) == expected
        a, b = (pset.terms[i] for i in expected[0])
        checks = toric_build_checks(monkeypatch, capsys, tmp_path, {"rows": 5, "cols": 5}, pset)
        assert checks == [
            {"name": "terms-pairwise-commute", "passed": False,
             "detail": f"terms {a.index}/{a.kind} and {b.index}/{b.kind} do not commute"},
            {"name": "groups-support-disjoint", "passed": True},
        ]


def test_toric_build_fails_on_a_group_overlap(monkeypatch, capsys, tmp_path):
    pset = hand_set(("XXII", 1), ("IIIZ", 2), ("IXXI", 1))
    assert first_anticommuting(pset) is None
    assert pset.group_overlap() == (1, [1])
    assert toric_build_checks(monkeypatch, capsys, tmp_path, {"rows": 2, "cols": 2}, pset) == [
        {"name": "terms-pairwise-commute", "passed": True},
        {"name": "groups-support-disjoint", "passed": False,
         "detail": "group 1 members share sites [1]"},
    ]
    # a planted group rule on the real builder: every wen plaquette in group 1
    monkeypatch.undo()
    monkeypatch.setattr(toric_lattice, "_wen_group", lambda i, j: 1)
    assert toric_build_checks(monkeypatch, capsys, tmp_path, {"rows": 3, "cols": 3}) == [
        {"name": "terms-pairwise-commute", "passed": True},
        {"name": "groups-support-disjoint", "passed": False,
         "detail": "group 1 members share sites [1, 4]"},
    ]


def accepted_builds(largest, max_sites=None):
    """``(spec, build_variant(spec))`` for every spec on grids from 2x2 to
    ``largest`` x ``largest`` (of at most ``max_sites`` sites) that ``LatticeSpec`` accepts.

    Both boundaries and both models, each with no hole or one single-cell
    hole of either kind, and open wen with one twist or two (in different
    rows).  A hole cell is any grid cell the spec accepts.
    """
    for rows, cols in itertools.product(range(2, largest + 1), repeat=2):
        for boundary, model in itertools.product(toric_lattice.BOUNDARIES, toric_lattice.MODELS):
            if boundary == "periodic" and (rows % 2 or cols % 2):
                continue
            base = {"rows": rows, "cols": cols, "boundary": boundary, "model": model}
            if max_sites is not None and LatticeSpec(**base).n_sites > max_sites:
                continue
            fields = [{}] + [
                {"holes": (HoleSpec((cell,), kind),)}
                for kind in toric_lattice.HOLE_KINDS
                for cell in itertools.product(range(rows), range(cols))
            ]
            if model == "wen" and boundary == "open" and cols >= 3:
                anchors = list(itertools.product(range(rows - 1), range(cols - 2)))
                fields += [
                    {"twists": tuple(TwistSpec(*t) for t in twists)}
                    for twists in itertools.chain(
                        ((a,) for a in anchors),
                        ((a, b) for a, b in itertools.combinations(anchors, 2) if a[0] != b[0]),
                    )
                ]
            for extra in fields:
                try:
                    spec = LatticeSpec(**base, **extra)
                except LatticeError as exc:
                    assert "holes" in extra and "out of range" in str(exc), extra
                    continue
                yield spec, build_variant(spec)


def test_every_accepted_spec_builds_a_commuting_disjoint_set():
    # the builders no longer check their sets, so this test does: up to 6x6
    # no two terms anticommute and no group's members share a site
    count = 0
    for spec, pset in accepted_builds(6):
        assert anticommuting_pairs(pset.operators()) == [], spec
        assert pset.group_overlap() is None, spec
        count += 1
    assert count == 2369


def test_kitaev_hole_overlap_rejected():
    # the spec refuses the repeat when it is made; no build is needed
    with pytest.raises(LatticeError, match=r"^holes overlap at \(1, 0\)$"):
        LatticeSpec(
            rows=3, cols=4, model="kitaev_holes",
            holes=(HoleSpec(((1, 0),), "smooth"), HoleSpec(((1, 0),), "smooth")),
        )


def _kitaev_with(*holes):
    """A 3x4 hole-model spec dict with ``(cells, kind)`` holes."""
    return {
        "rows": 3, "cols": 4, "model": "kitaev_holes",
        "holes": [{"plaquettes": [list(c) for c in cells], "kind": kind} for cells, kind in holes],
    }


# spec dicts, made into specs inside the test, where the refusal now comes
@pytest.mark.parametrize("spec, message", [
    (_kitaev_with(([(1, 0)], "smooth"), ([(1, 0)], "smooth")), "holes overlap at (1, 0)"),
    (_kitaev_with(([(2, 0)], "smooth")), "smooth hole faces out of range: [(2, 0)]"),
    (_kitaev_with(([(0, 0)], "rough")), "rough hole vertices out of range: [(0, 0)]"),
    (_kitaev_with(([(2, 0), (5, 5)], "smooth"), ([(0, 1)], "rough")),
     "smooth hole faces out of range: [(2, 0), (5, 5)]"),
    (_kitaev_with(([(1, 0)], "smooth"), ([(1, 1)], "smooth")),
     "hole regions share edges; holes must be disjoint"),
    (_kitaev_with(([(0, 0)], "smooth"), ([(1, 0)], "rough")),
     "hole regions share edges; holes must be disjoint"),
    ({"rows": 3, "cols": 3, "holes": [{"plaquettes": [[2, 0]]}]},
     "hole plaquette (2, 0) out of range"),
    ({"rows": 3, "cols": 3, "holes": [{"plaquettes": [[0, 0]]}, {"plaquettes": [[0, 0]]}]},
     "holes overlap at plaquette (0, 0)"),
])
def test_hole_errors_name_the_fault(spec, message):
    with pytest.raises(LatticeError) as info:
        LatticeSpec.from_dict(spec)
    assert str(info.value) == message


HOLE_FAULTS = re.compile(
    r"hole plaquette \(\d+, \d+\) out of range|holes overlap at (plaquette )?\(\d+, \d+\)"
    r"|(smooth hole faces|rough hole vertices) out of range: \[.*\]"
    r"|hole regions share edges; holes must be disjoint"
)


def test_every_spec_with_accepted_holes_builds():
    # 2x2 to 4x4, both boundaries and both models, with no hole or one or two
    # single-cell holes of either kind on any cell up to one past the grid:
    # every spec LatticeSpec accepts builds, and every refusal names a hole fault
    enumerated = accepted = 0
    for rows, cols in itertools.product(range(2, 5), repeat=2):
        for boundary, model in itertools.product(toric_lattice.BOUNDARIES, toric_lattice.MODELS):
            if boundary == "periodic" and (rows % 2 or cols % 2):
                continue
            holes = [
                HoleSpec((cell,), kind)
                for kind in toric_lattice.HOLE_KINDS
                for cell in itertools.product(range(rows + 1), range(cols + 1))
            ]
            for chosen in itertools.chain(
                [()], ((hole,) for hole in holes), itertools.combinations(holes, 2)
            ):
                enumerated += 1
                try:
                    spec = LatticeSpec(rows, cols, boundary, model, holes=chosen)
                except LatticeError as exc:
                    assert HOLE_FAULTS.fullmatch(str(exc)), (chosen, exc)
                    continue
                build_variant(spec)
                accepted += 1
    assert (enumerated, accepted) == (15066, 2209)


def test_build_variant_dispatch():
    wen = LatticeSpec(rows=3, cols=3)
    assert build_variant(wen).terms == build_wen(wen).terms
    kit = LatticeSpec(rows=3, cols=4, model="kitaev_holes")
    assert build_variant(kit).terms == build_kitaev_holes(kit).terms


HOLES_34 = LatticeSpec(rows=3, cols=4, model="kitaev_holes")
TORUS_44 = LatticeSpec(rows=4, cols=4, boundary="periodic")
TWISTED_44 = LatticeSpec(rows=4, cols=4, twists=(TwistSpec(1, 0),))


@pytest.mark.parametrize("call, message", [
    (lambda: ground_state_sweep(TORUS_44), "the unitary sweep requires an open boundary"),
    (lambda: ground_state_sweep(TWISTED_44), "ground-state construction does not support twists"),
    (lambda: ground_state_projector(TWISTED_44),
     "ground-state construction does not support twists"),
    (lambda: build_wen(HOLES_34), "build_wen needs model 'wen', got 'kitaev_holes'"),
    (lambda: build_kitaev_holes(TORUS_44),
     "build_kitaev_holes needs model 'kitaev_holes', got 'wen'"),
    (lambda: LatticeSpec(rows=3, cols=4).site_index(3, 0), "spin (3, 0) outside the 3x4 grid"),
    (lambda: kitaev_operator(HOLES_34, "vertex", 0, 1), "vertex star (0, 1) out of range"),
    # edge keys are not wrapped on a periodic grid
    (lambda: kitaev_edge_index(LatticeSpec(2, 2, "periodic", "kitaev_holes"), "v", 2, 0),
     "edge ('v', 2, 0) does not exist on this lattice"),
], ids=["sweep-on-a-torus", "sweep-on-a-twist", "projector-on-a-twist", "build-wen-on-holes", "build-holes-on-wen",
        "spin-off-the-grid", "star-on-the-rough-top", "edge-past-a-periodic-row"])
def test_a_lattice_routine_refuses_what_it_cannot_do(call, message):
    with pytest.raises(LatticeError) as info:
        call()
    assert str(info.value) == message

