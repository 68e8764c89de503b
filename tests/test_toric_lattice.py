"""Lattice builds, digital evolution and ground states vs brute force."""

import re

import numpy as np
import pytest
import scipy.linalg

from qsakit.dense_oracle import Statevector, apply_string, distance
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
    _validate_set,
    build_kitaev_holes,
    build_variant,
    build_wen,
    digital_sequence,
    build_psi0,
    ground_state_projector,
    ground_state_sweep,
    kitaev_edge_index,
    kitaev_operator,
    plaquette_schedule,
)

from conftest import kron_expm, kron_string, kron_sum

SEED = 20240815


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


def test_spec_dict_round_trip():
    spec = LatticeSpec(
        rows=3, cols=4, model="kitaev_holes",
        holes=(HoleSpec(((1, 0),), "smooth"), HoleSpec(((1, 2),), "rough")),
    )
    assert LatticeSpec.from_dict(spec.to_dict()) == spec
    twisted = LatticeSpec(rows=4, cols=4, twists=(TwistSpec(1, 0),))
    assert LatticeSpec.from_dict(twisted.to_dict()) == twisted


def test_wen_plaquette_pattern():
    spec = LatticeSpec(rows=3, cols=3)
    pset = build_wen(spec)
    term = pset.term_at((0, 0))
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
    with pytest.raises(LatticeError):
        pset.term_at((1, 1))
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
    schedule = plaquette_schedule(
        *pentagon.index, spec, tau=0.4, strategy="line_endpoints"
    )
    assert validate(schedule) == []


def test_plaquette_schedule_depth_and_identity():
    spec = LatticeSpec(rows=3, cols=3, J=2.0)
    schedule = plaquette_schedule(0, 0, spec, tau=0.25)
    assert schedule.depth == 1
    assert len(schedule.final_swappers) == 0
    assert schedule.tg == pytest.approx(0.5)  # J * tau
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
    psi0 = build_psi0(spec)
    pset = build_wen(spec)
    for term in pset.terms:
        i, j = term.index
        if (i + j) % 2 == 1:
            assert np.allclose(
                apply_string(term.operator, psi0.data), psi0.data, atol=1e-12
            )


def test_ground_state_projector_stabilizes_everything():
    for rows, cols, boundary in [(3, 3, "open"), (3, 4, "open")]:
        spec = LatticeSpec(rows=rows, cols=cols, boundary=boundary)
        g = ground_state_projector(spec)
        for term in build_wen(spec).terms:
            assert g.expectation(term.operator).real == pytest.approx(1.0)


def test_ground_state_sweep_equals_projector():
    for rows, cols in [(3, 3), (3, 4)]:
        spec = LatticeSpec(rows=rows, cols=cols)
        swept, stages = ground_state_sweep(spec)
        reference = ground_state_projector(spec)
        assert swept.fidelity(reference) >= 1.0 - 1e-12
        assert len(stages) >= 1
        for term in build_wen(spec).terms:
            assert swept.expectation(term.operator).real == pytest.approx(1.0)


def test_ground_state_energy_is_minimal():
    spec = LatticeSpec(rows=3, cols=3)
    g = ground_state_projector(spec)
    h = kron_sum(build_wen(spec).hamiltonian(spec.J))
    energy = np.vdot(g.data, h @ g.data).real
    ground = scipy.linalg.eigh(h, eigvals_only=True)[0]
    assert energy == pytest.approx(ground, abs=1e-9)


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
    spec = _kitaev_with(([(1, 0), (1, 1)], "smooth"))
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


def test_validate_set_names_the_first_anticommuting_pair():
    # XXII anticommutes with IZIZ (site 1) and with ZIII (site 0)
    pset = hand_set(("XXII", 1), ("IIZZ", 2), ("IZIZ", 3), ("ZIII", 4))
    assert first_anticommuting(pset) == (0, 2)
    with pytest.raises(LatticeError, match=r"terms \(0, 0\)/plaquette and "
                       r"\(0, 2\)/plaquette do not commute"):
        _validate_set(pset)


def test_validate_set_catches_a_planted_letter_on_a_lattice():
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
        with pytest.raises(LatticeError) as info:
            _validate_set(pset)
        assert str(info.value) == (
            f"terms {a.index}/{a.kind} and {b.index}/{b.kind} do not commute"
        )


def test_validate_set_rejects_group_overlap():
    pset = hand_set(("XXII", 1), ("IIIZ", 2), ("IXXI", 1))
    assert first_anticommuting(pset) is None
    assert pset.group_overlap() == (1, [1])
    with pytest.raises(LatticeError, match=r"group 1 members share sites \[1\]"):
        _validate_set(pset)
    assert build_wen(LatticeSpec(rows=4, cols=4)).group_overlap() is None


def test_kitaev_hole_overlap_rejected():
    with pytest.raises(LatticeError):
        build_kitaev_holes(
            LatticeSpec(
                rows=3, cols=4, model="kitaev_holes",
                holes=(
                    HoleSpec(((1, 0),), "smooth"),
                    HoleSpec(((1, 0),), "smooth"),
                ),
            )
        )


def _kitaev_with(*holes):
    return LatticeSpec(
        rows=3, cols=4, model="kitaev_holes",
        holes=tuple(HoleSpec(tuple(p), kind) for p, kind in holes),
    )


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
    (LatticeSpec(rows=3, cols=3, holes=(HoleSpec(((2, 0),)),)),
     "hole plaquette (2, 0) out of range"),
    (LatticeSpec(rows=3, cols=3, holes=(HoleSpec(((0, 0),)), HoleSpec(((0, 0),)))),
     "holes overlap at plaquette (0, 0)"),
])
def test_hole_errors_name_the_fault(spec, message):
    with pytest.raises(LatticeError) as info:
        build_variant(spec)
    assert str(info.value) == message


def test_build_variant_dispatch():
    wen = LatticeSpec(rows=3, cols=3)
    assert build_variant(wen).terms == build_wen(wen).terms
    kit = LatticeSpec(rows=3, cols=4, model="kitaev_holes")
    assert build_variant(kit).terms == build_kitaev_holes(kit).terms
