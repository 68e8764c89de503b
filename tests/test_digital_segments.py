"""`toric digital` judged term by term: the segment judge `compare_segments`.

A digital program is one compiled schedule per Hamiltonian term.  Each
schedule is compared with its own term on that term's few sites, and the sum
of those spectral distances bounds the distance of the whole program from
``exp(-i tau H)``.  Whenever that sum does not certify a pass, the verdict is
the global one, so a failing report is what the global judge prints.
"""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from qsakit import cli, dense_oracle, toric_lattice
from qsakit.cli import main
from qsakit.dense_oracle import compare_pulses, compare_segments
from qsakit.pauli_core import PauliString, WeightedPauliSum
from qsakit.schedule_compiler import compile_schedule
from qsakit.toric_lattice import LatticeSpec, build_variant, digital_sequence

from conftest import count_calls, kron_string, kron_sum

TAU = 0.3


def run_cli(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def global_reference(seq):
    """The exact evolution as the CLI hands it to the judge: per-term rotations in
    the Hamiltonian's order."""
    return [(term, coeff * seq.tau) for coeff, term in seq.hamiltonian().terms]


def kron_program(n, pulses):
    """The program's product from kron matrices: each generator squares to 1, so
    its pulse is ``cos(a) - i sin(a) G``."""
    product = np.eye(1 << n, dtype=np.complex128)
    for generator, angle in pulses:
        g = kron_string(generator) if isinstance(generator, PauliString) else kron_sum(generator)
        product = (np.cos(angle) * np.eye(1 << n) - 1j * np.sin(angle) * g) @ product
    return product


def kron_distance(seq):
    """Spectral distance of the program from scipy's ``exp(-i tau H)``."""
    ideal = scipy.linalg.expm(-1j * seq.tau * kron_sum(seq.hamiltonian()))
    return float(np.linalg.norm(kron_program(seq.n_sites, seq.pulses()) - ideal, 2))


def with_stages(seq, plant):
    """``seq`` with ``plant(k, schedule)`` in place of its ``k``-th schedule."""
    schedules = iter(range(sum(len(stage) for stage in seq.stages)))
    stages = tuple(tuple(plant(next(schedules), s) for s in stage) for stage in seq.stages)
    return dataclasses.replace(seq, stages=stages)


def shifted_seed(schedule):
    return dataclasses.replace(schedule, tg=schedule.tg + 1e-3)


def changed_letter(schedule):
    (first, *rest), *layers = schedule.layers
    letter = "Y" if first.attached_letter != "Y" else "X"
    return dataclasses.replace(
        schedule, layers=((dataclasses.replace(first, attached_letter=letter), *rest), *layers))


# -- passing programs ------------------------------------------------------------


@pytest.mark.parametrize("payload", [
    {"rows": 4, "cols": 4},
    {"rows": 8, "cols": 8},
    {"rows": 4, "cols": 4, "boundary": "periodic"},
    {"rows": 6, "cols": 6, "twists": [{"row": 1, "col": 1}, {"row": 3, "col": 2}]},
    {"rows": 5, "cols": 5, "holes": [{"plaquettes": [[1, 1], [1, 2]]}]},
    {"rows": 4, "cols": 5, "model": "kitaev_holes",
     "holes": [{"plaquettes": [[1, 0]], "kind": "smooth"},
               {"plaquettes": [[1, 2]], "kind": "rough"}]},
], ids=["open4x4", "open8x8", "periodic4x4", "twisted6x6", "holed5x5", "kitaev-holes4x5"])
def test_digital_programs_pass_above_the_dense_limit(tmp_path, capsys, monkeypatch, payload):
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    spec = write_spec(tmp_path, payload)
    code, report = run_cli(capsys, ["toric", "digital", "--spec", spec, "--tau", str(TAU)])
    metrics = report["metrics"]
    assert (code, report["status"]) == (0, "pass")
    assert metrics["distance_metric"] == "spectral_distance_bound"
    assert 0.0 <= metrics["distance"] <= 1e-12
    assert metrics["n_sites"] > dense_oracle.max_dense_qubits() or payload["rows"] == 4


def test_a_passing_program_runs_no_block_wider_than_a_term(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    widths = []
    blocks = dense_oracle._input_blocks

    def recorded(n_sites, probes):
        widths.append(n_sites)
        return blocks(n_sites, probes)

    monkeypatch.setattr(dense_oracle, "_input_blocks", recorded)
    calls = count_calls(monkeypatch, dense_oracle, "compare_pulses", "_identity_product")
    spec = write_spec(tmp_path, {"rows": 4, "cols": 4})
    code, report = run_cli(capsys, ["toric", "digital", "--spec", spec])
    widest = max(len(t.operator.support) for t in build_variant(LatticeSpec(4, 4)).terms)
    assert code == 0
    assert widths and max(widths) <= widest == 4
    # the nine plaquettes restrict to one local program, judged once
    assert calls == {"compare_pulses": 1, "_identity_product": 0}


# -- the sum against the global distance -----------------------------------------


def test_one_shifted_term_sums_to_the_global_distance():
    seq = digital_sequence(LatticeSpec(3, 3, J=0.8), TAU)
    planted = with_stages(seq, lambda k, s: shifted_seed(s) if k == 2 else s)
    want = kron_distance(planted)
    assert want > 1e-4
    # above the term's norm bound, so its segment reads its exact distance
    report = compare_segments(9, planted.segments(), global_reference(planted), want + 1e-12)
    assert (report["passed"], report["metric"]) == (True, "spectral_distance_bound")
    assert abs(report["distance"] - want) <= 1e-12


def test_several_shifted_terms_sum_to_at_least_the_global_distance():
    seq = digital_sequence(LatticeSpec(3, 3), TAU)
    planted = with_stages(seq, lambda k, s: shifted_seed(s) if k % 2 == 0 else s)
    want = kron_distance(planted)
    report = compare_segments(9, planted.segments(), global_reference(planted), 1.0)
    assert report["passed"] and report["metric"] == "spectral_distance_bound"
    assert report["distance"] >= want - 1e-15
    assert want > 1e-4


def test_a_passing_sum_is_at_least_the_global_distance():
    seq = digital_sequence(LatticeSpec(3, 3, J=0.7), 0.4)
    report = compare_segments(9, seq.segments(), global_reference(seq), cli.DIGITAL_TOLERANCE)
    assert report["passed"]
    assert report["distance"] >= kron_distance(seq) - 1e-15


# -- the global fallback -----------------------------------------------------------


def assert_global(n, segments, reference, tolerance=1e-8):
    program = [pulse for pulses, _ in segments for pulse in pulses]
    assert compare_segments(n, segments, reference, tolerance) == compare_pulses(
        n, program, reference, tolerance)


def test_unmatched_terms_take_the_global_verdict():
    seq = digital_sequence(LatticeSpec(3, 3), TAU)
    segments, reference = seq.segments(), global_reference(seq)
    assert_global(9, segments, reference[1:])  # a segment term the reference lacks
    assert_global(9, segments, reference + reference[:1])  # a reference term no segment has
    (pulses, terms), *rest = segments
    assert_global(9, [(pulses, terms + terms), *rest], reference)  # one term in two places


def test_anticommuting_terms_take_the_global_verdict():
    # each segment equals its term, but the terms anticommute, so their
    # product depends on the order and the per-term sum certifies nothing
    x, z = PauliString.parse("XI"), PauliString.parse("ZI")
    segments = [([(x, 0.2)], [(x, 0.2)]), ([(z, 0.3)], [(z, 0.3)])]
    reference = [(z, 0.3), (x, 0.2)]
    assert_global(2, segments, reference)
    assert not compare_segments(2, segments, reference, 1e-8)["passed"]


def test_a_segment_wider_than_the_matrix_cap_takes_the_global_verdict():
    target = PauliString.parse("XZ" * 6)
    schedule = compile_schedule(target, tg=0.4)
    segments = [(schedule.pulses(), [(target, 0.4)])]
    report = compare_segments(12, segments, [(target, 0.4)], 1e-10)
    assert report["metric"] == "max_state_l2[20 probes]" and report["passed"]
    assert_global(12, segments, [(target, 0.4)], 1e-10)


def test_a_pulse_on_another_register_is_refused():
    x = PauliString.parse("XI")
    with pytest.raises(ValueError, match="generator on 3 sites, array on 2"):
        compare_segments(2, [([(PauliString.parse("XII"), 0.2)], [(x, 0.2)])], [(x, 0.2)], 1e-8)


def test_a_weighted_generator_is_restricted_term_by_term():
    # 0.6 XIZ + 0.8 ZIZ squares to 1 and acts on sites 0 and 2; its segment
    # equals the reference pulse exp(-i 0.5 XIZ) exactly when its weight on
    # ZIZ is 0, so the sum reads the distance of the two on those sites
    xiz, ziz = PauliString.parse("XIZ"), PauliString.parse("ZIZ")
    h = WeightedPauliSum.from_terms(3, [(0.6, xiz), (0.8, ziz)])
    segments = [([(h, 0.5)], [(xiz, 0.5)])]
    want = np.linalg.norm(kron_program(3, [(h, 0.5)]) - kron_program(3, [(xiz, 0.5)]), 2)
    report = compare_segments(3, segments, [(xiz, 0.5)], 1.0)
    assert report["passed"] and report["metric"] == "spectral_distance_bound"
    assert want - 1e-15 <= report["distance"] <= 2.0


# -- planted defects print the global report -----------------------------------------


def plant_compile(monkeypatch, spec, defect):
    """Compile the spec's first term through ``defect``."""
    victim = build_variant(spec).terms[0].operator
    original = toric_lattice.compile_schedule

    def compile_term(target, **options):
        schedule = original(target, **options)
        return defect(schedule) if target == victim else schedule

    monkeypatch.setattr(toric_lattice, "compile_schedule", compile_term)


def plant_y(monkeypatch, spec):
    shapes = dict(toric_lattice._WEN_SHAPES)
    shapes["plaquette"] = {(0, 0): "X", (0, 1): "Z", (1, 0): "Z", (1, 1): "Y"}
    monkeypatch.setattr(toric_lattice, "_WEN_SHAPES", shapes)


PLANTS = {
    "shifted-seed": lambda mp, spec: plant_compile(mp, spec, shifted_seed),
    "attachment-letter": lambda mp, spec: plant_compile(mp, spec, changed_letter),
    "y-in-shapes": plant_y,
}


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("cols", [3, 4])
def test_a_planted_defect_prints_the_global_failing_report(
        tmp_path, capsys, monkeypatch, plant, cols):
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    spec = LatticeSpec(3, cols)
    PLANTS[plant](monkeypatch, spec)
    path = write_spec(tmp_path, {"rows": 3, "cols": cols})
    code, report = run_cli(capsys, ["toric", "digital", "--spec", path, "--tau", str(TAU)])
    seq = digital_sequence(spec, TAU)
    want = compare_pulses(spec.n_sites, seq.pulses(), global_reference(seq),
                          cli.DIGITAL_TOLERANCE)
    assert (code, report["status"], want["passed"]) == (1, "fail", False)
    assert report["metrics"]["distance_metric"] == want["metric"]
    assert report["metrics"]["distance"] == want["distance"]
    assert report["checks"] == [{
        "name": "digital-matches-exponential", "passed": False,
        "detail": f"{want['metric']} = {want['distance']:.3e}",
    }]


@pytest.mark.parametrize("plant", PLANTS)
def test_a_planted_defect_above_the_dense_limit_exits_three(tmp_path, capsys, monkeypatch, plant):
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    PLANTS[plant](monkeypatch, LatticeSpec(4, 4))
    path = write_spec(tmp_path, {"rows": 4, "cols": 4})
    code, report = run_cli(capsys, ["toric", "digital", "--spec", path])
    assert (code, report["status"]) == (3, "resource-limit")
    assert report["error"] == (
        "compare_pulses: 16 sites exceeds the dense limit of 14 "
        "(set QSA_MAX_DENSE_QUBITS to raise it)")
