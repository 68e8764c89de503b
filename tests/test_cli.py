"""Batch front-end: exit codes, report shape, determinism, round trips."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsakit import (
    analysis, anyon_logic, cli, dense_oracle, propagator_engine, schedule_compiler,
    toric_lattice,
)
from qsakit.cli import main

PLAQUETTE_ARGS = ["compile", "--target", "XZZX", "--tg", "0.3"]
STRENGTH_ARGS = ["analyze", "strength", "--tau", "0", "--tau-prime", "0"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def complete_graph_file(tmp_path, n):
    edges = [[a, b] for a in range(n) for b in range(a + 1, n)]
    return write_json(tmp_path / f"complete{n}.json", {"n_sites": n, "edges": edges})


def test_compile_writes_verifiable_schedule(tmp_path, capsys):
    graph = complete_graph_file(tmp_path, 4)
    out_file = tmp_path / "plaquette.json"
    code, out = run_cli(
        capsys,
        PLAQUETTE_ARGS + ["--graph", graph, "--out", str(out_file)],
    )
    report = json.loads(out)
    assert code == 0
    assert report["status"] == "pass"
    assert report["metrics"]["depth"] == 1
    assert report["metrics"]["dense_distance"] <= 1e-10
    assert {c["name"] for c in report["checks"]} >= {
        "validator-clean", "dense-identity", "artifact-round-trip",
    }

    code, out = run_cli(capsys, ["verify", "--schedule", str(out_file)])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_reports_are_byte_identical(tmp_path, capsys):
    graph = complete_graph_file(tmp_path, 4)
    argv = PLAQUETTE_ARGS + ["--graph", graph]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_the_cached_parser_gives_every_call_its_first_output(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    schedule = tmp_path / "plaquette.json"
    compile_args = PLAQUETTE_ARGS + ["--out", str(schedule)]
    calls = [
        compile_args,
        ["verify", "--schedule", str(schedule), "--tg", "0.5"],
        ["compile", "--target", "XQZX"],
        ["compile", "--target", "XZ", "--strategy", "nonesuch"],
        STRENGTH_ARGS,
        ["verify", "--schedule", str(schedule)],
        ["compile", "--target", "YY", "--tg", "0.7"],
    ]
    first = {}
    for argv in calls + calls[::-1] + calls:
        code = main(argv)
        captured = capsys.readouterr()
        result = (code, captured.out, captured.err)
        assert first.setdefault(tuple(argv), result) == result, argv
    assert first[tuple(calls[3])][0] == 2 and "invalid choice" in first[tuple(calls[3])][2]


# Every option of every action, over one or more runs that each exit 0:
# {(command, action or None): [options of one run]}, files as {placeholders}.
EVERY_OPTION = {
    ("compile", None): [["--target", "XZZX", "--graph", "{complete4}", "--strategy", "doubling",
                         "--tg", "0.3", "--out", "{out}"]],
    ("verify", None): [["--schedule", "{plaquette}", "--tg", "0.4", "--graph", "{complete4}"]],
    ("toric", "build"): [["--spec", "{wen33}"]],
    ("toric", "ground"): [["--spec", "{wen33}"]],
    ("toric", "digital"): [["--spec", "{wen33}", "--tau", "0.2"]],
    ("anyon", "syndrome"): [["--spec", "{wen44}", "--path", "{string}"]],
    ("anyon", "braid"): [["--spec", "{wen44}", "--path", "{center}"]],
    ("anyon", "memory"): [["--spec", "{periodic44}", "--path", "{amplitudes}"]],
    ("anyon", "magic"): [["--spec", "{holes}", "--path", "{magic}"]],
    ("anyon", "cnot"): [["--spec", "{holes}", "--path", "{cnot}"]],
    ("analyze", "strength"): [
        ["--g", "2", "--t", "1", "--tau", "0.1", "--tau-prime", "0.2", "--n", "3"],
        ["--omega", "-2", "--omega-prime", "3"],
    ],
    ("analyze", "error-scaling"): [
        ["--schedule", "{plaquette}", "--deltas", "1e-2,1e-3,1e-4", "--random-offsets"],
        ["--digital", "{wen23}", "--tau", "0.2", "--random-offsets", "5"],
    ],
}


def _action_parsers():
    """{(command, action or None): the parser of that action's options}."""
    def subparsers(parser):
        return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    found = {}
    for command, parser in subparsers(cli._build_parser())[0].choices.items():
        nested = subparsers(parser)
        listed = [a for a in parser._actions if not a.option_strings and a.choices]
        if nested:
            found.update({(command, act): p for act, p in nested[0].choices.items()})
        elif listed:
            found.update({(command, act): parser for act in listed[0].choices})
        else:
            found[(command, None)] = parser
    return found


def test_every_option_an_action_accepts_is_read(tmp_path, capsys, dense16, monkeypatch):
    # an option no handler reads changes nothing, so the parser must not take it
    parsers = _action_parsers()
    assert set(EVERY_OPTION) == set(parsers)
    plaquette = str(tmp_path / "plaquette.json")
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", plaquette])[0] == 0
    files = {
        "complete4": complete_graph_file(tmp_path, 4),
        "out": str(tmp_path / "out.json"),
        "plaquette": plaquette,
        "wen23": write_json(tmp_path / "wen23.json", {"rows": 2, "cols": 3}),
        "wen33": write_json(tmp_path / "wen33.json", {"rows": 3, "cols": 3}),
        "wen44": write_json(tmp_path / "wen44.json", {"rows": 4, "cols": 4}),
        "periodic44": write_json(tmp_path / "periodic44.json",
                                 {"rows": 4, "cols": 4, "boundary": "periodic"}),
        "holes": write_json(tmp_path / "holes.json", HOLES_SPEC),
        "string": write_json(tmp_path / "string.json",
                             {"sites": [[1, 1], [2, 2]], "letters": "ZZ"}),
        "center": write_json(tmp_path / "center.json", {"center": [1, 1]}),
        "amplitudes": write_json(tmp_path / "amplitudes.json", {"amplitudes": [1, 0, 0.5, 0]}),
        "magic": write_json(tmp_path / "magic.json", {"theta": 0.5, "hole": 0}),
        "cnot": write_json(tmp_path / "cnot.json", {"control": 0, "target": 1}),
    }
    build = cli._build_parser
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    class RecordingParser:
        def parse_args(self, argv):
            return Recording(**vars(build().parse_args(argv)))

    monkeypatch.setattr(cli, "_build_parser", RecordingParser)
    for (command, action), runs in EVERY_OPTION.items():
        dests = {opt: a.dest for a in parsers[command, action]._actions for opt in a.option_strings
                 if not isinstance(a, argparse._HelpAction)}
        given = set()
        for options in runs:
            argv = [command] + [action] * (action is not None)
            argv += [arg.format(**files) for arg in options]
            reads.clear()
            code, out = run_cli(capsys, argv)
            assert code == 0, (argv, out)
            flags = [arg for arg in options if arg.startswith("--")]
            assert {dests[flag] for flag in flags} <= reads, argv
            given.update(flags)
        assert given == set(dests), (command, action)


@pytest.mark.parametrize("argv", [
    ["compile", "--target", "XZZX", "--seed", "3"],
    ["verify", "--schedule", "s", "--seed", "3"],
    ["toric", "build", "--spec", "s", "--tau", "1"],
    ["toric", "--spec", "s", "build"],
    ["anyon", "braid", "--spec", "s", "--seed", "1"],
    ["analyze", "strength", "--g", "1", "--t", "1", "--tau", "0.1", "--tau-prime", "0.1",
     "--deltas", "bogus"],
    ["analyze", "error-scaling", "--schedule", "s", "--g", "2"],
], ids=["compile-seed", "verify-seed", "build-tau", "option-before-action", "braid-seed",
        "strength-deltas", "error-scaling-g"])
def test_an_option_the_action_does_not_read_exits_two(capsys, argv):
    code, out = run_cli(capsys, argv)
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"].startswith("CliInputError: ")


@pytest.mark.parametrize("argv, error", [
    (["compile", "--target", "XZZX", "--verbose"], "unrecognized arguments: --verbose"),
    (["analyze", "error-scaling", "--schedule", "s", "--random-offsets", "x"],
     "argument --random-offsets: invalid int value: 'x'"),
    (["compile", "--target", "XZZX", "--tg", "nan"],
     "argument --tg: must be a finite number, got 'nan'"),
    (["compile", "--target", "XZZX", "--strategy", "nonesuch"],
     "argument --strategy: invalid choice: 'nonesuch'"),
    (["toric", "build"], "the following arguments are required: --spec"),
], ids=["unknown-option", "bad-seed", "nan-tg", "bad-strategy", "missing-option"])
def test_a_refused_command_line_prints_a_report(capsys, argv, error):
    # argparse's usage and message still go to stderr
    code = main(argv)
    captured = capsys.readouterr()
    report = strict_json(captured.out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"].startswith(f"CliInputError: {error}")
    assert report["command"] == argv and report["checks"] == []
    assert captured.err.startswith("usage: ") and f"error: {error}" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "error-scaling", "-h"]])
def test_help_exits_zero_without_a_report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.startswith("usage: qsakit")


def test_error_scaling_refuses_a_time_step_for_a_schedule(tmp_path, capsys):
    out_file = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])[0] == 0
    code, out = run_cli(
        capsys, ["analyze", "error-scaling", "--schedule", str(out_file), "--tau", "0.5"]
    )
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == (
        "CliInputError: --tau sets the time step of a --digital subject; a --schedule has none"
    )


def test_verify_names_the_violated_invariant(tmp_path, capsys):
    out_file = tmp_path / "schedule.json"
    code, _ = run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    data["layers"][0][1]["attached_site"] = data["layers"][0][0]["attached_site"]
    bad_file = write_json(tmp_path / "corrupt.json", data)
    code, out = run_cli(capsys, ["verify", "--schedule", bad_file])
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "fail"
    failures = [c["name"] for c in report["checks"] if not c["passed"]]
    assert any("share sites" in name for name in failures)


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, ["verify", "--schedule", str(bad)])
    assert code == 2
    assert json.loads(out)["status"] == "malformed-input"
    code, _ = run_cli(capsys, ["compile", "--target", "XQZX"])
    assert code == 2
    code, _ = run_cli(capsys, ["compile"])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", ["XZZX", "X" * 20])
def test_non_finite_float_exits_two_naming_the_flag(tmp_path, capsys, target, value):
    out_file = tmp_path / "schedule.json"
    code = main(["compile", "--target", target, f"--tg={value}", "--out", str(out_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--tg" in err and "finite" in err
    assert not out_file.exists()


def test_every_float_option_refuses_non_finite_values(capsys):
    for argv in (
        ["verify", "--schedule", "s.json", "--tg", "nan"],
        ["toric", "digital", "--spec", "s.json", "--tau", "inf"],
        ["analyze", "strength", "--omega-prime", "nan"],
    ):
        assert main(argv) == 2
        assert f"{argv[-2]}: must be a finite number" in capsys.readouterr().err


def test_resource_limit_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    spec = write_json(
        tmp_path / "wen44.json",
        {"rows": 4, "cols": 4, "boundary": "open", "model": "wen"},
    )
    code, out = run_cli(capsys, ["toric", "ground", "--spec", spec])
    assert code == 3
    assert json.loads(out)["status"] == "resource-limit"
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "16")
    code, out = run_cli(capsys, ["toric", "ground", "--spec", spec])
    assert code == 0
    assert json.loads(out)["metrics"]["sweep_fidelity"] >= 1.0 - 1e-10


def test_unparsable_dense_limit_exits_two(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "plaquette.json"
    run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "abc")
    code, out = run_cli(capsys, ["verify", "--schedule", str(out_file)])
    report = json.loads(out)
    assert code == 2
    assert report["status"] == "malformed-input"
    assert "QSA_MAX_DENSE_QUBITS" in report["error"]


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_a_dense_limit_below_one_exits_two(tmp_path, capsys, monkeypatch, limit):
    out_file = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])[0] == 0
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", limit)
    for argv in (PLAQUETTE_ARGS, ["verify", "--schedule", str(out_file)]):
        code, out = run_cli(capsys, argv)
        report = json.loads(out)
        assert code == 2
        assert report["status"] == "malformed-input"
        assert "at least 1" in report["error"]


@pytest.mark.parametrize("fault", [
    AssertionError("planted assertion"),
    RuntimeError("planted runtime error"),
    ImportError("planted import error"),
])
def test_an_internal_fault_exits_four(capsys, monkeypatch, fault):
    def raise_fault(*args, **kwargs):
        raise fault

    monkeypatch.setattr(analysis, "strength_target", raise_fault)
    code = main(STRENGTH_ARGS)
    captured = capsys.readouterr()
    report = strict_json(captured.out)
    assert code == 4
    assert report["status"] == "internal-error"
    assert report["error"] == f"{type(fault).__name__}: {fault}"
    assert report["checks"] == [] and report["command"] == STRENGTH_ARGS
    assert "Traceback" in captured.err and "raise_fault" in captured.err


def test_a_missing_lazy_module_exits_four(capsys, monkeypatch):
    # compile imports the dense oracle only on its dense branch
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    monkeypatch.setitem(sys.modules, "qsakit.dense_oracle", None)
    code, out = run_cli(capsys, PLAQUETTE_ARGS)
    report = strict_json(out)
    assert code == 4
    assert report["status"] == "internal-error"
    assert report["error"].startswith("ModuleNotFoundError: ")
    assert main(["compile", "--target", "XZ" * 10]) == 0


def test_an_interrupt_is_not_an_internal_fault(capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(analysis, "strength_target", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(STRENGTH_ARGS)


@pytest.mark.parametrize("field", ["branch_m", "branch_mp"])
def test_branch_integer_beyond_the_bound_exits_two(tmp_path, capsys, field):
    out_file = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])[0] == 0
    data = json.loads(out_file.read_text())
    data["layers"][0][0][field] = 513
    code, out = run_cli(capsys, ["verify", "--schedule", write_json(tmp_path / "far.json", data)])
    report = json.loads(out)
    assert code == 2
    assert report["status"] == "malformed-input"
    assert f"{field} must lie in [-512, 512], got 513" in report["error"]


def test_compile_replays_its_schedule_once(capsys, monkeypatch):
    # every pulse of a replay is one branch_conjugate call, wherever it is made
    monkeypatch.delenv("QSA_MAX_DENSE_QUBITS", raising=False)
    calls = []
    real = propagator_engine.branch_conjugate

    def counted(q, a, b):
        calls.append(q)
        return real(q, a, b)

    monkeypatch.setattr(schedule_compiler, "branch_conjugate", counted)
    monkeypatch.setattr(propagator_engine, "branch_conjugate", counted)
    code, out = run_cli(capsys, ["compile", "--target", "XYZZ" * 4])
    report = json.loads(out)
    assert code == 0
    metrics = report["metrics"]
    assert metrics["dense_verification"] == "skipped: register above dense limit"
    assert [c["name"] for c in report["checks"]] == ["validator-clean"]
    assert metrics["n_swappers"] > 0
    assert len(calls) == metrics["n_attachments"] + metrics["n_swappers"]


def _flip_sign(q, a, b):
    result = propagator_engine.branch_conjugate(q, a, b)
    return result.with_phase_exp(result.phase_exp + 2)


def _skip_pulse(q, a, b):
    return q


def _grow_an_idle_site(strategy, support, adj):
    # site 4 grows, but the target XZZXI leaves it as the identity
    return (0, 1), [[(0, 2), (1, 3)], [(2, 4)]]


def _share_a_site(strategy, support, adj):
    # replays to XZZX, but both attachments of layer 1 touch site 2
    return (0, 1), [[(0, 2), (2, 3)]]


@pytest.mark.parametrize("name, fault, target, error", [
    ("branch_conjugate", _flip_sign, "XZZX", "ReplayFaultError: internal replay collapse: "
     "attachment (0, 2) gives -ZXXI: coefficient -1, not +1"),
    ("branch_conjugate", _skip_pulse, "XZZX", "ReplayFaultError: internal replay mismatch: grew "),
    ("_plan", _grow_an_idle_site, "XZZXI", "ReplayFaultError: internal swapper fault: "
     "beta must be X, Y or Z, got 'I'"),
    ("_plan", _share_a_site, "XZZX", "ReplayFaultError: internal schedule fault: "
     "layer 1: attachments share sites [2]"),
], ids=["collapse", "mismatch", "swapper", "shape"])
def test_a_compiler_replay_fault_exits_four(capsys, monkeypatch, name, fault, target, error):
    # no input makes the compiler's own schedule fail its replay or a shape
    # rule, so it is not malformed input
    monkeypatch.setattr(schedule_compiler, name, fault)
    code, out = run_cli(capsys, ["compile", "--target", target])
    report = strict_json(out)
    assert code == 4 and report["status"] == "internal-error"
    assert report["error"].startswith(error)


def _plant_target_letter(data):
    data["target"] = "XZZY"
    return ["replay mismatch: got XZZX, target XZZY"]


def _plant_stale_connector(data):
    # layer 1 grows from seed XX on sites 0 and 1 through connectors carrying X
    spec = data["layers"][0][0]
    spec["alpha"], spec["beta"] = "Y", "Z"
    return [f"layer 1: connector {spec['connector_site']} carries 'X', spec expects Y/Z"]


def _plant_grown_attached_site(data):
    spec = data["layers"][0][1]
    spec["attached_site"] = data["layers"][0][0]["connector_site"]
    return [
        f"layer 1: attachments share sites [{spec['attached_site']}]",
        f"layer 1: attached site {spec['attached_site']} is not fresh",
    ]


def _plant_seed_weight(data):
    data["seed"]["string"] = "XXXI"
    return ["seed must act on exactly 2 sites, acts on 3", "layer 1: attached site 2 is not fresh"]


def _plant_seed_phase(data):
    data["seed"]["string"] = "-XXII"
    return [
        "seed phase must be +1",
        "replay failed: attachment (0, 2) gives -ZXXI: coefficient -1, not +1",
    ]


def _plant_target_phase(data):
    data["target"] = "-XZZX"
    return ["target phase must be +1", "replay mismatch: got XZZX, target -XZZX"]


@pytest.mark.parametrize("plant", [
    _plant_target_letter, _plant_stale_connector, _plant_grown_attached_site,
    _plant_seed_weight, _plant_seed_phase, _plant_target_phase,
])
def test_verify_names_each_planted_defect(tmp_path, capsys, plant):
    out_file = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])[0] == 0
    data = json.loads(out_file.read_text())
    assert data["seed"]["string"] == "XXII"
    assert [[s["connector_site"], s["attached_site"]] for s in data["layers"][0]] == [[0, 2], [1, 3]]
    expected = plant(data)
    code, out = run_cli(capsys, ["verify", "--schedule", write_json(tmp_path / "bad.json", data)])
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    # the shape rules, then the replay's first fault and nothing after it
    assert [c["name"] for c in report["checks"] if not c["passed"]] == expected


PATH4 = {"n_sites": 4, "edges": [[0, 1], [1, 2], [2, 3]]}


@pytest.mark.parametrize("argv, code, status, checks", [
    (["anyon", "braid", "--spec", "{periodic44}"], 0, "pass",
     ["braiding-phase-minus-one", "ground-loop-expectation-plus-one"]),
    (["anyon", "memory", "--spec", "{periodic44}"], 0, "pass",
     ["basis-pairwise-orthogonal", "encoded-overlaps-match"]),
    (["toric", "ground", "--spec", "{periodic44}"], 0, "pass",
     ["plaquette-expectations-plus-one"]),
    (["analyze", "error-scaling", "--digital", "{wen33}"], 0, "pass",
     ["slope-first-order"]),
    (["verify", "--schedule", "{plaquette}", "--graph", "{path4}"], 1, "fail",
     ["layer 1: (0, 2) is not a graph edge", "layer 1: (1, 3) is not a graph edge"]),
    (["verify", "--schedule", "{plaquette}", "--graph", "{layers4}"], 1, "fail",
     ["seed pair (0, 1) is not a graph edge"]),
    (["analyze", "strength", "--tau", "0.1"], 2, "malformed-input", []),
    (["anyon", "braid", "--spec", "{periodic44}", "--path", "{light_center}"], 2,
     "malformed-input", []),
    (["anyon", "memory", "--spec", "{periodic44}", "--path", "{list_payload}"], 2,
     "malformed-input", []),
], ids=["anyon-braid", "anyon-memory", "toric-ground", "error-scaling-digital",
        "verify-graph", "verify-seed-off-graph", "strength-without-tau-prime",
        "braid-light-center", "payload-not-an-object"])
def test_command_verdicts(tmp_path, capsys, dense16, argv, code, status, checks):
    plaquette = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(plaquette)])[0] == 0
    files = {
        "periodic44": write_json(tmp_path / "periodic44.json",
                                 {"rows": 4, "cols": 4, "boundary": "periodic"}),
        "wen33": write_json(tmp_path / "wen33.json", {"rows": 3, "cols": 3}),
        "plaquette": str(plaquette),
        "path4": write_json(tmp_path / "path4.json", PATH4),
        # the plaquette schedule's layer pairs (0, 2), (1, 3), but not its seed pair (0, 1)
        "layers4": write_json(tmp_path / "layers4.json",
                              {"n_sites": 4, "edges": [[0, 2], [1, 3], [0, 3]]}),
        "light_center": write_json(tmp_path / "light.json", {"center": [1, 2]}),
        "list_payload": write_json(tmp_path / "list.json", [0.5, 0.5, 0.5, 0.5]),
    }
    got, out = run_cli(capsys, [arg.format(**files) for arg in argv])
    report = strict_json(out)
    assert (got, report["status"]) == (code, status)
    assert [c["name"] for c in report["checks"]] == checks


def test_toric_build_and_digital(tmp_path, capsys):
    spec = write_json(
        tmp_path / "wen33.json",
        {"rows": 3, "cols": 3, "boundary": "open", "model": "wen"},
    )
    code, out = run_cli(capsys, ["toric", "build", "--spec", spec])
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["n_terms"] == 4
    code, out = run_cli(capsys, ["toric", "digital", "--spec", spec, "--tau", "0.3"])
    assert code == 0
    assert json.loads(out)["metrics"]["distance"] <= 1e-8


def test_toric_build_reports_the_builder_checks(tmp_path, capsys):
    spec = write_json(tmp_path / "wen44.json", {"rows": 4, "cols": 4})
    code, out = run_cli(capsys, ["toric", "build", "--spec", spec])
    assert code == 0
    assert json.loads(out)["checks"] == [
        {"name": "terms-pairwise-commute", "passed": True},
        {"name": "groups-support-disjoint", "passed": True},
    ]


def test_toric_build_fails_on_a_planted_shape_letter(tmp_path, capsys, monkeypatch):
    # a Y in place of the top-right X makes neighbouring plaquettes anticommute
    shapes = dict(toric_lattice._WEN_SHAPES)
    shapes["plaquette"] = {(0, 0): "X", (0, 1): "Z", (1, 0): "Z", (1, 1): "Y"}
    monkeypatch.setattr(toric_lattice, "_WEN_SHAPES", shapes)
    spec = write_json(tmp_path / "wen44.json", {"rows": 4, "cols": 4})
    code, out = run_cli(capsys, ["toric", "build", "--spec", spec])
    report = json.loads(out)
    assert code == 2
    assert report["status"] == "malformed-input"
    assert "do not commute" in report["error"]


def test_toric_digital_reports_the_certified_bound(tmp_path, capsys):
    spec = write_json(tmp_path / "wen33.json", {"rows": 3, "cols": 3, "J": 0.7})
    code, out = run_cli(capsys, ["toric", "digital", "--spec", spec, "--tau", "0.4"])
    report = json.loads(out)
    assert code == 0
    assert report["metrics"]["distance_metric"] == "spectral_distance_bound"
    assert report["metrics"]["distance"] <= 1e-8
    (check,) = report["checks"]
    assert check["detail"] == f"spectral_distance_bound = {report['metrics']['distance']:.3e}"


def test_dense_verdicts_do_not_depend_on_the_seed(tmp_path, capsys):
    # 12 sites each: the dense verdict runs on the fixed probe states, no
    # option of these commands takes a seed, and no report holds one
    schedule = str(tmp_path / "big.json")
    spec = write_json(tmp_path / "wen34.json", {"rows": 3, "cols": 4})
    for argv in (
        ["compile", "--target", "XZ" * 6, "--tg", "0.4", "--out", schedule],
        ["verify", "--schedule", schedule],
        ["toric", "digital", "--spec", spec],
    ):
        code, out = run_cli(capsys, argv + ["--seed", "3"])
        assert code == 2
        assert strict_json(out)["error"] == "CliInputError: unrecognized arguments: --seed 3"
        code, out = run_cli(capsys, argv)
        assert code == 0 and "max_state_l2[20 probes]" in out
        assert "seed" not in strict_json(out)


def test_toric_digital_probes_above_the_matrix_cap(tmp_path, capsys):
    spec = write_json(tmp_path / "wen34.json", {"rows": 3, "cols": 4})
    code, out = run_cli(capsys, ["toric", "digital", "--spec", spec, "--tau", "0.3"])
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["distance_metric"] == "max_state_l2[20 probes]"
    assert metrics["distance"] <= 1e-8


def test_the_probe_count_is_not_an_option(tmp_path, capsys):
    spec = write_json(tmp_path / "wen34.json", {"rows": 3, "cols": 4})
    code, out = run_cli(capsys, ["toric", "digital", "--spec", spec, "--probes=5"])
    assert code == 2
    assert strict_json(out)["error"] == "CliInputError: unrecognized arguments: --probes=5"


def assert_malformed_naming(capsys, argv, field):
    code, out = run_cli(capsys, argv)
    report = json.loads(out)
    assert code == 2
    assert report["status"] == "malformed-input"
    assert f"{field}: must be a finite number" in report["error"]


HOLES_SPEC = {
    "rows": 3, "cols": 4, "model": "kitaev_holes",
    "holes": [
        {"plaquettes": [[1, 0]], "kind": "smooth"},
        {"plaquettes": [[1, 2]], "kind": "rough"},
    ],
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_anyon_magic_refuses_a_non_finite_theta(tmp_path, capsys, value):
    spec = write_json(tmp_path / "holes.json", HOLES_SPEC)
    magic = write_json(tmp_path / "magic.json", {"theta": value, "hole": 0})
    assert_malformed_naming(capsys, ["anyon", "magic", "--spec", spec, "--path", magic], "theta")


@pytest.mark.parametrize("action", ["digital", "build"])
def test_lattice_spec_refuses_a_non_finite_coupling(tmp_path, capsys, action):
    spec = write_json(tmp_path / "wen33.json", {"rows": 3, "cols": 3, "J": float("nan")})
    assert_malformed_naming(capsys, ["toric", action, "--spec", spec], "J")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("command", [["verify"], ["analyze", "error-scaling"]])
def test_schedule_file_refuses_a_non_finite_angle(tmp_path, capsys, command, value):
    out_file = tmp_path / "plaquette.json"
    run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    data = json.loads(out_file.read_text())
    data["seed"]["tg"] = value
    bad = write_json(tmp_path / "bad.json", data)
    assert_malformed_naming(capsys, command + ["--schedule", bad], "seed.tg")


def test_analyze_strength_overflow_is_malformed_input(capsys):
    argv = ["analyze", "strength", "--g", "1e308", "--t", "1e308",
            "--tau", "1", "--tau-prime", "1"]
    assert_malformed_naming(capsys, argv, "g_prime")


def test_anyon_memory_refuses_a_non_finite_amplitude(tmp_path, capsys):
    spec = write_json(tmp_path / "wen33.json", {"rows": 3, "cols": 3})
    for amplitudes, field in (
        ([[1, 0], [0, float("nan")], [0.5, 0], [0.5, 0]], "amplitudes[1][1]"),
        ([1, 0, float("-inf"), 0], "amplitudes[2]"),
    ):
        path = write_json(tmp_path / "memory.json", {"amplitudes": amplitudes})
        assert_malformed_naming(capsys, ["anyon", "memory", "--spec", spec, "--path", path], field)


def test_anyon_syndrome_subcommand(tmp_path, capsys):
    spec = write_json(
        tmp_path / "wen44.json",
        {"rows": 4, "cols": 4, "boundary": "open", "model": "wen"},
    )
    path = write_json(
        tmp_path / "path.json", {"sites": [[1, 1], [2, 2]], "letters": "ZZ"}
    )
    code, out = run_cli(capsys, ["anyon", "syndrome", "--spec", spec, "--path", path])
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["syndrome"]["entries"] == [
        [[0, 0], "e"], [[2, 2], "e"],
    ]
    code, _ = run_cli(capsys, ["anyon", "syndrome", "--spec", spec])
    assert code == 2


def test_anyon_magic_and_cnot(tmp_path, capsys):
    spec = write_json(
        tmp_path / "holes.json",
        {
            "rows": 3, "cols": 4, "model": "kitaev_holes",
            "holes": [
                {"plaquettes": [[1, 0]], "kind": "smooth"},
                {"plaquettes": [[1, 2]], "kind": "rough"},
            ],
        },
    )
    magic = write_json(tmp_path / "magic.json", {"theta": 0.785398, "hole": 0})
    code, out = run_cli(capsys, ["anyon", "magic", "--spec", spec, "--path", magic])
    assert code == 0
    assert json.loads(out)["metrics"]["fidelity"] >= 1.0 - 1e-10

    cnot = write_json(tmp_path / "cnot.json", {"control": 0, "target": 1})
    code, out = run_cli(capsys, ["anyon", "cnot", "--spec", spec, "--path", cnot])
    assert code == 0
    assert json.loads(out)["metrics"]["max_distance"] <= 1e-8

    # the library's refusal keeps its own text: the payload file read fine
    swapped = write_json(tmp_path / "swapped.json", {"control": 1, "target": 0})
    code, out = run_cli(capsys, ["anyon", "cnot", "--spec", spec, "--path", swapped])
    assert code == 2
    assert json.loads(out)["error"] == "EncodingError: the braided (control) hole must be smooth"


def test_analyze_strength_and_scaling(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        [
            "analyze", "strength",
            "--g", "1", "--t", "1", "--tau", "0.1", "--tau-prime", "0.1",
        ],
    )
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["g_prime"] == pytest.approx(1.0 / 1.2)
    assert metrics["g_wall"] == pytest.approx(1.0 / 4.8)

    out_file = tmp_path / "plaquette.json"
    run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    code, out = run_cli(
        capsys, ["analyze", "error-scaling", "--schedule", str(out_file)]
    )
    assert code == 0
    assert 0.9 <= json.loads(out)["metrics"]["slope"] <= 1.1

    code, _ = run_cli(capsys, ["analyze", "error-scaling"])
    assert code == 2


def test_error_scaling_with_one_delta_is_malformed(tmp_path, capsys):
    out_file = tmp_path / "plaquette.json"
    run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    code, out = run_cli(
        capsys,
        ["analyze", "error-scaling", "--schedule", str(out_file), "--deltas", "1e-2"],
    )
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "malformed-input"
    assert "at least two deltas" in report["error"]


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant} in a report")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def schedule11(tmp_path, capsys):
    """An 11-site doubling schedule file, above the widest formed product."""
    out_file = tmp_path / "schedule11.json"
    argv = ["compile", "--target", "XYZXYZXYZXY", "--tg", "0.7", "--strategy", "doubling"]
    assert run_cli(capsys, argv + ["--out", str(out_file)])[0] == 0
    return str(out_file)


def test_error_scaling_above_the_matrix_cap_is_matrix_free(schedule11, capsys):
    code, out = run_cli(capsys, ["analyze", "error-scaling", "--schedule", schedule11])
    report = strict_json(out)
    assert (code, report["status"]) == (0, "pass")
    assert 0.9 <= report["metrics"]["slope"] <= 1.1


def test_error_scaling_past_the_krylov_budget_is_a_resource_limit(
    schedule11, capsys, monkeypatch
):
    monkeypatch.setattr(dense_oracle, "MATRIX_FREE_STEPS", 3)
    code, out = run_cli(capsys, ["analyze", "error-scaling", "--schedule", schedule11])
    report = strict_json(out)
    assert (code, report["status"]) == (3, "resource-limit")
    assert "MATRIX_FREE_STEPS budget of 3 Krylov steps" in report["error"]


def test_error_scaling_refuses_deltas_that_move_no_angle(tmp_path, capsys):
    # cos(t + 1e-300) == cos(t): both distances are 0, and log(0) fits nothing
    out_file = tmp_path / "plaquette.json"
    run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    code, out = run_cli(
        capsys,
        ["analyze", "error-scaling", "--schedule", str(out_file),
         "--deltas", "1e-300,1e-301"],
    )
    report = strict_json(out)
    assert code == 2
    assert report["status"] == "malformed-input"
    assert "delta 1e-300" in report["error"]


def test_a_non_finite_report_value_is_refused_not_printed(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "plaquette.json"
    run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])
    real = analysis.error_scaling
    monkeypatch.setattr(
        analysis, "error_scaling",
        lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), intercept=math.nan),
    )
    code, out = run_cli(capsys, ["analyze", "error-scaling", "--schedule", str(out_file)])
    report = strict_json(out)
    assert code == 2
    assert report["status"] == "malformed-input"
    assert "JSON" in report["error"]


@pytest.mark.parametrize("n", [4, 6])
def test_fused_pulses_stay_within_the_dense_limit(tmp_path, capsys, monkeypatch, n):
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", str(n))
    path = [[k, k + 1] for k in range(n - 1)]
    graph = write_json(tmp_path / "path.json", {"n_sites": n, "edges": path})
    out_file = tmp_path / "line.json"
    target = "".join("XYZ"[k % 3] for k in range(n))
    code, _ = run_cli(capsys, ["compile", "--target", target, "--graph", graph,
                               "--strategy", "line_endpoints", "--out", str(out_file)])
    assert code == 0
    code, out = run_cli(capsys, ["verify", "--schedule", str(out_file)])
    report = strict_json(out)
    assert code == 0 and report["status"] == "pass"


def test_a_dense_limit_that_admits_the_register_admits_its_schedule(tmp_path, capsys, monkeypatch):
    # fused groups span up to FUSED_SITES sites whatever the limit, so the
    # reports at limit 3 are those at the default limit, byte for byte
    out_file = str(tmp_path / "xzy.json")
    runs = (["compile", "--target", "XZY", "--out", out_file], ["verify", "--schedule", out_file])
    want = [run_cli(capsys, argv) for argv in runs]
    monkeypatch.setenv("QSA_MAX_DENSE_QUBITS", "3")
    got = [run_cli(capsys, argv) for argv in runs]
    assert got == want and all(code == 0 for code, _ in got)


def test_module_entry_point():
    # the child finds qsakit where this process did, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qsakit", "analyze", "strength",
         "--g", "1", "--t", "1", "--tau", "0", "--tau-prime", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["metrics"]["g_prime"] == 1.0


def test_benchmark_tracer_finds_every_reported_function():
    # bench/run.py --trace 1 wraps these functions by name and refuses to start
    # when one of them is missing from qsakit
    code = ("import sys; sys.path[:0]=['bench','src']; import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_numerical_failure_exits_four(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, but an SVD that does not converge
    # is a fault of the numerics, not of the input.  The 3x3 differences have
    # 512 rows, so the SVD that fails is the Krylov solver's projected problem.
    import numpy as np

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    spec = write_json(tmp_path / "wen33.json", {"rows": 3, "cols": 3})
    code = main(["analyze", "error-scaling", "--digital", spec])
    captured = capsys.readouterr()
    report = strict_json(captured.out)
    assert code == 4 and report["status"] == "internal-error"
    assert report["error"] == "LinAlgError: SVD did not converge"
    assert "Traceback" in captured.err and "no_convergence" in captured.err


@pytest.mark.parametrize("subject, negative, zero", [
    ("schedule", ["--random-offsets", "-1"], ["--random-offsets", "0"]),
    ("schedule", ["--random-offsets=-1"], ["--random-offsets=0"]),
    ("digital", ["--random-offsets", "-1"], ["--random-offsets", "0"]),
], ids=["schedule", "schedule-equals", "digital"])
def test_a_negative_seed_exits_two(tmp_path, capsys, subject, negative, zero):
    # the seed of the angle offsets is the one seed the CLI takes
    out_file = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])[0] == 0
    files = {"schedule": str(out_file), "digital": write_json(tmp_path / "wen23.json",
                                                              {"rows": 2, "cols": 3})}
    argv = ["analyze", "error-scaling", f"--{subject}", files[subject]]
    code, out = run_cli(capsys, argv + negative)
    assert code == 2 and strict_json(out)["error"] == (
        "CliInputError: argument --random-offsets: must be at least 0, got '-1'"
    )
    code, out = run_cli(capsys, argv + zero)
    report = strict_json(out)
    assert code == 0 and "seed" not in report
    assert (report["metrics"]["mode"], report["metrics"]["seed"]) == ("random", 0)


def _connector_site(value):
    def make(tmp_path, capsys):
        out_file = tmp_path / "plaquette.json"
        assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(out_file)])[0] == 0
        data = json.loads(out_file.read_text())
        data["layers"][0][0]["connector_site"] = value
        return ["verify", "--schedule", write_json(tmp_path / "fractional.json", data)]
    return make


def _hole(value):
    def make(tmp_path, capsys):
        spec = write_json(tmp_path / "holes.json", HOLES_SPEC)
        payload = write_json(tmp_path / "magic.json", {"hole": value})
        return ["anyon", "magic", "--spec", spec, "--path", payload]
    return make


def _rows(value):
    def make(tmp_path, capsys):
        spec = write_json(tmp_path / "wen.json", {"rows": value, "cols": 3})
        return ["toric", "build", "--spec", spec]
    return make


def _fractional_hole_cell(tmp_path, capsys):
    spec = {"rows": 4, "cols": 4, "holes": [{"plaquettes": [[1, 0.5]]}]}
    return ["toric", "build", "--spec", write_json(tmp_path / "wen.json", spec)]


def _fractional_twist_row(tmp_path, capsys):
    spec = {"rows": 4, "cols": 4, "twists": [{"row": 0.5, "col": 1}]}
    return ["toric", "build", "--spec", write_json(tmp_path / "wen.json", spec)]


def _edge(value):
    def make(tmp_path, capsys):
        edges = [[a, b] for a in range(4) for b in range(a + 1, 4)] + [[0, value]]
        graph = write_json(tmp_path / "graph.json", {"n_sites": 4, "edges": edges})
        return ["compile", "--target", "XZZX", "--graph", graph]
    return make


def _fractional_path_site(tmp_path, capsys):
    spec = write_json(tmp_path / "wen.json", {"rows": 3, "cols": 3})
    path = write_json(tmp_path / "path.json", {"sites": [[0, 0.5]], "letters": "X"})
    return ["anyon", "syndrome", "--spec", spec, "--path", path]


def _fractional_braid_center(tmp_path, capsys):
    spec = write_json(tmp_path / "wen.json", {"rows": 4, "cols": 4})
    payload = write_json(tmp_path / "braid.json", {"center": [1.5, 1]})
    return ["anyon", "braid", "--spec", spec, "--path", payload]


INTEGER_FIELDS = {
    "connector-site": (_connector_site, "fractional.json: connector_site: "),
    "hole": (_hole, "magic.json: hole: "),
    "rows": (_rows, "wen.json: rows: "),
    "graph-edge": (_edge, "graph.json: edges: "),
}


@pytest.mark.parametrize("make_argv, context", [
    (_connector_site(0.4), "fractional.json: connector_site: "),
    (_hole(0.9), "magic.json: hole: "),
    (_rows(3.7), "wen.json: rows: "),
    (_fractional_hole_cell, "wen.json: plaquettes: "),
    (_fractional_twist_row, "wen.json: row: "),
    (_edge(1.5), "graph.json: edges: "),
    (_fractional_path_site, "path.json: sites: "),
    (_fractional_braid_center, "braid.json: center: "),
], ids=["connector-site", "hole", "rows", "hole-cell", "twist-row", "graph-edge", "path-site",
        "braid-center"])
def test_a_fractional_integer_field_exits_two(tmp_path, capsys, make_argv, context):
    # int() would truncate 0.4 to 0 and run on the wrong site, hole or lattice;
    # the error names the file, where there is one, and the field
    code, out = run_cli(capsys, make_argv(tmp_path, capsys))
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert context + "'float' object cannot be interpreted as an integer" in report["error"]


@pytest.mark.parametrize("value, kind", [(True, "bool"), ("1.5", "str")], ids=["true", "string"])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_a_json_bool_or_string_integer_field_exits_two(tmp_path, capsys, field, value, kind):
    # operator.index(True) is 1, so JSON true would pass for the integer 1
    make, context = INTEGER_FIELDS[field]
    code, out = run_cli(capsys, make(value)(tmp_path, capsys))
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert context + f"'{kind}' object cannot be interpreted as an integer" in report["error"]


def _coupling(value):
    def make(tmp_path, capsys):
        spec = write_json(tmp_path / "wen.json", {"rows": 3, "cols": 3, "J": value})
        error = f"bad lattice spec {spec}: J: expected a JSON number, got {value!r}"
        return ["toric", "build", "--spec", spec], error
    return make


def _seed_angle(value):
    def make(tmp_path, capsys):
        schedule = tmp_path / "plaquette.json"
        assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(schedule)])[0] == 0
        data = json.loads(schedule.read_text())
        data["seed"]["tg"] = value
        bad = write_json(tmp_path / "bad.json", data)
        error = f"bad schedule file {bad}: seed.tg: expected a JSON number, got {value!r}"
        return ["verify", "--schedule", bad], error
    return make


def _lattice_text(field, message):
    def make(tmp_path, capsys):
        spec = {"rows": 4, "cols": 4}
        if field == "kind":
            spec["holes"] = [{"plaquettes": [[1, 0]], "kind": True}]
        else:
            spec[field] = True
        spec = write_json(tmp_path / "wen.json", spec)
        return ["toric", "build", "--spec", spec], f"bad lattice spec {spec}: {message}"
    return make


def _pulse_text(target, plant, field):
    def make(tmp_path, capsys):
        schedule = tmp_path / "good.json"
        assert run_cli(capsys, ["compile", "--target", target, "--out", str(schedule)])[0] == 0
        data = json.loads(schedule.read_text())
        plant(data)[field] = True
        bad = write_json(tmp_path / "bad.json", data)
        error = f"bad schedule file {bad}: {field} must be X, Y or Z, got True"
        return ["verify", "--schedule", bad], error
    return make


def _attachment(data):
    return data["layers"][0][0]


def _swapper(data):
    return data["final_swappers"][0]


def _attachment_without_attached_site(tmp_path, capsys):
    schedule = tmp_path / "plaquette.json"
    assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", str(schedule)])[0] == 0
    data = json.loads(schedule.read_text())
    del _attachment(data)["attached_site"]
    bad = write_json(tmp_path / "bad.json", data)
    error = f"bad schedule file {bad}: attachment spec missing field 'attached_site'"
    return ["verify", "--schedule", bad], error


def _lattice_spec_refused_by_its_checks(tmp_path, capsys):
    spec = write_json(tmp_path / "wen.json", {"rows": 1, "cols": 3})
    path = write_json(tmp_path / "path.json", {"sites": [[0, 0]], "letters": "X"})
    error = f"bad lattice spec {spec}: lattice needs rows, cols >= 2, got 1x3"
    return ["anyon", "syndrome", "--spec", spec, "--path", path], error


def _path_refused_by_its_checks(tmp_path, capsys):
    spec = write_json(tmp_path / "wen.json", {"rows": 3, "cols": 3})
    path = write_json(tmp_path / "path.json", {"sites": [[0, 0]], "letters": "XZ"})
    error = f"bad path file {path}: path needs one letter per site"
    return ["anyon", "syndrome", "--spec", spec, "--path", path], error


@pytest.mark.parametrize("make_case", [
    _coupling("abc"), _coupling(True), _coupling("1.5"),
    _seed_angle("abc"), _seed_angle(True), _seed_angle("1.5"),
    _lattice_spec_refused_by_its_checks, _path_refused_by_its_checks,
    _lattice_text("boundary", "boundary must be one of ('open', 'periodic'), got True"),
    _lattice_text("model", "model must be one of ('wen', 'kitaev_holes'), got True"),
    _lattice_text("kind", "hole kind must be one of ('smooth', 'rough'), got True"),
    _pulse_text("XZZX", _attachment, "alpha"), _pulse_text("XZZX", _attachment, "beta"),
    _pulse_text("XZZX", _attachment, "attached_letter"),
    _pulse_text("XZY", _swapper, "alpha"), _pulse_text("XZY", _swapper, "beta"),
    _attachment_without_attached_site,
], ids=["coupling", "coupling-true", "coupling-string", "seed-angle", "seed-angle-true",
        "seed-angle-string", "lattice-checks", "path-checks", "boundary-true", "model-true",
        "hole-kind-true", "attachment-alpha-true", "attachment-beta-true",
        "attached-letter-true", "swapper-alpha-true", "swapper-beta-true",
        "attachment-without-attached-site"])
def test_a_refused_input_file_is_named_with_its_field(tmp_path, capsys, make_case):
    argv, error = make_case(tmp_path, capsys)
    code, out = run_cli(capsys, argv)
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == f"CliInputError: {error}"


def test_anyon_syndrome_refuses_a_bad_hole(tmp_path, capsys):
    # the hole is checked where the lattice is built, not in the spec file
    spec = {"rows": 4, "cols": 4, "holes": [{"plaquettes": [[3, 0]]}]}
    spec = write_json(tmp_path / "wen.json", spec)
    path = write_json(tmp_path / "path.json", {"sites": [[2, 2]], "letters": "Z"})
    code, out = run_cli(capsys, ["anyon", "syndrome", "--spec", spec, "--path", path])
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == "LatticeError: hole plaquette (3, 0) out of range"


def test_a_braid_center_needs_two_entries(tmp_path, capsys):
    spec = write_json(tmp_path / "wen.json", {"rows": 4, "cols": 4})
    payload = write_json(tmp_path / "braid.json", {"center": [1, 1, 7]})
    code, out = run_cli(capsys, ["anyon", "braid", "--spec", spec, "--path", payload])
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == (
        f"CliInputError: bad path file {payload}: center must hold two entries, got [1, 1, 7]"
    )


def _payload_case(action, spec, payload, error):
    def make(tmp_path):
        spec_file = write_json(tmp_path / "spec.json", spec)
        path = write_json(tmp_path / "payload.json", payload)
        argv = ["anyon", action, "--spec", spec_file, "--path", path]
        return argv, f"CliInputError: bad path file {path}: {error}"
    return make


def _three_entry_plaquette(tmp_path):
    spec = {"rows": 4, "cols": 4, "holes": [{"plaquettes": [[1, 0, 2]]}]}
    spec = write_json(tmp_path / "spec.json", spec)
    path = write_json(tmp_path / "payload.json", {"sites": [[2, 2]], "letters": "Z"})
    argv = ["anyon", "syndrome", "--spec", spec, "--path", path]
    error = f"bad lattice spec {spec}: plaquettes must hold two entries, got [1, 0, 2]"
    return argv, f"CliInputError: {error}"


WEN44 = {"rows": 4, "cols": 4}


@pytest.mark.parametrize("make_case", [
    _payload_case("magic", HOLES_SPEC, {"hole": 0.9},
                  "hole: 'float' object cannot be interpreted as an integer"),
    _payload_case("braid", WEN44, {"center": 3}, "center must hold two entries, got 3"),
    _payload_case("memory", {"rows": 4, "cols": 4, "boundary": "periodic"},
                  {"amplitudes": [1, 0, 0]}, "amplitudes must hold four entries, got [1, 0, 0]"),
    _payload_case("memory", {"rows": 4, "cols": 4, "boundary": "periodic"},
                  {"amplitudes": [1, [0, True], 0, 0]},
                  "amplitudes[1][1]: expected a JSON number, got True"),
    _payload_case("magic", HOLES_SPEC, {"theta": "abc"},
                  "theta: expected a JSON number, got 'abc'"),
    _payload_case("magic", HOLES_SPEC, {"theta": True}, "theta: expected a JSON number, got True"),
    _payload_case("magic", HOLES_SPEC, {"theta": "1.5"},
                  "theta: expected a JSON number, got '1.5'"),
    _payload_case("cnot", HOLES_SPEC, {"control": 2},
                  "control: index 2 out of range: spec defines 2 hole(s)"),
    _payload_case("syndrome", WEN44, {"sites": [[0, 0, 1]], "letters": "X"},
                  "sites must hold two entries, got [0, 0, 1]"),
    _three_entry_plaquette,
    _payload_case("syndrome", WEN44, {"sites": [[0, 0]], "letters": [True]},
                  "invalid path letter True"),
], ids=["fractional-hole", "center", "three-amplitudes", "true-amplitude", "non-numeric-theta",
        "true-theta", "string-theta", "control-out-of-range", "three-entry-site",
        "three-entry-plaquette", "true-letter"])
def test_a_refused_payload_value_names_the_file_and_the_field(tmp_path, capsys, make_case):
    argv, error = make_case(tmp_path)
    code, out = run_cli(capsys, argv)
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == error


def test_a_hole_index_without_a_payload_names_only_the_field(tmp_path, capsys):
    # the default hole index 0 reads no file, so no file is blamed
    spec = write_json(tmp_path / "wen.json", {"rows": 3, "cols": 4, "model": "kitaev_holes"})
    code, out = run_cli(capsys, ["anyon", "magic", "--spec", spec])
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == "CliInputError: hole: index 0 out of range: spec defines 0 hole(s)"


def test_anyon_memory_projects_the_ground_state_once(tmp_path, capsys, dense16, monkeypatch):
    # memory_encode rotates the ground state memory_basis built
    calls = []

    def counted(spec):
        calls.append(spec)
        return toric_lattice.ground_state_projector(spec)

    monkeypatch.setattr(anyon_logic, "ground_state_projector", counted)
    spec = write_json(tmp_path / "torus44.json", {"rows": 4, "cols": 4, "boundary": "periodic"})
    code, out = run_cli(capsys, ["anyon", "memory", "--spec", spec])
    assert code == 0 and strict_json(out)["status"] == "pass"
    assert len(calls) == 1


def test_anyon_memory_refuses_a_torus_whose_loops_do_not_close(tmp_path, capsys):
    spec = write_json(tmp_path / "torus24.json", {"rows": 2, "cols": 4, "boundary": "periodic"})
    code, out = run_cli(capsys, ["anyon", "memory", "--spec", spec])
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == "PathError: memory loop paths must be closed"


@pytest.mark.parametrize("command", ["compile", "verify"])
@pytest.mark.parametrize("edge, message", [
    ([0, 0], "self-loop in edge list"),
    ([0, 5], "bad edge (0, 5) for 4 sites"),
], ids=["self-loop", "off-register"])
def test_a_bad_graph_edge_names_the_file(tmp_path, capsys, command, edge, message):
    edges = [[a, a + 1] for a in range(3)] + [edge]
    graph = write_json(tmp_path / "graph.json", {"n_sites": 4, "edges": edges})
    argv = PLAQUETTE_ARGS + ["--graph", graph]
    if command == "verify":
        schedule = str(tmp_path / "plaquette.json")
        assert run_cli(capsys, PLAQUETTE_ARGS + ["--out", schedule])[0] == 0
        argv = ["verify", "--schedule", schedule, "--graph", graph]
    code, out = run_cli(capsys, argv)
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == f"CliInputError: bad graph file {graph}: {message}"


@pytest.mark.parametrize("edges, shown", [
    ({"a": 1}, "'a'"), ([[0]], "[0]"), ([[0, 1, 2]], "[0, 1, 2]"),
], ids=["object", "one-entry", "three-entries"])
def test_a_graph_edge_that_is_not_a_pair_names_the_file(tmp_path, capsys, edges, shown):
    graph = write_json(tmp_path / "graph.json", {"n_sites": 4, "edges": edges})
    code, out = run_cli(capsys, PLAQUETTE_ARGS + ["--graph", graph])
    report = strict_json(out)
    assert code == 2 and report["status"] == "malformed-input"
    assert report["error"] == (
        f"CliInputError: bad graph file {graph}: edges must hold two entries, got {shown}"
    )
