"""Tests of the benchmark itself: tiny runs, and planted wrong answers.

Run from the repository root:

    python3 -m pytest bench/tests -q

Each planted case takes the real first-pass outputs of a tiny batch, corrupts
one report or artifact, and requires the benchmark's checks to reject it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {"setup_s", "ops_per_s", "op_geomean_s", "peak_rss_mb",
              "pulses_per_schedule", "depth_per_schedule"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_is_correct(workload, tmp_path):
    result = result_of(bench("--workload", workload, "--trace", "0", "--size", "tiny"))
    run.import_cli()
    n_ops = len(inputs.make_batch(workload, 7, str(tmp_path), "tiny").ops)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * n_ops and result["attempted"] % n_ops == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = result_of(bench("--workload", "compile-symbolic", "--trace", "1", "--size", "tiny"))
    assert result["correct"] is True
    names = [name for name, _ in tracing.metric_specs()]
    assert sorted(result["metrics"]) == sorted(names)
    dense_calls = [n for n in names if n.startswith("dense_oracle.") and n.endswith(".calls")]
    assert dense_calls and all(result["metrics"][n]["value"] == 0 for n in dense_calls)
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert result["metrics"]["schedule_compiler.compile_schedule.calls"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_specs()


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "compile-symbolic", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scaling_uses_the_local_kernel_median():
    ref = (hostspeed.REFERENCE_PYTHON_S, hostspeed.REFERENCE_ARRAY_S)
    slow = (2 * ref[0], 2 * ref[1])
    # a host twice as slow doubles both the operation and the kernel time
    assert hostspeed.scaled([0.4, 0.8], [slow] * 3, 0.5) == pytest.approx([0.2, 0.4])
    # each half counts with its weight
    python_slow = (4 * ref[0], ref[1])
    assert hostspeed.scaled([1.0], [python_slow] * 2, 0.5) == pytest.approx([0.5])
    assert hostspeed.scaled([1.0], [python_slow] * 2, 0.0) == pytest.approx([1.0])
    # one slow kernel sample next to an operation does not move its scale
    kernel = [ref, ref, (5 * ref[0], 5 * ref[1]), ref, ref]
    assert hostspeed.scaled([1.0] * 4, kernel, 0.75) == pytest.approx([1.0] * 4)
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0], [ref], 0.5)
    python_s, array_s = hostspeed.calibrate()
    assert python_s > 0 and array_s > 0


# -- planted wrong answers ---------------------------------------------------------


def first_pass(workload, tmp_path, monkeypatch):
    """The batch and its first-pass outputs, as the runner records them."""
    cli = run.import_cli()
    batch = inputs.make_batch(workload, 3, str(tmp_path), "tiny")
    for key, value in batch.env.items():
        if value is None:
            monkeypatch.delenv(key, raising=False)
        else:
            monkeypatch.setenv(key, value)
    first = {}
    for op in batch.ops:
        rc, text, _ = run.run_op(cli, op)
        first[op.name] = (rc, text, Path(op.out).read_bytes() if op.out else None)
    return batch, first


def edit_report(first, name, change):
    rc, text, artifact = first[name]
    report = json.loads(text)
    change(report)
    first[name] = (rc, json.dumps(report), artifact)


def edit_artifact(first, name, change):
    rc, text, artifact = first[name]
    schedule = json.loads(artifact)
    change(schedule)
    first[name] = (rc, text, json.dumps(schedule).encode())


def op_named(batch, prefix):
    return next(op.name for op in batch.ops if op.kind.startswith(prefix))


def attach_onto_grown_site(batch, first):
    name = op_named(batch, "compile/doubling")

    def change(schedule):
        spec = schedule["layers"][-1][-1]
        spec["attached_site"] = spec["connector_site"] = schedule["layers"][0][0]["connector_site"]

    edit_artifact(first, name, change)
    return name


def drop_a_swapper(batch, first):
    name = op_named(batch, "compile/line_endpoints")
    edit_artifact(first, name, lambda s: s["final_swappers"].pop())
    return name


def raise_dense_distance(batch, first):
    name = op_named(batch, "verify/probes")
    edit_report(first, name, lambda r: r["metrics"].update(dense_distance=1e-6))
    return name


def pass_a_planted_defect(batch, first):
    name = next(op.name for op in batch.ops if op.expect_rc == 1)
    edit_report(first, name, lambda r: r.update(status="pass"))
    return name


def bend_error_slope(batch, first):
    name = op_named(batch, "analyze/error-scaling")
    edit_report(first, name, lambda r: r["metrics"]["distances"].reverse())
    return name


def shrink_a_group(batch, first):
    name = op_named(batch, "toric/build")

    def change(report):
        sizes = report["metrics"]["group_sizes"]
        sizes["1"] -= 1
        report["metrics"]["n_terms"] -= 1

    edit_report(first, name, change)
    return name


def hide_an_anyon(batch, first):
    name = op_named(batch, "anyon/syndrome")
    edit_report(first, name, lambda r: r["metrics"]["syndrome"]["entries"].pop())
    return name


def flip_braiding_phase(batch, first):
    name = op_named(batch, "anyon/braid")
    edit_report(first, name, lambda r: r["metrics"].update(braiding_phase=1.0))
    return name


PLANTED = {
    "compile-symbolic": (attach_onto_grown_site, drop_a_swapper),
    "verify-dense": (raise_dense_distance, pass_a_planted_defect, bend_error_slope),
    "lattice-anyon": (shrink_a_group, hide_an_anyon, flip_braiding_phase),
}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_checks_reject_planted_wrong_answers(workload, tmp_path, monkeypatch):
    batch, first = first_pass(workload, tmp_path, monkeypatch)
    errors, sizes = run.check_outputs(batch, first)
    assert errors == [] and sizes
    for plant in PLANTED[workload]:
        corrupted = dict(first)
        name = plant(batch, corrupted)
        errors, _ = run.check_outputs(batch, corrupted)
        assert errors and all(e.startswith(f"{name}: ") for e in errors), plant.__name__


def test_kron_oracle_rejects_a_wrong_target():
    schedule = {
        "n_sites": 3, "seed": {"string": "XXI", "tg": 0.4},
        "layers": [[{"connector_site": 1, "alpha": "Z", "beta": "X", "attached_site": 2,
                     "attached_letter": "X", "branch_m": -1, "branch_mp": 0}]],
        "final_swappers": [], "target": "XZX",
    }
    assert checks.kron_schedule_distance(schedule) < 1e-12
    schedule["target"] = "XXX"
    assert checks.kron_schedule_distance(schedule) > 0.1


def test_digital_unitary_check_rejects_a_perturbed_unitary():
    spec, tau = {"rows": 2, "cols": 3}, 0.3
    import scipy.linalg

    exact = scipy.linalg.expm(-1j * tau * checks.wen_hamiltonian(spec))
    assert checks.check_digital_unitary(spec, tau, exact) == []
    assert checks.check_digital_unitary(spec, tau, exact * np.exp(1e-6j)) != []
