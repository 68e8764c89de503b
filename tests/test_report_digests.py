"""``tools/report_digests.py`` prints the same lines on every run of one checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_two_runs_print_equal_lines_with_the_expected_exit_codes(tmp_path):
    argv = ["tools/report_digests.py", "--seeds", "1", "--workloads", "verify-dense",
            "--size", "tiny", "--workdir", str(tmp_path)]
    first, second = run(*argv), run(*argv)
    assert first == second
    expected = json.loads(run("-c", (
        "import json, sys; sys.path[:0] = ['bench', 'src']; import inputs; "
        f"batch = inputs.make_batch('verify-dense', 1, {str(tmp_path / 'verify-dense-1')!r}, 'tiny'); "
        "print(json.dumps({op.name: op.expect_rc for op in batch.ops}))"
    )))
    lines = [line.split() for line in first.splitlines()]
    assert [fields[:4] for fields in lines] == [
        ["verify-dense", "1", name, str(code)] for name, code in expected.items()
    ]
    assert {1, 0} <= set(expected.values())
