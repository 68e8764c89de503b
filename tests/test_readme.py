"""The Python examples of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_holds_the_quick_start_and_toric_code_examples():
    assert len(BLOCKS) == 3
    assert "schedule_unitary" in BLOCKS[0] and "digital_sequence" in BLOCKS[1]
    assert "hole_logicals" in BLOCKS[2] and "memory_qubits" in BLOCKS[2]


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
