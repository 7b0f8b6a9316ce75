"""Every example script must run end-to-end (they are documentation)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"


def test_expected_example_set():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "matmul_cluster",
        "adaptive_migration",
        "fault_tolerance_demo",
        "persistent_objects",
        "widearea_grid",
    } <= names


def test_quickstart_output_mentions_key_steps():
    result = subprocess.run(
        [sys.executable, "examples/quickstart.py"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(__file__).parent.parent,
    )
    for marker in ["registered", "cluster nodes", "hello world",
                   "unregistered cleanly"]:
        assert marker in result.stdout
