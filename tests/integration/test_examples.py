"""Every example must run clean — examples rot unless executed.

Each script is run in a subprocess (its own interpreter, like a user
would) with the repo's source on the path; a non-zero exit or traceback
fails the test. Arguments are chosen small where the script accepts
them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
EXAMPLES = REPO / "examples"


def _env_with_src() -> dict:
    """Subprocess env with the repo's src on PYTHONPATH, absolutely.

    The suite is usually invoked with a *relative* ``PYTHONPATH=src``,
    which stops resolving once the subprocess runs from ``tmp_path``.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + existing if existing else ""
    )
    return env

#: script → argv tail (kept small for test speed).
CASES = {
    "quickstart.py": [],
    "paper_figures.py": [],
    "sequence_alignment.py": ["96", "96"],
    "sorting_beyond_one_block.py": ["12"],
    "parallel_scan.py": ["11"],
    "deadlock_demo.py": [],
    "custom_kernel.py": [],
    "custom_barrier.py": [],
    "multi_gpu.py": [],
    "chaos_recovery.py": [],
}


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(CASES), (
        "examples changed; update tests/integration/test_examples.py"
    )


@pytest.mark.parametrize("script", sorted(CASES))
def test_example_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *CASES[script]],
        capture_output=True,
        text=True,
        cwd=tmp_path,  # scripts must not depend on the repo cwd
        env=_env_with_src(),
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{result.stdout}"
        f"\n--- stderr ---\n{result.stderr}"
    )
    assert "Traceback" not in result.stderr
    assert result.stdout.strip(), f"{script} printed nothing"
