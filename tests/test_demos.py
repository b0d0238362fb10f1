"""Each demo script runs to completion, in a fresh interpreter.

The demos import the engine's internals (demo 03 the left stream among
them), so a renamed or re-signed internal fails here. Each runs under
``-X dev -W error``: a leaked pipe or process (demo 05 runs the bench
harness) or a deprecation warning fails the test, not only an exception.
A warning raised in a finalizer, as a leak's ``ResourceWarning`` is, only
prints "Exception ignored" and leaves the exit code 0, so stderr must be
empty too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bandrec

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    # An empty glob would leave test_demo_runs with no cases at all.
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(bandrec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
