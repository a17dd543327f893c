"""Every demo exits 0, each in its own interpreter, as a user would run it.
Demos 02 and 03 are deterministic and print the same neighbours,
destinations and beliefs as the text captured in ``tests/data``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CAPTURED = ["02_listing_embeddings", "03_cold_start"]
UNCAPTURED = sorted({path.stem for path in (ROOT / "demos").glob("*.py")} - set(CAPTURED))


def run_demo(demo: str) -> str:
    """The demo's stdout; fails the test unless it exits 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("demo", CAPTURED)
def test_demo_prints_the_captured_text(demo):
    assert run_demo(demo) == (ROOT / "tests" / "data" / f"demo_{demo}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", UNCAPTURED)
def test_demo_exits_zero(demo):
    run_demo(demo)
