"""Demos 02 and 03 print the same neighbours, destinations and beliefs as
the text captured in ``tests/data``.  Both are deterministic; each runs in
its own interpreter, as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["02_listing_embeddings", "03_cold_start"])
def test_demo_prints_the_captured_text(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "data" / f"demo_{demo}.txt").read_text(encoding="utf-8")
