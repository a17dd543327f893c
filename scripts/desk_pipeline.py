#!/usr/bin/env python3
"""Time one desk-scale ``session2rec pipeline`` run, report its peak memory,
then trace the memory of each of its stages in a second run.

Both runs use the default config (1000 listings, 10k travelers, d = 32,
settings ``handcrafted`` and ``dan``) at seed 1, each in a fresh temporary
directory.

* The first runs as a child process.  The script prints the child's wall
  time and peak resident set size (``resource.RUSAGE_CHILDREN``, KiB on
  Linux, printed as MB = KiB / 1024 like perfbench's ``peak_rss_mb``).  It
  runs first, while this process is small: a child started from a process
  that already ran the pipeline counts the parent's pages in its peak.
* The second runs in this process under ``tracemalloc``.  Each ``cli`` stage
  that ``pipeline`` chains (``generate``, ``train_embeddings``,
  ``coldstart``, ``_cases``, ``train_traveler``, ``evaluate``) is wrapped
  for the run: the traced peak is reset as the stage starts, and the script
  prints the MB the process holds when the stage returns and the stage's
  peak (MB = 2**20 bytes).  Only Python-level allocations are traced, numpy
  buffers and modules first imported during the run included; tracing slows
  the run down, so it is not timed.

It compares nothing.

usage: scripts/desk_pipeline.py [<checkout>]   (default: this checkout)
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

CONFIG = '{"seed": 1}\n'
STAGES = ("generate", "train_embeddings", "coldstart", "_cases", "train_traveler", "evaluate")


def timed_run(checkout: Path) -> None:
    """Run ``pipeline`` in a child process; print its wall time and peak RSS."""
    path = [str(checkout / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "config.json").write_text(CONFIG)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "session2rec", "--config", "config.json", "pipeline"],
            cwd=directory, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"desk-scale pipeline, seed 1: wall {wall:.2f} s, peak RSS {peak_mb:.1f} MB")


def traced_run(checkout: Path) -> None:
    """Run ``pipeline`` in this process under tracemalloc; print the MB each
    stage holds when it returns and its peak."""
    sys.path.insert(0, str(checkout / "src"))
    from session2rec import cli

    measured = []

    def traced(name, stage):
        @functools.wraps(stage)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            result = stage(*args, **kwargs)
            measured.append((name, *tracemalloc.get_traced_memory()))
            return result

        return wrapper

    for name in STAGES:
        setattr(cli, name, traced(name, getattr(cli, name)))
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "config.json").write_text(CONFIG)
        os.chdir(directory)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", "config.json", "pipeline"])
        finally:
            tracemalloc.stop()
            os.chdir(start)
    if code:
        raise SystemExit(f"pipeline exited {code}")
    print("desk-scale pipeline, seed 1: traced memory per stage")
    print(f"{'stage':<18} {'holds after':>12} {'peak':>8}")
    for name, current, peak in measured:
        print(f"{name:<18} {current / 2**20:>9.1f} MB {peak / 2**20:>5.1f} MB")


def main() -> None:
    checkout = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    timed_run(checkout)
    traced_run(checkout)


if __name__ == "__main__":
    main()
