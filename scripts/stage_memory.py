#!/usr/bin/env python3
"""Traced memory per stage of one desk-scale ``session2rec pipeline`` run.

The run uses the default config (1000 listings, 10k travelers, d = 32,
settings ``handcrafted`` and ``dan``) at seed 1, in this process, in a fresh
temporary directory, under ``tracemalloc``.  Each ``cli`` stage that
``pipeline`` chains (``generate``, ``train_embeddings``, ``coldstart``,
``_cases``, ``train_traveler``, ``evaluate``) is wrapped for the run: the
traced peak is reset as the stage starts, and the script prints the MB the
process holds when the stage returns and the stage's peak (MB = 2**20
bytes).  Only Python-level allocations are traced, numpy buffers included;
tracing slows the run down.  It compares nothing.

usage: scripts/stage_memory.py [<checkout>]   (default: this checkout)
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

STAGES = ("generate", "train_embeddings", "coldstart", "_cases", "train_traveler", "evaluate")


def main() -> None:
    checkout = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
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
        Path(directory, "config.json").write_text('{"seed": 1}\n')
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


if __name__ == "__main__":
    main()
