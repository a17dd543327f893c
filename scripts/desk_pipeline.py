#!/usr/bin/env python3
"""Time one desk-scale ``session2rec pipeline`` run and report its peak memory.

The run uses the default config (1000 listings, 10k travelers, d = 32,
settings ``handcrafted`` and ``dan``) at seed 1, as a child process in a
fresh temporary directory.  It prints the child's wall time and peak
resident set size (``resource.RUSAGE_CHILDREN``, KiB on Linux, printed as
MB = KiB / 1024 like perfbench's ``peak_rss_mb``); it compares nothing.

usage: scripts/desk_pipeline.py [<checkout>]   (default: this checkout)
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def main() -> None:
    checkout = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    path = [str(checkout / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "config.json").write_text('{"seed": 1}\n')
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "session2rec", "--config", "config.json", "pipeline"],
            cwd=directory, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"desk-scale pipeline, seed 1: wall {wall:.2f} s, peak RSS {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
