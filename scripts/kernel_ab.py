#!/usr/bin/env python3
"""Time hot kernels of two source trees against each other in one process.

Both checkouts' ``src/session2rec`` are imported side by side under two
package names (the package imports itself only relatively), so the two
trees share one interpreter, one heap and one host phase.  Each kernel
builds its inputs once per tree from a fixed seed, then runs round by
round, the parent first in even rounds and the change first in odd ones,
until ``--seconds`` are used up (one round at least).  Every call's result
is hashed; every call of both trees must return the same bits.

Kernels (the shape of perfbench's ``listing_embed`` unless named):

* ``sgns_step dense``: 20 consecutive batches of 128 pairs with 5
  negatives on a 300 x 32 table, which takes the dense scatter;
* ``sgns_step sparse``: the same on a 20000 x 32 table, which takes the
  ``np.unique`` scatter;
* ``window pairs + negatives``: ``_window_pairs`` over every view, window
  3, then ``negative_sample`` of 5 per pair;
* ``train_embeddings``: the 5-epoch, d = 32 training of ``listing_embed``.

For each kernel it prints both trees' median time and IQR (as a share of
the median), the change/parent ratio of the medians and the rounds the
change was faster in.  It gates nothing and exits 1 only when a kernel's
bits differ; a speed claim still needs perfbench's alternating pairs.
``--out`` also writes every round's times as JSON.  One BLAS thread is
used, as in perfbench.

usage: scripts/kernel_ab.py <parent> <change> [--seconds S] [--out FILE]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread count is fixed)

SEED = 1
# perfbench's listing_embed: generated log, vocabulary and skip-gram config
LISTING_EMBED = {"n_listings": 300, "n_clusters": 10, "n_travelers": 3000, "mean_session_len": 8,
                 "booking_base_rate": 0.3}
MIN_COUNT, DIM, EPOCHS, WINDOW, NEGATIVES, BATCH = 5, 32, 5, 3, 5, 128
STEPS = 20  # sgns_step batches per timed call


def load_tree(checkout: Path, name: str):
    """Import ``<checkout>/src/session2rec`` as the package ``name``."""
    package = checkout / "src" / "session2rec"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no session2rec sources under {checkout / 'src'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def listing_embed_corpus(pkg):
    corpus, _ = pkg.corpus.generate_synthetic(pkg.corpus.SyntheticConfig(**LISTING_EMBED, seed=SEED))
    return corpus, pkg.corpus.build_vocabulary(corpus, MIN_COUNT)


def sgns_steps(vocab_size: int):
    """STEPS consecutive ``sgns_step`` batches on fresh copies of one table."""

    def build(pkg):
        rng = np.random.default_rng(SEED)
        inp, out = rng.normal(0.0, 0.1, size=(2, vocab_size, DIM))
        centers, contexts = rng.integers(0, vocab_size, size=(2, STEPS, BATCH), dtype=np.int32)
        negatives = rng.integers(0, vocab_size, size=(STEPS, BATCH, NEGATIVES), dtype=np.int32)
        rates = np.linspace(0.025, 0.0001, STEPS * BATCH).reshape(STEPS, BATCH)

        def prepare():
            table = pkg.skipgram.EmbeddingTable(inp.copy(), out.copy())

            def run():
                losses = [
                    pkg.skipgram.sgns_step(*batch, table, rate)
                    for *batch, rate in zip(centers, contexts, negatives, rates)
                ]
                return table.input_vectors, table.output_vectors, np.array(losses)

            return run

        return prepare

    return build


def window_pairs_and_negatives(pkg):
    corpus, vocabulary = listing_embed_corpus(pkg)
    views, session_ids = pkg.skipgram._session_views(corpus, vocabulary)

    def prepare():
        rng = np.random.default_rng(SEED)

        def run():
            pairs = pkg.skipgram._window_pairs(views, session_ids, WINDOW)
            return pairs, pkg.skipgram.negative_sample(pairs[:, 1], len(vocabulary), NEGATIVES, rng)

        return run

    return prepare


def train_embeddings(pkg):
    corpus, vocabulary = listing_embed_corpus(pkg)
    config = pkg.skipgram.SkipgramConfig(dim=DIM, epochs=EPOCHS, seed=SEED)

    def run():
        table, losses = pkg.skipgram.train_embeddings(corpus, vocabulary, config)
        return table.input_vectors, table.output_vectors, np.array(losses)

    return lambda: run


KERNELS = {
    "sgns_step dense": sgns_steps(300),
    "sgns_step sparse": sgns_steps(20000),
    "window pairs + negatives": window_pairs_and_negatives,
    "train_embeddings": train_embeddings,
}


def digest(arrays) -> str:
    """sha256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def timed_call(prepare) -> tuple[float, str]:
    run = prepare()
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, digest(result)


def compare(trees, build, seconds: float) -> dict:
    """Alternate the trees' calls of one kernel; returns times and bit checks."""
    prepares = [build(pkg) for pkg in trees]
    times, digests = ([], []), set()
    deadline = time.perf_counter() + seconds
    while not times[0] or time.perf_counter() < deadline:
        for side in (0, 1) if len(times[0]) % 2 == 0 else (1, 0):
            elapsed, got = timed_call(prepares[side])
            times[side].append(elapsed)
            digests.add(got)
    return {"parent_s": times[0], "change_s": times[1], "bits_equal": len(digests) == 1}


def summary(runs) -> tuple[float, float]:
    """(median, IQR as a share of the median)."""
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return float(median), float((q3 - q1) / median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="timed rounds per kernel run until this is used up (at least one)")
    parser.add_argument("--out", type=Path, help="also write every round's times here as JSON")
    args = parser.parse_args(argv)
    trees = [load_tree(args.parent.resolve(), "kernel_ab_parent"),
             load_tree(args.change.resolve(), "kernel_ab_change")]
    print(f"{'kernel':<26} {'parent median (IQR)':>21} {'change median (IQR)':>21} "
          f"{'ratio':>6} {'wins':>9}  bits")
    results = {}
    for name, build in KERNELS.items():
        result = results[name] = compare(trees, build, args.seconds)
        (p_med, p_iqr), (c_med, c_iqr) = summary(result["parent_s"]), summary(result["change_s"])
        wins = sum(c < p for p, c in zip(result["parent_s"], result["change_s"]))
        result.update(ratio=c_med / p_med, change_wins=wins)
        print(f"{name:<26} {p_med * 1e3:>10.3f} ms ({p_iqr:>5.1%}) {c_med * 1e3:>10.3f} ms ({c_iqr:>5.1%}) "
              f"{c_med / p_med:>6.3f} {wins:>4}/{len(result['parent_s']):<4}  "
              f"{'equal' if result['bits_equal'] else 'DIFFER'}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all(r["bits_equal"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
