"""session2rec benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload listing_embed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Inputs are made from ``--seed``, set up five times
(the median is ``setup_s``), then whole rounds of the workload run until
``--seconds`` is used up and each end-to-end metric is the median over
rounds.  Every round's outputs are checked; ``failed`` counts failed
operations and failed checks out of ``attempted``.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones; spans go to
``.perfbench_work/results/<workload>-seed<n>.spans.jsonl``.  Generated
inputs live under ``.perfbench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 5
BLAS_THREADS = 1  # single-threaded kernels: steadier, and at most nproc
WORKLOAD_NAMES = ("listing_embed", "traveler_train", "lookup")


def _import_program():
    """Import session2rec from this checkout only, never from site-packages."""
    src = ROOT / "src"
    if not (src / "session2rec" / "__init__.py").is_file():
        raise ImportError(f"no session2rec sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import session2rec

    if Path(session2rec.__file__).resolve().parent != (src / "session2rec").resolve():
        raise ImportError(f"session2rec resolved to {session2rec.__file__}, not {src}")


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _l2_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except OSError:
            return None
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode; the record says so
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "seed": seed,
        "l2_bytes": _l2_bytes(),
    }


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_rounds(workload, seconds: float, trace: bool, tracing, modules):
    """Run whole rounds until the time is used; traced rounds alternate with untraced ones."""
    tracer = tracing.Tracer(modules) if trace else None
    rounds, errors = [], []
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        try:
            if traced:
                tracer.run_id = f"{workload.name}-{workload.seed}-round{len(rounds)}"
                with tracer:
                    result = workload.timed()
            else:
                result = workload.timed()
            result = workload.check(result)
        except Exception:  # a round that raises counts as failed; later rounds would repeat it
            errors.append(traceback.format_exc())
            break
        result["traced"] = traced
        errors += result.pop("errors", [])
        rounds.append(result)
        elapsed = time.perf_counter() - started
        enough = not trace or len(rounds) >= 2
        if enough and elapsed + 0.5 * statistics.median(r["wall_s"] for r in rounds) > seconds:
            break
    return rounds, errors, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads
    from session2rec import cli, coldstart, corpus, evaluation, neural, skipgram, traveler

    modules = {
        "cli": cli, "corpus": corpus, "skipgram": skipgram, "coldstart": coldstart,
        "neural": neural, "traveler": traveler, "evaluation": evaluation,
    }
    workload = workloads.WORKLOADS[name](seed)
    run_dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for k in range(SETUPS):
            directory = run_dir / f"setup{k}"
            directory.mkdir(parents=True)
            began = time.perf_counter()
            workload.setup(directory)
            setup_times.append(time.perf_counter() - began)
        rounds, errors, tracer = run_rounds(workload, seconds, trace, tracing, modules)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    checks = {}
    for r in rounds:
        for check, ok in r["checks"].items():
            checks.setdefault(check, []).append(ok)
    attempted = len(rounds) * workload.ops_per_round + sum(len(v) for v in checks.values()) + len(errors)
    failed = sum(r["failed_ops"] for r in rounds) + sum(v.count(False) for v in checks.values()) + len(errors)

    def median(key, subset=untraced):
        return statistics.median(r[key] for r in subset) if subset else float("nan")

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (median("wall_s"), "s"),
        "throughput_per_s": (median("throughput_per_s"), "1/s"),
        "quality": (median("quality"), "score"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    named = {}
    if untraced:
        for key, (_, unit) in untraced[0]["named"].items():
            named[key] = (statistics.median(r["named"][key][0] for r in untraced), unit)
    latencies = [x for r in untraced for x in r.get("latencies", ())]
    if latencies:
        named["lookup_p50_us"] = (1e6 * _percentile(latencies, 0.50), "us")
        named["lookup_p99_us"] = (1e6 * _percentile(latencies, 0.99), "us")
        named["latency_samples"] = (len(latencies), "count")

    per_layer = {}
    if trace and traced:
        per_layer = tracing.layer_metrics(tracer, len(traced))
        timed_s = sum(r["wall_s"] for r in traced)
        summary = workload.summary
        per_layer.update({
            "corpus.sessions": float(summary["sessions"]),
            "corpus.views": float(summary["views"]),
            "corpus.oov_views": float(summary["oov_views"]),
            "bench.self_s": (timed_s - tracer.covered_s) / len(traced),
            "trace.coverage": tracer.covered_s / timed_s,
            "trace.overhead_s": median("wall_s", traced) - median("wall_s"),
            "trace.spans": len(tracer.spans) / len(traced),
        })
        coverage_ok = per_layer["trace.coverage"] >= 0.95
        attempted += 1
        failed += int(not coverage_ok)
        checks["trace_coverage_at_least_0.95"] = [coverage_ok]
        tracing.write_spans(tracer, results_dir / f"{name}-seed{seed}.spans.jsonl")

    record = {
        "workload": name,
        "environment": environment(seed),
        "loop": "closed, one client",
        "inputs": workload.summary,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "setup_times_s": setup_times,
        "round_wall_s": [(r["wall_s"], "traced" if r["traced"] else "untraced") for r in rounds],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "error_rate": {"value": failed / max(attempted, 1), "failed": failed, "attempted": attempted},
        "checks": checks,
        "fingerprints": rounds[-1]["fingerprints"] if rounds else {},
        "fingerprints_stable": len({json.dumps(r["fingerprints"], sort_keys=True) for r in rounds}) <= 1,
        "errors": errors,
    }
    if per_layer:
        self_total = sum(per_layer[f"{layer}.self_s"] for layer in tracing.LAYERS) + per_layer["bench.self_s"]
        record["self_time_share"] = {
            layer: per_layer[f"{layer}.self_s"] / self_total for layer in (*tracing.LAYERS, "bench")
        }
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    for label, table in (("end-to-end", end_to_end), ("workload", named)):
        for key, (value, unit) in table.items():
            print(f"{name} {label} {key} = {value:.6g} {unit}")
    print(f"{name} error_rate = {record['error_rate']['value']:.6g} ({failed} of {attempted})")
    if per_layer:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["self_time_share"].items())
        print(f"{name} self time per layer: {shares}")
    for error in errors:
        print(error, file=sys.stderr)
    print("record " + json.dumps(record))

    metrics = per_layer if trace else {k: v for k, (v, _) in end_to_end.items()}
    units = tracing.PER_LAYER_UNITS if trace else {k: u for k, (_, u) in end_to_end.items()}
    print(json.dumps({
        "correct": failed == 0 and bool(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("record "):
                print(line)
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
