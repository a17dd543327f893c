"""Spans around the public calls of every session2rec module, from outside.

A :class:`Tracer` replaces module attributes with timing wrappers while it is
active and restores them afterwards, so untraced rounds run the program
unchanged.  Each wrapper sits on the name the caller resolves: ``traveler``
imports ``dense_forward``/``dense_backward`` by bare name, so those are
wrapped in ``session2rec.traveler`` as well as in ``session2rec.neural``;
``skipgram.train_embeddings`` looks ``sgns_step`` up in its module globals.

Calls made hundreds of thousands of times per round (``AGGREGATED``) get a
count, a total and a self time instead of one span per call.  Every other
wrapped call becomes a span ``(id, name, attrs, start, end, parent, run,
self)``; self time is the span's duration minus the time its child calls
cover.  Spans stay in memory until :func:`write_spans` writes them out.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict

LAYERS = ("cli", "corpus", "skipgram", "coldstart", "neural", "traveler", "evaluation")

# (module, attribute, traced name).  The traced name's prefix is the layer.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("corpus", "load_sessions", "corpus.load_sessions"),
    ("corpus", "build_vocabulary", "corpus.build_vocabulary"),
    ("corpus", "split_by_user", "corpus.split_by_user"),
    ("corpus", "labeled_prefixes", "corpus.labeled_prefixes"),
    ("skipgram", "train_embeddings", "skipgram.train_embeddings"),
    ("skipgram", "save_embeddings_text", "skipgram.save_embeddings_text"),
    ("skipgram", "save_embeddings_binary", "skipgram.save_embeddings_binary"),
    ("skipgram", "load_embeddings_text", "skipgram.load_embeddings_text"),
    ("skipgram", "nearest_neighbors", "skipgram.nearest_neighbors"),
    ("coldstart", "load_demand_csv", "coldstart.load_demand_csv"),
    ("coldstart", "load_centroids_csv", "coldstart.load_centroids_csv"),
    ("coldstart", "destination_embeddings", "coldstart.destination_embeddings"),
    ("coldstart", "demand_belief_from_location", "coldstart.demand_belief_from_location"),
    ("coldstart", "extrapolate_cold", "coldstart.extrapolate_cold"),
    ("coldstart", "append_cold_rows", "coldstart.append_cold_rows"),
    ("neural", "load_model_json", "neural.load_model_json"),
    ("neural", "save_model_json", "neural.save_model_json"),
    ("traveler", "build_examples", "traveler.build_examples"),
    ("traveler", "train_traveler_model", "traveler.train_traveler_model"),
    ("traveler", "save_traveler_model", "traveler.save_traveler_model"),
    ("traveler", "load_traveler_model", "traveler.load_traveler_model"),
    ("traveler", "predict_probability", "traveler.predict_probability"),
    ("traveler", "traveler_embedding", "traveler.traveler_embedding"),
    ("evaluation", "build_downstream_cases", "evaluation.build_downstream_cases"),
    ("evaluation", "downstream_eval", "evaluation.downstream_eval"),
    ("evaluation", "auc", "evaluation.auc"),
    ("evaluation", "save_report", "evaluation.save_report"),
)
AGGREGATED = (
    ("skipgram", "sgns_step", "skipgram.sgns_step"),
    ("neural", "adam_step", "neural.adam_step"),
    ("neural", "dense_forward", "neural.dense_forward"),
    ("traveler", "dense_forward", "neural.dense_forward"),
    ("neural", "dense_backward", "neural.dense_backward"),
    ("traveler", "dense_backward", "neural.dense_backward"),
    ("neural", "weighted_bce", "neural.weighted_bce"),
    ("traveler", "example_loss_and_grads", "traveler.example_loss_and_grads"),
    ("evaluation", "handcrafted_features", "evaluation.handcrafted_features"),
)


def _attrs(name, args):
    """Span attributes the per-layer metrics group by."""
    if name == "cli.main" and args and args[0]:
        return {"command": args[0][-1]}
    if name == "traveler.train_traveler_model" and len(args) >= 3:
        return {"kind": args[1], "epochs": args[2].epochs}
    if name in ("traveler.predict_probability", "traveler.traveler_embedding") and args:
        return {"kind": args[0].kind}
    if name == "evaluation.downstream_eval" and len(args) >= 3:
        return {"setting": args[2].name}
    return None


class Tracer:
    """Records spans and call aggregates while installed on the modules."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.errors: dict[str, int] = defaultdict(int)
        self.run_id = None
        self.covered_s = 0.0  # time inside top-level wrapped calls
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def __enter__(self):
        self._stack = [[0.0, None]]  # root frame: [child time, span id]
        for module, attr, name in SPANNED:
            self._install(module, attr, self._span_wrapper(getattr(self.modules[module], attr), name))
        for module, attr, name in AGGREGATED:
            fn = getattr(self.modules[module], attr)
            self._install(module, attr, self._aggregate_wrapper(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.covered_s += self._stack[0][0]
        return False

    def _install(self, module_name, attr, wrapper):
        module = self.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, fn, name):
        stack, spans, errors, clock = self._stack, self.spans, self.errors, time.perf_counter
        layer = name.split(".", 1)[0]
        ids = self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                spans.append((
                    frame[1], name, _attrs(name, args), start, end, parent[1],
                    self.run_id, duration - frame[0],
                ))

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        stat = self.aggregates[name]
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]  # spans inside keep the enclosing span as parent
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]

        return wrapper


# Per-layer metric -> (traced name, attribute filter).  "_s" metrics are the
# seconds per traced round; "_us" metrics are the mean microseconds per call.
SPAN_SECONDS = {
    "cli.train_embeddings_s": ("cli.main", ("command", "train-embeddings")),
    "cli.coldstart_s": ("cli.main", ("command", "coldstart")),
    "corpus.load_sessions_s": ("corpus.load_sessions", None),
    "corpus.build_vocabulary_s": ("corpus.build_vocabulary", None),
    "corpus.split_by_user_s": ("corpus.split_by_user", None),
    "corpus.labeled_prefixes_s": ("corpus.labeled_prefixes", None),
    "skipgram.train_embeddings_s": ("skipgram.train_embeddings", None),
    "skipgram.save_text_s": ("skipgram.save_embeddings_text", None),
    "skipgram.save_binary_s": ("skipgram.save_embeddings_binary", None),
    "skipgram.load_text_s": ("skipgram.load_embeddings_text", None),
    "coldstart.load_demand_s": ("coldstart.load_demand_csv", None),
    "coldstart.load_centroids_s": ("coldstart.load_centroids_csv", None),
    "coldstart.destination_embeddings_s": ("coldstart.destination_embeddings", None),
    "coldstart.append_cold_rows_s": ("coldstart.append_cold_rows", None),
    "neural.load_model_json_s": ("neural.load_model_json", None),
    "traveler.build_examples_s": ("traveler.build_examples", None),
    "traveler.load_model_s": ("traveler.load_traveler_model", None),
    "evaluation.downstream_eval_s.handcrafted": ("evaluation.downstream_eval", ("setting", "handcrafted")),
    "evaluation.downstream_eval_s.dan": ("evaluation.downstream_eval", ("setting", "dan")),
    "evaluation.downstream_eval_s.lstm_attention": (
        "evaluation.downstream_eval", ("setting", "lstm_attention"),
    ),
    "evaluation.build_downstream_cases_s": ("evaluation.build_downstream_cases", None),
    "evaluation.auc_s": ("evaluation.auc", None),
}
SPAN_MEAN_US = {
    "skipgram.nearest_neighbors_us": ("skipgram.nearest_neighbors", None),
    "coldstart.belief_us": ("coldstart.demand_belief_from_location", None),
    "coldstart.extrapolate_us": ("coldstart.extrapolate_cold", None),
    "traveler.predict_us.dan": ("traveler.predict_probability", ("kind", "dan")),
    "traveler.predict_us.lstm_attention": ("traveler.predict_probability", ("kind", "lstm_attention")),
}
EPOCH_KINDS = ("average", "dan", "lstm", "lstm_attention")
COUNTED = (
    "skipgram.sgns_step", "neural.adam_step", "neural.dense_forward", "neural.dense_backward",
    "neural.weighted_bce", "traveler.example_loss_and_grads", "evaluation.handcrafted_features",
)


def _matching(spans, name, attr):
    for span in spans:
        if span[1] != name:
            continue
        if attr is not None and (span[2] or {}).get(attr[0]) != attr[1]:
            continue
        yield span


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer numbers of the traced rounds, normalised per round."""
    spans = tracer.spans
    out: dict[str, float] = {}
    for metric, (name, attr) in SPAN_SECONDS.items():
        out[metric] = sum(s[4] - s[3] for s in _matching(spans, name, attr)) / rounds
    for metric, (name, attr) in SPAN_MEAN_US.items():
        durations = [s[4] - s[3] for s in _matching(spans, name, attr)]
        out[metric] = 1e6 * sum(durations) / len(durations) if durations else 0.0
    for name in COUNTED:
        calls, total, _ = tracer.aggregates.get(name, (0, 0.0, 0.0))
        out[f"{name}_calls"] = calls / rounds
        out[f"{name}_us"] = 1e6 * total / calls if calls else 0.0
    for kind in EPOCH_KINDS:
        trained = list(_matching(spans, "traveler.train_traveler_model", ("kind", kind)))
        epochs = sum(s[2]["epochs"] for s in trained)
        out[f"traveler.{kind}.epoch_s"] = sum(s[4] - s[3] for s in trained) / epochs if epochs else 0.0
    lstm_attention = out["traveler.lstm_attention.epoch_s"]
    out["traveler.dan_over_lstm_attention"] = (
        out["traveler.dan.epoch_s"] / lstm_attention if lstm_attention else 0.0
    )
    self_time = self_seconds(tracer)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer] / rounds
        out[f"{layer}.errors"] = float(tracer.errors.get(layer, 0))
    return out


def self_seconds(tracer: Tracer) -> dict[str, float]:
    """Total self time per layer over every traced round."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        totals[span[1].split(".", 1)[0]] += span[7]
    for name, (_, _, own) in tracer.aggregates.items():
        totals[name.split(".", 1)[0]] += own
    return totals


def write_spans(tracer: Tracer, path) -> None:
    """One JSON object per span, then one per aggregated call site."""
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, attrs, start, end, parent, run, own in sorted(tracer.spans):
            fh.write(json.dumps({
                "id": span_id, "name": name, "attrs": attrs, "start": start, "end": end,
                "parent": parent, "run": run, "self_s": own,
            }) + "\n")
        for name, (calls, total, own) in sorted(tracer.aggregates.items()):
            fh.write(json.dumps({
                "aggregate": name, "calls": calls, "total_s": total, "self_s": own,
            }) + "\n")


def _per_layer_spec():
    spec = [(name, "s", "lower") for name in SPAN_SECONDS]
    spec += [(name, "us", "lower") for name in SPAN_MEAN_US]
    for name in COUNTED:
        spec += [(f"{name}_calls", "count", "lower"), (f"{name}_us", "us", "lower")]
    spec += [(f"traveler.{kind}.epoch_s", "s", "lower") for kind in EPOCH_KINDS]
    spec.append(("traveler.dan_over_lstm_attention", "ratio", "lower"))
    for layer in LAYERS:
        spec += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.errors", "count", "lower")]
    spec += [
        ("corpus.sessions", "count", "higher"),
        ("corpus.views", "count", "higher"),
        ("corpus.oov_views", "count", "lower"),
        ("bench.self_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(spec)


# (metric, unit, better) of every per-layer metric a traced run reports
PER_LAYER = _per_layer_spec()
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
