"""Command-line orchestration of the full pipeline.

One subcommand per stage plus a ``pipeline`` meta-command that chains them:

    generate            write a synthetic session log + cluster sidecar
    train-embeddings    train listing embeddings from the session log
    coldstart           append extrapolated rows for cold listings
    train-traveler      train one traveler model on the train-side split
    evaluate            run the downstream uplift protocol per setting
    gradcheck           finite-difference check of every trainable kind
    pipeline            generate -> embeddings -> traveler -> evaluate

Exit codes: 0 success, 2 configuration/validation error, 1 runtime error.
All stages are deterministic for a fixed config and seed; rerunning writes
byte-identical artifact files (training logs carry wall times and are logs,
not artifacts).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import coldstart as cold
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import neural, skipgram, traveler as traveler_mod
from .errors import ConfigError, ParseError

_CORPUS_DEFAULTS = {
    "n_listings": 1000, "n_clusters": 10, "n_travelers": 10000,
    "mean_session_len": 8, "booking_base_rate": 0.3, "epsilon": 0.1,
    "booking_slope": 2.0, "sessions_per_traveler": 1,
    "sessions_file": "sessions.tsv", "ground_truth_file": "clusters.tsv",
}
_SKIPGRAM_DEFAULTS = {
    "dim": 32, "window": 3, "negatives": 5, "epochs": 5,
    "learning_rate_initial": 0.025, "learning_rate_final": 0.0001,
    "subsample_threshold": 1e-3, "min_count": 5, "smoothed_negatives": False,
    "embeddings_file": "embeddings.txt", "sidecar_file": "embeddings.s2re",
}
_COLDSTART_DEFAULTS = {
    "demand_file": None, "centroids_file": None, "cold_listings_file": None,
    "nearest_destinations": 5,
}
_TRAVELER_DEFAULTS = {
    "kind": "dan", "epochs": 20, "batch_size": 64, "learning_rate": 2e-3,
    "positive_class_weight": None, "max_prefix_views": 50,
    "hidden_expand": 64, "hidden_contract": 16, "embedding_dim": 8,
    "lstm_hidden": 16, "model_file": None, "trace_file": None,
}
_EVAL_DEFAULTS = {
    "train_fraction": 0.7, "settings": ["handcrafted", "dan"],
    "epochs": 40, "batch_size": 64, "learning_rate": 0.01,
    "positive_class_weight": None, "eval_sessions_file": None,
    "reports_dir": "reports", "comparison_file": "comparison.txt",
}
# a section accepts exactly the keys it has defaults for
_SECTION_DEFAULTS = {
    "corpus": _CORPUS_DEFAULTS, "skipgram": _SKIPGRAM_DEFAULTS,
    "coldstart": _COLDSTART_DEFAULTS, "traveler": _TRAVELER_DEFAULTS,
    "eval": _EVAL_DEFAULTS,
}
_TOP_KEYS = {"seed"} | set(_SECTION_DEFAULTS)


@dataclass
class PipelineConfig:
    seed: int
    corpus: dict
    skipgram: dict
    coldstart: dict
    traveler: dict
    eval: dict
    out_dir: Path


def load_config(path, seed_override=None, out_override=None) -> PipelineConfig:
    """Parse and strictly validate the JSON config; unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sections = {}
    for name, defaults in _SECTION_DEFAULTS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a JSON object")
        unknown = set(section) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
        sections[name] = {**defaults, **section}
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    out_dir = Path(out_override) if out_override else Path(path).resolve().parent
    return PipelineConfig(seed=seed, out_dir=out_dir, **sections)


def _resolve(config: PipelineConfig, name) -> Path:
    p = Path(name)
    return p if p.is_absolute() else config.out_dir / p


def _require_out_dir(config: PipelineConfig):
    if not config.out_dir.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {config.out_dir}")


def cmd_generate(config: PipelineConfig) -> int:
    _require_out_dir(config)
    c = config.corpus
    synth = corpus_mod.SyntheticConfig(
        n_listings=c["n_listings"], n_clusters=c["n_clusters"],
        n_travelers=c["n_travelers"], mean_session_len=c["mean_session_len"],
        booking_base_rate=c["booking_base_rate"], seed=config.seed,
        epsilon=c["epsilon"], booking_slope=c["booking_slope"],
        sessions_per_traveler=c["sessions_per_traveler"],
    )
    corpus, truth = corpus_mod.generate_synthetic(synth)
    corpus_mod.save_sessions(corpus, _resolve(config, c["sessions_file"]))
    corpus_mod.save_ground_truth(truth, _resolve(config, c["ground_truth_file"]))
    print(f"generate: {len(corpus.sessions)} sessions -> {c['sessions_file']}")
    return 0


def _load_corpus(config: PipelineConfig):
    return corpus_mod.load_sessions(_resolve(config, config.corpus["sessions_file"]))


def _skipgram_config(config: PipelineConfig) -> skipgram.SkipgramConfig:
    s = config.skipgram
    return skipgram.SkipgramConfig(
        dim=s["dim"], window=s["window"], negatives=s["negatives"], epochs=s["epochs"],
        learning_rate_initial=s["learning_rate_initial"],
        learning_rate_final=s["learning_rate_final"],
        subsample_threshold=s["subsample_threshold"], seed=config.seed,
        smoothed_negatives=s["smoothed_negatives"],
    )


def cmd_train_embeddings(config: PipelineConfig) -> int:
    _require_out_dir(config)
    corpus = _load_corpus(config)
    vocabulary = corpus_mod.build_vocabulary(corpus, config.skipgram["min_count"])
    table, losses = skipgram.train_embeddings(corpus, vocabulary, _skipgram_config(config))
    skipgram.save_embeddings_text(
        table, vocabulary.index_to_key, _resolve(config, config.skipgram["embeddings_file"])
    )
    if config.skipgram["sidecar_file"]:
        skipgram.save_embeddings_binary(table, _resolve(config, config.skipgram["sidecar_file"]))
    loss_text = ", ".join(f"{x:.4f}" for x in losses)
    print(f"train-embeddings: V={len(vocabulary)} d={table.dim} epoch losses [{loss_text}]")
    return 0


def cmd_coldstart(config: PipelineConfig) -> int:
    _require_out_dir(config)
    cs = config.coldstart
    embeddings_path = _resolve(config, config.skipgram["embeddings_file"])
    if not cs["cold_listings_file"]:
        print("coldstart: no cold listings configured, nothing to do")
        return 0
    if not (cs["demand_file"] and cs["centroids_file"]):
        raise ConfigError("coldstart needs demand_file and centroids_file")
    keys, vectors = skipgram.load_embeddings_text(embeddings_path)
    table = skipgram.EmbeddingTable(vectors, np.zeros_like(vectors))
    key_to_index = {k: i for i, k in enumerate(keys)}
    demand = cold.load_demand_csv(_resolve(config, cs["demand_file"]), key_to_index)
    centroids = cold.load_centroids_csv(_resolve(config, cs["centroids_file"]))
    dest_embeddings = cold.destination_embeddings(table, demand)

    rows = []
    cold_path = _resolve(config, cs["cold_listings_file"])
    with open(cold_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"listing_key", "latitude", "longitude"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ParseError(f"cold listings file: expected header {sorted(expected)}")
        for record in reader:
            point = cold.GeoPoint(float(record["latitude"]), float(record["longitude"]))
            belief = cold.demand_belief_from_location(
                point, centroids, cs["nearest_destinations"]
            )
            rows.append((record["listing_key"], cold.extrapolate_cold(belief, dest_embeddings)))
    cold.append_cold_rows(embeddings_path, rows)
    print(f"coldstart: appended {len(rows)} rows to {config.skipgram['embeddings_file']}")
    return 0


def _traveler_config(config: PipelineConfig) -> traveler_mod.TravelerConfig:
    t = config.traveler
    return traveler_mod.TravelerConfig(
        input_dim=config.skipgram["dim"],
        hidden_expand=t["hidden_expand"], hidden_contract=t["hidden_contract"],
        embedding_dim=t["embedding_dim"], lstm_hidden=t["lstm_hidden"],
        epochs=t["epochs"], batch_size=t["batch_size"],
        learning_rate=t["learning_rate"],
        positive_class_weight=t["positive_class_weight"], seed=config.seed,
    )


def _split_prefixes(config: PipelineConfig, corpus):
    """Shared user-disjoint split so every stage sees the same partition."""
    train, test = corpus_mod.split_by_user(corpus, config.eval["train_fraction"], config.seed)
    max_views = config.traveler["max_prefix_views"]
    return (
        corpus_mod.labeled_prefixes(train, max_views),
        corpus_mod.labeled_prefixes(test, max_views),
    )


def _load_table_and_index(config: PipelineConfig):
    keys, vectors = skipgram.load_embeddings_text(
        _resolve(config, config.skipgram["embeddings_file"])
    )
    table = skipgram.EmbeddingTable(vectors, np.zeros_like(vectors))
    return table, {k: i for i, k in enumerate(keys)}


def _train_kind(config: PipelineConfig, kind: str, examples):
    return traveler_mod.train_traveler_model(
        examples, kind, _traveler_config(config), provenance={"split": "train"}
    )


def cmd_train_traveler(config: PipelineConfig, kind: str) -> int:
    _require_out_dir(config)
    if kind not in traveler_mod.TRAINABLE_KINDS:
        raise ConfigError(
            f"unknown kind {kind!r}; valid kinds: {', '.join(traveler_mod.TRAINABLE_KINDS)}"
        )
    corpus = _load_corpus(config)
    train_prefixes, _ = _split_prefixes(config, corpus)
    table, key_to_index = _load_table_and_index(config)
    examples = traveler_mod.build_examples(train_prefixes, key_to_index, table)
    model, trace = _train_kind(config, kind, examples)
    model_file = config.traveler["model_file"] or f"traveler_{kind}.json"
    trace_file = config.traveler["trace_file"] or f"traveler_{kind}.log"
    traveler_mod.save_traveler_model(model, _resolve(config, model_file))
    traveler_mod.write_training_log(trace, _resolve(config, trace_file))
    print(f"train-traveler: kind={kind} final loss {trace[-1].mean_loss:.4f} -> {model_file}")
    return 0


def _parse_setting(token: str):
    """Map a settings token to (use_handcrafted, model_kind_or_None)."""
    if token == "handcrafted":
        return True, None
    if token.endswith("_only"):
        kind = token[: -len("_only")]
        if kind in traveler_mod.ALL_KINDS:
            return False, kind
    elif token in traveler_mod.ALL_KINDS:
        return True, token
    valid = ["handcrafted", *traveler_mod.ALL_KINDS, *(f"{k}_only" for k in traveler_mod.ALL_KINDS)]
    raise ConfigError(f"unknown setting {token!r}; valid: {', '.join(valid)}")


def cmd_evaluate(config: PipelineConfig, settings: list[str]) -> int:
    _require_out_dir(config)
    corpus = _load_corpus(config)
    eval_file = config.eval["eval_sessions_file"]
    if eval_file:  # dual-corpus flow: embeddings/tables from one log, labels from another
        corpus = corpus_mod.load_sessions(_resolve(config, eval_file))
    train_prefixes, test_prefixes = _split_prefixes(config, corpus)
    table, key_to_index = _load_table_and_index(config)
    train_cases = traveler_mod.build_examples(train_prefixes, key_to_index, table)
    test_cases = traveler_mod.build_examples(test_prefixes, key_to_index, table)

    reports_dir = _resolve(config, config.eval["reports_dir"])
    if not reports_dir.is_dir():
        raise FileNotFoundError(f"reports directory does not exist: {reports_dir}")

    downstream_config = eval_mod.DownstreamConfig(
        epochs=config.eval["epochs"], batch_size=config.eval["batch_size"],
        learning_rate=config.eval["learning_rate"],
        positive_class_weight=config.eval["positive_class_weight"], seed=config.seed,
    )
    trained: dict[str, traveler_mod.TravelerModel] = {}
    reports = []
    for token in settings:
        use_handcrafted, kind = _parse_setting(token)
        model = None
        if kind == "random":
            model = traveler_mod.TravelerModel(
                kind="random", params=None, input_dim=table.dim, seed=config.seed,
                provenance={"split": "train"},
            )
        elif kind is not None:
            if kind not in trained:
                trained[kind], _ = _train_kind(config, kind, train_cases)
            model = trained[kind]
        spec = eval_mod.FeatureSetSpec(name=token, use_handcrafted=use_handcrafted, model=model)
        report = eval_mod.downstream_eval(train_cases, test_cases, spec, downstream_config)
        eval_mod.save_report(report, reports_dir / f"{token}.json")
        reports.append(report)
        print(
            f"evaluate: {token:<24} AUC {report.auc:.4f}  P {report.precision:.4f}  "
            f"R {report.recall:.4f}  F {report.f1:.4f}"
        )
    if len(reports) >= 2:
        eval_mod.write_comparison(reports, _resolve(config, config.eval["comparison_file"]))
    return 0


def run_gradcheck(seed: int = 0, corrupt_kind: str | None = None, rounds: int = 100):
    """Finite-difference check over random parameterizations of every kind.

    Returns {kind: max relative error}.  ``corrupt_kind`` perturbs one
    analytic gradient to prove the checker can fail (negative control).
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def check(kind_name, fn_builder):
        worst = 0.0
        for _ in range(rounds):
            fn, arrays = fn_builder()
            if corrupt_kind == kind_name:
                inner = fn

                def fn(params, _inner=inner):
                    loss, grads = _inner(params)
                    grads = [g.copy() for g in grads]
                    grads[0].reshape(-1)[0] += 0.5
                    return loss, grads

            worst = max(worst, neural.grad_check(fn, arrays, h=1e-5))
        results[kind_name] = worst

    def traveler_case(kind):
        while True:
            d = int(rng.integers(3, 7))
            config = traveler_mod.TravelerConfig(
                input_dim=d, hidden_expand=d + int(rng.integers(1, 4)),
                hidden_contract=max(2, d - 1), embedding_dim=max(1, d - 2),
                lstm_hidden=int(rng.integers(2, 6)), seed=int(rng.integers(2**31)),
            )
            params = traveler_mod.init_params(kind, config, rng)
            t = int(rng.integers(1, 6))
            viewed = rng.normal(size=(t, d))
            label = int(rng.integers(2))
            if kind == "dan" and traveler_mod.dan_relu_margin(params, viewed) < 1e-3:
                continue  # resample away from the relu kink
            fn = traveler_mod.loss_fn_for_gradcheck(kind, params, viewed, label, 1.0 + rng.random())
            return fn, [a.copy() for a in traveler_mod.params_list(kind, params)]

    def sgns_case():
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, 6))
        arrays = [rng.normal(size=d), rng.normal(size=d), rng.normal(size=(k, d))]

        def fn(params):
            # one sgns_step at rate 1 on distinct rows (center 0, context 1,
            # negatives 2..k+1): each row moves by exactly minus its gradient
            center, context, negatives = params
            before = np.zeros((2, k + 2, d))
            before[0, 0], before[1, 1], before[1, 2:] = center, context, negatives
            table = skipgram.EmbeddingTable(before[0].copy(), before[1].copy())
            loss = skipgram.sgns_step(0, 1, np.arange(2, k + 2), table, 1.0)
            grad = before - np.stack([table.input_vectors, table.output_vectors])
            return loss, [grad[0, 0], grad[1, 1], grad[1, 2:]]

        return fn, arrays

    for kind in ("dan", "lstm", "lstm_attention"):
        check(kind, lambda kind=kind: traveler_case(kind))
    check("sgns", sgns_case)
    return results


def cmd_gradcheck(seed: int = 0, corrupt_kind: str | None = None, rounds: int = 100) -> int:
    results = run_gradcheck(seed=seed, corrupt_kind=corrupt_kind, rounds=rounds)
    ok = True
    for kind, err in results.items():
        status = "ok" if err < 1e-4 else "FAIL"
        ok = ok and err < 1e-4
        print(f"gradcheck: {kind:<16} max relative error {err:.3e}  [{status}]")
    return 0 if ok else 1


def cmd_pipeline(config: PipelineConfig) -> int:
    for stage in (cmd_generate, cmd_train_embeddings, cmd_coldstart):
        code = stage(config)
        if code != 0:
            return code
    code = cmd_train_traveler(config, config.traveler["kind"])
    if code != 0:
        return code
    reports_dir = _resolve(config, config.eval["reports_dir"])
    reports_dir.mkdir(exist_ok=True)
    return cmd_evaluate(config, list(config.eval["settings"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="session2rec",
        description="Session-based listing/traveler embeddings and booking-intent evaluation",
    )
    parser.add_argument("--config", help="path to the JSON pipeline config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="base directory for relative paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "train-embeddings", "coldstart", "pipeline"):
        sub.add_parser(name)
    p = sub.add_parser("train-traveler")
    p.add_argument("--kind", required=True)
    p = sub.add_parser("evaluate")
    p.add_argument("--settings", required=True, help="comma-separated setting tokens")
    p = sub.add_parser("gradcheck")
    p.add_argument("--rounds", type=int, default=100, help="random cases per model kind")
    p.add_argument("--corrupt-gradient", default=None, help=argparse.SUPPRESS)  # test hook
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(
                seed=args.seed or 0, corrupt_kind=args.corrupt_gradient, rounds=args.rounds
            )
        if not args.config:
            raise ConfigError(f"{args.command} requires --config")
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "train-embeddings":
            return cmd_train_embeddings(config)
        if args.command == "coldstart":
            return cmd_coldstart(config)
        if args.command == "train-traveler":
            return cmd_train_traveler(config, args.kind)
        if args.command == "evaluate":
            return cmd_evaluate(config, [s.strip() for s in args.settings.split(",") if s.strip()])
        if args.command == "pipeline":
            return cmd_pipeline(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime errors: missing files, bad data
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
