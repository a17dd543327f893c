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
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import coldstart as cold
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import neural, skipgram, traveler as traveler_mod
from .errors import ConfigError, ParseError, open_utf8

# section -> (the library dataclass it builds or None, {CLI-only key: (type, default)})
_SECTIONS = {
    "corpus": (corpus_mod.SyntheticConfig, {
        "sessions_file": (str, "sessions.tsv"), "ground_truth_file": (str, "clusters.tsv"),
    }),
    "skipgram": (skipgram.SkipgramConfig, {
        "min_count": (int, 5), "embeddings_file": (str, "embeddings.txt"),
        "sidecar_file": (str, "embeddings.s2re"),
    }),
    "coldstart": (None, {
        "demand_file": (str | None, None), "centroids_file": (str | None, None),
        "cold_listings_file": (str | None, None), "nearest_destinations": (int, 5),
    }),
    "traveler": (traveler_mod.TravelerConfig, {
        "kind": (str, "dan"), "max_prefix_views": (int, 50),
        "model_file": (str | None, None), "trace_file": (str | None, None),
    }),
    "eval": (eval_mod.DownstreamConfig, {
        "train_fraction": (float, 0.7), "settings": (list[str], ["handcrafted", "dan"]),
        "eval_sessions_file": (str | None, None), "reports_dir": (str, "reports"),
        "comparison_file": (str, "comparison.txt"),
    }),
}
# dataclass fields no config key sets: the CLI passes the run seed and the
# skip-gram dim itself
_UNEXPOSED = {"seed", "input_dim"}


def _dataclass_keys(cls) -> dict[str, tuple[object, object]]:
    """{field: (annotation, default)} for each field of ``cls`` a config key sets."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in _UNEXPOSED]
    return {f.name: (hints[f.name], f.default) for f in fields}


# {section: {key: (type, default)}}: the dataclass's exposed fields, then the CLI-only keys
_SCHEMA = {
    name: {**(_dataclass_keys(cls) if cls else {}), **cli_keys}
    for name, (cls, cli_keys) in _SECTIONS.items()
}
# annotation -> (what the error says, accepts the value)
_TYPE_RULES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) is int or (type(v) is float and math.isfinite(v))),
    str: ("a string", lambda v: isinstance(v, str)),
    list[str]: (
        "a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)
    ),
}


def _check_value_type(section: str, key: str, value, annotation) -> None:
    """ConfigError naming ``section.key`` unless the value has the annotated
    type: an int that is not a bool, a finite int or float, a string or a
    list of strings; an ``X | None`` annotation also takes null."""
    args = typing.get_args(annotation)
    nullable = type(None) in args
    expected, accepts = _TYPE_RULES[args[0] if nullable else annotation]
    if not (accepts(value) or (nullable and value is None)):
        null = " or null" if nullable else ""
        raise ConfigError(f"{section}.{key} must be {expected}{null}, got {value!r}")


@dataclasses.dataclass
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
        with open_utf8(path, ConfigError) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"seed", *_SCHEMA}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sections = {}
    for name, schema in _SCHEMA.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a JSON object")
        unknown = set(section) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
        for key, value in section.items():
            _check_value_type(name, key, value, schema[key][0])
        sections[name] = {key: section.get(key, default) for key, (_, default) in schema.items()}
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError("seed must be an integer")
    out_dir = Path(out_override) if out_override else Path(path).resolve().parent
    return PipelineConfig(seed=seed, out_dir=out_dir, **sections)


def _resolve(config: PipelineConfig, name) -> Path:
    p = Path(name)
    return p if p.is_absolute() else config.out_dir / p


# CLI-only keys with restricted values: (section, key, what the error says, accepts the value)
_VALUE_RULES = (
    ("traveler", "kind", f"one of {traveler_mod.TRAINABLE_KINDS}", lambda v: v in traveler_mod.TRAINABLE_KINDS),
    ("skipgram", "min_count", ">= 1", lambda v: v >= 1),
    ("coldstart", "nearest_destinations", ">= 1", lambda v: v >= 1),
    ("traveler", "max_prefix_views", ">= 1", lambda v: v >= 1),
    ("eval", "train_fraction", "in (0, 1)", lambda v: 0 < v < 1),
)


def _check_values(config: PipelineConfig, sections) -> None:
    for section, key, expected, accepts in _VALUE_RULES:
        if section in sections and not accepts(getattr(config, section)[key]):
            raise ConfigError(f"{section}.{key} must be {expected}")


def _require_out_dir(config: PipelineConfig):
    if not config.out_dir.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {config.out_dir}")


def _build(config: PipelineConfig, name: str, **extra):
    """The library dataclass of section ``name`` from its exposed keys and the
    run seed; a range error is re-raised prefixed with the section name."""
    cls, cli_keys = _SECTIONS[name]
    exposed = {k: v for k, v in getattr(config, name).items() if k not in cli_keys}
    try:
        return cls(**exposed, seed=config.seed, **extra)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def cmd_generate(config: PipelineConfig) -> int:
    _require_out_dir(config)
    c = config.corpus
    corpus, truth = corpus_mod.generate_synthetic(_build(config, "corpus"))
    corpus_mod.save_sessions(corpus, _resolve(config, c["sessions_file"]))
    corpus_mod.save_ground_truth(truth, _resolve(config, c["ground_truth_file"]))
    print(f"generate: {len(corpus.sessions)} sessions -> {c['sessions_file']}")
    return 0


def _load_corpus(config: PipelineConfig):
    return corpus_mod.load_sessions(_resolve(config, config.corpus["sessions_file"]))


def cmd_train_embeddings(config: PipelineConfig) -> int:
    _require_out_dir(config)
    corpus = _load_corpus(config)
    vocabulary = corpus_mod.build_vocabulary(corpus, config.skipgram["min_count"])
    table, losses = skipgram.train_embeddings(corpus, vocabulary, _build(config, "skipgram"))
    skipgram.save_embeddings_text(
        table, vocabulary.index_to_key, _resolve(config, config.skipgram["embeddings_file"])
    )
    if config.skipgram["sidecar_file"]:
        skipgram.save_embeddings_binary(table, _resolve(config, config.skipgram["sidecar_file"]))
    loss_text = ", ".join(f"{x:.4f}" for x in losses)
    print(f"train-embeddings: V={len(vocabulary)} d={table.dim} epoch losses [{loss_text}]")
    return 0


def _check_coldstart_files(config: PipelineConfig) -> None:
    cs = config.coldstart
    if cs["cold_listings_file"] and not (cs["demand_file"] and cs["centroids_file"]):
        raise ConfigError("coldstart needs demand_file and centroids_file")


def cmd_coldstart(config: PipelineConfig) -> int:
    _require_out_dir(config)
    _check_values(config, ["coldstart"])
    _check_coldstart_files(config)
    cs = config.coldstart
    embeddings_path = _resolve(config, config.skipgram["embeddings_file"])
    if not cs["cold_listings_file"]:
        print("coldstart: no cold listings configured, nothing to do")
        return 0
    table, key_to_index = _load_table_and_index(config)
    with open_utf8(embeddings_path) as fh:
        n_trained = int(fh.readline().split()[0])  # the loader checked it against the rows
    trained = {key for key, i in key_to_index.items() if i < n_trained}
    listings = cold.load_cold_listings_csv(_resolve(config, cs["cold_listings_file"]), trained)
    demand = cold.load_demand_csv(_resolve(config, cs["demand_file"]), key_to_index)
    centroids = cold.load_centroids_csv(_resolve(config, cs["centroids_file"]))
    dest_embeddings = cold.destination_embeddings(table, demand)
    rows = []
    for key, point in listings:
        belief = cold.demand_belief_from_location(point, centroids, cs["nearest_destinations"])
        rows.append((key, cold.extrapolate_cold(belief, dest_embeddings)))
    cold.append_cold_rows(embeddings_path, rows)
    print(f"coldstart: appended {len(rows)} rows to {config.skipgram['embeddings_file']}")
    return 0


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
        examples, kind, _build(config, "traveler", input_dim=config.skipgram["dim"]),
        provenance={"split": "train"},
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
    """Map a settings token to (use_handcrafted, embedding), where the
    embedding is ``RANDOM_VIEW``, a trained kind or None."""
    if token == "handcrafted":
        return True, None
    embeddings = (eval_mod.RANDOM_VIEW, *traveler_mod.TRAINABLE_KINDS)
    embedding = token.removesuffix("_only")
    if embedding not in embeddings:
        valid = ["handcrafted", *embeddings, *(f"{k}_only" for k in embeddings)]
        raise ConfigError(f"unknown setting {token!r}; valid: {', '.join(valid)}")
    return embedding == token, embedding


def cmd_evaluate(config: PipelineConfig, settings: list[str]) -> int:
    _require_out_dir(config)
    parsed = [_parse_setting(token) for token in settings]  # every token, before any report
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

    downstream_config = _build(config, "eval")
    trained: dict[str, traveler_mod.TravelerModel] = {}
    reports = []
    for token, (use_handcrafted, embedding) in zip(settings, parsed):
        if embedding in traveler_mod.TRAINABLE_KINDS and embedding not in trained:
            trained[embedding], _ = _train_kind(config, embedding, train_cases)
        model = trained.get(embedding, embedding)  # a trained model, RANDOM_VIEW or None
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


def run_gradcheck(seed: int = 0, rounds: int = 100):
    """Finite-difference check over random parameterizations of every kind:
    dan, lstm, lstm_attention, then sgns, ``rounds`` ``neural.grad_check``
    calls each.  Returns {kind: max relative error}.
    """
    rng = np.random.default_rng(seed)

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
            bind = traveler_mod.loss_fn_for_gradcheck(kind, params, viewed, label, 1.0 + rng.random())
            return bind, traveler_mod.params_list(params)

    def sgns_case():
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, 6))
        arrays = [rng.normal(size=d), rng.normal(size=d), rng.normal(size=(k, d))]

        def bind(params):
            center, context, negatives = params

            def fn():
                # one sgns_step at rate 1 on distinct rows (center 0, context 1,
                # negatives 2..k+1): each row moves by exactly minus its gradient
                before = np.zeros((2, k + 2, d))
                before[0, 0], before[1, 1], before[1, 2:] = center, context, negatives
                table = skipgram.EmbeddingTable(before[0].copy(), before[1].copy())
                loss = skipgram.sgns_step(0, 1, np.arange(2, k + 2), table, 1.0)
                grad = before - np.stack([table.input_vectors, table.output_vectors])
                return loss, [grad[0, 0], grad[1, 1], grad[1, 2:]]

            return lambda: fn()[0], fn

        return bind, arrays

    cases = {kind: lambda kind=kind: traveler_case(kind) for kind in ("dan", "lstm", "lstm_attention")}
    cases["sgns"] = sgns_case
    return {
        kind: max((neural.grad_check(*case()) for _ in range(rounds)), default=0.0)
        for kind, case in cases.items()
    }


def cmd_gradcheck(seed: int = 0, rounds: int = 100) -> int:
    results = run_gradcheck(seed=seed, rounds=rounds)
    ok = True
    for kind, err in results.items():
        status = "ok" if err < 1e-4 else "FAIL"
        ok = ok and err < 1e-4
        print(f"gradcheck: {kind:<16} max relative error {err:.3e}  [{status}]")
    return 0 if ok else 1


def cmd_pipeline(config: PipelineConfig) -> int:
    # every value a stage would reject fails here, before the first file is written
    for name in ("corpus", "eval"):
        _build(config, name)
    _build(config, "traveler", input_dim=_build(config, "skipgram").dim)
    for token in config.eval["settings"]:
        _parse_setting(token)
    _check_values(config, _SECTIONS)
    _check_coldstart_files(config)
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(seed=args.seed or 0, rounds=args.rounds)
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
