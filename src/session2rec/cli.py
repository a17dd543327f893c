"""Command-line orchestration of the full pipeline.

Each stage is a function that takes objects, writes its artifacts and returns
objects.  Its subcommand reads the stage's inputs from disk; ``pipeline``
hands each stage's objects to the next in one pass, parsing no file it wrote:

    generate            write a synthetic session log + cluster sidecar
    train-embeddings    train listing embeddings from the session log
    coldstart           append extrapolated rows for cold listings
    train-traveler      train traveler models, each to traveler_<kind>.json
    evaluate            run the downstream uplift protocol over those models
    gradcheck           finite-difference check of every trainable kind
    pipeline            generate -> embeddings -> coldstart -> traveler -> evaluate

Exit codes: 0 success, 2 configuration/validation error, 1 runtime error.
All stages are deterministic for a fixed config and seed; rerunning writes
byte-identical artifact files (training logs carry wall times and are logs,
not artifacts).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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

# range rules of CLI-only keys: (what the error says, accepts the value)
_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)
# section -> (the library dataclass it builds or None,
#             {CLI-only key: (type, default) or (type, default, range rule)})
_SECTIONS = {
    "corpus": (corpus_mod.SyntheticConfig, {
        "sessions_file": (str, "sessions.tsv"), "ground_truth_file": (str, "clusters.tsv"),
    }),
    "skipgram": (skipgram.SkipgramConfig, {
        "min_count": (int, 5, _AT_LEAST_ONE), "embeddings_file": (str, "embeddings.txt"),
        "sidecar_file": (str, "embeddings.s2re"),
    }),
    "coldstart": (None, {
        "demand_file": (str | None, None), "centroids_file": (str | None, None),
        "cold_listings_file": (str | None, None), "nearest_destinations": (int, 5, _AT_LEAST_ONE),
    }),
    "traveler": (traveler_mod.TravelerConfig, {"max_prefix_views": (int, 50, _AT_LEAST_ONE)}),
    "eval": (eval_mod.DownstreamConfig, {
        "train_fraction": (float, 0.7, _FRACTION), "settings": (list[str], ["handcrafted", "dan"]),
        "reports_dir": (str, "reports"), "comparison_file": (str, "comparison.txt"),
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


# {section: {key: (type, default, ...)}}: the dataclass's exposed fields, then the CLI-only keys
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
        sections[name] = {key: section.get(key, spec[1]) for key, spec in schema.items()}
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError("seed must be an integer")
    out_dir = Path(out_override) if out_override else Path(path).resolve().parent
    return PipelineConfig(seed=seed, out_dir=out_dir, **sections)


def _resolve(config: PipelineConfig, name) -> Path:
    p = Path(name)
    return p if p.is_absolute() else config.out_dir / p


def _check_values(config: PipelineConfig, sections) -> None:
    """ConfigError for the first CLI-only key of ``sections`` whose value
    breaks its range rule, or for cold listings without the demand and
    centroid files they need."""
    for section in sections:
        for key, (_, _, *rule) in _SECTIONS[section][1].items():
            for expected, accepts in rule:  # none or one
                if not accepts(getattr(config, section)[key]):
                    raise ConfigError(f"{section}.{key} must be {expected}")
    cs = config.coldstart
    missing = not (cs["demand_file"] and cs["centroids_file"])
    if "coldstart" in sections and cs["cold_listings_file"] and missing:
        raise ConfigError("coldstart needs demand_file and centroids_file")


def _build(config: PipelineConfig, name: str, **extra):
    """The library dataclass of section ``name`` from its exposed keys and the
    run seed; a range error is re-raised prefixed with the section name."""
    cls, cli_keys = _SECTIONS[name]
    exposed = {k: v for k, v in getattr(config, name).items() if k not in cli_keys}
    try:
        return cls(**exposed, seed=config.seed, **extra)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def generate(config: PipelineConfig) -> corpus_mod.SessionCorpus:
    """Write the session log and the cluster sidecar; returns the corpus."""
    c = config.corpus
    corpus, truth = corpus_mod.generate_synthetic(_build(config, "corpus"))
    corpus_mod.save_sessions(corpus, _resolve(config, c["sessions_file"]))
    corpus_mod.save_ground_truth(truth, _resolve(config, c["ground_truth_file"]))
    print(f"generate: {len(corpus.sessions)} sessions -> {c['sessions_file']}")
    return corpus


def _load_corpus(config: PipelineConfig):
    return corpus_mod.load_sessions(_resolve(config, config.corpus["sessions_file"]))


def train_embeddings(config: PipelineConfig, corpus) -> tuple[list[str], np.ndarray]:
    """Train skip-gram on ``corpus`` and write the embedding text (and the
    sidecar); returns (keys, vectors) as the text holds them."""
    vocabulary = corpus_mod.build_vocabulary(corpus, config.skipgram["min_count"])
    table, losses = skipgram.train_embeddings(corpus, vocabulary, _build(config, "skipgram"))
    skipgram.save_embeddings_text(
        table, vocabulary.index_to_key, _resolve(config, config.skipgram["embeddings_file"])
    )
    if config.skipgram["sidecar_file"]:
        skipgram.save_embeddings_binary(table, _resolve(config, config.skipgram["sidecar_file"]))
    loss_text = ", ".join(f"{x:.4f}" for x in losses)
    print(f"train-embeddings: V={len(vocabulary)} d={table.dim} epoch losses [{loss_text}]")
    return list(vocabulary.index_to_key), table.input_vectors


def _load_table(config: PipelineConfig) -> tuple[list[str], np.ndarray]:
    return skipgram.load_embeddings_text(_resolve(config, config.skipgram["embeddings_file"]))


def coldstart(config: PipelineConfig, keys, vectors) -> tuple[list[str], np.ndarray]:
    """Replace the embedding text's cold block with a row per cold listing.
    ``keys`` and ``vectors``, the trained rows alone, are what demand rows and
    cold keys are checked against; returns the table as the text now holds it."""
    cs = config.coldstart
    if not cs["cold_listings_file"]:
        print("coldstart: no cold listings configured, nothing to do")
        return keys, vectors
    key_to_index = {k: i for i, k in enumerate(keys)}
    listings = cold.load_cold_listings_csv(_resolve(config, cs["cold_listings_file"]), key_to_index)
    demand = cold.load_demand_csv(_resolve(config, cs["demand_file"]), key_to_index)
    centroids = cold.load_centroids_csv(_resolve(config, cs["centroids_file"]))
    table = skipgram.EmbeddingTable(vectors, np.zeros_like(vectors))
    dest_embeddings = cold.destination_embeddings(table, demand)
    rows = []
    for key, point in listings:
        belief = cold.demand_belief_from_location(point, centroids, cs["nearest_destinations"])
        rows.append((key, cold.extrapolate_cold(belief, dest_embeddings)))
    cold.append_cold_rows(_resolve(config, config.skipgram["embeddings_file"]), rows)
    print(f"coldstart: appended {len(rows)} rows to {config.skipgram['embeddings_file']}")
    return [*keys, *(key for key, _ in rows)], np.vstack([vectors, *(row for _, row in rows)])


def cmd_coldstart(config: PipelineConfig) -> None:
    _check_values(config, ["coldstart"])
    keys = vectors = None  # the table is read only for cold listings
    if config.coldstart["cold_listings_file"]:
        keys, vectors = _load_table(config)
        with open_utf8(_resolve(config, config.skipgram["embeddings_file"])) as fh:
            n_trained = int(fh.readline().split()[0])  # the loader checked it against the rows
        keys, vectors = keys[:n_trained], vectors[:n_trained]
    coldstart(config, keys, vectors)


def _cases(config: PipelineConfig, corpus, keys, vectors) -> list[list[traveler_mod.TravelerExample]]:
    """[train, test] examples over the table (keys, vectors) from the shared
    user-disjoint split, so every stage sees the same partition."""
    train, test = corpus_mod.split_by_user(corpus, config.eval["train_fraction"], config.seed)
    table = skipgram.EmbeddingTable(vectors, np.zeros_like(vectors))
    key_to_index = {k: i for i, k in enumerate(keys)}
    max_views = config.traveler["max_prefix_views"]
    sides = [corpus_mod.labeled_prefixes(side, max_views) for side in (train, test)]
    return [traveler_mod.build_examples(prefixes, key_to_index, table) for prefixes in sides]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _training_record(config: PipelineConfig):
    """(TravelerConfig, provenance): the built traveler config and the record
    of what a model trains on: the split side, the sha256 of the session log
    and of the embedding text, ``train_fraction``, ``max_prefix_views`` and
    every TravelerConfig field (``seed`` and ``input_dim`` included)."""
    traveler_config = _build(config, "traveler", input_dim=config.skipgram["dim"])
    return traveler_config, {
        "split": eval_mod.REQUIRED_PROVENANCE,
        "sessions_sha256": _sha256(_resolve(config, config.corpus["sessions_file"])),
        "embeddings_sha256": _sha256(_resolve(config, config.skipgram["embeddings_file"])),
        "train_fraction": config.eval["train_fraction"],
        "max_prefix_views": config.traveler["max_prefix_views"],
        **dataclasses.asdict(traveler_config),
    }


def train_traveler(config: PipelineConfig, examples, kinds) -> dict[str, traveler_mod.TravelerModel]:
    """Train each of ``kinds`` on ``examples`` and write its model file and
    training log; returns {kind: model}."""
    traveler_config, provenance = _training_record(config)
    models = {}
    for kind in kinds:
        model, trace = traveler_mod.train_traveler_model(examples, kind, traveler_config, provenance)
        traveler_mod.save_traveler_model(model, _resolve(config, f"traveler_{kind}.json"))
        traveler_mod.write_training_log(trace, _resolve(config, f"traveler_{kind}.log"))
        print(f"train-traveler: kind={kind} final loss {trace[-1].mean_loss:.4f} -> traveler_{kind}.json")
        models[kind] = model
    return models


def cmd_train_traveler(config: PipelineConfig, kind: str) -> None:
    """Train and write the model of ``kind``."""
    if kind not in traveler_mod.TRAINABLE_KINDS:
        raise ConfigError(f"unknown kind {kind!r}; valid kinds: {', '.join(traveler_mod.TRAINABLE_KINDS)}")
    _check_values(config, ["traveler", "eval"])
    train_cases, _ = _cases(config, _load_corpus(config), *_load_table(config))
    train_traveler(config, train_cases, [kind])


def _load_models(config: PipelineConfig, kinds: list[str]) -> dict[str, traveler_mod.TravelerModel]:
    """{kind: the model ``train-traveler`` wrote}; ConfigError naming the file
    for a missing model, one of another kind, or one whose provenance differs
    from this run's in any field."""
    if not kinds:
        return {}
    _, record = _training_record(config)
    models = {}
    for kind in kinds:
        path = _resolve(config, f"traveler_{kind}.json")
        if not path.is_file():
            raise ConfigError(f"missing model file {path}; `train-traveler --kind {kind}` writes it")
        model = traveler_mod.load_traveler_model(path)
        if model.kind != kind:
            raise ConfigError(f"{path} holds a model of kind {model.kind!r}, not {kind!r}")
        stored = model.provenance
        for field in {**record, **stored}:
            if (field in stored, stored.get(field)) != (field in record, record.get(field)):
                raise ConfigError(
                    f"stale model file {path}: its {field} is {stored.get(field)!r}, this run's "
                    f"is {record.get(field)!r}; rerun `train-traveler --kind {kind}`"
                )
        models[kind] = model
    return models


def _parse_settings(tokens: list[str]) -> list[tuple[bool, str | None]]:
    """Map each settings token to (use_handcrafted, embedding), where the
    embedding is ``RANDOM_VIEW``, a trained kind or None; ConfigError for an
    unknown or repeated token or an empty list."""
    if not tokens:
        raise ConfigError("no settings: name at least one, e.g. handcrafted,dan")
    embeddings = (eval_mod.RANDOM_VIEW, *traveler_mod.TRAINABLE_KINDS)
    parsed = []
    for i, token in enumerate(tokens):
        embedding = None if token == "handcrafted" else token.removesuffix("_only")
        if embedding not in (None, *embeddings):
            valid = ["handcrafted", *embeddings, *(f"{k}_only" for k in embeddings)]
            raise ConfigError(f"unknown setting {token!r}; valid: {', '.join(valid)}")
        if token in tokens[:i]:
            raise ConfigError(f"repeated setting {token!r}")
        parsed.append((embedding in (None, token), embedding))
    return parsed


def _trained_kinds(parsed) -> list[str]:
    """The distinct trained kinds of parsed settings, in order."""
    return list(dict.fromkeys(e for _, e in parsed if e in traveler_mod.TRAINABLE_KINDS))


def evaluate(config: PipelineConfig, settings: list[str], cases, models) -> None:
    """One report per setting over ``cases`` (train, test) and ``models``
    ({kind: model}), then the comparison of two or more reports."""
    reports_dir = _resolve(config, config.eval["reports_dir"])
    if not reports_dir.is_dir():
        raise FileNotFoundError(f"reports directory does not exist: {reports_dir}")

    downstream_config = _build(config, "eval")
    reports = []
    for token, (use_handcrafted, embedding) in zip(settings, _parse_settings(settings)):
        model = models.get(embedding, embedding)  # a trained model, RANDOM_VIEW or None
        spec = eval_mod.FeatureSetSpec(name=token, use_handcrafted=use_handcrafted, model=model)
        report = eval_mod.downstream_eval(*cases, spec, downstream_config)
        eval_mod.save_report(report, reports_dir / f"{token}.json")
        reports.append(report)
        print(
            f"evaluate: {token:<24} AUC {report.auc:.4f}  P {report.precision:.4f}  "
            f"R {report.recall:.4f}  F {report.f1:.4f}"
        )
    if len(reports) >= 2:
        eval_mod.write_comparison(reports, _resolve(config, config.eval["comparison_file"]))


def cmd_evaluate(config: PipelineConfig, settings: list[str]) -> None:
    """One report per setting, over the models ``train-traveler`` wrote."""
    kinds = _trained_kinds(_parse_settings(settings))  # every token, before any file
    _check_values(config, ["traveler", "eval"])
    cases = _cases(config, _load_corpus(config), *_load_table(config))
    evaluate(config, settings, cases, _load_models(config, kinds))


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


def cmd_gradcheck(seed: int, rounds: int) -> int:
    results = run_gradcheck(seed=seed, rounds=rounds)
    for kind, err in results.items():
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"gradcheck: {kind:<16} max relative error {err:.3e}  [{status}]")
    return 0 if all(err < 1e-4 for err in results.values()) else 1


def cmd_pipeline(config: PipelineConfig) -> None:
    """Every stage in one pass, each handing its objects to the next: no stage
    parses a file an earlier one wrote, and training and evaluation share one split."""
    # every value a stage would reject fails here, before the first file is written
    for name in ("corpus", "eval"):
        _build(config, name)
    _build(config, "traveler", input_dim=_build(config, "skipgram").dim)
    settings = config.eval["settings"]
    kinds = _trained_kinds(_parse_settings(settings))
    _check_values(config, _SECTIONS)
    corpus = generate(config)
    keys, vectors = train_embeddings(config, corpus)
    keys, vectors = coldstart(config, keys, vectors)
    cases = _cases(config, corpus, keys, vectors)
    models = train_traveler(config, cases[0], kinds) if kinds else {}
    _resolve(config, config.eval["reports_dir"]).mkdir(exist_ok=True)
    evaluate(config, settings, cases, models)


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
        if not config.out_dir.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {config.out_dir}")
        if args.command == "generate":
            generate(config)
        elif args.command == "train-embeddings":
            _check_values(config, ["skipgram"])
            train_embeddings(config, _load_corpus(config))
        elif args.command == "coldstart":
            cmd_coldstart(config)
        elif args.command == "train-traveler":
            cmd_train_traveler(config, args.kind)
        elif args.command == "evaluate":
            cmd_evaluate(config, [s.strip() for s in args.settings.split(",") if s.strip()])
        else:
            cmd_pipeline(config)
        return 0
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime errors: missing files, bad data
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
