"""Classification metrics and the booking-intent uplift protocol.

The uplift question: does concatenating traveler embeddings to hand-crafted
session features improve a downstream booking-intent classifier, evaluated on
held-out travelers?  The downstream model here is a logistic head trained
with the same neural kernels as everything else, so the entire pipeline stays
gradient-checkable and deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import neural, traveler as traveler_mod
from .errors import ConfigError
from .traveler import TravelerExample, TravelerModel


@dataclass(frozen=True)
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.shape != labels.shape or scores.ndim != 1 or len(scores) < 1:
            raise ValueError("scores and labels must be equal-length 1-D sequences")
        if not set(np.unique(labels)) <= {0, 1}:
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int64))


@dataclass(frozen=True)
class EvalReport:
    feature_set: str
    auc: float
    precision: float
    recall: float
    f1: float
    threshold: float
    positives: int
    negatives: int
    seed: int = 0
    provenance: str = ""

    def __post_init__(self):
        if self.precision + self.recall > 0:
            expected = 2.0 * self.precision * self.recall / (self.precision + self.recall)
        else:
            expected = 0.0
        if abs(self.f1 - expected) > 1e-9:
            raise ValueError("f1 must be the harmonic mean of precision and recall")


def auc(scored: ScoredSet) -> float:
    """Rank-based AUC; tied scores contribute 1/2.

    Equals the probability that a uniformly chosen positive outranks a
    uniformly chosen negative.
    """
    labels = scored.labels
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    # a tie block of c scores ending at 1-based rank r shares rank r - (c - 1) / 2
    _, block, counts = np.unique(scored.scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[block]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def precision_recall_f1(scored: ScoredSet, threshold: float) -> tuple[float, float, float]:
    """Confusion-matrix metrics with predicted positive = score >= threshold.

    Precision is 0 with no predicted positives, recall 0 with no actual
    positives, and F1 is 0 when precision + recall is 0.
    """
    predicted = scored.scores >= threshold
    actual = scored.labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def handcrafted_features(prefix) -> np.ndarray:
    """Fixed 8-vector of session statistics over a view prefix.

    [view count, distinct listings, repeat-view ratio, log1p session span ms,
    log1p mean inter-view gap ms, log1p last gap ms, distinct/views ratio, 1]
    """
    views = list(prefix)
    if not views:
        raise ValueError("empty prefix")
    n = len(views)
    distinct = len({it.listing_key for it in views})
    stamps = [it.timestamp for it in views]
    span = stamps[-1] - stamps[0]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
    last_gap = gaps[-1] if gaps else 0.0
    return np.array(
        [
            float(n),
            float(distinct),
            1.0 - distinct / n,
            math.log1p(span),
            math.log1p(mean_gap),
            math.log1p(last_gap),
            distinct / n,
            1.0,
        ]
    )


@dataclass(frozen=True)
class FeatureSetSpec:
    """What feeds the downstream classifier for one evaluation setting."""

    name: str
    use_handcrafted: bool
    model: TravelerModel | str | None  # the embedding block: a trained model, RANDOM_VIEW or None

    def __post_init__(self):
        if not (self.model is None or isinstance(self.model, TravelerModel) or self.model == RANDOM_VIEW):
            raise ConfigError(f"setting {self.name!r}: model must be a TravelerModel, {RANDOM_VIEW!r} or None")
        if not self.use_handcrafted and self.model is None:
            raise ConfigError(f"setting {self.name!r} selects no features at all")


# the benchmark in perfbench/ calls and traces the downstream cases by this name
build_downstream_cases = traveler_mod.build_examples

RANDOM_VIEW = "random"  # the untrained baseline: one viewed embedding drawn per case
DECISION_THRESHOLD = 0.5  # a test case is predicted positive at a score >= this
REQUIRED_PROVENANCE = "train"  # the split tag every trained model must carry


@dataclass(frozen=True)
class DownstreamConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.01
    positive_class_weight: float | None = None
    seed: int = 0

    def __post_init__(self):
        traveler_mod.check_training_fields(self)


def _case_features(case: TravelerExample) -> np.ndarray:
    """A case's hand-crafted features, built on first use and kept on the
    case: they depend only on its prefix, which never changes."""
    if case.features is None:
        features = handcrafted_features(case.prefix.views)
        features.flags.writeable = False
        object.__setattr__(case, "features", features)
    return case.features


def _feature_matrix(cases: list[TravelerExample], spec: FeatureSetSpec, rng) -> np.ndarray:
    """The hand-crafted block, then the embedding block: a model's
    ``traveler.embed_examples`` (the bits of embedding the cases' ``viewed``
    list), or one random view per case, drawn in case order."""
    blocks = []
    if spec.use_handcrafted:
        blocks.append([_case_features(case) for case in cases])
    if isinstance(spec.model, TravelerModel):
        blocks.append(traveler_mod.embed_examples(spec.model, cases))
    elif spec.model is not None:  # RANDOM_VIEW
        blocks.append([case.vectors[traveler_mod.baseline_random(case.rows, rng)] for case in cases])
    return np.hstack(blocks)


def downstream_eval(
    train_cases: list[TravelerExample],
    test_cases: list[TravelerExample],
    spec: FeatureSetSpec,
    config: DownstreamConfig = DownstreamConfig(),
) -> EvalReport:
    """Train the logistic downstream classifier and score the test side.

    Features are standardised with train-side statistics only.  A trained
    model must carry the split tag ``REQUIRED_PROVENANCE``, which guards
    against evaluating a model that saw test travelers; ``RANDOM_VIEW``
    draws from the evaluation's rng, train cases first.  The head is built
    once over the trainer's parameter views, whose arrays change in place;
    the trainer's finite check keeps them valid.  A case's hand-crafted
    features are built once and kept on the case, so later settings over
    the same case lists reuse them.  The labels are checked once, by
    ``TravelerExample``, and the class weight by the config or
    ``positive_class_weight``; every step slices one label mask.  Raises
    ValueError naming the setting and the epoch if the classifier's
    training diverges.
    """
    if not train_cases or not test_cases:
        raise ValueError("need non-empty train and test case lists")
    if isinstance(spec.model, TravelerModel):
        tag = spec.model.provenance.get("split")
        if tag != REQUIRED_PROVENANCE:
            raise ValueError(
                f"model for setting {spec.name!r} carries provenance split={tag!r}, "
                f"expected {REQUIRED_PROVENANCE!r}"
            )

    rng = np.random.default_rng(config.seed)
    x_train = _feature_matrix(train_cases, spec, rng)
    x_test = _feature_matrix(test_cases, spec, rng)
    if x_train.shape[1] != x_test.shape[1]:
        raise ValueError("train/test feature dimensions disagree")
    y_train = np.array([c.label for c in train_cases])
    y_test = np.array([c.label for c in test_cases])
    w_pos = traveler_mod.positive_class_weight(y_train, config.positive_class_weight)
    positive = y_train == 1

    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std[std == 0] = 1.0
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std

    def bind(views):
        head = {"head": neural.DenseLayer(*views, "sigmoid")}  # the "average" kind's one layer
        return lambda batch: traveler_mod.batch_loss_and_grads(
            "average", head, x_train[batch], positive[batch], w_pos
        )

    zero_head = [np.zeros((1, x_train.shape[1])), np.zeros(1)]
    arrays, _ = neural.train_minibatch(
        zero_head, bind, len(x_train), config, rng,
        f"downstream classifier for setting {spec.name!r}",
    )
    scores, _ = neural.stack_forward([neural.DenseLayer(*arrays, "sigmoid")], x_test)
    scored = ScoredSet(scores[:, 0], y_test)
    precision, recall, f1 = precision_recall_f1(scored, DECISION_THRESHOLD)
    return EvalReport(
        feature_set=spec.name,
        auc=auc(scored),
        precision=precision,
        recall=recall,
        f1=f1,
        threshold=DECISION_THRESHOLD,
        positives=int(y_test.sum()),
        negatives=int(len(y_test) - y_test.sum()),
        seed=config.seed,
        provenance=f"test_cases={len(test_cases)}",
    )


def compare_settings(reports: list[EvalReport]) -> list[EvalReport]:
    """Rank reports by F-score (descending), ties by AUC, stably.

    All reports must describe the same test set (same counts and provenance).
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    reference = (reports[0].positives, reports[0].negatives, reports[0].provenance)
    for report in reports[1:]:
        if (report.positives, report.negatives, report.provenance) != reference:
            raise ValueError(
                f"report {report.feature_set!r} describes a different test set"
            )
    return sorted(reports, key=lambda r: (-r.f1, -r.auc))


def save_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=1)
        fh.write("\n")


def write_comparison(reports: list[EvalReport], path) -> None:
    """Aligned-column comparison table, best F-score first."""
    ranked = compare_settings(reports)
    rows = [("Algorithm", "AUC", "Precision", "Recall", "F-Score")]
    for r in ranked:
        rows.append(
            (r.feature_set, f"{r.auc:.4f}", f"{r.precision:.4f}", f"{r.recall:.4f}", f"{r.f1:.4f}")
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
