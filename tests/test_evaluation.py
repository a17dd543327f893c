import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from session2rec.corpus import LabeledPrefix
from session2rec.errors import ConfigError
from session2rec.evaluation import (
    DownstreamConfig,
    EvalReport,
    FeatureSetSpec,
    ScoredSet,
    auc,
    build_downstream_cases,
    compare_settings,
    downstream_eval,
    handcrafted_features,
    load_report,
    precision_recall_f1,
    save_report,
    write_comparison,
)
from session2rec.neural import DenseLayer
from session2rec.skipgram import EmbeddingTable
from session2rec.traveler import TravelerExample, TravelerModel

from conftest import view


def pair_counting_auc(scores, labels):
    """O(n^2) oracle: P(random positive outranks random negative), ties 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(ScoredSet([0.9, 0.1], [1, 0])) == 1.0

    def test_all_ties_give_half(self):
        assert auc(ScoredSet([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(10, 500))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n) if trial % 3 else rng.random(n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = auc(ScoredSet(scores, labels))
            assert got == pytest.approx(pair_counting_auc(scores, labels), abs=1e-9)

    def test_single_class_is_an_error(self):
        with pytest.raises(ValueError, match="both classes"):
            auc(ScoredSet([0.2, 0.4], [1, 1]))

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=300)
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        base = auc(ScoredSet(scores, labels))
        assert auc(ScoredSet(np.exp(scores), labels)) == pytest.approx(base, abs=1e-9)
        assert auc(ScoredSet(3.5 * scores + 11.0, labels)) == pytest.approx(base, abs=1e-9)

    @given(st.lists(st.tuples(st.floats(-100, 100), st.integers(0, 1)), min_size=4, max_size=60))
    @settings(deadline=None, max_examples=100)
    def test_label_flip_symmetry(self, rows):
        scores = np.array([r[0] for r in rows])
        labels = np.array([r[1] for r in rows])
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        flipped = auc(ScoredSet(-scores, 1 - labels))
        assert flipped == pytest.approx(auc(ScoredSet(scores, labels)), abs=1e-9)


class TestPrecisionRecallF1:
    def test_perfect_classifier(self):
        scored = ScoredSet([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert precision_recall_f1(scored, 0.5) == (1.0, 1.0, 1.0)

    def test_threshold_above_everything(self):
        scored = ScoredSet([0.9, 0.1], [1, 0])
        assert precision_recall_f1(scored, 2.0) == (0.0, 0.0, 0.0)

    def test_matches_brute_force_confusion_counts(self, rng):
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        threshold = 0.4
        tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y == 1)
        precision, recall, f1 = precision_recall_f1(ScoredSet(scores, labels), threshold)
        assert precision == tp / (tp + fp)
        assert recall == tp / (tp + fn)
        assert f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)


class TestEvalReport:
    def test_f1_consistency_enforced(self):
        with pytest.raises(ValueError, match="harmonic"):
            EvalReport("x", 0.9, 0.8, 0.6, 0.9, 0.5, 10, 20)

    def test_round_trip(self, tmp_path):
        report = EvalReport("dan", 0.91, 0.8, 0.6, 2 * 0.8 * 0.6 / 1.4, 0.5, 10, 20, 3, "test_cases=30")
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path) == report


class TestHandcraftedFeatures:
    def test_single_view(self):
        feats = handcrafted_features([view("A", 1000)])
        assert feats[0] == 1.0  # views
        assert feats[1] == 1.0  # distinct
        assert feats[2] == 0.0  # repeat ratio
        assert feats[3] == feats[4] == feats[5] == 0.0  # span and gaps
        assert feats[6] == 1.0
        assert feats[7] == 1.0

    def test_repeat_view_ratio(self):
        feats = handcrafted_features([view("A", 0), view("A", 10)])
        assert feats[1] == 1.0
        assert feats[2] == 0.5

    def test_matches_independent_recomputation(self, rng):
        stamps = np.sort(rng.integers(0, 10**6, size=9))
        keys = [f"L{int(k)}" for k in rng.integers(0, 4, size=9)]
        prefix = [view(k, int(t)) for k, t in zip(keys, stamps)]
        feats = handcrafted_features(prefix)
        n = 9
        distinct = len(set(keys))
        gaps = np.diff(stamps)
        assert feats[0] == n
        assert feats[1] == distinct
        assert feats[2] == pytest.approx(1 - distinct / n)
        assert feats[3] == pytest.approx(math.log1p(stamps[-1] - stamps[0]))
        assert feats[4] == pytest.approx(math.log1p(gaps.mean()))
        assert feats[5] == pytest.approx(math.log1p(gaps[-1]))
        assert feats[6] == pytest.approx(distinct / n)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            handcrafted_features([])


def synthetic_cases(rng, n=120, d=4, signal=True):
    """Cases whose label is (optionally) encoded in the embedding block."""
    table = EmbeddingTable(rng.normal(size=(10, d)), np.zeros((10, d)))
    cases = []
    for i in range(n):
        label = int(rng.integers(2))
        t = int(rng.integers(1, 5))
        rows = rng.integers(0, 10, size=t)
        viewed = table.input_vectors[rows].copy()
        if signal:
            viewed[:, 0] = 2.0 * label - 1.0 + 0.1 * rng.normal(size=t)
        prefix = LabeledPrefix(
            f"u{i}",
            tuple(view(f"L{int(r)}", 1000 * j) for j, r in enumerate(rows)),
            label,
        )
        cases.append(TravelerExample(prefix, viewed))
    return cases


def average_model(d, rng, provenance=None):
    params = {"head": DenseLayer(rng.normal(size=(1, d)), np.zeros(1), "sigmoid")}
    return TravelerModel("average", params, input_dim=d, provenance=provenance or {"split": "train"})


class TestDownstreamEval:
    def test_label_leak_gives_perfect_auc(self, rng):
        # leak the label through the embedding block; the classifier must find it
        train = synthetic_cases(rng, n=200, signal=True)
        test = synthetic_cases(rng, n=100, signal=True)
        spec = FeatureSetSpec("leak", False, average_model(4, rng))
        report = downstream_eval(train, test, spec, DownstreamConfig(epochs=60, seed=0))
        assert report.auc > 0.99

    def test_exact_label_feature_gives_auc_one(self, rng):
        # the degenerate case: the single feature IS the label
        def cases(n):
            out = []
            for i in range(n):
                label = int(rng.integers(2))
                prefix = LabeledPrefix(f"u{i}", (view("L0", 0),), label)
                out.append(TravelerExample(prefix, np.array([[float(label)]])))
            return out

        spec = FeatureSetSpec("pure-leak", False, average_model(1, rng))
        report = downstream_eval(cases(80), cases(60), spec, DownstreamConfig(epochs=5, seed=1))
        assert report.auc == 1.0

    def test_provenance_guard(self, rng):
        train = synthetic_cases(rng, n=40)
        test = synthetic_cases(rng, n=40)
        tainted = average_model(4, rng, provenance={"split": "test"})
        spec = FeatureSetSpec("tainted", True, tainted)
        with pytest.raises(ValueError, match="provenance"):
            downstream_eval(train, test, spec, DownstreamConfig())

    def test_degenerate_labels_rejected(self, rng):
        train = [
            TravelerExample(replace(case.prefix, label=1), case.viewed)
            for case in synthetic_cases(rng, n=30)
        ]
        test = synthetic_cases(rng, n=30)
        with pytest.raises(ValueError, match="degenerate"):
            downstream_eval(train, test, FeatureSetSpec("hc", True, None), DownstreamConfig())

    def test_spec_without_features_rejected(self):
        with pytest.raises(ConfigError, match="no features"):
            FeatureSetSpec("nothing", False, None)

    def test_deterministic_per_seed(self, rng):
        train = synthetic_cases(rng, n=80)
        test = synthetic_cases(rng, n=50)
        spec = FeatureSetSpec("handcrafted", True, None)
        r1 = downstream_eval(train, test, spec, DownstreamConfig(seed=5))
        r2 = downstream_eval(train, test, spec, DownstreamConfig(seed=5))
        assert r1 == r2

    def test_report_counts_describe_test_set(self, rng):
        train = synthetic_cases(rng, n=60)
        test = synthetic_cases(rng, n=40)
        report = downstream_eval(train, test, FeatureSetSpec("hc", True, None), DownstreamConfig())
        assert report.positives + report.negatives == 40
        assert report.positives == sum(c.label for c in test)


class TestDownstreamConfigRanges:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("epochs", 0),
            ("batch_size", 0),
            ("learning_rate", -0.01),
            ("learning_rate", 0.0),
            ("learning_rate", math.inf),
            ("learning_rate", math.nan),
            ("threshold", math.inf),
            ("threshold", math.nan),
            ("positive_class_weight", 0.0),
            ("positive_class_weight", -2.0),
            ("positive_class_weight", math.inf),
            ("positive_class_weight", math.nan),
        ],
    )
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            DownstreamConfig(**{name: value})


class TestCompareSettings:
    @staticmethod
    def report(name, auc_value, f1_base):
        precision = recall = f1_base
        f1 = f1_base if f1_base == 0 else 2 * precision * recall / (precision + recall)
        return EvalReport(name, auc_value, precision, recall, f1, 0.5, 10, 20, 0, "t")

    def test_sorts_by_f_score(self):
        ranked = compare_settings([self.report("avg", 0.9, 0.71), self.report("dan", 0.9, 0.735)])
        assert [r.feature_set for r in ranked] == ["dan", "avg"]

    def test_stable_for_identical_reports(self):
        a = self.report("first", 0.9, 0.5)
        b = self.report("second", 0.9, 0.5)
        assert [r.feature_set for r in compare_settings([a, b])] == ["first", "second"]

    def test_auc_breaks_f_ties(self):
        ranked = compare_settings([self.report("lo", 0.7, 0.5), self.report("hi", 0.8, 0.5)])
        assert [r.feature_set for r in ranked] == ["hi", "lo"]

    def test_matches_brute_force_ordering(self, rng):
        reports = [self.report(f"s{i}", float(rng.random()), float(rng.uniform(0.1, 0.9))) for i in range(6)]
        expected = sorted(reports, key=lambda r: (-r.f1, -r.auc))
        assert compare_settings(reports) == expected

    def test_mismatched_test_sets_rejected(self):
        a = self.report("a", 0.9, 0.5)
        b = EvalReport("b", 0.9, 0.5, 0.5, 0.5, 0.5, 11, 20, 0, "t")
        with pytest.raises(ValueError, match="different test set"):
            compare_settings([a, b])

    def test_comparison_file_layout(self, tmp_path):
        path = tmp_path / "comparison.txt"
        write_comparison([self.report("avg", 0.9, 0.71), self.report("dan", 0.95, 0.735)], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split("|")[0].strip() == "Algorithm"
        assert lines[1].startswith("dan")
        assert "AUC" in lines[0] and "F-Score" in lines[0]


class TestBuildDownstreamCases:
    def test_oov_dropped(self, rng):
        table = EmbeddingTable(rng.normal(size=(2, 3)), np.zeros((2, 3)))
        prefixes = [
            LabeledPrefix("t1", (view("A", 0), view("Z", 5)), 0),
            LabeledPrefix("t2", (view("Z", 0),), 1),
        ]
        cases = build_downstream_cases(prefixes, {"A": 0, "B": 1}, table)
        assert len(cases) == 1
        assert cases[0].viewed.shape == (1, 3)
