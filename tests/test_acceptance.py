"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criteria 2, 5, and 8 train at desk scale and dominate the
runtime (the whole suite stays under ~10 minutes on one core).
"""

import hashlib
import json
import time

import numpy as np
import pytest

from session2rec import cli, neural, skipgram
from session2rec.coldstart import (
    DestinationDemand,
    destination_embeddings,
    extrapolate_cold,
)
from session2rec.corpus import (
    SyntheticConfig,
    build_vocabulary,
    generate_synthetic,
    labeled_prefixes,
    split_by_user,
)
from session2rec.evaluation import (
    DownstreamConfig,
    FeatureSetSpec,
    ScoredSet,
    auc,
    build_downstream_cases,
    downstream_eval,
    precision_recall_f1,
)
from session2rec.neural import weighted_bce
from session2rec.skipgram import (
    EmbeddingTable,
    SkipgramConfig,
    embedding_cluster_quality,
    train_embeddings,
)
from session2rec.traveler import (
    TravelerConfig,
    TravelerModel,
    attention_combine,
    build_examples,
    init_params,
    predict_probability,
    train_traveler_model,
    traveler_embedding,
)

from conftest import make_corpus


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_gradient_fidelity():
    started = time.perf_counter()
    results = cli.run_gradcheck(seed=0, rounds=100)
    elapsed = time.perf_counter() - started
    worst = max(results.values())
    expected_kinds = {"dan", "lstm", "lstm_attention", "sgns"}
    ok = set(results) == expected_kinds and worst < 1e-4 and elapsed < 60.0
    report(1, "gradient-fidelity", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_embedding_quality():
    started = time.perf_counter()
    config = SyntheticConfig(
        n_listings=1000, n_clusters=10, n_travelers=10000, mean_session_len=8,
        booking_base_rate=0.3, seed=11,
    )
    corpus, truth = generate_synthetic(config)
    vocabulary = build_vocabulary(corpus, min_count=5)
    table, losses = train_embeddings(corpus, vocabulary, SkipgramConfig(seed=3))
    clusters = np.array([truth.cluster_of_listing[k] for k in vocabulary.index_to_key])
    intra, inter, purity = embedding_cluster_quality(table, clusters)
    elapsed = time.perf_counter() - started

    inversions = [(b - a) / a for a, b in zip(losses, losses[1:]) if b > a]
    loss_ok = len(inversions) <= 1 and all(x <= 0.02 for x in inversions)
    ok = (intra - inter) >= 0.2 and purity >= 0.8 and elapsed < 180.0 and loss_ok
    report(
        2, "embedding-quality", ok,
        f"margin {intra - inter:.3f}, purity {purity:.3f}, {elapsed:.0f}s",
    )


def test_criterion_03_cold_start_exactness():
    rng = np.random.default_rng(303)
    # point mass: destination vector comes back bit-exactly
    vecs = rng.normal(size=(1, 6))
    table = EmbeddingTable(vecs.copy(), np.zeros_like(vecs))
    dest = destination_embeddings(table, DestinationDemand(((0, "A", 1.0),)))
    exact = np.array_equal(extrapolate_cold({"A": 1.0}, dest), vecs[0])

    # random demand tables match the brute-force weighted mean
    brute_ok = True
    hull_ok = True
    for _ in range(20):
        n, d, n_dest = 40, 8, 6
        vectors = rng.normal(size=(n, d))
        table = EmbeddingTable(vectors, np.zeros_like(vectors))
        rows = []
        for listing in range(n):
            w = rng.random(n_dest)
            w /= w.sum()
            rows.extend((listing, f"D{j}", float(w[j])) for j in range(n_dest))
        dest = destination_embeddings(table, DestinationDemand(tuple(rows)))
        for j in range(n_dest):
            num = np.zeros(d)
            den = 0.0
            for listing, name, p in rows:
                if name == f"D{j}":
                    num += p * vectors[listing]
                    den += p
            if not np.allclose(dest.vectors[f"D{j}"], num / den, atol=1e-12):
                brute_ok = False

        w = rng.random(n_dest)
        w /= w.sum()
        belief = {f"D{j}": float(w[j]) for j in range(n_dest)}
        out = extrapolate_cold(belief, dest)
        expected = sum(belief[k] * dest.vectors[k] for k in belief)
        if not np.allclose(out, expected, atol=1e-12):
            brute_ok = False
        stacked = np.vstack([dest.vectors[k] for k in belief])
        if not (np.all(out >= stacked.min(axis=0) - 1e-12) and np.all(out <= stacked.max(axis=0) + 1e-12)):
            hull_ok = False

    report(3, "cold-start-exactness", exact and brute_ok and hull_ok,
           f"point-mass exact={exact}, brute-force ok={brute_ok}, hull ok={hull_ok}")


def test_criterion_04_metric_oracle_equivalence():
    rng = np.random.default_rng(404)
    auc_ok = prf_ok = True
    for trial in range(100):
        n = int(rng.integers(10, 1001))
        if trial % 3 == 0:
            scores = rng.choice(np.linspace(0, 1, 7), size=n)  # heavy ties
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scored = ScoredSet(scores, labels)

        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        if abs(auc(scored) - oracle) > 1e-9:
            auc_ok = False

        threshold = float(rng.random())
        tp = int(np.sum((scores >= threshold) & (labels == 1)))
        fp = int(np.sum((scores >= threshold) & (labels == 0)))
        fn = int(np.sum((scores < threshold) & (labels == 1)))
        precision, recall, f1 = precision_recall_f1(scored, threshold)
        expected_p = tp / (tp + fp) if tp + fp else 0.0
        expected_r = tp / (tp + fn) if tp + fn else 0.0
        expected_f = (
            2 * expected_p * expected_r / (expected_p + expected_r)
            if expected_p + expected_r else 0.0
        )
        if (precision, recall, f1) != (expected_p, expected_r, expected_f):
            prf_ok = False
    report(4, "metric-oracle-equivalence", auc_ok and prf_ok,
           f"auc ok={auc_ok}, prf exact={prf_ok}")


def test_criterion_05_directional_uplift():
    started = time.perf_counter()
    wins_over_handcrafted = 0
    wins_over_averaging = 0
    model_level_wins = 0
    aucs = []
    for seed in (1, 2, 3, 4, 5):
        config = SyntheticConfig(
            n_listings=200, n_clusters=10, n_travelers=2500, mean_session_len=8,
            booking_base_rate=0.3, seed=seed,
        )
        corpus, _ = generate_synthetic(config)
        vocabulary = build_vocabulary(corpus, min_count=5)
        table, _ = train_embeddings(
            corpus, vocabulary, SkipgramConfig(dim=16, epochs=10, seed=seed)
        )
        train_corpus, test_corpus = split_by_user(corpus, 0.7, seed)
        train_prefixes = labeled_prefixes(train_corpus)
        test_prefixes = labeled_prefixes(test_corpus)
        train_cases = build_downstream_cases(train_prefixes, vocabulary.key_to_index, table)
        test_cases = build_downstream_cases(test_prefixes, vocabulary.key_to_index, table)

        traveler_config = TravelerConfig(
            input_dim=16, hidden_expand=32, hidden_contract=12, embedding_dim=6,
            lstm_hidden=8, epochs=40, batch_size=64, learning_rate=2e-3, seed=seed,
        )
        examples = build_examples(train_prefixes, vocabulary.key_to_index, table)
        dan, _ = train_traveler_model(examples, "dan", traveler_config, {"split": "train"})
        avg, _ = train_traveler_model(examples, "average", traveler_config, {"split": "train"})

        downstream = DownstreamConfig(seed=seed)
        auc_handcrafted = downstream_eval(
            train_cases, test_cases, FeatureSetSpec("handcrafted", True, None), downstream
        ).auc
        auc_dan = downstream_eval(
            train_cases, test_cases, FeatureSetSpec("handcrafted+dan", True, dan), downstream
        ).auc
        auc_avg = downstream_eval(
            train_cases, test_cases, FeatureSetSpec("handcrafted+average", True, avg), downstream
        ).auc
        aucs.append((auc_handcrafted, auc_dan, auc_avg))
        wins_over_handcrafted += auc_dan >= auc_handcrafted
        wins_over_averaging += auc_dan >= auc_avg

        # model-level capacity ordering on held-out travelers
        test_examples = build_examples(test_prefixes, vocabulary.key_to_index, table)
        labels = np.array([ex.label for ex in test_examples])
        dan_own = auc(ScoredSet(
            np.array([predict_probability(dan, ex.viewed) for ex in test_examples]), labels
        ))
        avg_own = auc(ScoredSet(
            np.array([predict_probability(avg, ex.viewed) for ex in test_examples]), labels
        ))
        model_level_wins += dan_own >= avg_own
    elapsed = time.perf_counter() - started
    ok = wins_over_handcrafted >= 4 and wins_over_averaging >= 4 and model_level_wins >= 4
    detail = (
        f"dan>=handcrafted {wins_over_handcrafted}/5, dan>=averaging {wins_over_averaging}/5, "
        f"model-level dan>=averaging {model_level_wins}/5, {elapsed:.0f}s; "
        f"aucs={[tuple(round(x, 3) for x in row) for row in aucs]}"
    )
    report(5, "directional-uplift", ok, detail)


def test_criterion_06_split_hygiene():
    rng = np.random.default_rng(606)
    overlaps = 0
    off_target = 0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        corpus = make_corpus([(f"t{i:03d}", [("A", 0), ("B", 1)]) for i in range(n)])
        train, test = split_by_user(corpus, 0.7, seed=int(rng.integers(2**31)))
        train_keys = set(train.traveler_keys())
        test_keys = set(test.traveler_keys())
        if train_keys & test_keys:
            overlaps += 1
        if abs(len(train_keys) - round(0.7 * n)) > 1:
            off_target += 1
    report(6, "split-hygiene", overlaps == 0 and off_target == 0,
           f"{overlaps} overlaps, {off_target} off-target of 1000")


def test_criterion_07_subsampling_law(monkeypatch):
    # listings A and B each hold half the views: f_rel = 0.5 = 4t at t = 0.125
    sessions = []
    for s in range(1000):
        sessions.append((f"a{s}", [("A", i) for i in range(100)]))
        sessions.append((f"b{s}", [("B", i) for i in range(100)]))
    corpus = make_corpus(sessions)
    vocabulary = build_vocabulary(corpus, min_count=1)
    # count the views one epoch of training keeps, where it enumerates pairs
    kept, window_pairs = [], skipgram._window_pairs

    def recording(indices, session_ids, window):
        kept.append(np.count_nonzero(indices == vocabulary.key_to_index["A"]))
        return window_pairs(indices, session_ids, window)

    monkeypatch.setattr(skipgram, "_window_pairs", recording)
    train_embeddings(
        corpus, vocabulary, SkipgramConfig(dim=2, window=1, epochs=1, subsample_threshold=0.125, seed=7)
    )
    rate = sum(kept) / 100_000
    report(7, "subsampling-law", len(kept) == 1 and abs(rate - 0.5) < 0.02, f"keep rate {rate:.4f}")


def test_criterion_08_relative_cost_and_pipeline(tmp_path):
    # per-epoch cost: DAN must be cheaper than LSTM+attention on the same data
    config = SyntheticConfig(
        n_listings=200, n_clusters=10, n_travelers=2000, mean_session_len=8,
        booking_base_rate=0.3, seed=1,
    )
    corpus, _ = generate_synthetic(config)
    vocabulary = build_vocabulary(corpus, min_count=5)
    table, _ = train_embeddings(corpus, vocabulary, SkipgramConfig(dim=16, epochs=2, seed=1))
    examples = build_examples(labeled_prefixes(corpus), vocabulary.key_to_index, table)
    traveler_config = TravelerConfig(
        input_dim=16, hidden_expand=32, hidden_contract=12, embedding_dim=6,
        lstm_hidden=8, epochs=2, batch_size=64, seed=1,
    )
    _, dan_trace = train_traveler_model(examples, "dan", traveler_config)
    _, lstm_trace = train_traveler_model(examples, "lstm_attention", traveler_config)
    dan_ms = np.mean([entry.wall_ms for entry in dan_trace])
    lstm_ms = np.mean([entry.wall_ms for entry in lstm_trace])

    # full pipeline at desk scale on one core
    pipeline_config = {
        "seed": 11,
        "corpus": {"n_listings": 1000, "n_clusters": 10, "n_travelers": 10000,
                   "mean_session_len": 8, "booking_base_rate": 0.3},
        "skipgram": {"dim": 32},
        "traveler": {"epochs": 20},
        "eval": {"settings": ["handcrafted", "dan"], "epochs": 40},
    }
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps(pipeline_config))
    started = time.perf_counter()
    code = cli.main(["--config", str(config_path), "pipeline"])
    elapsed = time.perf_counter() - started

    ok = dan_ms < lstm_ms and code == 0 and elapsed < 600.0
    report(8, "relative-cost", ok,
           f"dan {dan_ms:.0f}ms/epoch vs lstm+attention {lstm_ms:.0f}ms/epoch; "
           f"pipeline exit {code} in {elapsed:.0f}s")


def test_criterion_09_determinism(tmp_path):
    config = {
        "seed": 5,
        "corpus": {"n_listings": 30, "n_clusters": 3, "n_travelers": 150,
                   "mean_session_len": 6, "booking_base_rate": 0.35},
        "skipgram": {"dim": 8, "window": 2, "negatives": 3, "epochs": 2,
                     "min_count": 1, "subsample_threshold": 0.1},
        "coldstart": {"demand_file": "demand.csv", "centroids_file": "centroids.csv",
                      "cold_listings_file": "cold.csv"},
        "traveler": {"epochs": 3, "batch_size": 16, "hidden_expand": 12,
                     "hidden_contract": 6, "embedding_dim": 4, "lstm_hidden": 4},
        "eval": {"settings": ["handcrafted", "dan"], "epochs": 5},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    base = ["--config", str(config_path)]

    assert cli.main(base + ["generate"]) == 0
    first_key = (tmp_path / "sessions.tsv").read_text().split("\t", 1)[0]
    (tmp_path / "demand.csv").write_text(
        "listing_key,destination_id,proportion\nL000000,north,1.0\n"
    )
    (tmp_path / "centroids.csv").write_text(
        "destination_id,latitude,longitude\nnorth,45.0,0.0\n"
    )
    (tmp_path / "cold.csv").write_text("listing_key,latitude,longitude\nCOLD,44.0,1.0\n")
    (tmp_path / "reports").mkdir()
    del first_key

    stages = [
        ("generate", ["generate"], ["sessions.tsv", "clusters.tsv"]),
        ("train-embeddings", ["train-embeddings"], ["embeddings.txt", "embeddings.s2re"]),
        ("coldstart", ["coldstart"], ["embeddings.txt"]),
        ("train-traveler", ["train-traveler", "--kind", "dan"], ["traveler_dan.json"]),
        ("evaluate", ["evaluate", "--settings", "handcrafted,dan"],
         ["reports/handcrafted.json", "reports/dan.json", "comparison.txt"]),
        # every stage again; the traveler kinds come from eval.settings
        ("pipeline", ["pipeline"],
         ["sessions.tsv", "clusters.tsv", "embeddings.txt", "embeddings.s2re", "traveler_dan.json",
          "reports/handcrafted.json", "reports/dan.json", "comparison.txt"]),
    ]
    mismatches = []
    for name, args, artifacts in stages:
        hashes = []
        for _ in range(2):
            # coldstart appends: restore the pre-coldstart file before each run
            if name == "coldstart":
                text = (tmp_path / "embeddings.txt").read_text()
                marker = text.find("#coldstart")
                if marker != -1:
                    (tmp_path / "embeddings.txt").write_text(text[:marker])
            assert cli.main(base + args) == 0, name
            hashes.append(
                tuple(hashlib.sha256((tmp_path / a).read_bytes()).hexdigest() for a in artifacts)
            )
        if hashes[0] != hashes[1]:
            mismatches.append(name)
    report(9, "determinism", not mismatches,
           f"mismatched stages: {mismatches or 'none'}")


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(1010)

    # DAN and averaging are order-invariant to 1e-12
    invariance_ok = True
    for kind in ("dan", "average"):
        config = TravelerConfig(
            input_dim=6, hidden_expand=9, hidden_contract=4, embedding_dim=3, lstm_hidden=4,
            seed=2,
        )
        model = TravelerModel(kind, init_params(kind, config, rng), input_dim=6)
        viewed = rng.normal(size=(8, 6))
        prob = predict_probability(model, viewed)
        emb = traveler_embedding(model, viewed)
        for _ in range(20):
            shuffled = viewed[rng.permutation(8)]
            if abs(predict_probability(model, shuffled) - prob) > 1e-12:
                invariance_ok = False
            if not np.allclose(traveler_embedding(model, shuffled), emb, atol=1e-12):
                invariance_ok = False

    # attention weights: normalized, and uniform on identical states
    attention_ok = True
    for _ in range(20):
        d_h = int(rng.integers(2, 6))
        score = rng.normal(size=d_h)
        states = rng.normal(size=(int(rng.integers(1, 9)), d_h))
        _, weights = attention_combine(score, states)
        if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
            attention_ok = False
        t = int(rng.integers(1, 9))
        identical = np.tile(rng.normal(size=d_h), (t, 1))
        _, uniform = attention_combine(score, identical)
        if not np.allclose(uniform, 1.0 / t, atol=1e-12):
            attention_ok = False

    # weighted BCE at w+ = 1 is exactly the unweighted loss
    bce_ok = True
    for _ in range(200):
        p = float(rng.uniform(1e-4, 1 - 1e-4))
        y = int(rng.integers(2))
        loss, _ = weighted_bce(p, y, 1.0)
        reference = -np.log(p) if y == 1 else -np.log1p(-p)
        if loss != reference:
            bce_ok = False

    report(10, "invariance-suite", invariance_ok and attention_ok and bce_ok,
           f"permutation ok={invariance_ok}, attention ok={attention_ok}, bce exact={bce_ok}")
