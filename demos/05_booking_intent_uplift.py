"""Measure the booking-intent uplift of traveler embeddings.

Protocol: split travelers 70:30, train listing embeddings and traveler
models on the train side only, then fit a logistic downstream classifier on
hand-crafted session features with and without concatenated traveler
embeddings, and compare metrics on the held-out travelers.
"""

import numpy as np

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
    compare_settings,
    downstream_eval,
)
from session2rec.skipgram import SkipgramConfig, train_embeddings
from session2rec.traveler import (
    TravelerConfig,
    TravelerModel,
    build_examples,
    train_traveler_model,
)

seed = 1
corpus, _ = generate_synthetic(SyntheticConfig(
    n_listings=200, n_clusters=10, n_travelers=2500, mean_session_len=8,
    booking_base_rate=0.3, seed=seed,
))
vocabulary = build_vocabulary(corpus, min_count=5)
table, _ = train_embeddings(corpus, vocabulary, SkipgramConfig(dim=16, epochs=10, seed=seed))

train_corpus, test_corpus = split_by_user(corpus, 0.7, seed)
train_prefixes = labeled_prefixes(train_corpus)
test_prefixes = labeled_prefixes(test_corpus)
# one example list per side feeds both the traveler models and the classifier
train_cases = build_examples(train_prefixes, vocabulary.key_to_index, table)
test_cases = build_examples(test_prefixes, vocabulary.key_to_index, table)
print(f"{len(train_cases)} train cases, {len(test_cases)} test cases")

traveler_config = TravelerConfig(
    input_dim=16, hidden_expand=32, hidden_contract=12, embedding_dim=6,
    lstm_hidden=8, epochs=40, batch_size=64, learning_rate=2e-3, seed=seed,
)
dan, _ = train_traveler_model(train_cases, "dan", traveler_config, {"split": "train"})
average, _ = train_traveler_model(train_cases, "average", traveler_config, {"split": "train"})
random_baseline = TravelerModel(
    "random", None, input_dim=16, seed=seed, provenance={"split": "train"}
)

settings = [
    FeatureSetSpec("handcrafted", True, None),
    FeatureSetSpec("handcrafted+random", True, random_baseline),
    FeatureSetSpec("handcrafted+average", True, average),
    FeatureSetSpec("handcrafted+dan", True, dan),
    FeatureSetSpec("dan_only", False, dan),
]
downstream = DownstreamConfig(seed=seed)
reports = [downstream_eval(train_cases, test_cases, spec, downstream) for spec in settings]

print(f"\n{'setting':<22} {'AUC':>7} {'Prec':>7} {'Rec':>7} {'F':>7}")
for r in compare_settings(reports):
    print(f"{r.feature_set:<22} {r.auc:>7.4f} {r.precision:>7.4f} {r.recall:>7.4f} {r.f1:>7.4f}")

base = next(r for r in reports if r.feature_set == "handcrafted")
best = next(r for r in reports if r.feature_set == "handcrafted+dan")
print(f"\nuplift from concatenating the deep-average traveler embedding: "
      f"AUC {base.auc:.4f} -> {best.auc:.4f}")
