"""Generate a synthetic clickstream, inspect it, and prepare it for training.

Walks the data layer end to end: corpus generation with planted clusters,
the session-log file format, frequency-based vocabulary pruning, view
subsampling, and the user-disjoint train/test split.
"""

import tempfile
from pathlib import Path

from session2rec.corpus import (
    SyntheticConfig,
    apply_subsampling,
    build_vocabulary,
    generate_synthetic,
    labeled_prefixes,
    load_sessions,
    save_sessions,
    split_by_user,
    subsample_keep_probability,
)

config = SyntheticConfig(
    n_listings=200,
    n_clusters=10,
    n_travelers=2000,
    mean_session_len=8,
    booking_base_rate=0.3,
    seed=42,
)
corpus, truth = generate_synthetic(config)
print(f"generated {len(corpus.sessions)} sessions over {config.n_listings} listings")
print(f"booking rule: {truth.booking_rule}")

bookings = sum(1 for s in corpus.sessions if s.has_booking())
print(f"sessions ending in a booking: {bookings} ({bookings / len(corpus.sessions):.1%})")

sample = corpus.sessions[0]
print(f"\nfirst session ({sample.traveler_key}):")
for it in sample.interactions[:6]:
    print(f"  {it.timestamp}  {it.listing_key}  {it.event_kind}")

# round-trip through the tab-separated log format
with tempfile.TemporaryDirectory() as tmp:
    log_path = Path(tmp) / "sessions.tsv"
    save_sessions(corpus, log_path)
    reloaded = load_sessions(log_path)
    print(f"\nlog round trip: {len(reloaded.sessions)} sessions, equal={reloaded.sessions == corpus.sessions}")

vocabulary = build_vocabulary(corpus, min_count=5)
print(f"\nvocabulary: {len(vocabulary)} listings, {vocabulary.total_views} views")
print("most viewed:", [
    (key, int(vocabulary.counts[i])) for i, key in enumerate(vocabulary.index_to_key[:5])
])

# the keep rule damps frequent listings; rare ones always survive.  It is
# the rule skip-gram training applies, one probability per listing.
keep = subsample_keep_probability(vocabulary.counts, vocabulary.total_views, 1e-3)
print(f"\nkeep probability of the most viewed listing (t=1e-3): {keep[0]:.3f}")
subsampled = apply_subsampling(corpus, vocabulary, threshold=1e-3, seed=0)
before = sum(len(s.views()) for s in corpus.sessions)
after = sum(len(s.views()) for s in subsampled.sessions)
print(f"views before/after subsampling: {before} -> {after}")

train, test = split_by_user(corpus, train_fraction=0.7, seed=0)
train_travelers = set(train.traveler_keys())
test_travelers = set(test.traveler_keys())
print(f"\nuser-disjoint split: {len(train_travelers)} train travelers, "
      f"{len(test_travelers)} test travelers, overlap={len(train_travelers & test_travelers)}")

cases = labeled_prefixes(train)
positives = sum(c.label for c in cases)
print(f"supervised cases on the train side: {len(cases)} ({positives} positive)")
