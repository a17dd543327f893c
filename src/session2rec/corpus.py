"""Session data model, synthetic clickstream generation, vocabulary, and splits.

The session log is the raw input of the whole toolkit: ordered per-traveler
sequences of listing views that may end in a booking.  Because production
clickstream data cannot ship with the code, :func:`generate_synthetic`
produces corpora with a known cluster structure and a known booking rule, so
every downstream stage can be checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, bad_listing_key, open_utf8

EVENT_KINDS = ("view", "book")


@dataclass(frozen=True, slots=True)
class Interaction:
    """One traveler/listing event: a detail-page view or a booking request."""

    listing_key: str
    timestamp: int
    event_kind: str

    def __post_init__(self):
        if self.event_kind not in EVENT_KINDS:
            raise ValueError(f"unknown event_kind {self.event_kind!r}")
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


@dataclass(frozen=True, slots=True)
class Session:
    """Ordered interactions of one traveler within one visit.

    Interactions are stably sorted by timestamp on construction, so ties keep
    their input order.
    """

    traveler_key: str
    interactions: tuple[Interaction, ...]

    def __post_init__(self):
        if not self.interactions:
            raise ValueError("session must contain at least one interaction")
        ordered = tuple(sorted(self.interactions, key=lambda it: it.timestamp))
        object.__setattr__(self, "interactions", ordered)


@dataclass(frozen=True)
class SessionCorpus:
    sessions: tuple[Session, ...]

    def __post_init__(self):
        if not self.sessions:
            raise ValueError("corpus must contain at least one session")

    def traveler_keys(self) -> list[str]:
        """Distinct traveler keys in first-seen order."""
        seen: dict[str, None] = {}
        for session in self.sessions:
            seen.setdefault(session.traveler_key, None)
        return list(seen)


@dataclass(frozen=True)
class Vocabulary:
    """Dense index space over listings that survived frequency pruning.

    ``counts[i]`` is the number of view events of listing ``index_to_key[i]``
    in the corpus the vocabulary was built from.  Indices are assigned by
    descending view count, ties broken by lexicographic key.
    """

    key_to_index: dict[str, int]
    index_to_key: tuple[str, ...]
    counts: np.ndarray
    total_views: int

    def __post_init__(self):
        if len(self.key_to_index) != len(self.index_to_key):
            raise ValueError("key_to_index and index_to_key disagree")
        if int(self.counts.sum()) != self.total_views:
            raise ValueError("total_views must equal the sum of counts")

    def __len__(self) -> int:
        return len(self.index_to_key)


@dataclass(frozen=True)
class SyntheticGroundTruth:
    """Latent structure behind a synthetic corpus, for oracle checks."""

    cluster_of_listing: dict[str, int]
    cluster_count: int
    booking_rule: str


@dataclass(frozen=True, slots=True)
class LabeledPrefix:
    """Per-session supervised case: the views before the label event.

    ``label`` is 1 when the session contains a booking; the prefix holds the
    views that precede the first booking (all views for non-booked sessions).
    """

    traveler_key: str
    views: tuple[Interaction, ...]
    label: int


@dataclass(frozen=True)
class SyntheticConfig:
    n_listings: int = 1000
    n_clusters: int = 10
    n_travelers: int = 10000
    mean_session_len: float = 8
    booking_base_rate: float = 0.3
    seed: int = 0
    epsilon: float = 0.1
    booking_slope: float = 2.0
    sessions_per_traveler: int = 1

    def __post_init__(self):
        if self.n_listings < 1:
            raise ConfigError("n_listings must be >= 1")
        if not 1 <= self.n_clusters <= self.n_listings:
            raise ConfigError("n_clusters must be in [1, n_listings]")
        if self.n_travelers < 1:
            raise ConfigError("n_travelers must be >= 1")
        if self.mean_session_len < 1:
            raise ConfigError("mean_session_len must be >= 1")
        if not 0.0 < self.booking_base_rate < 1.0:
            raise ConfigError("booking_base_rate must be in (0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if self.sessions_per_traveler < 1:
            raise ConfigError("sessions_per_traveler must be >= 1")


def _listing_key(i: int) -> str:
    return f"L{i:06d}"


def _traveler_key(i: int) -> str:
    return f"T{i:06d}"


def generate_synthetic(config: SyntheticConfig) -> tuple[SessionCorpus, SyntheticGroundTruth]:
    """Generate a clickstream corpus with planted cluster structure.

    Every traveler draws a home cluster.  Each view comes from the home
    cluster with probability ``1 - epsilon``, otherwise uniformly from the
    listings outside it (with a single cluster every view is a home view).
    A session ends with a booking with probability
    ``sigmoid(logit(base_rate) + slope * (home_views - expected_home_views))``,
    so booking propensity increases with the count of home-cluster views.
    The booked listing is the most recent home-cluster view (the last view
    when none is from the home cluster).

    Identical config (seed included) yields identical output.
    """
    rng = np.random.default_rng(config.seed)
    v, k = config.n_listings, config.n_clusters
    # Round-robin assignment keeps cluster sizes equal whenever K divides V.
    cluster_of_index = np.arange(v) % k
    members = [np.flatnonzero(cluster_of_index == c) for c in range(k)]
    outside = [np.flatnonzero(cluster_of_index != c) for c in range(k)]

    p_home = 1.0 if k == 1 else 1.0 - config.epsilon
    base_logit = math.log(config.booking_base_rate / (1.0 - config.booking_base_rate))

    keys = [_listing_key(i) for i in range(v)]  # every event of a listing shares its key string
    sessions = []
    t0 = 1_600_000_000_000  # fixed epoch-ms origin
    for ti in range(config.n_travelers):
        traveler = _traveler_key(ti)
        home = int(rng.integers(k))
        own, away = members[home], outside[home]
        for si in range(config.sessions_per_traveler):
            length = max(1, int(rng.poisson(config.mean_session_len)))
            # a[rng.integers(len(a), size=n)] is rng.choice(a, size=n): the same draws, faster
            if k == 1:
                listing_idx = own[rng.integers(len(own), size=length)]
            else:
                from_home = rng.random(length) >= config.epsilon
                listing_idx = np.where(
                    from_home,
                    own[rng.integers(len(own), size=length)],
                    away[rng.integers(len(away), size=length)],
                )
            gaps = rng.integers(5_000, 120_000, size=length)
            start = t0 + ti * 86_400_000 + si * 3_600_000
            stamps = start + np.cumsum(gaps)

            interactions = [
                Interaction(keys[li], ts, "view") for li, ts in zip(listing_idx.tolist(), stamps.tolist())
            ]
            home_mask = cluster_of_index[listing_idx] == home
            home_views = int(np.count_nonzero(home_mask))
            z = base_logit + config.booking_slope * (home_views - p_home * length)
            if rng.random() < 1.0 / (1.0 + math.exp(-z)):
                pick = int(np.flatnonzero(home_mask)[-1]) if home_views else length - 1
                booked = keys[listing_idx[pick]]
                interactions.append(
                    Interaction(booked, int(stamps[-1] + rng.integers(10_000, 300_000)), "book")
                )
            sessions.append(Session(traveler, tuple(interactions)))

    truth = SyntheticGroundTruth(
        cluster_of_listing={key: int(c) for key, c in zip(keys, cluster_of_index)},
        cluster_count=k,
        booking_rule=(
            "p_book = sigmoid(logit(base_rate) + "
            f"{config.booking_slope} * (home_cluster_views - {p_home:.6f} * session_len)); "
            "booked listing = last home-cluster view, else last view"
        ),
    )
    return SessionCorpus(tuple(sessions)), truth


def save_sessions(corpus: SessionCorpus, path) -> None:
    """Write the tab-separated session log.

    One interaction per line: ``traveler_key  session_id  timestamp_ms
    listing_key  event_kind``.  Session ids are assigned per traveler in
    corpus order, so a round trip through :func:`load_sessions` preserves
    session boundaries.
    """
    next_id: dict[str, int] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for session in corpus.sessions:
            sid = next_id.get(session.traveler_key, 0)
            next_id[session.traveler_key] = sid + 1
            for it in session.interactions:
                fh.write(
                    f"{session.traveler_key}\t{sid}\t{it.timestamp}\t{it.listing_key}\t{it.event_kind}\n"
                )


def load_sessions(path) -> SessionCorpus:
    """Parse a session log; lines starting with ``#`` are comments.

    Records are grouped by (traveler_key, session_id) with interactions
    stably sorted by timestamp.  Sessions appear in first-seen order.
    ParseError names the file and line of a malformed record, including a
    listing key the embedding text format cannot hold.  Equal listing keys
    share one string, and each event kind is the ``EVENT_KINDS`` member.
    """
    groups: dict[tuple[str, str], list[Interaction]] = {}
    listings: dict[str, str] = {}  # first string of each key already checked
    kinds = {kind: kind for kind in EVENT_KINDS}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"{path}: line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
            traveler, sid, ts, listing, kind = parts
            event_kind = kinds.get(kind)
            if event_kind is None:
                raise ParseError(f"{path}: line {lineno}: unknown event_kind {kind!r}")
            try:
                timestamp = int(ts)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad timestamp {ts!r}") from None
            if timestamp < 0:
                raise ParseError(f"{path}: line {lineno}: negative timestamp")
            key = listings.get(listing)
            if key is None:
                if bad_listing_key(listing):
                    raise ParseError(f"{path}: line {lineno}: bad listing key {listing!r}")
                key = listings[listing] = listing
            groups.setdefault((traveler, sid), []).append(Interaction(key, timestamp, event_kind))
    if not groups:
        raise ParseError(f"{path}: no sessions")
    sessions = tuple(Session(traveler, tuple(items)) for (traveler, _), items in groups.items())
    return SessionCorpus(sessions)


def save_ground_truth(truth: SyntheticGroundTruth, path) -> None:
    """Cluster count and booking rule as ``#`` lines, then one
    ``listing_key<TAB>cluster_id`` row per listing.  No stage reads it, so
    there is no loader."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# clusters={truth.cluster_count}\n")
        fh.write(f"# rule={truth.booking_rule}\n")
        for key in sorted(truth.cluster_of_listing):
            fh.write(f"{key}\t{truth.cluster_of_listing[key]}\n")


def build_vocabulary(corpus: SessionCorpus, min_count: int = 5) -> Vocabulary:
    """Count view events per listing and prune rare listings.

    Only view events count; bookings are the supervised target downstream and
    never influence pruning.  Indices go to the most viewed listings first,
    ties broken lexicographically so construction is deterministic.
    """
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    tally: dict[str, int] = {}
    for session in corpus.sessions:
        for it in session.interactions:
            if it.event_kind == "view":
                tally[it.listing_key] = tally.get(it.listing_key, 0) + 1
    kept = [(key, n) for key, n in tally.items() if n >= min_count]
    if not kept:
        raise ConfigError("vocabulary empty")
    kept.sort(key=lambda kv: (-kv[1], kv[0]))
    index_to_key = tuple(key for key, _ in kept)
    counts = np.array([n for _, n in kept], dtype=np.int64)
    return Vocabulary(
        key_to_index={key: i for i, key in enumerate(index_to_key)},
        index_to_key=index_to_key,
        counts=counts,
        total_views=int(counts.sum()),
    )


def subsample_keep_probability(counts, total_views: int, threshold: float):
    """Keep probability ``min(1, sqrt(t / f_rel))`` per view of a listing.

    ``counts`` is one listing's view count or an array of them, and
    ``f_rel = count / total_views`` a listing's share of all views; the rule
    damps frequent listings with the inverse square root of that share and
    never exceeds 1.  Returns one probability per count.
    """
    counts = np.asarray(counts)
    if (counts < 1).any():
        raise ValueError("counts must be >= 1")
    if (counts > total_views).any():
        raise ValueError("total_views must be >= every count")
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    return np.minimum(1.0, np.sqrt(threshold * total_views / counts))


def split_by_user(
    corpus: SessionCorpus, train_fraction: float, seed: int
) -> tuple[SessionCorpus, SessionCorpus]:
    """Partition sessions so each traveler lands wholly on one side.

    The train side receives ``round(train_fraction * n_travelers)`` travelers,
    chosen by a seeded shuffle of the sorted traveler keys.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must be in (0, 1)")
    travelers = sorted(set(corpus.traveler_keys()))
    if len(travelers) < 2:
        raise ValueError("need at least 2 distinct travelers to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(travelers))
    n_train = int(round(train_fraction * len(travelers)))
    n_train = min(max(n_train, 1), len(travelers) - 1)
    train_set = {travelers[i] for i in order[:n_train]}
    train = tuple(s for s in corpus.sessions if s.traveler_key in train_set)
    test = tuple(s for s in corpus.sessions if s.traveler_key not in train_set)
    return SessionCorpus(train), SessionCorpus(test)


def labeled_prefixes(corpus: SessionCorpus, max_views: int = 50) -> list[LabeledPrefix]:
    """Extract one supervised case per session.

    The prefix holds the views preceding the first booking (all views when
    the session has none), truncated to the ``max_views`` most recent.
    Sessions without any view are skipped.  ConfigError unless ``max_views``
    is at least 1.
    """
    if max_views < 1:
        raise ConfigError("max_prefix_views must be >= 1")
    cases = []
    for session in corpus.sessions:
        views: list[Interaction] = []
        label = 0
        for it in session.interactions:
            if it.event_kind == "book":
                label = 1
                break
            views.append(it)
        if not views:
            continue
        cases.append(LabeledPrefix(session.traveler_key, tuple(views[-max_views:]), label))
    return cases
