"""Session data model, synthetic clickstream generation, vocabulary, and splits.

The session log is the raw input of the whole toolkit: ordered per-traveler
sequences of listing views that may end in a booking.  Because production
clickstream data cannot ship with the code, :func:`generate_synthetic`
produces corpora with a known cluster structure and a known booking rule, so
every downstream stage can be checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError

EVENT_KINDS = ("view", "book")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def views(self) -> tuple[Interaction, ...]:
        return tuple(it for it in self.interactions if it.event_kind == "view")

    def has_booking(self) -> bool:
        return any(it.event_kind == "book" for it in self.interactions)


@dataclass(frozen=True)
class SessionCorpus:
    sessions: tuple[Session, ...]
    metadata: dict = field(default_factory=dict)

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

    def __contains__(self, key: str) -> bool:
        return key in self.key_to_index


@dataclass(frozen=True)
class SyntheticGroundTruth:
    """Latent structure behind a synthetic corpus, for oracle checks."""

    cluster_of_listing: dict[str, int]
    cluster_count: int
    booking_rule: str


@dataclass(frozen=True)
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
    n_listings: int
    n_clusters: int
    n_travelers: int
    mean_session_len: float
    booking_base_rate: float
    seed: int
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

    p_home = 1.0 if k == 1 else 1.0 - config.epsilon
    base_logit = math.log(config.booking_base_rate / (1.0 - config.booking_base_rate))

    sessions = []
    t0 = 1_600_000_000_000  # fixed epoch-ms origin
    for ti in range(config.n_travelers):
        home = int(rng.integers(k))
        away = np.flatnonzero(cluster_of_index != home)
        for si in range(config.sessions_per_traveler):
            length = max(1, int(rng.poisson(config.mean_session_len)))
            if k == 1:
                listing_idx = rng.choice(members[home], size=length)
            else:
                from_home = rng.random(length) >= config.epsilon
                listing_idx = np.where(
                    from_home,
                    rng.choice(members[home], size=length),
                    rng.choice(away, size=length),
                )
            gaps = rng.integers(5_000, 120_000, size=length)
            start = t0 + ti * 86_400_000 + si * 3_600_000
            stamps = start + np.cumsum(gaps)

            interactions = [
                Interaction(_listing_key(int(li)), int(ts), "view")
                for li, ts in zip(listing_idx, stamps)
            ]
            home_views = int(np.sum(cluster_of_index[listing_idx] == home))
            z = base_logit + config.booking_slope * (home_views - p_home * length)
            if rng.random() < 1.0 / (1.0 + math.exp(-z)):
                home_mask = cluster_of_index[listing_idx] == home
                pick = int(np.flatnonzero(home_mask)[-1]) if home_mask.any() else length - 1
                booked = _listing_key(int(listing_idx[pick]))
                interactions.append(
                    Interaction(booked, int(stamps[-1] + rng.integers(10_000, 300_000)), "book")
                )
            sessions.append(Session(_traveler_key(ti), tuple(interactions)))

    truth = SyntheticGroundTruth(
        cluster_of_listing={_listing_key(i): int(cluster_of_index[i]) for i in range(v)},
        cluster_count=k,
        booking_rule=(
            "p_book = sigmoid(logit(base_rate) + "
            f"{config.booking_slope} * (home_cluster_views - {p_home:.6f} * session_len)); "
            "booked listing = last home-cluster view, else last view"
        ),
    )
    metadata = {
        "source": "synthetic",
        "n_listings": str(v),
        "n_clusters": str(k),
        "n_travelers": str(config.n_travelers),
        "seed": str(config.seed),
    }
    return SessionCorpus(tuple(sessions), metadata), truth


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
    """
    groups: dict[tuple[str, str], list[Interaction]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
            traveler, sid, ts, listing, kind = parts
            if kind not in EVENT_KINDS:
                raise ParseError(f"line {lineno}: unknown event_kind {kind!r}")
            try:
                timestamp = int(ts)
            except ValueError:
                raise ParseError(f"line {lineno}: bad timestamp {ts!r}") from None
            if timestamp < 0:
                raise ParseError(f"line {lineno}: negative timestamp")
            groups.setdefault((traveler, sid), []).append(Interaction(listing, timestamp, kind))
    if not groups:
        raise ParseError("no sessions")
    sessions = tuple(Session(traveler, tuple(items)) for (traveler, _), items in groups.items())
    return SessionCorpus(sessions, {"source": str(path)})


def save_ground_truth(truth: SyntheticGroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# clusters={truth.cluster_count}\n")
        fh.write(f"# rule={truth.booking_rule}\n")
        for key in sorted(truth.cluster_of_listing):
            fh.write(f"{key}\t{truth.cluster_of_listing[key]}\n")


def load_ground_truth(path) -> SyntheticGroundTruth:
    clusters: dict[str, int] = {}
    rule = ""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# rule="):
                    rule = line[len("# rule=") :]
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'listing_key<TAB>cluster_id'")
            clusters[parts[0]] = int(parts[1])
    if not clusters:
        raise ParseError("no ground-truth rows")
    count = max(clusters.values()) + 1
    return SyntheticGroundTruth(clusters, count, rule)


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


def apply_subsampling(
    corpus: SessionCorpus, vocabulary: Vocabulary, threshold: float, seed: int
) -> SessionCorpus:
    """Drop view occurrences of frequent listings; bookings always survive.

    Each in-vocabulary view is kept independently with
    :func:`subsample_keep_probability`.  Out-of-vocabulary views pass through
    untouched (they are skipped later anyway).  Sessions left empty are
    removed.
    """
    rng = np.random.default_rng(seed)
    keep_prob = subsample_keep_probability(vocabulary.counts, vocabulary.total_views, threshold)
    sessions = []
    for session in corpus.sessions:
        kept = []
        for it in session.interactions:
            if it.event_kind != "view":
                kept.append(it)
                continue
            idx = vocabulary.key_to_index.get(it.listing_key)
            if idx is None or rng.random() < keep_prob[idx]:
                kept.append(it)
        if kept:
            sessions.append(Session(session.traveler_key, tuple(kept)))
    if not sessions:
        raise ValueError("subsampling removed every session")
    return SessionCorpus(tuple(sessions), dict(corpus.metadata))


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
    meta = dict(corpus.metadata)
    return (
        SessionCorpus(train, {**meta, "split": "train"}),
        SessionCorpus(test, {**meta, "split": "test"}),
    )


def labeled_prefixes(corpus: SessionCorpus, max_views: int = 50) -> list[LabeledPrefix]:
    """Extract one supervised case per session.

    The prefix holds the views preceding the first booking (all views when
    the session has none), truncated to the ``max_views`` most recent.
    Sessions without any view are skipped.
    """
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
