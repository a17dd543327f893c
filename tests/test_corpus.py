import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from session2rec.corpus import (
    Interaction,
    Session,
    SessionCorpus,
    SyntheticConfig,
    apply_subsampling,
    build_vocabulary,
    generate_synthetic,
    labeled_prefixes,
    load_ground_truth,
    load_sessions,
    save_ground_truth,
    save_sessions,
    split_by_user,
    subsample_keep_probability,
)
from session2rec.errors import ConfigError, ParseError

from conftest import make_corpus


def same_cluster_coview_rate(config: SyntheticConfig) -> float:
    """Oracle of the generator: closed-form probability that two views in
    one session share a cluster.

    Each view lands in the home cluster with probability ``1 - eps`` and in
    each of the other K - 1 clusters with probability ``eps / (K - 1)``;
    views are independent given the session.  Exact when ``n_listings`` is a
    multiple of ``n_clusters``.
    """
    eps, k = config.epsilon, config.n_clusters
    if k == 1:
        return 1.0
    return (1.0 - eps) ** 2 + eps**2 / (k - 1)


class TestDataModel:
    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="event_kind"):
            Interaction("A", 0, "click")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Interaction("A", -1, "view")

    def test_session_sorts_by_timestamp_stably(self):
        a, b, c = Interaction("A", 5, "view"), Interaction("B", 3, "view"), Interaction("C", 3, "view")
        session = Session("t", (a, b, c))
        # B and C tie at 3 and keep input order; A follows
        assert [it.listing_key for it in session.interactions] == ["B", "C", "A"]

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            Session("t", ())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            SessionCorpus(())


class TestGenerateSynthetic:
    def test_single_cluster_forces_membership(self):
        config = SyntheticConfig(
            n_listings=4, n_clusters=1, n_travelers=1, mean_session_len=3,
            booking_base_rate=0.5, seed=7,
        )
        corpus, truth = generate_synthetic(config)
        assert len(corpus.sessions) == 1
        assert set(truth.cluster_of_listing.values()) == {0}

    def test_determinism(self):
        config = SyntheticConfig(
            n_listings=50, n_clusters=5, n_travelers=40, mean_session_len=5,
            booking_base_rate=0.3, seed=13,
        )
        c1, t1 = generate_synthetic(config)
        c2, t2 = generate_synthetic(config)
        assert c1 == c2
        assert t1 == t2

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="booking_base_rate"):
            SyntheticConfig(
                n_listings=10, n_clusters=2, n_travelers=5, mean_session_len=3,
                booking_base_rate=1.5, seed=0,
            )
        with pytest.raises(ConfigError, match="n_clusters"):
            SyntheticConfig(
                n_listings=10, n_clusters=11, n_travelers=5, mean_session_len=3,
                booking_base_rate=0.5, seed=0,
            )

    def test_coview_rate_matches_generator_closed_form(self):
        # oracle: brute-force tally of same-cluster view pairs per session
        config = SyntheticConfig(
            n_listings=1000, n_clusters=10, n_travelers=5000, mean_session_len=8,
            booking_base_rate=0.3, seed=1,
        )
        corpus, truth = generate_synthetic(config)
        same = total = 0
        for session in corpus.sessions:
            clusters = [
                truth.cluster_of_listing[it.listing_key]
                for it in session.interactions
                if it.event_kind == "view"
            ]
            arr = np.asarray(clusters)
            n = len(arr)
            if n < 2:
                continue
            eq = (arr[:, None] == arr[None, :]).sum() - n
            same += int(eq) // 2
            total += n * (n - 1) // 2
        rate = same / total
        exact = same_cluster_coview_rate(config)
        eps, k = config.epsilon, config.n_clusters
        assert exact == pytest.approx((1 - eps) ** 2 + eps**2 / (k - 1))
        assert abs(rate - exact) < 0.02
        # the simpler (1-eps)^2 + eps^2/K approximation also holds at +-0.02
        assert abs(rate - ((1 - eps) ** 2 + eps**2 / k)) < 0.02

    def test_booked_listing_is_from_home_cluster_when_possible(self):
        config = SyntheticConfig(
            n_listings=30, n_clusters=3, n_travelers=200, mean_session_len=6,
            booking_base_rate=0.5, seed=3,
        )
        corpus, truth = generate_synthetic(config)
        booked = 0
        for session in corpus.sessions:
            books = [it for it in session.interactions if it.event_kind == "book"]
            if not books:
                continue
            booked += 1
            view_keys = {it.listing_key for it in session.views()}
            assert books[-1].listing_key in view_keys
        assert booked > 0


class TestSessionLogRoundTrip:
    def test_out_of_order_lines_are_sorted(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("t1\t0\t5\tA\tview\nt1\t0\t3\tB\tview\n")
        corpus = load_sessions(path)
        assert len(corpus.sessions) == 1
        assert [it.timestamp for it in corpus.sessions[0].interactions] == [3, 5]

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ParseError, match="no sessions"):
            load_sessions(path)

    def test_round_trip_equals_original(self, tmp_path):
        config = SyntheticConfig(
            n_listings=20, n_clusters=4, n_travelers=30, mean_session_len=4,
            booking_base_rate=0.4, seed=5,
        )
        corpus, _ = generate_synthetic(config)
        path = tmp_path / "log.tsv"
        save_sessions(corpus, path)
        loaded = load_sessions(path)
        assert loaded.sessions == corpus.sessions

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("t1\t0\t5\tA\tview\nt1\t0\t6\tA\n")
        with pytest.raises(ParseError, match="line 2"):
            load_sessions(path)

    def test_unknown_event_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("t1\t0\t5\tA\tclick\n")
        with pytest.raises(ParseError, match="click"):
            load_sessions(path)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("# header\nt1\t0\t5\tA\tview\n")
        assert len(load_sessions(path).sessions) == 1

    def test_ground_truth_round_trip(self, tmp_path):
        config = SyntheticConfig(
            n_listings=12, n_clusters=3, n_travelers=5, mean_session_len=3,
            booking_base_rate=0.4, seed=2,
        )
        _, truth = generate_synthetic(config)
        path = tmp_path / "clusters.tsv"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert loaded.cluster_of_listing == truth.cluster_of_listing
        assert loaded.cluster_count == truth.cluster_count
        assert loaded.booking_rule == truth.booking_rule


class TestVocabulary:
    def test_min_count_threshold(self):
        corpus = make_corpus([("t1", [("A", i) for i in range(5)] + [("B", 99)])])
        vocab = build_vocabulary(corpus, min_count=2)
        assert list(vocab.index_to_key) == ["A"]
        assert vocab.counts[0] == 5

    def test_lexicographic_tie_break(self):
        corpus = make_corpus([("t1", [("B", 0), ("A", 1), ("B", 2), ("A", 3), ("A", 4), ("B", 5)])])
        vocab = build_vocabulary(corpus, min_count=1)
        assert vocab.key_to_index == {"A": 0, "B": 1}

    def test_counts_match_brute_force_tally(self):
        config = SyntheticConfig(
            n_listings=40, n_clusters=4, n_travelers=60, mean_session_len=5,
            booking_base_rate=0.3, seed=9,
        )
        corpus, _ = generate_synthetic(config)
        vocab = build_vocabulary(corpus, min_count=1)
        tally = {}
        for session in corpus.sessions:
            for it in session.interactions:
                if it.event_kind == "view":
                    tally[it.listing_key] = tally.get(it.listing_key, 0) + 1
        for key, index in vocab.key_to_index.items():
            assert vocab.counts[index] == tally[key]
        assert vocab.total_views == sum(
            n for key, n in tally.items() if key in vocab.key_to_index
        )

    def test_books_do_not_count_toward_frequency(self):
        corpus = make_corpus([("t1", [("A", 0), ("A", 1, "book")])])
        vocab = build_vocabulary(corpus, min_count=1)
        assert vocab.counts[vocab.key_to_index["A"]] == 1

    def test_empty_vocabulary_is_an_error(self):
        corpus = make_corpus([("t1", [("A", 0)])])
        with pytest.raises(ConfigError, match="vocabulary empty"):
            build_vocabulary(corpus, min_count=2)


class TestSubsampling:
    def test_keep_probability_boundary(self):
        # f_rel == t sits exactly at the clamp boundary
        assert subsample_keep_probability(10, 100, 0.1) == 1.0

    def test_keep_probability_quarter(self):
        # f_rel = 4t  ->  sqrt(t / 4t) = 0.5
        assert subsample_keep_probability(40, 100, 0.1) == pytest.approx(0.5)

    def test_keep_probability_clamped(self):
        assert subsample_keep_probability(1, 400, 0.01) == 1.0

    @given(
        freq=st.integers(min_value=1, max_value=10**6),
        extra=st.integers(min_value=0, max_value=10**6),
        threshold=st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(deadline=None, max_examples=200)
    def test_keep_probability_range_and_monotonicity(self, freq, extra, threshold):
        total = freq + extra
        p = subsample_keep_probability(freq, total, threshold)
        assert 0.0 < p <= 1.0
        if freq + 1 <= total:
            assert subsample_keep_probability(freq + 1, total, threshold) <= p

    def test_large_threshold_keeps_everything(self):
        corpus = make_corpus([("t1", [("A", i) for i in range(20)])])
        vocab = build_vocabulary(corpus, min_count=1)
        out = apply_subsampling(corpus, vocab, threshold=10.0, seed=0)
        assert out.sessions == corpus.sessions

    def test_empirical_keep_rate_matches_formula(self):
        # A and B each hold half the views, so f_rel = 0.5; with t = 0.125
        # the keep probability is exactly 0.5. 1e5 views of A.
        sessions = []
        for s in range(1000):
            sessions.append(("a%d" % s, [("A", i) for i in range(100)]))
            sessions.append(("b%d" % s, [("B", i) for i in range(100)]))
        corpus = make_corpus(sessions)
        vocab = build_vocabulary(corpus, min_count=1)
        out = apply_subsampling(corpus, vocab, threshold=0.125, seed=42)
        kept_a = sum(
            1 for session in out.sessions for it in session.interactions
            if it.listing_key == "A"
        )
        assert abs(kept_a / 100_000 - 0.5) < 0.02

    def test_book_only_session_untouched(self):
        corpus = make_corpus([
            ("t1", [("A", i) for i in range(50)]),
            ("t2", [("A", 0, "book")]),
        ])
        vocab = build_vocabulary(corpus, min_count=1)
        out = apply_subsampling(corpus, vocab, threshold=1e-9, seed=1)
        book_sessions = [s for s in out.sessions if s.traveler_key == "t2"]
        assert book_sessions == [corpus.sessions[1]]

    def test_deterministic_for_fixed_seed(self):
        corpus = make_corpus([("t1", [("A", i) for i in range(200)])])
        vocab = build_vocabulary(corpus, min_count=1)
        out1 = apply_subsampling(corpus, vocab, threshold=1e-3, seed=5)
        out2 = apply_subsampling(corpus, vocab, threshold=1e-3, seed=5)
        assert out1.sessions == out2.sessions


class TestSplitByUser:
    @staticmethod
    def corpus_with_travelers(n):
        return make_corpus([(f"t{i:03d}", [("A", 0), ("B", 1)]) for i in range(n)])

    def test_seventy_thirty(self):
        train, test = split_by_user(self.corpus_with_travelers(10), 0.7, seed=0)
        train_keys = set(train.traveler_keys())
        test_keys = set(test.traveler_keys())
        assert len(train_keys) == 7 and len(test_keys) == 3
        assert not train_keys & test_keys

    def test_smallest_case(self):
        train, test = split_by_user(self.corpus_with_travelers(2), 0.5, seed=3)
        assert len(train.traveler_keys()) == 1
        assert len(test.traveler_keys()) == 1

    def test_disjointness_over_random_corpora(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 40))
            corpus = self.corpus_with_travelers(n)
            fraction = float(rng.uniform(0.05, 0.95))
            train, test = split_by_user(corpus, fraction, seed=int(rng.integers(2**31)))
            train_keys = set(train.traveler_keys())
            test_keys = set(test.traveler_keys())
            assert not train_keys & test_keys
            assert len(train_keys) + len(test_keys) == n
            target = round(fraction * n)
            assert abs(len(train_keys) - target) <= 1

    def test_sessions_travel_with_their_user(self):
        corpus = make_corpus([
            ("t1", [("A", 0)]), ("t2", [("B", 0)]), ("t1", [("C", 5)]),
        ])
        train, test = split_by_user(corpus, 0.5, seed=1)
        for side in (train, test):
            for session in side.sessions:
                assert session.traveler_key in side.traveler_keys()
        assert len(train.sessions) + len(test.sessions) == 3

    def test_single_traveler_is_an_error(self):
        with pytest.raises(ValueError, match="2 distinct travelers"):
            split_by_user(self.corpus_with_travelers(1), 0.5, seed=0)

    def test_determinism(self):
        corpus = self.corpus_with_travelers(20)
        a = split_by_user(corpus, 0.7, seed=11)
        b = split_by_user(corpus, 0.7, seed=11)
        assert a[0].sessions == b[0].sessions and a[1].sessions == b[1].sessions


class TestLabeledPrefixes:
    def test_label_and_prefix_semantics(self):
        corpus = make_corpus([
            ("t1", [("A", 0), ("B", 1), ("B", 2, "book"), ("C", 3)]),
            ("t2", [("A", 0), ("C", 1)]),
            ("t3", [("A", 0, "book")]),  # no views: skipped
        ])
        cases = labeled_prefixes(corpus)
        assert len(cases) == 2
        booked = next(c for c in cases if c.traveler_key == "t1")
        assert booked.label == 1
        assert [it.listing_key for it in booked.views] == ["A", "B"]
        browsed = next(c for c in cases if c.traveler_key == "t2")
        assert browsed.label == 0
        assert len(browsed.views) == 2

    def test_truncation_keeps_most_recent(self):
        corpus = make_corpus([("t1", [(f"L{i}", i) for i in range(60)])])
        cases = labeled_prefixes(corpus, max_views=50)
        assert len(cases[0].views) == 50
        assert cases[0].views[0].listing_key == "L10"
