import numpy as np
import pytest

from session2rec import coldstart
from session2rec.coldstart import (
    Centroids,
    DestinationDemand,
    DestinationEmbedding,
    GeoPoint,
    append_cold_rows,
    demand_belief_from_location,
    destination_embeddings,
    extrapolate_cold,
    great_circle_km,
    load_centroids_csv,
    load_cold_listings_csv,
    load_demand_csv,
)
from session2rec.errors import ParseError
from session2rec.skipgram import EmbeddingTable, load_embeddings_text, save_embeddings_text


LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def with_line_end(data: bytes, eol: bytes) -> bytes:
    """``data`` with every line ending in ``eol``."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").replace(b"\n", eol)


def table_from(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingTable(vectors, np.zeros_like(vectors))


def destination_embeddings_oracle(table, demand):
    """Oracle of ``destination_embeddings``: one dict entry per destination,
    summed row by row."""
    acc, norm, support = {}, {}, {}
    for listing, dest, p in demand.rows:
        if not 0 <= listing < table.vocab_size:
            raise ValueError(f"unknown listing index {listing}")
        if dest not in acc:
            acc[dest] = np.zeros(table.dim)
            norm[dest] = 0.0
            support[dest] = 0
        acc[dest] += p * table.input_vectors[listing]
        norm[dest] += p
        if p > 0:
            support[dest] += 1
    vectors = {d: acc[d] / norm[d] for d in acc if norm[d] > 0}
    return DestinationEmbedding(vectors, {d: support[d] for d in vectors})


def assert_destinations_match_oracle(table, demand):
    got, want = destination_embeddings(table, demand), destination_embeddings_oracle(table, demand)
    assert list(got.vectors) == list(want.vectors)
    assert [v.tobytes() for v in got.vectors.values()] == [v.tobytes() for v in want.vectors.values()]
    assert list(got.support.items()) == list(want.support.items())
    assert all(type(n) is int for n in got.support.values())


def demand_check_oracle(rows):
    """Oracle of ``DestinationDemand``'s check: every row's range, then
    each listing's sum in a dict, in first-appearance order."""
    sums = {}
    for listing, _, p in rows:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"proportion {p} for listing {listing} outside [0, 1]")
        sums[listing] = sums.get(listing, 0.0) + p
    for listing, total in sums.items():
        if abs(total - 1.0) > coldstart.SUM_TOLERANCE:
            raise ValueError(f"listing {listing}: proportions sum to {total}, expected 1")


def assert_demand_check_matches_oracle(rows):
    messages = []
    for check in (demand_check_oracle, DestinationDemand):
        try:
            check(tuple(rows))
            messages.append(None)
        except ValueError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]
    return messages[0]


def demand_belief_oracle(point, destination_centroids, m_nearest):
    """Oracle of ``demand_belief_from_location``: the scalar distance to every
    centroid, sorted by (distance, id)."""
    ranked = sorted(
        ((great_circle_km(point, c), dest) for dest, c in destination_centroids.items()),
        key=lambda pair: (pair[0], pair[1]),
    )[:m_nearest]
    weights = {dest: 1.0 / (dist + 1.0) for dist, dest in ranked}
    total = sum(weights.values())
    return {dest: w / total for dest, w in weights.items()}


def assert_belief_matches_oracle(point, centroids, m_nearest):
    got = demand_belief_from_location(point, centroids, m_nearest)
    want = demand_belief_oracle(point, centroids, m_nearest)
    assert list(got.items()) == list(want.items())
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


class TestGeoPoint:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -180.0)
        GeoPoint(0.0, 180.0)

    def test_great_circle_known_distance(self):
        # one degree of latitude is ~111.2 km
        d = great_circle_km(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert d == pytest.approx(111.19, abs=0.1)
        assert great_circle_km(GeoPoint(10.0, 20.0), GeoPoint(10.0, 20.0)) == 0.0


class TestDestinationDemand:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DestinationDemand(((0, "A", 0.5), (0, "B", 0.1)))

    def test_proportions_in_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            DestinationDemand(((0, "A", 1.5), (0, "B", -0.5)))


    @staticmethod
    def random_rows(rng, n_listings=300):
        """Rows of listings -5..n-6 in a shuffled order, 1-5 rows each, with
        proportions normalised to sum to 1 up to rounding."""
        rows = []
        for listing in rng.permutation(n_listings) - 5:
            w = rng.random(int(rng.integers(1, 6)))
            rows.extend((int(listing), f"D{j}", float(p)) for j, p in enumerate(w / w.sum()))
        order = rng.permutation(len(rows))
        return [rows[i] for i in order]

    def test_valid_rows_match_oracle_and_keep_their_columns(self, rng):
        for _ in range(20):
            rows = self.random_rows(rng)
            assert assert_demand_check_matches_oracle(rows) is None
            demand = DestinationDemand(tuple(rows))
            assert demand.listings.tolist() == [row[0] for row in rows]
            assert demand.proportions.tolist() == [row[2] for row in rows]

    def test_first_bad_listing_and_its_sum_match_oracle(self, rng):
        for _ in range(30):
            rows = self.random_rows(rng)
            for i in rng.choice(len(rows), size=int(rng.integers(1, 4)), replace=False):
                listing, dest, p = rows[i]
                rows[i] = (listing, dest, p * 0.5)  # that listing's sum falls below 1
            assert "proportions sum to" in assert_demand_check_matches_oracle(rows)

    def test_first_row_out_of_range_is_reported_before_any_sum(self, rng):
        for bad in (1.5, -0.25, float("nan"), float("inf")):
            rows = self.random_rows(rng, 40)
            rows[3] = (rows[3][0], rows[3][1], rows[3][2] * 0.5)  # an earlier bad sum
            rows[-2] = (rows[-2][0], rows[-2][1], bad)
            rows[-1] = (rows[-1][0], rows[-1][1], 2.0)
            assert "outside [0, 1]" in assert_demand_check_matches_oracle(rows)

    def test_empty_rows(self):
        assert assert_demand_check_matches_oracle([]) is None


class TestDestinationEmbeddings:
    def test_point_mass_identity(self):
        table = table_from([[1.0, 2.0, 3.0]])
        demand = DestinationDemand(((0, "A", 1.0),))
        result = destination_embeddings(table, demand)
        assert np.array_equal(result.vectors["A"], table.input_vectors[0])
        assert result.support["A"] == 1

    def test_symmetric_average(self):
        table = table_from([[1.0, 0.0], [0.0, 1.0]])
        demand = DestinationDemand(((0, "A", 0.5), (0, "B", 0.5), (1, "A", 0.5), (1, "B", 0.5)))
        result = destination_embeddings(table, demand)
        assert np.allclose(result.vectors["A"], [0.5, 0.5], atol=1e-15)

    def test_matches_brute_force_weighted_mean(self, rng):
        n, d, dests = 50, 6, 5
        table = table_from(rng.normal(size=(n, d)))
        rows = []
        for listing in range(n):
            w = rng.random(dests)
            w /= w.sum()
            for j in range(dests):
                rows.append((listing, f"D{j}", float(w[j])))
        demand = DestinationDemand(tuple(rows))
        result = destination_embeddings(table, demand)
        for j in range(dests):
            num = np.zeros(d)
            den = 0.0
            for listing, dest, p in rows:
                if dest == f"D{j}":
                    num += p * table.input_vectors[listing]
                    den += p
            assert np.allclose(result.vectors[f"D{j}"], num / den, atol=1e-12)

    def test_unknown_listing_index_named(self):
        table = table_from([[1.0, 0.0]])
        with pytest.raises(ValueError, match="7"):
            destination_embeddings(table, DestinationDemand(((7, "A", 1.0),)))

    def test_zero_mass_destination_omitted(self):
        table = table_from([[1.0, 0.0]])
        demand = DestinationDemand(((0, "A", 1.0), (0, "B", 0.0)))
        result = destination_embeddings(table, demand)
        assert "B" not in result.vectors

    # the second case: 4500 demand rows over 150 destinations, some rows with zero proportion
    @pytest.mark.parametrize("n, n_dests", [(300, 40), (1500, 150)], ids=["300x3-rows", "1500x3-rows"])
    def test_matches_oracle_bit_for_bit(self, n, n_dests, rng):
        d = 7
        table = table_from(rng.normal(size=(n, d)))
        rows = []
        for listing in rng.permutation(n):
            dests = rng.choice(n_dests, size=3, replace=False)
            w = rng.random(3)
            w[rng.random(3) < 0.2] = 0.0  # some rows carry no demand
            w = w / w.sum() if w.sum() > 0 else np.array([1.0, 0.0, 0.0])
            rows.extend((int(listing), f"D{j:02d}", float(p)) for j, p in zip(dests, w))
        assert_destinations_match_oracle(table, DestinationDemand(tuple(rows)))

    def test_first_appearance_order_and_zero_rows_match_oracle(self):
        table = table_from([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]])
        demand = DestinationDemand((
            (2, "zulu", 0.0), (2, "alpha", 0.5), (2, "mike", 0.5),
            (0, "alpha", 0.0), (0, "zulu", 1.0), (1, "none", 0.0), (1, "mike", 1.0),
        ))
        result = destination_embeddings(table, demand)
        assert list(result.vectors) == ["zulu", "alpha", "mike"]
        assert result.support == {"zulu": 1, "alpha": 1, "mike": 2}
        assert_destinations_match_oracle(table, demand)

    @pytest.mark.parametrize("listing", [7, -1])
    def test_unknown_listing_index_message_matches_oracle(self, listing):
        table = table_from([[1.0, 0.0], [0.0, 1.0]])
        demand = DestinationDemand(((0, "A", 1.0), (listing, "B", 1.0), (9, "C", 1.0)))
        with pytest.raises(ValueError) as got:
            destination_embeddings(table, demand)
        with pytest.raises(ValueError) as want:
            destination_embeddings_oracle(table, demand)
        assert str(got.value) == str(want.value) == f"unknown listing index {listing}"


class TestDemandBelief:
    def test_coincident_centroid_dominates(self):
        centroids = {"A": GeoPoint(10.0, 10.0), "B": GeoPoint(50.0, 50.0)}
        belief = demand_belief_from_location(GeoPoint(10.0, 10.0), centroids, m_nearest=1)
        assert belief == {"A": 1.0}

    def test_equidistant_pair_splits_evenly(self):
        centroids = {"A": GeoPoint(1.0, 0.0), "B": GeoPoint(-1.0, 0.0)}
        belief = demand_belief_from_location(GeoPoint(0.0, 0.0), centroids, m_nearest=2)
        assert belief["A"] == pytest.approx(0.5, abs=1e-12)
        assert belief["B"] == pytest.approx(0.5, abs=1e-12)

    def test_matches_hand_computed_inverse_distance(self):
        point = GeoPoint(0.0, 0.0)
        centroids = {
            "A": GeoPoint(0.0, 1.0),
            "B": GeoPoint(0.0, 2.0),
            "C": GeoPoint(0.0, 3.0),
            "D": GeoPoint(0.0, 40.0),
            "E": GeoPoint(0.0, 50.0),
        }
        belief = demand_belief_from_location(point, centroids, m_nearest=3)
        weights = {
            dest: 1.0 / (great_circle_km(point, centroids[dest]) + 1.0)
            for dest in ("A", "B", "C")
        }
        total = sum(weights.values())
        for dest in ("A", "B", "C"):
            assert belief[dest] == pytest.approx(weights[dest] / total, abs=1e-9)
        assert "D" not in belief and "E" not in belief

    def test_normalized_to_one(self, rng):
        centroids = {
            f"D{i}": GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 180)))
            for i in range(12)
        }
        for _ in range(25):
            point = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 180)))
            belief = demand_belief_from_location(point, centroids, m_nearest=5)
            assert sum(belief.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_centroids_is_an_error(self):
        with pytest.raises(ValueError, match="centroid"):
            demand_belief_from_location(GeoPoint(0, 0), {}, m_nearest=1)
        with pytest.raises(ValueError, match="centroid"):
            demand_belief_from_location(GeoPoint(0, 0), Centroids({}), m_nearest=1)

    @pytest.mark.parametrize("fillers", [1, 20], ids=["scalar-only", "numpy-shortlist"])
    def test_equal_distances_break_by_id_as_the_oracle(self, fillers):
        centroids = {
            "d": GeoPoint(0.0, 1.0), "b": GeoPoint(0.0, -1.0), "c": GeoPoint(1.0, 0.0), "a": GeoPoint(-1.0, 0.0),
        }
        centroids |= {f"far{i}": GeoPoint(30.0, 30.0 + i) for i in range(fillers)}
        for mapping in (centroids, Centroids(centroids)):
            assert list(demand_belief_from_location(GeoPoint(0.0, 0.0), mapping, 2)) == ["a", "b"]
            for m in range(1, len(centroids) + 2):
                assert_belief_matches_oracle(GeoPoint(0.0, 0.0), mapping, m)

    def test_m_at_or_above_the_centroid_count_keeps_all(self):
        centroids = {"x": GeoPoint(10.0, 20.0), "y": GeoPoint(-5.0, 100.0), "z": GeoPoint(60.0, -70.0)}
        for m in (3, 4, 50):
            assert set(demand_belief_from_location(GeoPoint(0.0, 0.0), centroids, m)) == {"x", "y", "z"}
            assert_belief_matches_oracle(GeoPoint(0.0, 0.0), Centroids(centroids), m)

    @pytest.mark.parametrize(
        "point", [GeoPoint(10.0, 20.0), GeoPoint(-10.0, -160.0)], ids=["on-centroid", "antipode"]
    )
    def test_point_on_a_centroid_and_its_antipode_match_oracle(self, point, rng):
        centroids = {"home": GeoPoint(10.0, 20.0), "twin": GeoPoint(10.0, 20.0)}
        centroids |= {
            f"D{i}": GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 180))) for i in range(30)
        }
        centroids["opposite"] = GeoPoint(-10.0, -160.0)
        for m in (1, 2, 3, 5, 33):
            assert_belief_matches_oracle(point, Centroids(centroids), m)
        # the m-th nearest term sits at 0 or next to 1, where asin is steepest
        close = {"home": GeoPoint(10.0, 20.0), "twin": GeoPoint(10.0, 20.0)}
        close |= {f"shifted{i}": GeoPoint(10.0 + i * 1e-7, 20.0 - i * 1e-7) for i in range(1, 20)}
        for m in (1, 2, 3, 5, 8):
            assert_belief_matches_oracle(point, Centroids(close), m)

    def test_random_points_match_oracle(self, rng):
        lat, lon = rng.uniform(-60, 70, size=200), rng.uniform(-170, 170, size=200)
        centroids = {f"D{j:03d}": GeoPoint(float(lat[j]), float(lon[j])) for j in range(200)}
        centroids |= {f"E{j:03d}": centroids[f"D{j:03d}"] for j in range(0, 200, 7)}  # exact ties
        index = Centroids(centroids)
        for _ in range(200):
            j = int(rng.integers(200))
            point = GeoPoint(
                float(np.clip(lat[j] + rng.uniform(-0.5, 0.5), -90, 90)), float(lon[j] + rng.uniform(-0.5, 0.5))
            )
            assert_belief_matches_oracle(point, index, int(rng.integers(1, 8)))

    def test_plain_dict_and_loaded_mapping_agree(self, tmp_path, rng):
        path = tmp_path / "centroids.csv"
        rows = [f"D{j},{rng.uniform(-80, 80)!r},{rng.uniform(-179, 180)!r}" for j in range(25)]
        path.write_text("destination_id,latitude,longitude\n" + "\n".join(rows) + "\n")
        loaded = load_centroids_csv(path)
        plain = dict(loaded)
        assert isinstance(loaded, Centroids) and loaded == plain and list(loaded) == list(plain)
        for _ in range(20):
            point = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 180)))
            got = demand_belief_from_location(point, loaded, 4)
            assert list(got.items()) == list(demand_belief_from_location(point, plain, 4).items())
            assert_belief_matches_oracle(point, plain, 4)


class TestExtrapolateCold:
    @staticmethod
    def dest_embeddings(vectors):
        return DestinationEmbedding(
            {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()},
            {k: 1 for k in vectors},
        )

    def test_point_mass_is_exact(self):
        dest = self.dest_embeddings({"A": [0.1, -0.7, 2.0]})
        out = extrapolate_cold({"A": 1.0}, dest)
        assert np.array_equal(out, dest.vectors["A"])

    def test_midpoint(self):
        dest = self.dest_embeddings({"A": [1.0, 0.0], "B": [0.0, 1.0]})
        out = extrapolate_cold({"A": 0.5, "B": 0.5}, dest)
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_matches_brute_force_sum(self, rng):
        vectors = {f"D{i}": rng.normal(size=8) for i in range(10)}
        dest = self.dest_embeddings(vectors)
        w = rng.random(10)
        w /= w.sum()
        belief = {f"D{i}": float(w[i]) for i in range(10)}
        expected = sum(belief[k] * vectors[k] for k in vectors)
        assert np.allclose(extrapolate_cold(belief, dest), expected, atol=1e-12)

    def test_missing_destination_named(self):
        dest = self.dest_embeddings({"A": [1.0]})
        with pytest.raises(ValueError, match="B"):
            extrapolate_cold({"B": 1.0}, dest)

    def test_unnormalized_belief_rejected(self):
        dest = self.dest_embeddings({"A": [1.0]})
        with pytest.raises(ValueError, match="sum"):
            extrapolate_cold({"A": 0.7}, dest)

    def test_convex_hull_componentwise(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 8))
            vectors = {f"D{i}": rng.normal(size=5) for i in range(k)}
            dest = self.dest_embeddings(vectors)
            w = rng.random(k)
            w /= w.sum()
            belief = {f"D{i}": float(w[i]) for i in range(k)}
            out = extrapolate_cold(belief, dest)
            stacked = np.vstack(list(vectors.values()))
            assert np.all(out >= stacked.min(axis=0) - 1e-12)
            assert np.all(out <= stacked.max(axis=0) + 1e-12)

    def test_warm_listing_round_trips_exactly(self):
        # a listing that alone defines destination A and believes only in A
        # must come back bit-identical
        table = table_from([[0.3, -1.2, 0.25]])
        demand = DestinationDemand(((0, "A", 1.0),))
        dest = destination_embeddings(table, demand)
        out = extrapolate_cold({"A": 1.0}, dest)
        assert np.array_equal(out, table.input_vectors[0])

    def test_permutation_invariance_of_demand_rows(self, rng):
        n, d = 20, 4
        table = table_from(rng.normal(size=(n, d)))
        rows = []
        for listing in range(n):
            w = rng.random(3)
            w /= w.sum()
            rows.extend((listing, f"D{j}", float(w[j])) for j in range(3))
        forward = destination_embeddings(table, DestinationDemand(tuple(rows)))
        perm = [rows[i] for i in rng.permutation(len(rows))]
        shuffled = destination_embeddings(table, DestinationDemand(tuple(perm)))
        for dest in forward.vectors:
            assert np.allclose(forward.vectors[dest], shuffled.vectors[dest], atol=1e-12)


class TestColdstartFiles:
    def test_demand_csv_round_trip(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text(
            "listing_key,destination_id,proportion\nL0,A,0.25\nL0,B,0.75\n"
        )
        demand = load_demand_csv(path, {"L0": 0})
        assert demand.rows == ((0, "A", 0.25), (0, "B", 0.75))

    def test_demand_csv_unknown_key(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("listing_key,destination_id,proportion\nL9,A,1.0\n")
        with pytest.raises(ValueError, match="L9"):
            load_demand_csv(path, {"L0": 0})

    def test_demand_csv_bad_header(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("listing,dest,share\nL0,A,1.0\n")
        with pytest.raises(ParseError, match="header"):
            load_demand_csv(path, {"L0": 0})

    @pytest.mark.parametrize(
        "rows, line",
        [
            pytest.param("L0,A,0.5\nL0,B,lots\n", 3, id="non-numeric-proportion"),
            pytest.param("L0,A,1.0\nL9,A,1.0\n", 3, id="unknown-key"),
            pytest.param("L0,A,1.5\n", 2, id="proportion-out-of-range"),
            pytest.param("L0,A,nan\n", 2, id="nan-proportion"),
            pytest.param("L0,A\n", 2, id="missing-field"),
        ],
    )
    def test_demand_csv_bad_row_names_file_and_line(self, rows, line, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("listing_key,destination_id,proportion\n" + rows)
        with pytest.raises(ParseError, match=rf"demand\.csv: line {line}:"):
            load_demand_csv(path, {"L0": 0})

    def test_demand_csv_bad_sum_names_file(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("listing_key,destination_id,proportion\nL0,A,0.5\n")
        with pytest.raises(ParseError, match=r"demand\.csv: listing 0: proportions sum to 0\.5"):
            load_demand_csv(path, {"L0": 0})

    @pytest.mark.parametrize(
        "rows, line",
        [
            pytest.param("A,10.0,1.0\nB,north-ish,1.0\n", 3, id="non-numeric-coordinate"),
            pytest.param("A,95.0,1.0\n", 2, id="latitude-out-of-range"),
            pytest.param("A,1.0,-180.0\n", 2, id="longitude-out-of-range"),
            pytest.param("A,1.0,nan\n", 2, id="nan-coordinate"),
        ],
    )
    def test_centroids_csv_bad_row_names_file_and_line(self, rows, line, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("destination_id,latitude,longitude\n" + rows)
        with pytest.raises(ParseError, match=rf"centroids\.csv: line {line}:"):
            load_centroids_csv(path)

    def test_centroids_csv_duplicate_destination_names_both_lines(self, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("destination_id,latitude,longitude\nnorth,60.0,10.0\nsouth,-60.0,10.0\nnorth,-60.0,10.0\n")
        with pytest.raises(
            ParseError, match=r"centroids\.csv: line 4: duplicate destination 'north', first on line 2"
        ):
            load_centroids_csv(path)

    def test_centroids_csv(self, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("destination_id,latitude,longitude\nA,10.5,-3.25\n")
        centroids = load_centroids_csv(path)
        assert centroids["A"] == GeoPoint(10.5, -3.25)

    @pytest.mark.parametrize("eol", LINE_ENDS.values(), ids=LINE_ENDS)
    def test_append_cold_rows_and_reload(self, eol, tmp_path, rng):
        vecs = rng.normal(size=(3, 4))
        table = table_from(vecs)
        path = tmp_path / "emb.txt"
        save_embeddings_text(table, ["L0", "L1", "L2"], path)
        path.write_bytes(with_line_end(path.read_bytes(), eol))
        before = path.read_bytes()
        append_cold_rows(path, [])
        assert path.read_bytes() == before  # nothing to append, file untouched

        cold_vec = rng.normal(size=4)
        append_cold_rows(path, [("COLD", cold_vec)])
        once = path.read_bytes()
        assert once.startswith(before + b"#coldstart" + eol)
        assert once == with_line_end(once, eol)  # the block's lines end as the file's
        keys, loaded = load_embeddings_text(path)
        assert keys == ["L0", "L1", "L2", "COLD"]
        assert np.array_equal(loaded[3], cold_vec)
        append_cold_rows(path, [("COLD", cold_vec)])
        assert path.read_bytes() == once  # a rerun keeps the bytes

    @pytest.mark.parametrize("eol", LINE_ENDS.values(), ids=LINE_ENDS)
    def test_no_rows_remove_an_earlier_block(self, eol, tmp_path, rng):
        path = tmp_path / "emb.txt"
        save_embeddings_text(table_from(rng.normal(size=(3, 4))), ["L0", "L1", "L2"], path)
        trained = with_line_end(path.read_bytes(), eol)
        path.write_bytes(trained)
        append_cold_rows(path, [("COLD", rng.normal(size=4))])
        # a tool that rewrites line ends (a checkout, an editor) leaves one kind
        path.write_bytes(with_line_end(path.read_bytes(), eol))
        append_cold_rows(path, [])
        assert path.read_bytes() == trained

    def test_only_a_whole_marker_line_starts_the_block(self, tmp_path):
        path = tmp_path / "emb.txt"
        trained = b"2 1\nA#coldstart 0.5\n#coldstart-old\nB 1.0\n"
        path.write_bytes(trained + b"#coldstart")  # a marker line at the end of the file
        append_cold_rows(path, [])
        assert path.read_bytes() == trained
        append_cold_rows(path, [("C", np.array([2.0]))])
        append_cold_rows(path, [("C", np.array([2.0]))])
        assert path.read_bytes() == trained + b"#coldstart\nC 2.0\n"
        assert load_embeddings_text(path)[0] == ["A#coldstart", "B", "C"]

    def test_last_row_without_a_line_end_gets_one_before_the_block(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 1\r\nA 0.5\r\nB 1.0")
        append_cold_rows(path, [("C", np.array([2.0]))])
        assert path.read_bytes() == b"2 1\r\nA 0.5\r\nB 1.0\r\n#coldstart\r\nC 2.0\r\n"
        assert load_embeddings_text(path)[0] == ["A", "B", "C"]


class TestColdListingsCsv:
    HEADER = "listing_key,latitude,longitude\n"

    def test_rows_in_file_order(self, tmp_path):
        path = tmp_path / "cold.csv"
        path.write_text(self.HEADER + "C2,10.5,-20.0\nC1,-90,180\n")
        assert load_cold_listings_csv(path, {"L1"}) == [
            ("C2", GeoPoint(10.5, -20.0)), ("C1", GeoPoint(-90.0, 180.0)),
        ]

    @pytest.mark.parametrize(
        "rows, line",
        [
            pytest.param("C1,1.0,2.0\nC2,north-ish,2.0\n", 3, id="non-numeric"),
            pytest.param("C1,1.0,2.0\nC2,95.0,2.0\n", 3, id="latitude-out-of-range"),
            pytest.param("C1,1.0,-180.0\n", 2, id="longitude-out-of-range"),
            pytest.param("C1,nan,2.0\n", 2, id="nan"),
            pytest.param("C1,1.0\n", 2, id="missing-field"),
            pytest.param("C1,1.0,2.0\nC2,1.0,2.0\nC1,3.0,4.0\n", 4, id="repeated-key"),
            pytest.param("C1,1.0,2.0\nL1,1.0,2.0\n", 3, id="trained-key"),
            pytest.param("C 1,1.0,2.0\n", 2, id="key-with-space"),
            pytest.param(",1.0,2.0\n", 2, id="empty-key"),
            pytest.param("#C1,1.0,2.0\n", 2, id="comment-key"),
        ],
    )
    def test_bad_row_names_file_and_line(self, rows, line, tmp_path):
        path = tmp_path / "cold.csv"
        path.write_text(self.HEADER + rows)
        with pytest.raises(ParseError, match=rf"cold\.csv: line {line}:"):
            load_cold_listings_csv(path, {"L1"})

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cold.csv"
        path.write_text("key,lat,lon\nC1,1.0,2.0\n")
        with pytest.raises(ParseError, match="expected header"):
            load_cold_listings_csv(path)
