import numpy as np
import pytest

from session2rec.coldstart import (
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


def table_from(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingTable(vectors, np.zeros_like(vectors))


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

    def test_centroids_csv(self, tmp_path):
        path = tmp_path / "centroids.csv"
        path.write_text("destination_id,latitude,longitude\nA,10.5,-3.25\n")
        centroids = load_centroids_csv(path)
        assert centroids["A"] == GeoPoint(10.5, -3.25)

    def test_append_cold_rows_and_reload(self, tmp_path, rng):
        vecs = rng.normal(size=(3, 4))
        table = table_from(vecs)
        path = tmp_path / "emb.txt"
        save_embeddings_text(table, ["L0", "L1", "L2"], path)
        before = path.read_text()
        append_cold_rows(path, [])
        assert path.read_text() == before  # nothing to append, file untouched

        cold_vec = rng.normal(size=4)
        append_cold_rows(path, [("COLD", cold_vec)])
        text = path.read_text()
        assert "#coldstart" in text
        keys, loaded = load_embeddings_text(path)
        assert keys == ["L0", "L1", "L2", "COLD"]
        assert np.array_equal(loaded[3], cold_vec)


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
