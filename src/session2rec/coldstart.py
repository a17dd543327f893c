"""Embeddings for listings with no interaction history.

A destination's embedding is the demand-weighted mean of the embeddings of
the listings whose demand it drives.  A cold listing then gets the belief-
weighted sum of destination embeddings, with the belief built from its
coordinates via inverse great-circle distance to destination centroids.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .skipgram import EmbeddingTable

EARTH_RADIUS_KM = 6371.0088
SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError("latitude must be in [-90, 90]")
        if not -180.0 < self.longitude <= 180.0:
            raise ValueError("longitude must be in (-180, 180]")


@dataclass(frozen=True)
class DestinationDemand:
    """Rows (listing_index, destination_id, proportion); proportions of one
    listing's demand over destinations, summing to 1 per listing."""

    rows: tuple[tuple[int, str, float], ...]

    def __post_init__(self):
        sums: dict[int, float] = {}
        for listing, _, p in self.rows:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"proportion {p} for listing {listing} outside [0, 1]")
            sums[listing] = sums.get(listing, 0.0) + p
        for listing, total in sums.items():
            if abs(total - 1.0) > SUM_TOLERANCE:
                raise ValueError(
                    f"listing {listing}: proportions sum to {total}, expected 1"
                )


@dataclass(frozen=True)
class DestinationEmbedding:
    vectors: dict[str, np.ndarray]
    support: dict[str, int]

    def __post_init__(self):
        for dest, vec in self.vectors.items():
            if not np.isfinite(vec).all():
                raise ValueError(f"destination {dest}: non-finite embedding")
            if self.support.get(dest, 0) < 1:
                raise ValueError(f"destination {dest}: support must be >= 1")


def destination_embeddings(table: EmbeddingTable, demand: DestinationDemand) -> DestinationEmbedding:
    """Demand-weighted mean embedding per destination.

    For destination d over listings l with proportions p_ld:
    ``vec_d = sum_l p_ld * emb_l / sum_l p_ld``.  Normalising by the total
    incoming proportion makes the result a weighted mean, i.e. an expectation
    of the listing representation under the demand it drives.  Destinations
    whose proportions sum to 0 are omitted.
    """
    acc: dict[str, np.ndarray] = {}
    norm: dict[str, float] = {}
    support: dict[str, int] = {}
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


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in kilometres."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.latitude, a.longitude, b.latitude, b.longitude))
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def demand_belief_from_location(
    point: GeoPoint, destination_centroids: dict[str, GeoPoint], m_nearest: int = 5
) -> dict[str, float]:
    """Belief over destinations for a listing known only by its coordinates.

    The m nearest centroids by great-circle distance get weight
    ``1 / (distance_km + 1)``, normalised to sum to 1.  Distance ties break
    by destination id so the selection is deterministic.
    """
    if m_nearest < 1:
        raise ValueError("m_nearest must be >= 1")
    if not destination_centroids:
        raise ValueError("no destination centroids")
    ranked = sorted(
        ((great_circle_km(point, c), dest) for dest, c in destination_centroids.items()),
        key=lambda pair: (pair[0], pair[1]),
    )[:m_nearest]
    weights = {dest: 1.0 / (dist + 1.0) for dist, dest in ranked}
    total = sum(weights.values())
    return {dest: w / total for dest, w in weights.items()}


def extrapolate_cold(belief: dict[str, float], dest_embeddings: DestinationEmbedding) -> np.ndarray:
    """Belief-weighted sum of destination embeddings for a cold listing."""
    total = sum(belief.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"belief proportions sum to {total}, expected 1")
    vec = None
    for dest, p in belief.items():
        if dest not in dest_embeddings.vectors:
            raise ValueError(f"unknown destination {dest!r}")
        term = p * dest_embeddings.vectors[dest]
        vec = term if vec is None else vec + term
    return vec


def _csv_records(path, columns):
    """Yield (line number, record) per row of a CSV file; ParseError naming
    the file unless its header holds exactly ``columns``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != set(columns):
            raise ParseError(f"{path}: expected header {sorted(columns)}")
        for record in reader:
            yield reader.line_num, record


def load_demand_csv(path, key_to_index: dict[str, int]) -> DestinationDemand:
    """Read ``listing_key,destination_id,proportion`` rows.

    Listing keys are mapped to table indices; an unknown key is an error
    because demand must refer to listings that already have embeddings.
    """
    rows = []
    for _, record in _csv_records(path, ("listing_key", "destination_id", "proportion")):
        key = record["listing_key"]
        if key not in key_to_index:
            raise ValueError(f"unknown listing key {key!r} in demand file")
        rows.append((key_to_index[key], record["destination_id"], float(record["proportion"])))
    if not rows:
        raise ParseError("demand file: no rows")
    return DestinationDemand(tuple(rows))


def load_centroids_csv(path) -> dict[str, GeoPoint]:
    """Read ``destination_id,latitude,longitude`` rows."""
    centroids = {}
    for _, record in _csv_records(path, ("destination_id", "latitude", "longitude")):
        point = GeoPoint(float(record["latitude"]), float(record["longitude"]))
        centroids[record["destination_id"]] = point
    if not centroids:
        raise ParseError("centroid file: no rows")
    return centroids


def load_cold_listings_csv(path, trained_keys=frozenset()) -> list[tuple[str, GeoPoint]]:
    """Read ``listing_key,latitude,longitude`` rows in file order.  ParseError
    names the file and line of a key the embedding text format cannot hold
    (empty, with whitespace, or starting with ``#``), a repeated key, a key in
    ``trained_keys``, and a coordinate not a number or outside ``GeoPoint``'s
    ranges."""
    rows, first_line = [], {}
    for line, record in _csv_records(path, ("listing_key", "latitude", "longitude")):
        key, where = record["listing_key"], f"{path}: line {line}"
        if key.split() != [key] or key.startswith("#"):
            raise ParseError(f"{where}: bad listing key {key!r}")
        if key in first_line:
            raise ParseError(f"{where}: duplicate key {key!r}, first on line {first_line[key]}")
        if key in trained_keys:
            raise ParseError(f"{where}: cold key {key!r} is a trained listing")
        first_line[key] = line
        try:
            rows.append((key, GeoPoint(float(record["latitude"]), float(record["longitude"]))))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from None
    return rows


def append_cold_rows(path, rows: list[tuple[str, np.ndarray]]) -> None:
    """Append extrapolated rows to an embedding text file.

    A ``#coldstart`` comment precedes the appended block.  A block an earlier
    run appended is replaced, so a rerun leaves the same bytes.  Nothing is
    written when there are no rows, leaving the file untouched.
    """
    if not rows:
        return
    block = "#coldstart\n" + "".join(
        key + " " + " ".join(repr(float(x)) for x in vec) + "\n" for key, vec in rows
    )
    with open(path, "rb+") as fh:
        cut = fh.read().find(b"\n#coldstart\n")
        if cut >= 0:
            fh.seek(cut + 1)
            fh.truncate()
        fh.write(block.encode("utf-8"))
