"""Embeddings for listings with no interaction history.

A destination's embedding is the demand-weighted mean of the embeddings of
the listings whose demand it drives.  A cold listing then gets the belief-
weighted sum of destination embeddings, with the belief built from its
coordinates via inverse great-circle distance to destination centroids.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, bad_listing_key, open_utf8
from .skipgram import EmbeddingTable, _text_row

EARTH_RADIUS_KM = 6371.0088
SUM_TOLERANCE = 1e-6
SHORTLIST_SLACK = 1e-9  # relative margin over the m-th nearest haversine term
COLD_MARKER = b"#coldstart"  # the line before the appended cold rows


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
    listing's demand over destinations, summing to 1 per listing.

    The listing and proportion columns are kept as arrays.  The first row
    outside [0, 1] is reported, else the first listing, by first row, whose
    sum is off; each listing's sum adds its rows in row order.
    """

    rows: tuple[tuple[int, str, float], ...]
    listings: np.ndarray = field(init=False, repr=False, compare=False)
    proportions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.rows)
        listings = np.fromiter((row[0] for row in self.rows), dtype=np.int64, count=n)
        proportions = np.fromiter((row[2] for row in self.rows), dtype=np.float64, count=n)
        outside = ~((proportions >= 0.0) & (proportions <= 1.0))  # nan is outside
        if outside.any():
            listing, _, p = self.rows[np.argmax(outside)]
            raise ValueError(f"proportion {p} for listing {listing} outside [0, 1]")
        _, first, slot = np.unique(listings, return_index=True, return_inverse=True)
        sums = np.bincount(slot, weights=proportions, minlength=len(first))
        off = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOLERANCE)
        if len(off):
            worst = off[np.argmin(first[off])]
            listing = self.rows[first[worst]][0]
            raise ValueError(f"listing {listing}: proportions sum to {float(sums[worst])}, expected 1")
        object.__setattr__(self, "listings", listings)
        object.__setattr__(self, "proportions", proportions)


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
    whose proportions sum to 0 are omitted; the rest keep the order of their
    first row.  One ``np.bincount`` per column sums each destination's rows
    in row order from 0.0, as a row-by-row loop does, with no n x d temporary.
    """
    n, listings, proportions = len(demand.rows), demand.listings, demand.proportions
    unknown = (listings < 0) | (listings >= table.vocab_size)
    if unknown.any():
        raise ValueError(f"unknown listing index {listings[np.argmax(unknown)]}")
    slot_of: dict[str, int] = {}  # destination -> slot, by first appearance
    slots = np.fromiter(
        (slot_of.setdefault(row[1], len(slot_of)) for row in demand.rows), dtype=np.int64, count=n
    )
    terms = (column[listings] * proportions for column in table.input_vectors.T)  # one column at a time
    sums = np.stack([np.bincount(slots, weights=t, minlength=len(slot_of)) for t in terms], axis=1)
    mass = np.bincount(slots, weights=proportions, minlength=len(slot_of))
    support = np.bincount(slots[proportions > 0], minlength=len(slot_of))
    kept = {d: s for d, s in slot_of.items() if mass[s] > 0}
    return DestinationEmbedding(
        {d: sums[s] / mass[s] for d, s in kept.items()}, {d: int(support[s]) for d, s in kept.items()}
    )


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in kilometres."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.latitude, a.longitude, b.latitude, b.longitude))
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


class Centroids(Mapping[str, GeoPoint]):
    """Immutable destination id -> ``GeoPoint`` mapping that also holds the
    ids and the radian latitudes, longitudes and latitude cosines as arrays,
    built once for ``demand_belief_from_location``."""

    def __init__(self, points: Mapping[str, GeoPoint]):
        self._points = dict(points)
        self.ids = tuple(self._points)
        self.latitudes = np.radians([p.latitude for p in self._points.values()])
        self.longitudes = np.radians([p.longitude for p in self._points.values()])
        self.cos_latitudes = np.cos(self.latitudes)

    def __getitem__(self, destination: str) -> GeoPoint:
        return self._points[destination]

    def __iter__(self):
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)


def demand_belief_from_location(
    point: GeoPoint, destination_centroids: Mapping[str, GeoPoint], m_nearest: int = 5
) -> dict[str, float]:
    """Belief over destinations for a listing known only by its coordinates.

    The m nearest centroids by great-circle distance get weight
    ``1 / (distance_km + 1)``, normalised to sum to 1.  Distance ties break
    by destination id so the selection is deterministic.

    One numpy pass first computes the haversine term of every centroid and
    keeps those within a relative ``SHORTLIST_SLACK`` of the m-th smallest
    (all of them when there are at most m); the vector and scalar terms
    differ by a few ulps, far inside it.  A plain mapping gets its
    ``Centroids`` arrays built on the call.  The centroids left are ranked
    with ``great_circle_km`` itself.
    """
    if m_nearest < 1:
        raise ValueError("m_nearest must be >= 1")
    if not destination_centroids:
        raise ValueError("no destination centroids")
    centroids = destination_centroids
    if not isinstance(centroids, Centroids):
        centroids = Centroids(centroids)
    # the slack is taken on the haversine term, not on the distance: asin
    # turns a few ulps of the term into far more near the antipode
    lat, lon = math.radians(point.latitude), math.radians(point.longitude)
    term = (
        np.sin((centroids.latitudes - lat) / 2) ** 2
        + math.cos(lat) * centroids.cos_latitudes * np.sin((centroids.longitudes - lon) / 2) ** 2
    )
    cut = min(m_nearest, len(term)) - 1
    bound = np.partition(term, cut)[cut] * (1.0 + SHORTLIST_SLACK)
    shortlist = [centroids.ids[i] for i in np.flatnonzero(term <= bound)]
    ranked = sorted(
        (great_circle_km(point, destination_centroids[dest]), dest) for dest in shortlist
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
    with open_utf8(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != set(columns):
            raise ParseError(f"{path}: expected header {sorted(columns)}")
        for record in reader:
            yield reader.line_num, record


def _geo_point(record, where: str) -> GeoPoint:
    """The record's coordinates; ParseError naming ``where`` unless both are
    numbers inside ``GeoPoint``'s ranges."""
    try:
        return GeoPoint(float(record["latitude"]), float(record["longitude"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_demand_csv(path, key_to_index: dict[str, int]) -> DestinationDemand:
    """Read ``listing_key,destination_id,proportion`` rows.

    Listing keys are mapped to table indices.  ParseError names the file and
    line of an unknown key (demand must refer to listings that already have
    embeddings) and of a proportion that is not a number in [0, 1], and
    names the file when a listing's proportions do not sum to 1.
    """
    rows = []
    for line, record in _csv_records(path, ("listing_key", "destination_id", "proportion")):
        key, where = record["listing_key"], f"{path}: line {line}"
        if key not in key_to_index:
            raise ParseError(f"{where}: unknown listing key {key!r}")
        try:
            proportion = float(record["proportion"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from None
        if not 0.0 <= proportion <= 1.0:
            raise ParseError(f"{where}: proportion {proportion} outside [0, 1]")
        rows.append((key_to_index[key], record["destination_id"], proportion))
    if not rows:
        raise ParseError(f"{path}: no rows")
    try:
        return DestinationDemand(tuple(rows))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_centroids_csv(path) -> Centroids:
    """Read ``destination_id,latitude,longitude`` rows; ParseError names the
    file and line of a repeated destination id and of a coordinate not a
    number or outside ``GeoPoint``'s ranges."""
    centroids, first_line = {}, {}
    for line, record in _csv_records(path, ("destination_id", "latitude", "longitude")):
        dest, where = record["destination_id"], f"{path}: line {line}"
        if dest in first_line:
            raise ParseError(f"{where}: duplicate destination {dest!r}, first on line {first_line[dest]}")
        first_line[dest] = line
        centroids[dest] = _geo_point(record, where)
    if not centroids:
        raise ParseError(f"{path}: no rows")
    return Centroids(centroids)


def load_cold_listings_csv(path, trained_keys=frozenset()) -> list[tuple[str, GeoPoint]]:
    """Read ``listing_key,latitude,longitude`` rows in file order.  ParseError
    names the file and line of a key the embedding text format cannot hold
    (empty, with whitespace, or starting with ``#``), a repeated key, a key in
    ``trained_keys``, and a coordinate not a number or outside ``GeoPoint``'s
    ranges."""
    rows, first_line = [], {}
    for line, record in _csv_records(path, ("listing_key", "latitude", "longitude")):
        key, where = record["listing_key"], f"{path}: line {line}"
        if bad_listing_key(key):
            raise ParseError(f"{where}: bad listing key {key!r}")
        if key in first_line:
            raise ParseError(f"{where}: duplicate key {key!r}, first on line {first_line[key]}")
        if key in trained_keys:
            raise ParseError(f"{where}: cold key {key!r} is a trained listing")
        first_line[key] = line
        rows.append((key, _geo_point(record, where)))
    return rows


def _cold_block_start(data: bytes) -> int:
    """Offset of the first ``#coldstart`` line in ``data``, -1 when there is
    none: the marker after a line end and before one or the end of the data,
    with ``\n``, ``\r\n`` and ``\r`` each ending a line, as the readers take
    them.  Line 1, the header, is never the marker.  The scan looks for
    ``#`` alone: a one-byte search runs about ten times faster than one for
    the whole marker."""
    at = data.find(b"#", 1)
    while at >= 0:
        end = at + len(COLD_MARKER)
        if (
            data[at - 1] in b"\r\n"
            and data.startswith(COLD_MARKER, at)
            and (end == len(data) or data[end] in b"\r\n")
        ):
            return at
        at = data.find(b"#", at + 1)
    return -1


def append_cold_rows(path, rows: list[tuple[str, np.ndarray]]) -> None:
    """Append extrapolated rows to an embedding text file.

    A ``#coldstart`` comment precedes the appended block, whose lines end as
    the file's first line does.  A block an earlier run appended is
    replaced, or removed when there are no rows, so a rerun leaves the same
    bytes whichever line end the file uses.  A file without a block is left
    untouched when there are no rows; when its last row has no line end, the
    block starts with one.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        cut = _cold_block_start(data)
        first_end = re.search(rb"\r\n?|\n", data)
        eol = first_end.group() if first_end else b"\n"
        lead = eol if cut < 0 and data[-1:] not in (b"", b"\r", b"\n") else b""
        del data, first_end  # the match holds the text too: free both before the block is built
        if cut >= 0:
            fh.seek(cut)
            fh.truncate()
        if rows:
            block = "".join(_text_row(key, vec) for key, vec in rows).encode("utf-8")
            fh.write(lead + COLD_MARKER + eol)
            fh.write(block if eol == b"\n" else block.replace(b"\n", eol))
