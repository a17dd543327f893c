"""The three benchmark workloads.

Each workload makes every input from its seed in :meth:`setup` (timed as
set-up), runs one round of its job in :meth:`timed` and checks the round's
outputs in :meth:`check`, outside the timed phase.  All three are batch jobs
driven by one caller; ``lookup`` is a closed loop with one client and no
think time.

Each workload maps the end-to-end metrics onto its own job:

===============  ====================  ======================  ====================
metric           listing_embed         traveler_train          lookup
===============  ====================  ======================  ====================
wall_s           train-embeddings +    split, prefixes, four   artifact load +
                 coldstart             trainers, three evals   every request
throughput_per_s embed_views_per_s     train_examples_per_s    lookups_per_s
quality          sg_separation: margin AUC(handcrafted+dan)    top-10 neighbour
                 / sd of cosines                               cluster precision
===============  ====================  ======================  ====================
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from session2rec import cli, coldstart, corpus, evaluation, skipgram, traveler

clock = time.perf_counter


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_embedding_rows(path):
    """Independent parser of the embedding text: (keys, matrix, rows before #coldstart)."""
    keys, rows, warm = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if line.startswith("#coldstart"):
                warm = len(rows)
                continue
            parts = line.split()
            keys.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    return keys, np.asarray(rows), len(rows) if warm is None else warm


def _planted_table(rng, clusters: np.ndarray, n_clusters: int, dim: int, noise: float):
    """Cluster centroid plus seeded noise per row, both at scale 1/sqrt(d)."""
    centroids = rng.normal(0.0, 1.0 / math.sqrt(dim), size=(n_clusters, dim))
    return centroids[clusters] + rng.normal(0.0, noise / math.sqrt(dim), size=(len(clusters), dim))


def _synthetic(seed, n_listings, n_clusters, n_travelers):
    return corpus.generate_synthetic(corpus.SyntheticConfig(
        n_listings=n_listings, n_clusters=n_clusters, n_travelers=n_travelers,
        mean_session_len=8, booking_base_rate=0.3, seed=seed,
    ))


def _view_count(log) -> int:
    return sum(1 for s in log.sessions for it in s.interactions if it.event_kind == "view")


class ListingEmbed:
    """CLI ``train-embeddings`` then ``coldstart`` on a generated session log.

    Skip-gram does nearly all the work; its two tables (V x d x 8 B x 2) fit
    in L2.  At this density the embeddings learn, so the criterion-02 floors
    (purity >= 0.8, margin >= 0.2) are checked on every round.
    """

    name = "listing_embed"
    n_listings, n_clusters, n_travelers, dim, epochs, min_count = 300, 10, 3000, 32, 5, 5
    n_cold = 30
    ops_per_round = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> None:
        log, truth = _synthetic(self.seed, self.n_listings, self.n_clusters, self.n_travelers)
        corpus.save_sessions(log, directory / "sessions.tsv")
        vocabulary = corpus.build_vocabulary(log, self.min_count)
        rng = np.random.default_rng([self.seed, 1])
        k = self.n_clusters
        lat = rng.uniform(-60.0, 70.0, size=k)
        lon = rng.uniform(-170.0, 170.0, size=k)
        _write_csv(
            directory / "centroids.csv", ["destination_id", "latitude", "longitude"],
            [(f"D{c:02d}", repr(float(lat[c])), repr(float(lon[c]))) for c in range(k)],
        )
        demand = []
        for key in vocabulary.index_to_key:
            home = truth.cluster_of_listing[key]
            others = rng.choice([c for c in range(k) if c != home], size=2, replace=False)
            demand += [(key, f"D{home:02d}", "0.8")] + [(key, f"D{c:02d}", "0.1") for c in others]
        _write_csv(directory / "demand.csv", ["listing_key", "destination_id", "proportion"], demand)
        near = rng.integers(k, size=self.n_cold)
        _write_csv(
            directory / "cold.csv", ["listing_key", "latitude", "longitude"],
            [
                (f"C{i:05d}", repr(float(lat[c] + rng.uniform(-1, 1))), repr(float(lon[c] + rng.uniform(-1, 1))))
                for i, c in enumerate(near)
            ],
        )
        config = {
            "seed": self.seed,
            "skipgram": {"dim": self.dim, "epochs": self.epochs, "min_count": self.min_count},
            "coldstart": {
                "demand_file": "demand.csv", "centroids_file": "centroids.csv",
                "cold_listings_file": "cold.csv",
            },
        }
        (directory / "config.json").write_text(json.dumps(config))
        self.directory = directory
        self.vocab_size = len(vocabulary)
        self.clusters = np.array([truth.cluster_of_listing[key] for key in vocabulary.index_to_key])
        self.in_vocab_views = vocabulary.total_views
        views = _view_count(log)
        self.summary = {
            "sessions": len(log.sessions), "views": views, "oov_views": views - vocabulary.total_views,
            "V": self.vocab_size, "d": self.dim, "epochs": self.epochs, "cold_listings": self.n_cold,
            "table_bytes": 2 * self.vocab_size * self.dim * 8,
        }

    def timed(self) -> dict:
        argv = ["--config", str(self.directory / "config.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            train_code = cli.main(argv + ["train-embeddings"])
            trained = clock()
            cold_code = cli.main(argv + ["coldstart"])
            end = clock()
        return {
            "wall_s": end - start,
            "failed_ops": int(train_code != 0) + int(cold_code != 0),
            "train_embeddings_s": trained - start,
            "coldstart_s": end - trained,
        }

    def check(self, result: dict) -> dict:
        text = self.directory / "embeddings.txt"
        keys, rows, warm = _read_embedding_rows(text)
        table = skipgram.EmbeddingTable(rows[:warm], np.zeros_like(rows[:warm]))
        intra, inter, purity = skipgram.embedding_cluster_quality(table, self.clusters)
        margin = intra - inter
        # margin in units of the spread of all pairwise cosines: across seeds
        # it varies a quarter as much as the raw margin, which moves with the
        # direction every trained vector shares
        unit = table.input_vectors / np.linalg.norm(table.input_vectors, axis=1, keepdims=True)
        cosines = (unit @ unit.T)[~np.eye(warm, dtype=bool)]
        separation = margin / cosines.std()
        result["checks"] = {
            "rows_finite": bool(np.isfinite(rows).all()),
            "rows_are_V_plus_cold": len(keys) == self.vocab_size + self.n_cold and warm == self.vocab_size,
            "purity_at_least_0.8": purity >= 0.8,
            "margin_at_least_0.2": margin >= 0.2,
        }
        result["throughput_per_s"] = self.in_vocab_views * self.epochs / result["train_embeddings_s"]
        result["quality"] = separation
        result["named"] = {
            "embed_views_per_s": (result["throughput_per_s"], "views/s"),
            "sg_separation": (separation, "sd"),
            "sg_margin": (margin, "cosine"),
            "sg_purity": (purity, "ratio"),
        }
        result["fingerprints"] = {
            "embeddings.txt": sha256(text),
            "embeddings.s2re": sha256(self.directory / "embeddings.s2re"),
        }
        return result


class TravelerTrain:
    """Traveler models and the downstream uplift protocol on a generated table.

    The embedding table is planted-cluster centroid plus noise, written and
    parsed back in set-up, so skip-gram does no work in the timed phase.
    """

    name = "traveler_train"
    n_listings, n_clusters, n_travelers, dim, noise = 200, 10, 2500, 16, 0.5
    epochs = {"average": 20, "dan": 20, "lstm": 2, "lstm_attention": 2}
    settings = ("handcrafted", "dan", "lstm_attention")
    eval_epochs = 40
    ops_per_round = 20  # split, 2 prefix sets, examples, 4 trainings + saves, 2 case sets, 3 evals + saves

    def __init__(self, seed: int):
        self.seed = seed
        self.traveler_config = traveler.TravelerConfig(
            input_dim=self.dim, hidden_expand=32, hidden_contract=12, embedding_dim=6,
            lstm_hidden=8, batch_size=64, learning_rate=2e-3, seed=seed,
        )
        self.downstream_config = evaluation.DownstreamConfig(epochs=self.eval_epochs, seed=seed)

    def setup(self, directory: Path) -> None:
        log, truth = _synthetic(self.seed, self.n_listings, self.n_clusters, self.n_travelers)
        corpus.save_sessions(log, directory / "sessions.tsv")
        keys = sorted(truth.cluster_of_listing)
        clusters = np.array([truth.cluster_of_listing[key] for key in keys])
        vectors = _planted_table(np.random.default_rng([self.seed, 2]), clusters, self.n_clusters, self.dim, self.noise)
        skipgram.save_embeddings_text(
            skipgram.EmbeddingTable(vectors, np.zeros_like(vectors)), keys, directory / "embeddings.txt"
        )
        self.corpus = corpus.load_sessions(directory / "sessions.tsv")
        keys, vectors = skipgram.load_embeddings_text(directory / "embeddings.txt")
        self.table = skipgram.EmbeddingTable(vectors, np.zeros_like(vectors))
        self.key_to_index = {key: i for i, key in enumerate(keys)}
        (directory / "reports").mkdir()
        self.directory = directory
        train, test = corpus.split_by_user(self.corpus, 0.7, self.seed)
        prefixes = corpus.labeled_prefixes(train), corpus.labeled_prefixes(test)
        self.summary = {
            "sessions": len(self.corpus.sessions), "views": _view_count(self.corpus),
            "oov_views": sum(
                1 for side in prefixes for p in side for it in p.views if it.listing_key not in self.key_to_index
            ),
            "V": len(keys), "d": self.dim, "examples": len(prefixes[0]), "test_cases": len(prefixes[1]),
            "epochs": dict(self.epochs), "eval_epochs": self.eval_epochs,
            "table_bytes": len(keys) * self.dim * 8,
        }

    def timed(self) -> dict:
        table, key_to_index, directory = self.table, self.key_to_index, self.directory
        start = clock()
        train, test = corpus.split_by_user(self.corpus, 0.7, self.seed)
        train_prefixes = corpus.labeled_prefixes(train, 50)
        test_prefixes = corpus.labeled_prefixes(test, 50)
        examples = traveler.build_examples(train_prefixes, key_to_index, table)
        models, losses, train_s = {}, {}, 0.0
        for kind, epochs in self.epochs.items():
            began = clock()
            models[kind], trace = traveler.train_traveler_model(
                examples, kind, replace(self.traveler_config, epochs=epochs), {"split": "train"}
            )
            train_s += clock() - began
            losses[kind] = [entry.mean_loss for entry in trace]
            traveler.save_traveler_model(models[kind], directory / f"traveler_{kind}.json")
        train_cases = evaluation.build_downstream_cases(train_prefixes, key_to_index, table)
        test_cases = evaluation.build_downstream_cases(test_prefixes, key_to_index, table)
        reports, eval_s = {}, 0.0
        for setting in self.settings:
            spec = evaluation.FeatureSetSpec(setting, True, models.get(setting))
            began = clock()
            reports[setting] = evaluation.downstream_eval(train_cases, test_cases, spec, self.downstream_config)
            eval_s += clock() - began
            evaluation.save_report(reports[setting], directory / "reports" / f"{setting}.json")
        end = clock()
        return {
            "wall_s": end - start, "failed_ops": 0, "train_s": train_s, "eval_s": eval_s,
            "examples": len(examples), "train_cases": len(train_cases), "test_cases": len(test_cases),
            "losses": losses, "reports": reports,
        }

    def check(self, result: dict) -> dict:
        reports = result.pop("reports")
        losses = result.pop("losses")
        test_sets = {(r.positives, r.negatives, r.provenance) for r in reports.values()}
        aucs = {name: r.auc for name, r in reports.items()}
        result["checks"] = {
            "reports_share_test_set": len(test_sets) == 1,
            "reports_count_every_test_case": all(
                r.positives + r.negatives == result["test_cases"] for r in reports.values()
            ),
            "losses_finite": all(math.isfinite(x) for trace in losses.values() for x in trace),
            "auc_in_unit_interval": all(0.0 <= x <= 1.0 for x in aucs.values()),
        }
        example_epochs = result["examples"] * sum(self.epochs.values())
        result["throughput_per_s"] = example_epochs / result["train_s"]
        result["quality"] = aucs["dan"]
        result["named"] = {
            "train_examples_per_s": (result["throughput_per_s"], "examples/s"),
            "eval_cases_per_s": (
                result["train_cases"] * self.eval_epochs * len(self.settings) / result["eval_s"], "cases/s",
            ),
            "uplift_auc": (aucs["dan"] - aucs["handcrafted"], "AUC"),
            **{f"auc.{name}": (value, "AUC") for name, value in aucs.items()},
        }
        directory = self.directory
        result["fingerprints"] = {
            **{f"traveler_{kind}.json": sha256(directory / f"traveler_{kind}.json") for kind in self.epochs},
            **{f"reports/{s}.json": sha256(directory / "reports" / f"{s}.json") for s in self.settings},
            "embeddings.txt": sha256(directory / "embeddings.txt"),
        }
        return result


NN, COLD, DAN, LSTM_ATTENTION = range(4)
REQUEST_KINDS = ("nn", "cold", "dan", "lstm_attention")


class Lookup:
    """Load every artifact, then serve a seeded equal-share request mix.

    The 20k-row table (V x d x 8 B) is larger than L2, unlike the tables of
    ``listing_embed``.  Requests are single reads and forward passes through
    the same modules the other workloads train with.
    """

    name = "lookup"
    n_listings, n_clusters, n_travelers, dim, noise = 20000, 50, 2000, 32, 1.0
    n_cold, n_destinations, top_k, m_nearest = 200, 500, 10, 5
    requests = 3000
    check_share = 0.05
    ops_per_round = 10 + requests  # loads and builds, then one op per request

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> None:
        log, _ = _synthetic(self.seed, self.n_listings, self.n_clusters, self.n_travelers)
        corpus.save_sessions(log, directory / "sessions.tsv")
        rng = np.random.default_rng([self.seed, 3])
        v, k, d = self.n_listings, self.n_clusters, self.dim
        # generate_synthetic puts listing i in cluster i % K
        clusters = np.concatenate([np.arange(v) % k, rng.integers(k, size=self.n_cold)])
        vectors = _planted_table(rng, clusters, k, d, self.noise)
        warm_keys = [f"L{i:06d}" for i in range(v)]
        cold_keys = [f"C{i:06d}" for i in range(self.n_cold)]
        skipgram.save_embeddings_text(
            skipgram.EmbeddingTable(vectors[:v], np.zeros((v, d))), warm_keys, directory / "embeddings.txt"
        )
        coldstart.append_cold_rows(directory / "embeddings.txt", list(zip(cold_keys, vectors[v:])))

        # destination j serves cluster j % K; each listing splits its demand
        # 0.7 / 0.3 over two distinct destinations of its own cluster
        per_cluster = self.n_destinations // k
        lat = rng.uniform(-60.0, 70.0, size=self.n_destinations)
        lon = rng.uniform(-170.0, 170.0, size=self.n_destinations)
        first = rng.integers(per_cluster, size=v)
        second = (first + rng.integers(1, per_cluster, size=v)) % per_cluster
        demand_listing = np.repeat(np.arange(v), 2)
        demand_dest = np.stack([clusters[:v] + k * first, clusters[:v] + k * second], axis=1).reshape(-1)
        demand_p = np.tile([0.7, 0.3], v)
        _write_csv(
            directory / "demand.csv", ["listing_key", "destination_id", "proportion"],
            [(warm_keys[i], f"D{j:03d}", repr(float(p))) for i, j, p in zip(demand_listing, demand_dest, demand_p)],
        )
        _write_csv(
            directory / "centroids.csv", ["destination_id", "latitude", "longitude"],
            [(f"D{j:03d}", repr(float(lat[j])), repr(float(lon[j]))) for j in range(self.n_destinations)],
        )
        config = traveler.TravelerConfig(input_dim=d, seed=self.seed)
        for i, kind in enumerate(("dan", "lstm_attention")):
            # initialised, not trained: a forward pass costs the same for any weights
            params = traveler.init_params(kind, config, np.random.default_rng([self.seed, 4, i]))
            model = traveler.TravelerModel(kind, params, d, self.seed, {"split": "train"})
            traveler.save_traveler_model(model, directory / f"traveler_{kind}.json")

        kinds = rng.permutation(np.repeat(np.arange(4), self.requests // 4))
        near = rng.integers(self.n_destinations, size=self.requests)
        points = np.stack([
            np.clip(lat[near] + rng.uniform(-0.5, 0.5, size=self.requests), -90.0, 90.0),
            lon[near] + rng.uniform(-0.5, 0.5, size=self.requests),
        ], axis=1)
        picks = rng.integers(v + self.n_cold, size=self.requests)
        self.request_list = [
            (int(kind), (float(points[i, 0]), float(points[i, 1])) if kind == COLD else int(picks[i]))
            for i, kind in enumerate(kinds)
        ]
        self.sampled = set(np.flatnonzero(rng.random(self.requests) < self.check_share).tolist())
        self.directory = directory
        self.vectors, self.clusters = vectors, clusters
        self.lat, self.lon = lat, lon
        self.demand = (demand_listing, demand_dest, demand_p)

        _, test = corpus.split_by_user(log, 0.7, self.seed)
        views = _view_count(log)
        self.summary = {
            "sessions": len(log.sessions), "views": views, "oov_views": 0,
            "V": v + self.n_cold, "d": d, "destinations": self.n_destinations,
            "test_cases": len(corpus.labeled_prefixes(test)),
            "requests": {name: int(np.sum(kinds == i)) for i, name in enumerate(REQUEST_KINDS)},
            "checked_requests": len(self.sampled),
            "table_bytes": (v + self.n_cold) * d * 8,
        }

    def timed(self) -> dict:
        directory = self.directory
        start = clock()
        log = corpus.load_sessions(directory / "sessions.tsv")
        _, test = corpus.split_by_user(log, 0.7, self.seed)
        prefixes = corpus.labeled_prefixes(test, 50)
        keys, vectors = skipgram.load_embeddings_text(directory / "embeddings.txt")
        table = skipgram.EmbeddingTable(vectors, np.zeros_like(vectors))
        key_to_index = {key: i for i, key in enumerate(keys)}
        examples = traveler.build_examples(prefixes, key_to_index, table)
        models = [
            traveler.load_traveler_model(directory / "traveler_dan.json"),
            traveler.load_traveler_model(directory / "traveler_lstm_attention.json"),
        ]
        demand = coldstart.load_demand_csv(directory / "demand.csv", key_to_index)
        centroids = coldstart.load_centroids_csv(directory / "centroids.csv")
        destinations = coldstart.destination_embeddings(table, demand)
        loaded = clock()

        latencies, outputs, errors = [], {}, []
        sampled, n_examples = self.sampled, len(examples)
        for i, (kind, arg) in enumerate(self.request_list):
            began = clock()
            try:
                if kind == NN:
                    out = skipgram.nearest_neighbors(table, arg, self.top_k)
                elif kind == COLD:
                    belief = coldstart.demand_belief_from_location(
                        coldstart.GeoPoint(*arg), centroids, self.m_nearest
                    )
                    out = coldstart.extrapolate_cold(belief, destinations)
                else:
                    model, viewed = models[kind - DAN], examples[arg % n_examples].viewed
                    traveler.traveler_embedding(model, viewed)
                    out = traveler.predict_probability(model, viewed)
            except Exception:  # the serving loop keeps going; the request counts as failed
                errors.append(f"request {i}: {traceback.format_exc()}")
                out = None
            latencies.append(clock() - began)
            if kind != COLD or i in sampled:
                outputs[i] = out
        end = clock()
        return {
            "wall_s": end - start, "failed_ops": len(errors), "errors": errors[:1], "load_s": loaded - start,
            "serve_s": end - loaded, "latencies": latencies, "outputs": outputs,
        }

    def check(self, result: dict) -> dict:
        outputs = result.pop("outputs")
        vectors, clusters = self.vectors, self.clusters
        norms = np.linalg.norm(vectors, axis=1)
        dest_vectors = self._destination_means()
        nn_ok = cold_ok = prob_ok = True
        precision = []
        for i, out in outputs.items():
            kind, arg = self.request_list[i]
            if out is None:
                continue
            if kind == NN:
                precision.append(np.mean([clusters[j] == clusters[arg] for j, _ in out]))
                if i in self.sampled:
                    cos = vectors @ vectors[arg] / (norms * norms[arg])
                    cos[arg] = -np.inf
                    ranked = np.argsort(-cos, kind="stable")[: self.top_k]
                    nn_ok &= [j for j, _ in out] == ranked.tolist()
                    nn_ok &= np.allclose([c for _, c in out], cos[ranked], rtol=1e-12, atol=1e-15)
            elif kind == COLD:
                cold_ok &= np.allclose(out, self._cold_vector(arg, dest_vectors), rtol=1e-9, atol=1e-12)
            else:
                prob_ok &= math.isfinite(out) and 0.0 < out < 1.0
        result["checks"] = {
            "nn_matches_brute_force": bool(nn_ok),
            "cold_matches_belief_weighted_mean": bool(cold_ok),
            "probabilities_in_open_unit_interval": bool(prob_ok),
        }
        result["throughput_per_s"] = self.requests / result["serve_s"]
        result["quality"] = float(np.mean(precision)) if precision else float("nan")
        result["named"] = {
            "artifact_load_s": (result["load_s"], "s"),
            "lookups_per_s": (result["throughput_per_s"], "req/s"),
            "nn_precision_at_10": (result["quality"], "ratio"),
        }
        directory = self.directory
        result["fingerprints"] = {
            name: sha256(directory / name)
            for name in ("embeddings.txt", "traveler_dan.json", "traveler_lstm_attention.json")
        }
        return result

    def _destination_means(self) -> np.ndarray:
        listing, dest, p = self.demand
        sums = np.zeros((self.n_destinations, self.dim))
        np.add.at(sums, dest, p[:, None] * self.vectors[listing])
        return sums / np.bincount(dest, weights=p, minlength=self.n_destinations)[:, None]

    def _cold_vector(self, point, dest_vectors) -> np.ndarray:
        lat1, lon1 = np.radians(point[0]), np.radians(point[1])
        lat2, lon2 = np.radians(self.lat), np.radians(self.lon)
        s = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
        km = 2.0 * coldstart.EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))
        nearest = np.argsort(km, kind="stable")[: self.m_nearest]  # ids sort like indices
        weights = 1.0 / (km[nearest] + 1.0)
        return (weights / weights.sum()) @ dest_vectors[nearest]


WORKLOADS = {w.name: w for w in (ListingEmbed, TravelerTrain, Lookup)}
