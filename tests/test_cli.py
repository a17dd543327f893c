import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from session2rec import cli, coldstart, corpus, evaluation, neural, skipgram, traveler
from session2rec.coldstart import (
    DestinationDemand,
    destination_embeddings,
    demand_belief_from_location,
    extrapolate_cold,
    load_centroids_csv,
    GeoPoint,
)
from session2rec.errors import ConfigError, ParseError
from session2rec.skipgram import EmbeddingTable, load_embeddings_text

from conftest import corrupting_grad_check

TINY = {
    "seed": 5,
    "corpus": {
        "n_listings": 30,
        "n_clusters": 3,
        "n_travelers": 120,
        "mean_session_len": 6,
        "booking_base_rate": 0.35,
    },
    "skipgram": {
        "dim": 8,
        "window": 2,
        "negatives": 3,
        "epochs": 2,
        "min_count": 1,
        "subsample_threshold": 0.1,
    },
    "traveler": {
        "epochs": 3,
        "batch_size": 16,
        "hidden_expand": 12,
        "hidden_contract": 6,
        "embedding_dim": 4,
        "lstm_hidden": 4,
    },
    "eval": {"settings": ["handcrafted", "dan"], "epochs": 5},
}
# the TravelerConfig the CLI builds from TINY: its traveler section, skip-gram dim and seed
TINY_TRAVELER = traveler.TravelerConfig(input_dim=8, **TINY["traveler"], seed=5)


# The CLI defaults as hand-written dicts before the library dataclasses held
# them: the schema derived from the dataclasses must reproduce them exactly.
OLD_DEFAULTS = {
    "corpus": {
        "n_listings": 1000, "n_clusters": 10, "n_travelers": 10000,
        "mean_session_len": 8, "booking_base_rate": 0.3, "epsilon": 0.1,
        "booking_slope": 2.0, "sessions_per_traveler": 1,
        "sessions_file": "sessions.tsv", "ground_truth_file": "clusters.tsv",
    },
    "skipgram": {
        "dim": 32, "window": 3, "negatives": 5, "epochs": 5,
        "learning_rate_initial": 0.025, "learning_rate_final": 0.0001,
        "subsample_threshold": 1e-3, "min_count": 5,
        "embeddings_file": "embeddings.txt", "sidecar_file": "embeddings.s2re",
    },
    "coldstart": {
        "demand_file": None, "centroids_file": None, "cold_listings_file": None,
        "nearest_destinations": 5,
    },
    "traveler": {
        "epochs": 20, "batch_size": 64, "learning_rate": 2e-3,
        "positive_class_weight": None, "max_prefix_views": 50,
        "hidden_expand": 64, "hidden_contract": 16, "embedding_dim": 8,
        "lstm_hidden": 16,
    },
    "eval": {
        "train_fraction": 0.7, "settings": ["handcrafted", "dan"],
        "epochs": 40, "batch_size": 64, "learning_rate": 0.01,
        "positive_class_weight": None, "reports_dir": "reports", "comparison_file": "comparison.txt",
    },
}
OLD_COUNT_KEYS = {
    "n_listings", "n_clusters", "n_travelers", "sessions_per_traveler", "dim", "window",
    "negatives", "epochs", "batch_size", "min_count", "max_prefix_views", "hidden_expand",
    "hidden_contract", "embedding_dim", "lstm_hidden", "nearest_destinations",
}


def wrong_type_value(key, default):
    """A number for strings and lists; a bool for counts and numbers."""
    return 1 if isinstance(default, (str, list)) or key.endswith("_file") else True


def write_config(tmp_path, overrides=None, name="config.json"):
    config = json.loads(json.dumps(TINY))
    for section, values in (overrides or {}).items():
        if isinstance(values, dict):
            config.setdefault(section, {}).update(values)
        else:
            config[section] = values
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the coldstart section that reads the CSVs write_cold_inputs writes
COLD = {
    "coldstart": {
        "demand_file": "demand.csv", "centroids_file": "centroids.csv",
        "cold_listings_file": "cold.csv", "nearest_destinations": 2,
    }
}
EIGHT_SETTINGS = [
    "handcrafted", "random", "average", "dan", "lstm", "lstm_attention", "dan_only", "lstm_attention_only",
]


def write_cold_inputs(directory):
    """Demand, centroid and cold-listing CSVs for TINY: each listing of its
    vocabulary sends its demand to one of three destinations, and two cold
    listings lie near the first two."""
    log, _ = corpus.generate_synthetic(corpus.SyntheticConfig(**TINY["corpus"], seed=TINY["seed"]))
    keys = corpus.build_vocabulary(log, TINY["skipgram"]["min_count"]).index_to_key
    (directory / "demand.csv").write_text(
        "listing_key,destination_id,proportion\n" + "".join(f"{k},D{i % 3},1.0\n" for i, k in enumerate(keys))
    )
    (directory / "centroids.csv").write_text(
        "destination_id,latitude,longitude\nD0,48.85,2.35\nD1,40.71,-74.0\nD2,35.68,139.69\n"
    )
    (directory / "cold.csv").write_text("listing_key,latitude,longitude\nCOLD1,48.0,2.0\nCOLD2,39.0,-70.0\n")


def artifacts(directory):
    """{relative path: bytes} of every file under ``directory`` but the
    training logs, which carry wall times."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file() and p.suffix != ".log"
    }


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"surprise": {"x": 1}})
        assert cli.main(["--config", str(path), "generate"]) == 2

    def test_unknown_section_key(self, tmp_path):
        path = write_config(tmp_path, {"skipgram": {"learning_rate": 1.0}})
        assert cli.main(["--config", str(path), "generate"]) == 2

    def test_smoothed_negatives_is_an_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"skipgram": {"smoothed_negatives": False}})
        assert cli.main(["--config", str(path), "generate"]) == 2
        assert "unknown keys in section 'skipgram': ['smoothed_negatives']" in capsys.readouterr().err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["--config", str(path), "generate"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.json"), "generate"]) == 1

    def test_bad_range_is_config_error(self, tmp_path):
        path = write_config(tmp_path, {"corpus": {"booking_base_rate": 2.0}})
        assert cli.main(["--config", str(path), "generate"]) == 2

    def test_command_requires_config(self, capsys):
        assert cli.main(["generate"]) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("skipgram", "dim", "8"),
            ("corpus", "n_listings", True),
            ("skipgram", "window", 2.0),
            ("traveler", "hidden_expand", None),
            ("corpus", "booking_slope", "2"),
            ("eval", "learning_rate", None),
            ("skipgram", "learning_rate_initial", False),
            ("skipgram", "subsample_threshold", "0.001"),
            ("traveler", "max_prefix_views", 2.5),
            ("skipgram", "embeddings_file", None),
            ("coldstart", "demand_file", 5),
            ("eval", "reports_dir", ["reports"]),
            ("eval", "settings", "dan"),
            ("eval", "settings", ["dan", 1]),
            ("traveler", "positive_class_weight", "2"),
        ],
    )
    def test_wrong_value_type_names_key(self, section, key, value, tmp_path):
        path = write_config(tmp_path, {section: {key: value}})
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            cli.load_config(path)

    def test_non_finite_number_names_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"corpus": {"epsilon": NaN}}')
        with pytest.raises(ConfigError, match=r"corpus\.epsilon"):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("coldstart", "demand_file", None),
            ("coldstart", "demand_file", "demand.csv"),
            ("traveler", "positive_class_weight", None),
            ("eval", "positive_class_weight", 2),
            ("corpus", "mean_session_len", 7.5),
            ("skipgram", "subsample_threshold", 1),
        ],
    )
    def test_value_of_the_right_type_loads(self, section, key, value, tmp_path):
        path = write_config(tmp_path, {section: {key: value}})
        assert cli.load_config(path).__dict__[section][key] == value

    def test_string_dim_exits_two(self, tmp_path, capsys):
        cli.main(["--config", str(write_config(tmp_path)), "generate"])
        path = write_config(tmp_path, {"skipgram": {"dim": "8"}}, name="bad.json")
        assert cli.main(["--config", str(path), "train-embeddings"]) == 2
        assert "skipgram.dim" in capsys.readouterr().err
        assert not (tmp_path / "embeddings.txt").exists()


class TestConfigSchema:
    def test_empty_config_yields_the_old_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        config = cli.load_config(path)
        assert config.seed == 0
        for section, defaults in OLD_DEFAULTS.items():
            loaded = getattr(config, section)
            assert loaded == defaults
            types = {k: type(v) for k, v in loaded.items()}
            assert types == {k: type(v) for k, v in defaults.items()}
        assert sum(len(d) for d in OLD_DEFAULTS.values()) == 41

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param(section, key, wrong_type_value(key, default), id=f"{section}.{key}")
            for section, defaults in OLD_DEFAULTS.items()
            for key, default in defaults.items()
        ],
    )
    def test_every_key_rejects_a_wrong_type(self, section, key, value, tmp_path):
        path = write_config(tmp_path, {section: {key: value}})
        expected = "an integer" if key in OLD_COUNT_KEYS else ""
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be {expected}"):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "name", ["traveler.kind", "traveler.model_file", "traveler.trace_file", "eval.eval_sessions_file"]
    )
    def test_deleted_key_is_unknown(self, name, tmp_path, capsys):
        section, key = name.split(".")
        path = write_config(tmp_path, {section: {key: "dan"}})
        assert cli.main(["--config", str(path), "generate"]) == 2
        assert f"unknown keys in section {section!r}: [{key!r}]" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("seed", [True, 1.0])
    def test_non_integer_seed_exits_two(self, seed, tmp_path, capsys):
        path = write_config(tmp_path, {"seed": seed})
        with pytest.raises(ConfigError, match="seed must be an integer"):
            cli.load_config(path)
        assert cli.main(["--config", str(path), "generate"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "sessions.tsv").exists()

    def test_range_error_names_the_section(self, tmp_path, capsys):
        cli.main(["--config", str(write_config(tmp_path)), "generate"])
        path = write_config(tmp_path, {"skipgram": {"dim": 1}}, name="bad.json")
        assert cli.main(["--config", str(path), "train-embeddings"]) == 2
        assert "skipgram: dim must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "embeddings.txt").exists()


# each range rule of a CLI-only key: (section, key, a value it rejects, what
# `pipeline` and the command that reads the key print, that command)
RANGE_RULES = [
    ("skipgram", "min_count", 0, "skipgram.min_count must be >= 1", ["train-embeddings"]),
    ("coldstart", "nearest_destinations", 0, "coldstart.nearest_destinations must be >= 1",
     ["coldstart"]),
    ("traveler", "max_prefix_views", 0, "traveler.max_prefix_views must be >= 1",
     ["train-traveler", "--kind", "dan"]),
    ("eval", "train_fraction", 1.0, "eval.train_fraction must be in (0, 1)",
     ["evaluate", "--settings", "handcrafted"]),
]
RANGE_RULE_IDS = [f"{section}.{key}" for section, key, *_ in RANGE_RULES]


class TestRangeRules:
    def test_the_schema_holds_a_rule_for_exactly_these_keys(self):
        ruled = [
            (section, key) for section, (_, cli_keys) in cli._SECTIONS.items()
            for key, spec in cli_keys.items() if len(spec) == 3
        ]
        assert ruled == [(section, key) for section, key, *_ in RANGE_RULES]

    @pytest.mark.parametrize(
        "section, key, value, message, command", RANGE_RULES, ids=RANGE_RULE_IDS
    )
    def test_pipeline_exits_two_before_writing_any_file(
        self, section, key, value, message, command, tmp_path, capsys
    ):
        path = write_config(tmp_path, {section: {key: value}})
        assert cli.main(["--config", str(path), "pipeline"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "section, key, value, message, command", RANGE_RULES, ids=RANGE_RULE_IDS
    )
    def test_the_command_that_reads_the_key_exits_two_writing_nothing(
        self, section, key, value, message, command, tmp_path, capsys
    ):
        path = write_config(tmp_path, COLD)
        write_cold_inputs(tmp_path)
        for stage in (["generate"], ["train-embeddings"], ["coldstart"]):
            assert cli.main(["--config", str(path), *stage]) == 0
        (tmp_path / "reports").mkdir()
        overrides = {"coldstart": dict(COLD["coldstart"])}
        overrides.setdefault(section, {})[key] = value
        write_config(tmp_path, overrides)
        before = artifacts(tmp_path)
        capsys.readouterr()
        assert cli.main(["--config", str(path), *command]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert artifacts(tmp_path) == before  # the reports directory included


class TestGenerate:
    def test_writes_expected_files(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["--config", str(path), "generate"]) == 0
        sessions = (tmp_path / "sessions.tsv").read_text().strip().split("\n")
        clusters = [
            line for line in (tmp_path / "clusters.tsv").read_text().strip().split("\n")
            if not line.startswith("#")
        ]
        assert len(clusters) == 30
        travelers = {line.split("\t")[0] for line in sessions}
        assert len(travelers) == 120

    def test_missing_output_dir_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path)
        missing = tmp_path / "not_there"
        code = cli.main(["--config", str(path), "--out", str(missing), "generate"])
        assert code == 1
        assert "not_there" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        first = (file_hash(tmp_path / "sessions.tsv"), file_hash(tmp_path / "clusters.tsv"))
        cli.main(["--config", str(path), "generate"])
        second = (file_hash(tmp_path / "sessions.tsv"), file_hash(tmp_path / "clusters.tsv"))
        assert first == second

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        base = file_hash(tmp_path / "sessions.tsv")
        cli.main(["--config", str(path), "--seed", "99", "generate"])
        assert file_hash(tmp_path / "sessions.tsv") != base


class TestTrainEmbeddings:
    def test_writes_all_vocabulary_rows(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        assert cli.main(["--config", str(path), "train-embeddings"]) == 0
        keys, vectors = load_embeddings_text(tmp_path / "embeddings.txt")
        assert len(keys) == 30 and vectors.shape == (30, 8)
        assert (tmp_path / "embeddings.s2re").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        first = (file_hash(tmp_path / "embeddings.txt"), file_hash(tmp_path / "embeddings.s2re"))
        cli.main(["--config", str(path), "train-embeddings"])
        second = (file_hash(tmp_path / "embeddings.txt"), file_hash(tmp_path / "embeddings.s2re"))
        assert first == second

    def test_bad_session_log_names_file_and_line(self, tmp_path, capsys):
        path = write_config(tmp_path)
        (tmp_path / "sessions.tsv").write_text("t1\t0\t5\tA\tview\nt1\t0\tabc\tA\tview\n")
        assert cli.main(["--config", str(path), "train-embeddings"]) == 2
        assert f"{tmp_path / 'sessions.tsv'}: line 2: bad timestamp 'abc'" in capsys.readouterr().err

    def test_overpruned_vocabulary_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"skipgram": {"min_count": 10**6}})
        cli.main(["--config", str(path), "generate"])
        assert cli.main(["--config", str(path), "train-embeddings"]) == 2
        assert "vocabulary empty" in capsys.readouterr().err

    def test_divergence_exits_one_without_writing_vectors(self, tmp_path, capsys):
        rates = {"learning_rate_initial": 1e40, "learning_rate_final": 1e40}
        path = write_config(tmp_path, {"skipgram": rates})
        cli.main(["--config", str(path), "generate"])
        assert cli.main(["--config", str(path), "train-embeddings"]) == 1
        assert "diverged in epoch" in capsys.readouterr().err
        assert not (tmp_path / "embeddings.txt").exists()

    @pytest.mark.parametrize("initial, final", [(1e13, 1e-4), (float("inf"), 1e-4)])
    def test_non_finite_or_cancelling_rates_exit_two(self, initial, final, tmp_path, capsys):
        rates = {"learning_rate_initial": initial, "learning_rate_final": final}
        path = write_config(tmp_path, {"skipgram": rates})
        cli.main(["--config", str(path), "generate"])
        assert cli.main(["--config", str(path), "train-embeddings"]) == 2
        assert "learning" in capsys.readouterr().err
        assert not (tmp_path / "embeddings.txt").exists()

    def test_input_log_not_mutated(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        before = file_hash(tmp_path / "sessions.tsv")
        cli.main(["--config", str(path), "train-embeddings"])
        assert file_hash(tmp_path / "sessions.tsv") == before


class TestColdstart:
    @staticmethod
    def prepare(tmp_path, with_cold=True):
        config_path = write_config(
            tmp_path,
            {
                "coldstart": {
                    "demand_file": "demand.csv",
                    "centroids_file": "centroids.csv",
                    "cold_listings_file": "cold.csv" if with_cold else None,
                    "nearest_destinations": 2,
                }
            },
        )
        cli.main(["--config", str(config_path), "generate"])
        cli.main(["--config", str(config_path), "train-embeddings"])
        keys, _ = load_embeddings_text(tmp_path / "embeddings.txt")
        (tmp_path / "demand.csv").write_text(
            "listing_key,destination_id,proportion\n"
            + f"{keys[0]},north,1.0\n"
            + f"{keys[1]},south,1.0\n"
        )
        (tmp_path / "centroids.csv").write_text(
            "destination_id,latitude,longitude\nnorth,60.0,10.0\nsouth,-60.0,10.0\n"
        )
        if with_cold:
            (tmp_path / "cold.csv").write_text(
                "listing_key,latitude,longitude\nCOLD1,60.0,10.0\n"
            )
        return config_path, keys

    def test_point_mass_appends_destination_vector(self, tmp_path):
        config_path, keys = self.prepare(tmp_path)
        _, before = load_embeddings_text(tmp_path / "embeddings.txt")
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        loaded_keys, vectors = load_embeddings_text(tmp_path / "embeddings.txt")
        assert loaded_keys[-1] == "COLD1"
        # the cold listing sits exactly on the north centroid, m=2 mixes both
        # destinations by inverse distance; recompute through the module API
        table = EmbeddingTable(before, np.zeros_like(before))
        key_to_index = {k: i for i, k in enumerate(keys)}
        demand = DestinationDemand(((key_to_index[keys[0]], "north", 1.0), (key_to_index[keys[1]], "south", 1.0)))
        dest = destination_embeddings(table, demand)
        belief = demand_belief_from_location(
            GeoPoint(60.0, 10.0), load_centroids_csv(tmp_path / "centroids.csv"), 2
        )
        expected = extrapolate_cold(belief, dest)
        assert np.array_equal(vectors[-1], expected)

    def test_rerun_replaces_the_cold_block(self, tmp_path):
        config_path, _ = self.prepare(tmp_path)
        warm = (tmp_path / "embeddings.txt").read_bytes()
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        first = (tmp_path / "embeddings.txt").read_bytes()
        # the first run appends one block after the warm rows, as always
        assert first.startswith(warm)
        block = first[len(warm):].decode().splitlines()
        assert block[0] == "#coldstart" and len(block) == 2 and block[1].startswith("COLD1 ")
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        assert (tmp_path / "embeddings.txt").read_bytes() == first

    def test_inputs_with_a_byte_order_mark_append_the_same_row(self, tmp_path):
        config_path, _ = self.prepare(tmp_path)
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        first = (tmp_path / "embeddings.txt").read_bytes()
        for name in ("embeddings.txt", "demand.csv", "centroids.csv", "cold.csv"):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        assert (tmp_path / "embeddings.txt").read_bytes() == b"\xef\xbb\xbf" + first

    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param(lambda keys: f"{keys[0]},60.0,10.0", "is a trained listing", id="trained-key"),
            pytest.param(lambda keys: "COLD1,north-ish,10.0", "could not convert", id="non-numeric"),
            pytest.param(lambda keys: "COLD1,95.0,10.0", "latitude must be in", id="out-of-range"),
        ],
    )
    def test_bad_cold_listing_exits_two_before_writing(self, rows, message, tmp_path, capsys):
        config_path, keys = self.prepare(tmp_path)
        (tmp_path / "cold.csv").write_text(f"listing_key,latitude,longitude\n{rows(keys)}\n")
        before = (tmp_path / "embeddings.txt").read_bytes()
        assert cli.main(["--config", str(config_path), "coldstart"]) == 2
        err = capsys.readouterr().err
        assert "cold.csv: line 2:" in err and message in err
        assert (tmp_path / "embeddings.txt").read_bytes() == before

    @pytest.mark.parametrize(
        "name, text, message",
        [
            pytest.param(
                "demand.csv", lambda keys: f"listing_key,destination_id,proportion\n{keys[0]},north,lots\n",
                "could not convert", id="non-numeric-proportion",
            ),
            pytest.param(
                "demand.csv", lambda keys: "listing_key,destination_id,proportion\nNOPE,north,1.0\n",
                "unknown listing key 'NOPE'", id="unknown-demand-key",
            ),
            pytest.param(
                "centroids.csv", lambda keys: "destination_id,latitude,longitude\nnorth,north-ish,10.0\n",
                "could not convert", id="non-numeric-coordinate",
            ),
            pytest.param(
                "centroids.csv", lambda keys: "destination_id,latitude,longitude\nnorth,60.0,190.0\n",
                "longitude must be in", id="coordinate-out-of-range",
            ),
        ],
    )
    def test_bad_demand_or_centroid_row_exits_two(self, name, text, message, tmp_path, capsys):
        config_path, keys = self.prepare(tmp_path)
        (tmp_path / name).write_text(text(keys))
        before = (tmp_path / "embeddings.txt").read_bytes()
        assert cli.main(["--config", str(config_path), "coldstart"]) == 2
        err = capsys.readouterr().err
        assert f"{name}: line 2:" in err and message in err
        assert (tmp_path / "embeddings.txt").read_bytes() == before

    def test_duplicate_centroid_exits_two_before_writing(self, tmp_path, capsys):
        config_path, _ = self.prepare(tmp_path)
        (tmp_path / "centroids.csv").write_text(
            "destination_id,latitude,longitude\nnorth,60.0,10.0\nnorth,-60.0,10.0\nsouth,-60.0,10.0\n"
        )
        before = (tmp_path / "embeddings.txt").read_bytes()
        assert cli.main(["--config", str(config_path), "coldstart"]) == 2
        err = capsys.readouterr().err
        assert "centroids.csv: line 3: duplicate destination 'north', first on line 2" in err
        assert (tmp_path / "embeddings.txt").read_bytes() == before

    def test_nearest_destinations_below_one_exits_two_before_writing(self, tmp_path, capsys):
        config_path, _ = self.prepare(tmp_path)
        config = json.loads(config_path.read_text())
        config["coldstart"]["nearest_destinations"] = 0
        config_path.write_text(json.dumps(config))
        before = file_hash(tmp_path / "embeddings.txt")
        assert cli.main(["--config", str(config_path), "coldstart"]) == 2
        assert "coldstart.nearest_destinations must be >= 1" in capsys.readouterr().err
        assert file_hash(tmp_path / "embeddings.txt") == before

    def test_cold_listings_without_centroids_exit_two_before_writing(self, tmp_path, capsys):
        config_path, _ = self.prepare(tmp_path)
        config = json.loads(config_path.read_text())
        config["coldstart"]["centroids_file"] = None
        config_path.write_text(json.dumps(config))
        before = file_hash(tmp_path / "embeddings.txt")
        assert cli.main(["--config", str(config_path), "coldstart"]) == 2
        assert "coldstart needs demand_file and centroids_file" in capsys.readouterr().err
        assert file_hash(tmp_path / "embeddings.txt") == before

    def test_rerun_without_cold_rows_removes_the_block(self, tmp_path):
        path = write_config(tmp_path, COLD)
        write_cold_inputs(tmp_path)
        argv = ["--config", str(path)]
        for command in ("generate", "train-embeddings"):
            assert cli.main(argv + [command]) == 0
        trained = (tmp_path / "embeddings.txt").read_bytes()
        assert cli.main(argv + ["coldstart"]) == 0
        keys, vectors = load_embeddings_text(tmp_path / "embeddings.txt")
        assert keys[-2:] == ["COLD1", "COLD2"]
        (tmp_path / "cold.csv").write_text("listing_key,latitude,longitude\n")
        handed_keys, handed = cli.coldstart(cli.load_config(path), keys[:-2], vectors[:-2])
        assert (tmp_path / "embeddings.txt").read_bytes() == trained
        text_keys, text_vectors = load_embeddings_text(tmp_path / "embeddings.txt")
        assert handed_keys == text_keys
        assert handed.tobytes() == text_vectors.tobytes()
        assert cli.main(argv + ["coldstart"]) == 0  # the standalone rerun keeps the bytes
        assert (tmp_path / "embeddings.txt").read_bytes() == trained

    def test_rerun_rejects_demand_naming_an_earlier_cold_listing(self, tmp_path, capsys):
        config_path, _ = self.prepare(tmp_path)
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        with open(tmp_path / "demand.csv", "a") as fh:
            fh.write("COLD1,north,1.0\n")
        (tmp_path / "cold.csv").write_text("listing_key,latitude,longitude\nCOLD2,60.0,10.0\n")
        before = (tmp_path / "embeddings.txt").read_bytes()
        capsys.readouterr()
        # COLD1's row is the earlier cold block, not a trained row: a first run rejects it too
        assert cli.main(["--config", str(config_path), "coldstart"]) == 2
        assert capsys.readouterr().err.endswith("demand.csv: line 4: unknown listing key 'COLD1'\n")
        assert (tmp_path / "embeddings.txt").read_bytes() == before

    def test_no_cold_listings_leaves_file_unchanged(self, tmp_path):
        config_path, _ = self.prepare(tmp_path, with_cold=False)
        before = file_hash(tmp_path / "embeddings.txt")
        assert cli.main(["--config", str(config_path), "coldstart"]) == 0
        assert file_hash(tmp_path / "embeddings.txt") == before


class TestTrainTraveler:
    def test_trace_rows_equal_epochs(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        assert cli.main(["--config", str(path), "train-traveler", "--kind", "dan"]) == 0
        trace = (tmp_path / "traveler_dan.log").read_text().strip().split("\n")
        assert len(trace) == 3
        assert (tmp_path / "traveler_dan.json").exists()

    def test_unknown_kind_exits_two_listing_valid(self, tmp_path, capsys):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        assert cli.main(["--config", str(path), "train-traveler", "--kind", "gru"]) == 2
        err = capsys.readouterr().err
        for kind in ("average", "dan", "lstm", "lstm_attention"):
            assert kind in err

    @pytest.mark.parametrize("key, value", [("positive_class_weight", 0), ("learning_rate", -0.01)])
    def test_out_of_range_traveler_value_exits_two(self, key, value, tmp_path, capsys):
        path = write_config(tmp_path, {"traveler": {key: value}})
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        assert cli.main(["--config", str(path), "train-traveler", "--kind", "dan"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "traveler_dan.json").exists()

    @pytest.mark.parametrize("case", ["duplicate-key", "nan", "inf", "non-numeric", "header"])
    def test_bad_embedding_file_exits_two(self, case, tmp_path, capsys):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        embeddings = tmp_path / "embeddings.txt"
        header, rows = embeddings.read_text().split("\n", 1)
        first_key, seven = rows.split(" ", 1)[0], " 0.5" * 7  # TINY rows hold 8 values
        embeddings.write_text({
            "duplicate-key": f"{header}\n{rows}#coldstart\n{first_key}{seven} 0.5\n",
            "nan": f"{header}\n{rows}EXTRA{seven} nan\n",
            "inf": f"{header}\n{rows}EXTRA{seven} -inf\n",
            "non-numeric": f"{header}\n{rows}EXTRA{seven} 0.5x\n",
            "header": f"x y\n{rows}",
        }[case])
        assert cli.main(["--config", str(path), "train-traveler", "--kind", "dan"]) == 2
        assert "line " in capsys.readouterr().err
        assert not (tmp_path / "traveler_dan.json").exists()

    def test_model_file_records_what_it_was_trained_on(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        assert cli.main(["--config", str(path), "train-traveler", "--kind", "dan"]) == 0
        provenance = json.loads((tmp_path / "traveler_dan.json").read_text())["provenance"]
        assert provenance == {
            "split": "train",
            "sessions_sha256": file_hash(tmp_path / "sessions.tsv"),
            "embeddings_sha256": file_hash(tmp_path / "embeddings.txt"),
            "train_fraction": 0.7,
            "max_prefix_views": 50,
            **dataclasses.asdict(TINY_TRAVELER),
        }

    def test_model_file_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        cli.main(["--config", str(path), "train-traveler", "--kind", "average"])
        first = file_hash(tmp_path / "traveler_average.json")
        cli.main(["--config", str(path), "train-traveler", "--kind", "average"])
        assert file_hash(tmp_path / "traveler_average.json") == first


class TestEvaluate:
    @staticmethod
    def prepare(tmp_path, settings, kinds=()):
        """Write the inputs of ``evaluate``: the log, the table and the model
        of each of ``kinds``."""
        path = write_config(tmp_path, {"eval": {"settings": settings}})
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        for kind in kinds:
            assert cli.main(["--config", str(path), "train-traveler", "--kind", kind]) == 0
        (tmp_path / "reports").mkdir()
        return path

    def test_four_settings_write_reports_and_comparison(self, tmp_path):
        path = self.prepare(
            tmp_path, ["random", "average", "dan", "lstm_attention"], ["average", "dan", "lstm_attention"]
        )
        code = cli.main([
            "--config", str(path), "evaluate", "--settings", "random,average,dan,lstm_attention",
        ])
        assert code == 0
        for token in ("random", "average", "dan", "lstm_attention"):
            report = json.loads((tmp_path / "reports" / f"{token}.json").read_text())
            assert report["feature_set"] == token
            assert 0.0 <= report["auc"] <= 1.0
        lines = (tmp_path / "comparison.txt").read_text().strip().split("\n")
        assert len(lines) == 5
        scores = [float(line.split("|")[-1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_setting_exits_two(self, tmp_path):
        path = self.prepare(tmp_path, ["handcrafted"])
        assert cli.main(["--config", str(path), "evaluate", "--settings", "xgboost"]) == 2

    def test_unknown_later_setting_exits_two_before_any_report(self, tmp_path, capsys):
        path = self.prepare(tmp_path, ["handcrafted"])
        assert cli.main(["--config", str(path), "evaluate", "--settings", "handcrafted,dann"]) == 2
        assert "unknown setting 'dann'" in capsys.readouterr().err
        assert list((tmp_path / "reports").iterdir()) == []

    def test_reports_regenerate_identically(self, tmp_path):
        path = self.prepare(tmp_path, ["handcrafted", "dan"], ["dan"])
        cli.main(["--config", str(path), "evaluate", "--settings", "handcrafted,dan"])
        first = file_hash(tmp_path / "reports" / "dan.json")
        cli.main(["--config", str(path), "evaluate", "--settings", "handcrafted,dan"])
        assert file_hash(tmp_path / "reports" / "dan.json") == first

    def test_negative_learning_rate_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"eval": {"settings": ["handcrafted"], "learning_rate": -0.01}})
        cli.main(["--config", str(path), "generate"])
        cli.main(["--config", str(path), "train-embeddings"])
        (tmp_path / "reports").mkdir()
        assert cli.main(["--config", str(path), "evaluate", "--settings", "handcrafted"]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "handcrafted.json").exists()

    def test_embedding_only_setting(self, tmp_path):
        path = self.prepare(tmp_path, ["average_only"], ["average"])
        assert cli.main(["--config", str(path), "evaluate", "--settings", "average_only"]) == 0
        report = json.loads((tmp_path / "reports" / "average_only.json").read_text())
        assert report["feature_set"] == "average_only"

    @pytest.mark.parametrize("settings", [",", " , "])
    def test_empty_settings_exit_two_before_reading_a_file(self, settings, tmp_path, capsys):
        path = write_config(tmp_path)  # no session log, table or reports directory
        assert cli.main(["--config", str(path), "evaluate", "--settings", settings]) == 2
        assert "no settings" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_missing_model_file_exits_two_naming_the_command(self, tmp_path, capsys):
        path = self.prepare(tmp_path, ["handcrafted", "lstm"], ["dan"])
        assert cli.main(["--config", str(path), "evaluate", "--settings", "handcrafted,lstm"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "traveler_lstm.json") in err
        assert "train-traveler --kind lstm" in err
        assert list((tmp_path / "reports").iterdir()) == []

    @pytest.mark.parametrize(
        "change, field",
        [
            (["--seed", "6"], "seed"),
            ("edit-log", "sessions_sha256"),
            ({"traveler": {"epochs": 4}}, "epochs"),
        ],
        ids=["seed", "session-log", "traveler-epochs"],
    )
    def test_stale_model_exits_two_naming_the_file_and_field(self, change, field, tmp_path, capsys):
        path = self.prepare(tmp_path, ["handcrafted", "dan"], ["dan"])
        argv = ["--config", str(path)]
        if change == "edit-log":
            log = tmp_path / "sessions.tsv"
            log.write_text("# edited\n" + log.read_text())
        elif isinstance(change, dict):
            write_config(tmp_path, change)
        else:
            argv += change
        capsys.readouterr()
        assert cli.main(argv + ["evaluate", "--settings", "handcrafted,dan"]) == 2
        err = capsys.readouterr().err
        assert f"stale model file {tmp_path / 'traveler_dan.json'}: its {field} is " in err
        assert list((tmp_path / "reports").iterdir()) == []

    def test_repeated_setting_exits_two_before_reading_a_file(self, tmp_path, capsys):
        path = write_config(tmp_path)  # no session log, table or reports directory
        assert cli.main(["--config", str(path), "evaluate", "--settings", "handcrafted,dan,dan"]) == 2
        assert "repeated setting 'dan'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_model_of_another_kind_exits_two(self, tmp_path, capsys):
        path = self.prepare(tmp_path, ["dan"], ["average"])
        (tmp_path / "traveler_average.json").rename(tmp_path / "traveler_dan.json")
        assert cli.main(["--config", str(path), "evaluate", "--settings", "dan"]) == 2
        assert "holds a model of kind 'average', not 'dan'" in capsys.readouterr().err

    def test_report_equals_downstream_eval_over_a_model_trained_in_process(self, tmp_path):
        path = self.prepare(tmp_path, ["dan"], ["dan"])
        assert cli.main(["--config", str(path), "evaluate", "--settings", "dan"]) == 0
        # the same cases and model, built without the CLI
        log = corpus.load_sessions(tmp_path / "sessions.tsv")
        train, test = corpus.split_by_user(log, 0.7, 5)
        keys, vectors = load_embeddings_text(tmp_path / "embeddings.txt")
        table = EmbeddingTable(vectors, np.zeros_like(vectors))
        key_to_index = {key: i for i, key in enumerate(keys)}
        train_cases, test_cases = (
            traveler.build_examples(corpus.labeled_prefixes(side, 50), key_to_index, table)
            for side in (train, test)
        )
        model, _ = traveler.train_traveler_model(train_cases, "dan", TINY_TRAVELER, {"split": "train"})
        spec = evaluation.FeatureSetSpec(name="dan", use_handcrafted=True, model=model)
        report = evaluation.downstream_eval(
            train_cases, test_cases, spec, evaluation.DownstreamConfig(epochs=5, seed=5)
        )
        evaluation.save_report(report, tmp_path / "in_process.json")
        assert (tmp_path / "in_process.json").read_bytes() == (tmp_path / "reports" / "dan.json").read_bytes()


class TestGradcheckCommand:
    def test_passes_and_lists_four_kinds(self, capsys):
        assert cli.main(["gradcheck", "--rounds", "3"]) == 0
        out = capsys.readouterr().out
        for kind in ("dan", "lstm", "lstm_attention", "sgns"):
            assert kind in out

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.neural, "grad_check", corrupting_grad_check("sgns", rounds=2))
        code = cli.main(["gradcheck", "--rounds", "2"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    # run_gradcheck(seed=7, rounds=3) as the checker that copied every array
    # for each bumped entry and rebuilt the layers per evaluation returned it
    CLEAN = {
        "dan": "0x1.cfd0571376676p-26", "lstm": "0x1.dfe41f5edb44dp-19",
        "lstm_attention": "0x1.28d1f92eb82f9p-18", "sgns": "0x1.cbd194cfb96cdp-32",
    }
    CORRUPTED = {
        "dan": "0x1.0000000000000p+0", "lstm_attention": "0x1.00118e14c388bp+0",
        "sgns": "0x1.2483a37df894fp+0",
    }

    def test_every_binder_loss_matches_its_loss_and_grads(self, monkeypatch):
        real, bound = cli.neural.grad_check, []

        def checked(bind, params):
            def bind_checked(views):
                loss, loss_and_grads = bind(views)
                bound.append(loss)

                def loss_checked():
                    value = loss()
                    assert value.hex() == loss_and_grads()[0].hex()
                    return value

                return loss_checked, loss_and_grads

            return real(bind_checked, params)

        monkeypatch.setattr(cli.neural, "grad_check", checked)
        assert set(cli.run_gradcheck(seed=3, rounds=2)) == {"dan", "lstm", "lstm_attention", "sgns"}
        assert len(bound) == 8  # two cases per kind, SGNS included

    @pytest.mark.parametrize("corrupt", [None, "dan", "lstm_attention", "sgns"])
    def test_results_keep_their_bits(self, corrupt, monkeypatch):
        if corrupt:
            monkeypatch.setattr(cli.neural, "grad_check", corrupting_grad_check(corrupt, rounds=3))
        results = cli.run_gradcheck(seed=7, rounds=3)
        want = dict(self.CLEAN, **({corrupt: self.CORRUPTED[corrupt]} if corrupt else {}))
        assert {kind: err.hex() for kind, err in results.items()} == want


@pytest.mark.parametrize(
    "read, lines, error",
    [
        pytest.param(
            corpus.load_sessions, [b"T1\t0\t1\tA\tview", b"T1\t0\t2\tB\tview", b"T1\t0\t3\tC"],
            ParseError, id="session-log",
        ),
        pytest.param(load_embeddings_text, [b"2 2", b"A 0.1 0.2", b"B 0.3 0.4"], ParseError, id="embeddings"),
        pytest.param(
            lambda path: coldstart.load_demand_csv(path, {"A": 0, "B": 1}),
            [b"listing_key,destination_id,proportion", b"A,north,1.0", b"B,south,1.0"],
            ParseError, id="demand",
        ),
        pytest.param(
            coldstart.load_centroids_csv, [b"destination_id,latitude,longitude", b"north,1,2", b"south,3,4"],
            ParseError, id="centroids",
        ),
        pytest.param(
            coldstart.load_cold_listings_csv, [b"listing_key,latitude,longitude", b"C1,1,2", b"C2,3,4"],
            ParseError, id="cold-listings",
        ),
        pytest.param(
            neural.load_model_json, [b"{", b' "format_version": 1,', b' "layers": []', b"}"],
            ParseError, id="model-json",
        ),
        pytest.param(cli.load_config, [b"{", b' "seed": 1,', b' "corpus": {}', b"}"], ConfigError, id="config"),
    ],
)
@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_input_that_is_not_utf8_names_the_file_and_first_bad_line(read, lines, error, eol, tmp_path):
    path = tmp_path / "input"
    lines[2] += b"\xff"  # the first byte that does not decode is on line 3
    lines.insert(3, b"\xfe")
    path.write_bytes(eol.join(lines) + eol)
    with pytest.raises(error, match=rf"^{re.escape(str(path))}: line 3: not UTF-8 \(invalid start byte 0xff\)$"):
        read(path)


# One valid file per reader the CLI runs.
VALID_INPUTS = [
    pytest.param(
        corpus.load_sessions, b"T1\t0\t1\tA\tview\nT1\t0\t2\tB\tbook\n# comment\nT2\t0\t3\tA\tview\n",
        id="session-log",
    ),
    pytest.param(load_embeddings_text, b"2 2\nA 0.1 -2e-3\nB 3 0.4\n#coldstart\nC 0.5 0.6\n", id="embeddings"),
    pytest.param(
        lambda path: coldstart.load_demand_csv(path, {"A": 0, "B": 1}),
        b"listing_key,destination_id,proportion\nA,north,0.25\nA,south,0.75\nB,south,1.0\n",
        id="demand",
    ),
    pytest.param(
        coldstart.load_centroids_csv, b"destination_id,latitude,longitude\nnorth,1.5,2\nsouth,-3,4e1\n",
        id="centroids",
    ),
    pytest.param(
        coldstart.load_cold_listings_csv, b"listing_key,latitude,longitude\nC1,1,2\nC2,-3.5,4\n",
        id="cold-listings",
    ),
    pytest.param(
        traveler.load_traveler_model,
        (Path(__file__).parent / "data" / "traveler_dan.json").read_bytes(),
        id="model-json",
    ),
    pytest.param(
        cli.load_config,
        b'{"seed": 1, "corpus": {"n_listings": 30}, "skipgram": {"dim": 8, "window": 2},\n'
        b' "eval": {"settings": ["handcrafted", "dan"], "positive_class_weight": null}}\n',
        id="config",
    ),
]


def plain(value):
    """``value`` with dataclasses turned into dicts, for np.testing.assert_equal."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("read, data", VALID_INPUTS)
def test_input_with_a_byte_order_mark_parses_like_the_same_input_without(read, data, tmp_path):
    (tmp_path / "plain").write_bytes(data)
    (tmp_path / "marked").write_bytes(b"\xef\xbb\xbf" + data)
    np.testing.assert_equal(plain(read(tmp_path / "marked")), plain(read(tmp_path / "plain")))


MUTATION_TOKENS = [
    b"", b"\t", b",", b" ", b"\n", b"\r", b"#", b'"', b":", b"{", b"}", b"[", b"]", b"-", b".", b"e",
    *(str(digit).encode() for digit in range(10)),
    b"nan", b"inf", b"\x00", b"\xff", b"\xef\xbb\xbf",
]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` after a few edits, each deleting up to 3 bytes at a position
    and inserting one token there (the empty token makes it a deletion)."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.sampled_from(MUTATION_TOKENS)) + data[at + cut :]
    return data


@pytest.mark.parametrize("read, data", VALID_INPUTS)
# every example rewrites the one file, so sharing tmp_path between them is safe
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.data())
def test_mutated_input_parses_or_raises_a_typed_error(read, data, edits, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(edits.draw(mutations(data)))
    try:
        read(path)
    except (ParseError, ConfigError):  # cli.main exits 2 on either
        pass


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["--config", str(path), "pipeline"]) == 0
        for artifact in ("sessions.tsv", "clusters.tsv", "embeddings.txt",
                         "traveler_dan.json", "comparison.txt"):
            assert (tmp_path / artifact).exists(), artifact
        assert (tmp_path / "reports" / "handcrafted.json").exists()
        assert (tmp_path / "reports" / "dan.json").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"traveler": {"kind": "dan"}}, "unknown keys in section 'traveler': ['kind']"),
            (
                # the default traveler dims need a skip-gram dim above 16
                {"traveler": {"hidden_expand": 64, "hidden_contract": 16, "embedding_dim": 8}},
                "traveler: dims must satisfy",
            ),
            ({"eval": {"settings": ["handcrafted", "dann"]}}, "unknown setting 'dann'"),
            ({"eval": {"settings": []}}, "no settings"),
            ({"eval": {"settings": ["handcrafted", "dan", "dan"]}}, "repeated setting 'dan'"),
            ({"skipgram": {"min_count": 0}}, "skipgram.min_count must be >= 1"),
            ({"traveler": {"max_prefix_views": 0}}, "traveler.max_prefix_views must be >= 1"),
            ({"eval": {"train_fraction": 1.0}}, "eval.train_fraction must be in (0, 1)"),
            ({"eval": {"train_fraction": 0}}, "eval.train_fraction must be in (0, 1)"),
            ({"coldstart": {"nearest_destinations": 0}}, "coldstart.nearest_destinations must be >= 1"),
            ({"eval": {"epochs": 0}}, "eval: epochs must be >= 1"),
            ({"coldstart": {"cold_listings_file": "cold.csv"}}, "coldstart needs demand_file and centroids_file"),
            (
                {"coldstart": {"cold_listings_file": "cold.csv", "demand_file": "demand.csv"}},
                "coldstart needs demand_file and centroids_file",
            ),
        ],
        ids=[
            "kind", "dims", "setting", "no-settings", "repeated-setting", "min-count", "max-prefix-views",
            "train-fraction-1", "train-fraction-0", "nearest-destinations", "eval-epochs", "cold-without-demand",
            "cold-without-centroids",
        ],
    )
    def test_bad_config_exits_two_before_writing_any_file(self, overrides, message, tmp_path, capsys):
        path = write_config(tmp_path, overrides)
        assert cli.main(["--config", str(path), "pipeline"]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_trains_each_kind_once_and_parses_no_file_it_wrote(self, tmp_path, monkeypatch):
        calls = []

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls.append(args[1] if name == "train_traveler_model" else name)  # a kind
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        for module, name in [
            (corpus, "load_sessions"), (skipgram, "load_embeddings_text"), (traveler, "load_traveler_model"),
            (corpus, "split_by_user"), (corpus, "labeled_prefixes"), (traveler, "train_traveler_model"),
        ]:
            count(module, name)
        path = write_config(tmp_path, {"eval": {"settings": ["handcrafted", "dan", "dan_only", "lstm"]}})
        assert cli.main(["--config", str(path), "pipeline"]) == 0
        # one split, one prefix cut per side, each kind trained once, and no parse
        assert calls == ["split_by_user", "labeled_prefixes", "labeled_prefixes", "dan", "lstm"]
        assert sorted(p.name for p in tmp_path.glob("traveler_*.json")) == [
            "traveler_dan.json", "traveler_lstm.json",
        ]

    def test_settings_without_a_trained_kind_train_nothing(self, tmp_path):
        path = write_config(tmp_path, {"eval": {"settings": ["handcrafted", "random"]}})
        assert cli.main(["--config", str(path), "pipeline"]) == 0
        assert list(tmp_path.glob("traveler_*")) == []
        assert (tmp_path / "comparison.txt").exists()


class TestHandOff:
    """``pipeline`` hands each stage's objects to the next; they must equal
    what the next stage would read back from the files."""

    @pytest.mark.parametrize("sessions_per_traveler", [1, 3])
    def test_generate_returns_the_corpus_it_writes(self, sessions_per_traveler, tmp_path):
        path = write_config(tmp_path, {"corpus": {"sessions_per_traveler": sessions_per_traveler}})
        returned = cli.generate(cli.load_config(path))
        loaded = corpus.load_sessions(tmp_path / "sessions.tsv")
        assert len(returned.sessions) == len(loaded.sessions) == 120 * sessions_per_traveler
        for mine, read in zip(returned.sessions, loaded.sessions):
            assert mine.traveler_key == read.traveler_key
            assert len(mine.interactions) == len(read.interactions)
            for it, read_it in zip(mine.interactions, read.interactions):
                assert (it.listing_key, it.timestamp, it.event_kind) == (
                    read_it.listing_key, read_it.timestamp, read_it.event_kind,
                )
                assert type(it.timestamp) is type(read_it.timestamp) is int

    @pytest.mark.parametrize("with_cold", [False, True], ids=["no-cold-rows", "cold-rows"])
    def test_tables_handed_on_equal_the_embedding_text(self, with_cold, tmp_path, monkeypatch):
        handed, read = {}, {}

        def record(name):
            stage = getattr(cli, name)

            def recording(*args):
                handed[name] = stage(*args)
                read[name] = load_embeddings_text(tmp_path / "embeddings.txt")
                return handed[name]

            monkeypatch.setattr(cli, name, recording)

        record("train_embeddings")
        record("coldstart")
        path = write_config(tmp_path, COLD if with_cold else None)
        if with_cold:
            write_cold_inputs(tmp_path)
        assert cli.main(["--config", str(path), "pipeline"]) == 0
        for name in ("train_embeddings", "coldstart"):
            (keys, vectors), (text_keys, text_vectors) = handed[name], read[name]
            assert list(keys) == text_keys, name
            assert (vectors.dtype, vectors.shape) == (text_vectors.dtype, text_vectors.shape), name
            assert vectors.tobytes() == text_vectors.tobytes(), name
        cold_keys = handed["coldstart"][0][len(handed["train_embeddings"][0]):]
        assert cold_keys == (["COLD1", "COLD2"] if with_cold else [])

    @staticmethod
    def prepare(directory):
        """Make ``directory`` with the cold-listing CSVs and a config of all
        eight settings; returns the ``--config`` arguments."""
        directory.mkdir()
        write_cold_inputs(directory)
        return ["--config", str(write_config(directory, {**COLD, "eval": {"settings": EIGHT_SETTINGS}}))]

    def test_pipeline_writes_what_the_standalone_commands_write(self, tmp_path):
        runs = {}
        for name in ("pipeline", "standalone"):
            directory = tmp_path / name
            argv = self.prepare(directory)
            if name == "pipeline":
                assert cli.main(argv + ["pipeline"]) == 0
            else:
                for command in (["generate"], ["train-embeddings"], ["coldstart"]):
                    assert cli.main(argv + command) == 0, command
                for kind in ("average", "dan", "lstm", "lstm_attention"):
                    assert cli.main(argv + ["train-traveler", "--kind", kind]) == 0, kind
                (directory / "reports").mkdir()
                assert cli.main(argv + ["evaluate", "--settings", ",".join(EIGHT_SETTINGS)]) == 0
            runs[name] = artifacts(directory)
        assert sorted(runs["pipeline"]) == sorted(runs["standalone"])
        assert len(runs["pipeline"]) == 21  # 17 artifacts, the config and 3 CSV inputs
        for name, data in runs["pipeline"].items():
            assert data == runs["standalone"][name], name

    def test_rerun_over_a_damaged_directory_writes_a_clean_run(self, tmp_path):
        runs = {}
        for name in ("clean", "damaged"):
            directory = tmp_path / name
            argv = self.prepare(directory) + ["pipeline"]
            assert cli.main(argv) == 0
            if name == "damaged":
                embeddings = directory / "embeddings.txt"
                embeddings.write_bytes(embeddings.read_bytes()[: embeddings.stat().st_size // 2])
                (directory / "traveler_lstm.json").unlink()
                assert cli.main(argv) == 0
            runs[name] = artifacts(directory)
        assert runs["damaged"] == runs["clean"]
