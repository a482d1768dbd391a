"""Checkpoint format: round-trip identity, versioning, failure modes."""

import json

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.detection.histogram import HistogramConfig, HistogramDetector
from repro.embedding.bisage import BiSAGE, BiSAGEConfig
from repro.graph.bipartite import WeightedBipartiteGraph
from repro.graph.builder import build_graph
from repro.serve.checkpoint import (
    ARRAYS_PREFIX,
    ARRAYS_SUFFIX,
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    CheckpointError,
    _encode_manifest,
    _json_safe,
    flatten_state,
    load_checkpoint,
    load_checkpoint_with_baseline,
    read_manifest,
    save_checkpoint,
    save_incremental,
    unflatten_state,
)


def arrays_path(directory):
    manifest = read_manifest(directory)
    return directory / manifest["arrays_file"]

FAST_BISAGE = BiSAGEConfig(dim=8, epochs=1, seed=0)
FAST_CONFIG = GEMConfig(bisage=FAST_BISAGE)


def fitted_gem(center: float = 2.0, n: int = 30, seed: int = 0,
               config: GEMConfig = FAST_CONFIG) -> GEM:
    return GEM(config).fit(synthetic_records(n, seed=seed, center=center))


class TestFlatten:
    def test_roundtrip_nested(self):
        state = {"a": {"b": np.arange(3), "c": 1.5}, "d": [1, 2], "e": {"f": {"g": True}}}
        arrays, leaves = flatten_state(state)
        assert set(arrays) == {"a/b"}
        assert leaves["a/c"] == 1.5 and leaves["e/f/g"] is True
        rebuilt = unflatten_state(arrays, leaves)
        assert rebuilt["d"] == [1, 2]
        np.testing.assert_array_equal(rebuilt["a"]["b"], np.arange(3))

    def test_separator_in_key_rejected(self):
        with pytest.raises(ValueError, match="/"):
            flatten_state({"bad/key": 1})

    def test_numpy_scalars_become_json(self):
        _, leaves = flatten_state({"n": np.int64(3), "x": np.float64(0.5), "b": np.bool_(True)})
        assert json.dumps(leaves)  # all JSON-safe
        assert leaves == {"n": 3, "x": 0.5, "b": True}


class TestGraphState:
    def test_roundtrip_preserves_structure(self):
        graph = build_graph(synthetic_records(12, seed=3))
        clone = WeightedBipartiteGraph.from_state_dict(graph.state_dict())
        assert clone.num_records == graph.num_records
        assert clone.num_macs == graph.num_macs
        assert clone.num_edges == graph.num_edges
        assert clone.known_macs() == graph.known_macs()
        assert list(clone.edges()) == list(graph.edges())
        for j in range(graph.num_macs):
            ours, theirs = graph.neighbors("V", j), clone.neighbors("V", j)
            np.testing.assert_array_equal(ours[0], theirs[0])
            np.testing.assert_array_equal(ours[1], theirs[1])

    def test_inconsistent_edges_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["edge_weights"] = state["edge_weights"][:-1]
        with pytest.raises(ValueError, match="inconsistent"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_unknown_mac_index_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["mac_names"] = state["mac_names"][:1]
        with pytest.raises(ValueError, match="MAC"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_non_monotonic_indptr_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        indptr = state["record_indptr"].copy()
        indptr[1], indptr[2] = indptr[2], indptr[1]   # interior decrease
        state["record_indptr"] = indptr
        with pytest.raises(ValueError, match="inconsistent"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_negative_mac_index_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["edge_macs"] = state["edge_macs"].copy()
        state["edge_macs"][0] = -1
        with pytest.raises(ValueError, match="MAC"):
            WeightedBipartiteGraph.from_state_dict(state)

    @pytest.mark.parametrize("weight", [0.0, -3.0, np.nan, np.inf])
    def test_bad_edge_weight_rejected(self, weight):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["edge_weights"][2] = weight
        with pytest.raises(ValueError, match="edge weight"):
            WeightedBipartiteGraph.from_state_dict(state)


class TestBiSAGEState:
    def test_embeddings_identical_after_reload(self):
        records = synthetic_records(25, seed=1)
        graph = build_graph(records)
        model = BiSAGE(FAST_BISAGE).fit(graph)
        clone = BiSAGE(FAST_BISAGE).load_state_dict(
            model.state_dict(), WeightedBipartiteGraph.from_state_dict(graph.state_dict()))
        np.testing.assert_array_equal(clone.record_embeddings(), model.record_embeddings())
        readings = synthetic_records(1, seed=77)[0].readings
        np.testing.assert_array_equal(clone.embed_readings(readings),
                                      model.embed_readings(readings))

    def test_config_mismatch_rejected(self):
        graph = build_graph(synthetic_records(10, seed=0))
        model = BiSAGE(FAST_BISAGE).fit(graph)
        with pytest.raises(ValueError, match="config"):
            BiSAGE(BiSAGEConfig(dim=4, epochs=1, seed=0)).load_state_dict(
                model.state_dict(), graph)


class TestHistogramState:
    def test_scores_identical_after_reload(self, rng):
        data = rng.normal(size=(60, 6))
        detector = HistogramDetector(HistogramConfig()).fit(data)
        detector.update(rng.normal(size=(5, 6)))
        clone = HistogramDetector(HistogramConfig()).load_state_dict(detector.state_dict())
        queries = rng.normal(size=(20, 6))
        np.testing.assert_array_equal(clone.decision_scores(queries),
                                      detector.decision_scores(queries))
        assert clone.num_updates == detector.num_updates
        assert clone.num_samples == detector.num_samples

    def test_config_mismatch_rejected(self, rng):
        detector = HistogramDetector(HistogramConfig()).fit(rng.normal(size=(30, 4)))
        other = HistogramDetector(HistogramConfig(num_bins=7))
        with pytest.raises(ValueError, match="config"):
            other.load_state_dict(detector.state_dict())


class TestGEMCheckpoint:
    def test_decision_scores_and_decisions_identical(self, tmp_path):
        gem = fitted_gem()
        held = synthetic_records(15, num_macs=10, seed=9, center=2.0)
        save_checkpoint(gem, tmp_path / "ckpt", metadata={"home": "apt-3"})
        clone = load_checkpoint(tmp_path / "ckpt")
        assert [gem.score(r) for r in held] == [clone.score(r) for r in held]
        # Held-out observe stream: decisions (and self-update behaviour)
        # must track the original exactly.
        stream = synthetic_records(10, seed=21, center=2.0)
        assert gem.observe_stream(stream) == clone.observe_stream(stream)
        assert gem.detector.num_samples == clone.detector.num_samples

    def test_partial_update_buffer_survives(self, tmp_path):
        from dataclasses import replace
        gem = fitted_gem(config=replace(FAST_CONFIG, batch_update_size=50))
        gem.observe_stream(synthetic_records(10, seed=5, center=2.0), flush=False)
        assert gem.pending_updates > 0
        save_checkpoint(gem, tmp_path / "ckpt")
        clone = load_checkpoint(tmp_path / "ckpt")
        assert clone.pending_updates == gem.pending_updates

    def test_manifest_contents(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt", metadata={"note": "x"})
        manifest = read_manifest(tmp_path / "ckpt")
        assert manifest["format_version"] == CHECKPOINT_VERSION
        assert manifest["model_class"] == "GEM"
        assert manifest["metadata"] == {"note": "x"}
        assert manifest["array_keys"]

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            save_checkpoint(GEM(FAST_CONFIG), tmp_path / "ckpt")

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope")

    def test_future_version_rejected(self, tmp_path):
        from repro.serve.checkpoint import SUPPORTED_VERSIONS
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = max(SUPPORTED_VERSIONS) + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path / "ckpt")

    def test_torn_checkpoint_detected(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["array_keys"] = manifest["array_keys"][:-1]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="torn"):
            load_checkpoint(tmp_path / "ckpt")

    def test_crash_before_manifest_commit_keeps_old_checkpoint(self, tmp_path):
        # Simulate a crash after the new arrays file landed but before
        # the manifest commit: the old checkpoint must load untouched.
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        held = synthetic_records(5, seed=40, center=2.0)
        old_scores = [gem.score(r) for r in held]
        orphan = tmp_path / "ckpt" / f"{ARRAYS_PREFIX}deadbeef{ARRAYS_SUFFIX}"
        orphan.write_bytes(b"half-written garbage")
        clone = load_checkpoint(tmp_path / "ckpt")
        assert [clone.score(r) for r in held] == old_scores
        # The next successful save cleans the orphan up.
        save_checkpoint(gem, tmp_path / "ckpt")
        assert not orphan.exists()

    def test_mixed_generation_files_detected(self, tmp_path):
        # A manually recombined manifest + arrays pair from different
        # saves (same structural key names) is rejected by the nonce.
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        old_arrays = arrays_path(tmp_path / "ckpt")
        blob = old_arrays.read_bytes()
        gem.observe(synthetic_records(1, seed=33, center=2.0)[0])
        save_checkpoint(gem, tmp_path / "ckpt")
        arrays_path(tmp_path / "ckpt").write_bytes(blob)
        with pytest.raises(CheckpointError, match="different saves"):
            load_checkpoint(tmp_path / "ckpt")

    def test_corrupt_manifest_detected(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        (tmp_path / "ckpt" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_state_leaf_raises_checkpoint_error(self, tmp_path):
        # Structurally invalid state surfaces as CheckpointError, not a
        # bare KeyError the fleet's error handling would miss.
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["state"]["self_update"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="structurally invalid"):
            load_checkpoint(tmp_path / "ckpt")

    def test_crashed_save_temp_files_cleaned_up(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        orphan = tmp_path / "ckpt" / f".{ARRAYS_PREFIX}old{ARRAYS_SUFFIX}.abc123"
        orphan.write_bytes(b"crashed temp")
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        assert not orphan.exists()

    def test_missing_arrays_detected(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        arrays_path(tmp_path / "ckpt").unlink()
        with pytest.raises(CheckpointError, match="missing its arrays file"):
            load_checkpoint(tmp_path / "ckpt")

    def test_load_into_mismatched_pipeline_config_rejected(self, tmp_path):
        from dataclasses import replace
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        other = GEM(replace(FAST_CONFIG, batch_update_size=5))
        with pytest.raises(ValueError, match="config"):
            other.load_state_dict(gem.state_dict())

    @pytest.mark.parametrize("weight", [0.0, -3.0, np.nan])
    def test_bad_edge_weight_is_a_checkpoint_error(self, tmp_path, weight):
        # A crafted graph checkpoint must surface as a typed load error,
        # not a bare AssertionError that vanishes under ``python -O``.
        directory = save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = arrays_path(directory)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        (key,) = [key for key in arrays if key.endswith("graph/edge_weights")]
        arrays[key][0] = weight
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CheckpointError, match="structurally invalid"):
            load_checkpoint(directory)
        with pytest.raises(CheckpointError, match="structurally invalid"):
            load_checkpoint_with_baseline(directory)

    def test_corrupt_state_leaves_live_model_untouched(self):
        # All-or-nothing restore: a bad detector payload must not leave
        # a live model with a new embedder and the old detector.
        gem = fitted_gem()
        held = synthetic_records(5, seed=41, center=2.0)
        before = [gem.score(r) for r in held]
        state = fitted_gem(seed=1).state_dict()
        state["detector"]["data"] = np.full_like(state["detector"]["data"], np.nan)
        with pytest.raises(ValueError):
            gem.load_state_dict(state)
        assert [gem.score(r) for r in held] == before


class TestManifestEncoding:
    """Compact C-encoded manifests parse to what the indented writer made."""

    METADATA = {
        "count": np.int64(7), "small": np.int8(-2), "ratio": np.float64(0.25),
        "half": np.float32(0.5), "flag": np.bool_(False), "pair": (1, np.int32(2)),
        "nested": {"inner": {"x": np.float64(1e-300), "ys": [np.uint16(3), (True, None)]},
                   "label": "home"},
        "plain": [1.5, "a", {"b": np.int64(-1)}],
    }

    @staticmethod
    def parent_encoding(manifest: dict) -> bytes:
        """What the indented writer produced: a ``_json_safe`` walk first."""
        return json.dumps(_json_safe(manifest), indent=1, sort_keys=True).encode()

    def test_parses_like_the_indented_encoding(self):
        _, leaves = flatten_state({"a": {"n": np.int64(3), "t": (np.float32(0.5), 2)},
                                   "b": np.bool_(True)})
        manifest = {"metadata": self.METADATA, "state": leaves, "saved_at": 1.0}
        compact = _encode_manifest(manifest)
        assert json.loads(compact) == json.loads(self.parent_encoding(manifest))
        assert b"\n" not in compact

    def test_scalar_types_survive_the_round_trip(self):
        parsed = json.loads(_encode_manifest({"metadata": self.METADATA}))["metadata"]
        assert type(parsed["count"]) is int and parsed["count"] == 7
        assert type(parsed["half"]) is float and parsed["half"] == 0.5
        assert parsed["flag"] is False
        assert parsed["pair"] == [1, 2]
        assert parsed["nested"]["inner"]["ys"] == [3, [True, None]]

    def test_saved_manifest_matches_the_indented_encoding(self, tmp_path):
        gem = fitted_gem()
        directory = save_checkpoint(gem, tmp_path / "ckpt", metadata=self.METADATA)
        raw = (directory / MANIFEST_NAME).read_bytes()
        assert raw.count(b"\n") == 0
        manifest = json.loads(raw)
        assert manifest == json.loads(self.parent_encoding(manifest))
        assert manifest["metadata"] == json.loads(json.dumps(_json_safe(self.METADATA)))
        _, leaves = flatten_state(gem.state_dict())
        assert manifest["state"] == leaves

    def test_delta_manifest_carries_numpy_metadata(self, tmp_path):
        gem = fitted_gem()
        directory = tmp_path / "ckpt"
        _, baseline = save_incremental(gem, directory, None)
        for record in synthetic_records(3, seed=9, center=2.0):
            gem.observe(record)
        kind, _ = save_incremental(gem, directory, baseline, metadata=self.METADATA)
        assert kind == "delta"
        manifest = read_manifest(directory)
        assert manifest["metadata"] == json.loads(json.dumps(_json_safe(self.METADATA)))

    def test_unsupported_leaf_types_raise_type_error(self):
        with pytest.raises(TypeError, match="object"):
            flatten_state({"x": object()})
        with pytest.raises(TypeError, match="object"):
            _encode_manifest({"metadata": {"x": object()}})
        with pytest.raises(TypeError):
            _encode_manifest({"metadata": {"x": np.complex128(1j)}})

    def test_unsupported_metadata_fails_before_writing(self, tmp_path):
        gem = fitted_gem()
        directory = save_checkpoint(gem, tmp_path / "ckpt")
        before = sorted(path.name for path in directory.iterdir())
        with pytest.raises(TypeError):
            save_checkpoint(gem, directory, metadata={"x": {1, 2}})
        assert sorted(path.name for path in directory.iterdir()) == before
        load_checkpoint(directory)

    def test_indented_manifest_loads_and_takes_a_delta(self, tmp_path):
        # Checkpoints written by older builds carry an indented manifest.
        gem = fitted_gem()
        directory = tmp_path / "ckpt"
        save_incremental(gem, directory, None, metadata={"note": "old"})
        path = directory / MANIFEST_NAME
        path.write_bytes(self.parent_encoding(json.loads(path.read_bytes())))
        assert path.read_bytes().count(b"\n") > 10
        model, manifest, baseline = load_checkpoint_with_baseline(directory)
        assert manifest["metadata"] == {"note": "old"}
        for record in synthetic_records(4, seed=12, center=2.0):
            gem.observe(record)
            model.observe(record)
        kind, _ = save_incremental(model, directory, baseline, metadata={"note": "new"})
        assert kind == "delta"
        clone = load_checkpoint(directory)
        held = synthetic_records(5, seed=13, center=2.0)
        assert [clone.score(r) for r in held] == [gem.score(r) for r in held]
        assert read_manifest(directory)["metadata"] == {"note": "new"}
