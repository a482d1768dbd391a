"""Compact per-tenant model state: checkpoint migration and memory bounds.

A GEM tenant's state grows with every attached record: the graph gains
its edges and the histogram detector absorbs the confident inliers.  A
coordinated refresh rebuilds the embedding caches over the whole graph.
These tests pin what that costs in bytes per record, and that models
saved in the older layout — which kept every layer of the record caches
— still load, decide bit-identically and re-save smaller.
"""

import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.pipeline import ComponentSpec, PipelineSpec, build_pipeline
from repro.serve import MaintenancePolicy
from repro.serve.checkpoint import (MANIFEST_NAME, CheckpointError, load_checkpoint,
                                    load_checkpoint_with_baseline, read_manifest,
                                    save_checkpoint, save_incremental)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "full_record_layers"


def decision_row(decision) -> dict:
    return {"inside": decision.inside, "score": float(decision.score).hex(),
            "confident": decision.confident, "buffered": decision.buffered,
            "updated": decision.updated}


def replay_fixture_stream(model) -> list[dict]:
    """The stream the fixture's decisions were recorded on, refresh included."""
    probe = synthetic_records(16, seed=4) + synthetic_records(4, seed=5, center=6.0) + [
        SignalRecord({"never-seen": -50.0}), SignalRecord({})]
    rows = [decision_row(d) for d in model.observe_many(probe)]
    model.refresh(synthetic_records(8, seed=6))
    rows += [decision_row(d) for d in model.observe_many(synthetic_records(10, seed=7))]
    return rows


def arrays_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("arrays-*.npz"))


class TestFullRecordLayerCheckpoint:
    """``tests/fixtures/full_record_layers`` holds a GEM (dim 8) saved in
    the older layout after a stream, a refresh and a stream with a new
    MAC, plus the decisions the saving code made afterwards on
    :func:`replay_fixture_stream`."""

    def expected(self) -> list[dict]:
        return [json.loads(line) for line in
                (FIXTURE / "decisions.jsonl").read_text().splitlines()]

    def test_fixture_has_the_older_layout(self):
        keys = read_manifest(FIXTURE / "checkpoint")["array_keys"]
        assert "embedder/model/cache_hu/1" in keys
        assert "embedder/model/cache_lu/2" in keys
        assert "embedder/model/record_h0" not in keys

    def test_loads_and_decides_bit_identically(self):
        model = load_checkpoint(FIXTURE / "checkpoint")
        assert replay_fixture_stream(model) == self.expected()

    def test_scalar_path_decides_bit_identically(self):
        model = load_checkpoint(FIXTURE / "checkpoint")
        probe = synthetic_records(16, seed=4) + synthetic_records(4, seed=5, center=6.0) + [
            SignalRecord({"never-seen": -50.0}), SignalRecord({})]
        rows = [decision_row(model.observe(record)) for record in probe]
        assert rows == self.expected()[:len(probe)]

    def test_resave_is_smaller_and_decides_the_same(self, tmp_path):
        source = tmp_path / "source"
        shutil.copytree(FIXTURE / "checkpoint", source)
        resaved = save_checkpoint(load_checkpoint(source), tmp_path / "resaved")
        keys = read_manifest(resaved)["array_keys"]
        assert not any("cache_hu" in key or "cache_lu" in key for key in keys)
        assert {"embedder/model/record_h0", "embedder/model/record_l0",
                "embedder/model/record_h"} <= set(keys)
        assert arrays_bytes(resaved) < arrays_bytes(source)
        assert replay_fixture_stream(load_checkpoint(resaved)) == self.expected()

    def test_incremental_save_from_an_older_baseline(self, tmp_path):
        directory = tmp_path / "tenant"
        shutil.copytree(FIXTURE / "checkpoint", directory)
        model, _, baseline = load_checkpoint_with_baseline(directory)
        model.observe_many(synthetic_records(6, seed=8))
        save_incremental(model, directory, baseline)
        reloaded = load_checkpoint(directory)
        probe = synthetic_records(12, seed=9)
        assert ([decision_row(d) for d in reloaded.observe_many(probe)]
                == [decision_row(d) for d in model.observe_many(probe)])

    def test_inconsistent_record_caches_rejected(self):
        model = load_checkpoint(FIXTURE / "checkpoint")
        state = model.state_dict()
        state["embedder"]["model"]["record_h"] = state["embedder"]["model"]["record_h"][:-1]
        with pytest.raises(ValueError, match="record caches"):
            GEM(model.config).load_state_dict(state)

    def test_mac_caches_load_at_the_trained_universe(self):
        """The fixture's MAC caches carry a row for a MAC interned after
        training; it is sliced off on load, and a cache shorter than the
        trained universe is refused."""
        arrays = np.load(next((FIXTURE / "checkpoint").glob("arrays-*.npz")))
        model = load_checkpoint(FIXTURE / "checkpoint")
        sage = model.embedder.model
        assert arrays["embedder/model/cache_hv/2"].shape[0] == sage._macs_aggregated + 1
        for layer in sage._cache_hv + sage._cache_lv:
            assert layer.shape[0] == sage._macs_aggregated
        state = model.state_dict()
        state["embedder"]["model"]["cache_lv"]["1"] = state["embedder"]["model"]["cache_lv"]["1"][:-1]
        with pytest.raises(ValueError, match="cache_lv has"):
            GEM(model.config).load_state_dict(state)


def rewrite_checkpoint(directory: Path, spec=None, leaves=None, arrays=None) -> None:
    """Edit a saved checkpoint in place, as an older build would have
    written it: ``spec`` mutates the manifest's pipeline spec, ``leaves``
    and ``arrays`` add state entries."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if spec is not None:
        spec(manifest["pipeline_spec"])
    manifest["state"].update(leaves or {})
    if arrays:
        path = directory / manifest["arrays_file"]
        with np.load(path) as saved:
            stored = dict(saved)
        stored.update(arrays)
        np.savez(path, **stored)
        manifest["array_keys"] = sorted(stored)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))


def sage_checkpoint(directory: Path, embedder: str) -> Path:
    """A fitted ``<embedder> + histogram`` pipeline saved by this build."""
    spec = PipelineSpec(embedder=ComponentSpec(embedder, {"dim": 8, "epochs": 1}),
                        detector=ComponentSpec("histogram"))
    model = build_pipeline(spec).fit(synthetic_records(24, seed=0))
    model.observe_many(synthetic_records(6, seed=1))
    return save_checkpoint(model, directory)


def set_maintenance(spec: dict) -> None:
    spec["maintenance"] = {"check_every": 4, "refresh_every": 8,
                           "admit_new_macs_after": 3}


def set_gem_refresh(spec: dict) -> None:
    spec["model"]["params"]["refresh_cache_every"] = 50


def set_embedder_refresh(spec: dict) -> None:
    spec["embedder"]["params"]["refresh_every"] = 3


class TestRemovedRefreshOptions:
    """Two refresh options were removed as measured harmful: the raw
    cache rebuild (GEM ``refresh_cache_every``, embedder
    ``refresh_every``) and untrained-MAC admission
    (``admit_new_macs_after``, saved as ``macs_admitted``).  A
    checkpoint holding them at their "off" value loads (the fixture
    above is one); any other value is refused with the option named."""

    @pytest.mark.parametrize("source, edit, option", [
        ("gem", dict(spec=set_gem_refresh, leaves={"config/refresh_cache_every": 50}),
         "refresh_cache_every"),
        ("bisage", dict(spec=set_embedder_refresh, leaves={"embedder/refresh_every": 3,
                                                           "embedder/observed_since_refresh": 2}),
         "refresh_every"),
        ("bisage", dict(arrays={"embedder/model/macs_admitted": np.array([8])}),
         "admit_new_macs_after"),
        ("graphsage", dict(arrays={"embedder/model/macs_admitted": np.array([8])}),
         "admit_new_macs_after"),
        ("gem", dict(spec=set_maintenance), "admit_new_macs_after"),
    ], ids=["gem-refresh_cache_every", "bisage-refresh_every", "bisage-macs_admitted",
            "graphsage-macs_admitted", "maintenance-admit_new_macs_after"])
    def test_non_default_value_is_refused(self, tmp_path, source, edit, option):
        directory = tmp_path / "tenant"
        if source == "gem":
            shutil.copytree(FIXTURE / "checkpoint", directory)
        else:
            sage_checkpoint(directory, source)
        rewrite_checkpoint(directory, **edit)
        with pytest.raises(CheckpointError, match=option):
            load_checkpoint(directory)
        with pytest.raises(CheckpointError, match=option):
            load_checkpoint_with_baseline(directory)

    @pytest.mark.parametrize("embedder", ["bisage", "graphsage"])
    def test_off_values_are_dropped(self, tmp_path, embedder):
        directory = sage_checkpoint(tmp_path / "tenant", embedder)
        probe = synthetic_records(12, seed=9)
        expected = [decision_row(d) for d in load_checkpoint(directory).observe_many(probe)]

        def off(spec):
            spec["embedder"]["params"]["refresh_every"] = 0
            spec["maintenance"] = {"check_every": 4, "admit_new_macs_after": 0}

        rewrite_checkpoint(directory, spec=off, leaves={
            "embedder/refresh_every": 0, "embedder/observed_since_refresh": 5})
        model = load_checkpoint(directory)
        assert [decision_row(d) for d in model.observe_many(probe)] == expected
        assert model.spec.maintenance.to_dict() == {"check_every": 4}
        assert "refresh_every" not in model.spec.embedder.params
        assert "observed_since_refresh" not in model.state_dict()["embedder"]

    def test_incremental_save_removes_off_values_from_disk(self, tmp_path):
        directory = sage_checkpoint(tmp_path / "tenant", "bisage")
        dropped = {"embedder/refresh_every": 0, "embedder/observed_since_refresh": 5}
        rewrite_checkpoint(directory, leaves=dropped)
        model, _, baseline = load_checkpoint_with_baseline(directory)
        model.observe_many(synthetic_records(4, seed=8))
        kind, _ = save_incremental(model, directory, baseline)
        assert kind == "delta"
        assert set(dropped) <= set(read_manifest(directory)["deltas"][-1]["removed_leaves"])

    @pytest.mark.parametrize("attempt", [
        lambda: GEMConfig(refresh_cache_every=50),
        lambda: ComponentSpec("bisage", {"refresh_every": 3}).resolve("embedder"),
        lambda: MaintenancePolicy.from_dict({"admit_new_macs_after": 3}),
        lambda: GEM(GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1))).fit(
            synthetic_records(12, seed=0)).refresh(synthetic_records(4, seed=1),
                                                   admit_new_macs_after=2),
    ], ids=["GEMConfig", "embedder-spec", "MaintenancePolicy", "GEM.refresh"])
    def test_live_api_no_longer_accepts_them(self, attempt):
        with pytest.raises((TypeError, ValueError),
                           match="refresh_cache_every|refresh_every|admit_new_macs_after"):
            attempt()


# ----------------------------------------------------------------------
# Bytes per attached record, measured with tracemalloc
# ----------------------------------------------------------------------
NUM_MACS = 54          # the largest Table II home
HEARD = 0.65           # ~35 readings per scan, as on that home
ATTACHED = 3000


def scans(n: int, seed: int) -> list[SignalRecord]:
    """Scans of one room: every MAC heard with probability HEARD, RSS
    falling off with the MAC's index."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        heard = np.flatnonzero(rng.random(NUM_MACS) < HEARD)
        rss = -40.0 - 0.9 * heard + rng.normal(0.0, 2.0, size=len(heard))
        records.append(SignalRecord({f"ap{j:02d}": float(v) for j, v in zip(heard, rss)}))
    return records


def per_record_bytes() -> tuple[float, float, int]:
    """(steady bytes per attached record, refresh peak bytes per graph
    record, confident-inlier updates) for a default-dim GEM."""
    model = GEM(GEMConfig(bisage=BiSAGEConfig(epochs=1, seed=0))).fit(scans(200, seed=0))
    stream = scans(ATTACHED, seed=1)
    reservoir = scans(64, seed=2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, ATTACHED, 16):
            model.observe_many(stream[start:start + 16])
        steady = tracemalloc.get_traced_memory()[0]
        updates = model.detector.num_updates
        tracemalloc.reset_peak()
        model.refresh(reservoir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ((steady - before) / ATTACHED, (peak - steady) / model.graph.num_records, updates)


class TestBytesPerRecord:
    """Bounds sit between the per-record layout this replaced and what
    the compact layout measures.  On this graph the replaced layout
    (per-record arrays, per-edge MAC-side lists, every layer of the
    record caches, a deep-copied refresh snapshot) measures about 2.6 KB
    steady and 7.9 KB at the refresh peak; the compact one about 0.95 KB
    and 3.5 KB."""

    STEADY_BOUND = 1400.0
    REFRESH_BOUND = 4500.0

    def test_steady_and_refresh_peak(self):
        steady, refresh, updates = per_record_bytes()
        # Most scans are confident inliers, so the detector's absorbed
        # rows are part of what is measured.
        assert updates > ATTACHED // 2
        assert steady < self.STEADY_BOUND, f"steady {steady:.0f} B per attached record"
        assert refresh < self.REFRESH_BOUND, f"refresh peak {refresh:.0f} B per graph record"
