"""Differential bit-identity harness: scalar vs vectorized data plane.

Replays identical record streams — drift epochs, unknown-MAC records,
empty-reading records (+inf scores), empty batches, batch-size 1 vs N
splits — through the scalar per-record loop and through the batch plane
for **every registry arm**, asserting bit-identical decisions and
byte-identical post-stream ``state_dict()`` trees.  Arms without batch
support must come out identical too (the plane falls back to the same
scalar loop), so the whole fallback matrix is exercised, not just the
fast path.

Both loops embed through the one ``SageInferenceKernel``; the kernel
itself is checked bit-for-bit against a reference implementation of
the per-record SAGE maths (BiSAGE with both of its streams, GraphSAGE),
kept here as the oracle.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core.config import GEMConfig
from repro.core.records import SignalRecord
from repro.embedding import bisage, graphsage
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.algorithms import ALGORITHM_NAMES, arm_accepts, arm_spec
from repro.graph.bipartite import RECORD
from repro.pipeline import build_pipeline
from repro.serve.batchplane import BatchPlane, fastpath_reason

# The outcome the batch plane must report per arm: only graph-embedder +
# histogram compositions may engage; everything else names its reason.
EXPECTED_OUTCOME = {
    "GEM": "engaged",
    "GraphSAGE+OD": "engaged",
    "GEM(plain-HBOS)": "engaged",
    "SignatureHome": "fallback_model",
    "INOA": "fallback_model",
    "Autoencoder+OD": "fallback_embedder",
    "MDS+OD": "fallback_embedder",
    "GEM(no-BiSAGE)": "fallback_embedder",
    "BiSAGE+FeatureBagging": "fallback_detector",
    "BiSAGE+iForest": "fallback_detector",
    "BiSAGE+LOF": "fallback_detector",
}


def small_gem_config() -> GEMConfig:
    return GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1), batch_update_size=4)


def build_arm(name: str):
    dim = 8 if arm_accepts(name, "dim") else 32
    spec = arm_spec(name, dim=dim, gem_config=small_gem_config())
    return build_pipeline(spec)


def adversarial_stream(n: int = 48, seed: int = 7) -> list[SignalRecord]:
    """Drift epochs + unknown MACs + empty readings, deterministically mixed."""
    rng = np.random.default_rng(seed)
    inliers = synthetic_records(n, seed=seed, center=0.0)
    drifted = synthetic_records(n, seed=seed + 1, center=4.0)
    stream = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.08:
            stream.append(SignalRecord({}, timestamp=float(9000 + i)))
        elif roll < 0.18:
            stream.append(SignalRecord({f"zz{m:02d}": -60.0 - m for m in range(3)},
                                       timestamp=float(9000 + i)))
        elif roll < 0.55:
            stream.append(inliers[i])
        else:
            stream.append(drifted[i])
    return stream


def assert_trees_identical(a, b, path="state"):
    """Byte-exact recursive comparison of two state_dict trees."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys differ: {set(a) ^ set(b)}"
        for key in a:
            assert_trees_identical(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype, f"{path}: shape/dtype"
        assert a.tobytes() == b.tobytes(), f"{path}: array bytes differ"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_trees_identical(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_decisions_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for i, (s, b) in enumerate(zip(scalar, batch)):
        assert s == b, f"decision {i}: scalar {s} vs batch {b}"
        # GeofenceDecision equality covers the floats; make the
        # bit-identity explicit for the score (== would pass -0.0/0.0).
        if not (math.isinf(s.score) or math.isinf(b.score)):
            assert np.float64(s.score).tobytes() == np.float64(b.score).tobytes(), \
                f"decision {i}: score bits differ"


@pytest.mark.parametrize("arm", ALGORITHM_NAMES)
def test_scalar_vs_batch_bit_identity(arm):
    model = build_arm(arm)
    train = synthetic_records(60, seed=3)
    model.fit(train)
    scalar_model = copy.deepcopy(model)
    batch_model = copy.deepcopy(model)
    stream = adversarial_stream()

    plane = BatchPlane()
    scalar = [scalar_model.observe(r) for r in stream]
    batch = []
    outcomes = set()
    for start in range(0, len(stream), 16):
        chunk, outcome = plane.observe_batch(batch_model, stream[start:start + 16])
        batch.extend(chunk)
        outcomes.add(outcome)

    assert outcomes == {EXPECTED_OUTCOME[arm]}
    assert fastpath_reason(model) == (None if EXPECTED_OUTCOME[arm] == "engaged"
                                      else EXPECTED_OUTCOME[arm].removeprefix("fallback_"))
    assert_decisions_identical(scalar, batch)
    assert_trees_identical(scalar_model.state_dict(), batch_model.state_dict())


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD", "GEM(plain-HBOS)"])
def test_batch_size_one_vs_n_splits(arm):
    """Every split of the same stream yields the same decisions + state."""
    model = build_arm(arm)
    model.fit(synthetic_records(60, seed=3))
    stream = adversarial_stream()

    one = copy.deepcopy(model)
    whole = copy.deepcopy(model)
    ragged = copy.deepcopy(model)

    by_one = []
    for record in stream:
        by_one.extend(one.observe_many([record]))
    at_once = whole.observe_many(stream)
    by_ragged = []
    sizes = [1, 3, 7, 1, 16, 5]
    start = 0
    while start < len(stream):
        size = sizes[start % len(sizes)]
        by_ragged.extend(ragged.observe_many(stream[start:start + size]))
        start += size

    assert_decisions_identical(at_once, by_one)
    assert_decisions_identical(at_once, by_ragged)
    assert_trees_identical(whole.state_dict(), one.state_dict())
    assert_trees_identical(whole.state_dict(), ragged.state_dict())


def test_empty_batch_is_a_no_op():
    model = build_arm("GEM")
    assert model.observe_many([]) == []  # even unfitted, like the scalar loop
    model.fit(synthetic_records(40, seed=3))
    before = model.state_dict()
    assert model.observe_many([]) == []
    assert_trees_identical(before, model.state_dict())


def test_unfitted_observe_many_fails_like_scalar():
    """Upfront validation parity: same exception type and message, and no
    partial state mutation on the vectorized path."""
    scalar_model = build_arm("GEM")
    batch_model = build_arm("GEM")
    stream = adversarial_stream(8)
    with pytest.raises(RuntimeError) as scalar_err:
        scalar_model.observe(stream[0])
    with pytest.raises(RuntimeError) as batch_err:
        batch_model.observe_many(stream)
    assert str(batch_err.value) == str(scalar_err.value)
    # Nothing attached, nothing buffered: fitting afterwards still works
    # and the failed batch left no graph/buffer residue behind.
    assert batch_model.pending_updates == 0
    batch_model.fit(synthetic_records(40, seed=3))
    assert batch_model.embedder.graph.num_records == 40


def test_unknown_macs_score_plus_inf_on_both_paths():
    model = build_arm("GEM")
    model.fit(synthetic_records(40, seed=3))
    alien = SignalRecord({"zz00": -50.0, "zz01": -60.0}, timestamp=1.0)
    scalar = copy.deepcopy(model).observe(alien)
    batch = copy.deepcopy(model).observe_many([alien])[0]
    assert scalar == batch
    assert math.isinf(batch.score) and not batch.inside


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD"])
def test_refresh_keeps_post_training_macs_out(arm):
    """The aggregation universe stays the trained one: after a
    coordinated refresh, a MAC first seen after training — however many
    attached records sense it — contributes nothing, on the scalar
    ``embed`` and on the batch kernel alike, and the two paths still
    agree bit-for-bit."""
    model = build_arm(arm)
    model.fit(synthetic_records(40, seed=3))
    boundary = model.embedder.model._macs_aggregated
    churn = synthetic_records(30, seed=13)
    for i, record in enumerate(churn):
        record.readings[f"post-train-mac-{i % 4}"] = -65.0 - (i % 4)
    for record in churn:
        model.observe(record)
    model.refresh(synthetic_records(20, seed=14))
    embedder = model.embedder
    graph = embedder.graph
    newcomer = graph.mac_index("post-train-mac-0")
    assert newcomer >= boundary
    assert graph.degrees()[1][newcomer] >= 7, "the newcomer must be well supported"
    assert embedder.model._macs_aggregated == boundary

    kernel = embedder.batched_inference()
    probe = synthetic_records(1, seed=15)[0]
    sensing = SignalRecord({**probe.readings, "post-train-mac-0": -40.0})
    assert np.array_equal(embedder.embed(sensing, attach=False),
                          embedder.embed(probe, attach=False))
    index = graph.add_record(sensing)
    neighbors, weights = graph.neighbors(RECORD, index)
    assert newcomer in neighbors
    keep = neighbors != newcomer
    row = kernel.embed(neighbors, weights)
    assert np.array_equal(row, kernel.embed(neighbors[keep], weights[keep]))
    assert np.array_equal(row, embedder.model.embed_record_node(index))

    scalar_model = copy.deepcopy(model)
    batch_model = copy.deepcopy(model)
    probe = synthetic_records(16, seed=15)
    for i, record in enumerate(probe):
        record.readings[f"post-train-mac-{i % 4}"] = -66.0 - (i % 4)
    scalar = [scalar_model.observe(r) for r in probe]
    batch = batch_model.observe_many(probe)
    assert_decisions_identical(scalar, batch)
    assert_trees_identical(scalar_model.state_dict(), batch_model.state_dict())


def test_update_flush_mid_batch_matches_scalar():
    """A detector update inside the batch must re-score the remainder:
    force confident inliers (training-like records) through a tiny
    update buffer and compare against the scalar loop."""
    cfg = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1), batch_update_size=2)
    spec = arm_spec("GEM", dim=8, gem_config=cfg)
    model = build_pipeline(spec)
    model.fit(synthetic_records(60, seed=3))
    stream = synthetic_records(40, seed=11, center=0.0)  # mostly inliers
    scalar_model = copy.deepcopy(model)
    batch_model = copy.deepcopy(model)
    scalar = [scalar_model.observe(r) for r in stream]
    batch = batch_model.observe_many(stream)
    assert any(d.updated for d in scalar), "stream never flushed an update"
    assert_decisions_identical(scalar, batch)
    assert_trees_identical(scalar_model.state_dict(), batch_model.state_dict())


def test_rescoring_window_restarts_after_each_flush():
    """After a mid-batch update the verdict window restarts at one row
    and doubles back up to the chunk, so an update-heavy batch scores
    few rows per decision — and still decides exactly as the scalar
    loop does."""
    cfg = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1), batch_update_size=1)
    model = build_pipeline(arm_spec("GEM", dim=8, gem_config=cfg))
    model.fit(synthetic_records(60, seed=3))
    stream = synthetic_records(96, seed=11, center=0.0)
    scalar_model = copy.deepcopy(model)
    batch_model = copy.deepcopy(model)
    scalar = [scalar_model.observe(r) for r in stream]
    windows = []
    score_batch = batch_model.detector.score_batch

    def spy(rows):
        windows.append(len(rows))
        return score_batch(rows)

    batch_model.detector.score_batch = spy
    batch = batch_model.observe_many(stream)
    del batch_model.detector.score_batch
    updates = sum(d.updated for d in scalar)
    assert updates > len(stream) // 2, "stream is not update-heavy"
    assert windows[0] == batch_model._SCORE_CHUNK
    assert windows[1] == 1
    assert sum(windows) < 3 * len(stream)
    assert_decisions_identical(scalar, batch)
    assert_trees_identical(scalar_model.state_dict(), batch_model.state_dict())


# ----------------------------------------------------------------------
# Reference oracle: the per-record SAGE maths, written out in full
# ----------------------------------------------------------------------
def _l2(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).sum() + 1e-12)


def _usable(model, neighbors, weights):
    # MACs outside the trained universe never aggregate (Sec. IV-A
    # inference runs under weights that never saw them).
    keep = neighbors < model._macs_aggregated
    return neighbors[keep], weights[keep]


def reference_bisage_embed(model, neighbors, weights) -> np.ndarray:
    """K rounds of Algorithm 1 for one inference-time record node,
    updating both the primary and the auxiliary stream (Eq. 3-8)."""
    act = bisage._ACTIVATIONS[model.config.activation][1]
    h = model._initial_row(RECORD, bisage._INFERENCE_KEY, "h")
    l = model._initial_row(RECORD, bisage._INFERENCE_KEY, "l")
    neighbors, weights = _usable(model, neighbors, weights)
    if len(neighbors) == 0:
        return h
    probabilities = weights / weights.sum()
    for k in range(model.config.num_layers):
        h_agg = probabilities @ model._cache_lv[k][neighbors]   # Eq. 3 + Eq. 8
        l_agg = probabilities @ model._cache_hv[k][neighbors]   # Eq. 5 + Eq. 8
        h = _l2(act(np.concatenate([h, h_agg]) @ model.weights_h[k].data))
        l = _l2(act(np.concatenate([l, l_agg]) @ model.weights_l[k].data))
    return h


def reference_graphsage_embed(model, neighbors, weights) -> np.ndarray:
    """K homogeneous aggregation rounds for one inference-time node."""
    act = graphsage._ACTIVATIONS[model.config.activation][1]
    z = model._initial_row(RECORD, graphsage._INFERENCE_KEY)
    neighbors, weights = _usable(model, neighbors, weights)
    if len(neighbors) == 0:
        return z
    probabilities = weights / weights.sum()
    for k in range(model.config.num_layers):
        agg = probabilities @ model._cache_v[k][neighbors]
        z = _l2(act(np.concatenate([z, agg]) @ model.weights[k].data))
    return z


REFERENCE = {"GEM": reference_bisage_embed, "GraphSAGE+OD": reference_graphsage_embed}


@pytest.mark.parametrize("arm", sorted(REFERENCE))
def test_kernel_matches_reference_maths(arm):
    """The kernel reproduces the written-out maths bit-for-bit on empty,
    all-untrained, mixed and fully-trained neighbour sets — before and
    after a refresh that MACs interned since training took part in."""
    model = build_arm(arm)
    model.fit(synthetic_records(40, seed=3))
    for refreshed in (False, True):
        if refreshed:
            model.refresh(synthetic_records(20, seed=14))
        graph = model.embedder.graph
        sage = model.embedder.model
        boundary = sage._macs_aggregated
        probe = synthetic_records(1, seed=16 + refreshed)[0]
        readings = {**probe.readings, f"fresh-a-{refreshed}": -52.0,
                    f"fresh-b-{refreshed}": -77.0}
        neighbors, weights = graph.neighbors(RECORD, graph.add_record(SignalRecord(readings)))
        trained = neighbors < boundary
        assert trained.any() and not trained.all()
        cases = {
            "empty": (neighbors[:0], weights[:0]),
            "all-untrained": (neighbors[~trained], weights[~trained]),
            "mixed": (neighbors, weights),
            "fully-trained": (neighbors[trained], weights[trained]),
        }
        kernel = sage.batched_inference()
        for name, (nbrs, wts) in cases.items():
            expected = REFERENCE[arm](sage, nbrs, wts)
            got = kernel.embed(nbrs, wts)
            assert got.tobytes() == expected.tobytes(), f"{name} (refreshed={refreshed})"


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD"])
def test_fresh_mac_cohort_leaves_caches_at_trained_size(arm):
    """A randomised-MAC cohort — every record carrying MACs never seen
    before — grows the graph but not the MAC caches, through the batch
    plane and a refresh alike, and decides exactly as the same stream
    with those MACs stripped."""
    model = build_arm(arm)
    model.fit(synthetic_records(40, seed=3))
    stripped_model = copy.deepcopy(model)
    stream = adversarial_stream(64, seed=21)
    cohort = [SignalRecord({**record.readings, f"cohort-{i}-a": -58.0,
                            f"cohort-{i}-b": -71.0} if record.readings else {},
                           timestamp=record.timestamp)
              for i, record in enumerate(stream)]
    decisions = []
    stripped = []
    for start in range(0, len(stream), 16):
        decisions.extend(model.observe_many(cohort[start:start + 16]))
        stripped.extend(stripped_model.observe_many(stream[start:start + 16]))
    assert_decisions_identical(stripped, decisions)

    model.refresh(synthetic_records(20, seed=14))
    sage = model.embedder.model
    fresh = 2 * sum(1 for record in stream if record.readings)
    assert model.embedder.graph.num_macs >= sage._macs_aggregated + fresh
    state = model.state_dict()["embedder"]["model"]
    mac_caches = [key for key in ("cache_hv", "cache_lv", "cache_v") if key in state]
    assert mac_caches
    for key in mac_caches:
        for layer in state[key].values():
            assert layer.shape[0] == sage._macs_aggregated, key
