"""The benchmark's own arithmetic and input generator.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tally  # noqa: E402
from spans import Ledger, Recorder  # noqa: E402
from traffic import (INSIDE_DECK, PREMISE_WORKER, WORKLOADS, Deck,  # noqa: E402
                     Traffic, mix_counts, tenant_layout, worker_of)


# ----------------------------------------------------------------------
# Self time = span minus the union of its children
# ----------------------------------------------------------------------
@pytest.mark.parametrize("children, expected", [
    ([], 100),                                  # leaf: all of it
    ([(10, 30), (50, 60)], 70),                 # disjoint children
    ([(10, 40), (30, 60)], 50),                 # overlap counted once
    ([(20, 30), (10, 80), (40, 50)], 30),       # nested inside a sibling
    ([(-20, 10), (90, 150)], 80),               # clipped to the span
    ([(0, 100)], 0),                            # fully covered
])
def test_self_time_is_span_minus_union_of_children(children, expected):
    assert tally.self_time(0, 100, children) == expected


def _log(names, spans):
    return {"names": names, "spans": spans}


def test_ledger_self_time_and_join_across_processes():
    # Router: one observe_many [0, 1000] waiting [100, 900]; one maintain
    # [2000, 2500].  Worker: a request [200, 800] whose runtime call
    # [300, 700] holds two overlapping-free leaves, and a request inside
    # the maintain window.
    router = _log(["router.observe_many", "router.wait", "router.maintain"],
                  [[0, 1, -1, 0, 1000, 40], [1, 1, 0, 100, 900, None],
                   [2, 1, -1, 2000, 2500, None]])
    worker = _log(["worker.request", "runtime.observe_many", "histogram.update"],
                  [[0, 7, -1, 200, 800, "observe_many"],
                   [1, 7, 0, 300, 700, None],
                   [2, 7, 1, 320, 420, None],
                   [2, 7, 1, 500, 650, None],
                   [0, 7, -1, 2100, 2400, "maintain"]])
    ledger = Ledger(router, [worker])
    assert ledger.row("serve", "router.observe_many")["self"] == 200
    assert ledger.row("serve", "router.wait")["self"] == 800
    assert ledger.row("serve", "worker.request")["self"] == 200
    assert ledger.row("serve", "runtime.observe_many")["self"] == 150
    assert ledger.row("serve", "histogram.update")["durations"] == [100, 150]
    assert ledger.row("maintain", "worker.request")["count"] == 1
    assert ledger.unjoined == 0
    # Waiting is idle time, never a dominant layer.
    shares = ledger.self_shares("serve")
    assert "router.wait" not in shares
    assert next(iter(shares)) == "histogram.update"
    assert sum(shares.values()) == pytest.approx(1.0)


def test_ledger_counts_roots_outside_every_router_operation():
    router = _log(["router.observe_many"], [[0, 1, -1, 0, 100, 1]])
    worker = _log(["worker.request"], [[0, 7, -1, 150, 200, "stats"]])
    ledger = Ledger(router, [worker])
    assert ledger.unjoined == 1
    assert ledger.row("other", "worker.request")["count"] == 1


def test_recorder_nests_spans_and_restores_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    recorder = Recorder()
    original = Layer.outer
    recorder.patch(Layer, "outer", "a.outer", lambda args, result: result)
    recorder.patch(Layer, "inner", "b.inner")
    assert Layer().outer() == 42
    outer, inner = recorder.snapshot()["spans"]
    assert outer[2] == -1 and inner[2] == 0            # parent links
    assert outer[3] <= inner[3] <= inner[4] <= outer[4]
    assert outer[5] == 42
    recorder.restore()
    assert Layer.outer is original


# ----------------------------------------------------------------------
# Tail percentiles need ten samples beyond them
# ----------------------------------------------------------------------
def test_tail_refused_with_fewer_than_ten_beyond():
    with pytest.raises(tally.ThinTail):
        tally.tail(list(range(1, 200)), 0.95)       # rank 190 of 199: 9 beyond
    assert tally.tail(list(range(1, 201)), 0.95) == 190   # 10 beyond


def test_tail_uses_nearest_rank_on_unsorted_input():
    samples = [float(v) for v in range(100, 0, -1)]
    assert tally.tail(samples, 0.5) == 50.0
    assert tally.tail(samples, 0.9) == 90.0             # exactly 10 beyond


def test_median_rejects_empty():
    with pytest.raises(ValueError):
        tally.median([])


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def test_critical_path_is_records_over_router_plus_busiest_worker():
    assert tally.critical_path_rps(1000, 0.5, [1.5, 0.7]) == pytest.approx(500.0)
    assert tally.critical_path_rps(300, 0.0, [1.0, 3.0]) == pytest.approx(100.0)


def test_critical_path_rejects_empty_runs():
    with pytest.raises(ValueError):
        tally.critical_path_rps(0, 0.5, [1.0])
    with pytest.raises(ValueError):
        tally.critical_path_rps(10, 0.0, [0.0, 0.0])


def test_busy_skew_and_spread():
    assert tally.busy_skew([3.0, 1.0]) == pytest.approx(1.5)
    assert tally.busy_skew([0.0, 0.0]) == 1.0
    assert tally.spread([10.0] * 5) == 0.0
    assert tally.spread([8, 9, 10, 11, 12]) == pytest.approx(0.3)


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
POOLS = {1: (300, 320), 3: (310, 290), 6: (305, 301)}


def _stream(name: str, seed: int, batches: int = 50) -> list:
    traffic = Traffic(WORKLOADS[name], POOLS, seed)
    return [traffic.next_batch() for _ in range(batches)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _stream(name, 7) == _stream(name, 7)
    assert _stream(name, 7) != _stream(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_follows_the_workload(name):
    workload = WORKLOADS[name]
    _, tenants = tenant_layout(workload.ids_per_premise)
    items = [item for batch in _stream(name, 3, batches=200) for item in batch]
    assert {len(batch) for batch in _stream(name, 3)} <= set(workload.batch_sizes)
    assert {tenant for tenant, _, _, _ in items} <= set(tenants)
    inside = sum(flag for _, _, flag, _ in items) / len(items)
    assert inside == pytest.approx(workload.inside_share, abs=0.05)
    for tenant, premise, flag, index in items:
        assert tenants[tenant] == premise
        assert 0 <= index < POOLS[premise][0 if flag else 1]


def test_deck_holds_its_counts_in_every_deck():
    deck = Deck("abc", (3, 1, 2), random.Random(5))
    decks = [[deck.draw() for _ in range(6)] for _ in range(20)]
    for cards in decks:
        assert Counter(cards) == {"a": 3, "b": 1, "c": 2}
    assert len({tuple(cards) for cards in decks}) > 1       # each one shuffled


def test_mix_counts_are_exact_zipf_and_uniform():
    assert mix_counts("uniform", 4) == [1, 1, 1, 1]
    assert mix_counts("zipf", 6) == [60, 30, 20, 15, 12, 10]
    with pytest.raises(ValueError):
        mix_counts("pareto", 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_carry_the_same_mix(name):
    """Seeds change order and scans, not how much of each kind of work a
    run holds: whole decks of inside flags and tenants match exactly."""
    workload = WORKLOADS[name]
    _, tenants = tenant_layout(workload.ids_per_premise)
    deck = sum(mix_counts(workload.mix, len(tenants)))
    size = math.lcm(deck, INSIDE_DECK)

    def first(seed):
        items = [item for batch in _stream(name, seed, batches=4000)
                 for item in batch][:size]
        assert len(items) == size
        return (Counter(tenant for tenant, _, _, _ in items),
                sum(flag for _, _, flag, _ in items))

    assert first(1) == first(2)


def test_tenant_layout_places_premises_on_their_workers():
    provisioned, tenants = tenant_layout(11)
    assert len(tenants) == 33 and len(set(tenants)) == 33
    for user, tenant in provisioned.items():
        assert worker_of(tenant) == PREMISE_WORKER[user]
        assert tenants[tenant] == user
    assert list(tenants)[:3] == list(provisioned.values())   # Zipf ranks 1-3


# ----------------------------------------------------------------------
# The printed metrics are exactly the ones BENCHMARK.json declares
# ----------------------------------------------------------------------
def _fake_pass() -> dict:
    from repro.core.protocols import GeofenceDecision
    sent = [[("u1-00", 1, True, 0), ("u6-00", 6, False, 1)]]
    outputs = [[GeofenceDecision(inside=True, score=0.1, confident=True),
                GeofenceDecision(inside=False, score=2.0)]]
    return {"sent": sent, "outputs": outputs, "failed": 0, "setup_s": 9.0,
            "provision_s": [3.0, 3.5, 4.0], "router_cpu_s": 0.01,
            "worker_cpu_s": [0.02, 0.01], "wall_s": 0.05, "batch_s": [0.04],
            "maintain_s": [0.001], "scrape_s": [], "control_cpu_s": 0.001,
            "peak_rss_kb": 2048,
            "loads": 0,
            "router_spans": {"names": ["router.observe_many"],
                             "spans": [[0, 1, -1, 0, 100, 2]]},
            "worker_spans": []}


def test_printed_metric_names_match_the_contract():
    import json

    import run
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    gated, recorded = run.end_to_end(_fake_pass())
    assert list(gated) == [m["name"] for m in spec["end_to_end"]]
    assert not set(recorded) & set(gated)
    props = {"worker_busy_skew": 2.0, "inside_share": 0.5,
             "confident_inlier_share": 0.5, "lru_miss_share": 0.0,
             "anchored_rejection_share": 0.0, "mean_readings_per_scan": 3.0}
    layered, ledger = run.per_layer(_fake_pass(), _fake_pass(), props)
    assert list(layered) == [m["name"] for m in spec["per_layer"]]
    for name, (value, unit) in {**gated, **layered}.items():
        assert isinstance(value, (int, float)), name
        assert unit == next(m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
                            if m["name"] == name)


def test_process_cpu_from_proc_matches_process_time():
    import os
    import time

    import run
    deadline = time.process_time() + 0.2
    while time.process_time() < deadline:
        pass
    assert run.cpu_s(os.getpid()) == pytest.approx(time.process_time(), abs=0.05)
