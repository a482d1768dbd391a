"""Weighted bipartite graph: construction, dynamics, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SignalRecord
from repro.graph import MAC, RECORD, WeightedBipartiteGraph, build_graph

from conftest import synthetic_records


def small_graph():
    graph = WeightedBipartiteGraph(weight_offset=120.0)
    graph.add_record(SignalRecord({"a": -50.0, "b": -60.0}))
    graph.add_record(SignalRecord({"b": -55.0, "c": -70.0}))
    return graph


class TestConstruction:
    def test_counts(self):
        graph = small_graph()
        assert graph.num_records == 2
        assert graph.num_macs == 3
        assert graph.num_edges == 4

    def test_weight_function_eq2(self):
        graph = WeightedBipartiteGraph(weight_offset=120.0)
        assert graph.edge_weight_of_rss(-50.0) == pytest.approx(70.0)

    def test_weight_must_be_positive(self):
        graph = WeightedBipartiteGraph(weight_offset=100.0)
        with pytest.raises(ValueError, match="non-positive weight"):
            graph.edge_weight_of_rss(-120.0)

    def test_invalid_offset(self):
        with pytest.raises(ValueError):
            WeightedBipartiteGraph(weight_offset=0.0)

    def test_empty_record_is_isolated_node(self):
        graph = small_graph()
        idx = graph.add_record(SignalRecord({}))
        assert graph.degree(RECORD, idx) == 0
        assert graph.num_records == 3

    def test_new_macs_added_dynamically(self):
        graph = small_graph()
        graph.add_record(SignalRecord({"zz": -40.0}))
        assert graph.mac_index("zz") == 3
        assert graph.num_macs == 4

    def test_mac_reuse(self):
        graph = small_graph()
        graph.add_record(SignalRecord({"a": -45.0}))
        assert graph.num_macs == 3
        neighbors, _ = graph.neighbors(MAC, graph.mac_index("a"))
        assert set(neighbors.tolist()) == {0, 2}

    def test_build_graph_helper(self):
        graph = build_graph(synthetic_records(5, seed=1))
        assert graph.num_records == 5
        graph.validate()


class TestQueries:
    def test_neighbors_record_side(self):
        graph = small_graph()
        neighbors, weights = graph.neighbors(RECORD, 0)
        assert set(graph.mac_name(i) for i in neighbors) == {"a", "b"}
        assert (weights > 0).all()

    def test_neighbors_mac_side(self):
        graph = small_graph()
        neighbors, weights = graph.neighbors(MAC, graph.mac_index("b"))
        assert set(neighbors.tolist()) == {0, 1}
        np.testing.assert_allclose(sorted(weights), [60.0, 65.0])

    def test_neighbors_invalid_side(self):
        with pytest.raises(ValueError):
            small_graph().neighbors("X", 0)

    def test_degree_and_weighted_degree(self):
        graph = small_graph()
        assert graph.degree(RECORD, 0) == 2
        assert graph.weighted_degree(RECORD, 0) == pytest.approx(70.0 + 60.0)

    def test_mac_index_unknown_returns_none(self):
        assert small_graph().mac_index("nope") is None

    def test_nodes_iteration_order(self):
        nodes = list(small_graph().nodes())
        assert nodes[:2] == [(RECORD, 0), (RECORD, 1)]
        assert all(side == MAC for side, _ in nodes[2:])

    def test_degrees_arrays(self):
        record_deg, mac_deg = small_graph().degrees()
        assert record_deg.tolist() == [2, 2]
        assert sorted(mac_deg.tolist()) == [1, 1, 2]

    def test_edges_iteration(self):
        edges = list(small_graph().edges())
        assert len(edges) == 4
        assert all(w > 0 for _, _, w in edges)

    def test_record_adjacency_coo(self):
        rows, cols, weights = small_graph().record_adjacency()
        assert len(rows) == len(cols) == len(weights) == 4

    def test_record_adjacency_empty_graph(self):
        rows, cols, weights = WeightedBipartiteGraph().record_adjacency()
        assert len(rows) == 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(["m1", "m2", "m3", "m4"]),
                                st.floats(-100, -30), min_size=0, max_size=4),
                min_size=1, max_size=8))
def test_property_graph_invariants(reading_dicts):
    graph = WeightedBipartiteGraph()
    for readings in reading_dicts:
        graph.add_record(SignalRecord(readings))
    graph.validate()
    # Edge count equals the total number of readings.
    assert graph.num_edges == sum(len(r) for r in reading_dicts)
    # Bipartiteness: record neighbours are valid MAC indices and vice versa.
    for i in range(graph.num_records):
        neighbors, _ = graph.neighbors(RECORD, i)
        assert all(0 <= v < graph.num_macs for v in neighbors)


# ----------------------------------------------------------------------
# Reload: the vectorised from_state_dict against the per-edge loop
# ----------------------------------------------------------------------
def reference_from_state_dict(state: dict) -> WeightedBipartiteGraph:
    """The per-edge reload loop the vectorised one replaced (test oracle)."""
    graph = WeightedBipartiteGraph(weight_offset=float(state["weight_offset"]))
    for mac in state["mac_names"]:
        graph._intern_mac(str(mac))
    indptr = np.asarray(state["record_indptr"], dtype=np.int64)
    edge_macs = np.asarray(state["edge_macs"], dtype=np.int64)
    edge_weights = np.asarray(state["edge_weights"], dtype=np.float64)
    for u in range(len(indptr) - 1):
        lo, hi = indptr[u], indptr[u + 1]
        macs = edge_macs[lo:hi].copy()
        weights = edge_weights[lo:hi].copy()
        graph._record_neighbors.append(macs)
        graph._record_weights.append(weights)
        for mac_idx, weight in zip(macs, weights):
            graph._mac_neighbors[mac_idx].append(u)
            graph._mac_weights[mac_idx].append(float(weight))
        graph._num_edges += len(macs)
    return graph


def random_graph_state(seed: int) -> dict:
    """A random graph state with zero-degree records and edgeless MACs."""
    rng = np.random.default_rng(seed)
    num_macs = int(rng.integers(0, 12))
    num_records = int(rng.integers(0, 15))
    if num_macs:
        degrees = rng.integers(0, min(num_macs, 6) + 1, size=num_records)
        degrees[rng.random(num_records) < 0.2] = 0
    else:
        degrees = np.zeros(num_records, dtype=np.int64)
    graph = WeightedBipartiteGraph()
    for j in range(num_macs):
        graph._intern_mac(f"m{j}")
    # Only the first two thirds of the MACs are ever heard, so the tail
    # of the name table has no edges.
    heard = max(1, (2 * num_macs) // 3)
    for degree in degrees:
        macs = rng.choice(heard, size=min(int(degree), heard), replace=False)
        graph.add_record(SignalRecord({f"m{j}": float(rng.uniform(-100, -30))
                                       for j in macs}))
    return graph.state_dict()


def assert_graphs_identical(ours: WeightedBipartiteGraph,
                            oracle: WeightedBipartiteGraph) -> None:
    assert ours.num_edges == oracle.num_edges
    assert ours.num_records == oracle.num_records
    assert ours._mac_names == oracle._mac_names
    for side in (ours._record_neighbors, ours._record_weights,
                 oracle._record_neighbors, oracle._record_weights):
        assert len(side) == oracle.num_records
    for u in range(oracle.num_records):
        for got, want in ((ours._record_neighbors[u], oracle._record_neighbors[u]),
                          (ours._record_weights[u], oracle._record_weights[u])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    assert ours._mac_neighbors == oracle._mac_neighbors
    assert ours._mac_weights == oracle._mac_weights
    for neighbors, weights in zip(ours._mac_neighbors, ours._mac_weights):
        assert all(type(value) is int for value in neighbors)
        assert all(type(value) is float for value in weights)


class TestReload:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_per_edge_reference(self, seed):
        state = random_graph_state(seed)
        graph = WeightedBipartiteGraph.from_state_dict(state)
        assert_graphs_identical(graph, reference_from_state_dict(state))
        graph.validate()

    def test_empty_graph(self):
        state = WeightedBipartiteGraph().state_dict()
        graph = WeightedBipartiteGraph.from_state_dict(state)
        assert_graphs_identical(graph, reference_from_state_dict(state))
        assert graph.num_records == graph.num_macs == graph.num_edges == 0

    def test_zero_degree_records_and_edgeless_macs(self):
        graph = small_graph()
        graph._intern_mac("never-heard")
        graph.add_record(SignalRecord({}))
        graph.add_record(SignalRecord({"c": -40.0, "a": -90.0}))
        state = graph.state_dict()
        clone = WeightedBipartiteGraph.from_state_dict(state)
        assert_graphs_identical(clone, reference_from_state_dict(state))
        assert clone.degree(RECORD, 2) == 0
        assert clone.degree(MAC, clone.mac_index("never-heard")) == 0

    def test_caller_state_is_copied(self):
        state = next(state for state in map(random_graph_state, range(100))
                     if len(state["edge_macs"]))
        graph = WeightedBipartiteGraph.from_state_dict(state)
        oracle = reference_from_state_dict(state)
        state["edge_macs"][:] = 0
        state["edge_weights"][:] = -1.0
        assert_graphs_identical(graph, oracle)

    def test_reloaded_graph_keeps_growing_like_the_original(self):
        graph = small_graph()
        clone = WeightedBipartiteGraph.from_state_dict(graph.state_dict())
        for target in (graph, clone):
            target.add_record(SignalRecord({"b": -52.0, "d": -61.0}))
        assert_graphs_identical(clone, graph)
        clone.validate()


class TestValidate:
    def test_reports_the_offending_record(self):
        graph = small_graph()
        graph.add_record(SignalRecord({"a": -40.0}))
        graph._record_weights[2] = np.array([-1.0])
        with pytest.raises(AssertionError, match="record 2 has non-positive"):
            graph.validate()

    def test_unknown_mac_reported(self):
        graph = small_graph()
        graph._record_neighbors[1] = np.array([0, 7])
        with pytest.raises(AssertionError, match="record 1 references unknown MAC"):
            graph.validate()

    def test_mismatched_arrays_reported(self):
        graph = small_graph()
        graph._record_weights[0] = graph._record_weights[0][:1]
        with pytest.raises(AssertionError, match="record 0 has mismatched"):
            graph.validate()

    def test_bookkeeping_out_of_sync(self):
        graph = small_graph()
        graph._num_edges += 1
        with pytest.raises(AssertionError, match="out of sync"):
            graph.validate()
