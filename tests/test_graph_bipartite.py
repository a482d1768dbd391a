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

    @pytest.mark.parametrize("side, index", [(RECORD, 2), (RECORD, -1), (MAC, 3), (MAC, -1)])
    def test_neighbors_index_out_of_range(self, side, index):
        # The edge buffers have spare capacity past the last record, so
        # an unchecked index would read stale entries.
        with pytest.raises(IndexError):
            small_graph().neighbors(side, index)

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
# Reload: the flat-array from_state_dict against a per-edge walk
# ----------------------------------------------------------------------
def reference_adjacency(state: dict) -> tuple[list, list]:
    """Per-record and per-MAC ``(neighbours, weights)`` lists, walked one
    edge at a time from a saved state (test oracle).  MAC-side lists are
    in attach order, as ``add_record`` appends them."""
    indptr = np.asarray(state["record_indptr"], dtype=np.int64)
    edge_macs = np.asarray(state["edge_macs"], dtype=np.int64)
    edge_weights = np.asarray(state["edge_weights"], dtype=np.float64)
    records = []
    macs = [([], []) for _ in state["mac_names"]]
    for u in range(len(indptr) - 1):
        lo, hi = indptr[u], indptr[u + 1]
        records.append((edge_macs[lo:hi].tolist(), edge_weights[lo:hi].tolist()))
        for mac_idx, weight in zip(edge_macs[lo:hi], edge_weights[lo:hi]):
            macs[mac_idx][0].append(u)
            macs[mac_idx][1].append(float(weight))
    return records, macs


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


def assert_graph_matches(graph: WeightedBipartiteGraph, state: dict) -> None:
    """``graph`` holds exactly the adjacency ``state`` describes, on both
    sides, read through the public API."""
    records, macs = reference_adjacency(state)
    assert graph.num_records == len(records)
    assert graph.num_macs == len(macs)
    assert [graph.mac_name(j) for j in range(graph.num_macs)] == list(state["mac_names"])
    assert graph.num_edges == sum(len(neighbors) for neighbors, _ in records)
    for u, (want_macs, want_weights) in enumerate(records):
        got_macs, got_weights = graph.neighbors(RECORD, u)
        assert got_macs.dtype == np.int32 and got_weights.dtype == np.float64
        assert got_macs.tolist() == want_macs
        assert got_weights.tolist() == want_weights
    for j, (want_records, want_weights) in enumerate(macs):
        got_records, got_weights = graph.neighbors(MAC, j)
        assert got_records.dtype == np.int64 and got_weights.dtype == np.float64
        assert got_records.tolist() == want_records
        assert got_weights.tolist() == want_weights
    record_deg, mac_deg = graph.degrees()
    assert record_deg.tolist() == [len(neighbors) for neighbors, _ in records]
    assert mac_deg.tolist() == [len(neighbors) for neighbors, _ in macs]
    saved = graph.state_dict()
    for key in ("record_indptr", "edge_macs", "edge_weights"):
        assert saved[key].dtype == np.asarray(state[key]).dtype
        np.testing.assert_array_equal(saved[key], state[key])


def assert_graphs_identical(ours: WeightedBipartiteGraph,
                            other: WeightedBipartiteGraph) -> None:
    assert_graph_matches(ours, other.state_dict())


class TestReload:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_per_edge_reference(self, seed):
        state = random_graph_state(seed)
        graph = WeightedBipartiteGraph.from_state_dict(state)
        assert_graph_matches(graph, state)
        graph.validate()

    def test_empty_graph(self):
        state = WeightedBipartiteGraph().state_dict()
        graph = WeightedBipartiteGraph.from_state_dict(state)
        assert_graph_matches(graph, state)
        assert graph.num_records == graph.num_macs == graph.num_edges == 0

    def test_zero_degree_records_and_edgeless_macs(self):
        graph = small_graph()
        graph._intern_mac("never-heard")
        graph.add_record(SignalRecord({}))
        graph.add_record(SignalRecord({"c": -40.0, "a": -90.0}))
        state = graph.state_dict()
        clone = WeightedBipartiteGraph.from_state_dict(state)
        assert_graph_matches(clone, state)
        assert clone.degree(RECORD, 2) == 0
        assert clone.degree(MAC, clone.mac_index("never-heard")) == 0

    def test_caller_state_is_copied(self):
        state = next(state for state in map(random_graph_state, range(100))
                     if len(state["edge_macs"]))
        graph = WeightedBipartiteGraph.from_state_dict(state)
        saved = {key: (value.copy() if isinstance(value, np.ndarray) else value)
                 for key, value in state.items()}
        state["edge_macs"][:] = 0
        state["edge_weights"][:] = -1.0
        state["record_indptr"][:] = 0
        assert_graph_matches(graph, saved)

    def test_reloaded_graph_keeps_growing_like_the_original(self):
        graph = small_graph()
        clone = WeightedBipartiteGraph.from_state_dict(graph.state_dict())
        for target in (graph, clone):
            target.add_record(SignalRecord({"b": -52.0, "d": -61.0}))
        assert_graphs_identical(clone, graph)
        clone.validate()

    def test_csr_views_match_mac_csr(self):
        graph = WeightedBipartiteGraph.from_state_dict(random_graph_state(4))
        indptr, macs, weights = graph.csr()
        mac_indptr, owners, mac_weights = graph.mac_csr()
        assert mac_indptr[-1] == len(owners) == len(macs) == graph.num_edges
        # Both sides list the same multiset of (record, mac, weight) edges.
        rows = np.repeat(np.arange(graph.num_records), np.diff(indptr))
        cols = np.repeat(np.arange(graph.num_macs), np.diff(mac_indptr))
        assert sorted(zip(rows.tolist(), macs.tolist(), weights.tolist())) == \
            sorted(zip(owners.tolist(), cols.tolist(), mac_weights.tolist()))


class TestCopy:
    def test_appends_never_cross(self):
        graph = small_graph()
        graph.neighbors(MAC, 0)  # populate the derived MAC side first
        clone = graph.copy()
        before = graph.state_dict()
        clone.add_record(SignalRecord({"a": -41.0, "new-in-clone": -50.0}))
        assert_graph_matches(graph, before)
        assert graph.mac_index("new-in-clone") is None
        clone_state = clone.state_dict()
        for _ in range(20):  # enough appends to outgrow every buffer
            graph.add_record(SignalRecord({"b": -47.0, "new-in-original": -66.0}))
        assert_graph_matches(clone, clone_state)
        assert clone.mac_index("new-in-original") is None
        assert clone.neighbors(MAC, clone.mac_index("a"))[0].tolist() == [0, 2]
        assert graph.neighbors(MAC, graph.mac_index("a"))[0].tolist() == [0]
        graph.validate()
        clone.validate()

    def test_copy_of_empty_graph(self):
        clone = WeightedBipartiteGraph(weight_offset=90.0).copy()
        assert clone.weight_offset == 90.0
        assert clone.add_record(SignalRecord({"a": -50.0})) == 0
        assert_graph_matches(clone, clone.state_dict())


class TestValidate:
    def test_reports_the_offending_record(self):
        graph = small_graph()
        graph.add_record(SignalRecord({"a": -40.0}))
        indptr, _, _ = graph.csr()
        graph._weights[indptr[2]] = -1.0
        with pytest.raises(AssertionError, match="record 2 has non-positive"):
            graph.validate()

    def test_unknown_mac_reported(self):
        graph = small_graph()
        indptr, _, _ = graph.csr()
        graph._macs[indptr[1] + 1] = 7
        with pytest.raises(AssertionError, match="record 1 references unknown MAC"):
            graph.validate()

    def test_mismatched_arrays_reported(self):
        graph = small_graph()
        graph._indptr[1] = -1
        with pytest.raises(AssertionError, match="record 0 has mismatched"):
            graph.validate()

    def test_bookkeeping_out_of_sync(self):
        graph = small_graph()
        graph._num_edges += 1
        with pytest.raises(AssertionError, match="out of sync"):
            graph.validate()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda state: state.update(edge_weights=state["edge_weights"][:-1]), "inconsistent"),
        (lambda state: state["record_indptr"].__setitem__(1, 5), "inconsistent"),
        (lambda state: state["edge_macs"].__setitem__(0, 9), "outside the name table"),
        (lambda state: state["edge_macs"].__setitem__(0, -1), "outside the name table"),
        (lambda state: state["edge_weights"].__setitem__(0, np.nan), "non-positive"),
        (lambda state: state["edge_weights"].__setitem__(0, 0.0), "non-positive"),
    ])
    def test_bad_state_raises_value_error(self, corrupt, message):
        state = small_graph().state_dict()
        corrupt(state)
        with pytest.raises(ValueError, match=message):
            WeightedBipartiteGraph.from_state_dict(state)
