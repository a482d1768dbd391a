"""Shared SAGE machinery: global CSR, batch sampling, aggregation matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SignalRecord
from repro.embedding.common import (
    full_aggregation_matrix,
    global_csr,
    initial_embedding_row,
    initial_embeddings,
    sample_neighbors_batch,
    sampled_aggregation_matrix,
)
from repro.graph import WeightedBipartiteGraph, build_graph
from repro.nn.sparse import row_normalized_csr

from conftest import synthetic_records


def small_graph():
    graph = WeightedBipartiteGraph()
    graph.add_record(SignalRecord({"a": -50.0, "b": -60.0}))
    graph.add_record(SignalRecord({"b": -55.0, "c": -70.0}))
    return graph


class TestGlobalCsr:
    def test_shapes(self):
        graph = small_graph()
        indptr, indices, weights = global_csr(graph)
        num_nodes = graph.num_records + graph.num_macs
        assert len(indptr) == num_nodes + 1
        assert len(indices) == len(weights) == 2 * graph.num_edges

    def test_symmetry(self):
        # Edge (u, v) appears in u's row and in v's row with equal weight.
        graph = small_graph()
        indptr, indices, weights = global_csr(graph)
        num_u = graph.num_records
        # record 0 -> mac 'a' (global id num_u + 0)
        row0 = indices[indptr[0]:indptr[1]]
        assert num_u + 0 in row0
        row_a = indices[indptr[num_u]:indptr[num_u + 1]]
        assert 0 in row_a

    def test_degrees_match_graph(self):
        graph = build_graph(synthetic_records(10, seed=0))
        indptr, _, _ = global_csr(graph)
        degrees = np.diff(indptr)
        record_deg, mac_deg = graph.degrees()
        np.testing.assert_array_equal(degrees[: graph.num_records], record_deg)
        np.testing.assert_array_equal(degrees[graph.num_records:], mac_deg)

    def test_neighbors_cross_partition(self):
        graph = small_graph()
        indptr, indices, _ = global_csr(graph)
        num_u = graph.num_records
        for u in range(num_u):
            assert (indices[indptr[u]:indptr[u + 1]] >= num_u).all()
        for v in range(num_u, num_u + graph.num_macs):
            assert (indices[indptr[v]:indptr[v + 1]] < num_u).all()


class TestAggregationMatrices:
    def test_full_matrix_rows_stochastic(self):
        graph = build_graph(synthetic_records(8, seed=1))
        indptr, indices, weights = global_csr(graph)
        n = graph.num_records + graph.num_macs
        matrix = full_aggregation_matrix(indptr, indices, weights, n)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        degrees = np.diff(indptr)
        np.testing.assert_allclose(sums[degrees > 0], 1.0)
        np.testing.assert_allclose(sums[degrees == 0], 0.0)

    def test_sampled_matrix_rows_stochastic(self):
        graph = build_graph(synthetic_records(8, seed=1))
        indptr, indices, weights = global_csr(graph)
        n = graph.num_records + graph.num_macs
        matrix = sampled_aggregation_matrix(indptr, indices, weights, n, 3,
                                            np.random.default_rng(0))
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert ((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0)).all()

    def test_sample_none_equals_full(self):
        graph = build_graph(synthetic_records(5, seed=2))
        indptr, indices, weights = global_csr(graph)
        n = graph.num_records + graph.num_macs
        a = sampled_aggregation_matrix(indptr, indices, weights, n, None,
                                       np.random.default_rng(0))
        b = full_aggregation_matrix(indptr, indices, weights, n)
        assert (a != b).nnz == 0


def reference_global_csr(graph):
    """The per-edge global CSR loop the vectorised one replaced (oracle)."""
    num_records = graph.num_records
    rows_u, cols_v, weights_uv = graph.record_adjacency()
    indptr = np.zeros(num_records + graph.num_macs + 1, dtype=np.int64)
    if len(rows_u):
        np.add.at(indptr, rows_u + 1, 1)
        np.add.at(indptr, num_records + cols_v + 1, 1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(2 * len(rows_u), dtype=np.int64)
    weights = np.empty(2 * len(rows_u), dtype=np.float64)
    cursor = indptr[:-1].copy()
    for u, v, w in zip(rows_u, cols_v, weights_uv):
        pos = cursor[u]
        indices[pos] = num_records + v
        weights[pos] = w
        cursor[u] += 1
        pos = cursor[num_records + v]
        indices[pos] = u
        weights[pos] = w
        cursor[num_records + v] += 1
    return indptr, indices, weights


def reference_full_matrix(indptr, indices, weights, num_nodes):
    """The COO → row-normalised CSR build the direct one replaced (oracle)."""
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    return row_normalized_csr(rows, indices, weights, shape=(num_nodes, num_nodes))


def oracle_graphs():
    yield WeightedBipartiteGraph()
    yield small_graph()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        graph = build_graph(synthetic_records(int(rng.integers(1, 40)),
                                              num_macs=int(rng.integers(1, 15)), seed=seed))
        graph.add_record(SignalRecord({}))                     # isolated record
        graph.add_record(SignalRecord({"late-mac": -80.0}))    # MAC seen once
        graph._intern_mac("never-heard")                       # edgeless MAC
        yield graph


class TestAgainstReferenceLoops:
    def test_global_csr_equals_per_edge_loop(self):
        for graph in oracle_graphs():
            (indptr, indices, weights) = global_csr(graph)
            want_indptr, want_indices, want_weights = reference_global_csr(graph)
            assert indptr.dtype == np.int64 and weights.dtype == np.float64
            assert indices.dtype == np.int32  # global ids fit, so they stay compact
            np.testing.assert_array_equal(indptr, want_indptr)
            np.testing.assert_array_equal(indices, want_indices)
            assert weights.tobytes() == want_weights.tobytes()

    def test_full_matrix_bit_identical_to_row_normalized_csr(self):
        for seed, graph in enumerate(oracle_graphs()):
            indptr, indices, weights = global_csr(graph)
            n = graph.num_records + graph.num_macs
            got = full_aggregation_matrix(indptr, indices, weights, n)
            want = reference_full_matrix(indptr, indices, weights, n)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()
            x = np.random.default_rng(seed).standard_normal((n, 6))
            assert (got @ x).tobytes() == (want @ x).tobytes()


class TestBatchSampling:
    def test_small_degree_kept_whole(self):
        graph = small_graph()
        indptr, indices, weights = global_csr(graph)
        rows, cols, w = sample_neighbors_batch(indptr, indices, weights, 10,
                                               np.random.default_rng(0))
        # Every node has degree <= 10: full adjacency returned.
        assert len(rows) == len(indices)

    def test_large_degree_capped(self):
        graph = WeightedBipartiteGraph()
        graph.add_record(SignalRecord({f"m{i}": -50.0 for i in range(40)}))
        indptr, indices, weights = global_csr(graph)
        rows, cols, w = sample_neighbors_batch(indptr, indices, weights, 5,
                                               np.random.default_rng(0))
        assert (rows == 0).sum() == 5  # the record node was subsampled

    def test_sampled_cols_are_neighbors(self):
        graph = WeightedBipartiteGraph()
        graph.add_record(SignalRecord({f"m{i}": -40.0 - i for i in range(30)}))
        indptr, indices, weights = global_csr(graph)
        rows, cols, _ = sample_neighbors_batch(indptr, indices, weights, 4,
                                               np.random.default_rng(1))
        true_neighbors = set(indices[indptr[0]:indptr[1]].tolist())
        assert set(cols[rows == 0].tolist()) <= true_neighbors

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 12))
    def test_property_weights_positive(self, sample_size):
        graph = build_graph(synthetic_records(6, seed=4))
        indptr, indices, weights = global_csr(graph)
        _, _, w = sample_neighbors_batch(indptr, indices, weights, sample_size,
                                         np.random.default_rng(2))
        assert (w > 0).all()


class TestInitialEmbeddings:
    def test_unit_norm(self):
        rows = initial_embeddings(5, 8, seed=0, salt=1)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=1e-9)

    def test_deterministic_per_identity(self):
        np.testing.assert_allclose(initial_embedding_row(8, 0, 1, 5),
                                   initial_embedding_row(8, 0, 1, 5))

    def test_different_identities_differ(self):
        a = initial_embedding_row(8, 0, 1, 5)
        b = initial_embedding_row(8, 0, 1, 6)
        c = initial_embedding_row(8, 0, 2, 5)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_start_offset_consistency(self):
        # Appending nodes later reproduces exactly the same earlier rows.
        all_at_once = initial_embeddings(6, 4, seed=3, salt=0)
        incremental = np.vstack([initial_embeddings(3, 4, seed=3, salt=0),
                                 initial_embeddings(3, 4, seed=3, salt=0, start=3)])
        np.testing.assert_allclose(all_at_once, incremental)

    def test_negative_identity_supported(self):
        row = initial_embedding_row(8, 0, 1, -1)
        assert np.isfinite(row).all()
