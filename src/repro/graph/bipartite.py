"""A dynamic weighted bipartite graph of signal records and MACs.

Partition ``U`` holds signal-record nodes, partition ``V`` holds sensed
MAC-address nodes (Sec. III-A).  The graph supports the online regime of
Sec. IV: new record nodes (and previously unseen MAC nodes) can be
appended at any time, which is what makes BiSAGE's inductive embedding
prediction possible.

Nodes are referred to by ``(side, index)`` pairs where ``side`` is
:data:`RECORD` (``"U"``) or :data:`MAC` (``"V"``) and indices are dense
per-partition integers assigned in insertion order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.records import SignalRecord
from repro.utils.buffers import reserve

__all__ = ["RECORD", "MAC", "NodeRef", "WeightedBipartiteGraph"]

RECORD = "U"
MAC = "V"

NodeRef = tuple  # (side, index)


class WeightedBipartiteGraph:
    """Append-only weighted bipartite graph in record-major CSR form.

    Record ``u``'s edges occupy ``macs[indptr[u]:indptr[u+1]]`` (MAC
    indices) and the same slice of ``weights``, in the order the record's
    readings listed them.  All three arrays are growable buffers, so
    attaching a record writes its edges in place instead of allocating
    per-record arrays.  The MAC-side adjacency is derived: one stable
    sort of the edge MACs, built on first use and dropped when the graph
    grows.

    Parameters
    ----------
    weight_offset:
        The constant ``c`` of Eq. 2; edge weight is ``RSS + c`` and must
        come out strictly positive (the paper uses c = 120 dBm).
    """

    def __init__(self, weight_offset: float = 120.0):
        if weight_offset <= 0:
            raise ValueError(f"weight_offset must be positive, got {weight_offset}")
        self.weight_offset = float(weight_offset)
        self._mac_index: dict[str, int] = {}
        self._mac_names: list[str] = []
        self._indptr = np.zeros(1, dtype=np.int64)
        self._macs = np.empty(0, dtype=np.int32)
        self._weights = np.empty(0, dtype=np.float64)
        self._num_records = 0
        self._num_edges = 0
        self._mac_side: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def edge_weight_of_rss(self, rss: float) -> float:
        """Eq. 1–2: ``w = f(RSS) = RSS + c``, validated positive."""
        weight = rss + self.weight_offset
        if weight <= 0:
            raise ValueError(
                f"RSS {rss} with offset {self.weight_offset} gives non-positive weight; "
                "increase weight_offset (paper: c > max |RSS|)"
            )
        return weight

    def add_record(self, record: SignalRecord) -> int:
        """Append a record node with edges to its sensed MACs.

        Unseen MAC addresses are added as new ``V`` nodes (the dynamic
        behaviour of Sec. III-A/IV-A).  Returns the new record index.
        Empty records are allowed as isolated nodes; GEM treats them as
        outliers upstream.
        """
        mac_indices = []
        weights = []
        for mac, rss in record.readings.items():
            mac_idx = self._mac_index.get(mac)
            if mac_idx is None:
                mac_idx = self._intern_mac(mac)
            mac_indices.append(mac_idx)
            weights.append(self.edge_weight_of_rss(rss))
        u, lo = self._num_records, self._num_edges
        hi = lo + len(mac_indices)
        self._indptr = reserve(self._indptr, u + 1, u + 2)
        self._macs = reserve(self._macs, lo, hi)
        self._weights = reserve(self._weights, lo, hi)
        self._macs[lo:hi] = mac_indices
        self._weights[lo:hi] = weights
        self._indptr[u + 1] = hi
        self._num_records = u + 1
        self._num_edges = hi
        self._mac_side = None
        return u

    def add_records(self, records: Iterable[SignalRecord]) -> list[int]:
        return [self.add_record(record) for record in records]

    def _intern_mac(self, mac: str) -> int:
        idx = len(self._mac_names)
        self._mac_index[mac] = idx
        self._mac_names.append(mac)
        self._mac_side = None
        return idx

    def copy(self) -> "WeightedBipartiteGraph":
        """An independent copy: appending to either never shows in the other."""
        clone = WeightedBipartiteGraph(self.weight_offset)
        clone._mac_index = dict(self._mac_index)
        clone._mac_names = list(self._mac_names)
        clone._indptr = self._indptr[:self._num_records + 1].copy()
        clone._macs = self._macs[:self._num_edges].copy()
        clone._weights = self._weights[:self._num_edges].copy()
        clone._num_records = self._num_records
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_macs(self) -> int:
        return len(self._mac_names)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def mac_name(self, index: int) -> str:
        return self._mac_names[index]

    def mac_index(self, mac: str) -> int | None:
        """Index of a MAC node, or None if never seen."""
        return self._mac_index.get(mac)

    def known_macs(self) -> set[str]:
        return set(self._mac_index)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Record-major ``(indptr, macs, weights)`` views of every edge.

        Views into the live buffers: treat them as read-only, and as a
        snapshot — records attached later do not appear in them.
        """
        return (self._indptr[:self._num_records + 1], self._macs[:self._num_edges],
                self._weights[:self._num_edges])

    def mac_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MAC-major ``(indptr, records, weights)`` over every edge.

        Each MAC's edges are in record order — the order
        :meth:`add_record` attached them — from one stable sort of the
        edge MACs.  Built fresh on every call.
        """
        record_indptr, macs, weights = self.csr()
        # The narrowest dtype that holds every MAC index sorts the same
        # keys in the same stable order, and lets numpy radix-sort them.
        order = np.argsort(macs.astype(np.min_scalar_type(self.num_macs)), kind="stable")
        indptr = np.zeros(self.num_macs + 1, dtype=np.int64)
        np.cumsum(np.bincount(macs, minlength=self.num_macs), out=indptr[1:])
        owners = np.repeat(np.arange(self._num_records, dtype=np.int64), np.diff(record_indptr))
        return indptr, owners[order], weights[order]

    def neighbors(self, side: str, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices in the other partition, edge weights).

        Both sides return views into the graph's arrays; callers must
        not write to them.  MAC-side queries share one :meth:`mac_csr`,
        kept until the graph next grows.
        """
        if side == RECORD:
            if not 0 <= index < self._num_records:
                raise IndexError(f"record index {index} out of range")
            lo, hi = self._indptr[index], self._indptr[index + 1]
            return self._macs[lo:hi], self._weights[lo:hi]
        if side == MAC:
            if not 0 <= index < self.num_macs:
                raise IndexError(f"MAC index {index} out of range")
            if self._mac_side is None:
                self._mac_side = self.mac_csr()
            indptr, records, weights = self._mac_side
            lo, hi = indptr[index], indptr[index + 1]
            return records[lo:hi], weights[lo:hi]
        raise ValueError(f"side must be {RECORD!r} or {MAC!r}, got {side!r}")

    def degree(self, side: str, index: int) -> int:
        neighbors, _ = self.neighbors(side, index)
        return len(neighbors)

    def weighted_degree(self, side: str, index: int) -> float:
        _, weights = self.neighbors(side, index)
        return float(weights.sum()) if len(weights) else 0.0

    def nodes(self) -> Iterator[NodeRef]:
        """All nodes, records first then MACs."""
        for i in range(self.num_records):
            yield (RECORD, i)
        for j in range(self.num_macs):
            yield (MAC, j)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(record degrees, MAC degrees) as arrays."""
        indptr, macs, _ = self.csr()
        return np.diff(indptr), np.bincount(macs, minlength=self.num_macs).astype(np.int64)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """All (record index, mac index, weight) triples."""
        rows, cols, weights = self.record_adjacency()
        return zip(rows.tolist(), cols.tolist(), weights.tolist())

    def record_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat COO arrays (record_rows, mac_cols, weights) over all edges."""
        record_deg, _ = self.degrees()
        _, macs, weights = self.csr()
        rows = np.repeat(np.arange(self._num_records, dtype=np.int64), record_deg)
        return rows, macs.astype(np.int64), weights.copy()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: flat edge arrays + the MAC name table.

        Edges are stored record-major as ``(record_indptr, edge_macs,
        edge_weights)`` — record ``u``'s edges occupy the slice
        ``record_indptr[u]:record_indptr[u+1]``.  The reverse (MAC-side)
        adjacency is derived, so it is rebuilt on demand rather than saved.
        """
        indptr, macs, weights = self.csr()
        return {
            "weight_offset": self.weight_offset,
            "mac_names": list(self._mac_names),
            "record_indptr": indptr.copy(),
            "edge_macs": macs.astype(np.int64),
            "edge_weights": weights.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "WeightedBipartiteGraph":
        """Rebuild a graph saved by :meth:`state_dict`.

        The graph takes private copies of the flat edge arrays, so later
        changes to ``state`` never reach it.
        """
        graph = cls(weight_offset=float(state["weight_offset"]))
        for mac in state["mac_names"]:
            graph._intern_mac(str(mac))
        indptr = np.array(state["record_indptr"], dtype=np.int64)
        edge_macs = np.asarray(state["edge_macs"], dtype=np.int64)
        edge_weights = np.array(state["edge_weights"], dtype=np.float64)
        if (indptr.ndim != 1 or edge_macs.ndim != 1 or edge_weights.ndim != 1
                or len(edge_macs) != len(edge_weights)
                or len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(edge_macs)
                or (np.diff(indptr) < 0).any()):
            raise ValueError("graph state has inconsistent edge arrays")
        if len(edge_macs) and (edge_macs.min() < 0 or edge_macs.max() >= graph.num_macs):
            raise ValueError("graph state references a MAC index outside the name table")
        if not (np.isfinite(edge_weights) & (edge_weights > 0)).all():
            raise ValueError("graph state has a non-positive or non-finite edge weight")
        graph._indptr = indptr
        graph._macs = edge_macs.astype(np.int32)
        graph._weights = edge_weights
        graph._num_records = len(indptr) - 1
        graph._num_edges = len(edge_macs)
        graph.validate()
        return graph

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        n, num_edges = self._num_records, self._num_edges
        assert len(self._indptr) > n and self._indptr[0] == 0, "record index out of sync"
        indptr = self._indptr[:n + 1]
        assert indptr[n] == num_edges, "edge bookkeeping out of sync"
        assert len(self._macs) >= num_edges and len(self._weights) >= num_edges, \
            "edge bookkeeping out of sync"
        shrinking = np.flatnonzero(np.diff(indptr) < 0)
        assert not len(shrinking), f"record {shrinking[0]} has mismatched edge bounds"
        if not num_edges:
            return
        ends = indptr[1:]

        def owner(bad_edges: np.ndarray) -> int:
            return int(np.searchsorted(ends, bad_edges[0], side="right"))

        _, macs, weights = self.csr()
        bad = np.flatnonzero(~(weights > 0))
        assert not len(bad), f"record {owner(bad)} has non-positive edge weight"
        bad = np.flatnonzero((macs < 0) | (macs >= self.num_macs))
        assert not len(bad), f"record {owner(bad)} references unknown MAC"
