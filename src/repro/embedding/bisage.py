"""BiSAGE: bipartite sample-and-aggregate network embedding (Sec. III-B).

The algorithmic content of the paper's core contribution:

* every node keeps a **primary** embedding ``h`` and an **auxiliary**
  embedding ``l``; one aggregation round updates ``h_i`` from sampled
  neighbours' ``l_{j}`` and ``l_i`` from neighbours' ``h_j`` (Eq. 3–6,
  Algorithm 1), then L2-normalises both (Eq. 7);
* neighbour sampling and in-aggregation weighting are proportional to
  edge weight (Eq. 8);
* training minimises the skip-gram-style loss of Eq. 9 over consecutive
  nodes of weighted random walks, with ``K_N`` negative nodes drawn
  ``∝ degree^{3/4}``;
* the model is **inductive**: a record streamed in later is attached to
  the graph and embedded with the frozen weight matrices by aggregating
  its neighbours' cached per-layer embeddings (Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.embedding.common import (
    full_aggregation_matrix,
    global_csr,
    initial_embedding_row,
    sampled_aggregation_matrix,
)
from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph
from repro.graph.sampling import NegativeSampler
from repro.graph.walks import RandomWalker, WalkConfig, walk_pairs
from repro.nn import (Adam, Parameter, Tensor, export_parameters, init,
                      load_parameters, no_grad, ops, spmm)
from repro.nn.batch import SageInferenceKernel
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["BiSAGEConfig", "BiSAGE"]

# Node identity used for the initial embedding of *inference-time* record
# nodes.  Training nodes keep per-node random initial embeddings (as the
# paper specifies); streamed records all share this one so that their
# embedding — and therefore the in/out decision — is deterministic in the
# record's readings.
_INFERENCE_KEY = -1

_ACTIVATIONS = {
    "tanh": (ops.tanh, np.tanh),
    "relu": (ops.relu, lambda x: np.maximum(x, 0.0)),
    "sigmoid": (ops.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))),
}


@dataclass(frozen=True)
class BiSAGEConfig:
    """Hyper-parameters for BiSAGE (paper defaults from Sec. V).

    ``sample_size=None`` aggregates over full neighbourhoods with Eq. 8
    weights (the sampled aggregator's expectation) — deterministic and
    faster for small graphs.
    """

    dim: int = 32
    num_layers: int = 2
    sample_size: int | None = 10
    activation: str = "tanh"
    learning_rate: float = 0.003
    epochs: int = 5
    batch_pairs: int = 256
    negative_samples: int = 4
    negative_power: float = 0.75
    resample_every: int = 1
    walk: WalkConfig = field(default_factory=WalkConfig)
    seed: int = 0

    def __post_init__(self):
        check_positive_int(self.dim, "dim")
        check_positive_int(self.num_layers, "num_layers")
        if self.sample_size is not None:
            check_positive_int(self.sample_size, "sample_size")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(_ACTIVATIONS)}, got {self.activation!r}")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_pairs, "batch_pairs")
        check_positive_int(self.negative_samples, "negative_samples")
        if self.negative_power < 0:
            raise ValueError("negative_power must be non-negative")
        check_positive_int(self.resample_every, "resample_every")

    def with_dim(self, dim: int) -> "BiSAGEConfig":
        return replace(self, dim=dim)

    def to_dict(self) -> dict:
        """JSON-safe dict (nested WalkConfig included); see :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BiSAGEConfig":
        data = dict(data)
        walk = data.pop("walk", None)
        if walk is not None:
            data["walk"] = WalkConfig.from_dict(walk)
        return cls(**data)


class BiSAGE:
    """Trainable BiSAGE embedder bound to a (dynamic) bipartite graph."""

    def __init__(self, config: BiSAGEConfig = BiSAGEConfig()):
        self.config = config
        self.graph: WeightedBipartiteGraph | None = None
        self.weights_h: list[Parameter] = []
        self.weights_l: list[Parameter] = []
        self.loss_history: list[float] = []
        # Per-layer MAC caches (inference aggregates from these): lists
        # of (_macs_aggregated, d) arrays, index 0 = layer 0 — exactly
        # the trained MAC universe, however many MACs the graph has
        # interned since.  Record nodes keep only their layer-0 rows
        # (reused by every cache rebuild) and their final primary
        # embedding.  No array here is ever written in place — rebuilds
        # rebind — so a refresh snapshot may share them.
        self._cache_hv: list[np.ndarray] = []
        self._cache_lv: list[np.ndarray] = []
        self._record_h0 = np.empty((0, config.dim))
        self._record_l0 = np.empty((0, config.dim))
        self._record_h = np.empty((0, config.dim))
        self._macs_aggregated = 0
        # The one reader of the state above; built on first use and
        # dropped whenever weights or caches are rebuilt.
        self._kernel: SageInferenceKernel | None = None
        self._rng = as_rng(config.seed)

    # ------------------------------------------------------------------
    # Initial embeddings (deterministic per node identity)
    # ------------------------------------------------------------------
    def _node_key(self, side: str, index: int) -> int:
        return 2 * index if side == RECORD else 2 * index + 1

    def _initial_row(self, side: str, index: int, which: str) -> np.ndarray:
        salt = 0 if which == "h" else 1
        return initial_embedding_row(self.config.dim, self.config.seed, salt,
                                     self._node_key(side, index))

    def _initial_matrix(self, side: str, count: int, which: str, start: int = 0) -> np.ndarray:
        out = np.empty((count, self.config.dim), dtype=np.float64)
        for i in range(count):
            out[i] = self._initial_row(side, start + i, which)
        return out

    def _extend_initial(self, rows: np.ndarray, side: str, count: int, which: str) -> np.ndarray:
        """The first ``count`` initial rows of ``side``, reusing ``rows``
        (a prefix of them) and generating only the missing tail."""
        have = min(len(rows), count)
        if have == count:
            return rows[:count]
        return np.vstack([rows[:have], self._initial_matrix(side, count - have, which, start=have)])

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, graph: WeightedBipartiteGraph) -> "BiSAGE":
        """Train weight matrices on ``graph`` and build inference caches."""
        if graph.num_records == 0:
            raise ValueError("cannot fit BiSAGE on a graph with no record nodes")
        cfg = self.config
        self.graph = graph
        num_u, num_v = graph.num_records, graph.num_macs
        num_nodes = num_u + num_v

        # The cache build reuses these layer-0 rows.
        self._record_h0 = self._initial_matrix(RECORD, num_u, "h")
        self._record_l0 = self._initial_matrix(RECORD, num_u, "l")
        self._cache_hv = [self._initial_matrix(MAC, num_v, "h")]
        self._cache_lv = [self._initial_matrix(MAC, num_v, "l")]
        h0 = np.vstack([self._record_h0, self._cache_hv[0]])
        l0 = np.vstack([self._record_l0, self._cache_lv[0]])

        param_rng = as_rng(cfg.seed + 1)
        self.weights_h = [Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
                          for _ in range(cfg.num_layers)]
        self.weights_l = [Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
                          for _ in range(cfg.num_layers)]

        indptr, indices, edge_weights = global_csr(graph)
        walker = RandomWalker(graph, cfg.walk, rng=as_rng(cfg.seed + 2))
        pairs = walk_pairs(walker.corpus(), window=cfg.walk.window)
        if not pairs:
            # Degenerate graph (all nodes isolated): keep random weights.
            self._build_cache(num_v)
            return self
        pair_ids = np.asarray(
            [[self._global_id(x, num_u), self._global_id(y, num_u)] for x, y in pairs],
            dtype=np.int64,
        )
        negative_sampler = NegativeSampler(graph, power=cfg.negative_power,
                                           rng=as_rng(cfg.seed + 3))

        optimizer = Adam(self.weights_h + self.weights_l, lr=cfg.learning_rate)
        activation = _ACTIVATIONS[cfg.activation][0]
        sample_rng = as_rng(cfg.seed + 4)
        shuffle_rng = as_rng(cfg.seed + 5)
        self.loss_history = []

        aggregators = None
        step = 0
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(pair_ids))
            for start in range(0, len(order), cfg.batch_pairs):
                batch = pair_ids[order[start:start + cfg.batch_pairs]]
                if aggregators is None or step % cfg.resample_every == 0:
                    aggregators = [
                        sampled_aggregation_matrix(indptr, indices, edge_weights,
                                                   num_nodes, cfg.sample_size, sample_rng)
                        for _ in range(cfg.num_layers)
                    ]
                h_final, l_final = self._forward(h0, l0, aggregators, activation)
                loss = self._loss(h_final, l_final, batch, negative_sampler, num_u)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                self.loss_history.append(loss.item())
                step += 1

        self._build_cache(num_v)
        return self

    @staticmethod
    def _global_id(node: tuple[str, int], num_records: int) -> int:
        side, index = node
        return index if side == RECORD else num_records + index

    def _forward(self, h0: np.ndarray, l0: np.ndarray, aggregators, activation):
        """K rounds of Algorithm 1 over the whole (snapshot) graph."""
        h = Tensor(h0)
        l = Tensor(l0)
        for k, matrix in enumerate(aggregators):
            h_agg = spmm(matrix, l)            # Eq. 3 (aggregate auxiliaries)
            l_agg = spmm(matrix, h)            # Eq. 5 (aggregate primaries)
            h_new = activation(ops.concat([h, h_agg], axis=1) @ self.weights_h[k])  # Eq. 4
            l_new = activation(ops.concat([l, l_agg], axis=1) @ self.weights_l[k])  # Eq. 6
            h = ops.l2_normalize_rows(h_new)   # Eq. 7
            l = ops.l2_normalize_rows(l_new)
        return h, l

    def _loss(self, h: Tensor, l: Tensor, batch: np.ndarray,
              negative_sampler: NegativeSampler, num_records: int) -> Tensor:
        """Eq. 9 over a batch of walk pairs plus K_N negatives per pair."""
        cfg = self.config
        x_ids, y_ids = batch[:, 0], batch[:, 1]
        h_x = ops.gather_rows(h, x_ids)
        l_x = ops.gather_rows(l, x_ids)
        h_y = ops.gather_rows(h, y_ids)
        l_y = ops.gather_rows(l, y_ids)
        positive = ops.log_sigmoid(ops.row_dot(h_x, l_y)) + ops.log_sigmoid(ops.row_dot(l_x, h_y))

        z_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
        h_z = ops.gather_rows(h, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        l_z = ops.gather_rows(l, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        h_x3 = h_x.reshape(len(batch), 1, cfg.dim)
        l_x3 = l_x.reshape(len(batch), 1, cfg.dim)
        negative = (ops.log_sigmoid(-(h_x3 * l_z).sum(axis=2))
                    + ops.log_sigmoid(-(l_x3 * h_z).sum(axis=2))).sum(axis=1)
        return -(positive + negative).mean()

    # ------------------------------------------------------------------
    # Inference caches
    # ------------------------------------------------------------------
    def _build_cache(self, keep: int) -> None:
        """Recompute per-layer embeddings for every current node.

        Deterministic: uses full-neighbourhood aggregation (the sampled
        aggregator's expectation) so repeated calls agree.  Layer-0 rows
        are reused, not regenerated; only the layer being built and the
        one before it exist for every node, and of those only the first
        ``keep`` MAC rows of each layer — the aggregation universe — and
        the final record rows are kept.  Layer-0 rows of MACs past
        ``keep`` are derived for this pass only, as record rows are.
        """
        graph = self._require_fitted()
        cfg = self.config
        num_u, num_v = graph.num_records, graph.num_macs
        act = _ACTIVATIONS[cfg.activation][1]

        self._record_h0 = self._extend_initial(self._record_h0, RECORD, num_u, "h")
        self._record_l0 = self._extend_initial(self._record_l0, RECORD, num_u, "l")
        cache_hv = [self._cache_hv[0][:keep]]
        cache_lv = [self._cache_lv[0][:keep]]
        h = np.vstack([self._record_h0, self._extend_initial(cache_hv[0], MAC, num_v, "h")])
        l = np.vstack([self._record_l0, self._extend_initial(cache_lv[0], MAC, num_v, "l")])
        matrix = full_aggregation_matrix(*global_csr(graph), num_u + num_v)

        # One (N, 2d) buffer holds [own row | aggregate] for every GEMM —
        # the operand np.hstack would build, without a fresh one per
        # stream and layer.  Each stream reads the other's previous
        # layer, so the new primary layer waits in h_next until the
        # auxiliary stream has aggregated the old one.
        buf = np.empty((num_u + num_v, 2 * cfg.dim), dtype=np.float64)
        for k in range(cfg.num_layers):
            buf[:, :cfg.dim] = h
            buf[:, cfg.dim:] = matrix @ l          # Eq. 3
            h_next = _l2_rows(act(buf @ self.weights_h[k].data))   # Eq. 4 + 7
            buf[:, :cfg.dim] = l
            buf[:, cfg.dim:] = matrix @ h          # Eq. 5
            h = h_next
            l = _l2_rows(act(buf @ self.weights_l[k].data))        # Eq. 6 + 7
            cache_hv.append(h[num_u:num_u + keep].copy())
            cache_lv.append(l[num_u:num_u + keep].copy())
        del buf, matrix

        self._cache_hv, self._cache_lv = cache_hv, cache_lv
        self._record_h = h[:num_u].copy()
        # The trained MAC universe: inference aggregates only from these.
        self._macs_aggregated = keep
        self._kernel = None

    def refresh_cache(self) -> None:
        """Recompute caches against the graph's *current* contents.

        Per-layer embeddings are recomputed over the grown graph, but the
        caches keep only the trained MAC universe: MACs first seen after
        training take part in the rebuild's message passing, yet stay out
        of inference-time aggregation until a full re-provision retrains
        the weights on them.  Admitting them under weights that never saw
        those nodes collapses in/out separation after a churn shock (see
        README, "Negative results").
        """
        self._build_cache(self._macs_aggregated)

    def _require_fitted(self) -> WeightedBipartiteGraph:
        if self.graph is None:
            raise RuntimeError("BiSAGE has not been fitted; call fit(graph) first")
        return self.graph

    # ------------------------------------------------------------------
    # Public embedding queries
    # ------------------------------------------------------------------
    def record_embeddings(self) -> np.ndarray:
        """Final primary embeddings of all cached record nodes (n_U, d)."""
        self._require_fitted()
        return self._record_h

    def mac_embeddings(self) -> np.ndarray:
        """Final primary embeddings of the trained MAC universe.

        One row per MAC the weights were trained on
        (``(_macs_aggregated, d)``); MACs interned after training have
        no cached embedding.
        """
        self._require_fitted()
        return self._cache_hv[-1]

    def embed_record_node(self, index: int) -> np.ndarray:
        """Inductive embedding of record node ``index`` (Sec. IV-A).

        Runs K aggregation rounds for this single node against the cached
        per-layer MAC embeddings, leaving neighbours untouched.  All
        inference-time nodes share one fixed initial embedding (see
        ``_INFERENCE_KEY``) so the prediction is a deterministic function
        of the record's readings; per-node random initialisation would
        inject irreducible score noise into every streamed decision.
        """
        graph = self._require_fitted()
        return self.batched_inference().embed(*graph.neighbors(RECORD, index))

    def embed_readings(self, readings: dict[str, float]) -> np.ndarray | None:
        """Embed a record *without* mutating the graph.

        Only MACs already present in the graph contribute; returns None
        when no sensed MAC is known (footnote 3: such records are treated
        as outliers by the caller).
        """
        graph = self._require_fitted()
        known = [(graph.mac_index(mac), rss) for mac, rss in readings.items()
                 if graph.mac_index(mac) is not None]
        if not known:
            return None
        neighbors = np.asarray([idx for idx, _ in known], dtype=np.int64)
        weights = np.asarray([graph.edge_weight_of_rss(rss) for _, rss in known])
        return self.batched_inference().embed(neighbors, weights)

    def batched_inference(self) -> SageInferenceKernel:
        """This model's record-inference kernel (see ``nn/batch.py``).

        Captures exactly what a RECORD-side inference node reads: the
        shared ``_INFERENCE_KEY`` initial row, the primary weight stack,
        and the auxiliary MAC caches it aggregates from (Eq. 3 + Eq. 8).
        The node's auxiliary ``l`` stream is never read back into its
        primary embedding, so the kernel does not compute it.  Built on
        first use and rebuilt after every cache rebuild or load.
        """
        if self._kernel is None:
            self._require_fitted()
            self._kernel = SageInferenceKernel(
                initial=self._initial_row(RECORD, _INFERENCE_KEY, "h"),
                weights=[w.data for w in self.weights_h],
                neighbor_caches=self._cache_lv,
                act=_ACTIVATIONS[self.config.activation][1],
            )
        return self._kernel

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters (primary then auxiliary weights)."""
        return self.weights_h + self.weights_l

    def state_dict(self) -> dict:
        """Checkpointable state: config, weights and inference caches.

        The per-layer MAC caches (trained universe only) are saved
        verbatim rather than rebuilt on load, so a restored model
        reproduces inductive embeddings — and therefore geofence
        decisions — bit-for-bit, however the graph has grown since the
        last :meth:`refresh_cache`.  Record nodes contribute their
        layer-0 rows (``record_h0`` / ``record_l0``) and final primary
        rows (``record_h``).  The bound
        graph is *not* included; the owner saves it separately and
        passes it back to :meth:`load_state_dict`.
        """
        self._require_fitted()
        state: dict = {
            "config": self.config.to_dict(),
            "macs_aggregated": self._macs_aggregated,
            "loss_history": [float(x) for x in self.loss_history],
            "parameters": export_parameters(self.parameters()),
        }
        for name in ("hv", "lv"):
            layers = getattr(self, f"_cache_{name}")
            state[f"cache_{name}"] = {str(k): layer.copy() for k, layer in enumerate(layers)}
        for name in ("record_h0", "record_l0", "record_h"):
            state[name] = getattr(self, f"_{name}").copy()
        return state

    def load_state_dict(self, state: dict, graph: WeightedBipartiteGraph) -> "BiSAGE":
        """Restore a model saved by :meth:`state_dict` onto ``graph``.

        ``graph`` must be the graph the state was saved against (or a
        reconstruction of it); cache shapes are validated against it.
        States saved in the older layout, which kept every layer of the
        record caches (``cache_hu`` / ``cache_lu``), load too: their
        layer-0 and final rows are exactly the record rows kept now; so
        do states whose MAC caches carry rows past ``macs_aggregated``
        (appended for MACs interned after training, never read at
        inference) — they are sliced off.
        """
        cfg = self.config
        saved_cfg = BiSAGEConfig.from_dict(state["config"])
        if saved_cfg != cfg:
            raise ValueError("checkpoint config does not match this model's config; "
                             f"saved {saved_cfg}, constructed with {cfg}")
        self.weights_h = [Parameter(np.zeros((2 * cfg.dim, cfg.dim))) for _ in range(cfg.num_layers)]
        self.weights_l = [Parameter(np.zeros((2 * cfg.dim, cfg.dim))) for _ in range(cfg.num_layers)]
        load_parameters(self.parameters(), state["parameters"])
        self._macs_aggregated = int(state["macs_aggregated"])
        if self._macs_aggregated > graph.num_macs:
            raise ValueError(f"macs_aggregated={self._macs_aggregated} exceeds graph's {graph.num_macs} MACs")
        self._cache_hv = self._saved_layers(state, "cache_hv", self._macs_aggregated)
        self._cache_lv = self._saved_layers(state, "cache_lv", self._macs_aggregated)
        if "record_h0" in state:
            records = [np.asarray(state[name], dtype=np.float64)
                       for name in ("record_h0", "record_l0", "record_h")]
        else:
            hu = self._saved_layers(state, "cache_hu")
            records = [hu[0], self._saved_layers(state, "cache_lu")[0], hu[-1]]
        if any(rows.ndim != 2 or rows.shape != records[0].shape or rows.shape[1] != cfg.dim
               for rows in records):
            raise ValueError(f"record caches have shapes {[rows.shape for rows in records]}, "
                             f"expected matching (n, {cfg.dim})")
        self._record_h0, self._record_l0, self._record_h = records
        num_u = len(self._record_h0)
        if num_u > graph.num_records:
            raise ValueError(f"cached {num_u} record nodes but graph has only {graph.num_records}")
        self.loss_history = [float(x) for x in state.get("loss_history", [])]
        self.graph = graph
        self._kernel = None
        return self

    def _saved_layers(self, state: dict, key: str, rows: int | None = None) -> list[np.ndarray]:
        """The saved per-layer arrays under ``key``, each cut to its
        first ``rows`` rows (all of them by default)."""
        saved = state[key]
        layers = [np.asarray(saved[str(k)], dtype=np.float64) for k in range(len(saved))]
        if len(layers) != self.config.num_layers + 1:
            raise ValueError(f"{key} has {len(layers)} layers, expected {self.config.num_layers + 1}")
        for layer in layers:
            if layer.shape[1] != self.config.dim:
                raise ValueError(f"{key} dimension {layer.shape[1]} != config dim {self.config.dim}")
            if rows is not None and len(layer) < rows:
                raise ValueError(f"{key} has {len(layer)} rows, expected at least {rows}")
        if rows is None:
            return layers
        return [layer[:rows].copy() if len(layer) > rows else layer for layer in layers]


def _l2_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True) + eps)
    return x / norms
