"""The one inference kernel of the SAGE embedders.

A :class:`SageInferenceKernel` embeds one inference-time record node
(Sec. IV-A) for BiSAGE and GraphSAGE alike: the constant inference-node
initial row, the per-layer weight matrices and the per-layer neighbour
caches are captured once, then every streamed record — scalar
``embed_record_node``/``embed_readings`` and the batch data plane's
``observe_many`` — runs through :meth:`SageInferenceKernel.embed`.
Each model builds its kernel lazily in ``batched_inference()`` and drops
it whenever the weights or caches are rebuilt, so a kernel never
outlives the state it captured.

Bit-identity contract
---------------------
The embedding must not depend on how records are batched — the
differential harness (``tests/test_batch_differential.py``) checks it,
and checks the kernel against a reference implementation of the
paper's per-record maths.  Two consequences shape the implementation:

* The K aggregation layers stay *per record*.  Batched dense matmuls
  are not an option: on this substrate the rows of a GEMM ``X @ W``
  differ in the last ulp from the per-row GEMV ``x @ W`` (and differ
  again across batch sizes), so one fused ``(B, 2d) @ W`` would break
  batch-size-1-vs-N identity.
* The concat buffer is a layout trick only: filling a preallocated
  ``(2d,)`` buffer with the same values ``np.concatenate`` would
  produce feeds the identical contiguous operand to the identical
  GEMV, so the result is unchanged while the per-layer allocation is
  not.  The buffer makes a kernel single-threaded: it belongs to one
  model, and a refresh snapshot builds its own.

Only the primary ``h`` stream is computed.  BiSAGE's auxiliary ``l``
stream of an inference node is never read back into its primary
embedding, so skipping it changes nothing.  Neighbours outside the
trained MAC universe — indices at or past the caches' row count — are
dropped before aggregation: the caches hold exactly the MACs the
weights were trained on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SageInferenceKernel"]


class SageInferenceKernel:
    """One record-side inference step, prepared for replay.

    Parameters
    ----------
    initial:
        The shared inference-node initial embedding row ``(d,)`` (the
        ``_INFERENCE_KEY`` row — constant across all streamed records).
    weights:
        Per-layer dense weight matrices ``(2d, d)`` (raw arrays, not
        Parameters).
    neighbor_caches:
        Per-layer neighbour cache arrays, one row per trained MAC
        (BiSAGE: the auxiliary MAC caches ``_cache_lv``; GraphSAGE:
        ``_cache_v``).  Their row count bounds the usable neighbours.
    act:
        The numpy activation function.
    """

    def __init__(self, initial: np.ndarray, weights: list[np.ndarray],
                 neighbor_caches: list[np.ndarray], act):
        self.initial = np.asarray(initial, dtype=np.float64)
        self.weights = list(weights)
        if not self.weights:
            raise ValueError("SageInferenceKernel needs at least one layer")
        self.neighbor_caches = list(neighbor_caches)
        self.act = act
        self.macs_aggregated = len(self.neighbor_caches[0])
        self._dim = self.initial.shape[0]
        self._buf = np.empty(2 * self._dim, dtype=np.float64)

    def embed(self, neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Embedding row for one record node from its ``(neighbors,
        weights)`` edges (Eq. 3/4 + Eq. 7 + Eq. 8, K layers)."""
        if len(neighbors):
            usable = neighbors < self.macs_aggregated
            neighbors, weights = neighbors[usable], weights[usable]
        if len(neighbors) == 0:
            return self.initial.copy()
        probabilities = weights / weights.sum()
        act = self.act
        caches = self.neighbor_caches
        buf = self._buf
        dim = self._dim
        z = self.initial
        for k, w in enumerate(self.weights):
            agg = probabilities @ caches[k][neighbors]
            buf[:dim] = z
            buf[dim:] = agg
            z = _l2_vec(act(buf @ w))
        return z


def _l2_vec(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    # Eq. 7 for one row.
    return x / np.sqrt((x * x).sum() + eps)
