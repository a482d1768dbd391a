"""The fleet's vectorized batch data plane.

``GeofenceFleet.observe_many`` used to decay into a per-record python
loop through the embedder and detector.  :class:`BatchPlane` routes a
tenant's whole batch through ``EmbeddingGeofencer.observe_many``
instead — the embedder's inference kernel, chunked detector scoring.

Eligibility and fallback
------------------------
``fastpath_reason`` names why a model cannot take the fast path:

========================  ====================================================
reason                    what falls back
========================  ====================================================
``model``                 standalone models (SignatureHome, INOA) and anything
                          without ``observe_many`` (no batch contract at all)
``embedder``              matrix embedders (autoencoder / MDS / imputed
                          matrix) — no inference kernel
``detector``              LOF / iForest / feature bagging — their dense
                          kernels are batch-size-dependent, so batch scores
                          would not be bit-identical (see the registry's
                          ``supports_batch_score`` flag)
========================  ====================================================

Fallback means exactly the old behaviour: ``model.observe`` per record.

Kernel lifetime
---------------
The plane caches nothing.  Each SAGE model owns its one inference
kernel, built on first use, and drops it whenever what the kernel reads
changes, so no batch can see a stale one:

* **refresh commit** swaps in the rebuilt embedder, whose model has its
  own kernel (a refresh snapshot never shares the live one);
* **reprovision / evict+reload** replace the whole model, kernel included;
* **load_state_dict** and every cache rebuild drop the kernel.

Newly interned MACs change nothing the kernel reads: the caches hold
the trained MAC universe only, and the kernel drops neighbours outside it.

Outcomes are counted per ``(arm, outcome)`` and mirrored to the metric
family ``repro_batch_fastpath_total{shard, arm, outcome}`` when a
:class:`~repro.obs.metrics.MetricsRegistry` is attached.
"""

from __future__ import annotations

__all__ = ["BatchPlane", "fastpath_reason", "arm_label"]


def fastpath_reason(model) -> str | None:
    """None when the fast path may engage, else the fallback reason."""
    if not hasattr(model, "observe_many") or not hasattr(model, "embedder"):
        return "model"
    embedder = model.embedder
    if not (hasattr(embedder, "supports_batch_inference")
            and embedder.supports_batch_inference()):
        return "embedder"
    detector = model.detector
    if not (hasattr(detector, "supports_batch_score")
            and detector.supports_batch_score()):
        return "detector"
    return None


def arm_label(model) -> str:
    """Low-cardinality arm label for fast-path accounting.

    Uses the stamped :class:`~repro.pipeline.spec.PipelineSpec` when the
    model was built declaratively (``gem``, ``bisage+lof``, ...), else
    the model's type name.
    """
    spec = getattr(model, "spec", None)
    if spec is not None:
        if spec.model is not None:
            return spec.model.name
        return f"{spec.embedder.name}+{spec.detector.name}"
    return type(model).__name__.lower()


class BatchPlane:
    """Per-fleet batch router with outcome counters.

    Not internally locked: the owning fleet calls :meth:`observe_batch`
    under the same lock that serialises every other mutation of the
    tenant's model, which also guards the counters.
    """

    def __init__(self, metrics=None, shard: str = "0"):
        self.counts: dict[tuple[str, str], int] = {}
        self._family = None
        self._children: dict[tuple[str, str], object] = {}
        self._shard = str(shard)
        if metrics is not None:
            self._family = metrics.counter(
                "repro_batch_fastpath_total",
                help="observe_many batches by arm and fast-path outcome",
                labels=("shard", "arm", "outcome"))

    def observe_batch(self, model, records) -> tuple[list, str]:
        """Route one tenant batch; returns ``(decisions, outcome)``.

        ``outcome`` is ``"engaged"`` or ``"fallback_<reason>"``; either
        way the decisions (and the model's post-batch state) are exactly
        what the scalar per-record loop would have produced.
        """
        reason = fastpath_reason(model)
        if reason is not None:
            outcome = f"fallback_{reason}"
            decisions = [model.observe(record) for record in records]
        else:
            outcome = "engaged"
            decisions = model.observe_many(records)
        self._count(arm_label(model), outcome)
        return decisions, outcome

    def _count(self, arm: str, outcome: str) -> None:
        key = (arm, outcome)
        self.counts[key] = self.counts.get(key, 0) + 1
        if self._family is not None:
            child = self._children.get(key)
            if child is None:
                child = self._family.labels(shard=self._shard, arm=arm,
                                            outcome=outcome)
                self._children[key] = child
            child.inc()

    def engaged_total(self) -> int:
        """Batches that took the fast path (any arm)."""
        return sum(count for (_, outcome), count in self.counts.items()
                   if outcome == "engaged")
