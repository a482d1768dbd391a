"""One shard of a :class:`~repro.serve.runtime.ServingRuntime`.

A :class:`FleetShard` owns a complete, self-contained serving stack for
its slice of the tenant space: a :class:`~repro.serve.fleet.GeofenceFleet`
(its own lock, LRU budget and telemetry — observes on different shards
never contend), a :class:`~repro.serve.controller.FleetController`
executing the shard's maintenance policies, and a **decision bus**: the
data plane appends each (tenant, decision) pair to a lock-free queue
instead of stepping the controller inline, and the maintenance worker
drains the queue on its own thread.  That keeps the control plane's
bookkeeping — and any refresh it decides to run — entirely off the
observe path, while the controller itself stays single-threaded (only
the pump thread ever touches it).

The shard adds no semantics of its own: every data-plane call delegates
straight to the fleet, which is what makes a single-shard serial
runtime bit-identical to a bare :class:`GeofenceFleet`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from repro.core.protocols import GeofenceDecision, GeofenceModel
from repro.core.records import SignalRecord
from repro.pipeline import PipelineSpec
from repro.serve.controller import FleetController
from repro.serve.fleet import DEFAULT_RESERVOIR_SIZE, GeofenceFleet
from repro.serve.policy import MaintenancePolicy
from repro.serve.registry import ModelRegistry
from repro.serve.telemetry import FleetTelemetry

__all__ = ["FleetShard"]


class FleetShard:
    """A fleet + controller + decision queue, serving one tenant slice.

    Parameters mirror :class:`~repro.serve.fleet.GeofenceFleet`; the
    shard builds its own fleet so nothing is shared with sibling shards
    except the (process-safe) checkpoint registry.

    ``track_decisions`` arms the decision bus.  It defaults to on only
    when some policy could ever act (a non-no-op default policy or
    explicit per-tenant overrides) — otherwise every appended decision
    would wait for a pump that never comes.
    """

    def __init__(self, index: int, registry: ModelRegistry,
                 capacity: int = 8,
                 model_factory: Callable[[], GeofenceModel] | None = None,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 incremental: bool = True,
                 max_delta_chain: int | None = None,
                 delta_max_fraction: float | None = None,
                 policy: MaintenancePolicy | None = None,
                 policies: dict[str, MaintenancePolicy] | None = None,
                 track_decisions: bool | None = None,
                 metrics=None, tracer=None,
                 tenant_class_of: Callable[[str], str] | None = None,
                 quarantine_size: int = 0,
                 quarantine_seed: int = 0):
        knobs = {}
        if max_delta_chain is not None:
            knobs["max_delta_chain"] = max_delta_chain
        if delta_max_fraction is not None:
            knobs["delta_max_fraction"] = delta_max_fraction
        self.index = index
        # One registry is shared across shards; the shard label keeps
        # this shard's series apart, so the fleet's telemetry mirror and
        # the controller's action counters both carry it.
        telemetry = FleetTelemetry(metrics=metrics, shard=str(index),
                                   tenant_class_of=tenant_class_of) \
            if metrics is not None else None
        self.fleet = GeofenceFleet(registry, capacity=capacity,
                                   model_factory=model_factory,
                                   telemetry=telemetry,
                                   reservoir_size=reservoir_size,
                                   incremental=incremental,
                                   quarantine_size=quarantine_size,
                                   quarantine_seed=quarantine_seed,
                                   tracer=tracer, **knobs)
        self.controller = FleetController(self.fleet, policy, policies,
                                          metrics=metrics, tracer=tracer,
                                          shard=str(index))
        if track_decisions is None:
            track_decisions = (policy is not None and not policy.is_noop()) \
                or bool(policies)
        self.track_decisions = track_decisions
        # The decision bus.  collections.deque appends/poplefts are
        # atomic under the GIL, so the observe path pays one append and
        # no lock; only the pump thread removes.
        self._pending: "deque[tuple[str, GeofenceDecision]]" = deque()

    # ------------------------------------------------------------------
    # Data plane (delegation + decision bus)
    # ------------------------------------------------------------------
    def observe(self, tenant_id: str, record: SignalRecord) -> GeofenceDecision:
        decision = self.fleet.observe(tenant_id, record)
        if self.track_decisions:
            self._pending.append((tenant_id, decision))
        return decision

    def observe_many(self, items: Iterable[tuple[str, SignalRecord]]) -> list[GeofenceDecision]:
        items = list(items)
        decisions = self.fleet.observe_many(items)
        if self.track_decisions:
            for (tenant_id, _), decision in zip(items, decisions):
                self._pending.append((tenant_id, decision))
        return decisions

    def score(self, tenant_id: str, record: SignalRecord) -> float:
        return self.fleet.score(tenant_id, record)

    # ------------------------------------------------------------------
    # Lifecycle / maintenance mechanics (delegation)
    # ------------------------------------------------------------------
    def provision(self, tenant_id: str, records: Sequence[SignalRecord],
                  metadata: dict | None = None,
                  spec: PipelineSpec | None = None) -> GeofenceModel:
        return self.fleet.provision(tenant_id, records, metadata=metadata, spec=spec)

    def refresh(self, tenant_id: str) -> int:
        return self.fleet.refresh(tenant_id)

    def reprovision(self, tenant_id: str) -> GeofenceModel:
        return self.fleet.reprovision(tenant_id)

    def reprovision_from_quarantine(self, tenant_id: str,
                                    max_fpr: float | None = 0.5) -> GeofenceModel:
        return self.fleet.reprovision_from_quarantine(tenant_id, max_fpr=max_fpr)

    def evict(self, tenant_id: str) -> bool:
        return self.fleet.evict(tenant_id)

    def flush(self, tenant_id: str | None = None) -> int:
        return self.fleet.flush(tenant_id)

    def close(self) -> None:
        self.fleet.close()

    # ------------------------------------------------------------------
    # Control plane (called from the maintenance worker only)
    # ------------------------------------------------------------------
    def pump(self, max_steps: int | None = None) -> int:
        """Drain queued decisions into the controller; returns the count.

        Single-consumer: only the maintenance worker (or a serial
        caller) may pump.  The controller evaluates its policies as the
        decisions fold in, so scheduled/triggered refreshes execute
        here — on the pump thread, never on the observe path.  A
        refresh's heavy rebuild additionally drops the shard's fleet
        lock (see :meth:`GeofenceFleet.refresh`), so observes keep
        flowing even *during* maintenance.
        """
        drained = 0
        while max_steps is None or drained < max_steps:
            try:
                tenant_id, decision = self._pending.popleft()
            except IndexError:
                break
            self.controller.step(tenant_id, decision)
            drained += 1
        return drained

    def sweep(self) -> dict[str, list[str]]:
        """One controller maintain() pass (flush / idle-evict clauses)."""
        return self.controller.maintain()

    @property
    def pending_decisions(self) -> int:
        return len(self._pending)

    @property
    def resident_tenants(self) -> list[str]:
        return self.fleet.resident_tenants

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FleetShard(index={self.index}, resident="
                f"{len(self.fleet.resident_tenants)}, pending={len(self._pending)})")
