"""`repro.serve.runtime` — the sharded serving daemon.

PR 4 left `repro.serve` a passive library: one fleet, one lock, and a
controller that only acts when the caller remembers to call it.  The
:class:`ServingRuntime` is the serving *process* the ROADMAP's
millions-of-homes deployment needs:

* **Sharding** — tenants are hash-partitioned across N
  :class:`~repro.serve.shard.FleetShard`\\ s.  Each shard owns its own
  lock, LRU slice and telemetry, so observations for tenants on
  different shards never contend; the partition is a stable function of
  the tenant id (CRC-32), so a tenant's shard — and therefore its LRU
  behaviour — is deterministic across runs and processes.
* **Background maintenance** — a
  :class:`~repro.serve.scheduler.MaintenanceScheduler` worker drains
  each shard's decision bus into its controller and executes policy
  decisions (coordinated refresh, escalation to re-provision, flush,
  idle eviction) off the observe path.  Refreshes run swap-on-commit:
  the shard lock is held for the model copy and the pointer swap, not
  for the rebuild in between.
* **Incremental checkpoints** — shards default to the delta write-back
  format (:func:`repro.serve.checkpoint.save_incremental`), cutting the
  LRU's write-back amplification: an eviction whose state only grew
  appends a tail instead of rewriting the model.

Determinism contract: ``ServingRuntime(root, num_shards=1,
scheduler_interval=None, incremental=False)`` is bit-identical to a
bare :class:`~repro.serve.fleet.GeofenceFleet` — same decisions, same
checkpoint state — and with ``incremental=True`` the *reconstructed*
state is still identical; only the on-disk layout differs.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Callable, Iterable, Sequence

from repro.core.protocols import GeofenceDecision, GeofenceModel
from repro.core.records import SignalRecord
from repro.obs.export import render_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.pipeline import PipelineSpec
from repro.serve.fleet import DEFAULT_RESERVOIR_SIZE
from repro.serve.policy import MaintenancePolicy
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MaintenanceScheduler
from repro.serve.shard import FleetShard
from repro.serve.telemetry import TenantStats

__all__ = ["ServingRuntime", "shard_index"]


def shard_index(tenant_id: str, num_shards: int) -> int:
    """Stable tenant → shard partition (CRC-32 of the id).

    Python's own ``hash()`` is salted per process; CRC-32 keeps the
    partition identical across runs, processes and machines, so a
    tenant's checkpoint is always maintained by the same shard of any
    equally-sized runtime.
    """
    return zlib.crc32(tenant_id.encode("utf-8")) % num_shards


class ServingRuntime:
    """Hash-sharded, background-maintained, multi-tenant geofence server.

    Parameters
    ----------
    registry:
        Shared checkpoint store (or a path to root one at).  Shards
        share the registry; they never share a tenant.
    num_shards:
        Fleet shards to partition tenants across.
    capacity:
        LRU budget *per shard* (each shard owns its slice outright; a
        runtime holds at most ``num_shards * capacity`` resident models).
    policy / policies:
        Default and per-tenant maintenance policies, executed by each
        shard's controller on the maintenance worker.
    scheduler_interval:
        Seconds between background maintenance ticks; ``None`` disables
        the worker entirely (serial mode — call :meth:`maintain` to pump
        by hand).
    sweep_every:
        Run controller sweeps every N ticks (see
        :class:`~repro.serve.scheduler.MaintenanceScheduler`).
    incremental:
        Use the incremental checkpoint format for write-backs
        (default on — this is the runtime's amplification fix; pass
        False for byte-layout compatibility with plain fleets).
    model_factory / reservoir_size / max_delta_chain / delta_max_fraction:
        Forwarded to each shard's :class:`GeofenceFleet`.
    quarantine_size / quarantine_seed:
        Forwarded to each shard's fleet: capacity (0 disables — the
        default, keeping existing runtimes bit-identical) and sampling
        seed of the per-tenant
        :class:`~repro.serve.quarantine.QuarantineBuffer` that collects
        admission-gated rejected evidence for starvation recovery.
    observability:
        Wire a :class:`~repro.obs.metrics.MetricsRegistry`, a
        :class:`~repro.obs.tracing.Tracer` and a
        :class:`~repro.obs.health.HealthMonitor` through every shard,
        controller and the scheduler (default on; the mirror is a few
        cached-child counter bumps per operation and never changes a
        decision).  Read back via :meth:`metrics` /
        :meth:`export_prometheus`.  Pass False for a bare runtime — the
        overhead benchmark's control arm.
    tenant_class_of:
        Optional ``tenant_id -> class label`` mapping for the
        ``tenant_class`` metric label (cardinality control; defaults to
        one ``"all"`` class).
    slow_trace_threshold / slow_trace_ring:
        Root spans at least this many seconds long enter the tracer's
        bounded ring of recent slow traces (see
        :class:`~repro.obs.tracing.Tracer`).
    """

    def __init__(self, registry: ModelRegistry | str, num_shards: int = 1,
                 capacity: int = 8,
                 model_factory: Callable[[], GeofenceModel] | None = None,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 incremental: bool = True,
                 max_delta_chain: int | None = None,
                 delta_max_fraction: float | None = None,
                 policy: MaintenancePolicy | None = None,
                 policies: dict[str, MaintenancePolicy] | None = None,
                 scheduler_interval: float | None = 0.05,
                 sweep_every: int = 20,
                 quarantine_size: int = 0,
                 quarantine_seed: int = 0,
                 observability: bool = True,
                 tenant_class_of: Callable[[str], str] | None = None,
                 slow_trace_threshold: float = 0.1,
                 slow_trace_ring: int = 64):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.registry = registry if isinstance(registry, ModelRegistry) \
            else ModelRegistry(registry)
        self.num_shards = num_shards
        if observability:
            self.metrics_registry = MetricsRegistry()
            self.tracer = Tracer(slow_threshold=slow_trace_threshold,
                                 ring_size=slow_trace_ring)
            self.health = HealthMonitor(metrics=self.metrics_registry)
            # Pull-style gauges the runtime refreshes at snapshot time.
            self._queue_gauge = self.metrics_registry.gauge(
                "repro_shard_queue_depth",
                help="Pending decisions on each shard's bus",
                labels=("shard",))
            self._pump_age_gauge = self.metrics_registry.gauge(
                "repro_scheduler_last_pump_age_seconds",
                help="Seconds since each shard's last completed pump",
                labels=("shard",))
        else:
            self.metrics_registry = None
            self.tracer = None
            self.health = None
        background = scheduler_interval is not None
        # Serial mode arms the decision bus at construction when a
        # configured policy could act (maintain() is the pump there); a
        # background runtime always starts disarmed and arms in start(),
        # so a constructed-but-never-started daemon cannot accumulate
        # decisions nothing will ever pump.  `None` lets the shard
        # derive the policy-could-act default in one place.
        track = False if background else None
        self.shards = [
            FleetShard(index, self.registry, capacity=capacity,
                       model_factory=model_factory,
                       reservoir_size=reservoir_size,
                       incremental=incremental,
                       max_delta_chain=max_delta_chain,
                       delta_max_fraction=delta_max_fraction,
                       policy=policy, policies=policies,
                       track_decisions=track,
                       metrics=self.metrics_registry, tracer=self.tracer,
                       tenant_class_of=tenant_class_of,
                       quarantine_size=quarantine_size,
                       quarantine_seed=quarantine_seed)
            for index in range(num_shards)
        ]
        self.scheduler = MaintenanceScheduler(
            self.shards, interval=scheduler_interval,
            sweep_every=sweep_every,
            metrics=self.metrics_registry) if background else None
        self._closed = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, tenant_id: str) -> FleetShard:
        """The shard that owns ``tenant_id`` (stable across runs)."""
        return self.shards[shard_index(tenant_id, self.num_shards)]

    # ------------------------------------------------------------------
    # Commit events
    # ------------------------------------------------------------------
    def on_commit(self, listener) -> Callable[[], None]:
        """Call ``listener(tenant_id, CommitInfo)`` after every committed
        checkpoint write any shard performs (provision, flush, eviction
        write-back, delta append, compaction).

        This is the replication hook: a
        :class:`~repro.serve.cluster.replicate.DeltaShipper` subscribes
        here to stream committed format-3 delta entries (and full saves)
        to a standby registry.  Shards share one registry, so one
        subscription covers the whole runtime; returns an unsubscribe
        callable.
        """
        return self.registry.subscribe(listener)

    # ------------------------------------------------------------------
    # Daemon lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingRuntime":
        """Launch background maintenance (no-op in serial mode).

        Also arms every shard's decision bus: per-tenant policies can
        arrive via a tenant spec's ``maintenance`` block, which only the
        controller can see, so a running daemon tracks everything.
        Observations served before ``start()`` are not tracked.
        """
        if self.scheduler is not None:
            for shard in self.shards:
                shard.track_decisions = True
            self.scheduler.start()
        return self

    def close(self) -> None:
        """Stop maintenance (final drain included), flush and drop all shards."""
        if self._closed:
            return
        if self.scheduler is not None and (self.scheduler.running
                                           or any(s.pending_decisions for s in self.shards)):
            self.scheduler.stop()
        for shard in self.shards:
            shard.close()
        self._closed = True

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def observe(self, tenant_id: str, record: SignalRecord) -> GeofenceDecision:
        """Algorithm-2 observation, routed to the owning shard."""
        return self.shard_for(tenant_id).observe(tenant_id, record)

    def observe_many(self, items: Iterable[tuple[str, SignalRecord]]) -> list[GeofenceDecision]:
        """Batched dispatch: split by shard, answer in input order.

        Each shard keeps its own batched grouping (one model lookup per
        tenant per batch), so a single-shard runtime is exactly
        ``GeofenceFleet.observe_many``.
        """
        items = list(items)
        by_shard: "OrderedDict[int, list[int]]" = OrderedDict()
        for position, (tenant_id, _) in enumerate(items):
            by_shard.setdefault(shard_index(tenant_id, self.num_shards),
                                []).append(position)
        decisions: list[GeofenceDecision | None] = [None] * len(items)
        for index, positions in by_shard.items():
            batch = self.shards[index].observe_many(items[p] for p in positions)
            for position, decision in zip(positions, batch):
                decisions[position] = decision
        return decisions

    def score(self, tenant_id: str, record: SignalRecord) -> float:
        return self.shard_for(tenant_id).score(tenant_id, record)

    # ------------------------------------------------------------------
    # Tenant lifecycle / maintenance mechanics
    # ------------------------------------------------------------------
    def provision(self, tenant_id: str, records: Sequence[SignalRecord],
                  metadata: dict | None = None,
                  spec: PipelineSpec | None = None) -> GeofenceModel:
        return self.shard_for(tenant_id).provision(tenant_id, records,
                                                   metadata=metadata, spec=spec)

    def refresh(self, tenant_id: str) -> int:
        return self.shard_for(tenant_id).refresh(tenant_id)

    def reprovision(self, tenant_id: str) -> GeofenceModel:
        return self.shard_for(tenant_id).reprovision(tenant_id)

    def reprovision_from_quarantine(self, tenant_id: str,
                                    max_fpr: float | None = 0.5) -> GeofenceModel:
        return self.shard_for(tenant_id).reprovision_from_quarantine(
            tenant_id, max_fpr=max_fpr)

    def evict(self, tenant_id: str) -> bool:
        return self.shard_for(tenant_id).evict(tenant_id)

    def flush(self, tenant_id: str | None = None) -> int:
        if tenant_id is not None:
            return self.shard_for(tenant_id).flush(tenant_id)
        return sum(shard.flush() for shard in self.shards)

    def is_dirty(self, tenant_id: str) -> bool:
        return self.shard_for(tenant_id).fleet.is_dirty(tenant_id)

    def reservoir(self, tenant_id: str) -> list[SignalRecord]:
        return self.shard_for(tenant_id).fleet.reservoir(tenant_id)

    def quarantine(self, tenant_id: str) -> list[SignalRecord]:
        return self.shard_for(tenant_id).fleet.quarantine(tenant_id)

    # ------------------------------------------------------------------
    # Recovery proposals (operator surface, merged across shards)
    # ------------------------------------------------------------------
    def pending_recoveries(self) -> dict[str, dict]:
        """Pending quarantine-recovery proposals across every shard's
        controller (tenants are shard-disjoint, so a plain merge)."""
        out: dict[str, dict] = {}
        for shard in self.shards:
            out.update(shard.controller.pending_recoveries())
        return out

    def approve_recovery(self, tenant_id: str) -> None:
        self.shard_for(tenant_id).controller.approve_recovery(tenant_id)

    def deny_recovery(self, tenant_id: str) -> bool:
        return self.shard_for(tenant_id).controller.deny_recovery(tenant_id)

    def maintain(self) -> int:
        """One synchronous pump + sweep over every shard (serial mode).

        With a live background scheduler this is unnecessary (and must
        not race it); it exists so a serial runtime — or a test — can
        run the exact same maintenance the daemon would, on the caller's
        thread.  Returns the number of decisions drained.
        """
        if self.scheduler is not None and self.scheduler.running:
            raise RuntimeError("maintain() would race the running background "
                               "scheduler; call it only in serial mode or "
                               "after stop()")
        drained = 0
        for shard in self.shards:
            drained += shard.pump()
            shard.sweep()
        return drained

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_tenants(self) -> list[str]:
        """Resident tenants across shards (shard-major, LRU order within)."""
        out: list[str] = []
        for shard in self.shards:
            out.extend(shard.resident_tenants)
        return out

    def telemetry_totals(self) -> TenantStats:
        """Fleet-wide counters summed across every shard."""
        total = TenantStats()
        for shard in self.shards:
            total.merge(shard.fleet.telemetry.totals())
        return total

    def telemetry_snapshot(self) -> dict:
        """Merged per-tenant/fleet counters (tenants are shard-disjoint)."""
        tenants: dict[str, dict] = {}
        retired = TenantStats()
        for shard in self.shards:
            snapshot = shard.fleet.telemetry.snapshot()
            tenants.update(snapshot["tenants"])
            retired.merge(TenantStats(**snapshot["retired"]))
        totals = TenantStats(**retired.as_dict())
        for counters in tenants.values():
            totals.merge(TenantStats(**counters))
        return {"tenants": dict(sorted(tenants.items())),
                "retired": retired.as_dict(), "totals": totals.as_dict()}

    def maintenance_actions(self) -> list[tuple[str, str]]:
        """Controller action log across shards, shard-major order."""
        out: list[tuple[str, str]] = []
        for shard in self.shards:
            out.extend(shard.controller.actions)
        return out

    def stats(self) -> dict:
        """Operational summary: shards, residency, scheduler, telemetry."""
        totals = self.telemetry_totals()
        return {
            "num_shards": self.num_shards,
            "resident": [len(shard.resident_tenants) for shard in self.shards],
            "pending_decisions": [shard.pending_decisions for shard in self.shards],
            "scheduler": self.scheduler.stats() if self.scheduler is not None else None,
            "totals": totals.as_dict(),
        }

    # ------------------------------------------------------------------
    # Observability read surfaces
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Full observability snapshot (requires ``observability=True``).

        Refreshes the pull-style gauges (per-shard queue depth,
        scheduler pump recency), evaluates every health probe, and
        returns ``{"families", "health", "traces", "scheduler"}`` —
        plain data, deterministic key order, safe to serialise with
        :func:`repro.obs.export.snapshot_to_json` or render with
        :func:`~repro.obs.export.render_prometheus`.
        """
        if self.metrics_registry is None:
            raise RuntimeError("runtime was built with observability=False; "
                               "no metrics to snapshot")
        for shard in self.shards:
            self._queue_gauge.labels(shard=str(shard.index)).set(
                shard.pending_decisions)
        if self.scheduler is not None:
            for index, age in self.scheduler.last_pump_ages().items():
                self._pump_age_gauge.labels(shard=str(index)).set(age)
        health = self.health.check(self)
        return {
            "families": self.metrics_registry.snapshot(),
            "health": {name: result.as_dict()
                       for name, result in health.items()},
            "traces": self.tracer.snapshot(),
            "scheduler": (self.scheduler.snapshot()
                          if self.scheduler is not None else None),
        }

    def health_report(self) -> dict[str, dict]:
        """Probe results alone, ``ProbeResult.as_dict()`` form.

        The JSON-safe shape the cluster ``health`` op ships: cheaper
        than :meth:`metrics` when the caller wants grades, not series.
        """
        if self.health is None:
            raise RuntimeError("runtime was built with observability=False; "
                               "no health probes to evaluate")
        return {name: result.as_dict()
                for name, result in self.health.check(self).items()}

    def export_prometheus(self) -> str:
        """Prometheus text exposition of the current metrics snapshot."""
        return render_prometheus(self.metrics())
