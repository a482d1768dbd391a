"""Span recording around the serving stack's public calls, and the ledger.

A :class:`Recorder` wraps functions in place: each call appends one span
``[name, thread, parent, start_ns, end_ns, attr]`` to an in-memory list
(parent = index of the enclosing span on the same thread, -1 for a
root).  The router process installs :func:`install_router_probes`;
traced workers install :func:`install_worker_probes` and write their
spans to a file when they exit.  Nothing inside ``repro`` changes.

Spans of the two processes are joined per request by time: timestamps
are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, one clock for
every process on the host), and with one router operation in flight
each worker request lies inside exactly one router root span — the
``observe_many``, ``maintain``, scrape or provision call that sent it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from types import SimpleNamespace

from tally import self_time


class Recorder:
    """In-memory span log plus the originals of every patched function."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr=None):
        """``fn`` recording a span per call; ``attr(args, result)`` tags it."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, local, clock = self.spans, self._local, time.perf_counter_ns

        def recorded(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name_id, threading.get_ident(), stack[-1] if stack else -1,
                    clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if attr is not None:
                span[5] = attr(args, result)
            return result

        return recorded

    def patch(self, owner, attribute: str, name: str, attr=None) -> None:
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, attr))

    def patch_json(self, protocol_module) -> None:
        """Time the wire codec's JSON calls; ``dumps`` spans carry bytes."""
        original = protocol_module.json
        shim = SimpleNamespace(
            dumps=self.wrap("protocol.json_dumps", original.dumps,
                            lambda args, out: len(out)),
            loads=self.wrap("protocol.json_loads", original.loads),
            JSONDecodeError=original.JSONDecodeError)
        self._patched.append((protocol_module, "json", original))
        protocol_module.json = shim

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"names": list(self.names), "spans": [list(s) for s in self.spans]}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)


# ----------------------------------------------------------------------
# What each process wraps
# ----------------------------------------------------------------------
def _count(args, result) -> int:
    return len(result)


def install_router_probes(recorder: Recorder) -> None:
    """Router-process spans: the client-facing calls and the wire codec."""
    from repro.serve.cluster import protocol, router
    Router = router.Router
    recorder.patch(Router, "observe_many", "router.observe_many", _count)
    recorder.patch(Router, "maintain", "router.maintain")
    recorder.patch(Router, "metrics", "obs.scrape")
    recorder.patch(Router, "provision", "router.provision")
    # The blocking wait for a worker's reply; private, but it is the only
    # place the router's idle time is visible.
    recorder.patch(Router, "_wait", "router.wait")
    recorder.patch(router, "encode_record", "protocol.encode")
    recorder.patch(router, "decode_decision", "protocol.decode")
    recorder.patch(router, "write_frame", "protocol.write_frame")
    recorder.patch_json(protocol)


def install_worker_probes(recorder: Recorder) -> None:
    """Worker-process spans, one per layer below the wire."""
    from repro.core.embedders import BiSAGEEmbedder
    from repro.core.gem import EmbeddingGeofencer
    from repro.detection.histogram import HistogramDetector
    from repro.embedding.bisage import BiSAGE
    from repro.nn.batch import SageInferenceKernel
    from repro.serve.batchplane import BatchPlane
    from repro.serve.checkpoint import last_write
    from repro.serve.cluster import protocol, worker
    from repro.serve.fleet import GeofenceFleet
    from repro.serve.quarantine import QuarantineBuffer
    from repro.serve.registry import ModelRegistry
    from repro.serve.runtime import ServingRuntime
    from repro.serve.telemetry import FleetTelemetry

    def request_op(args, result):
        return args[1].get("op")

    def save_attr(kind):
        def attr(args, result):
            stats = last_write()
            return [kind if kind else result[0],
                    stats.bytes_written if stats is not None else 0]
        return attr

    # The request boundary: decode, dispatch, encode and reply.
    recorder.patch(worker.ClusterWorker, "_serve_one", "worker.request", request_op)
    recorder.patch(worker, "decode_record", "protocol.decode")
    recorder.patch(worker, "encode_decision", "protocol.encode")
    recorder.patch(worker, "write_frame", "protocol.write_frame")
    recorder.patch_json(protocol)
    recorder.patch(ServingRuntime, "observe_many", "runtime.observe_many")
    recorder.patch(ServingRuntime, "maintain", "runtime.maintain")
    recorder.patch(GeofenceFleet, "observe_many", "fleet.observe_many")
    recorder.patch(GeofenceFleet, "refresh", "controller.refresh")
    recorder.patch(BatchPlane, "observe_batch", "batchplane.observe_batch",
                   lambda args, result: result[1])
    recorder.patch(EmbeddingGeofencer, "observe_many", "gem.observe_many")
    recorder.patch(BiSAGEEmbedder, "attach_prepared", "graph.attach")
    recorder.patch(SageInferenceKernel, "embed", "nn.embed")
    recorder.patch(HistogramDetector, "score_batch", "histogram.score",
                   lambda args, result: len(args[1]))
    recorder.patch(HistogramDetector, "update", "histogram.update")
    recorder.patch(FleetTelemetry, "record_observations", "telemetry")
    recorder.patch(FleetTelemetry, "record_observation", "telemetry")
    recorder.patch(ModelRegistry, "load_with_baseline", "checkpoint.load")
    recorder.patch(ModelRegistry, "load_with_manifest", "checkpoint.load")
    recorder.patch(ModelRegistry, "save_incremental", "checkpoint.save", save_attr(None))
    recorder.patch(ModelRegistry, "save", "checkpoint.save", save_attr("full"))
    recorder.patch(QuarantineBuffer, "consider", "quarantine.consider",
                   lambda args, result: result)
    recorder.patch(BiSAGE, "fit", "bisage.fit")


# ----------------------------------------------------------------------
# The ledger: self time per span name, per router operation
# ----------------------------------------------------------------------
# Router calls a worker request can belong to, and the context name each
# gives the spans under it.
CONTEXT = {"router.observe_many": "serve", "router.maintain": "maintain",
           "obs.scrape": "scrape", "router.provision": "provision"}
IDLE = ("router.wait",)     # blocked, not working: never a dominant layer


class Ledger:
    """Spans of all processes, each tagged with the operation it served.

    ``rows[(context, name)]`` holds ``count``, ``total`` and ``self``
    nanoseconds, per-call durations, and the span attrs.
    """

    def __init__(self, router_log: dict, worker_logs: list[dict]):
        router_spans = _decode(router_log)
        roots = sorted((s for s in router_spans
                        if s["parent"] < 0 and s["name"] in CONTEXT),
                       key=lambda s: s["start"])
        self.unjoined = 0
        self.rows: dict[tuple[str, str], dict] = defaultdict(
            lambda: {"count": 0, "total": 0, "self": 0, "durations": [],
                     "attrs": []})
        for spans in [router_spans] + [_decode(log) for log in worker_logs]:
            self._fold(spans, roots)

    def _fold(self, spans: list[dict], roots: list[dict]) -> None:
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in spans:
            if span["parent"] >= 0:
                children[span["parent"]].append((span["start"], span["end"]))
        context_of: dict[int, str] = {}
        for index, span in enumerate(spans):
            parent = span["parent"]
            if parent >= 0:
                context = context_of[parent]
            elif span["name"] in CONTEXT:
                context = CONTEXT[span["name"]]
            else:
                root = _containing(roots, span["start"], span["end"])
                context = CONTEXT[root["name"]] if root is not None else "other"
                if root is None:
                    self.unjoined += 1
            context_of[index] = context
            row = self.rows[(context, span["name"])]
            duration = span["end"] - span["start"]
            row["count"] += 1
            row["total"] += duration
            row["self"] += self_time(span["start"], span["end"],
                                     children.get(index, ()))
            row["durations"].append(duration)
            if span["attr"] is not None:
                row["attrs"].append(span["attr"])

    def row(self, context: str, name: str) -> dict:
        return self.rows.get((context, name)) or {
            "count": 0, "total": 0, "self": 0, "durations": [], "attrs": []}

    def self_shares(self, context: str = "serve") -> dict[str, float]:
        """Each span name's share of the context's working self time."""
        working = {name: row["self"] for (ctx, name), row in self.rows.items()
                   if ctx == context and name not in IDLE}
        total = sum(working.values())
        return {name: value / total for name, value in
                sorted(working.items(), key=lambda item: -item[1])} if total else {}


def _decode(log: dict) -> list[dict]:
    names = log["names"]
    return [{"name": names[s[0]], "thread": s[1], "parent": s[2],
             "start": s[3], "end": s[4], "attr": s[5]} for s in log["spans"]]


def _containing(roots: list[dict], start: int, end: int) -> dict | None:
    """The router root span whose interval holds ``[start, end]``."""
    lo, hi = 0, len(roots)
    while lo < hi:                       # last root starting at or before start
        mid = (lo + hi) // 2
        if roots[mid]["start"] <= start:
            lo = mid + 1
        else:
            hi = mid
    for candidate in reversed(roots[max(0, lo - 2):lo]):
        if candidate["end"] >= end:
            return candidate
    return None
