"""Serving benchmark: paper-default GEM traffic through a two-worker Router.

Run one workload from the repository root::

    python3 perfbench/run.py --workload home_dwell --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
seed untraced and then traced, and prints the per-layer ledger.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the workload's measured input properties, the host and config
provenance and, when traced, the self-time share of every span.  See
``perfbench/README.md`` for the workloads and the layer table.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, set before numpy loads here and inherited
# by every worker: two workers on two cores, never more compute threads
# than the host has.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

import tally  # noqa: E402
from spans import Ledger, Recorder, install_router_probes  # noqa: E402
from traffic import (NUM_WORKERS, PREMISES, WORKLOADS, Traffic,  # noqa: E402
                     load_world, tenant_layout, worker_of)

from repro.core.config import GEMConfig  # noqa: E402
from repro.eval.metrics import metrics_from_pairs  # noqa: E402
from repro.serve import MaintenancePolicy, ModelRegistry, ServingRuntime  # noqa: E402
from repro.serve.cluster import (Router, SubprocessWorkerHandle,  # noqa: E402
                                 spawn_subprocess_worker)
from repro.serve.quarantine import QuarantineBuffer, home_anchor_macs  # noqa: E402

# Workers refresh every tenant on a schedule, so maintain() runs
# coordinated refresh beside the read traffic.  Refreshes are rare next
# to maintains (a few per run): maintain_ms_p50 is the pump, and the
# refresh cost shows in controller.refresh_ms_p50 and the CPU metrics.
POLICY = MaintenancePolicy(check_every=32, refresh_every=512)
# One control-plane cadence for every workload.  Maintenance comes due
# per observation, so maintain() is paced by records: after the batch
# that brings the records since the last maintain to the policy's
# check_every.  Scrapes are paced by the clock, as
# ``repro cluster --metrics-out`` paces them: MetricsDumper's default
# 5 s interval, plus one final scrape when the load stops.
MAINTAIN_RECORDS = POLICY.check_every
SCRAPE_INTERVAL_S = 5.0
REQUEST_TIMEOUT = 60.0      # per router request, seconds
RUN_DEADLINE = 170          # whole process, seconds: past it, reap and fail
WORK_DIR = ROOT / ".perfbench"


# ----------------------------------------------------------------------
# Worker launchers (both record their handles so nothing outlives a run)
# ----------------------------------------------------------------------
def production_launcher(handles: list):
    def launch(config):
        handle = spawn_subprocess_worker(config)
        handles.append(handle)
        return handle
    return launch


def traced_launcher(handles: list, span_dir: Path):
    def launch(config):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker_main.py"), str(span_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        handle = SubprocessWorkerHandle(proc)
        handles.append(handle)
        return handle
    return launch


def reap(handles: list) -> None:
    for handle in handles:
        if handle.proc.poll() is None:
            handle.proc.kill()
        handle.proc.wait(timeout=10.0)


def cpu_s(pid: int) -> float:
    """User + system CPU of a process so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Set-up: spawn, provision, fan out
# ----------------------------------------------------------------------
def provision(router: Router, world, provisioned: dict[int, str]) -> list[float]:
    """Provision every premises, the two workers in parallel; latencies."""
    by_worker: dict[int, list[tuple[int, str]]] = defaultdict(list)
    for user, tenant in provisioned.items():
        by_worker[worker_of(tenant)].append((user, tenant))

    def run(jobs):
        latencies = []
        for user, tenant in jobs:
            started = time.perf_counter()
            router.provision(tenant, world.train[user])
            latencies.append(time.perf_counter() - started)
        return latencies

    with ThreadPoolExecutor(max_workers=len(by_worker)) as pool:
        futures = [pool.submit(run, jobs) for jobs in by_worker.values()]
        return [latency for future in futures for latency in future.result()]


def fan_out(registry_root: Path, provisioned: dict[int, str],
            tenants: dict[str, int]) -> None:
    """Copy each premises' checkpoint, serve-internal metadata included,
    to its extra tenant ids."""
    registry = ModelRegistry(registry_root)
    for user, source in provisioned.items():
        copies = [t for t, u in tenants.items() if u == user and t != source]
        if not copies:
            continue
        model, manifest = registry.load_with_manifest(source)
        for tenant in copies:
            registry.save(tenant, model, metadata=manifest.get("metadata"))


# ----------------------------------------------------------------------
# One pass: set up a cluster, drive the closed loop, tear down
# ----------------------------------------------------------------------
def run_pass(workload, world, seed: int, seconds: float, pass_dir: Path,
             traced: bool) -> dict:
    pass_dir.mkdir(parents=True)
    registry = pass_dir / "registry"
    provisioned, tenants = tenant_layout(workload.ids_per_premise)
    handles: list = []
    recorder = None
    if traced:
        recorder = Recorder()
        install_router_probes(recorder)
        launcher = traced_launcher(handles, pass_dir)
    else:
        launcher = production_launcher(handles)
    router = None
    out: dict = {"sent": [], "outputs": [], "failed": 0}
    try:
        started = time.perf_counter()
        router = Router(registry, num_workers=NUM_WORKERS,
                        capacity=workload.capacity, policy=POLICY,
                        quarantine_size=workload.quarantine_size,
                        timeout=REQUEST_TIMEOUT, launcher=launcher)
        out["provision_s"] = provision(router, world, provisioned)
        fan_out(registry, provisioned, tenants)
        out["setup_s"] = time.perf_counter() - started
        if not traced:
            shutil.copytree(registry, pass_dir / "snapshot")
        workers = [worker["pid"] for worker in router.ping()]
        before = router.worker_stats()
        cpu_before = [cpu_s(pid) for pid in workers]
        _closed_loop(router, workers, workload, world, seed, seconds, out)
        # The whole worker process, frame read/write and codec included:
        # busy_seconds covers request dispatch only.
        out["worker_cpu_s"] = [cpu_s(pid) - cpu
                               for pid, cpu in zip(workers, cpu_before)]
        after = router.worker_stats()
        out["peak_rss_kb"] = sum(vm_hwm_kb(pid) for pid in [os.getpid()] + workers)
        out["loads"] = sum(b["runtime"]["totals"]["loads"]
                           - a["runtime"]["totals"]["loads"]
                           for a, b in zip(before, after))
    except BaseException:
        reap(handles)       # failed or interrupted: kill first, so close() is quick
        raise
    finally:
        if router is not None:
            router.close()
        reap(handles)
        if recorder is not None:
            recorder.restore()
    if traced:
        out["router_spans"] = recorder.snapshot()
        out["worker_spans"] = [json.loads(path.read_text())
                               for path in sorted(pass_dir.glob("spans-*.json"))]
    return out


def _closed_loop(router: Router, workers: list[int], workload, world, seed: int,
                 seconds: float, out: dict) -> None:
    """One ``observe_many`` in flight until ``seconds`` have passed."""
    traffic = Traffic(workload, world.pool_sizes(), seed)
    batch_s, maintain_s, scrape_s = [], [], []
    gen_cpu = control_cpu = 0.0

    def control(call, samples: list) -> None:
        """A maintain or scrape: its wall latency, and the CPU it cost
        the router and the workers."""
        nonlocal control_cpu
        cpu = time.process_time() + sum(cpu_s(pid) for pid in workers)
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
        control_cpu += time.process_time() + sum(cpu_s(pid) for pid in workers) - cpu

    unmaintained = 0
    cpu0 = time.process_time()
    start = scraped = time.perf_counter()
    while True:
        gen0 = time.thread_time()
        batch = traffic.next_batch()
        items = [(tenant, world.scan(premise, inside, index))
                 for tenant, premise, inside, index in batch]
        gen_cpu += time.thread_time() - gen0
        out["sent"].append(batch)
        try:
            t0 = time.perf_counter()
            out["outputs"].append(router.observe_many(items))
            batch_s.append(time.perf_counter() - t0)
            unmaintained += len(batch)
            if unmaintained >= MAINTAIN_RECORDS:
                unmaintained = 0
                control(router.maintain, maintain_s)
            last = time.perf_counter() - start >= seconds
            if last or time.perf_counter() - scraped >= SCRAPE_INTERVAL_S:
                scraped = time.perf_counter()
                control(router.metrics, scrape_s)
        except Exception:  # noqa: BLE001 - the run reports it as failed
            traceback.print_exc(file=sys.stderr)
            out["failed"] += len(batch)
            break
        if last:
            break
    out["wall_s"] = time.perf_counter() - start
    out["router_cpu_s"] = time.process_time() - cpu0 - gen_cpu
    out.update(batch_s=batch_s, maintain_s=maintain_s, scrape_s=scrape_s,
               control_cpu_s=control_cpu)


# ----------------------------------------------------------------------
# Correctness: serial in-process replay
# ----------------------------------------------------------------------
def replay(workload, world, snapshot: Path, sent: list) -> list:
    """Decisions of one serial ``ServingRuntime`` fed the same batches and
    maintain cadence, from the registry as it stood at the first observe.

    Two shards partition tenants exactly as the two workers do.  The LRU
    is sized to hold every tenant: eviction must not change a decision,
    so the replay also checks that.
    """
    _, tenants = tenant_layout(workload.ids_per_premise)
    runtime = ServingRuntime(snapshot, num_shards=NUM_WORKERS,
                             capacity=len(tenants), policy=POLICY,
                             scheduler_interval=None,
                             quarantine_size=workload.quarantine_size,
                             observability=False)
    decisions = []
    unmaintained = 0
    for batch in sent:
        decisions.append(runtime.observe_many(
            [(tenant, world.scan(premise, inside, index))
             for tenant, premise, inside, index in batch]))
        unmaintained += len(batch)
        if unmaintained >= MAINTAIN_RECORDS:
            unmaintained = 0
            runtime.maintain()
    # No close(): it would flush every tenant into a snapshot that is
    # deleted with the run directory.
    return decisions


def mismatches(outputs: list, reference: list) -> int:
    return sum(a != b for got, want in zip(outputs, reference)
               for a, b in zip(got, want))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: dict) -> tuple[dict, dict]:
    """``(gated, recorded)`` metrics of one untraced pass.

    Gated: what BENCHMARK.json bounds.  Recorded: wall-clock figures
    whose run-to-run spread on a shared two-core host is above a tenth
    (see README); their CPU counterparts are the gated ones.
    """
    records = sum(len(batch) for batch in run["outputs"])
    pairs = [(inside, decision.inside)
             for batch, decisions in zip(run["sent"], run["outputs"])
             for (_, _, inside, _), decision in zip(batch, decisions)]
    quality = metrics_from_pairs(pairs)
    cpu = run["router_cpu_s"] + sum(run["worker_cpu_s"])
    gated = {
        "setup_s": (run["setup_s"], "s"),
        "critical_path_rps": (tally.critical_path_rps(
            records, run["router_cpu_s"], run["worker_cpu_s"]), "1/s"),
        "cpu_us_per_record": (1e6 * cpu / records, "us"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "f_in": (quality.f_in, "ratio"),
        "f_out": (quality.f_out, "ratio"),
    }
    try:
        p95 = 1e3 * tally.tail(run["batch_s"], 0.95)
    except tally.ThinTail as refusal:
        p95 = f"refused: {refusal}"
    recorded = {
        "provision_s_p50": (tally.median(run["provision_s"]), "s"),
        "throughput_rps": (records / run["wall_s"], "1/s"),
        "batch_ms_p50": (1e3 * tally.median(run["batch_s"]), "ms"),
        "batch_ms_p95": (p95, "ms"),
        "maintain_ms_p50": (1e3 * tally.median(run["maintain_s"]), "ms"),
    }
    return gated, recorded


def input_properties(world, run: dict) -> dict:
    """What the traffic was, as measured: the properties layers react to."""
    anchors = {}
    for premise in PREMISES:
        buffer = QuarantineBuffer(1)
        buffer.set_home(home_anchor_macs(world.train[premise],
                                         buffer.min_anchor_fraction))
        anchors[premise] = buffer
    records = inside = confident = readings = rejected = anchored = groups = 0
    for batch, decisions in zip(run["sent"], run["outputs"]):
        groups += len({tenant for tenant, _, _, _ in batch})
        for (_, premise, is_inside, index), decision in zip(batch, decisions):
            scan = world.scan(premise, is_inside, index)
            records += 1
            inside += is_inside
            confident += decision.confident
            readings += len(scan.readings)
            if not decision.inside:
                rejected += 1
                anchored += anchors[premise].anchored(scan)
    return {
        "records": records, "batches": len(run["outputs"]),
        "tenant_groups": groups,
        "inside_share": inside / records,
        "confident_inlier_share": confident / records,
        "lru_miss_share": run["loads"] / groups,
        "anchored_rejection_share": anchored / rejected if rejected else 0.0,
        "mean_readings_per_scan": readings / records,
        "worker_busy_skew": tally.busy_skew(run["worker_cpu_s"]),
        "worker_cpu_s": run["worker_cpu_s"],
        "maintains": len(run["maintain_s"]), "scrapes": len(run["scrape_s"]),
        # Share of the CPU in cpu_us_per_record spent in maintain()
        # (refresh included) and metrics().
        "control_plane_cpu_share": run["control_cpu_s"]
            / (run["router_cpu_s"] + sum(run["worker_cpu_s"])),
    }


def per_layer(untraced: dict, traced: dict, props: dict) -> tuple[dict, dict]:
    ledger = Ledger(traced["router_spans"], traced["worker_spans"])
    records = sum(len(batch) for batch in traced["outputs"])
    groups = sum(len({tenant for tenant, _, _, _ in batch})
                 for batch in traced["sent"][:len(traced["outputs"])])

    def row(name, context="serve"):
        return ledger.row(context, name)

    def us_per_record(*names):
        return sum(row(name)["self"] for name in names) / 1e3 / records

    def p50(name, context="serve", scale=1e-6):
        durations = row(name, context)["durations"]
        return scale * tally.median(durations) if durations else 0.0

    def share(hits, total):
        return hits / total if total else 0.0

    protocol = [name for (ctx, name) in ledger.rows
                if ctx == "serve" and name.startswith("protocol.")]
    score_rows = sum(row("histogram.score")["attrs"])
    saves = row("checkpoint.save")["attrs"]
    loads = row("checkpoint.load")["count"]
    plane = row("batchplane.observe_batch")["attrs"]
    considered = row("quarantine.consider")["attrs"]
    crit_untraced = end_to_end(untraced)[0]["critical_path_rps"][0]
    crit_traced = end_to_end(traced)[0]["critical_path_rps"][0]
    metrics = {
        "histogram.update_ms_p50": (p50("histogram.update"), "ms"),
        "histogram.updates_per_krecord": (
            1e3 * row("histogram.update")["count"] / records, "count/krec"),
        "histogram.rows_per_decision": (score_rows / records, "ratio"),
        "histogram.score_us_per_row": (
            share(row("histogram.score")["self"] / 1e3, score_rows), "us"),
        "worker.busy_skew": (props["worker_busy_skew"], "ratio"),
        "protocol.codec_us_per_record": (us_per_record(*protocol), "us"),
        "protocol.bytes_per_record": (
            sum(row("protocol.json_dumps")["attrs"]) / records, "B"),
        "router.self_us_per_record": (us_per_record("router.observe_many"), "us"),
        "router.wait_share": (share(row("router.wait")["total"],
                                    row("router.observe_many")["total"]), "ratio"),
        "graph.attach_us_per_record": (us_per_record("graph.attach"), "us"),
        "nn.embed_us_per_record": (us_per_record("nn.embed"), "us"),
        "gem.self_us_per_record": (us_per_record("gem.observe_many"), "us"),
        "worker.self_us_per_record": (us_per_record("worker.request"), "us"),
        "runtime.self_us_per_record": (us_per_record("runtime.observe_many"), "us"),
        "fleet.self_us_per_record": (us_per_record("fleet.observe_many"), "us"),
        "telemetry.us_per_record": (us_per_record("telemetry"), "us"),
        "batchplane.fastpath_share": (
            share(sum(outcome == "engaged" for outcome in plane), len(plane)),
            "ratio"),
        "checkpoint.load_ms_p50": (p50("checkpoint.load"), "ms"),
        "checkpoint.save_ms_p50": (p50("checkpoint.save"), "ms"),
        "checkpoint.kb_per_save": (
            share(sum(nbytes for _, nbytes in saves) / 1024.0, len(saves)), "KiB"),
        "checkpoint.delta_share": (
            share(sum(kind == "delta" for kind, _ in saves), len(saves)), "ratio"),
        "checkpoint.loads_per_krecord": (1e3 * loads / records, "count/krec"),
        "fleet.hit_ratio": (1.0 - share(loads, groups), "ratio"),
        "quarantine.consider_us_p50": (p50("quarantine.consider", scale=1e-3), "us"),
        "quarantine.admit_share": (
            share(sum(outcome == "admitted" for outcome in considered),
                  len(considered)), "ratio"),
        "controller.refresh_ms_p50": (p50("controller.refresh", "maintain"), "ms"),
        "controller.refreshes": (row("controller.refresh", "maintain")["count"],
                                 "count"),
        "obs.scrape_ms_p50": (p50("obs.scrape", "scrape"), "ms"),
        "bisage.fit_s_p50": (p50("bisage.fit", "provision", scale=1e-9), "s"),
        "trace.overhead_share": (1.0 - crit_traced / crit_untraced, "ratio"),
        "input.inside_share": (props["inside_share"], "ratio"),
        "input.confident_inlier_share": (props["confident_inlier_share"], "ratio"),
        "input.lru_miss_share": (props["lru_miss_share"], "ratio"),
        "input.anchored_rejection_share": (props["anchored_rejection_share"],
                                           "ratio"),
        "input.mean_readings_per_scan": (props["mean_readings_per_scan"], "count"),
    }
    shares = ledger.self_shares("serve")
    layers: dict[str, float] = defaultdict(float)
    for name, value in shares.items():
        layers[name.split(".")[0]] += value
    ledger_info = {
        "dominant_span": next(iter(shares), None),
        "dominant_layer": max(layers, key=layers.get) if layers else None,
        "serve_self_share_by_span": {k: round(v, 4) for k, v in shares.items()},
        "serve_self_share_by_layer": {k: round(v, 4) for k, v in
                                      sorted(layers.items(), key=lambda kv: -kv[1])},
        "spans_outside_router_calls": ledger.unjoined,
        "traced_records": records,
    }
    return metrics, ledger_info


def provenance(workload, seed: int, seconds: float) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "seed": seed, "seconds": seconds, "workers": NUM_WORKERS,
            "workload": asdict(workload) | {
                "policy": POLICY.to_dict(), "maintain_records": MAINTAIN_RECORDS,
                "scrape_interval_s": SCRAPE_INTERVAL_S},
            "gem_config": GEMConfig().to_dict()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _named(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_deadline(signum, frame):
    raise TimeoutError(f"benchmark exceeded its {RUN_DEADLINE}s deadline")


def _on_terminate(signum, frame):
    raise SystemExit(128 + signum)      # unwind: close the router, reap, clean up


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(RUN_DEADLINE)
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    started = time.perf_counter()
    try:
        world = load_world(WORK_DIR / "cache", SRC)
        runs = [run_pass(workload, world, args.seed, args.seconds,
                         run_dir / "untraced", traced=False)]
        if args.trace:
            runs.append(run_pass(workload, world, args.seed, args.seconds,
                                 run_dir / "traced", traced=True))
        # Every pass sends a prefix of the same seeded stream: one replay
        # of the longest checks them all.
        longest = max(runs, key=lambda run: len(run["outputs"]))
        replay_started = time.perf_counter()
        reference = replay(workload, world, run_dir / "untraced" / "snapshot",
                           longest["sent"][:len(longest["outputs"])])
        attempted = sum(len(batch) for run in runs for batch in run["sent"])
        failed = sum(run["failed"] + mismatches(run["outputs"], reference)
                     for run in runs)
        replay_s = time.perf_counter() - replay_started
        props = input_properties(world, runs[0])
        info = {"workload": workload.name, "inputs": props,
                "replay_s": replay_s, "elapsed_s": time.perf_counter() - started,
                "provenance": provenance(workload, args.seed, args.seconds)}
        gated, recorded = end_to_end(runs[0])
        info["recorded"] = _named(recorded)
        if args.trace:
            metrics, info["ledger"] = per_layer(runs[0], runs[1], props)
        else:
            metrics = gated
        info["failed_ratio"] = failed / attempted
        print(json.dumps(info))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _named(metrics)}))
        return 0
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
