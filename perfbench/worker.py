"""One repetition of a benchmark workload, in a fresh single-threaded process.

``run.py`` starts this script once per repetition and reads the JSON object
it prints as its last line.  Modes:

* ``setup``  — stop once the first deployment is built (a set-up sample);
* ``plain``  — the timed run only;
* ``check``  — the timed run, then the correctness gate and the layer
  counters the program exposes (none of it inside the timed region);
* ``traced`` — the same work under the stdlib profiler with the flight
  recorder on (``RunSpec(tracer_enabled=True)``), for per-layer self times
  and virtual-time phase means.

Usage: ``python3 perfbench/worker.py --workload NAME --seed N --mode MODE
--size full|tiny --spawned-at MONOTONIC``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import json
import os
import pstats
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional

import layers
import workloads

# Pin the pure-Python kernel before anything imports repro: a stale compiled
# extension in the checkout must never change the numbers.
os.environ["REPRO_KERNEL"] = "py"

from repro import kernel  # noqa: E402
from repro.api import (  # noqa: E402
    build_deployment,
    protocol_config_from_dict,
    resolve,
    result_digest,
    run,
    workload_config_from_dict,
)
from repro.perf import PERF  # noqa: E402


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def positive_median(values: Iterable[Optional[float]]) -> float:
    """Median of the positive values (0.0 when there are none)."""
    kept = [value for value in values if value is not None and value > 0]
    return float(statistics.median(kept)) if kept else 0.0


def perf_counts(delta: Dict[str, int], events: int) -> Dict[str, float]:
    """Layer counters derived from a ``PERF.delta_since`` window."""
    batch_total = delta["batch_executions"] + delta["batch_execution_cache_hits"]
    digest_total = delta["digests_computed"] + delta["digest_cache_hits"]
    return {
        "sim.engine.coalesced_share": ratio(delta["events_coalesced"], events),
        "workload.batch_cache_hit_ratio": ratio(delta["batch_execution_cache_hits"], batch_total),
        "crypto.digests_computed": delta["digests_computed"],
        "crypto.digest_cache_hit_ratio": ratio(delta["digest_cache_hits"], digest_total),
        "crypto.verify_cache_hits": delta["verify_signature_cache_hits"],
        "crypto.certificate_cache_hits": delta["certificate_cache_hits"],
    }


def result_counts(results) -> Dict[str, float]:
    """Layer counters summed over ``SimulationResult`` objects (one per point)."""

    def total(name: str) -> float:
        return float(sum(getattr(result, name) for result in results))

    attempted = total("committed_txns") + total("aborted_txns")
    return {
        "sim.engine.events": total("events_processed"),
        "sim.network.msgs_per_txn": ratio(total("messages_sent"), attempted),
        "sim.network.bytes_per_txn": ratio(total("bytes_sent"), attempted),
        "sim.network.dropped": total("messages_dropped"),
        "consensus.view_changes": total("view_changes"),
        "consensus.checkpoints_sent": sum(
            result.extra.get("checkpoints_sent", 0.0) for result in results
        ),
        "core.client.retransmissions": total("client_retransmissions"),
        "core.verifier.aborts": total("aborted_txns"),
        "core.verifier.ignored_verify": total("verifier_ignored_verify"),
        "cloud.invocations": total("cloud_invocations"),
        "sim.engine.events_per_s": ratio(
            total("events_processed"), total("wall_clock_seconds")
        ),
    }


def phase_means(result) -> Dict[str, float]:
    """Virtual-time mean of each commit-path phase of a traced run."""
    phases = dict((result.obs or {}).get("phases", {}))
    return {f"phase.{name}_s": phases.get(name, {}).get("mean", 0.0) for name in layers.PHASES}


def sim_summary(results) -> Dict[str, float]:
    """The simulated end-to-end metrics of one point, or of a sweep's points:
    pooled throughput, and the medians of the points' latency and cost."""
    median = positive_median
    window = sum(result.duration - result.warmup for result in results)
    return {
        "sim_throughput_txn_s": sum(result.committed_txns for result in results) / window,
        "sim_latency_p50_s": median(result.latency.p50 for result in results),
        "sim_latency_p95_s": median(result.latency.p95 for result in results),
        "latency_p99_s": median(result.latency.p99 for result in results),
        "sim_cents_per_ktxn": median(result.cents_per_kilo_txn for result in results),
        "faults.unavailability_s": median(
            result.extra.get("unavailability_seconds") for result in results
        ),
        "latency_samples": sum(result.latency.count for result in results),
        "committed": sum(result.committed_txns for result in results),
        "aborted": sum(result.aborted_txns for result in results),
    }


def agreement_violations(nodes) -> List[str]:
    """Sequence numbers at which two shim replicas committed different digests."""
    seen: Dict[int, tuple] = {}
    problems = []
    for node in nodes:
        for entry in node.replica.log.committed_entries():
            first = seen.setdefault(entry.seq, (node.name, entry.digest))
            if first[1] != entry.digest:
                problems.append(
                    f"seq {entry.seq}: {first[0]} committed {first[1][:12]}, "
                    f"{node.name} committed {entry.digest[:12]}"
                )
    return problems


# ------------------------------------------------------------------ point workloads


def point_layer_counts(deployment, result, resolved) -> Dict[str, float]:
    """Counters only a live deployment exposes (not available for a sweep)."""
    from repro.perfmodel import AnalyticalModel

    duration = float(resolved["duration"])
    attempted = result.committed_txns + result.aborted_txns
    nodes = deployment.nodes
    primary = next((node for node in nodes if node.is_primary), nodes[0])
    verifier_cpu = deployment.verifier.cpu
    batches = max(node.replica.log.contiguous_committed_through() for node in nodes)
    # The workload numbers transactions "txn-<n>" from zero; the next id
    # after the run is the count generated.
    generated = int(deployment.workload.next_transaction().txn_id.rsplit("-", 1)[1])
    model = AnalyticalModel(
        protocol_config_from_dict(resolved["config"]),
        workload_config_from_dict(resolved["workload"]),
    )
    model_throughput, model_latency = model.throughput_latency()
    return {
        "sim.process.primary_busy_share": ratio(
            primary.cpu.busy_time, duration * primary.cpu.cores
        ),
        "sim.process.verifier_busy_share": ratio(
            verifier_cpu.busy_time, duration * verifier_cpu.cores
        ),
        "consensus.checkpoints_sent": sum(node.replica.checkpoints_sent for node in nodes),
        "consensus.max_log_slots": max(node.replica.log.slot_count for node in nodes),
        "core.executor.spawned_per_batch": ratio(result.spawned_executors, batches),
        "workload.txns_generated": generated,
        "storage.reads_per_txn": ratio(deployment.store.read_count, attempted),
        "storage.writes_per_txn": ratio(deployment.store.write_count, attempted),
        "perfmodel.throughput_ratio": ratio(result.throughput_txn_per_sec, model_throughput),
        "perfmodel.latency_ratio": ratio(result.latency.mean, model_latency),
    }


def run_point(workload, seed: int, mode: str, spawned_at: float) -> Dict[str, object]:
    traced = mode == "traced"
    spec = workload.spec(seed, tracer_enabled=traced)
    out: Dict[str, object] = {"seed_in_spec": spec.seed, "points": 1}
    objects_before = len(gc.get_objects()) if mode == "check" else 0
    rss_before = layers.rss_mb()
    profiler = cProfile.Profile() if traced else None
    with layers.GcWatch() as gc_watch:
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        resolved = resolve(spec)
        resolved_at = time.perf_counter()
        deployment = build_deployment(resolved, tracer_enabled=spec.tracer_enabled)
        built_at = time.perf_counter()
        out["setup_s"] = time.monotonic() - spawned_at
        if mode == "setup":
            return out
        perf_before = PERF.snapshot()
        result = deployment.run(
            duration=float(resolved["duration"]), warmup=float(resolved["warmup"])
        )
        finished = time.perf_counter()
        if profiler is not None:
            profiler.disable()
    out["peak_rss_mb"] = layers.peak_rss_mb()
    out.update(
        api_resolve_s=resolved_at - started,
        api_build_s=built_at - resolved_at,
        run_wall_s=finished - built_at,
        host_s_per_virtual_s=(finished - built_at) / float(resolved["duration"]),
        point_wall_s=[finished - started],
        region_s=finished - started,
        points_per_hour=3600.0 / (finished - started),
        digest=result_digest(result),
    )
    out.update(sim_summary([result]))

    checks: List[str] = agreement_violations(deployment.nodes)
    if result.committed_txns <= 0:
        checks.append("no transaction committed")
    if workload.last_fault_s is not None:
        extra = result.extra
        if extra.get("fault_crashes", 0) < 1 or extra.get("fault_recoveries", 0) < 1:
            checks.append(f"expected a crash and a recovery, got {extra}")
        remaining = float(resolved["duration"]) - workload.last_fault_s
        if not extra.get("time_to_recovery_seconds", remaining) < remaining:
            checks.append(
                f"time to recovery {extra.get('time_to_recovery_seconds')} is not "
                f"shorter than the {remaining:g}s left after the last fault"
            )
    out["checks"] = checks

    if mode == "check":
        counts = result_counts([result])
        counts.update(perf_counts(PERF.delta_since(perf_before), result.events_processed))
        counts.update(point_layer_counts(deployment, result, resolved))
        out["counts"] = counts
    if traced:
        out["phases"] = phase_means(result)
        out["profile"] = profile_summary(profiler)
    del deployment, result
    out.update(retention(mode, objects_before, rss_before, 1, gc_watch))
    return out


# ------------------------------------------------------------------ sweep workload


def run_sweep_workload(workload, seed: int, mode: str, spawned_at: float) -> Dict[str, object]:
    from repro.store.url import open_store
    from repro.sweep import run_sweep

    traced = mode == "traced"
    specs = workload.point_specs(seed)
    sweep = workload.sweep(seed)
    out: Dict[str, object] = {"seed_in_spec": sweep.seed, "points": len(specs)}
    scratch_root = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        store = open_store(os.path.join(scratch, "results.jsonl"))
        profiler = cProfile.Profile() if traced else None
        with layers.GcWatch() as gc_watch:
            if profiler is not None:
                profiler.enable()
            started = time.perf_counter()
            resolved = resolve(specs[0])
            resolved_at = time.perf_counter()
            build_deployment(resolved)
            built_at = time.perf_counter()
            out["setup_s"] = time.monotonic() - spawned_at
            if mode == "setup":
                return out
            objects_before = len(gc.get_objects()) if mode == "check" else 0
            rss_before = layers.rss_mb()
            perf_before = PERF.snapshot()
            sweep_started = time.perf_counter()
            report = run_sweep(sweep, workers=0, store=store)
            finished = time.perf_counter()
            if profiler is not None:
                profiler.disable()
        out["peak_rss_mb"] = layers.peak_rss_mb()
        perf_delta = PERF.delta_since(perf_before)
        # What the finished sweep leaves behind while its caller holds only
        # the report (taken before the checks below simulate anything more).
        out.update(retention(mode, objects_before, rss_before, len(specs), gc_watch))
        outcomes = report.outcomes
        out.update(
            api_resolve_s=resolved_at - started,
            api_build_s=built_at - resolved_at,
            run_wall_s=finished - sweep_started,
            host_s_per_virtual_s=(finished - sweep_started) / sum(spec.duration for spec in specs),
            point_wall_s=[outcome.wall_clock_seconds for outcome in outcomes],
            region_s=(built_at - started) + (finished - sweep_started),
            points_per_hour=3600.0 * len(specs) / (finished - sweep_started),
        )
        checks = [
            f"point {dict(outcome.point.labels)} failed: {outcome.error}"
            for outcome in outcomes
            if outcome.error is not None
        ]
        results = [outcome.result for outcome in outcomes if outcome.ok]
        out.update(sim_summary(results))

        point_digests = [result_digest(result) for result in results]
        out["digest"] = hashlib.sha256("\n".join(point_digests).encode()).hexdigest()

        if mode == "check" and not checks:
            # Read every point back through the facade: a store hit on the
            # same content address must return the result the sweep stored.
            stored_before = sum(1 for _ in store.digests())
            for spec, digest in zip(specs, point_digests):
                if result_digest(run(spec, store=store)) != digest:
                    checks.append(f"point seed {spec.seed}: facade read-back differs")
            if sum(1 for _ in store.digests()) != stored_before:
                checks.append("reading points back through repro.api.run re-simulated them")
            second = run_sweep(sweep, workers=0, store=store)
            if second.cached != len(specs):
                checks.append(
                    f"second pass over the store: {second.cached}/{len(specs)} cache hits"
                )
            for index in sorted({0, len(specs) // 3, (2 * len(specs)) // 3}):
                if result_digest(run(specs[index])) != point_digests[index]:
                    checks.append(f"re-run of point {index} does not reproduce its stored digest")
            counts = result_counts(results)
            counts.update(perf_counts(perf_delta, int(counts["sim.engine.events"])))
            out["counts"] = counts
        out["checks"] = checks
        if traced:
            out["profile"] = profile_summary(profiler)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch_root)
    return out


# ------------------------------------------------------------------ shared


def profile_summary(profiler: cProfile.Profile) -> Dict[str, float]:
    self_times = layers.layer_self_times(pstats.Stats(profiler).stats)  # type: ignore[attr-defined]
    return {f"{layer}.self_s": seconds for layer, seconds in self_times.items()}


def retention(mode: str, objects_before: int, rss_before: float, points: int, gc_watch) -> Dict[str, object]:
    """Objects and resident memory a finished run leaves behind, per point."""
    if mode != "check":
        return {}
    return {
        "gc.collections": gc_watch.collections,
        "gc.pause_s": gc_watch.pause_s,
        "gc.retained_objects_per_point": (len(gc.get_objects()) - objects_before) / points,
        "mem.rss_growth_mb_per_point": (layers.rss_mb() - rss_before) / points,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "check", "traced"), default="plain")
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    variant = kernel.active_variant()
    if variant != "py":
        print(f"kernel variant is {variant!r}, not 'py'; refusing to measure", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, args.size)
    runner = run_sweep_workload if isinstance(workload, workloads.SweepWorkload) else run_point
    out = runner(workload, args.seed, args.mode, spawned_at)
    out["kernel_variant"] = variant
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
