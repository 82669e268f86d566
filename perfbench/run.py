"""The repository benchmark: one command, every metric by name and unit.

Run from the repository root::

    python3 perfbench/run.py --workload bft-bulk --seed 1 --seconds 20 --trace 0

Each repetition of the workload runs in a fresh single-threaded process
(``perfbench/worker.py``) with the pure-Python kernel pinned.  With
``--trace 0`` the command repeats the workload, every repetition on the
same seed, until ``--seconds`` have passed (at least twice), and prints the
end-to-end metrics: host timings and memory as medians over the
repetitions, simulated metrics from the seeded run.  With ``--trace 1`` it
runs the workload once untraced and once under the profiler and prints the
per-layer metrics.  Both modes run the correctness gate; a failed check
prints ``"correct": false`` and exits 1, and a crash exits non-zero without
a result.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

#: Repetitions every untraced run makes, however short ``--seconds`` is.
MIN_REPS = 2
#: Extra processes per untraced run that only set up, so ``setup_s`` is a
#: median over several process starts.
SETUP_PROBES = 3
#: No repetition starts once this much of the run has passed (keeps a run
#: well inside three minutes even when ``--seconds`` is large).
MAX_RUN_S = 120.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "host_s_per_virtual_s": "s/s",
    "points_per_hour": "1/h",
    "peak_rss_mb": "MB",
    "sim_throughput_txn_s": "txn/s",
    "sim_latency_p50_s": "s",
    "sim_latency_p95_s": "s",
    "sim_cents_per_ktxn": "cent/ktxn",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.coalesced_share": "ratio",
    "sim.network.msgs_per_txn": "msg/txn",
    "sim.network.bytes_per_txn": "B/txn",
    "sim.network.dropped": "count",
    "sim.process.primary_busy_share": "ratio",
    "sim.process.verifier_busy_share": "ratio",
    "consensus.view_changes": "count",
    "consensus.checkpoints_sent": "count",
    "consensus.max_log_slots": "count",
    "core.client.retransmissions": "count",
    "core.executor.spawned_per_batch": "count/batch",
    "core.verifier.aborts": "count",
    "core.verifier.ignored_verify": "count",
    "workload.txns_generated": "count",
    "workload.batch_cache_hit_ratio": "ratio",
    "storage.reads_per_txn": "op/txn",
    "storage.writes_per_txn": "op/txn",
    "crypto.digests_computed": "count",
    "crypto.digest_cache_hit_ratio": "ratio",
    "crypto.verify_cache_hits": "count",
    "crypto.certificate_cache_hits": "count",
    "cloud.invocations": "count",
    "faults.unavailability_s": "s",
    "api.resolve_s": "s",
    "api.build_s": "s",
    "sweep.point_wall_p50_s": "s",
    "sweep.point_wall_p95_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "gc.retained_objects_per_point": "count/point",
    "mem.rss_growth_mb_per_point": "MB/point",
    **{f"phase.{name}_s": "s" for name in layers.PHASES},
    "perfmodel.throughput_ratio": "ratio",
    "perfmodel.latency_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "ratio",
}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(share * len(ordered)) - 1)])


class WorkerFailed(RuntimeError):
    """A repetition crashed or printed no result."""


def spawn(args: argparse.Namespace, mode: str, env: Dict[str, str]) -> Dict[str, object]:
    command = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--size", args.size,
    ]
    command += ["--spawned-at", repr(time.monotonic())]
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{mode} repetition exited {completed.returncode}:\n{completed.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def gate(args: argparse.Namespace, reps: List[Dict[str, object]], probes: List[Dict[str, object]]) -> List[str]:
    """Checks every repetition must pass, plus agreement between them."""
    problems = []
    for index, rep in enumerate(reps + probes):
        problems += [f"process {index}: {check}" for check in rep.get("checks", [])]  # type: ignore[union-attr]
        if rep["kernel_variant"] != "py":
            problems.append(f"process {index}: kernel variant {rep['kernel_variant']!r}")
        if rep["seed_in_spec"] != args.seed:
            problems.append(f"process {index}: spec seed {rep['seed_in_spec']} != {args.seed}")
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"repetitions of one seed gave {len(digests)} different result digests")
    return problems


def end_to_end(reps: List[Dict[str, object]], probes: List[Dict[str, object]]) -> Dict[str, float]:
    def median(key: str, samples: List[Dict[str, object]] = reps) -> float:
        return float(statistics.median(float(rep[key]) for rep in samples))  # type: ignore[arg-type]

    metrics = {"setup_s": median("setup_s", reps + probes)}
    for name in ("host_s_per_virtual_s", "points_per_hour", "peak_rss_mb"):
        metrics[name] = median(name)
    for name in ("sim_throughput_txn_s", "sim_latency_p50_s", "sim_latency_p95_s", "sim_cents_per_ktxn"):
        metrics[name] = float(reps[0][name])  # type: ignore[arg-type]
    return metrics


def per_layer(checked: Dict[str, object], traced: Dict[str, object]) -> Dict[str, float]:
    profile: Dict[str, float] = traced["profile"]  # type: ignore[assignment]
    point_walls: List[float] = checked["point_wall_s"]  # type: ignore[assignment]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(checked["counts"])  # type: ignore[arg-type]
    metrics.update(traced.get("phases", {}))  # type: ignore[arg-type]
    metrics.update(profile)
    attributed = sum(profile.values())
    metrics.update({
        "faults.unavailability_s": checked["faults.unavailability_s"],
        "api.resolve_s": checked["api_resolve_s"],
        "api.build_s": checked["api_build_s"],
        "sweep.point_wall_p50_s": percentile(point_walls, 0.50),
        "sweep.point_wall_p95_s": percentile(point_walls, 0.95),
        "gc.collections": checked["gc.collections"],
        "gc.pause_s": checked["gc.pause_s"],
        "gc.retained_objects_per_point": checked["gc.retained_objects_per_point"],
        "mem.rss_growth_mb_per_point": checked["mem.rss_growth_mb_per_point"],
        "trace.overhead_ratio": float(traced["region_s"]) / float(checked["region_s"]),  # type: ignore[arg-type]
        "trace.attributed_share": attributed / float(traced["region_s"]),  # type: ignore[arg-type]
    })
    return {name: float(value) for name, value in metrics.items()}  # type: ignore[arg-type]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload for the benchmark's own test")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, REPRO_KERNEL="py", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [part for part in env.get("PYTHONPATH", "").split(os.pathsep) if part]
    )

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    started = time.monotonic()
    probes: List[Dict[str, object]] = []
    try:
        if args.trace:
            reps = [spawn(args, "check", env), spawn(args, "traced", env)]
        else:
            probes = [spawn(args, "setup", env) for _ in range(SETUP_PROBES)]
            reps = []
            while len(reps) < MIN_REPS or (
                time.monotonic() - started < min(args.seconds, MAX_RUN_S)
            ):
                reps.append(spawn(args, "check" if not reps else "plain", env))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for index, rep in enumerate(reps):
        print(f"repetition {index}: kernel_variant={rep['kernel_variant']} "
              f"seed_in_spec={rep['seed_in_spec']} digest={rep['digest']} "
              f"setup_s={rep['setup_s']:.4f} run_wall_s={rep['run_wall_s']:.3f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f}")
    seeded = reps[0]
    attempted = int(seeded["committed"]) + int(seeded["aborted"])  # type: ignore[arg-type]
    print(f"transactions: attempted={attempted} committed={seeded['committed']} "
          f"aborted={seeded['aborted']} points={seeded['points']}")
    print(f"latency: samples={seeded['latency_samples']} p50_s={seeded['sim_latency_p50_s']!r} "
          f"p95_s={seeded['sim_latency_p95_s']!r} p99_s={seeded['latency_p99_s']!r}")
    print(f"result_digest: {seeded['digest']}")

    problems = gate(args, reps, probes)
    if problems:
        metrics, units = {}, {}
    elif args.trace:
        metrics, units = per_layer(reps[0], reps[1]), PER_LAYER
    else:
        metrics, units = end_to_end(reps, probes), END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
