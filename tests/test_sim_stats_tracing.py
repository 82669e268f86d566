"""Unit tests for statistics recorders and milestone recording."""

import warnings

import pytest

from repro.obs import context as obs_context
from repro.obs import ObsContext
from repro.sim.stats import LatencyRecorder, ThroughputRecorder


def test_latency_summary_basic():
    recorder = LatencyRecorder()
    for latency in (0.1, 0.2, 0.3, 0.4):
        recorder.record_value(latency)
    summary = recorder.summary()
    assert summary.count == 4
    assert summary.mean == pytest.approx(0.25)
    assert summary.minimum == pytest.approx(0.1)
    assert summary.maximum == pytest.approx(0.4)
    assert summary.p50 == pytest.approx(0.25)
    assert summary.p99 <= summary.maximum


def test_latency_warmup_excludes_early_samples():
    recorder = LatencyRecorder(warmup=1.0)
    recorder.record(start_time=0.5, end_time=0.9)   # started during warm-up
    recorder.record(start_time=1.5, end_time=1.8)
    summary = recorder.summary()
    assert summary.count == 1
    assert summary.mean == pytest.approx(0.3)


def test_latency_empty_summary_is_zero():
    summary = LatencyRecorder().summary()
    assert summary.count == 0
    assert summary.mean == 0.0
    assert summary.p99 == 0.0


def test_latency_never_negative():
    recorder = LatencyRecorder()
    recorder.record(start_time=2.0, end_time=1.0)
    assert recorder.summary().minimum == 0.0


def test_throughput_counts_and_window():
    recorder = ThroughputRecorder(warmup=1.0)
    recorder.record_commit(0.5, count=100)  # inside warm-up: ignored
    recorder.record_commit(1.5, count=10)
    recorder.record_commit(2.5, count=20)
    assert recorder.completed == 30
    assert recorder.throughput(duration=3.0) == pytest.approx(10.0)
    assert recorder.throughput() == pytest.approx(30 / 1.0)


def test_throughput_abort_tracking():
    recorder = ThroughputRecorder()
    recorder.record_commit(1.0, count=8)
    recorder.record_abort(1.0, count=2)
    assert recorder.aborted == 2
    assert recorder.abort_rate() == pytest.approx(0.2)


def test_throughput_per_second_series():
    recorder = ThroughputRecorder()
    recorder.record_commit(0.2, count=5)
    recorder.record_commit(0.9, count=5)
    recorder.record_commit(1.1, count=3)
    assert recorder.per_second_series() == {0: 10, 1: 3}


def test_throughput_empty():
    recorder = ThroughputRecorder()
    assert recorder.throughput() == 0.0
    assert recorder.abort_rate() == 0.0


def test_tracer_records_and_filters():
    obs = ObsContext(enabled=True)
    obs.record(0.1, "pbft.committed", "node-0", seq=1)
    obs.record(0.2, "pbft.committed", "node-1", seq=1)
    obs.record(0.3, "verifier.validated", "verifier", seq=1)
    assert len(obs.events()) == 3
    assert len(obs.events("pbft.committed")) == 2
    assert len(obs.events(category="pbft.committed", actor="node-0")) == 1
    assert obs.events("verifier.validated")[-1]["details"]["seq"] == 1
    assert obs.events("missing") == []


def test_tracer_disabled_records_nothing():
    obs = ObsContext(enabled=False)
    obs.record(0.1, "anything", "actor")
    assert obs.events() == []


def test_tracer_capacity_limit(monkeypatch):
    monkeypatch.setattr(obs_context, "DEFAULT_TRACE_CAPACITY", 2)
    obs = ObsContext(enabled=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for index in range(5):
            obs.record(index, "cat", "actor")
    assert [event["time"] for event in obs.events()] == [0, 1]


def test_tracer_counts_drops_and_warns_once(monkeypatch):
    monkeypatch.setattr(obs_context, "DEFAULT_TRACE_CAPACITY", 2)
    obs = ObsContext(enabled=True)
    assert obs.trace_dropped == 0
    obs.record(0.0, "cat", "actor")
    obs.record(0.1, "cat", "actor")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        obs.record(0.2, "cat", "actor")
        obs.record(0.3, "cat", "actor")
    assert obs.trace_dropped == 2
    assert len(obs.events()) == 2  # keep-first-N semantics unchanged
    runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime_warnings) == 1  # warned exactly once, on the first drop
    assert "trace capacity" in str(runtime_warnings[0].message)
    assert obs.finalize(1.0)["trace"]["dropped"] == 2
