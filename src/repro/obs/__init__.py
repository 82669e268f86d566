"""repro.obs — the unified per-run observability layer (flight recorder).

One :class:`~repro.obs.context.ObsContext` per run is the single
telemetry handle every component holds: it records protocol milestones,
owns the commit-path span log (:class:`~repro.obs.spans.SpanLog`), and
absorbs the per-run ``PERF`` delta; the runner collects them into a
digest-neutral JSON payload on ``SimulationResult.obs`` that survives pool
workers and the result store, exports to schema-versioned JSONL
(:mod:`repro.obs.export`), and renders through ``python -m repro.obs``
(:mod:`repro.obs.cli`).
"""

from repro.obs.context import (
    COMMIT_PHASES,
    DEFAULT_TRACE_CAPACITY,
    FAULT_PHASES,
    ObsContext,
)
from repro.obs.export import (
    OBS_SCHEMA_VERSION,
    payload_to_records,
    read_jsonl,
    records_to_payload,
    validate_records,
    write_jsonl,
)
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, Span, SpanLog

__all__ = [
    "COMMIT_PHASES",
    "DEFAULT_SPAN_CAPACITY",
    "DEFAULT_TRACE_CAPACITY",
    "FAULT_PHASES",
    "OBS_SCHEMA_VERSION",
    "ObsContext",
    "Span",
    "SpanLog",
    "payload_to_records",
    "read_jsonl",
    "records_to_payload",
    "validate_records",
    "write_jsonl",
]
