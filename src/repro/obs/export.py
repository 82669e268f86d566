"""Schema-versioned JSONL export of an observability payload.

A payload (the ``obs`` dict attached to a traced
:class:`~repro.core.runner.SimulationResult`) flattens to one JSONL record
per line: a header first, then metrics, per-phase summaries, spans, and
trace events.  The header carries the schema version and the explicit drop
counts of both bounded collectors (span ring buffer, event capacity), so a
reader always knows whether — and how much — the trace was truncated.

``records_to_payload`` inverts ``payload_to_records`` exactly, and
``validate_records`` checks structure without simulating anything — the
``python -m repro.obs validate`` command and the CI ``obs-smoke`` job are
thin wrappers around it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional

#: Bump when the record layout changes incompatibly.
OBS_SCHEMA_VERSION = 1

#: Every record type a JSONL export may contain.
RECORD_TYPES = ("header", "metric", "phase", "span", "event")

#: Required keys per record type (beyond ``record`` itself).
_REQUIRED_KEYS = {
    "header": ("schema", "spans", "spans_open", "spans_dropped", "events", "trace_dropped"),
    "metric": ("kind", "name"),
    "phase": ("name", "summary"),
    "span": ("name", "key", "actor", "start", "end"),
    "event": ("time", "category", "actor", "details"),
}

_SUMMARY_KEYS = ("count", "mean", "p50", "p95", "p99", "minimum", "maximum")


def payload_to_records(payload: Mapping[str, object]) -> List[Dict[str, object]]:
    """Flatten an obs payload into its JSONL record sequence (header first)."""
    metrics = payload.get("metrics", {})
    phases = payload.get("phases", {})
    spans = payload.get("spans", [])
    trace = payload.get("trace", {})
    events = trace.get("events", [])  # type: ignore[union-attr]
    records: List[Dict[str, object]] = [
        {
            "record": "header",
            "schema": payload.get("schema", OBS_SCHEMA_VERSION),
            "spans": len(spans),  # type: ignore[arg-type]
            "spans_open": payload.get("spans_open", 0),
            "spans_dropped": payload.get("spans_dropped", 0),
            "events": len(events),  # type: ignore[arg-type]
            "trace_dropped": trace.get("dropped", 0),  # type: ignore[union-attr]
        }
    ]
    for kind in ("counters", "gauges"):
        for name, value in metrics.get(kind, {}).items():  # type: ignore[union-attr]
            records.append(
                {"record": "metric", "kind": kind[:-1], "name": name, "value": value}
            )
    for name, summary in metrics.get("histograms", {}).items():  # type: ignore[union-attr]
        records.append(
            {"record": "metric", "kind": "histogram", "name": name, "summary": dict(summary)}
        )
    for name, summary in phases.items():  # type: ignore[union-attr]
        records.append({"record": "phase", "name": name, "summary": dict(summary)})
    for span in spans:  # type: ignore[union-attr]
        records.append({"record": "span", **dict(span)})
    for event in events:  # type: ignore[union-attr]
        records.append({"record": "event", **dict(event)})
    return records


def records_to_payload(records: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Rebuild the payload dict from its record sequence (exact inverse)."""
    payload: Dict[str, object] = {
        "schema": OBS_SCHEMA_VERSION,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "phases": {},
        "spans": [],
        "spans_open": 0,
        "spans_dropped": 0,
        "trace": {"events": [], "dropped": 0},
    }
    metrics: Dict[str, Dict[str, object]] = payload["metrics"]  # type: ignore[assignment]
    for record in records:
        kind = record.get("record")
        if kind == "header":
            payload["schema"] = record["schema"]
            payload["spans_open"] = record["spans_open"]
            payload["spans_dropped"] = record["spans_dropped"]
            payload["trace"]["dropped"] = record["trace_dropped"]  # type: ignore[index]
        elif kind == "metric":
            metric_kind = record["kind"]
            if metric_kind == "histogram":
                metrics["histograms"][record["name"]] = dict(record["summary"])  # type: ignore[index,arg-type,call-overload]
            else:
                metrics[f"{metric_kind}s"][record["name"]] = record["value"]  # type: ignore[index,call-overload]
        elif kind == "phase":
            payload["phases"][record["name"]] = dict(record["summary"])  # type: ignore[index,arg-type,call-overload]
        elif kind == "span":
            payload["spans"].append(  # type: ignore[union-attr]
                {key: record[key] for key in _REQUIRED_KEYS["span"]}
            )
        elif kind == "event":
            payload["trace"]["events"].append(  # type: ignore[index]
                {key: record[key] for key in _REQUIRED_KEYS["event"]}
            )
    return payload


def validate_records(records: Iterable[Mapping[str, object]]) -> List[str]:
    """Structural validation; returns human-readable problems (empty = valid)."""
    errors: List[str] = []
    header: Optional[Mapping[str, object]] = None
    counts = {"span": 0, "event": 0}
    for index, record in enumerate(records):
        kind = record.get("record")
        if kind not in RECORD_TYPES:
            errors.append(f"record {index}: unknown record type {kind!r}")
            continue
        missing = [key for key in _REQUIRED_KEYS[kind] if key not in record]
        if missing:
            errors.append(f"record {index} ({kind}): missing keys {missing}")
            continue
        if kind == "header":
            if index != 0:
                errors.append(f"record {index}: header must be the first record")
            header = record
            if record["schema"] != OBS_SCHEMA_VERSION:
                errors.append(
                    f"record {index}: schema {record['schema']!r} != "
                    f"supported {OBS_SCHEMA_VERSION}"
                )
        elif kind in counts:
            counts[kind] += 1
        if kind in ("phase", "metric") and "summary" in record:
            summary = record["summary"]
            if not isinstance(summary, Mapping) or any(
                key not in summary for key in _SUMMARY_KEYS
            ):
                errors.append(f"record {index} ({kind}): malformed summary")
    if header is None:
        errors.append("no header record")
    else:
        for key, count in (("spans", counts["span"]), ("events", counts["event"])):
            if header[key] != count:
                errors.append(
                    f"header declares {header[key]} {key}, found {count}"
                )
    return errors


def write_jsonl(payload: Mapping[str, object], path: str) -> int:
    """Write the payload's records to ``path``; returns the record count.

    Parent directories are created on demand, like the sweep result store.
    """
    records = payload_to_records(payload)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a JSONL export back into its record list."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
