"""The per-run observability context.

One :class:`ObsContext` per deployment is the only telemetry object a
component sees.  It records protocol milestones (:meth:`ObsContext.record`),
the commit-path span log, the process-global :data:`repro.perf.PERF`
counters (absorbed as a per-run snapshot/delta), and the watchdog's loose
``result.extra`` keys (mirrored as ``fault.*`` gauges).  The simulation
constructs it once and hands each component one ``obs`` handle — ``None``
when disabled, so a disabled run pays zero per-event cost beyond a single
``if self._obs is not None`` test — and collects everything into one
JSON-able payload at the end of the run.

The payload is attached to ``SimulationResult.obs``, which is a *host-side*
field: it is excluded from ``simulated_fingerprint`` exactly like
``wall_clock_seconds``, so observability on/off can never change a result
digest (the A/B suite in ``tests/test_obs.py`` enforces this across all
four systems).
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Hashable, List, Mapping, Optional

from repro.obs.export import OBS_SCHEMA_VERSION
from repro.obs.spans import SpanLog
from repro.perf import PERF
from repro.sim.stats import LatencyRecorder

#: Bound on retained milestone events per run: the first this many are
#: kept, later ones are counted (the exported header's ``trace_dropped``).
DEFAULT_TRACE_CAPACITY = 250_000

#: Span names of the commit path, in pipeline order (used by the CLI and
#: report layer to order phase columns deterministically).
COMMIT_PHASES = ("request", "consensus", "spawn", "execute", "verify", "commit")

#: Fault-path span names (present only in runs that exercised them).
FAULT_PHASES = ("view_change", "recovery")


class ObsContext:
    """Owns the milestone events, span log, and metrics of one run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans = SpanLog()
        self._events: List[Dict[str, Any]] = []
        self.trace_dropped = 0
        self._perf_baseline: Optional[Dict[str, int]] = None

    def component(self) -> Optional["ObsContext"]:
        """What components receive: ``self`` when enabled, else ``None``.

        A component guards every emission with ``if self._obs is not None``,
        so a disabled run has no per-event branch beyond that single test.
        """
        return self if self.enabled else None

    # ------------------------------------------------------------------ events

    def record(self, time: float, category: str, actor: str, **details: Any) -> None:
        """Record one protocol milestone at virtual ``time``.

        The first :data:`DEFAULT_TRACE_CAPACITY` events are kept; later ones
        are counted in :attr:`trace_dropped`, and the first drop warns once.
        """
        if not self.enabled:
            return
        if len(self._events) >= DEFAULT_TRACE_CAPACITY:
            if self.trace_dropped == 0:
                warnings.warn(
                    f"trace capacity {DEFAULT_TRACE_CAPACITY} reached; further "
                    f"events are dropped (counted in ObsContext.trace_dropped)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.trace_dropped += 1
            return
        self._events.append(
            {"time": time, "category": category, "actor": actor, "details": details}
        )

    def events(
        self, category: Optional[str] = None, actor: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Recorded events, optionally filtered by category and actor."""
        return [
            event
            for event in self._events
            if (category is None or event["category"] == category)
            and (actor is None or event["actor"] == actor)
        ]

    # ------------------------------------------------------------------ spans

    def begin_span(self, name: str, key: Hashable, time: float, actor: str) -> None:
        self.spans.begin(name, key, time, actor)

    def end_span(self, name: str, key: Hashable, time: float) -> None:
        self.spans.end(name, key, time)

    # ------------------------------------------------------------------ perf

    def on_run_start(self) -> None:
        """Snapshot the process-global PERF counters at the start of a run.

        Per-run discipline: the payload reports the *delta* over this
        baseline, so back-to-back runs (and pool workers that reuse a warm
        process) report their own work, never process-lifetime totals.
        """
        self._perf_baseline = PERF.snapshot()

    def perf_delta(self) -> Dict[str, int]:
        return PERF.delta_since(self._perf_baseline or {})

    # ------------------------------------------------------------------ collect

    def finalize(
        self, duration: float, extra: Optional[Mapping[str, float]] = None
    ) -> Dict[str, object]:
        """Assemble the run's JSON-able observability payload."""
        perf = self.perf_delta()
        counters = {f"perf.{name}": float(perf[name]) for name in sorted(perf)}
        gauges = {f"fault.{name}": float(value) for name, value in (extra or {}).items()}
        gauges["run.duration"] = float(duration)

        phases: Dict[str, Dict[str, float]] = {}
        durations = self.spans.durations_by_name()
        ordered = [name for name in COMMIT_PHASES + FAULT_PHASES if name in durations]
        ordered += sorted(name for name in durations if name not in ordered)
        for name in ordered:
            recorder = LatencyRecorder(warmup=0.0)
            for value in durations[name]:
                recorder.record_value(value)
            summary = recorder.summary()
            phases[name] = {
                "count": summary.count,
                "mean": summary.mean,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "minimum": summary.minimum,
                "maximum": summary.maximum,
            }

        return {
            "schema": OBS_SCHEMA_VERSION,
            "metrics": {
                "counters": counters,
                "gauges": dict(sorted(gauges.items())),
                "histograms": {},
            },
            "phases": phases,
            "spans": [span.to_dict() for span in self.spans.spans()],
            "spans_open": self.spans.open_count,
            "spans_dropped": self.spans.dropped,
            "trace": {"events": list(self._events), "dropped": self.trace_dropped},
        }
