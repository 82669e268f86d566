"""Experiment harness utilities: running points and formatting tables."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.runner import SimulationResult
from repro.workload.ycsb import YCSBConfig


class DuplicateSeriesKeyWarning(UserWarning):
    """Two table rows mapped to the same series key: data is being dropped.

    Almost always means the ``series()`` filters are too loose (e.g. a
    missing ``system=...`` filter on a multi-system table), so the series
    silently kept only the last row per key.
    """


@dataclass
class ExperimentTable:
    """Rows of one experiment, in the same shape as the paper's plot series."""

    name: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def series(
        self,
        key_column: str,
        value_column: str,
        strict: bool = False,
        **filters: object,
    ) -> Dict[object, object]:
        """Return a ``{key: value}`` series optionally filtered by other columns.

        A duplicate key among the filtered rows means the filters do not
        uniquely identify one row per key and the series would silently drop
        data: a :class:`DuplicateSeriesKeyWarning` is emitted (the last row
        still wins, as before), or :class:`ValueError` raised with
        ``strict=True``.
        """
        selected: Dict[object, object] = {}
        for row in self.rows:
            if all(row.get(column) == expected for column, expected in filters.items()):
                key = row.get(key_column)
                if key in selected:
                    message = (
                        f"table {self.name!r}: duplicate series key {key!r} for "
                        f"key_column={key_column!r} with filters {filters!r} — "
                        f"value {selected[key]!r} overwritten by "
                        f"{row.get(value_column)!r}"
                    )
                    if strict:
                        raise ValueError(message)
                    warnings.warn(message, DuplicateSeriesKeyWarning, stacklevel=2)
                selected[key] = row.get(value_column)
        return selected

    def __len__(self) -> int:
        return len(self.rows)


def format_table(table: ExperimentTable, float_format: str = "{:,.1f}") -> str:
    """Render an experiment table as aligned text (printed by the benches)."""
    columns = list(table.columns)
    rendered_rows = []
    for row in table.rows:
        rendered = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [
        max(len(column), *(len(rendered[i]) for rendered in rendered_rows)) if rendered_rows else len(column)
        for i, column in enumerate(columns)
    ]
    lines = [
        f"== {table.name} ==",
        "  ".join(column.ljust(width) for column, width in zip(columns, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for rendered in rendered_rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(rendered, widths)))
    return "\n".join(lines)


def simulate_point(
    config: ProtocolConfig,
    workload: Optional[YCSBConfig] = None,
    consensus_engine: str = "pbft",
    duration: float = 3.0,
    warmup: float = 0.5,
    report_perf: bool = True,
    system: str = "serverless_bft",
    **runner_kwargs,
) -> SimulationResult:
    """Run one message-level simulation point (used by the measured benches).

    The deployment is built through the ``repro.api`` system registry, so
    ``system`` may name any registered variant (capability validation
    included).  Each point also reports its host-side cost (wall-clock
    seconds and kernel events per second) so the BENCH_*.json files capture
    the simulator's performance trajectory alongside the simulated metrics.
    """
    from repro.api.facade import build_system  # bench sits above the facade
    from repro.perf import PERF

    simulation = build_system(
        system,
        config,
        workload,
        consensus_engine=consensus_engine,
        tracer_enabled=False,
        **runner_kwargs,
    )
    # Snapshot/delta discipline instead of PERF.reset(): the point's own
    # counter activity is reported without clobbering whatever the process
    # accumulated before (back-to-back points each see only their own work).
    perf_baseline = PERF.snapshot()
    try:
        result = simulation.run(duration=duration, warmup=warmup)
    finally:
        simulation.close()
    if report_perf:
        delta = PERF.delta_since(perf_baseline)
        fast = delta.get("events_scheduled_fast", 0)
        print(
            f"[perf] simulate_point: wall_clock={result.wall_clock_seconds:.3f}s "
            f"events={result.events_processed:,} "
            f"events/sec={result.events_per_second:,.0f} "
            f"fast_scheduled={fast:,}"
        )
    return result
