"""Replicate-aware aggregation of result-store records.

The statistics layer under ``python -m repro.report``: load a
:class:`~repro.store.ResultBackend`, group its records into *series
points* — one per (sweep, system, scenario, labels-minus-``replicate``)
combination — and summarise each group across its replicate seeds.

Aggregation is deliberately conservative about what it claims:

* Plain scalar metrics (throughput, committed/aborted counts) report the
  across-seed mean and *sample* standard deviation — the error bar the
  paper's repeated-run figures carry.
* The latency **mean** is pooled exactly: per-seed means are combined
  weighted by their sample counts, which equals the mean over the union of
  all raw samples.
* Latency **percentiles are never averaged.**  The mean of per-seed p99s is
  not the p99 of the pooled distribution (it systematically understates
  tail behaviour whenever seeds disagree), and the store only holds per-seed
  summaries, so an exact pooled p99 is not computable.  Instead each
  percentile reports its across-seed *spread* — the min..max envelope of
  the per-seed values — which is honest about what the data supports.
  :func:`pooled_percentile` exists for callers that do hold raw samples,
  and the unit tests use it to document why averaging is wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: The label that groups a replicate family back together (and therefore
#: never appears as a table axis).
REPLICATE_LABEL = "replicate"

#: Scalar result-dict metrics aggregated for every series point:
#: ``(column name, result-dict key)``.
DEFAULT_SCALAR_METRICS: Tuple[Tuple[str, str], ...] = (
    ("throughput_txn_s", "throughput_txn_per_sec"),
    ("committed", "committed_txns"),
    ("aborted", "aborted_txns"),
)

#: Recovery metrics recorded by the fault-timeline watchdog, aggregated
#: only when *every* replicate of a series point carries them (fields are
#: dotted paths into the result dict, e.g. ``extra.unavailability_seconds``).
#: Fault-free stores have no ``extra`` recovery keys, so these columns never
#: appear for them and their renders stay byte-identical.
RECOVERY_SCALAR_METRICS: Tuple[Tuple[str, str], ...] = (
    ("unavailability_s", "extra.unavailability_seconds"),
    ("recovery_ttr_s", "extra.time_to_recovery_seconds"),
    ("view_changes", "view_changes"),
    ("checkpoints", "extra.checkpoints_sent"),
)

#: Commit-path phase breakdown, present only for traced runs (the flight
#: recorder's ``obs.phases`` payload).  Same presence discipline as the
#: recovery columns: untraced stores never grow these columns, so their
#: renders stay byte-identical.
OBS_SCALAR_METRICS: Tuple[Tuple[str, str], ...] = (
    ("consensus_mean_s", "obs.phases.consensus.mean"),
    ("spawn_mean_s", "obs.phases.spawn.mean"),
    ("execute_mean_s", "obs.phases.execute.mean"),
    ("verify_mean_s", "obs.phases.verify.mean"),
    ("commit_mean_s", "obs.phases.commit.mean"),
)


def resolve_result_field(result: Mapping[str, object], field: str):
    """Walk a dotted ``field`` path into a result dict; None when absent.

    ``"extra.unavailability_seconds"`` resolves ``result["extra"][
    "unavailability_seconds"]``; a missing segment (or a non-mapping in the
    middle of the path) yields None rather than raising, so optional
    metrics can be probed record by record.
    """
    value: object = result
    for part in field.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    return value

#: Percentile fields of a latency summary, in rendering order.
PERCENTILE_FIELDS: Tuple[str, ...] = ("p50", "p95", "p99")


# ------------------------------------------------------------------ statistics


@dataclass(frozen=True)
class MetricStats:
    """Across-seed summary of one scalar metric."""

    n: int
    mean: float
    std: float  # sample std (ddof=1); 0.0 for a single seed
    minimum: float
    maximum: float


def metric_stats(values: Sequence[float]) -> MetricStats:
    """Mean ± sample standard deviation (and range) of per-seed values."""
    if not values:
        raise ValueError("metric_stats needs at least one value")
    count = len(values)
    mean = sum(values) / count
    if count > 1:
        variance = sum((value - mean) ** 2 for value in values) / (count - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return MetricStats(
        n=count, mean=mean, std=std, minimum=min(values), maximum=max(values)
    )


@dataclass(frozen=True)
class PercentileSpread:
    """The across-seed envelope of one latency percentile.

    ``low``/``high`` are the smallest and largest per-seed values — never an
    average, see the module docstring.
    """

    name: str
    low: float
    high: float


@dataclass(frozen=True)
class LatencyStats:
    """Across-seed summary of the latency distributions of one series point."""

    seeds: int
    samples: int  # pooled sample count over all seeds
    mean: float  # exact pooled mean (count-weighted)
    mean_std: float  # sample std of the per-seed means
    spreads: Tuple[PercentileSpread, ...]
    minimum: float  # exact pooled minimum
    maximum: float  # exact pooled maximum


def pooled_mean(counts: Sequence[int], means: Sequence[float]) -> float:
    """The mean of the union of samples, from per-seed (count, mean) pairs."""
    total = sum(counts)
    if total == 0:
        return 0.0
    return sum(count * mean for count, mean in zip(counts, means)) / total


def pooled_percentile(
    samples_by_seed: Sequence[Sequence[float]], fraction: float
) -> float:
    """Percentile of the union of raw per-seed samples.

    This — not the mean of per-seed percentiles — is the statistic the
    paper's latency figures need; it is only computable when raw samples
    are available.  The interpolation matches
    :func:`repro.sim.stats._percentile`, so pooling one seed's samples
    reproduces that seed's stored summary exactly.
    """
    from repro.sim.stats import _percentile

    pooled = sorted(value for seed in samples_by_seed for value in seed)
    return _percentile(pooled, fraction)


def latency_stats(summaries: Sequence[Mapping[str, float]]) -> LatencyStats:
    """Summarise per-seed latency-summary dicts across seeds."""
    if not summaries:
        raise ValueError("latency_stats needs at least one summary")
    counts = [int(summary["count"]) for summary in summaries]
    means = [float(summary["mean"]) for summary in summaries]
    spreads = tuple(
        PercentileSpread(
            name=field,
            low=min(float(summary[field]) for summary in summaries),
            high=max(float(summary[field]) for summary in summaries),
        )
        for field in PERCENTILE_FIELDS
    )
    return LatencyStats(
        seeds=len(summaries),
        samples=sum(counts),
        mean=pooled_mean(counts, means),
        mean_std=metric_stats(means).std,
        spreads=spreads,
        minimum=min(float(summary["minimum"]) for summary in summaries),
        maximum=max(float(summary["maximum"]) for summary in summaries),
    )


# ------------------------------------------------------------------ grouping


@dataclass(frozen=True)
class SeriesPoint:
    """One aggregated point of a sweep: all replicates of one configuration."""

    sweep: str
    system: str
    scenario: str
    labels: Tuple[Tuple[str, object], ...]  # replicate label excluded
    replicates: int
    metrics: Mapping[str, MetricStats]
    latency: LatencyStats
    digests: Tuple[str, ...]  # one per replicate, replicate order

    def label(self, key: str, default=None):
        for name, value in self.labels:
            if name == key:
                return value
        return default


def _config_fingerprint(point: Mapping[str, object]) -> str:
    """What identifies a replicate *family*: the resolved spec minus seeds.

    Replicates of one configuration differ only in their materialised
    seeds (and the ``replicate`` label); any other resolved difference —
    a ``--set`` override, a different batch size, an ad-hoc facade run
    with other knobs — means a different experiment that must never be
    pooled into the same mean ± std row.
    """
    slim = {key: value for key, value in dict(point).items() if key != "labels"}
    for layer in ("config", "workload"):
        trimmed = dict(slim.get(layer, {}))  # type: ignore[arg-type]
        trimmed.pop("seed", None)
        slim[layer] = trimmed
    return json.dumps(slim, sort_keys=True, default=repr)


def _series_key(record: Mapping[str, object]) -> Tuple:
    point = record.get("point", {})
    labels = {
        key: value
        for key, value in dict(record.get("labels", {})).items()
        if key != REPLICATE_LABEL
    }
    return (
        str(record.get("sweep", "")),
        str(point.get("system", "")),
        str(point.get("scenario", "")),
        json.dumps(labels, sort_keys=True, default=repr),
        _config_fingerprint(point),
    )


def _replicate_order(record: Mapping[str, object]) -> Tuple:
    index = dict(record.get("labels", {})).get(REPLICATE_LABEL)
    # Single-run groups have no replicate label; sort them stably by digest.
    return (0, int(index)) if isinstance(index, int) else (1, str(record.get("digest")))


def _natural_value(value: object) -> Tuple:
    """A mixed-type-safe sort key: numbers numerically, the rest as strings."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _group_order(key: Tuple) -> Tuple:
    sweep, system, scenario, labels_json, fingerprint = key
    labels = json.loads(labels_json)
    label_key = tuple(
        (name, _natural_value(labels[name])) for name in sorted(labels)
    )
    return (sweep, label_key, system, scenario, fingerprint)


def aggregate_records(
    records: Iterable[Mapping[str, object]],
    scalar_metrics: Sequence[Tuple[str, str]] = DEFAULT_SCALAR_METRICS,
) -> List[SeriesPoint]:
    """Group store records into replicate families and summarise each.

    Records are grouped by (sweep, system, scenario, labels minus the
    ``replicate`` label, resolved spec minus seeds) — the last component is
    what stops two *differently configured* runs that happen to share
    labels (two ad-hoc facade runs, a sweep re-run with other ``--set``
    overrides) from being pooled into one bogus replicate family.  Each
    group aggregates across its members — the replicate seeds.  The output order is deterministic and *content*-based
    (sweep name, then naturally-sorted label values): parallel sweeps
    append to the store in completion order, so sorting by content — not
    file order — is what makes renders of the same results byte-identical
    no matter how the store was produced.
    """
    groups: Dict[Tuple, List[Mapping[str, object]]] = {}
    for record in records:
        groups.setdefault(_series_key(record), []).append(record)

    points: List[SeriesPoint] = []
    for key in sorted(groups, key=_group_order):
        members = sorted(groups[key], key=_replicate_order)
        sweep, system, scenario, labels_json, _fingerprint = key
        results = [member["result"] for member in members]
        metrics = {
            column: metric_stats([float(result[field]) for result in results])
            for column, field in scalar_metrics
        }
        # Recovery metrics ride along only for fault-timeline runs: the
        # watchdog's unavailability counter marks such records, and a group
        # only gets a column when every replicate can supply a value.
        if all(
            resolve_result_field(result, "extra.unavailability_seconds") is not None
            for result in results
        ):
            for column, field in RECOVERY_SCALAR_METRICS:
                values = [resolve_result_field(result, field) for result in results]
                if column not in metrics and all(
                    value is not None for value in values
                ):
                    metrics[column] = metric_stats(
                        [float(value) for value in values]  # type: ignore[arg-type]
                    )
        # Phase-breakdown columns ride along only for traced runs, and only
        # when every replicate of the group carries the phase (a group mixing
        # traced and untraced replicates stays phase-free).
        if all(
            resolve_result_field(result, "obs.phases") is not None
            for result in results
        ):
            for column, field in OBS_SCALAR_METRICS:
                values = [resolve_result_field(result, field) for result in results]
                if column not in metrics and all(
                    value is not None for value in values
                ):
                    metrics[column] = metric_stats(
                        [float(value) for value in values]  # type: ignore[arg-type]
                    )
        points.append(
            SeriesPoint(
                sweep=sweep,
                system=system,
                scenario=scenario,
                labels=tuple(json.loads(labels_json).items()),
                replicates=len(members),
                metrics=metrics,
                latency=latency_stats([result["latency"] for result in results]),
                digests=tuple(str(member["digest"]) for member in members),
            )
        )
    return points


def load_store_points(
    store,
    sweeps: Optional[Sequence[str]] = None,
    scalar_metrics: Sequence[Tuple[str, str]] = DEFAULT_SCALAR_METRICS,
) -> Dict[str, List[SeriesPoint]]:
    """Aggregate a result store by sweep name.

    ``store`` is any :class:`repro.store.ResultBackend` (JSONL, sqlite, or
    sharded — the sweep-name filter is pushed down to the backend, which
    an indexed backend answers without scanning every record), or any
    duck-typed object exposing ``digests()``/``get()``.  ``sweeps``
    optionally filters to the named sweeps.  Purely a read of the store —
    nothing here can trigger a simulation, and the aggregation is a pure
    function of the record set, so every backend holding the same records
    renders byte-identical output.
    """
    wanted = sorted(set(sweeps)) if sweeps else None
    if hasattr(store, "iter_records"):
        records = list(store.iter_records(sweeps=wanted))
    else:
        wanted_set = set(wanted) if wanted else None
        records = [
            record
            for record in (store.get(digest) for digest in store.digests())
            if wanted_set is None or record.get("sweep") in wanted_set
        ]
    grouped: Dict[str, List[SeriesPoint]] = {}
    for point in aggregate_records(records, scalar_metrics):
        grouped.setdefault(point.sweep, []).append(point)
    return dict(sorted(grouped.items()))
