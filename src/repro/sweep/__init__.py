"""Parallel sweep orchestration.

The paper's evaluation is a family of parameter sweeps; this package turns
them into declarative, cacheable, multi-core experiment runs:

* :mod:`repro.sweep.spec` — :class:`GridSpec` / :class:`PointSpec` /
  :class:`SweepSpec` describe a sweep declaratively; each point resolves to
  a content-addressed spec (SHA-256 of the fully resolved configuration).
* :mod:`repro.sweep.runner` — :func:`run_sweep` executes points in-process
  or across CPU cores with bit-identical simulated results either way.
* :mod:`repro.store` — the result warehouse: backends keyed by point
  digest (append-only JSONL, indexed sqlite, per-worker shards with a
  deterministic merge) behind one :class:`~repro.store.ResultBackend`
  protocol, so re-runs skip simulated points and interrupted sweeps
  resume no matter which backend holds the records.
* :mod:`repro.sweep.scenarios` — named fault/workload presets (region
  outage, partitions, byzantine executors, skewed YCSB, ...).
* :mod:`repro.sweep.presets` — named sweeps (``fig6-executors``, ...) for
  the CLI: ``python -m repro.sweep run fig6-executors --workers 4``.
"""

from repro.sweep.presets import build_sweep, register_sweep, sweep_names
from repro.sweep.runner import (
    DEFAULT_METRICS,
    PointOutcome,
    SweepReport,
    build_simulation,
    run_sweep,
    simulate_resolved_point,
)
from repro.sweep.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.sweep.serialization import (
    result_from_dict,
    result_to_dict,
    simulated_fingerprint,
)
from repro.sweep.spec import (
    GridSpec,
    PointSpec,
    SweepSpec,
    apply_overrides,
    expand_replicates,
    point_digest,
    resolve_point,
    sweep_from_dict,
    sweep_from_grid,
    with_replicates,
)

__all__ = [
    "DEFAULT_METRICS",
    "GridSpec",
    "PointOutcome",
    "PointSpec",
    "Scenario",
    "SweepReport",
    "SweepSpec",
    "all_scenarios",
    "apply_overrides",
    "build_simulation",
    "build_sweep",
    "expand_replicates",
    "get_scenario",
    "point_digest",
    "register_scenario",
    "register_sweep",
    "resolve_point",
    "result_from_dict",
    "result_to_dict",
    "run_sweep",
    "scenario_names",
    "simulate_resolved_point",
    "simulated_fingerprint",
    "sweep_from_dict",
    "sweep_from_grid",
    "sweep_names",
    "with_replicates",
]
