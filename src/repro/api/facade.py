"""The front door: ``run(RunSpec) -> SimulationResult``.

Everything user-facing funnels through here — examples, benches, the sweep
runner, and the CLI all resolve a spec to a plain-JSON dict
(:func:`resolve`), build the deployment through the system registry
(:func:`build_deployment`), and run it.  One resolution path, one
capability-validation path, one construction path: a point simulated by
``repro.api.run`` is bit-identical to the same point simulated by a sweep
worker on another core.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.api.registry import get_system
from repro.api.spec import (
    RunSpec,
    compose_runner_kwargs,
    merge_runner_knob,
    replicate_specs,
    resolve_run,
    split_overrides,
)
from repro.core.config import ConflictMode, ProtocolConfig, SpawnPolicyName
from repro.core.runner import SimulationResult
from repro.crypto.costs import CryptoCostModel
from repro.errors import ConfigurationError
from repro.workload.ycsb import YCSBConfig


# ------------------------------------------------------------------ config rebuilding


def protocol_config_from_dict(payload: Mapping[str, object]) -> ProtocolConfig:
    """Rebuild a :class:`ProtocolConfig` from its JSONified ``asdict`` form."""
    data = dict(payload)
    data["spawn_policy"] = SpawnPolicyName(data["spawn_policy"])
    data["conflict_mode"] = ConflictMode(data["conflict_mode"])
    data["crypto_costs"] = CryptoCostModel(**data["crypto_costs"])  # type: ignore[arg-type]
    if data.get("executor_regions") is not None:
        data["executor_regions"] = list(data["executor_regions"])  # type: ignore[arg-type]
    return ProtocolConfig(**data)  # type: ignore[arg-type]


def workload_config_from_dict(payload: Mapping[str, object]) -> YCSBConfig:
    return YCSBConfig(**dict(payload))  # type: ignore[arg-type]


# ------------------------------------------------------------------ resolve / build / run


def resolve(spec: RunSpec) -> Dict[str, object]:
    """Expand a :class:`RunSpec` into the plain-JSON dict that determines it.

    The resolved dict is the same shape the sweep layer content-addresses,
    so ``repro.crypto.hashing.digest`` of it (minus labels) is the run's
    cache key.
    """
    config_overrides, workload_overrides, _run = split_overrides(spec.overrides)
    return resolve_run(
        base=spec.base,
        system=spec.system,
        consensus_engine=spec.consensus_engine,
        scenarios=spec.scenarios,
        execution_threads=spec.execution_threads,
        duration=spec.duration,
        warmup=spec.warmup,
        seed=int(spec.seed),  # materialised by RunSpec.__post_init__
        config_overrides=config_overrides,
        workload_overrides=workload_overrides,
        labels=spec.labels,
    )


def build_deployment(
    resolved: Mapping[str, object],
    extra_runner_kwargs: Optional[Mapping[str, object]] = None,
    tracer_enabled: bool = False,
):
    """Construct the deployment a resolved run describes (any system kind).

    Scenario runner knobs are built fresh in the executing process and
    merged with ``extra_runner_kwargs`` (bespoke fault objects a caller
    attached directly to its :class:`RunSpec`) under the scenario conflict
    rules: disjoint ``node_behaviours`` merge, any other overlap raises
    :class:`~repro.api.spec.ScenarioConflictError`.  The selected system's
    adapter validates every knob against its declared capabilities before
    construction — the one place unsupported-knob errors come from.
    """
    adapter = get_system(str(resolved["system"]))
    kwargs = compose_runner_kwargs(resolved["scenarios"], resolved)
    sources = {key: "a composed scenario" for key in kwargs}
    for key, value in dict(extra_runner_kwargs or {}).items():
        merge_runner_knob(kwargs, sources, key, value, "the spec's direct fault knobs")

    config = protocol_config_from_dict(resolved["config"])  # type: ignore[arg-type]
    workload = workload_config_from_dict(resolved["workload"])  # type: ignore[arg-type]
    deployment = adapter.build(
        config,
        workload,
        consensus_engine=str(resolved["consensus_engine"]),
        execution_threads=int(resolved["execution_threads"]),  # type: ignore[arg-type]
        tracer_enabled=tracer_enabled,
        **kwargs,
    )

    # Region-aware fault plans need the live endpoint table (executors are
    # spawned dynamically); bind once the network exists.
    plan = kwargs.get("network_fault_plan")
    if plan is not None and hasattr(plan, "bind"):
        plan.bind(deployment.network)
    return deployment


def spec_digest(spec: RunSpec) -> str:
    """The run's content address — the same key the sweep store uses.

    SHA-256 of the fully resolved run (labels excluded), so an ad-hoc
    ``repro.api.run`` and a sweep point with the same resolved configuration
    share one cache entry.  Not to be confused with :func:`result_digest`,
    which fingerprints a finished result's simulated metrics.
    """
    from repro.sweep.spec import point_digest

    return point_digest(resolve(spec))


def run(spec: RunSpec, store=None) -> SimulationResult:
    """Resolve, build, and run one deployment — the single front door.

    ``store`` (any :class:`repro.store.ResultBackend`, or a store URL —
    a JSONL path, ``sqlite://path.db``, or ``shard://dir``) gives ad-hoc
    facade runs the same cache-hit/resume behaviour sweeps already have:
    the run's content address (:func:`spec_digest`) is looked up before
    building anything, and a finished run is appended to the store so the
    next identical ``run`` call never re-simulates.  The backend choice is
    host-side bookkeeping — it never affects the content address or the
    result.

    Bespoke fault objects attached directly to the spec
    (``node_behaviours`` / ``executor_behaviour_factory`` /
    ``network_fault_plan``) are **not** part of the content address, so
    caching them would alias a faulted run with a clean one; such specs are
    rejected when a store is given — register the faults as a scenario
    preset (:func:`repro.sweep.scenarios.register_scenario`) instead.
    """
    if spec.replicates != 1:
        raise ConfigurationError(
            f"spec declares replicates={spec.replicates}; use "
            f"repro.api.run_replicates to run the whole family"
        )
    resolved = resolve(spec)
    direct_kwargs = spec.direct_runner_kwargs()
    digest: Optional[str] = None
    if store is not None:
        if direct_kwargs:
            raise ConfigurationError(
                "a result store cannot cache runs carrying bespoke fault "
                f"objects ({sorted(direct_kwargs)} are not part of the "
                "content address); register the faults as a scenario preset "
                "and name it in RunSpec.scenarios instead"
            )
        from repro.store.url import as_backend
        from repro.sweep.serialization import result_from_dict
        from repro.sweep.spec import point_digest

        store = as_backend(store)
        digest = point_digest(resolved)
        record = store.get(digest)
        if record is not None:
            return result_from_dict(record["result"])
    deployment = build_deployment(
        resolved,
        extra_runner_kwargs=direct_kwargs,
        tracer_enabled=spec.tracer_enabled,
    )
    try:
        result = deployment.run(
            duration=float(resolved["duration"]), warmup=float(resolved["warmup"])
        )
    finally:
        deployment.close()
    if store is not None and digest is not None:
        from repro.sweep.serialization import result_to_dict

        store.put(digest, resolved, result_to_dict(result), sweep_name="api-run")
    return result


def run_replicates(
    spec: RunSpec,
    store=None,
    workers: int = 0,
    timeout: Optional[float] = None,
) -> List[SimulationResult]:
    """Run every replicate of a spec, in replicate order.

    Expands the spec through :func:`repro.api.spec.replicate_specs` (one
    per-seed spec per replicate) and runs each through :func:`run`, so with
    a ``store`` every replicate is cached and resumed individually — an
    interrupted family picks up where it stopped, and a re-run is a 100%
    cache hit.  ``replicates=1`` is exactly one ordinary :func:`run`.

    ``workers > 1`` fans the uncached replicates out over the *shared warm
    worker pool* (``repro.sweep.pool``): repeated calls in one process —
    and interleaved ``run_sweep`` calls with the same worker count — reuse
    one pool instead of paying interpreter + import start-up per
    invocation.  Results are bit-identical to the serial path (workers
    rebuild the deployment from the fully resolved spec).  ``timeout`` is
    a stall budget like ``run_sweep``'s: if no replicate completes within
    it, the pool's workers are killed, the pool is discarded, and a
    ``TimeoutError`` is raised (finished replicates are already persisted
    to the store).  Specs carrying bespoke fault objects are rejected on
    this path: fault objects are neither addressable nor shipped to workers
    (register a scenario preset instead).  ``tracer_enabled`` *is* honoured:
    workers build traced deployments and the flight-recorder payload rides
    home inside each result dict (``SimulationResult.obs``), so parallel
    trace collection is bit-identical to the serial path.
    """
    if isinstance(store, str):
        # Open the backend once for the whole family, not once per
        # replicate (run() accepts a URL too, but re-opens it each call).
        from repro.store.url import open_store

        store = open_store(store)
    specs = replicate_specs(spec)
    if workers <= 1 or len(specs) <= 1:
        return [run(replicate, store=store) for replicate in specs]

    if spec.direct_runner_kwargs():
        raise ConfigurationError(
            "run_replicates(workers>1) cannot ship bespoke fault objects to "
            "pool workers; register the faults as a scenario preset and name "
            "it in RunSpec.scenarios instead"
        )
    from concurrent.futures import wait
    from repro.api.registry import custom_systems
    from repro.sweep.pool import get_shared_pool
    from repro.sweep.runner import _simulate_point_task
    from repro.sweep.scenarios import custom_scenarios
    from repro.sweep.serialization import result_from_dict
    from repro.sweep.spec import point_digest

    resolved_list = [resolve(replicate) for replicate in specs]
    digests = [point_digest(resolved) for resolved in resolved_list]
    results: List[Optional[SimulationResult]] = [None] * len(specs)
    pending: List[int] = []
    for index, digest in enumerate(digests):
        record = store.get(digest) if store is not None else None
        if record is not None:
            results[index] = result_from_dict(record["result"])
        else:
            pending.append(index)

    if pending:
        from concurrent.futures import FIRST_COMPLETED

        from repro.sweep.pool import discard_shared_pool

        pool = get_shared_pool(workers)
        task_scenarios = custom_scenarios()
        task_systems = custom_systems()
        future_map = {
            pool.submit(
                _simulate_point_task,
                resolved_list[index],
                task_scenarios,
                task_systems,
                spec.tracer_enabled,
            ): index
            for index in pending
        }
        # Harvest in completion order so finished replicates persist even if
        # a later one fails; any worker error surfaces after the store is
        # up to date.  ``timeout`` is a stall budget: no completion within
        # it kills the pool's workers and raises.
        error: Optional[BaseException] = None
        remaining = set(future_map)
        while remaining:
            completed, remaining = wait(
                remaining, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not completed:
                stalled = sorted(future_map[future] for future in remaining)
                discard_shared_pool(terminate=True)
                raise TimeoutError(
                    f"no replicate completed within {timeout:g}s; killed the "
                    f"pool (replicates {stalled} unfinished, completed ones "
                    f"are persisted)"
                )
            for future in completed:
                index = future_map[future]
                try:
                    result_dict, timing = future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    error = error or exc
                    continue
                if store is not None:
                    store.put(
                        digests[index],
                        resolved_list[index],
                        result_dict,
                        sweep_name="api-run",
                        timing=timing,
                    )
                results[index] = result_from_dict(result_dict)
        if error is not None:
            raise error
    return results  # type: ignore[return-value]


def build_system(
    system: str,
    config: ProtocolConfig,
    workload: Optional[YCSBConfig] = None,
    **kwargs,
):
    """Registry-backed construction for callers holding pre-built configs.

    The lower-level sibling of :func:`run`: same adapters, same capability
    validation, no declarative resolution.  Used by the bench harness, whose
    entry point takes :class:`ProtocolConfig` / :class:`YCSBConfig` objects.
    """
    return get_system(system).build(config, workload, **kwargs)


def result_digest(result: SimulationResult) -> str:
    """Content digest of a result's *simulated* metrics.

    Host-speed fields (wall-clock) are excluded, so two runs of the same
    resolved spec — facade or sweep worker, today or next week — must
    produce equal digests.
    """
    from repro.crypto.hashing import digest
    from repro.sweep.serialization import result_to_dict, simulated_fingerprint

    return digest(simulated_fingerprint(result_to_dict(result)))
