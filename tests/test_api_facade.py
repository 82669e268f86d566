"""Tests for the ``repro.api`` front door (ISSUE 3 acceptance criteria).

* registry parity smoke — one deterministic point through **every**
  registered system, twice, with bit-identical result digests,
* scenario composition — ``["region-outage", "skewed-ycsb"]`` applies both
  presets in list order, conflicting compositions fail loudly,
* one validation path for unsupported knobs (registry capabilities),
* runtime-registered systems work end-to-end (``PointSpec`` validation,
  ``repro.api.run``, sweeps, CLI),
* the deployment constructors build bit-identical deployments to the
  facade, and the facade never warns.
"""

import warnings

import pytest

from repro.api import (
    RunSpec,
    ScenarioConflictError,
    SystemAdapter,
    UnsupportedKnobError,
    build_deployment,
    compose_scenarios,
    register_system,
    replicate_specs,
    resolve,
    result_digest,
    route_key,
    run,
    run_replicates,
    spec_digest,
    system_names,
)
from repro.errors import ConfigurationError
from repro.store import JsonlBackend
from repro.sweep import PointSpec, Scenario, SweepSpec, register_scenario, run_sweep
from repro.sweep.cli import main as sweep_cli

#: Small, fast deployment every test here reuses.
FAST_OVERRIDES = {
    "crypto_backend": "fast",
    "num_clients": 40,
    "client_groups": 2,
    "workload.clients": 40,
}


def _spec(**kwargs) -> RunSpec:
    kwargs.setdefault("overrides", FAST_OVERRIDES)
    kwargs.setdefault("duration", 0.4)
    kwargs.setdefault("warmup", 0.1)
    return RunSpec(**kwargs)


# ------------------------------------------------------------------ registry parity


def test_every_registered_system_runs_deterministically():
    """One deterministic point through every system, twice: equal digests."""
    assert {"serverless_bft", "serverless_cft", "pbft_replicated", "noshim"} <= set(
        system_names()
    )
    for system in system_names():
        first = run(_spec(system=system, seed=3, execution_threads=2))
        second = run(_spec(system=system, seed=3, execution_threads=2))
        assert first.committed_txns > 0, system
        assert result_digest(first) == result_digest(second), system


def test_facade_matches_legacy_constructor_bit_for_bit():
    """repro.api.run == building the same resolved configs by hand."""
    from repro.api import protocol_config_from_dict, workload_config_from_dict
    from repro.core.runner import ServerlessBFTSimulation

    spec = _spec(seed=7)
    resolved = resolve(spec)
    facade_result = run(spec)

    legacy = ServerlessBFTSimulation(
        protocol_config_from_dict(resolved["config"]),
        workload=workload_config_from_dict(resolved["workload"]),
    )
    legacy_result = legacy.run(duration=0.4, warmup=0.1)
    assert result_digest(facade_result) == result_digest(legacy_result)


# ------------------------------------------------------------------ scenario composition


def test_composed_scenarios_apply_in_list_order():
    spec = _spec(scenarios=["region-outage", "skewed-ycsb"], seed=5)
    resolved = resolve(spec)
    assert resolved["scenarios"] == ["region-outage", "skewed-ycsb"]
    assert resolved["scenario"] == "region-outage+skewed-ycsb"
    # skewed-ycsb's workload contribution survives the merge...
    assert resolved["workload"]["zipfian_theta"] == 0.9
    # ...and region-outage's fault plan is built and bound at deploy time.
    deployment = build_deployment(resolved)
    plan = deployment.network.fault_plan
    deployment.network.register("probe-endpoint", "us-east-2", lambda *_args: None)
    assert plan.is_partitioned("probe-endpoint", "verifier")
    # Resolution is deterministic: same spec, same resolved dict.
    assert resolve(spec) == resolved


def test_composed_scenario_point_runs_through_sweep_and_facade():
    scenario_list = ("region-outage", "skewed-ycsb")
    facade_result = run(_spec(scenarios=list(scenario_list), seed=11))
    assert facade_result.committed_txns > 0

    point = PointSpec(
        labels={"drill": "composed"},
        scenario=scenario_list,
        config={"num_clients": 40, "client_groups": 2},
        workload={"clients": 40},
        duration=0.4,
        warmup=0.1,
    )
    assert point.scenario_label == "region-outage+skewed-ycsb"
    report = run_sweep(SweepSpec(name="composed", points=(point,)))
    assert report.failed == 0
    assert report.outcomes[0].resolved["scenarios"] == list(scenario_list)
    assert report.outcomes[0].result.committed_txns > 0


def test_overlapping_scenario_keys_conflict():
    register_scenario(
        Scenario(
            name="unit-test-mild-writes",
            description="conflicts with write-heavy on purpose",
            workload_overrides={"write_fraction": 0.1},
        ),
        replace=True,
    )
    with pytest.raises(ScenarioConflictError) as excinfo:
        compose_scenarios(["write-heavy", "unit-test-mild-writes"])
    assert "write_fraction" in str(excinfo.value)
    # Agreeing values are not a conflict.
    composed = compose_scenarios(["write-heavy", "write-heavy"])
    assert composed.workload_overrides == {"write_fraction": 0.9}
    # Point overrides still sit on top of the composed contribution.
    resolved = resolve(
        _spec(
            scenarios=["write-heavy", "skewed-ycsb"],
            overrides={**FAST_OVERRIDES, "write_fraction": 0.5},
        )
    )
    assert resolved["workload"]["write_fraction"] == 0.5
    assert resolved["workload"]["zipfian_theta"] == 0.9


def test_direct_fault_knobs_merge_with_scenarios_on_disjoint_nodes():
    from repro.api import build_deployment
    from repro.faults.byzantine import CrashBehaviour

    # request-suppression attaches a behaviour to node-0; the spec adds one
    # for node-3 — disjoint, so the dicts merge.
    spec = _spec(
        scenarios=["request-suppression"], node_behaviours={"node-3": CrashBehaviour()}
    )
    deployment = build_deployment(
        resolve(spec), extra_runner_kwargs=spec.direct_runner_kwargs()
    )
    behaviours = {
        node.name for node in deployment.nodes if node._behaviour is not None
    }
    assert behaviours == {"node-0", "node-3"}
    # The same node from both sources is a conflict.
    clashing = _spec(
        scenarios=["request-suppression"], node_behaviours={"node-0": CrashBehaviour()}
    )
    with pytest.raises(ScenarioConflictError):
        build_deployment(
            resolve(clashing), extra_runner_kwargs=clashing.direct_runner_kwargs()
        )


def test_constructor_extra_knobs_pass_through():
    # preload_storage is not a capability knob but a constructor switch the
    # serverless systems accept; the registry passes it through.
    from repro.bench.harness import simulate_point
    from repro.core.config import ProtocolConfig

    result = simulate_point(
        ProtocolConfig(
            crypto_backend="fast", num_clients=40, client_groups=2,
            storage_records=200,
        ),
        duration=0.3,
        warmup=0.05,
        report_perf=False,
        preload_storage=True,
    )
    assert result.committed_txns > 0
    with pytest.raises(UnsupportedKnobError):
        run(_spec(system="pbft_replicated", network_fault_plan=object()))


def test_overlapping_runner_knobs_conflict():
    # Both presets build a network fault plan: composing them is ambiguous.
    with pytest.raises(ScenarioConflictError):
        run(_spec(scenarios=["lossy-network", "region-outage"]))
    # A direct fault object clashing with a scenario's knob is caught too.
    from repro.sim.network import NetworkFaultPlan

    with pytest.raises(ScenarioConflictError):
        run(_spec(scenarios=["lossy-network"], network_fault_plan=NetworkFaultPlan()))


# ------------------------------------------------------------------ capability validation


def test_unsupported_knobs_error_from_one_path():
    # Scenario-injected knob the system cannot host...
    with pytest.raises(UnsupportedKnobError) as excinfo:
        run(_spec(system="pbft_replicated", scenarios=["region-outage"]))
    assert "network_fault_plan" in str(excinfo.value)
    # ...and a directly-attached one produce the same error type.
    from repro.faults.injector import PerBatchExecutorFaults
    from repro.faults.byzantine import WrongResultBehaviour

    with pytest.raises(UnsupportedKnobError):
        run(
            _spec(
                system="pbft_replicated",
                executor_behaviour_factory=PerBatchExecutorFaults(
                    1, WrongResultBehaviour
                ),
            )
        )


def test_run_spec_validation():
    with pytest.raises(ConfigurationError):
        RunSpec(system="martian")
    with pytest.raises(ConfigurationError):
        RunSpec(duration=0.0)
    with pytest.raises(ConfigurationError):
        RunSpec(overrides={"duration": 1.0})  # run-level key: use the field
    with pytest.raises(ConfigurationError):
        RunSpec(overrides={"warp_factor": 9})


# ------------------------------------------------------------------ dotted keys


def test_route_key_routing():
    assert route_key("protocol.batch_size") == ("config", "batch_size")
    assert route_key("config.batch_size") == ("config", "batch_size")
    assert route_key("workload.write_fraction") == ("workload", "write_fraction")
    assert route_key("batch_size") == ("config", "batch_size")
    assert route_key("write_fraction") == ("workload", "write_fraction")
    assert route_key("seed") == ("config", "seed")  # historical axis routing
    assert route_key("system") == ("run", "system")
    assert route_key("scenarios") == ("run", "scenario")
    with pytest.raises(ConfigurationError):
        route_key("protocol.write_fraction")  # YCSB field, wrong prefix
    with pytest.raises(ConfigurationError):
        route_key("mystery.knob")
    with pytest.raises(ConfigurationError):
        route_key("warp_factor")


def test_dotted_overrides_reach_the_configs():
    resolved = resolve(
        _spec(
            overrides={
                **FAST_OVERRIDES,
                "protocol.batch_size": 7,
                "workload.write_fraction": 0.75,
            }
        )
    )
    assert resolved["config"]["batch_size"] == 7
    assert resolved["config"]["num_clients"] == 40
    assert resolved["workload"]["write_fraction"] == 0.75


# ------------------------------------------------------------------ pluggable systems


def _build_tuned_noshim(config, workload=None, *, tracer_enabled=False, **kwargs):
    """A third-party system: NOSHIM with a cheaper ingest path."""
    from repro.baselines.noshim import build_noshim_simulation

    tuned = config.with_overrides(txn_ingest_cost=5e-6)
    return build_noshim_simulation(
        tuned, workload=workload, tracer_enabled=tracer_enabled, **kwargs
    )


def test_runtime_registered_system_end_to_end():
    register_system(
        SystemAdapter(
            name="unit-test-tuned-noshim",
            description="runtime-registered system for the registry test",
            builder=_build_tuned_noshim,
        ),
        replace=True,
    )
    # PointSpec validation defers to the registry (the frozen-SYSTEMS fix).
    point = PointSpec(
        labels={"system": "unit-test-tuned-noshim"},
        system="unit-test-tuned-noshim",
        config={"crypto_backend": "fast", "num_clients": 40, "client_groups": 2},
        workload={"clients": 40},
        duration=0.4,
        warmup=0.1,
    )
    report = run_sweep(SweepSpec(name="custom-system", points=(point,)))
    assert report.failed == 0 and report.outcomes[0].result.committed_txns > 0
    # The facade drives it by name like any built-in, deterministically.
    first = run(_spec(system="unit-test-tuned-noshim", seed=2))
    second = run(_spec(system="unit-test-tuned-noshim", seed=2))
    assert result_digest(first) == result_digest(second)
    # The legacy SYSTEMS module attribute reflects the registry now.
    from repro.sweep import spec as sweep_spec_module

    assert "unit-test-tuned-noshim" in sweep_spec_module.SYSTEMS
    with pytest.raises(ConfigurationError):
        PointSpec(system="still-not-a-system")


def test_runtime_registered_system_ships_to_workers():
    from repro.api.registry import custom_systems
    from repro.sweep.runner import _register_worker_state

    adapters = custom_systems()
    # Idempotent re-registration (what the pool initializer does in workers).
    _register_worker_state([], adapters)
    assert {adapter.name for adapter in adapters} <= set(system_names())


# ------------------------------------------------------------------ warnings


def test_facade_construction_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for system in ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim"):
            result = run(_spec(system=system))
            assert result.committed_txns > 0


# ------------------------------------------------------------------ CLI


# ------------------------------------------------------------------ per-run store + replicates


def test_run_with_store_caches_and_resumes(tmp_path):
    store_path = str(tmp_path / "api.jsonl")
    spec = _spec()
    first = run(spec, store=store_path)  # a path is accepted directly
    store = JsonlBackend(store_path)
    assert len(store) == 1 and spec_digest(spec) in store

    # Second run: served from the store, bit-identical simulated metrics.
    second = run(spec, store=store)
    assert result_digest(second) == result_digest(first)

    # The store only intercepts matching specs; a different spec simulates.
    other = run(_spec(overrides={**FAST_OVERRIDES, "batch_size": 7}), store=store)
    assert result_digest(other) != result_digest(first)
    assert len(JsonlBackend(store_path)) == 2


def test_run_store_shares_addresses_with_sweeps(tmp_path):
    """An ad-hoc facade run and a sweep point with the same resolved config
    share one cache entry — same content-address space."""
    store = JsonlBackend(str(tmp_path / "shared.jsonl"))
    spec = _spec(seed=11)
    run(spec, store=store)
    point = PointSpec(
        labels={},
        config={key: value for key, value in FAST_OVERRIDES.items()
                if not key.startswith("workload.")},
        workload={"clients": 40},
        seed=11,
        duration=0.4,
        warmup=0.1,
    )
    report = run_sweep(SweepSpec(name="shared", points=(point,)), store=store)
    assert report.cached == 1 and report.simulated == 0


def test_run_with_store_rejects_bespoke_fault_objects(tmp_path):
    from repro.faults.byzantine import CrashBehaviour

    spec = _spec(node_behaviours={"node-3": CrashBehaviour()})
    with pytest.raises(ConfigurationError, match="scenario preset"):
        run(spec, store=str(tmp_path / "never.jsonl"))
    # Without a store the bespoke objects remain fully supported.
    assert run(spec).committed_txns > 0


def test_run_replicates_expands_caches_and_differs_per_seed(tmp_path):
    store = JsonlBackend(str(tmp_path / "family.jsonl"))
    spec = _spec(replicates=2)
    family = run_replicates(spec, store=store)
    assert len(family) == 2
    assert result_digest(family[0]) != result_digest(family[1])
    assert len(store) == 2

    # Re-run: 100% cache hit, same results.
    again = run_replicates(spec, store=JsonlBackend(store.path))
    assert [result_digest(r) for r in again] == [result_digest(r) for r in family]

    # run() refuses a multi-replicate spec instead of silently running one.
    with pytest.raises(ConfigurationError, match="run_replicates"):
        run(spec)
    # Expansion is the single-spec identity for replicates=1.
    single = _spec()
    assert replicate_specs(single) == (single,)


def test_cli_list_systems(capsys):
    assert sweep_cli(["list-systems"]) == 0
    output = capsys.readouterr().out
    for name in ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim"):
        assert name in output
    assert "capabilities:" in output


def test_cli_set_overrides(tmp_path, capsys):
    store = str(tmp_path / "set.jsonl")
    args = [
        "run",
        "smoke",
        "--duration",
        "0.3",
        "--warmup",
        "0.05",
        "--store",
        store,
        "--set",
        "protocol.batch_size=7",
        "--set",
        "workload.write_fraction=0.9",
    ]
    assert sweep_cli(args) == 0
    assert "simulated=4 cached=0 failed=0" in capsys.readouterr().out
    # Same overrides hit the cache; different overrides are fresh points.
    assert sweep_cli(args + ["--expect-all-cached"]) == 0
    capsys.readouterr()


def test_cli_set_rejects_malformed_pairs(capsys):
    assert sweep_cli(["run", "smoke", "--set", "no-equals-sign"]) == 2
    assert "--set expects key=value" in capsys.readouterr().err
    assert sweep_cli(["run", "smoke", "--set", "warp_factor=9"]) == 2
