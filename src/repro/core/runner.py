"""Deployment builder and simulation runner.

:class:`ServerlessBFTSimulation` assembles the full serverless-edge
architecture — clients, shim, serverless cloud, executors, verifier, and
storage — on top of the discrete-event simulator, runs it for a configured
virtual duration, and returns a :class:`SimulationResult` with the metrics
the paper reports (throughput, latency, aborts, monetary cost) plus richer
diagnostics (view changes, spawn counts, network statistics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cloud.billing import BillingReport, CostModel
from repro.cloud.lambda_cloud import ServerlessCloud
from repro.cloud.regions import GeoLatencyModel, RegionCatalog
from repro.core.client import ClientGroup
from repro.core.config import ProtocolConfig
from repro.core.executor import Executor
from repro.core.messages import ExecuteMsg
from repro.core.shim_node import ShimNode
from repro.core.verifier import Verifier
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService, resolve_backend
from repro.errors import ConfigurationError
from repro.faults.byzantine import ExecutorBehaviour, NodeBehaviour
from repro.obs.context import ObsContext
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkFaultPlan
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder, LatencySummary, ThroughputRecorder
from repro.storage.kvstore import VersionedKVStore
from repro.storage.service import StorageService
from repro.workload.ycsb import YCSBConfig, YCSBWorkload


@dataclass
class SimulationResult:
    """Metrics of one simulation run."""

    duration: float
    warmup: float
    committed_txns: int
    aborted_txns: int
    throughput_txn_per_sec: float
    latency: LatencySummary
    completed_requests: int
    client_retransmissions: int
    spawned_executors: int
    cloud_invocations: int
    view_changes: int
    verifier_ignored_verify: int
    verifier_replace_sent: int
    verifier_errors_sent: int
    messages_sent: int
    messages_dropped: int
    bytes_sent: int
    #: Host wall-clock seconds the run took and the resulting kernel
    #: event rate — the perf-trajectory metrics recorded by the benches.
    wall_clock_seconds: float = 0.0
    events_processed: int = 0
    billing: BillingReport = field(default_factory=BillingReport)
    cents_per_kilo_txn: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Observability payload (metrics/spans/trace) of a traced run; None
    #: when observability was off.  Host-side diagnostics only: excluded
    #: from ``simulated_fingerprint`` like ``wall_clock_seconds``, so a
    #: traced and an untraced run of the same point share one digest.
    obs: Optional[Dict[str, object]] = None

    @property
    def abort_rate(self) -> float:
        total = self.committed_txns + self.aborted_txns
        return self.aborted_txns / total if total else 0.0

    @property
    def events_per_second(self) -> float:
        """Kernel events executed per wall-clock second (host speed, not
        simulated time — the number the kernel-throughput bench tracks)."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_clock_seconds


class ServerlessBFTSimulation:
    """Builds and runs a full serverless-edge deployment."""

    def __init__(
        self,
        config: ProtocolConfig,
        workload: Optional[YCSBConfig] = None,
        consensus_engine: str = "pbft",
        node_behaviours: Optional[Dict[str, NodeBehaviour]] = None,
        executor_behaviour_factory: Optional[
            Callable[[str, ExecuteMsg], Optional[ExecutorBehaviour]]
        ] = None,
        network_fault_plan: Optional[NetworkFaultPlan] = None,
        regions: Optional[RegionCatalog] = None,
        tracer_enabled: bool = False,
        preload_storage: bool = False,
    ) -> None:
        if consensus_engine not in ("pbft", "paxos"):
            raise ConfigurationError(f"unknown consensus engine {consensus_engine!r}")
        self.config = config
        self.consensus_engine = consensus_engine
        self.workload_config = workload or YCSBConfig(clients=config.num_clients, seed=config.seed)
        self._executor_behaviour_factory = executor_behaviour_factory
        node_behaviours = node_behaviours or {}

        # --- substrates -----------------------------------------------------------
        self.sim = Simulator()
        self.rng = DeterministicRNG(config.seed)
        self.catalog = regions or RegionCatalog()
        # One observability context per run.  Components skip telemetry
        # entirely on a None handle; threading None when tracing is off
        # removes a dead call per protocol step.
        self.obs = ObsContext(enabled=tracer_enabled)
        component_obs = self.obs.component()
        self.network = Network(
            self.sim,
            GeoLatencyModel(self.catalog),
            self.rng.child("network"),
            fault_plan=network_fault_plan,
        )
        self.keystore = KeyStore(deployment_secret=f"deployment-{config.seed}")
        self.crypto_backend = resolve_backend(config.crypto_backend)
        self.store = VersionedKVStore()
        if preload_storage:
            self.store.load(config.storage_records)
        self.cost_model = CostModel()
        self.workload = YCSBWorkload(self.workload_config)

        # --- serverless cloud ---------------------------------------------------------
        self.cloud = ServerlessCloud(
            sim=self.sim,
            catalog=self.catalog,
            cost_model=self.cost_model,
            rng=self.rng.child("cloud"),
            executor_factory=self._spawn_executor,
            cold_start_latency=config.cold_start_latency,
            warm_start_latency=config.warm_start_latency,
            concurrency_limit_per_region=config.executor_concurrency_limit,
        )

        # --- verifier + storage ---------------------------------------------------------
        self.throughput = ThroughputRecorder(warmup=0.0)
        self.latency = LatencyRecorder(warmup=0.0)
        shim_names = [f"node-{index}" for index in range(config.shim_nodes)]
        self.verifier = Verifier(
            sim=self.sim,
            network=self.network,
            name="verifier",
            region=config.verifier_region,
            cores=config.verifier_cores,
            store=self.store,
            signer=self._make_signer("verifier"),
            costs=config.crypto_costs,
            shim_node_names=shim_names,
            match_quorum=config.executor_match_quorum,
            executor_faults=config.derived_executor_faults,
            expected_executors=config.num_executors,
            quorum_timeout=config.verifier_quorum_timeout,
            throughput=self.throughput,
            obs=component_obs,
        )
        self.storage_service = StorageService(
            sim=self.sim,
            network=self.network,
            store=self.store,
            name="storage",
            region=config.verifier_region,
        )

        # --- shim ----------------------------------------------------------------------
        executor_regions = config.regions_for_executors(self.catalog.names)
        self.nodes: List[ShimNode] = []
        for name in shim_names:
            node = ShimNode(
                sim=self.sim,
                network=self.network,
                name=name,
                region=config.shim_region,
                config=config,
                shim_names=shim_names,
                signer=self._make_signer(name),
                costs=config.crypto_costs,
                cloud=self.cloud,
                executor_regions=executor_regions,
                verifier_name="verifier",
                consensus_engine=consensus_engine,
                behaviour=node_behaviours.get(name),
                obs=component_obs,
            )
            self.nodes.append(node)

        # --- clients ---------------------------------------------------------------------
        self.clients: List[ClientGroup] = []
        group_size = config.clients_per_group
        for index in range(config.client_groups):
            group = ClientGroup(
                sim=self.sim,
                network=self.network,
                name=f"client-group-{index}",
                region=config.client_region,
                group_size=group_size,
                workload=self.workload,
                signer=self._make_signer(f"client-group-{index}"),
                costs=config.crypto_costs,
                primary_name=shim_names[0],
                verifier_name="verifier",
                client_timeout=config.client_timeout,
                latency_recorder=self.latency,
                obs=component_obs,
                client_index_offset=index * group_size,
            )
            self.clients.append(group)

        # Keep clients pointed at the current primary across view changes.
        # The listeners are the groups' own methods, not the deployment's,
        # so the nodes never reach back to the deployment.
        for node in self.nodes:
            for group in self.clients:
                node.add_primary_change_listener(group.update_primary)

        # --- fault timeline ----------------------------------------------------------
        # Built only when configured: a fault-free run constructs no engine,
        # schedules no events, and registers no commit listener, so its
        # results stay bit-identical to a build without this feature.
        self.fault_engine = None
        if config.fault_timeline:
            from repro.faults.timeline import FaultTimelineEngine

            self.fault_engine = FaultTimelineEngine(self)
            self.throughput.set_commit_listener(self.fault_engine.watchdog.on_commit)

        self._executor_required_signers = (
            config.shim_quorum if consensus_engine == "pbft" else 0
        )
        self._executor_counter = 0

    # ------------------------------------------------------------------ wiring helpers

    def _make_signer(self, owner: str) -> SignatureService:
        """A signature service bound to the deployment's crypto backend."""
        return SignatureService(self.keystore, owner, backend=self.crypto_backend)

    def _spawn_executor(self, executor_id: str, region: str, spawner: str, payload) -> None:
        """Factory handed to the serverless cloud: build and invoke one executor."""
        behaviour = None
        if self._executor_behaviour_factory is not None and isinstance(payload, ExecuteMsg):
            behaviour = self._executor_behaviour_factory(executor_id, payload)
        executor = Executor(
            sim=self.sim,
            network=self.network,
            name=executor_id,
            region=region,
            signer=self._make_signer(executor_id),
            costs=self.config.crypto_costs,
            cloud=self.cloud,
            storage_name="storage",
            verifier_name="verifier",
            required_certificate_signers=self._executor_required_signers,
            per_operation_cost=self.config.executor_read_ops_cost,
            behaviour=behaviour,
            obs=self.obs.component(),
        )
        self._executor_counter += 1
        if isinstance(payload, ExecuteMsg):
            executor.invoke(payload, spawner)

    # ------------------------------------------------------------------ running

    def run(self, duration: float = 5.0, warmup: float = 0.5) -> SimulationResult:
        """Run the deployment for ``duration`` seconds of virtual time."""
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if warmup < 0 or warmup >= duration:
            raise ConfigurationError("warmup must be inside [0, duration)")
        self.throughput._warmup = warmup  # measurement window starts after warm-up
        self.latency._warmup = warmup
        stagger = 0.001
        for index, group in enumerate(self.clients):
            group._stop_time = duration
            self.sim.schedule(index * stagger, group.start)
        # Per-run PERF discipline: delta over this baseline, not process
        # totals (warm pool workers and back-to-back runs share the global).
        self.obs.on_run_start()
        # lint: ignore[DET001] wall_clock_seconds is a declared HOST_SPEED_FIELDS field
        started = time.perf_counter()
        self.sim.run(until=duration)
        wall_clock = time.perf_counter() - started  # lint: ignore[DET001] host timing
        return self._collect(duration, warmup, wall_clock)

    def close(self) -> None:
        """Release the deployment once its result is collected.

        Breaks the reference cycles between the simulator, the network and
        the components, so reference counting frees the whole deployment
        as soon as its owner drops it; nothing is left for the cyclic
        collector.  :meth:`run` does not close: callers may inspect the
        deployment after a run.  A closed deployment cannot run again.
        """
        self.sim.close()
        self.network.close()
        self.cloud.close()
        for node in self.nodes:
            node.close()
        self.verifier.close()

    def _collect(self, duration: float, warmup: float, wall_clock: float = 0.0) -> SimulationResult:
        window = max(1e-9, duration - warmup)
        committed = self.throughput.completed
        # Charge the always-on VMs of the deployment (shim + verifier) for the run.
        self.cost_model.charge_vm_fleet(
            machines=self.config.shim_nodes,
            cores=self.config.shim_cores,
            memory_gb=16.0,
            duration_seconds=duration,
        )
        self.cost_model.charge_vm_fleet(
            machines=1,
            cores=self.config.verifier_cores,
            memory_gb=8.0,
            duration_seconds=duration,
        )
        billing = self.cost_model.report
        view_changes = 0
        for node in self.nodes:
            replica = node.replica
            view_changes += getattr(replica, "view_changes_installed", 0)
        result = SimulationResult(
            duration=duration,
            warmup=warmup,
            committed_txns=committed,
            aborted_txns=self.verifier.aborted_txns,
            throughput_txn_per_sec=committed / window,
            latency=self.latency.summary(),
            completed_requests=sum(group.completed_requests for group in self.clients),
            client_retransmissions=sum(group.retransmissions for group in self.clients),
            spawned_executors=sum(node.spawned_executors for node in self.nodes),
            cloud_invocations=self.cloud.spawn_count,
            view_changes=view_changes,
            verifier_ignored_verify=self.verifier.ignored_verify_messages,
            verifier_replace_sent=self.verifier.replace_messages_sent,
            verifier_errors_sent=self.verifier.error_messages_sent,
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            bytes_sent=self.network.bytes_sent,
            wall_clock_seconds=wall_clock,
            events_processed=self.sim.events_processed,
            billing=billing,
            cents_per_kilo_txn=billing.cents_per_kilo_txn(committed),
        )
        if self.fault_engine is not None:
            result.extra.update(self.fault_engine.metrics(duration))
        if self.obs.enabled:
            result.obs = self.obs.finalize(duration, extra=result.extra)
        return result
