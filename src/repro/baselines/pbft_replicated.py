"""PBFT replicated-execution baseline (no serverless, no verifier).

"We also test our ServerlessBFT protocol against a BFT system (e.g.
ResilientDB) running the PBFT protocol.  In this system, we assume each node
is a replica and executes the request in the agreed order post consensus.
As a result, there are no costs associated with spawning executors and
waiting for the verifier to validate the requests." (Section IX-H.)

Every replica executes each committed batch on its own execution-thread
pool (the ``ET`` knob of Figure 8) against its own copy of the data store;
the primary replies to the clients.  This baseline is used for:

* Figure 7 — throughput/latency versus the number of replicas, and
* Figure 8 — task offloading: with compute-heavy transactions the replicas
  become resource-bounded while ServerlessBFT offloads the work to the
  serverless cloud.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.cloud.billing import CostModel
from repro.cloud.regions import GeoLatencyModel, RegionCatalog
from repro.consensus.log import CommittedEntry
from repro.consensus.pbft import PBFTConfig, PBFTReplica, ReplicaTransport
from repro.core.client import ClientGroup
from repro.core.config import ProtocolConfig
from repro.core.messages import ClientRequestMsg, ResponseMsg
from repro.core.runner import SimulationResult
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService
from repro.errors import ConfigurationError
from repro.faults.byzantine import NodeBehaviour
from repro.obs.context import ObsContext
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import CpuResource, SimProcess
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder, ThroughputRecorder
from repro.storage.kvstore import VersionedKVStore
from repro.workload.transactions import Transaction, TransactionBatch, execute_batch
from repro.workload.ycsb import YCSBConfig, YCSBWorkload


class _ReplicaTransport(ReplicaTransport):
    def __init__(self, node: "ReplicatedNode") -> None:
        self._node = node

    def send(self, dst: str, message: Any, size_bytes: int) -> None:
        self._node.network.send(self._node.name, dst, message, size_bytes)

    def broadcast(self, message: Any, size_bytes: int, targets: Optional[List[str]] = None) -> None:
        recipients = targets if targets is not None else self._node.peer_names
        self._node.network.broadcast(self._node.name, recipients, message, size_bytes)


class ReplicatedNode(SimProcess):
    """A classic PBFT replica that orders *and executes* client batches."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        config: ProtocolConfig,
        shim_names: List[str],
        signer: SignatureService,
        execution_threads: int,
        per_operation_cost: float = 5e-6,
        throughput: Optional[ThroughputRecorder] = None,
        behaviour: Optional[NodeBehaviour] = None,
        obs=None,
        batch_flush_timeout: float = 0.02,
    ) -> None:
        super().__init__(sim, name, region, cores=config.shim_cores)
        self._network = network
        self._config = config
        self._shim_names = list(shim_names)
        self._signer = signer
        self._per_operation_cost = per_operation_cost
        self._throughput = throughput
        self._obs = obs
        self._behaviour = behaviour
        self._batch_flush_timeout = batch_flush_timeout

        self._execution_pool = CpuResource(sim, execution_threads, name=f"{name}.exec")
        self._store = VersionedKVStore()
        self._pending_txns: Deque[Transaction] = deque()
        self._flush_timer = None
        self._batch_counter = 0
        self._executed_batches = 0
        self._executed_txns = 0

        network.register(name, region, self.on_message)
        self._replica = PBFTReplica(
            replica_id=name,
            replicas=shim_names,
            config=PBFTConfig(
                checkpoint_interval=config.checkpoint_interval,
                request_timeout=config.node_request_timeout,
            ),
            transport=_ReplicaTransport(self),
            signer=signer,
            cost_model=config.crypto_costs,
            host=self,
            on_committed=self._on_committed,
            obs=obs,
            behaviour=behaviour,
        )

    # ------------------------------------------------------------------ properties

    @property
    def network(self) -> Network:
        return self._network

    @property
    def replica(self) -> PBFTReplica:
        return self._replica

    @property
    def peer_names(self) -> List[str]:
        return [peer for peer in self._shim_names if peer != self.name]

    @property
    def is_primary(self) -> bool:
        return self._replica.is_primary

    @property
    def executed_batches(self) -> int:
        return self._executed_batches

    @property
    def executed_txns(self) -> int:
        return self._executed_txns

    @property
    def store(self) -> VersionedKVStore:
        return self._store

    def close(self) -> None:
        """Drop the queued executions and what the replica holds of this
        node (see :meth:`repro.core.shim_node.ShimNode.close`)."""
        super().close()
        self._execution_pool.close()
        self._replica.close()

    # ------------------------------------------------------------------ messages

    def on_message(self, message, sender: str) -> None:
        if self._behaviour is not None and self._behaviour.is_crashed():
            return
        if isinstance(message, ClientRequestMsg):
            self._on_client_request(message)
        else:
            self._replica.handle(message, sender)

    def _on_client_request(self, request: ClientRequestMsg) -> None:
        if not self.is_primary:
            self._network.send(self.name, self._replica.primary, request, request.size_bytes)
            return
        verification = (
            self._config.crypto_costs.ds_verify
            + self._config.crypto_costs.hash_cost(request.size_bytes)
            + self._config.txn_ingest_cost * max(1, len(request.transactions))
        )
        self.process_parallel(
            verification, len(request.transactions), lambda: self._enqueue(request)
        )

    def _enqueue(self, request: ClientRequestMsg) -> None:
        self._pending_txns.extend(request.transactions)
        while len(self._pending_txns) >= self._config.batch_size:
            self._propose(self._config.batch_size)
        if self._pending_txns and self._flush_timer is None:
            self._flush_timer = self.set_timer(self._batch_flush_timeout, self._flush)

    def _flush(self) -> None:
        self._flush_timer = None
        if self.is_primary and self._pending_txns:
            self._propose(len(self._pending_txns))

    def _propose(self, size: int) -> None:
        transactions = tuple(self._pending_txns.popleft() for _ in range(size))
        self._batch_counter += 1
        batch = TransactionBatch(
            batch_id=f"{self.name}-b{self._batch_counter}", transactions=transactions
        )
        self._replica.propose(batch)

    # ------------------------------------------------------------------ execution

    def _on_committed(self, entry: CommittedEntry) -> None:
        if entry.batch is None:
            return
        batch: TransactionBatch = entry.batch
        if self._obs is not None:
            self._obs.begin_span("execute", entry.seq, self.now, self.name)
        duration = batch.execution_seconds + self._per_operation_cost * sum(
            len(txn.operations) for txn in batch.transactions
        )
        self._execution_pool.submit(
            max(1e-9, duration), lambda: self._after_execution(entry, batch)
        )

    def _after_execution(self, entry: CommittedEntry, batch: TransactionBatch) -> None:
        reads = self._store.read_many(sorted(batch.keys))
        values = {key: item.value for key, item in reads.values.items()}
        versions = {key: item.version for key, item in reads.values.items()}
        result = execute_batch(batch, values, versions)
        for txn_result in result.txn_results:
            self._store.apply_writes(txn_result.writes)
        self._executed_batches += 1
        self._executed_txns += len(batch)
        if self._obs is not None:
            self._obs.record(self.now, "replicated.executed", self.name, seq=entry.seq)
            self._obs.end_span("execute", entry.seq, self.now)
        if not self.is_primary:
            return
        if self._throughput is not None:
            self._throughput.record_commit(self.now, len(batch))
        per_request: Dict[Tuple[str, str], List[str]] = {}
        for txn in batch.transactions:
            per_request.setdefault((txn.origin, txn.request_id), []).append(txn.txn_id)
        for (origin, request_id), txn_ids in per_request.items():
            if not origin:
                continue
            response = ResponseMsg(
                request_id=request_id,
                seq=entry.seq,
                digest=entry.digest,
                committed_txn_ids=tuple(txn_ids),
            )
            self._network.send(self.name, origin, response, response.size_bytes)


class PBFTReplicatedSimulation:
    """Deployment runner for the replicated-execution PBFT baseline."""

    def __init__(
        self,
        config: ProtocolConfig,
        workload: Optional[YCSBConfig] = None,
        execution_threads: int = 16,
        node_behaviours: Optional[Dict[str, NodeBehaviour]] = None,
        tracer_enabled: bool = False,
    ) -> None:
        if execution_threads < 1:
            raise ConfigurationError("execution_threads must be at least 1")
        if config.fault_timeline:
            raise ConfigurationError(
                "pbft_replicated does not support fault_timeline: its replicas "
                "execute state machines locally and have no checkpoint-based "
                "catch-up path (use serverless_bft/serverless_cft/noshim)"
            )
        self.config = config
        self.execution_threads = execution_threads
        self.workload_config = workload or YCSBConfig(clients=config.num_clients, seed=config.seed)
        node_behaviours = node_behaviours or {}

        self.sim = Simulator()
        self.rng = DeterministicRNG(config.seed)
        self.catalog = RegionCatalog()
        self.obs = ObsContext(enabled=tracer_enabled)
        # Mirror the serverless runner's None-gating: disabled observability
        # must leave the components without a single new branch on the hot
        # path, so they only ever see an obs handle when it is live.
        component_obs = self.obs.component()
        self.network = Network(self.sim, GeoLatencyModel(self.catalog), self.rng.child("network"))
        self.keystore = KeyStore(deployment_secret=f"replicated-{config.seed}")
        self.cost_model = CostModel()
        self.workload = YCSBWorkload(self.workload_config)
        self.throughput = ThroughputRecorder()
        self.latency = LatencyRecorder()

        shim_names = [f"node-{index}" for index in range(config.shim_nodes)]
        self.nodes: List[ReplicatedNode] = [
            ReplicatedNode(
                sim=self.sim,
                network=self.network,
                name=name,
                region=config.shim_region,
                config=config,
                shim_names=shim_names,
                signer=SignatureService(self.keystore, name),
                execution_threads=execution_threads,
                throughput=self.throughput,
                behaviour=node_behaviours.get(name),
                obs=component_obs,
            )
            for name in shim_names
        ]

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
                signer=SignatureService(self.keystore, f"client-group-{index}"),
                costs=config.crypto_costs,
                primary_name=shim_names[0],
                verifier_name=shim_names[0],
                client_timeout=config.client_timeout,
                latency_recorder=self.latency,
                obs=component_obs,
                client_index_offset=index * group_size,
            )
            self.clients.append(group)

    def close(self) -> None:
        """Release the deployment once its result is collected (see
        :meth:`repro.core.runner.ServerlessBFTSimulation.close`)."""
        self.sim.close()
        self.network.close()
        for node in self.nodes:
            node.close()

    def run(self, duration: float = 5.0, warmup: float = 0.5) -> SimulationResult:
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if warmup < 0 or warmup >= duration:
            raise ConfigurationError("warmup must be inside [0, duration)")
        self.throughput._warmup = warmup
        self.latency._warmup = warmup
        for index, group in enumerate(self.clients):
            group._stop_time = duration
            self.sim.schedule(index * 0.001, group.start)
        self.obs.on_run_start()
        # lint: ignore[DET001] wall_clock_seconds is a declared HOST_SPEED_FIELDS field
        started = time.perf_counter()
        self.sim.run(until=duration)
        wall_clock = time.perf_counter() - started  # lint: ignore[DET001] host timing
        window = max(1e-9, duration - warmup)
        committed = self.throughput.completed
        # Edge-only deployment: only the shim VMs are billed.
        self.cost_model.charge_vm_fleet(
            machines=self.config.shim_nodes,
            cores=self.config.shim_cores,
            memory_gb=16.0,
            duration_seconds=duration,
        )
        billing = self.cost_model.report
        result = SimulationResult(
            duration=duration,
            warmup=warmup,
            committed_txns=committed,
            aborted_txns=0,
            throughput_txn_per_sec=committed / window,
            latency=self.latency.summary(),
            completed_requests=sum(group.completed_requests for group in self.clients),
            client_retransmissions=sum(group.retransmissions for group in self.clients),
            spawned_executors=0,
            cloud_invocations=0,
            view_changes=sum(node.replica.view_changes_installed for node in self.nodes),
            verifier_ignored_verify=0,
            verifier_replace_sent=0,
            verifier_errors_sent=0,
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            bytes_sent=self.network.bytes_sent,
            billing=billing,
            cents_per_kilo_txn=billing.cents_per_kilo_txn(committed),
            wall_clock_seconds=wall_clock,
            events_processed=self.sim.events_processed,
        )
        if self.obs.enabled:
            result.obs = self.obs.finalize(duration, extra=result.extra)
        return result
