"""SERVERLESSCFT baseline.

"Represents the experiment where the shim nodes employ a crash fault-
tolerant protocol like Paxos for consensus.  As CFT protocols do not protect
against byzantine attacks, they do not require cryptographic signatures,
which in turn reduces the amount of work done per consensus.  Further,
unlike PBFT, Paxos is linear." (Section IX-H.)

The deployment is the regular serverless-edge architecture with the shim's
ordering engine swapped for :class:`repro.consensus.paxos.PaxosReplica`;
executors skip certificate verification because a CFT shim produces no
commit certificates.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ProtocolConfig
from repro.core.runner import ServerlessBFTSimulation
from repro.workload.ycsb import YCSBConfig


def build_serverless_cft_simulation(
    config: ProtocolConfig,
    workload: Optional[YCSBConfig] = None,
    **runner_kwargs,
) -> ServerlessBFTSimulation:
    """Build the SERVERLESSCFT deployment corresponding to ``config``."""
    cft_config = config.with_overrides(txn_ingest_cost=15e-6)
    return ServerlessBFTSimulation(
        cft_config, workload=workload, consensus_engine="paxos", **runner_kwargs
    )
