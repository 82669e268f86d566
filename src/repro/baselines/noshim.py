"""NOSHIM baseline.

"Represents the experiment where there is no shim; no BFT consensus takes
place.  All the clients send their requests to a node, which instantaneously
spawns executors." (Section IX-H.)

A shim of exactly one node gives precisely that behaviour in our framework:
with ``n_R = 1`` the PBFT instance has ``f_R = 0`` and a quorum of one, so a
proposal commits immediately and the node spawns executors right away — the
consensus phases degenerate to a single local step, and the executor /
verifier pipeline is unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ProtocolConfig
from repro.core.runner import ServerlessBFTSimulation
from repro.workload.ycsb import YCSBConfig


def build_noshim_simulation(
    config: ProtocolConfig,
    workload: Optional[YCSBConfig] = None,
    **runner_kwargs,
) -> ServerlessBFTSimulation:
    """Build the NOSHIM deployment corresponding to ``config``.

    The returned simulation keeps every parameter of ``config`` except the
    shim size, which collapses to a single node.
    """
    noshim_config = config.with_overrides(shim_nodes=1, txn_ingest_cost=15e-6)
    return ServerlessBFTSimulation(
        noshim_config, workload=workload, consensus_engine="pbft", **runner_kwargs
    )
