"""Cross-validation of the analytical model against the simulator.

The analytical model and the discrete-event simulator share their cost
constants, but the model makes simplifying assumptions (no queueing jitter,
no batching delay, no retransmissions).  ``calibration_ratio`` quantifies the
disagreement on a configuration small enough to simulate, so tests can
assert the two stay within a factor of each other and EXPERIMENTS.md can
report the calibration quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import ProtocolConfig
from repro.perfmodel.model import AnalyticalModel, SystemKind
from repro.workload.ycsb import YCSBConfig


@dataclass(frozen=True)
class CalibrationResult:
    """Simulated and modelled throughput/latency for the same configuration."""

    simulated_throughput: float
    modelled_throughput: float
    simulated_latency: float
    modelled_latency: float

    @property
    def throughput_ratio(self) -> float:
        if self.modelled_throughput == 0:
            return float("inf")
        return self.simulated_throughput / self.modelled_throughput

    @property
    def latency_ratio(self) -> float:
        if self.modelled_latency == 0:
            return float("inf")
        return self.simulated_latency / self.modelled_latency


def calibration_ratio(
    config: ProtocolConfig,
    workload: Optional[YCSBConfig] = None,
    duration: float = 3.0,
    warmup: float = 0.5,
) -> CalibrationResult:
    """Run both the simulator and the model on ``config`` and compare them."""
    from repro.api.facade import build_system  # calibration sits above the facade

    workload = workload or YCSBConfig(clients=config.num_clients, seed=config.seed)
    simulation = build_system(
        "serverless_bft", config, workload, tracer_enabled=False
    )
    try:
        result = simulation.run(duration=duration, warmup=warmup)
    finally:
        simulation.close()
    model = AnalyticalModel(config, workload, system=SystemKind.SERVERLESS_BFT)
    modelled_throughput, modelled_latency = model.throughput_latency(config.num_clients)
    return CalibrationResult(
        simulated_throughput=result.throughput_txn_per_sec,
        modelled_throughput=modelled_throughput,
        simulated_latency=result.latency.mean,
        modelled_latency=modelled_latency,
    )
