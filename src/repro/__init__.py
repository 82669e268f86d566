"""ServerlessBFT: reliable transactions in a serverless-edge architecture.

This package is a from-scratch Python reproduction of the ICDE 2023 paper
"Reliable Transactions in Serverless-Edge Architecture" (ServerlessBFT).
It contains the protocol itself (``repro.core``), every substrate the paper
depends on (discrete-event simulation, network, cryptography, storage,
serverless cloud, YCSB workloads), the baselines used in the evaluation,
and a benchmark harness that regenerates every figure of the paper.

Typical entry points:

* :mod:`repro.api` — the front door: ``run(RunSpec(...))`` builds and runs
  any registered system with composed scenarios and dotted-key overrides.
* :class:`repro.core.config.ProtocolConfig` — configure a deployment.
* :mod:`repro.bench.experiments` — regenerate the paper's figures.
* :mod:`repro.obs` — the flight recorder: one ``ObsContext`` handle per
  component records milestones and commit-path spans of a traced run.
* :class:`repro.core.runner.ServerlessBFTSimulation` and the baseline
  builders — the deployment classes the registry builds, for callers that
  already hold config objects.
"""

from repro.core.config import ProtocolConfig
from repro.core.runner import ServerlessBFTSimulation, SimulationResult
from repro.workload.ycsb import YCSBConfig, YCSBWorkload

__all__ = [
    "ProtocolConfig",
    "RunSpec",
    "ServerlessBFTSimulation",
    "SimulationResult",
    "YCSBConfig",
    "YCSBWorkload",
    "__version__",
    "run",
]


def __getattr__(name: str):
    # Lazy so that ``import repro`` stays light; the facade pulls in the
    # sweep/scenario layers.
    if name in ("RunSpec", "run"):
        from repro.api import RunSpec, run

        return {"RunSpec": RunSpec, "run": run}[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"
