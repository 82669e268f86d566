"""Pluggable system registry: one uniform way to build any deployment.

Every system variant of the paper's evaluation (``serverless_bft``,
``serverless_cft``, ``pbft_replicated``, ``noshim``) registers a
:class:`SystemAdapter` here: a builder callable returning a deployment
object with ``.run(duration, warmup) -> SimulationResult`` and ``.close()``
(called by the owner once the result is collected), plus the set of
*capabilities* the system supports (which fault knobs it accepts, whether
the consensus engine is selectable, whether it has execution threads).

The registry replaces the hardcoded ``if/elif`` system ladder the sweep
runner used to carry: unsupported-knob errors now come from one validation
path (:meth:`SystemAdapter.build`) instead of ad-hoc raises, and a
third-party system plugs in with one :func:`register_system` call — after
which it is addressable from :func:`repro.api.run`, ``PointSpec(system=...)``
sweeps, and ``python -m repro.sweep`` exactly like the built-ins.

Adapters must be picklable (module-level builder functions) so that
runtime-registered systems can be shipped to spawn-start sweep workers the
same way runtime-registered scenarios are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.errors import ConfigurationError

#: The consensus engine assumed when a run spec does not choose one.
DEFAULT_CONSENSUS_ENGINE = "pbft"

#: Capability names an adapter may declare.
CAP_NODE_BEHAVIOURS = "node_behaviours"
CAP_EXECUTOR_FAULTS = "executor_faults"
CAP_NETWORK_FAULTS = "network_faults"
CAP_REGIONS = "regions"
CAP_CONSENSUS_ENGINE = "consensus_engine"
CAP_EXECUTION_THREADS = "execution_threads"

ALL_CAPABILITIES = frozenset(
    {
        CAP_NODE_BEHAVIOURS,
        CAP_EXECUTOR_FAULTS,
        CAP_NETWORK_FAULTS,
        CAP_REGIONS,
        CAP_CONSENSUS_ENGINE,
        CAP_EXECUTION_THREADS,
    }
)

#: Constructor knob -> capability required to accept it.  ``consensus_engine``
#: and ``execution_threads`` are handled separately (they always have a
#: value, so only a non-default / meaningful value is validated).
KNOB_CAPABILITIES: Mapping[str, str] = {
    "node_behaviours": CAP_NODE_BEHAVIOURS,
    "executor_behaviour_factory": CAP_EXECUTOR_FAULTS,
    "network_fault_plan": CAP_NETWORK_FAULTS,
    "regions": CAP_REGIONS,
}


class UnsupportedKnobError(ConfigurationError):
    """A run spec carries a knob the selected system cannot honour."""


@dataclass(frozen=True)
class SystemAdapter:
    """How to build one system variant, and what it supports.

    ``builder`` is called as ``builder(config, workload=..., tracer_enabled=...,
    **knobs)`` where ``knobs`` only ever contains keys the adapter's
    capabilities admit — validation happens in :meth:`build`, so builders
    never need defensive checks of their own.
    """

    name: str
    description: str
    builder: Callable[..., object]
    capabilities: FrozenSet[str] = frozenset()
    #: Label used in experiment tables and figures (e.g. ``SERVERLESSBFT``).
    display_name: str = ""
    #: Matching :class:`repro.perfmodel.model.SystemKind` value, if the
    #: analytical model covers this system (used by the Figure 7 sweep).
    model_kind: Optional[str] = None
    #: Consensus engine the system is hardwired to, if not selectable.
    pinned_consensus: Optional[str] = None
    #: Constructor-specific keyword arguments the builder accepts beyond the
    #: capability-mapped knobs (e.g. ``preload_storage``); passed through
    #: unvalidated, so keep them to plain configuration switches.
    extra_knobs: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a system adapter needs a name")
        unknown = self.capabilities - ALL_CAPABILITIES
        if unknown:
            raise ConfigurationError(
                f"system {self.name!r} declares unknown capabilities {sorted(unknown)}"
            )
        if not self.display_name:
            object.__setattr__(self, "display_name", self.name.upper())

    # ------------------------------------------------------------------ validation

    def unsupported_knobs(
        self,
        knobs: Mapping[str, object],
        consensus_engine: str = DEFAULT_CONSENSUS_ENGINE,
    ) -> List[str]:
        """Names of requested knobs this system cannot honour.

        A knob counts as *requested* only when its value is not ``None``.
        A non-default ``consensus_engine`` is a knob too, unless it names
        the engine the system is pinned to anyway.
        """
        bad = []
        for knob, value in knobs.items():
            if value is None or knob in self.extra_knobs:
                continue
            capability = KNOB_CAPABILITIES.get(knob)
            if capability is None or capability not in self.capabilities:
                bad.append(knob)
        if (
            consensus_engine != DEFAULT_CONSENSUS_ENGINE
            and CAP_CONSENSUS_ENGINE not in self.capabilities
            and consensus_engine != self.pinned_consensus
        ):
            bad.append("consensus_engine")
        return sorted(bad)

    # ------------------------------------------------------------------ building

    def build(
        self,
        config,
        workload=None,
        *,
        consensus_engine: str = DEFAULT_CONSENSUS_ENGINE,
        execution_threads: int = 16,
        tracer_enabled: bool = False,
        **knobs,
    ):
        """Validate the knobs against this system's capabilities and build.

        Raises :class:`UnsupportedKnobError` naming *every* offending knob at
        once.  ``execution_threads`` is a resource knob rather than a fault
        injection: systems without the capability simply have no execution
        thread pool, so the value is dropped instead of rejected (every sweep
        point carries a default).
        """
        unsupported = self.unsupported_knobs(knobs, consensus_engine)
        if unsupported:
            raise UnsupportedKnobError(
                f"system {self.name!r} does not support {unsupported} "
                f"(capabilities: {sorted(self.capabilities)})"
            )
        kwargs = {knob: value for knob, value in knobs.items() if value is not None}
        if CAP_CONSENSUS_ENGINE in self.capabilities:
            kwargs["consensus_engine"] = consensus_engine
        if CAP_EXECUTION_THREADS in self.capabilities:
            kwargs["execution_threads"] = execution_threads
        return self.builder(
            config, workload=workload, tracer_enabled=tracer_enabled, **kwargs
        )


# ------------------------------------------------------------------ registry

_REGISTRY: Dict[str, SystemAdapter] = {}


def register_system(adapter: SystemAdapter, replace: bool = False) -> SystemAdapter:
    """Add a system to the registry (``replace=True`` to redefine).

    Registration order is preserved: tables and figure sweeps list systems
    in the order they were registered.
    """
    if adapter.name in _REGISTRY and not replace:
        raise ConfigurationError(f"system {adapter.name!r} is already registered")
    _REGISTRY[adapter.name] = adapter
    return adapter


def get_system(name: str) -> SystemAdapter:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ConfigurationError(f"unknown system {name!r} (known: {known})")


def system_names() -> List[str]:
    """Registered system names, in registration order."""
    return list(_REGISTRY)


def all_systems() -> List[SystemAdapter]:
    return list(_REGISTRY.values())


# ------------------------------------------------------------------ built-in systems


def _build_serverless_bft(config, workload=None, *, tracer_enabled=False, **kwargs):
    from repro.core.runner import ServerlessBFTSimulation

    return ServerlessBFTSimulation(
        config, workload=workload, tracer_enabled=tracer_enabled, **kwargs
    )


def _build_serverless_cft(config, workload=None, *, tracer_enabled=False, **kwargs):
    from repro.baselines.serverless_cft import build_serverless_cft_simulation

    return build_serverless_cft_simulation(
        config, workload=workload, tracer_enabled=tracer_enabled, **kwargs
    )


def _build_pbft_replicated(config, workload=None, *, tracer_enabled=False, **kwargs):
    from repro.baselines.pbft_replicated import PBFTReplicatedSimulation

    return PBFTReplicatedSimulation(
        config, workload=workload, tracer_enabled=tracer_enabled, **kwargs
    )


def _build_noshim(config, workload=None, *, tracer_enabled=False, **kwargs):
    from repro.baselines.noshim import build_noshim_simulation

    return build_noshim_simulation(
        config, workload=workload, tracer_enabled=tracer_enabled, **kwargs
    )


register_system(SystemAdapter(
    name="serverless_bft",
    description="ServerlessBFT: PBFT shim, serverless executors, trusted verifier.",
    builder=_build_serverless_bft,
    capabilities=frozenset(
        {
            CAP_NODE_BEHAVIOURS,
            CAP_EXECUTOR_FAULTS,
            CAP_NETWORK_FAULTS,
            CAP_REGIONS,
            CAP_CONSENSUS_ENGINE,
        }
    ),
    display_name="SERVERLESSBFT",
    model_kind="serverlessbft",
    extra_knobs=frozenset({"preload_storage"}),
))
register_system(SystemAdapter(
    name="serverless_cft",
    description="Crash-fault-tolerant shim (Paxos, no signatures), same pipeline.",
    builder=_build_serverless_cft,
    capabilities=frozenset(
        {CAP_NODE_BEHAVIOURS, CAP_EXECUTOR_FAULTS, CAP_NETWORK_FAULTS, CAP_REGIONS}
    ),
    display_name="SERVERLESSCFT",
    model_kind="serverlesscft",
    pinned_consensus="paxos",
    extra_knobs=frozenset({"preload_storage"}),
))
register_system(SystemAdapter(
    name="pbft_replicated",
    description="Classic replicated-execution PBFT: no executors, no verifier.",
    builder=_build_pbft_replicated,
    capabilities=frozenset({CAP_NODE_BEHAVIOURS, CAP_EXECUTION_THREADS}),
    display_name="PBFT",
    model_kind="pbft",
    pinned_consensus="pbft",
))
register_system(SystemAdapter(
    name="noshim",
    description="No consensus: one ingest node spawns executors immediately.",
    builder=_build_noshim,
    capabilities=frozenset(
        {CAP_NODE_BEHAVIOURS, CAP_EXECUTOR_FAULTS, CAP_NETWORK_FAULTS, CAP_REGIONS}
    ),
    display_name="NOSHIM",
    model_kind="noshim",
    pinned_consensus="pbft",
    extra_knobs=frozenset({"preload_storage"}),
))

#: Systems registered by this module itself.  Anything beyond these was
#: registered at runtime and must be shipped to spawn-start sweep workers
#: explicitly (see ``repro.sweep.runner``), mirroring the scenario registry.
BUILTIN_SYSTEM_NAMES = frozenset(_REGISTRY)


def custom_systems() -> List[SystemAdapter]:
    """Systems registered after import (not built-ins)."""
    return [
        adapter
        for name, adapter in _REGISTRY.items()
        if name not in BUILTIN_SYSTEM_NAMES
    ]
