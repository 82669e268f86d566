"""The benchmark's workloads, built from the command-line seed.

Every workload drives ``serverless_bft`` (and, for the sweep, its CFT and
no-shim siblings) through simulated clients in a closed loop: each client
waits for its reply and retransmits on timeout.  ``full`` is the size the
benchmark measures; ``tiny`` is the same shape, small enough for the
benchmark's own test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

WORKLOADS = ("bft-bulk", "bft-contended", "sweep-mix")
SIZES = ("full", "tiny")

#: Systems and scenario presets the sweep cycles through.  ``noshim`` has a
#: single shim node, so the four-node ``rolling-restart`` timeline does not
#: apply to it and that one pairing is left out.
SWEEP_SYSTEMS = ("serverless_bft", "serverless_cft", "noshim")
SWEEP_PRESETS = (
    "baseline",
    "byzantine-executors",
    "lossy-network",
    "write-heavy",
    "skewed-ycsb",
    "conflict-heavy",
    "primary-crash",
    "rolling-restart",
)


@dataclass(frozen=True)
class PointWorkload:
    """One long simulation point, run as ``resolve`` -> ``build`` -> ``run``."""

    base: str
    duration: float
    warmup: float
    scenarios: Tuple[str, ...] = ()
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: Virtual time of the scenarios' last fault event; set when the run
    #: must show a crash, a recovery and service after it.
    last_fault_s: Optional[float] = None

    def spec(self, seed: int, tracer_enabled: bool = False):
        from repro.api import RunSpec

        return RunSpec(
            system="serverless_bft",
            base=self.base,
            scenarios=list(self.scenarios),
            overrides=dict(self.overrides),
            seed=seed,
            duration=self.duration,
            warmup=self.warmup,
            tracer_enabled=tracer_enabled,
        )


@dataclass(frozen=True)
class SweepWorkload:
    """A serial sweep of short points cycling systems and scenario presets."""

    name: str
    points: int
    duration: float
    warmup: float

    def point_plan(self, seed: int) -> List[Tuple[str, str, int]]:
        """``(system, preset, seed)`` of every point; the point seeds are drawn
        from the sweep's root seed."""
        combos = [
            (system, preset)
            for preset in SWEEP_PRESETS
            for system in SWEEP_SYSTEMS
            if not (system == "noshim" and preset == "rolling-restart")
        ]
        rng = random.Random(seed)
        return [
            (*combos[index % len(combos)], rng.randrange(1, 2**31))
            for index in range(self.points)
        ]

    def point_specs(self, seed: int) -> List[object]:
        """Each point as a ``RunSpec`` (same content address as the sweep point)."""
        from repro.api import RunSpec

        return [
            RunSpec(
                system=system, scenarios=[preset], base="scale", seed=point_seed,
                duration=self.duration, warmup=self.warmup,
            )
            for system, preset, point_seed in self.point_plan(seed)
        ]

    def sweep(self, seed: int):
        from repro.sweep import PointSpec, SweepSpec

        points = tuple(
            PointSpec(
                labels={"point": index, "system": system, "scenario": preset},
                system=system, scenario=preset, seed=point_seed,
                duration=self.duration, warmup=self.warmup,
            )
            for index, (system, preset, point_seed) in enumerate(self.point_plan(seed))
        )
        return SweepSpec(name=self.name, points=points, base="scale", seed=seed)


#: One YCSB key partition per simulated client.  The ``default`` base pairs
#: 1,600 clients with 16 partitions, so 100 clients share each one and about
#: 1% of transactions conflict; on about one seed in five a conflicting batch
#: leaves the verifier without a matching quorum, and every commit waits out
#: its 2 s quorum timeout.  ``bft-bulk`` is meant to be conflict-free.
_BULK_KEY_PARTITIONS = {"workload.clients": 1600}

_CONTENDED_SCENARIOS = ("primary-crash", "conflict-heavy")
#: ``primary-crash`` crashes the primary at 0.3 s and recovers it at 1.2 s.
_CONTENDED_LAST_FAULT_S = 1.2

_DEFINITIONS: Dict[Tuple[str, str], object] = {
    ("bft-bulk", "full"): PointWorkload("default", 6.0, 0.5, overrides=_BULK_KEY_PARTITIONS),
    ("bft-bulk", "tiny"): PointWorkload(
        "default", 0.6, 0.1,
        overrides={"protocol.num_clients": 64, "protocol.client_groups": 4, "workload.clients": 64},
    ),
    ("bft-contended", "full"): PointWorkload(
        "scale", 8.0, 0.5, _CONTENDED_SCENARIOS,
        {"protocol.num_clients": 200, "protocol.batch_size": 5}, _CONTENDED_LAST_FAULT_S,
    ),
    ("bft-contended", "tiny"): PointWorkload(
        "scale", 1.6, 0.2, _CONTENDED_SCENARIOS,
        {"protocol.num_clients": 40, "protocol.batch_size": 5}, _CONTENDED_LAST_FAULT_S,
    ),
    ("sweep-mix", "full"): SweepWorkload("sweep-mix", 120, 0.5, 0.1),
    ("sweep-mix", "tiny"): SweepWorkload("sweep-mix", 12, 0.3, 0.05),
}


def get(name: str, size: str = "full"):
    """The workload definition for ``name`` (one of :data:`WORKLOADS`) at ``size``."""
    return _DEFINITIONS[(name, size)]
