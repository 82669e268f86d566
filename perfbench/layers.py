"""Per-layer host-time attribution for the traced pass.

Layers are named after this repository's modules.  The stdlib
deterministic profiler gives each function's self time; a function
defined in ``repro`` is charged to its layer, and time in builtins and
other non-``repro`` code is charged to the layers of its callers, split in
proportion to the self time each caller edge accounts for.  What no
``repro`` frame calls (the benchmark harness itself, interpreter start-up
work) lands in ``other``.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Dict, Optional, Tuple

#: ``repro`` module path prefix -> layer name, most specific first.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro/sim/engine", "sim.engine"),
    ("repro/sim/network", "sim.network"),
    ("repro/sim/process", "sim.process"),
    ("repro/consensus/", "consensus"),
    ("repro/core/shim_node", "core.shim_node"),
    ("repro/core/client", "core.client"),
    ("repro/core/executor", "core.executor"),
    ("repro/core/verifier", "core.verifier"),
    ("repro/workload/", "workload"),
    ("repro/storage/", "storage"),
    ("repro/crypto/", "crypto"),
    ("repro/cloud/", "cloud"),
    ("repro/faults/", "faults"),
    ("repro/sweep/", "sweep"),
    ("repro/store/", "store"),
)

LAYERS: Tuple[str, ...] = tuple(layer for _prefix, layer in LAYER_PREFIXES) + ("other",)

#: Flight-recorder span names whose virtual-time means are reported.
PHASES = ("request", "consensus", "spawn", "execute", "verify", "commit", "view_change")

Func = Tuple[str, int, str]


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``other`` for unlisted ``repro``
    modules and ``None`` for code outside ``repro``."""
    path = filename.replace("\\", "/")
    index = path.rfind("/repro/")
    if index < 0:
        return None
    module = path[index + 1:]
    for prefix, layer in LAYER_PREFIXES:
        if module.startswith(prefix):
            return layer
    return "other"


def layer_self_times(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Charge every profiled function's self time to a layer.

    ``stats`` is ``pstats.Stats(profile).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (cc, nc, tt, ct)`` per call edge.
    """
    memo: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, visiting: frozenset) -> Dict[str, float]:
        """Layer shares of ``func``'s self time; empty when no ``repro``
        frame is reachable up the callers without re-entering ``visiting``."""
        if func in memo:
            return memo[func]
        own = layer_of_file(func[0])
        if own is not None:
            return {own: 1.0}
        result: Dict[str, float] = {}
        total = 0.0
        inner = visiting | {func}
        for caller, edge in (stats[func][4] if func in stats else {}).items():
            if caller in inner:
                continue
            part = share_of(caller, inner)
            if part:
                weight = edge[2] or edge[1]
                total += weight
                for layer, share in part.items():
                    result[layer] = result.get(layer, 0.0) + share * weight
        if total:
            result = {layer: value / total for layer, value in result.items()}
        if not visiting:
            memo[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        for layer, part in (share_of(func, frozenset()) or {"other": 1.0}).items():
            totals[layer] += entry[2] * part
    return totals


class GcWatch:
    """Counts garbage collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


def rss_mb() -> float:
    """Current resident set size in MB (Linux ``/proc``; 0.0 elsewhere)."""
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return resident_pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
