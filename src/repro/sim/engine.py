"""Event-driven simulation kernel.

The kernel is intentionally small: a priority queue of timestamped events,
a virtual clock, and helpers for timers.  Every component of the
serverless-edge architecture (clients, shim nodes, executors, verifier,
cloud control plane) is driven exclusively by callbacks scheduled here, so
a run is fully deterministic given the same seeds and configuration.

Hot-path layout: heap entries are plain lists ``[time, priority, seq,
callback, args]`` rather than objects, so ``heapq`` compares them with C
list comparison (``seq`` is unique, so the comparison never reaches the
callback).  :meth:`Simulator.schedule_fast` pushes such an entry without
allocating a cancellation handle — the right call for the fire-and-forget
events that dominate a run (message deliveries, CPU job completions).
Cancelled events are marked by nulling the callback slot and are physically
removed in batches once they make up half the queue, so a workload that
cancels many timers (client timeouts, per-request consensus timers) never
degrades into scanning dead entries.

Event coalescing (the second perf overhaul): fire-and-forget events pass
through a one-entry *deferred slot* instead of going straight into the
heap.  The dispatch loop always runs ``min(slot, heap top)`` (the same
``(time, priority, seq)`` total order as before, compared by C list
comparison), so execution order — and therefore every simulated result —
is bit-identical to the heap-only kernel; the A/B suite in
``tests/test_perf_determinism.py`` enforces this.  The payoff is the
back-to-back pattern CPU resources produce under load: a busy core's next
completion is very often the globally next event, and such events are now
scheduled and dispatched without a single ``heappush``/``heappop`` pair
(counted in ``PERF.events_coalesced``; entries demoted from the slot by an
earlier arrival count as ``PERF.events_displaced``).  Disable with
:func:`event_coalescing_disabled` for A/B measurements.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.perf import PERF

#: Index of the callback slot inside a heap entry; ``None`` marks the entry
#: cancelled.
_CB = 3
#: Compaction triggers when at least this many cancelled entries exist AND
#: they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 256

#: Process-global default for the deferred-slot fast lane.  Read once at
#: ``Simulator`` construction time — deliberately *not* a ProtocolConfig
#: field, because it is a host-side implementation detail that must never
#: enter a point's content address.
_COALESCING_ENABLED = True


def set_event_coalescing(enabled: bool) -> None:
    """Turn the deferred-slot fast lane on or off for new simulators."""
    global _COALESCING_ENABLED
    _COALESCING_ENABLED = bool(enabled)


def event_coalescing_enabled() -> bool:
    return _COALESCING_ENABLED


@contextlib.contextmanager
def event_coalescing_disabled():
    """A/B helper: simulators built inside the block use the heap-only path."""
    previous = _COALESCING_ENABLED
    set_event_coalescing(False)
    try:
        yield
    finally:
        set_event_coalescing(previous)


class Event:
    """A cancellable handle to a scheduled callback.

    Events are ordered by ``(time, priority, seq)``; ``seq`` is a strictly
    increasing tie-breaker so events scheduled earlier run earlier when
    timestamps collide, keeping runs deterministic.  The handle wraps the
    underlying heap entry; cancelling nulls the entry's callback so the
    simulator skips (and eventually compacts) it.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def priority(self) -> int:
        return self._entry[1]

    @property
    def seq(self) -> int:
        return self._entry[2]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CB] is None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped."""
        entry = self._entry
        if entry[_CB] is not None:
            entry[_CB] = None
            entry[4] = ()
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        callback = self._entry[_CB]
        name = getattr(callback, "__qualname__", repr(callback))
        return f"Event(t={self._entry[0]:.6f}, cb={name}, cancelled={callback is None})"


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Virtual time is measured in seconds.  The simulator never looks at the
    wall clock; benchmark throughput/latency numbers are derived purely
    from virtual time plus the calibrated cost model.
    """

    def __init__(self) -> None:
        self._queue: List[list] = []
        self._seq = 0
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._cancelled = 0
        # Deferred slot: at most one fire-and-forget entry not yet in the
        # heap.  Only schedule_fast entries land here, so a slotted entry can
        # never be cancelled (no Event handle exists for it).
        self._slot: Optional[list] = None
        self._coalesce = _COALESCING_ENABLED

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled and slotted included)."""
        return len(self._queue) + (1 if self._slot is not None else 0)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before the current time t={self._now}"
            )
        self._seq += 1
        entry = [time, priority, self._seq, callback, args]
        heapq.heappush(self._queue, entry)
        return Event(entry, self)

    def schedule_fast(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling: no cancellation handle allocated.

        The hot path used by the network and CPU resources, whose events are
        never cancelled.  A negative delay would silently rewind the virtual
        clock, so it still fails fast like :meth:`schedule`.

        With coalescing on, the entry is parked in the deferred slot when
        possible: the slot always keeps the *earlier* of its occupant and
        the newcomer (the other is pushed to the heap), and the dispatch
        loop runs ``min(slot, heap top)``, so ordering is exactly the
        heap-only order while back-to-back events skip the heap entirely.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        self._seq += 1
        entry = [self._now + delay, 0, self._seq, callback, args]
        PERF.events_scheduled_fast += 1
        if self._coalesce:
            slot = self._slot
            if slot is None:
                self._slot = entry
                return
            if entry < slot:
                # The newcomer fires first: it takes the slot, the previous
                # occupant is demoted to the heap.
                self._slot = entry
                entry = slot
                PERF.events_displaced += 1
        heapq.heappush(self._queue, entry)

    # ------------------------------------------------------------------ queue upkeep

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Physically remove cancelled entries and re-heapify (batched)."""
        PERF.events_compacted += self._cancelled
        self._queue = [entry for entry in self._queue if entry[_CB] is not None]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _next_entry(self) -> Optional[list]:
        """Pop and return the next live entry in (time, priority, seq) order."""
        queue = self._queue
        while True:
            slot = self._slot
            if slot is not None and (not queue or slot < queue[0]):
                self._slot = None
                PERF.events_coalesced += 1
                return slot
            if not queue:
                return None
            entry = heapq.heappop(queue)
            if entry[_CB] is None:
                self._cancelled -= 1
                continue
            return entry

    # ------------------------------------------------------------------ running

    def step(self) -> bool:
        """Run the next non-cancelled event.  Returns False if none remain."""
        entry = self._next_entry()
        if entry is None:
            return False
        self._now = entry[0]
        self._events_processed += 1
        callback = entry[_CB]
        args = entry[4]
        entry[_CB] = None  # a late cancel() of this entry must be a no-op
        entry[4] = ()
        callback(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        # The event loop allocates millions of small, mostly-immutable,
        # acyclic objects per simulated second (messages, results, heap
        # entries); cyclic-GC passes over them find nothing yet cost ~25% of
        # the loop.  Reference counting reclaims the garbage either way (a
        # run creates no cyclic garbage of its own), so suspend the cyclic
        # collector for the duration of the run.  Virtual-time behaviour is
        # unaffected.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                # Select min(slot, heap top) without popping yet: the until
                # bound must leave the next event queued.
                entry = self._slot
                from_slot = True
                if queue and (entry is None or queue[0] < entry):
                    entry = queue[0]
                    from_slot = False
                if entry is None:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                callback = entry[_CB]
                if callback is None:
                    # Only heap entries are cancellable (the slot never holds
                    # an Event-wrapped entry).
                    pop(queue)
                    self._cancelled -= 1
                    continue
                event_time = entry[0]
                if until is not None and event_time > until:
                    self._now = until
                    break
                if from_slot:
                    self._slot = None
                    PERF.events_coalesced += 1
                else:
                    pop(queue)
                self._now = event_time
                self._events_processed += 1
                executed += 1
                args = entry[4]
                entry[_CB] = None  # a late cancel() of this entry must be a no-op
                entry[4] = ()
                callback(*args)
                if queue is not self._queue:  # a callback triggered compaction
                    queue = self._queue
        finally:
            self._running = False
            if gc_was_enabled:
                # No forced collection — and no *immediate* threshold-driven
                # one either: the run left the allocation counters sky-high,
                # so the first allocation after enable() would trigger a
                # young-generation pass over everything the run retained,
                # which is the live state of a deployment its caller may
                # still hold.  Freezing parks those survivors in the
                # permanent generation and resets the counters; unfreezing
                # right after returns them to the oldest generation.  They
                # are not garbage: the deployment's close() breaks its
                # cycles, and reference counting frees them when the owner
                # drops it.  Skipped when the embedding process froze
                # objects of its own (unfreeze would release those too).
                if gc.get_freeze_count() == 0:
                    gc.freeze()
                    gc.enable()
                    gc.unfreeze()
                else:
                    gc.enable()
        return self._now

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Run until no events remain (or ``max_events`` were executed)."""
        return self.run(until=None, max_events=max_events)

    def close(self) -> None:
        """Drop every pending event so nothing left in the queue keeps a
        component alive.

        A pending entry holds a bound callback, and the component behind it
        usually holds the simulator and the entry's own :class:`Event`
        handle: a reference cycle.  Each entry is nulled in place, exactly
        as :meth:`Event.cancel` does, so a handle that outlives the queue no
        longer reaches its callback.  The simulator cannot run afterwards.
        """
        pending = self._queue
        if self._slot is not None:
            pending.append(self._slot)
        for entry in pending:
            entry[_CB] = None
            entry[4] = ()
        self._queue = []
        self._slot = None
        self._cancelled = 0
