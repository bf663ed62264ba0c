"""Event-driven simulation primitives: wake times and the event queue.

The event engine (``System.run(engine="event")``) advances the same
quantum-stepped machine as the fast engine, but it only *visits* the
components that can act. Everything else sleeps, and wall time scales
with simulation events instead of cycles (ROADMAP's third engine;
docs/performance.md).

Two kinds of "next interesting time" exist in this machine:

* **Queue-driven wakes.** Stages and DRMs block exclusively on queue
  state (an empty input or a full/credit-exhausted output); the memory
  model charges latencies inline, so there are no in-flight timers. A
  blocked component's wake time is therefore *unknown but observable*:
  it is exactly the next enqueue/dequeue on one of the queues it waits
  on. Sleeping components register on those queues' waiter sets and the
  queue hooks (:attr:`repro.queues.queue.Queue.on_event`) deliver the
  wake.
* **Clock-driven horizons.** Deadlock detection and the caller's cycle
  limit fire at computable future cycles, and a memory model may expose
  a timed event of its own (:meth:`MainMemory.next_event_cycle`). These
  are real priority-queue entries: when every component sleeps and the
  control core is provably passive, the engine pops the earliest
  horizon and jumps straight to it.

Both derivations reuse the quiescence analysis the fast-forward
shortcuts introduced (``ProcessingElement.can_progress``,
``DRM.can_progress``): a component is only put to sleep when that
analysis proves the next quantum would charge stall cycles and nothing
else. Whenever the proof fails — telemetry sinks or samplers could
observe intermediate state — the engine falls back to exact replay of
the per-quantum loop, so results stay bit-identical by construction.
Deferred stall charges are exact without a fallback: a carried debt is
rolled forward quantum by quantum, and whole cycles are added with the
rounding of the unit loop (:func:`repro.core.pe.add_units`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional


class EventQueue:
    """A priority queue of ``(cycle, key)`` events with lazy cancellation.

    Entries are ordered by cycle, then by insertion order (so ties pop
    deterministically). Rescheduling a key supersedes its previous
    entry; superseded and cancelled entries are skipped lazily on pop.
    """

    def __init__(self):
        self._heap: list = []
        self._entries: dict = {}          # key -> (cycle, seq)
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def schedule(self, key, cycle: float) -> None:
        """Schedule (or reschedule) ``key`` to fire at ``cycle``."""
        seq = next(self._seq)
        self._entries[key] = (cycle, seq)
        heapq.heappush(self._heap, (cycle, seq, key))

    def cancel(self, key) -> None:
        """Remove ``key``; a no-op when it is not scheduled."""
        self._entries.pop(key, None)

    def scheduled_cycle(self, key) -> Optional[float]:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def _skim(self) -> None:
        """Drop stale heap heads (cancelled or superseded entries)."""
        heap = self._heap
        entries = self._entries
        while heap:
            cycle, seq, key = heap[0]
            if entries.get(key) == (cycle, seq):
                return
            heapq.heappop(heap)

    def next_cycle(self) -> Optional[float]:
        """Cycle of the earliest live event, or None when empty."""
        self._skim()
        return self._heap[0][0] if self._heap else None

    def pop(self):
        """Remove and return ``(cycle, key)`` for the earliest event."""
        self._skim()
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        cycle, _seq, key = heapq.heappop(self._heap)
        del self._entries[key]
        return cycle, key


@dataclass
class SleepState:
    """Deferred-stall ledger for one sleeping processing element.

    While a PE sleeps the engine charges nothing; this record carries
    everything needed to reproduce, bit for bit, the stall cycles the
    per-quantum loop would have charged: the first uncharged quantum
    boundary (``owed_from``) and the Fig. 14 bucket that was captured
    *at sleep time* (classification must not be recomputed at wake
    time — the very queue activity that wakes the PE could flip it).
    """

    owed_from: float
    bucket: str
    # Queues whose waiter sets this PE joined (cleared on wake).
    watching: tuple = field(default_factory=tuple)


def wake_queue_names(pe) -> set:
    """The queues whose activity could make ``pe`` progress again.

    Derived from the same state ``can_progress`` inspects, for a PE it
    just proved quiescent:

    * every started, unfinished stage is blocked on its pending
      queue request — any enqueue (for ``deq``/``peek``) or dequeue
      (space or credits back, for ``enq``) on that queue may unblock it;
    * every DRM waits either on its input queue (empty) or on one of
      its output targets (full or out of credits). Routed DRMs are
      watched on *all* route targets: the route choice depends on
      loaded values, so any target draining may unblock the head token.

    The set is deliberately conservative — a spurious wake only costs a
    re-check (the woken PE re-blocks and charges the same stalls the
    ledger would have), never correctness.
    """
    names = set()
    for stage in pe.stages:
        if stage.done or stage.pending is None:
            continue
        request = stage.pending
        if request[0] in ("deq", "peek", "enq", "try_deq"):
            names.add(request[1])
    for drm in pe.drms:
        names.add(drm.in_q.name)
        names.update(drm.watch_queue_names())
    return names
