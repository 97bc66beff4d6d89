"""Discrete-event simulation engine.

A minimal, fast event loop: events are ``(time, sequence, callback, arg,
handle)`` tuples in a binary heap.  The sequence number breaks ties FIFO
(events at one instant run in the order they were scheduled) and makes
runs fully deterministic.  The hot paths (:meth:`Engine.schedule` and
:meth:`Engine.schedule_at`) allocate no closures and no handles:
callbacks take one optional pre-bound argument.  :meth:`Engine.schedule_at`
pushes its absolute time unchanged, so a caller that computed an exact
instant (a link's delivery time) gets exactly that instant;
:meth:`repro.sim.link.Link.send` inlines it, pushing its delivery entry
in this layout straight onto the heap.  Cancellable events (used for
retransmission timers) go through :meth:`Engine.schedule_cancellable`.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, List, Optional

__all__ = ["Engine", "EventHandle"]

_NO_ARG = object()


class EventHandle:
    """Handle to a cancellable event; ``cancel()`` suppresses its callback."""

    __slots__ = ("cancelled", "_engine", "_fired")

    def __init__(self, engine: Optional["Engine"] = None) -> None:
        self.cancelled = False
        self._engine = engine
        self._fired = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Cancelling after the event fired (or without an engine) must not
        # perturb the engine's dead-entry accounting.
        if self._engine is not None and not self._fired:
            self._engine._note_cancelled()


class Engine:
    """Event-driven simulation clock.  Time is in seconds (float)."""

    __slots__ = ("now", "_heap", "_seq", "_processed", "_cancelled", "_compactions")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List = []
        self._seq = 0
        self._processed = 0
        self._cancelled = 0
        self._compactions = 0

    def schedule(
        self, delay: float, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback`` (optionally with ``arg``) ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._seq, callback, arg, None)
        )

    def schedule_cancellable(
        self, delay: float, callback: Callable, arg: Any = _NO_ARG
    ) -> EventHandle:
        """Like :meth:`schedule` but returns a cancellation handle."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        handle = EventHandle(self)
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._seq, callback, arg, handle)
        )
        return handle

    def _note_cancelled(self) -> None:
        """Count a newly cancelled pending event; compact if dead-heavy.

        Retransmission timers are almost always cancelled (acks normally
        beat timeouts), so dead entries would otherwise accumulate without
        bound.  When more than half the heap is dead we rebuild it from
        the live entries — amortized O(1) per cancellation.
        """
        self._cancelled += 1
        if self._cancelled > len(self._heap) // 2:
            # In place: run() may hold a local alias to the heap list.
            self._heap[:] = [
                e for e in self._heap if e[4] is None or not e[4].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled = 0
            self._compactions += 1

    def schedule_at(
        self, when: float, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback`` at absolute time ``when`` (>= now), exactly.

        ``when`` goes on the heap as given: no round trip through a
        relative delay, which ``now + (when - now)`` can round away.
        """
        if when < self.now:
            raise ValueError(
                f"cannot schedule in the past (when={when}, now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, callback, arg, None))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events in time order.

        Stops when the heap is empty, the next event is beyond ``until``,
        or ``max_events`` have been processed (``0`` processes none).
        Returns the number of events processed by this call.
        """
        if max_events is None:
            max_events = sys.maxsize
        elif max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events}")
        horizon = math.inf if until is None else until
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        no_arg = _NO_ARG
        while heap and processed < max_events:
            t, _, callback, arg, handle = heap[0]
            if t > horizon:
                break
            heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                handle._fired = True
            self.now = t
            if arg is no_arg:
                callback()
            else:
                callback(arg)
            processed += 1
        if until is not None and (not heap or heap[0][0] > until):
            self.now = max(self.now, until)
        self._processed += processed
        return processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return len(self._heap) - self._cancelled

    @property
    def events_processed(self) -> int:
        """Total events processed over the engine's lifetime."""
        return self._processed

    @property
    def heap_compactions(self) -> int:
        """Number of dead-entry heap rebuilds over the engine's lifetime."""
        return self._compactions
