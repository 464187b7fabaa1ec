"""The discrete-event engine.

A :class:`Simulator` owns the virtual clock and an event heap. A heap
entry is a plain list ``[time, seq, callback]``, and that list *is* the
handle the ``schedule*`` methods return: scheduling an event is one
``BUILD_LIST`` (no wrapper object, no instance ``__dict__``) and every
heap comparison is a single C-level list comparison. ``seq`` is unique
per simulator, so the comparison is decided by ``(time, seq)`` and never
reaches the callback; it also breaks ties so that events scheduled at
the same instant fire in FIFO order, which makes runs fully
deterministic (a property every test in this repo leans on).

Design notes
------------
* ``heapq`` over a list of entries — O(log n) push/pop and one allocation
  per event. A packet-level simulation of a Hadoop shuffle pushes a few
  events per packet, so this is *the* hot path of the repository; the
  implementation deliberately avoids any abstraction on top of the heap.
* The callback slot doubles as the entry's state: ``None`` means
  "cancelled or already fired". The dispatch loop clears the slot just
  before it invokes the callback, so handles are opaque to callers —
  hold one, pass it back to :meth:`Simulator.cancel` or
  :meth:`Simulator.is_pending`, and never index it.
* Cancellation is lazy: :meth:`Simulator.cancel` clears the slot and the
  main loop discards dead entries when they surface. ~99 % of events
  (port serialisation and wire delivery) are never cancelled, which is
  why cancellation lives on the simulator and the entry carries nothing
  for it. Retransmission timers *are* rescheduled constantly, and lazy
  deletion is much cheaper than a sift-based removal. The simulator
  counts still-pending cancelled entries and **compacts** the heap in
  place when they exceed half of it (and the heap is non-trivial), so
  timer churn cannot grow the heap without bound. Compaction only removes
  dead entries — the (time, seq) total order of live events is untouched,
  so event order is bit-identical with or without it. ``pending_events``
  may *shrink* across a compaction (it counts heap entries, and purged
  cancelled entries leave the heap); ``heap_high_water`` is a running
  maximum and is never lowered.
* Callbacks run with no arguments. Closures or bound methods capture
  whatever they need; this keeps the heap entries small and the dispatch
  loop branch-free.
* ``pkt_ids`` is the per-run packet-id counter: packet constructors draw
  from it so that consecutive runs in one process produce identical
  packet ids (a process-global counter would make traces depend on what
  ran before).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import SchedulingError, SimulationError

__all__ = ["EventHandle", "Simulator"]

#: Compaction triggers only above this heap size — tiny heaps are cheap to
#: scan lazily and compacting them would just add noise.
_COMPACT_MIN_HEAP = 64


#: What the ``schedule*`` methods return: the ``[time, seq, callback]``
#: heap entry itself. For annotations only — treat handles as opaque.
EventHandle = list

_INF = float("inf")


class Simulator:
    """Event heap + virtual clock.

    Parameters
    ----------
    start_time:
        Initial clock value (seconds). Defaults to 0.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "_stopped",
                 "_events_processed", "_heap_high_water",
                 "_cancelled_pending", "pkt_ids", "profiler",
                 "workload_ports", "fluid")

    #: Optional class-level birth hook: ``Simulator.on_create(sim)`` is
    #: invoked at the end of ``__init__`` for every new simulator. The
    #: sweep-farm worker uses it to arm a periodic preemption checkpoint
    #: on kernels it never constructs itself (``run_cell`` and the
    #: per-family cell runners each build their own). Constructor-only —
    #: the dispatch loop is untouched. Installers must save/restore the
    #: previous value.
    on_create: "Optional[Callable[[Simulator], None]]" = None

    def __init__(self, start_time: float = 0.0):
        #: Current simulation time in seconds. A plain attribute, not a
        #: property: it is read on every hop of every packet, and the
        #: descriptor call was measurable. Treat it as read-only — only
        #: the dispatch loop advances it.
        self.now = float(start_time)
        self._heap: List[EventHandle] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._heap_high_water = 0
        #: Lazily-cancelled entries still sitting in the heap; drives the
        #: compaction heuristic.
        self._cancelled_pending = 0
        #: Per-run packet-id counter (see :class:`~repro.net.packet.Packet`):
        #: every packet of a run draws ``next(sim.pkt_ids)`` so ids — and
        #: therefore traces — are identical across back-to-back runs.
        self.pkt_ids = count()
        #: Optional :class:`~repro.telemetry.profiler.LoopProfiler`. The
        #: dispatch loop takes one branch per event when this is None.
        self.profiler = None
        #: Per-run workload port allocator, lazily populated by
        #: :func:`repro.workloads.ports.port_allocator`. Lives on the
        #: kernel because port numbers — like packet ids — are per-run
        #: state that must reset with the run for traces to be identical
        #: across back-to-back runs.
        self.workload_ports = None
        #: Optional :class:`~repro.sim.fluid.FluidManager` for hybrid
        #: fidelity runs. None in packet mode — every fluid hook in the
        #: TCP endpoint reduces to this one attribute test, which keeps
        #: packet-mode runs bit-identical to pre-fluid builds.
        self.fluid = None
        hook = Simulator.on_create
        if hook is not None:
            hook(self)

    # -- clock --------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of callbacks dispatched so far (diagnostic)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Heap size, including lazily-cancelled entries (diagnostic).

        A heap compaction purges cancelled entries, so this value may
        *decrease* without any event firing; treat it as "entries the heap
        currently holds", not "events that will fire".
        """
        return len(self._heap)

    @property
    def heap_high_water(self) -> int:
        """Deepest the event heap has ever been (diagnostic).

        A running maximum: compaction never lowers it. Counted when read
        (DESIGN §3): the heap shrinks only by a pop or a compaction, so
        ``run``/``step`` look at its length before each pop, ``_compact``
        before it purges, and this read folds in the current length —
        exact, without the ``schedule*`` methods keeping it.
        """
        return max(self._heap_high_water, len(self._heap))

    @property
    def cancelled_pending(self) -> int:
        """Lazily-cancelled entries currently in the heap (diagnostic)."""
        return self._cancelled_pending

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; a zero delay fires
        after all events already scheduled for the current instant (FIFO
        tie-break). Returns the handle for :meth:`cancel`.
        """
        if 0.0 < delay < _INF:
            self._seq = seq = self._seq + 1
            handle = [self.now + delay, seq, callback]
            heappush(self._heap, handle)
            return handle
        if delay == 0.0:
            return self.schedule_now(callback)
        # Negative, NaN or infinite. NaN compares False to everything, so
        # the chained test above is what keeps it out of the heap, where
        # it would fire between its neighbours and set ``now`` to NaN.
        raise SchedulingError(
            f"delay must be finite and non-negative (delay={delay})")

    def schedule_now(self, callback: Callable[[], None]) -> EventHandle:
        """Zero-delay fast path: fire ``callback`` at the current instant,
        after everything already scheduled for it (FIFO tie-break).

        Skips the delay validation and clock arithmetic of
        :meth:`schedule`; self-scheduling callbacks that re-arm at the
        current time hit this path.
        """
        self._seq = seq = self._seq + 1
        handle = [self.now, seq, callback]
        heappush(self._heap, handle)
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute, finite simulation ``time``."""
        if not self.now <= time < _INF:
            raise SchedulingError(
                f"cannot schedule at t={time}: not a finite time at or "
                f"after now={self.now}"
            )
        self._seq = seq = self._seq + 1
        handle = [time, seq, callback]
        heappush(self._heap, handle)
        return handle

    # -- cancellation ---------------------------------------------------------

    def cancel(self, handle: EventHandle) -> None:
        """Prevent ``handle``'s event from firing.

        Idempotent, and a no-op once the event has fired (including from
        inside its own callback). The entry stays in the heap until it
        surfaces or until dead entries exceed half of a non-trivial heap,
        at which point the heap is compacted.
        """
        if handle[2] is None:
            return
        handle[2] = None
        n = self._cancelled_pending + 1
        self._cancelled_pending = n
        size = len(self._heap)
        if size > _COMPACT_MIN_HEAP and 2 * n > size:
            self._compact()

    def is_pending(self, handle: EventHandle) -> bool:
        """True while ``handle``'s event is still waiting to fire (neither
        cancelled nor fired)."""
        return handle[2] is not None

    def _compact(self) -> None:
        """Purge lazily-cancelled entries from the heap, in place.

        In-place (slice assignment) so that a ``run()`` loop holding a
        local reference to the heap list keeps seeing the live heap.
        Removing dead entries and re-heapifying cannot reorder live
        events: the (time, seq) comparison is a total order.
        """
        heap = self._heap
        # A cancel storm inside a callback purges what it pushed before
        # the loop's next look; without this the peak is lost.
        if len(heap) > self._heap_high_water:
            self._heap_high_water = len(heap)
        heap[:] = [h for h in heap if h[2] is not None]
        heapify(heap)
        self._cancelled_pending = 0

    # -- run loop -----------------------------------------------------------

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def _dispatch(self, handle: EventHandle) -> None:
        """Fire one event: the single dispatch body shared by
        :meth:`step` and :meth:`run`, so stepped tests see the same
        profiler accounting and bookkeeping as full runs. (``run()``
        inlines this body — keep them in sync.)"""
        callback = handle[2]
        handle[2] = None
        self._events_processed += 1
        prof = self.profiler
        if prof is None:
            callback()
        else:
            t0 = perf_counter()
            callback()
            prof.record(callback, perf_counter() - t0)

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns False if the heap is empty or :meth:`stop` was requested
        (mirroring ``run()``'s exit conditions; the next ``run()`` or an
        explicit ``resume_stepping()`` clears the stop request).
        """
        if self._stopped:
            return False
        heap = self._heap
        while heap:
            if len(heap) > self._heap_high_water:  # look before it shrinks
                self._heap_high_water = len(heap)
            handle = heappop(heap)
            if handle[2] is None:
                self._cancelled_pending -= 1
                continue
            time = handle[0]
            if time < self.now:  # pragma: no cover - defensive invariant
                raise SimulationError("event heap yielded an event in the past")
            self.now = time
            self._dispatch(handle)
            return True
        return False

    def resume_stepping(self) -> None:
        """Clear a pending :meth:`stop` request so :meth:`step` works again."""
        self._stopped = False

    # -- self-diagnosis -------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Audit the kernel's internal bookkeeping; return violation strings.

        Exhaustive (O(heap)) ground-truth checks of everything the hot
        path maintains incrementally — the :mod:`repro.validate` engine
        checker and the edge-case tests call this between events, never
        from inside a callback:

        * the heap property itself holds over the entry list;
        * no pending entry is scheduled before ``now`` (events in the
          past can never fire);
        * ``cancelled_pending`` equals the true count of dead (``None``
          callback) entries — compaction and the pop paths both adjust
          it, and a fired entry left in the heap shows up here too.
        """
        violations: List[str] = []
        heap = self._heap
        n = len(heap)
        for i in range(1, n):
            if heap[i] < heap[(i - 1) >> 1]:
                violations.append(
                    f"heap property violated at index {i}: "
                    f"{heap[i]!r} < parent {heap[(i - 1) >> 1]!r}"
                )
                break
        dead = 0
        for h in heap:
            if h[2] is None:
                dead += 1
            elif h[0] < self.now:
                violations.append(
                    f"pending event at t={h[0]} is in the past (now={self.now})"
                )
        if dead != self._cancelled_pending:
            violations.append(
                f"cancelled_pending={self._cancelled_pending} but the heap "
                f"holds {dead} cancelled entries"
            )
        return violations

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``stop()``.

        Parameters
        ----------
        until:
            Optional horizon (absolute time). Events strictly after it stay
            in the heap; the clock is advanced to ``until`` on exit so a
            subsequent ``run`` resumes cleanly.
        max_events:
            Optional safety valve for tests: abort after N callbacks.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        # Locals for the dispatch loop. The heap list is bound once —
        # compaction mutates it in place, so the binding stays valid. The
        # profiler is sampled once per run: attach it before calling run().
        heap = self._heap
        pop = heappop
        timer = perf_counter
        prof = self.profiler
        horizon = _INF if until is None else until
        try:
            while heap and not self._stopped:
                # The heap is about to shrink: whatever the last callback
                # (or the caller, before this run) pushed peaks here.
                if len(heap) > self._heap_high_water:
                    self._heap_high_water = len(heap)
                # Pop first: one heap operation per event instead of a
                # peek plus a pop. Only the single entry found beyond the
                # horizon goes back, under its own (time, seq) key, so the
                # order of live events is untouched.
                handle = pop(heap)
                callback = handle[2]
                if callback is None:
                    self._cancelled_pending -= 1
                    continue
                time = handle[0]
                if time > horizon:
                    heappush(heap, handle)
                    break
                self.now = time
                # Inlined _dispatch body (see _dispatch): one callback, no
                # extra frame on the hottest loop in the repository.
                handle[2] = None
                self._events_processed += 1
                if prof is None:
                    callback()
                else:
                    t0 = timer()
                    callback()
                    prof.record(callback, timer() - t0)
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"max_events={max_events} exceeded at t={self.now}"
                    )
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
