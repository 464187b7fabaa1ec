"""Small process-like helpers on top of the raw event heap.

The kernel itself only knows about one-shot callbacks. Two recurring
patterns in the network and MapReduce layers deserve names:

* :class:`PeriodicTimer` — a self-rescheduling timer (queue monitors,
  DCTCP observation windows, scheduler heartbeats).
* :func:`delay_chain` — run a sequence of (delay, callback) stages one
  after another (task lifecycle: read → compute → write).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["PeriodicTimer", "delay_chain"]


class PeriodicTimer:
    """Fire ``callback`` every ``interval`` seconds until stopped.

    The first firing happens ``interval`` seconds after :meth:`start`
    (or after ``first_delay`` if given). The callback receives no
    arguments; capture state via closure.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_handle", "_running", "fire_count")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]):
        if interval <= 0:
            raise SchedulingError(f"timer interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._running = False
        self.fire_count = 0

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._running

    @property
    def interval(self) -> float:
        """Seconds between firings."""
        return self._interval

    def start(self, first_delay: Optional[float] = None) -> None:
        """Arm the timer. No-op if already running."""
        if self._running:
            return
        self._running = True
        delay = self._interval if first_delay is None else first_delay
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer. Idempotent."""
        self._running = False
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self.fire_count += 1
        self._callback()
        if self._running:  # the callback may have called stop()
            self._handle = self._sim.schedule(self._interval, self._fire)


def delay_chain(
    sim: Simulator,
    stages: Sequence[Tuple[float, Callable[[], None]]],
    on_done: Optional[Callable[[], None]] = None,
) -> None:
    """Run ``stages`` sequentially: wait ``delay``, call ``fn``, next stage.

    Used by the MapReduce engine to model a task as read/compute/write
    stages without a coroutine framework. ``on_done`` fires immediately
    after the last stage's callback.
    """
    stages = list(stages)

    def run_from(i: int) -> None:
        if i >= len(stages):
            if on_done is not None:
                on_done()
            return
        delay, fn = stages[i]

        def fire() -> None:
            fn()
            run_from(i + 1)

        sim.schedule(delay, fire)

    run_from(0)
