"""Event-loop profiling and sweep progress reporting.

:class:`LoopProfiler` attaches to a :class:`~repro.sim.engine.Simulator`
and measures where wall-clock time goes: events fired per second, heap
depth high-water mark, per-callback-category wall time, and the
sim-time/wall-time ratio (how much faster than real time the simulation
runs). When no profiler is attached the kernel's dispatch loop takes a
single predicted-not-taken branch per event — see
``tests/test_telemetry.py`` for the measured bound.

Callback categories are derived from ``__qualname__`` with any
``.<locals>`` closure suffix stripped. The transmit path schedules
**bound methods** (e.g. ``Port._tx_done``), whose qualname is already
``Class.method``; closures created inside a method (delayed-ACK timers,
RNG samplers) account to the enclosing method rather than to one
anonymous bucket per closure; ``functools.partial`` objects are unwrapped
to the function they wrap.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Optional, TextIO

from repro.sim.engine import Simulator

__all__ = ["LoopProfiler", "ProgressFanout", "ProgressReporter"]


def callback_category(callback: Callable) -> str:
    """Stable accounting bucket for a scheduled callback.

    Bound methods and plain functions bucket by ``__qualname__``
    (``Port._tx_done``); closures bucket under the method that created
    them (the ``.<locals>`` suffix is stripped); ``functools.partial``
    chains are unwrapped to the underlying callable; callables without a
    qualname (rare) bucket by type name.
    """
    # Unwrap functools.partial (possibly nested) to the wrapped callable.
    func = getattr(callback, "func", None)
    while func is not None and callable(func):
        callback = func
        func = getattr(callback, "func", None)
    qn = getattr(callback, "__qualname__", None)
    if qn is None:
        return type(callback).__name__
    head, sep, _tail = qn.partition(".<locals>")
    return head if sep else qn


class LoopProfiler:
    """Measure the dispatch loop of one simulator run.

    Usage::

        prof = LoopProfiler()
        prof.attach(sim)
        sim.run()
        report = prof.finish()

    Attributes
    ----------
    categories:
        ``{category: [n_events, wall_seconds]}`` accumulated so far.
    """

    def __init__(self):
        self.categories: Dict[str, list] = {}
        self._sim: Optional[Simulator] = None
        self._t0_wall: Optional[float] = None
        self._t0_sim = 0.0
        self._t0_events = 0
        self._wall_elapsed = 0.0
        self._events = 0
        self._sim_elapsed = 0.0
        self._heap_high_water = 0

    # -- lifecycle ----------------------------------------------------------

    def attach(self, sim: Simulator) -> "LoopProfiler":
        """Start profiling ``sim``. One profiler per simulator at a time."""
        if self._sim is not None:
            raise ValueError("profiler is already attached")
        self._sim = sim
        self._t0_wall = time.perf_counter()
        self._t0_sim = sim.now
        self._t0_events = sim.events_processed
        sim.profiler = self
        return self

    def finish(self) -> Dict[str, object]:
        """Detach from the simulator and return :meth:`report`."""
        sim = self._sim
        if sim is not None:
            self._wall_elapsed += time.perf_counter() - self._t0_wall
            self._events += sim.events_processed - self._t0_events
            self._sim_elapsed += sim.now - self._t0_sim
            self._heap_high_water = max(
                self._heap_high_water, sim.heap_high_water)
            sim.profiler = None
            self._sim = None
        return self.report()

    # -- kernel-facing hot path ----------------------------------------------

    def record(self, callback: Callable, wall_dt: float) -> None:
        """Account one dispatched callback (called by the kernel)."""
        cat = callback_category(callback)
        slot = self.categories.get(cat)
        if slot is None:
            self.categories[cat] = [1, wall_dt]
        else:
            slot[0] += 1
            slot[1] += wall_dt

    # -- results -------------------------------------------------------------

    @property
    def events(self) -> int:
        """Events dispatched while attached."""
        if self._sim is not None:
            return self._events + self._sim.events_processed - self._t0_events
        return self._events

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds spent while attached."""
        if self._sim is not None:
            return self._wall_elapsed + time.perf_counter() - self._t0_wall
        return self._wall_elapsed

    @property
    def events_per_second(self) -> float:
        """Dispatch throughput (events / wall second)."""
        wall = self.wall_seconds
        return self.events / wall if wall > 0 else 0.0

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall second (>1 = faster than hardware)."""
        wall = self.wall_seconds
        if self._sim is not None:
            sim_dt = self._sim_elapsed + self._sim.now - self._t0_sim
        else:
            sim_dt = self._sim_elapsed
        return sim_dt / wall if wall > 0 else 0.0

    @property
    def heap_high_water(self) -> int:
        """Deepest the event heap got while attached."""
        if self._sim is not None:
            return max(self._heap_high_water, self._sim.heap_high_water)
        return self._heap_high_water

    def report(self) -> Dict[str, object]:
        """JSON-serialisable profile summary."""
        cats = {
            cat: {"events": n, "wall_s": w}
            for cat, (n, w) in sorted(
                self.categories.items(), key=lambda kv: -kv[1][1])
        }
        return {
            "events": self.events,
            "wall_s": self.wall_seconds,
            "events_per_s": self.events_per_second,
            "sim_wall_ratio": self.sim_wall_ratio,
            "heap_high_water": self.heap_high_water,
            "categories": cats,
        }

    def render(self, top: int = 12) -> str:
        """Human-readable profile table."""
        rep = self.report()
        lines = [
            f"events        : {rep['events']}",
            f"wall time     : {rep['wall_s']:.3f}s",
            f"events/sec    : {rep['events_per_s']:,.0f}",
            f"sim/wall ratio: {rep['sim_wall_ratio']:.2f}x",
            f"heap high-water: {rep['heap_high_water']} events",
        ]
        cats = list(rep["categories"].items())[:top]
        if cats:
            width = max(len(c) for c, _ in cats)
            lines.append("hottest callback categories (by wall time):")
            for cat, row in cats:
                lines.append(
                    f"  {cat:<{width}}  {row['events']:>9} ev  "
                    f"{row['wall_s'] * 1e3:>9.1f} ms"
                )
        return "\n".join(lines)


class ProgressReporter:
    """Progress callback for long sweeps, with rate and ETA.

    Instances are drop-in ``progress(done, total, label)`` callables for
    the sweep executor (:func:`~repro.experiments.parallel.run_cells`),
    and so for every ``grid`` preset and ``report``. Completion events
    from all worker processes funnel through the one parent-side
    instance, so ``done`` aggregates naturally; cells served from the
    result cache (labels ending in ``[cached]``) are counted separately
    and excluded from the ETA estimate — a cache hit completes in
    microseconds and would otherwise make the remaining-time projection
    wildly optimistic.
    """

    CACHED_SUFFIX = " [cached]"
    #: Label suffix for cells that were deduplicated onto an identical
    #: config within the same submission (see
    #: :attr:`repro.experiments.parallel.SweepReport.aliases`). Like
    #: cache hits, they complete in microseconds and are excluded from
    #: the ETA's rate estimate.
    DEDUP_SUFFIX = " [dedup]"

    def __init__(self, stream: Optional[TextIO] = None, min_interval_s: float = 0.0):
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval_s = min_interval_s
        self._t0: Optional[float] = None
        self._last_print = 0.0
        #: Cells reported as served from a cache so far.
        self.cached = 0
        #: Cells reported as deduplicated within a submission.
        self.deduped = 0
        #: Total cells reported done so far (cached included).
        self.done = 0

    def __call__(self, done: int, total: int, label: str) -> None:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        self.done = done
        if label.endswith(self.CACHED_SUFFIX):
            self.cached += 1
        elif label.endswith(self.DEDUP_SUFFIX):
            self.deduped += 1
        elapsed = now - self._t0
        if done < total and now - self._last_print < self._min_interval_s:
            return
        self._last_print = now
        executed = done - self.cached - self.deduped
        if executed > 0 and elapsed > 0:
            rate = executed / elapsed
            eta = (total - done) / rate
            suffix = f" ({elapsed:.0f}s elapsed, ~{eta:.0f}s left)"
        else:
            suffix = ""
        if self.cached and done >= total:
            suffix += f" ({self.cached} cached)"
        print(f"  [{done:3d}/{total}] {label}{suffix}", file=self._stream)


class ProgressFanout:
    """Multiplex one ``(done, total, label)`` stream to many subscribers.

    A fanout is itself a progress callable, so anything that accepts a
    ``progress`` argument (:func:`~repro.experiments.parallel.run_cells`,
    the figure generators, the farm scheduler's per-job streams) can feed
    several consumers at once — a :class:`ProgressReporter` on stderr
    plus any number of watching farm clients, say.

    Subscribers are registered with :meth:`subscribe`, which returns a
    token for :meth:`unsubscribe`. A subscriber that raises is dropped
    (its first exception is remembered on ``dropped``): one dead watcher
    socket must never stall the sweep or the other subscribers.
    """

    def __init__(self):
        self._subs: Dict[int, Callable[[int, int, str], None]] = {}
        self._next_token = 0
        #: ``{token: exception}`` for subscribers dropped after raising.
        self.dropped: Dict[int, BaseException] = {}

    def subscribe(self, callback: Callable[[int, int, str], None]) -> int:
        """Register ``callback`` for future events; returns its token."""
        self._next_token += 1
        self._subs[self._next_token] = callback
        return self._next_token

    def unsubscribe(self, token: int) -> None:
        """Remove a subscriber; unknown/already-dropped tokens are a no-op."""
        self._subs.pop(token, None)

    def __len__(self) -> int:
        return len(self._subs)

    def __call__(self, done: int, total: int, label: str) -> None:
        for token, callback in list(self._subs.items()):
            try:
                callback(done, total, label)
            except Exception as exc:
                self._subs.pop(token, None)
                self.dropped[token] = exc
