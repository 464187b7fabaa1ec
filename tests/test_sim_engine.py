"""Tests for the discrete-event kernel."""

import math
import random
from bisect import insort

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_zero_delay_fires_after_current(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(5.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delay_rejected(self, bad):
        """NaN compares False to everything, so a ``delay < 0`` check
        passes it; once in the heap it fires between its neighbours and
        sets ``now`` to NaN mid-run."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.now == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_schedule_at_rejected(self, bad):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0])
    def test_zero_delay_takes_the_schedule_now_path(self, zero):
        sim = Simulator(start_time=3.0)
        order = []
        sim.schedule_now(lambda: order.append("first"))
        h = sim.schedule(zero, lambda: order.append("second"))
        assert h[0] == 3.0
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 3.0

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(h)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.cancel(h)
        sim.cancel(h)
        assert not sim.is_pending(h)
        assert sim.cancelled_pending == 1  # counted once, not twice

    def test_handle_state_transitions(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        assert sim.is_pending(h)
        sim.run()
        assert not sim.is_pending(h)

    def test_cancel_after_fire_is_safe(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(h)  # no error
        assert not sim.is_pending(h)
        assert sim.cancelled_pending == 0
        assert sim.check_invariants() == []

    def test_handle_is_the_plain_list_heap_entry(self):
        sim = Simulator()
        for h in (sim.schedule(1.0, lambda: None),
                  sim.schedule(0.0, lambda: None),
                  sim.schedule_now(lambda: None),
                  sim.schedule_at(2.0, lambda: None)):
            assert type(h) is list
            assert any(h is entry for entry in sim._heap)

    def test_callback_cancelling_its_own_handle_is_a_noop(self):
        sim = Simulator()
        box = []
        box.append(sim.schedule(1.0, lambda: sim.cancel(box[0])))
        sim.run()
        assert sim.events_processed == 1
        assert sim.cancelled_pending == 0
        assert sim.check_invariants() == []

    def test_check_invariants_reports_unaccounted_dead_entry(self):
        """A ``None`` callback slot the counter does not account for —
        a fired entry left in the heap, or a slot cleared behind
        ``cancel()``'s back — is a ``cancelled_pending`` mismatch."""
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.check_invariants() == []
        h[2] = None
        violations = sim.check_invariants()
        assert len(violations) == 1
        assert "cancelled_pending=0" in violations[0]
        assert "holds 1 cancelled" in violations[0]


class TestRunControl:
    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_stop_exits_loop(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_with_compaction_mid_run(self):
        """run(max_events=...) across a lazy-cancel compaction.

        A mass cancellation early in the run pushes the cancelled share
        past the compaction threshold, so the heap is physically rebuilt
        *while* a bounded run is dispatching. The budget must count only
        real dispatches (skipped tombstones are free), the guard must
        still fire exactly on budget, and resuming after the guard must
        deliver every surviving event exactly once.
        """
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(1.0 + i, lambda i=i: fired.append(i))
            for i in range(400)
        ]

        def cancel_tail():
            for h in handles[100:]:
                sim.cancel(h)

        sim.schedule(0.5, cancel_tail)
        with pytest.raises(SimulationError) as exc:
            sim.run(max_events=50)
        assert "max_events=50" in str(exc.value)
        # 50 dispatches = the canceller + the first 49 survivors.
        assert fired == list(range(49))
        # Compaction ran mid-run: without it 351 entries (301 of them
        # tombstones) would remain; the rebuilt heap is far smaller.
        assert sim.pending_events <= 200
        sim.check_invariants()
        sim.run()
        assert fired == list(range(100))
        assert sim.events_processed == 101
        assert sim.pending_events == 0

    def test_step_returns_false_on_empty_heap(self):
        assert Simulator().step() is False

    def test_step_fires_exactly_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_step_respects_stop(self):
        """step() and run() share exit conditions: a stop request parks
        the stepped dispatch too, until explicitly cleared."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.stop()
        assert sim.step() is False
        assert fired == []
        sim.resume_stepping()
        assert sim.step() is True
        assert fired == [1]

    def test_step_feeds_profiler(self):
        """Regression: step() used to bypass the profiler, so stepped
        tests under-counted telemetry relative to run()."""
        from repro.telemetry.profiler import LoopProfiler

        sim = Simulator()
        prof = LoopProfiler().attach(sim)

        def cb():
            pass

        sim.schedule(1.0, cb)
        sim.schedule(2.0, cb)
        assert sim.step() is True
        assert sim.step() is True
        report = prof.finish()
        assert report["events"] == 2
        cats = report["categories"]
        key = next(iter(cats))
        assert cats[key]["events"] == 2


class TestRunHorizon:
    """``run(until=...)`` pops first and pushes the one not-yet-due entry
    back; nothing an outside reader can see may tell the difference."""

    def test_event_just_past_horizon_stays_pending(self):
        sim = Simulator()
        fired = []
        horizon = 2.0
        late = math.nextafter(horizon, math.inf)
        sim.schedule_at(1.0, lambda: fired.append(sim.now))
        sim.run(until=1.5)
        sim.schedule_at(late, lambda: fired.append(sim.now))
        before = (sim.pending_events, sim.cancelled_pending,
                  sim.heap_high_water)
        sim.run(until=horizon)
        assert fired == [1.0]
        assert sim.now == horizon
        assert (sim.pending_events, sim.cancelled_pending,
                sim.heap_high_water) == before == (1, 0, 1)
        assert sim.check_invariants() == []
        sim.run()
        assert fired == [1.0, late]
        assert sim.now == late
        assert sim.pending_events == 0

    def test_event_at_the_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        assert fired == [2.0]

    def test_cancelled_entry_beyond_horizon_is_accounted_once(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(3))
        dead = sim.schedule_at(4.0, lambda: fired.append(4))
        sim.cancel(dead)
        sim.run(until=2.0)  # 3.0 goes back; the dead 4.0 is never reached
        assert fired == []
        assert (sim.pending_events, sim.cancelled_pending) == (2, 1)
        assert sim.check_invariants() == []
        sim.run(until=2.5)  # and again: still one dead entry, not two
        assert (sim.pending_events, sim.cancelled_pending) == (2, 1)
        sim.run()
        assert fired == [3]
        assert (sim.pending_events, sim.cancelled_pending) == (0, 0)
        assert sim.check_invariants() == []

    def test_cancelled_entry_ahead_of_the_horizon_entry_is_discarded(self):
        sim = Simulator()
        fired = []
        dead = sim.schedule_at(3.0, lambda: fired.append(3))
        sim.schedule_at(4.0, lambda: fired.append(4))
        sim.cancel(dead)
        sim.run(until=2.0)  # surfaces the dead 3.0, pushes the live 4.0 back
        assert fired == []
        assert (sim.pending_events, sim.cancelled_pending) == (1, 0)
        assert sim.check_invariants() == []
        sim.run()
        assert fired == [4]

    def test_stop_inside_the_last_due_event_keeps_the_rest(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(1.5, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 1.0  # a stopped run does not jump to the horizon
        assert sim.pending_events == 1
        sim.run(until=2.0)
        assert fired == [1, 2]


class _SortedListModel:
    """Reference kernel: live events in one sorted list of
    ``(time, seq, child_delay)``; the head is always the next to fire."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.live = []
        self.fired = []

    def add(self, time, child_delay=None):
        self.seq += 1
        insort(self.live, (time, self.seq, child_delay))

    def cancel(self, seq):
        self.live = [e for e in self.live if e[1] != seq]

    def _fire_head(self):
        time, seq, child_delay = self.live.pop(0)
        self.now = time
        self.fired.append((time, seq))
        if child_delay is not None:
            self.add(time + child_delay)

    def run(self, until):
        while self.live and self.live[0][0] <= until:
            self._fire_head()
        if self.now < until:
            self.now = until

    def step(self):
        if not self.live:
            return False
        self._fire_head()
        return True


class TestAgainstSortedListModel:
    @pytest.mark.parametrize("seed", [1, 20261002])
    def test_random_operation_sequence_fires_in_model_order(self, seed,
                                                            monkeypatch):
        rng = random.Random(seed)
        sim, model = Simulator(), _SortedListModel()
        fired, handles, compactions = [], [], []
        compact = Simulator._compact

        def counted_compact(sim):
            compactions.append(sim.now)
            compact(sim)

        monkeypatch.setattr(Simulator, "_compact", counted_compact)

        def arm(schedule, value, child_delay):
            def fire():
                fired.append((sim.now, handle[1]))
                if child_delay is not None:
                    arm(sim.schedule, child_delay, None)

            handle = schedule(value, fire)
            handles.append(handle)

        def cancel(handle):
            # Already fired or cancelled: a no-op on both sides.
            sim.cancel(handle)
            model.cancel(handle[1])

        delays = (0.0, 0.25, 0.5, 1.0)  # a small set, so ties are common
        for i in range(1500):
            op = rng.random()
            if op < 0.50:
                delay = (rng.choice(delays) if rng.random() < 0.5
                         else rng.uniform(0, 20))
                child = rng.choice(delays) if rng.random() < 0.3 else None
                arm(sim.schedule, delay, child)
                model.add(model.now + delay, child)
            elif op < 0.62:
                time = sim.now + rng.choice(delays)
                arm(sim.schedule_at, time, None)
                model.add(time)
            elif op < 0.88 and handles:
                # Mostly recent handles (likely still pending), some stale.
                cancel(rng.choice(handles[-40:] if rng.random() < 0.8
                                  else handles))
            elif op < 0.95:
                until = sim.now + rng.choice((0.0, 0.25, 0.5, rng.uniform(0, 2)))
                sim.run(until=until)
                model.run(until)
            else:
                assert sim.step() is model.step()
            if i % 500 == 499:  # a timer storm: most of the heap goes dead
                for handle in handles[-300:]:
                    if rng.random() < 0.9:
                        cancel(handle)
            assert sim.now == model.now
            assert fired == model.fired
            assert sim.check_invariants() == []
        sim.run()
        model.run(math.inf)
        assert fired == model.fired
        assert len(fired) > 100
        assert compactions  # the sequence was deep and dead enough
