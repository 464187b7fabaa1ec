"""Hot-path overhaul guarantees: heap equivalence, determinism.

The event-core optimizations (plain-list heap entries, lazy-cancel
compaction, bound-method transmit path, fused RED enqueue/dequeue) are
only admissible because they are *observationally invisible*: not a
single event may fire in a different order, and back-to-back runs in one
process must produce byte-identical traces. These tests pin those
guarantees down.
"""

import random
from functools import partial

import pytest

from repro.core.droptail import DropTail
from repro.errors import TopologyError
from repro.experiments.config import (
    SHALLOW_BUFFER_PACKETS,
    ExperimentConfig,
    QueueSetup,
)
from repro.experiments.runner import run_cell
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tcp.endpoint import TcpVariant
from repro.telemetry import Telemetry
from repro.telemetry.profiler import callback_category
from repro.units import us


# ---------------------------------------------------------------------------
# Reference kernel: the dumbest possible correct implementation.
# ---------------------------------------------------------------------------

class _RefEntry:
    __slots__ = ("time", "seq", "callback", "state")

    def __init__(self, time, seq, callback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.state = "pending"  # -> "cancelled" | "fired"


class _RefSim:
    """Flat list of entries, ``min()`` to pick the next event, every
    counter recomputed by scanning. Models the kernel's documented
    contract — FIFO tie-break, lazy cancellation, compaction once dead
    entries exceed half of a >64-entry heap — with nothing incremental."""

    def __init__(self):
        self.now = 0.0
        self._entries = []
        self._seq = 0
        self.heap_high_water = 0
        self.events_processed = 0

    @property
    def pending_events(self):
        return len(self._entries)

    @property
    def cancelled_pending(self):
        return sum(1 for e in self._entries if e.state == "cancelled")

    def schedule(self, delay, callback):
        self._seq += 1
        entry = _RefEntry(self.now + delay, self._seq, callback)
        self._entries.append(entry)
        self.heap_high_water = max(self.heap_high_water, len(self._entries))
        return entry

    def cancel(self, entry):
        if entry.state != "pending":
            return
        entry.state = "cancelled"
        size = len(self._entries)
        if size > 64 and 2 * self.cancelled_pending > size:
            self._entries = [e for e in self._entries if e.state == "pending"]

    def is_pending(self, entry):
        return entry.state == "pending"

    def step(self):
        while self._entries:
            entry = min(self._entries, key=lambda e: (e.time, e.seq))
            self._entries.remove(entry)
            if entry.state == "cancelled":
                continue
            self.now = entry.time
            entry.state = "fired"
            self.events_processed += 1
            entry.callback()
            return True
        return False

    def run(self):
        while self.step():
            pass

    def check_invariants(self):
        return []  # nothing incremental to audit


def _churn(sim, order, n_ops=1000, seed=1234, stepped=False):
    """Drive a kernel through deterministic schedule/cancel/fire churn.

    Delays are drawn from a coarse grid so same-instant ties (the FIFO
    tie-break) occur constantly; callbacks themselves schedule follow-up
    events and cancel earlier ones, so cancellation interleaves with
    dispatch exactly like retransmission-timer churn does. On top of the
    random mix it plays the patterns the stack relies on: cancelling a
    handle that already fired, a callback cancelling its own handle and
    a same-instant sibling, a timer re-armed from inside its own
    callback (the RTO pattern), and mass cancellations from inside a
    callback that compact the heap mid-dispatch.

    Returns ``(audit, mid_dispatch_compactions)``: the diagnostic
    counters after every operation, and how many cancels issued from
    inside a callback shrank the heap.
    """
    rng = random.Random(seed)
    live, spent = [], []
    audit = []
    dispatching = False
    compactions = 0
    timer = None

    def note():
        audit.append((sim.cancelled_pending, sim.heap_high_water,
                      sim.events_processed, sim.pending_events))

    def schedule(delay, callback):
        handle = sim.schedule(delay, callback)
        assert sim.is_pending(handle)
        note()
        return handle

    def cancel(handle):
        nonlocal compactions
        before = sim.pending_events
        sim.cancel(handle)
        assert not sim.is_pending(handle)
        if dispatching and sim.pending_events < before:
            compactions += 1
        note()

    def rearm():  # TcpSender._arm_rto: cancel whatever is there, re-arm
        nonlocal timer
        if timer is not None:
            cancel(timer)
        timer = schedule(rng.randrange(1, 40) * 1e-4, on_timer)

    def on_timer():
        order.append((round(sim.now, 9), "timer"))
        if rng.random() < 0.8:
            rearm()  # cancels the handle that is firing right now: a no-op

    def fire(label, box):
        nonlocal dispatching
        dispatching = True
        order.append((round(sim.now, 9), label))
        spent.append(box[0])
        r = rng.random()
        if r < 0.35:
            live.append(spawn(rng.randrange(1, 40) * 1e-4, label + 100000))
        if r < 0.25 and live:
            cancel(live.pop(rng.randrange(len(live))))
        if 0.4 < r < 0.5:
            cancel(spent[rng.randrange(len(spent))])  # fired long ago
        if 0.5 < r < 0.53:
            rearm()  # the per-ACK re-arm of a still-pending timer
        if 0.6 < r < 0.66:
            # Own handle (no-op) and a sibling due at this very instant.
            sibling = spawn(0.0, ("sibling", label))
            cancel(box[0])
            cancel(sibling)
        if 0.66 < r < 0.68 and len(live) > 300:
            # Mass cancel from inside a callback: compacts mid-dispatch.
            for _ in range(len(live) // 3):
                cancel(live.pop(rng.randrange(len(live))))
        dispatching = False

    def spawn(delay, label):
        box = []
        box.append(schedule(delay, partial(fire, label, box)))
        return box[0]

    rearm()
    for i in range(n_ops):
        live.append(spawn(rng.randrange(1, 40) * 1e-4, i))
        if rng.random() < 0.45 and live:
            cancel(live.pop(rng.randrange(len(live))))
    if stepped:
        while sim.step():
            note()
            assert sim.check_invariants() == []
    else:
        sim.run()
    note()
    return audit, compactions


class TestHeapEquivalence:
    def test_churn_order_matches_reference(self):
        """Optimized kernel fires the exact same (time, label) sequence as
        the reference kernel under cancel/reschedule churn."""
        ref_order, opt_order = [], []
        _churn(_RefSim(), ref_order)
        _churn(Simulator(), opt_order)
        assert opt_order == ref_order
        assert len(opt_order) > 300  # the scenario actually fired things

    @pytest.mark.parametrize("stepped", [False, True], ids=["run", "step"])
    def test_churn_counters_match_reference_after_every_op(self, stepped):
        """``cancelled_pending`` / ``heap_high_water`` / ``events_processed``
        / ``pending_events`` agree with the scan-everything reference after
        every schedule, cancel and (when stepping) dispatch — including
        across compactions triggered from inside a callback."""
        ref_order, opt_order = [], []
        ref_audit, ref_compactions = _churn(_RefSim(), ref_order, stepped=stepped)
        sim = Simulator()
        opt_audit, opt_compactions = _churn(sim, opt_order, stepped=stepped)
        assert opt_order == ref_order
        assert opt_audit == ref_audit
        assert opt_compactions == ref_compactions >= 1
        labels = [label for _time, label in opt_order]
        assert labels.count("timer") >= 2  # fired, re-armed itself, fired
        assert not any(isinstance(label, tuple) for label in labels), \
            "a sibling cancelled at its own instant fired anyway"
        assert sim.check_invariants() == []
        assert sim.pending_events == sim.cancelled_pending == 0

    def test_churn_exercises_compaction(self):
        """The churn load is heavy enough to cross the compaction
        threshold — otherwise the equivalence test proves nothing about it."""
        sim = Simulator()
        _churn(sim, [])
        assert sim.heap_high_water > 64  # compaction-eligible heap depth

    def test_compaction_keeps_counters_truthful(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1e-3 * (i + 1), lambda i=i: fired.append(i))
                   for i in range(200)]
        assert sim.pending_events == 200
        for h in handles[:150]:
            sim.cancel(h)
        # Compaction must have purged cancelled entries: the heap holds the
        # 50 live handles plus at most half-a-heap of dead ones, and the
        # cancelled counter agrees with what is actually in the heap.
        assert sim.pending_events < 200
        assert sim.pending_events - sim.cancelled_pending == 50
        assert sim.heap_high_water == 200  # running max never lowered
        sim.run()
        assert len(fired) == 50
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0
        assert sim.events_processed == 50


# ---------------------------------------------------------------------------
# Back-to-back determinism (per-run packet ids).
# ---------------------------------------------------------------------------

def _traced_cell_run(config):
    """Run one cell recording (time, pkt_id) of every delivered packet."""
    deliveries = []
    tracer = Tracer()
    tracer.subscribe(
        "deliver", lambda rec: deliveries.append((rec.time, rec.data.pkt_id)))
    cell = run_cell(config, telemetry=Telemetry(tracer=tracer))
    m = cell.metrics
    return deliveries, (m.runtime, m.mean_latency, m.packets_delivered,
                        m.retransmits)


class TestBackToBackDeterminism:
    def test_two_runs_in_one_process_are_identical(self):
        """Per-simulator packet ids make consecutive runs byte-identical:
        a process-global counter would give the second run different
        pkt_ids (and thus a different trace) than the first."""
        config = ExperimentConfig(
            queue=QueueSetup(kind="red",
                             buffer_packets=SHALLOW_BUFFER_PACKETS,
                             target_delay_s=us(500.0)),
            variant=TcpVariant.ECN,
            seed=7,
        ).scaled(0.02)
        first_trace, first_metrics = _traced_cell_run(config)
        second_trace, second_metrics = _traced_cell_run(config)
        assert len(first_trace) > 100
        assert first_trace == second_trace
        assert first_metrics == second_metrics
        # pkt_ids start from 0 every run — the counter is truly per-run.
        assert min(pid for _t, pid in first_trace) < 50


# ---------------------------------------------------------------------------
# Port/tracer ownership.
# ---------------------------------------------------------------------------

class TestTracerOwnership:
    def test_port_refuses_qdisc_with_foreign_tracer(self):
        sim = Simulator()
        qdisc = DropTail(10)
        qdisc.tracer = Tracer()  # someone else already claimed the queue
        with pytest.raises(TopologyError, match="different tracer"):
            Port(sim, "p0", rate_bps=1e9, delay_s=0.0,
                 qdisc=qdisc, tracer=Tracer())

    def test_port_installs_its_tracer_on_the_qdisc(self):
        sim = Simulator()
        qdisc = DropTail(10)
        tracer = Tracer()
        port = Port(sim, "p0", rate_bps=1e9, delay_s=0.0,
                    qdisc=qdisc, tracer=tracer)
        assert qdisc.tracer is tracer

    def test_port_accepts_qdisc_already_carrying_the_same_tracer(self):
        sim = Simulator()
        qdisc = DropTail(10)
        tracer = Tracer()
        qdisc.tracer = tracer
        Port(sim, "p0", rate_bps=1e9, delay_s=0.0,
             qdisc=qdisc, tracer=tracer)  # same bus: not a conflict


# ---------------------------------------------------------------------------
# Profiler labels for the bound-method transmit path.
# ---------------------------------------------------------------------------

class TestProfilerLabels:
    def test_bound_method_buckets_by_class_and_method(self):
        sim = Simulator()
        port = Port(sim, "p0", rate_bps=1e9, delay_s=0.0, qdisc=DropTail(10))
        assert callback_category(port._tx_done) == "Port._tx_done"
        assert callback_category(port._deliver_head) == "Port._deliver_head"

    def test_partial_unwraps_to_wrapped_callable(self):
        def tick(_n):
            pass

        wrapped = partial(partial(tick, 1))
        category = callback_category(wrapped)
        # Unwrapped to ``tick`` (a <locals> closure of this test), so it
        # buckets under the test method — not under ``partial``.
        expected = self.test_partial_unwraps_to_wrapped_callable.__qualname__
        assert category == expected  # not "partial", the type name

    def test_closure_buckets_under_enclosing_method(self):
        def outer():
            return lambda: None

        # Everything after the first ``.<locals>`` is stripped, so the
        # lambda accounts to the (test) function that ultimately made it.
        expected = self.test_closure_buckets_under_enclosing_method.__qualname__
        assert callback_category(outer()) == expected
