"""Tests for the unified telemetry layer.

Covers the metrics registry, trace-bus robustness fixes, the event-loop
profiler (including the disabled-path overhead bound), run manifests,
JSONL trace export, per-flow ``tcp.*`` timelines and queue samples on the
bus, and — most importantly — that attaching telemetry does not change
what a run measures (bit-identical ``RunMetrics``).
"""

import dataclasses
import io
import json

import pytest

from repro.errors import ConfigError
from repro.experiments.config import CellResult, ExperimentConfig, QueueSetup
from repro.experiments.runner import run_cell
from repro.sim import Simulator, Tracer
from repro.stats.collect import RunMetrics
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    LoopProfiler,
    MANIFEST_SCHEMA,
    MetricsRegistry,
    ProgressReporter,
    Telemetry,
    TraceJsonlWriter,
    build_manifest,
    metric_key,
    record_to_row,
)
from repro.telemetry.profiler import callback_category
from repro.units import us

TINY = 0.03125  # 8 MB Terasort: sub-second cells

#: The per-flow timeline kinds a TcpSender emits.
TCP_KINDS = ("tcp.cwnd", "tcp.retx", "tcp.rto", "tcp.ece")


def _red50_config(**kw):
    """A small cell that provably drops, marks, and delivers packets."""
    return ExperimentConfig(
        queue=QueueSetup(kind="red", target_delay_s=us(50)),
        allow_timeout=True,
        **kw,
    ).scaled(TINY)


def _default_config(**kw):
    return ExperimentConfig(
        queue=QueueSetup(kind="red", target_delay_s=us(500)),
        **kw,
    ).scaled(TINY)


# ---------------------------------------------------------------------------
# registry


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("queue.drops", {}) == "queue.drops"

    def test_labels_sorted(self):
        assert (metric_key("x", {"b": "2", "a": "1"})
                == metric_key("x", {"a": "1", "b": "2"})
                == "x{a=1,b=2}")


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)


class TestGauge:
    def test_push(self):
        g = Gauge("g")
        g.set(3.5)
        assert g.value == 3.5

    def test_pull(self):
        state = {"v": 0}
        g = Gauge("g", fn=lambda: state["v"])
        state["v"] = 7
        assert g.value == 7.0

    def test_set_on_pull_based_raises(self):
        g = Gauge("g", fn=lambda: 1)
        with pytest.raises(ValueError, match="pull-based"):
            g.set(2)


class TestHistogram:
    def test_mean_and_count(self):
        h = Histogram("h")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(0.002)
        assert h.max_value == 0.003

    def test_percentile_within_bin_error(self):
        h = Histogram("h", lo=1e-6, hi=1.0, n_bins=400)
        for i in range(1, 1001):
            h.observe(i / 1000.0)
        # log-spaced bins: relative error bounded by the bin ratio (~3.5%)
        assert h.percentile(50) == pytest.approx(0.5, rel=0.1)
        assert h.percentile(99) == pytest.approx(0.99, rel=0.1)

    def test_under_overflow_bins(self):
        h = Histogram("h", lo=1e-3, hi=1.0, n_bins=10)
        h.observe(1e-9)
        h.observe(50.0)
        assert h.count == 2
        assert h.percentile(1) == h.lo
        assert h.percentile(100) == 50.0

    def test_to_dict_keys(self):
        d = Histogram("h").to_dict()
        assert set(d) == {"count", "mean", "p50", "p99", "max"}

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("h", lo=1.0, hi=0.5)


class TestMetricsRegistry:
    def test_get_or_create_shares_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("drops", queue="p0")
        b = reg.counter("drops", queue="p0")
        assert a is b
        a.inc()
        assert reg.counter("drops", queue="p0").value == 1

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_shape_and_order(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(1.0)
        reg.histogram("c").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"b": 2}
        assert snap["gauges"] == {"a": 1.0}
        assert snap["histograms"]["c"]["count"] == 1
        json.loads(json.dumps(snap))  # JSON-safe

    def test_collector_runs_at_snapshot(self):
        reg = MetricsRegistry()
        reg.add_collector(lambda r: r.gauge("pushed").set(9.0))
        assert reg.snapshot()["gauges"]["pushed"] == 9.0

    def test_find_prefix(self):
        reg = MetricsRegistry()
        reg.counter("queue.drops", queue="p0")
        reg.counter("queue.marks", queue="p0")
        reg.counter("tcp.retx")
        assert [k for k, _ in reg.find("queue.")] == [
            "queue.drops{queue=p0}", "queue.marks{queue=p0}"]


# ---------------------------------------------------------------------------
# tracer robustness (satellites 1 and 2)


class TestTracerRobustness:
    def test_of_kind_without_record_all_raises(self):
        tr = Tracer()
        tr.emit(0.0, "drop", "p", None)
        with pytest.raises(ValueError, match="record_all"):
            tr.of_kind("drop")

    def test_of_kind_with_record_all(self):
        tr = Tracer(record_all=True)
        tr.emit(0.0, "drop", "p", None)
        tr.emit(0.0, "mark", "p", None)
        assert len(tr.of_kind("drop")) == 1

    def test_unsubscribe_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="no subscribers for kind 'nope'"):
            Tracer().unsubscribe("nope", lambda r: None)

    def test_unsubscribe_unknown_fn_raises(self):
        tr = Tracer()
        tr.subscribe("drop", lambda r: None)
        with pytest.raises(ValueError, match="not subscribed to kind 'drop'"):
            tr.unsubscribe("drop", lambda r: None)

    def test_unsubscribe_last_fn_clears_wants(self):
        tr = Tracer()
        fn = lambda r: None  # noqa: E731
        tr.subscribe("drop", fn)
        assert tr.wants("drop")
        tr.unsubscribe("drop", fn)
        assert not tr.wants("drop")


# ---------------------------------------------------------------------------
# profiler


class TestCallbackCategory:
    def test_method(self):
        assert callback_category(Simulator.run) == "Simulator.run"

    def test_closure_lambda_accounts_to_enclosing_scope(self):
        # qualname "...test_closure...<locals>.outer.<locals>.<lambda>"
        # collapses to everything before the first ".<locals>".
        def outer():
            return lambda: None

        assert callback_category(outer()) == (
            "TestCallbackCategory."
            "test_closure_lambda_accounts_to_enclosing_scope"
        )

    def test_no_qualname_falls_back_to_type(self):
        class Cb:
            def __call__(self):  # pragma: no cover - never invoked
                pass

        cb = Cb()
        assert callback_category(cb) == "Cb"


class TestLoopProfiler:
    def test_report_fields(self):
        sim = Simulator()
        prof = LoopProfiler().attach(sim)
        for i in range(100):
            sim.schedule(i * 1e-3, lambda: None)
        sim.run()
        rep = prof.finish()
        assert rep["events"] == 100
        assert rep["events_per_s"] > 0
        assert rep["heap_high_water"] == 100
        assert rep["sim_wall_ratio"] > 0
        assert sim.profiler is None
        assert sum(c["events"] for c in rep["categories"].values()) == 100

    def test_double_attach_raises(self):
        sim = Simulator()
        prof = LoopProfiler().attach(sim)
        with pytest.raises(ValueError, match="already attached"):
            prof.attach(sim)

    def test_render_mentions_headline_numbers(self):
        sim = Simulator()
        prof = LoopProfiler().attach(sim)
        sim.schedule(0.0, lambda: None)
        sim.run()
        prof.finish()
        text = prof.render()
        assert "events/sec" in text
        assert "heap high-water" in text

    def test_disabled_path_overhead_bound(self):
        """With no profiler the dispatch loop stays fast (one branch/event)."""
        import time

        sim = Simulator()
        n = 50_000
        for i in range(n):
            sim.schedule(i * 1e-6, lambda: None)
        t0 = time.perf_counter()
        sim.run()
        per_event = (time.perf_counter() - t0) / n
        assert sim.profiler is None
        # Generous CI-safe ceiling; the loop itself measures ~1 µs/event.
        assert per_event < 50e-6, f"{per_event * 1e6:.1f} µs/event"

    def test_heap_high_water_tracked_without_profiler(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i * 1e-3, lambda: None)
        assert sim.heap_high_water == 10
        sim.run()
        assert sim.heap_high_water == 10


class TestProgressReporter:
    def test_prints_progress_and_eta(self):
        buf = io.StringIO()
        progress = ProgressReporter(stream=buf)
        progress(1, 4, "cell-a")
        progress(4, 4, "cell-d")
        out = buf.getvalue()
        assert "[  1/4] cell-a" in out
        assert "[  4/4] cell-d" in out

    def test_min_interval_throttles_but_keeps_final(self):
        buf = io.StringIO()
        progress = ProgressReporter(stream=buf, min_interval_s=3600.0)
        progress(1, 3, "a")
        progress(2, 3, "b")
        progress(3, 3, "c")
        out = buf.getvalue()
        assert "b" not in out
        assert "c" in out  # final tick always printed


# ---------------------------------------------------------------------------
# determinism: telemetry must not change what a run measures


class TestDeterminism:
    def test_telemetry_on_off_bit_identical_metrics(self):
        cfg = _default_config(monitor_interval_s=2e-3)
        plain = run_cell(cfg)
        tel = Telemetry(profile=True)
        # Subscribed emission on every path: per-flow tcp.* timelines,
        # queue samples and the packet kinds.
        TraceJsonlWriter(tel.tracer, kinds=TCP_KINDS + ("queue.sample",))
        TraceJsonlWriter(tel.tracer)
        observed = run_cell(cfg, telemetry=tel)
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            observed.metrics)
        assert observed.snapshots == plain.snapshots

    def test_repeat_run_reproducible(self):
        a, b = run_cell(_default_config()), run_cell(_default_config())
        assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)


# ---------------------------------------------------------------------------
# manifests


class TestManifest:
    def test_cell_manifest_round_trips(self):
        cell = run_cell(_default_config())
        m = json.loads(json.dumps(cell.manifest))
        assert m["schema"] == MANIFEST_SCHEMA
        assert m["kind"] == "cell"
        assert m["label"] == cell.config.label()
        assert m["seed"] == 42
        assert m["config"]["queue"]["kind"] == "red"
        assert m["config"]["variant"] == "tcp-ecn"
        assert m["timings"]["wall_s"] > 0
        assert m["timings"]["events"] > 0
        assert m["metrics"]["runtime"] == cell.metrics.runtime
        assert m["metrics"]["throughput_per_node_bps"] > 0
        assert "telemetry" not in m  # no session attached

    def test_manifest_includes_telemetry_and_profile(self):
        tel = Telemetry(profile=True)
        cell = run_cell(_default_config(), telemetry=tel)
        m = cell.manifest
        assert m["profile"]["events"] == m["timings"]["events"]
        assert m["profile"]["heap_high_water"] > 0
        gauges = m["telemetry"]["gauges"]
        assert any(k.startswith("queue.marks") for k in gauges)
        assert gauges["mapreduce.reduces_done"] == 16.0
        json.loads(json.dumps(m))

    def test_write_manifest(self, tmp_path):
        cell = run_cell(_default_config())
        path = str(tmp_path / "manifest.json")
        assert cell.write_manifest(path) == path
        with open(path) as fh:
            assert json.load(fh)["schema"] == MANIFEST_SCHEMA

    def test_write_manifest_without_manifest_raises(self):
        res = CellResult(config=_default_config(), metrics=RunMetrics())
        with pytest.raises(ConfigError, match="no manifest"):
            res.write_manifest("unused.json")

    def test_build_manifest_zero_wall_guard(self):
        m = build_manifest(_default_config(), RunMetrics(), wall_s=0.0,
                           events=0)
        assert m["timings"]["sim_wall_ratio"] == 0.0


# ---------------------------------------------------------------------------
# JSONL trace export


class TestTraceExport:
    def test_trace_contains_drop_mark_deliver(self):
        tel = Telemetry()
        writer = TraceJsonlWriter(tel.tracer,
                                  kinds=("drop", "mark", "deliver"))
        run_cell(_red50_config(), telemetry=tel)
        rows = [json.loads(line) for line in writer.getvalue().splitlines()]
        kinds = {r["kind"] for r in rows}
        assert kinds == {"drop", "mark", "deliver"}
        for r in rows:
            assert set(r) >= {"t", "kind", "where", "src", "sport", "dst",
                              "dport", "seq", "ack", "payload", "size",
                              "flags", "ecn"}
        assert rows == sorted(rows, key=lambda r: r["t"])

    def test_kind_filter(self):
        tel = Telemetry()
        writer = TraceJsonlWriter(tel.tracer, kinds=("drop",))
        run_cell(_red50_config(), telemetry=tel)
        assert writer.rows_written > 0
        assert {json.loads(line)["kind"]
                for line in writer.getvalue().splitlines()} == {"drop"}

    def test_external_stream_and_detach(self):
        tr = Tracer()
        buf = io.StringIO()
        writer = TraceJsonlWriter(tr, out=buf, kinds=("drop",))
        tr.emit(1.0, "drop", "p0", None)
        writer.detach()
        writer.detach()  # idempotent
        tr.emit(2.0, "drop", "p0", None)
        assert buf.getvalue().count("\n") == 1
        with pytest.raises(ValueError, match="external stream"):
            writer.getvalue()

    def test_tcp_timeline_rows_carry_cc_state(self):
        tel = Telemetry()
        writer = TraceJsonlWriter(tel.tracer, kinds=TCP_KINDS)
        run_cell(_red50_config(), telemetry=tel)
        rows = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert "tcp.cwnd" in {r["kind"] for r in rows}
        assert rows == sorted(rows, key=lambda r: r["t"])
        # cwnd rows carry the congestion-control state, keyed by flow
        cwnd = next(r for r in rows if r["kind"] == "tcp.cwnd")
        assert {"where", "cwnd", "ssthresh", "rto", "state"} <= set(cwnd)

    def test_record_to_row_dict_payload(self):
        from repro.sim.trace import TraceRecord

        row = record_to_row(TraceRecord(1.0, "tcp.cwnd", "f0", {"cwnd": 3}))
        assert row == {"t": 1.0, "kind": "tcp.cwnd", "where": "f0", "cwnd": 3}

    def test_record_to_row_unknown_payload_reprs(self):
        from repro.sim.trace import TraceRecord

        row = record_to_row(TraceRecord(1.0, "x", "p", object()))
        assert "data" in row


# ---------------------------------------------------------------------------
# per-flow and per-queue timelines on the bus


class TestQueueTimelineRecorder:
    """``monitor_interval_s``: the cell's own monitors emit every sample
    on the bus as ``queue.sample``; a Terasort cell keeps each queue's
    busiest one in ``CellResult.snapshots``."""

    def test_samples_and_exports(self):
        cfg = _red50_config(monitor_interval_s=20e-3)
        tel = Telemetry()
        writer = TraceJsonlWriter(tel.tracer, kinds=("queue.sample",))
        cell = run_cell(cfg, telemetry=tel)
        rows = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert {"t", "where", "qlen_packets", "ect_data",
                "pure_acks"} <= set(rows[0])
        # one kept snapshot per sampled queue: its first busiest row
        assert [s.queue for s in cell.snapshots] == list(
            dict.fromkeys(r["where"] for r in rows))
        for kept in cell.snapshots:
            series = [r for r in rows if r["where"] == kept.queue]
            busiest = max(series, key=lambda r: r["qlen_packets"])
            assert (kept.time, kept.qlen_packets) == (
                busiest["t"], busiest["qlen_packets"])
        # the session only listens: a plain run keeps the same snapshots
        assert run_cell(cfg).snapshots == cell.snapshots

    def test_queue_sample_rides_the_tracer(self):
        seen = []
        tel = Telemetry()
        tel.tracer.subscribe("queue.sample", seen.append)
        run_cell(_red50_config(), telemetry=tel)
        assert seen == []  # no monitor_interval_s, no monitors
        run_cell(_red50_config(monitor_interval_s=20e-3), telemetry=tel)
        assert seen
        assert all(r.kind == "queue.sample" for r in seen)


# ---------------------------------------------------------------------------
# registry wiring through the stack


class TestTelemetrySession:
    def test_registry_sees_every_layer(self):
        tel = Telemetry()
        run_cell(_default_config(), telemetry=tel)
        snap = tel.snapshot()
        gauges = snap["gauges"]
        prefixes = {"queue.", "port.", "host.", "mapreduce."}
        for prefix in prefixes:
            assert any(k.startswith(prefix) for k in gauges), prefix
        # pull gauges reflect the final state of the run
        marks = sum(v for k, v in gauges.items()
                    if k.startswith("queue.marks"))
        assert marks > 0

    def test_tcp_sender_register_metrics(self):
        from repro.net.topology import build_single_rack
        from repro.tcp.endpoint import TcpConfig, TcpListener
        from repro.tcp.flow import start_bulk_flow

        from repro.core.droptail import DropTail

        sim = Simulator()
        spec = build_single_rack(
            sim, 2, switch_qdisc=lambda name: DropTail(100, name=name))
        cfg = TcpConfig()
        TcpListener(sim, spec.hosts[1], 50060, cfg)
        flow = start_bulk_flow(sim, spec.hosts[0], spec.hosts[1], 50060,
                               100_000, cfg)
        reg = MetricsRegistry()
        flow.sender.register_metrics(reg)
        sim.run(until=5.0)
        assert flow.result is not None and not flow.result.failed
        sent = [v for k, v in reg.snapshot()["gauges"].items()
                if k.startswith("tcp.data_packets_sent")]
        assert len(sent) == 1 and sent[0] > 0


# ---------------------------------------------------------------------------
# progress


class TestProgressReporterBatches:
    def test_single_batch_behaviour_unchanged(self):
        buf = io.StringIO()
        progress = ProgressReporter(stream=buf)
        progress(1, 4, "cell-a")
        progress(4, 4, "cell-d")
        out = buf.getvalue()
        assert "[  1/4] cell-a" in out
        assert "[  4/4] cell-d" in out
