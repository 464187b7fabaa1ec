"""Per-layer metrics: derivation from per-round span folds and from cells.

Which end-to-end metric each of them should move, and on which workload, is
the table in README.md (``BENCHMARK.json`` may carry only name/unit/better).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence

from tracer import Fold, Tracer

__all__ = ["median", "p95", "span_metrics", "cell_metrics"]


def median(values: Iterable[float]) -> float:
    """Median, 0.0 for no samples (a boundary that was not exercised)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile, 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _sum(fold: Fold, names: Iterable[str], column: int) -> float:
    return sum(fold[n][column] for n in names if n in fold)


def _prefixed(fold: Fold, prefix: str, suffix: str = "") -> List[str]:
    return [n for n in fold if n.startswith(prefix) and n.endswith(suffix)]


def span_metrics(folds: List[Fold], tracer: Tracer, scale: float = 1.0
                 ) -> Dict[str, Optional[float]]:
    """Hot-path per-layer metrics from per-round folds.

    Rounds do identical work, so call counts come from the first round and
    timings are the median over rounds, times ``scale`` (the host-speed
    factor).  A metric whose boundary is missing reads None.
    """
    def timing(pick) -> float:
        return median(pick(f) for f in folds) * scale

    first = folds[0] if folds else {}
    schedule = ["sim:Simulator.schedule", "sim:Simulator.schedule_now",
                "sim:Simulator.schedule_at"]
    roots, rx, hooks = tracer.root_names, tracer.rx_names, tracer.hook_names

    def layer_roots(layer: str) -> List[str]:
        return [n for n in roots if n.startswith(layer + ":")]

    out: Dict[str, Optional[float]] = {
        "sim.loop_self_s": timing(lambda f: _sum(f, ["sim:Simulator.run"], 2)),
        "sim.schedule_calls": _sum(first, schedule, 0),
        "sim.schedule_s": timing(lambda f: _sum(f, schedule, 2)),
        "sim.cancel_calls": _sum(first, ["sim:EventHandle.cancel"], 0),
        "sim.heap_high_water": float(tracer.heap_high_water),
        "net.port_self_s": timing(lambda f: _sum(f, _prefixed(f, "net:Port."), 2)),
        "net.port_send_calls": _sum(first, ["net:Port.send"], 0),
        "net.switch_self_s": timing(
            lambda f: _sum(f, _prefixed(f, "net:Switch."), 2)),
        "net.host_self_s": timing(lambda f: _sum(f, _prefixed(f, "net:Host."), 2)),
        "core.enqueue_calls": _sum(
            first, _prefixed(first, "core:", ".enqueue"), 0),
        "core.enqueue_s": timing(
            lambda f: _sum(f, _prefixed(f, "core:", ".enqueue"), 2)),
        "core.dequeue_calls": _sum(
            first, _prefixed(first, "core:", ".dequeue"), 0),
        "core.dequeue_s": timing(
            lambda f: _sum(f, _prefixed(f, "core:", ".dequeue"), 2)),
        "tcp.rx_calls": _sum(first, [n for n in rx if n.startswith("tcp:")], 0),
        "tcp.rx_self_s": timing(
            lambda f: _sum(f, [n for n in rx if n.startswith("tcp:")], 2)),
        "tcp.timer_calls": _sum(first, layer_roots("tcp"), 0),
        "tcp.timer_self_s": timing(lambda f: _sum(f, layer_roots("tcp"), 2)),
        "mapreduce.self_s": timing(
            lambda f: _sum(f, _prefixed(f, "mapreduce:"), 2)),
        "mapreduce.callbacks": _sum(first, layer_roots("mapreduce"), 0),
        "workloads.self_s": timing(
            lambda f: _sum(f, _prefixed(f, "workloads:"), 2)),
        "stats.hook_calls": _sum(
            first, [n for n in hooks if n.startswith("stats:")], 0),
        "stats.hook_s": timing(
            lambda f: _sum(f, [n for n in hooks if n.startswith("stats:")], 2)),
    }
    gone = {
        "Simulator.run": ("sim.loop_self_s", "sim.heap_high_water"),
        "Simulator.schedule": ("sim.schedule_calls", "sim.schedule_s"),
        "EventHandle.cancel": ("sim.cancel_calls",),
        "Port.send": ("net.port_self_s", "net.port_send_calls"),
        "Switch.receive": ("net.switch_self_s",),
        "Host.receive": ("net.host_self_s",),
        "Host.bind": ("tcp.rx_calls", "tcp.rx_self_s"),
        "Host.add_delivery_hook": ("stats.hook_calls", "stats.hook_s"),
        "MapReduceEngine.submit": ("mapreduce.self_s",),
        "QueueDisc": ("core.enqueue_calls", "core.enqueue_s",
                      "core.dequeue_calls", "core.dequeue_s"),
    }
    for boundary in tracer.missing:
        for name in gone.get(boundary, ()):
            out[name] = None
    return out


def cell_metrics(results: Sequence) -> Dict[str, float]:
    """Exact simulated statistics of one round's cells (``CellResult``s)."""
    events = sum(r.manifest["timings"]["events"] for r in results)
    fluid = [r.manifest["fluid"] for r in results if r.manifest.get("fluid")]
    fluid_bytes = sum(f["fluid_bytes"] for f in fluid)
    total_bytes = sum(r.metrics.bytes_transferred for r in results)
    flows_started = 0
    for r in results:
        for name, bucket in (r.manifest.get("workloads") or {}).items():
            if name != "shuffle":  # the generators' flows, not MapReduce's
                flows_started += (bucket.get("responses")
                                  or bucket).get("flows", 0)
    return {
        "sim.events": events,
        "sim.fluid_rounds": sum(f["rounds"] for f in fluid),
        "sim.fluid_promotions": sum(f["promotions"] for f in fluid),
        "sim.fluid_demotions": sum(sum(f["demotions"].values()) for f in fluid),
        "sim.fluid_bytes_frac": (fluid_bytes / total_bytes
                                 if fluid and total_bytes else 0.0),
        "core.marks": sum(r.metrics.queue.marks for r in results),
        "core.drops_early": sum(r.metrics.queue.drops_early for r in results),
        "core.drops_tail": sum(r.metrics.queue.drops_tail for r in results),
        "core.ack_drops": sum(r.metrics.queue.ack_drops for r in results),
        "tcp.flows": sum(r.metrics.flows_completed + r.metrics.flows_failed
                         for r in results),
        "tcp.retransmits": sum(r.metrics.retransmits for r in results),
        "tcp.rtos": sum(r.metrics.rtos for r in results),
        "workloads.flows_started": flows_started,
    }
