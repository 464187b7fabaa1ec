"""Direct drivers: one layer at a time, through its public classes only.

Each driver times a fixed loop of one layer's primitive operation and
returns the cost per operation; ``run_drivers`` repeats each
``DRIVER_REPEATS`` times and keeps the median.  They run in the traced
invocation *before* the tracer is installed, so they time unpatched code.
Inputs are fixed and nothing here touches the disk.
"""

from __future__ import annotations

import json
import pickle
import statistics
from time import perf_counter
from typing import Callable, Dict, Optional

from repro.experiments import QueueSetup, run_cell
from repro.experiments.bulkcell import BulkConfig
from repro.experiments.cache import config_cache_key
from repro.farm.protocol import config_from_wire, config_to_wire
from repro.net.packet import ECN_ECT0, FLAG_ACK, Packet
from repro.net.topology import build_single_rack
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import Telemetry
from repro.units import gbps, mb, us
from repro.validate import ValidationSuite

from workloads import CAL_REF_S, calibrate, tiny_config

__all__ = ["DRIVER_REPEATS", "run_drivers"]

DRIVER_REPEATS = 3
_N = 20_000


def _schedule_fire_ns() -> float:
    """Schedule N callbacks at scattered delays on a bare kernel, fire all."""
    sim = Simulator()
    fired = [0]

    def cb() -> None:
        fired[0] += 1

    t0 = perf_counter()
    for i in range(_N):
        sim.schedule(1e-7 * ((i * 2654435761) % 9973 + 1), cb)
    sim.run()
    dt = perf_counter() - t0
    if fired[0] != _N:
        raise RuntimeError(f"{_N - fired[0]} scheduled callbacks never fired")
    return dt / _N * 1e9


def _packet_construct_ns() -> float:
    t0 = perf_counter()
    for i in range(_N):
        Packet(src=1, sport=5000, dst=2, dport=8020, seq=i * 1448,
               payload=1448, flags=FLAG_ACK, ecn=ECN_ECT0,
               created_at=i * 1e-6, pkt_id=i)
    return (perf_counter() - t0) / _N * 1e9


def _hop_ns() -> float:
    """Bare forwarding host -> switch -> host: DropTail, no TCP, per hop.

    Packets are offered at half the line rate so no queue builds.
    """
    sim = Simulator()
    rng = RngRegistry(seed=1)
    setup = QueueSetup(kind="droptail")
    spec = build_single_rack(
        sim, 2, switch_qdisc=lambda name: setup.build(name, gbps(1), rng))
    src, dst = spec.hosts
    n = _N // 4
    gap = 2 * 1500 * 8 / gbps(1)

    def offer(i: int) -> None:
        src.send(Packet(src=src.node_id, sport=1, dst=dst.node_id, dport=9,
                        payload=1448, created_at=sim.now,
                        pkt_id=next(sim.pkt_ids)))
        if i + 1 < n:
            sim.schedule(gap, lambda: offer(i + 1))

    sim.schedule(gap, lambda: offer(0))
    t0 = perf_counter()
    sim.run()
    dt = perf_counter() - t0
    if dst.rx_packets != n:
        raise RuntimeError(f"forwarded {dst.rx_packets} of {n} packets")
    return dt / (2 * n) * 1e9


def _qdisc_cycle_ns(kind: str) -> Callable[[], float]:
    """Enqueue/dequeue cycle of one registered qdisc, held a few packets
    deep so AQMs run their full admit path, not the empty-queue exit."""
    def run() -> float:
        setup = QueueSetup(
            kind=kind, target_delay_s=None if kind == "droptail" else us(100))
        q = setup.build("bench", gbps(1), RngRegistry(seed=1))
        now = 0.0
        t0 = perf_counter()
        for i in range(_N):
            q.enqueue(Packet(src=1, sport=1, dst=2, dport=2, payload=1448,
                             ecn=ECN_ECT0, created_at=now, pkt_id=i), now)
            now += 6e-6
            if len(q) > 8:
                q.dequeue(now)
                q.dequeue(now)
        while q.dequeue(now) is not None:
            now += 6e-6
        return (perf_counter() - t0) / _N * 1e9
    return run


def _segment_ns() -> float:
    """One uncongested 8 MB flow on a two-host rack, per data segment."""
    cell = run_cell(BulkConfig(n_hosts=2, flow_bytes=mb(8)))
    return cell.manifest["timings"]["wall_s"] / (mb(8) / 1448) * 1e9


def _tiny_results():
    return [run_cell(tiny_config(kind, seed=7))
            for kind in ("droptail", "red", "marking", "codel")]


def _pickle_us(results) -> float:
    """What the pool pays per cell: pickle the result out, and back in."""
    t0 = perf_counter()
    for _ in range(25):
        for r in results:
            pickle.loads(pickle.dumps(r))
    return (perf_counter() - t0) / (25 * len(results)) * 1e6


def _cache_key_us(results) -> float:
    t0 = perf_counter()
    for _ in range(50):
        for r in results:
            config_cache_key(r.config)
    return (perf_counter() - t0) / (50 * len(results)) * 1e6


def _encode_us(results) -> float:
    """Config -> wire envelope -> JSON text, per config."""
    t0 = perf_counter()
    for _ in range(50):
        for r in results:
            json.dumps(config_to_wire(r.config))
    return (perf_counter() - t0) / (50 * len(results)) * 1e6


def _decode_us(results) -> float:
    """JSON text -> validated config object, per config."""
    wires = [json.dumps(config_to_wire(r.config)) for r in results]
    t0 = perf_counter()
    for _ in range(50):
        back = [config_from_wire(json.loads(w)) for w in wires]
    dt = perf_counter() - t0
    if back != [r.config for r in results]:
        raise RuntimeError("wire round-trip changed a config")
    return dt / (50 * len(results)) * 1e6


def _instrumentation_ratios(repeats: int) -> Dict[str, float]:
    """``run_cell`` with the profiler / with armed checkers, over plain.

    The three variants alternate, so host-speed drift cancels in the ratio.
    """
    config = tiny_config("red", seed=7)
    variants = {
        "plain": dict,
        "telemetry": lambda: {"telemetry": Telemetry(profile=True)},
        "validate": lambda: {"checks": ValidationSuite()},
    }
    walls: Dict[str, list] = {name: [] for name in variants}
    for _ in range(repeats):
        for name, kwargs in variants.items():
            t0 = perf_counter()
            run_cell(config, **kwargs())
            walls[name].append(perf_counter() - t0)
    plain = statistics.median(walls["plain"])
    return {
        "telemetry.profiler_overhead_ratio":
            statistics.median(walls["telemetry"]) / plain,
        "validate.armed_overhead_ratio":
            statistics.median(walls["validate"]) / plain,
    }


def run_drivers(repeats: Optional[int] = None) -> Dict[str, float]:
    """Every direct-driver metric: the median of ``repeats`` runs (default
    ``DRIVER_REPEATS``), each scaled by a host-speed probe taken right
    before it."""
    repeats = repeats or DRIVER_REPEATS

    def med(fn: Callable[[], float]) -> float:
        return statistics.median(
            CAL_REF_S / calibrate() * fn() for _ in range(repeats))

    results = _tiny_results()
    out = {
        "sim.schedule_fire_ns": med(_schedule_fire_ns),
        "net.packet_construct_ns": med(_packet_construct_ns),
        "net.hop_ns": med(_hop_ns),
        "core.red_cycle_ns": med(_qdisc_cycle_ns("red")),
        "core.marking_cycle_ns": med(_qdisc_cycle_ns("marking")),
        "core.droptail_cycle_ns": med(_qdisc_cycle_ns("droptail")),
        "core.codel_cycle_ns": med(_qdisc_cycle_ns("codel")),
        "tcp.segment_ns": med(_segment_ns),
        "experiments.parallel.pickle_us": med(lambda: _pickle_us(results)),
        "experiments.cache.key_us": med(lambda: _cache_key_us(results)),
        "farm.protocol.encode_us": med(lambda: _encode_us(results)),
        "farm.protocol.decode_us": med(lambda: _decode_us(results)),
    }
    out.update(_instrumentation_ratios(repeats))
    return out

