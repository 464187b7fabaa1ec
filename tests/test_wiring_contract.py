"""The wiring contract: the packet path is wired once, at construction.

Ports, endpoints and the dispatch loop resolve their callbacks, peers and
qdisc entry points when an instance is *built* (DESIGN §3, "Wired once").
So a class-level wrapper installed before ``run_cell`` — which is how the
benchmark suite's tracer observes every layer without touching a source
file — must still see every call. This test installs counting wrappers
that way and checks them against the counters the cell keeps itself; it
fails if a hoist ever moves to import time (the wrappers would count
nothing) or if a hot-path method is renamed away from under the tracer.
"""

import functools
from collections import Counter

import repro.core.registry  # noqa: F401 - loads every QueueDisc subclass
from repro.core.qdisc import QueueDisc
from repro.experiments import run_cell
from repro.net.host import Host
from repro.net.port import Port
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from tests.test_cell_kinds import TINY


class _Calls:
    """Per-instance call counts of class-level wrapped methods."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.counts = {}     # "Class.method" -> Counter keyed by id(instance)
        self.instances = {}  # id -> instance (kept alive: ids stay unique)

    def wrap(self, cls, attr, counted=lambda args, out: True):
        """Count calls of ``cls.attr`` for which ``counted(args, result)``."""
        fn = cls.__dict__[attr]
        counts = self.counts.setdefault(f"{cls.__name__}.{attr}", Counter())
        instances = self.instances

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            out = fn(obj, *args, **kwargs)
            if counted(args, out):
                instances[id(obj)] = obj
                counts[id(obj)] += 1
            return out

        self._monkeypatch.setattr(cls, attr, wrapper)

    def of(self, name, obj):
        return self.counts[name][id(obj)]

    def seen(self, cls):
        return [o for o in self.instances.values() if isinstance(o, cls)]

    def total(self, suffix, obj):
        """Calls on ``obj`` summed over every class defining ``suffix``."""
        return sum(c[id(obj)] for name, c in self.counts.items()
                   if name.endswith(suffix))


def _qdisc_classes():
    classes, todo = [], [QueueDisc]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


def test_class_level_wrappers_see_every_call(monkeypatch):
    config = TINY["cell"]
    plain = run_cell(config)

    calls = _Calls(monkeypatch)
    for cls, attr in ((Port, "send"), (Port, "_tx_done"),
                      (Port, "_deliver_head"), (Switch, "receive"),
                      (Host, "send"), (Host, "receive"),
                      (Simulator, "schedule_now"), (Simulator, "schedule_at")):
        calls.wrap(cls, attr)
    # schedule(0.0) forwards to schedule_now, which counts it.
    calls.wrap(Simulator, "schedule", counted=lambda args, out: args[0] != 0.0)
    for cls in _qdisc_classes():
        if "enqueue" in cls.__dict__:
            calls.wrap(cls, "enqueue")
        if "dequeue" in cls.__dict__:  # an empty queue's None is no departure
            calls.wrap(cls, "dequeue", counted=lambda args, out: out is not None)

    traced = run_cell(config)
    monkeypatch.undo()

    assert traced.metrics == plain.metrics

    ports = calls.seen(Port)
    assert len(ports) >= 2 * config.n_hosts  # every host link, both ways
    for port in ports:
        stats = port.qdisc.stats
        sends = calls.of("Port.send", port)
        assert sends == stats.arrivals == calls.total(".enqueue", port.qdisc)
        assert sends == (port.tx_packets + port.failed_tx_packets
                         + stats.drops + len(port.qdisc) + port.busy)
        assert calls.total(".dequeue", port.qdisc) == stats.departures
        assert calls.of("Port._tx_done", port) == (
            port.tx_packets + port.failed_tx_packets)
        assert calls.of("Port._deliver_head", port) <= port.tx_packets
    assert sum(p.tx_packets for p in ports) > 1000  # a real run, not a stub
    assert sum(p.qdisc.stats.drops for p in ports) > 0

    switches, hosts = calls.seen(Switch), calls.seen(Host)
    assert switches and len(hosts) == config.n_hosts
    for switch in switches:
        assert calls.of("Switch.receive", switch) == switch.rx_packets
    for host in hosts:
        assert calls.of("Host.receive", host) == host.rx_packets
        assert (calls.of("Host.send", host)
                == calls.of("Port.send", host.uplink))

    (sim,) = calls.seen(Simulator)
    scheduled = sum(calls.of(f"Simulator.{name}", sim)
                    for name in ("schedule", "schedule_now", "schedule_at"))
    assert scheduled == sim._seq
    assert scheduled >= sim.events_processed > 0
