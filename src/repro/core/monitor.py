"""Queue monitoring and Figure-1 snapshots.

The paper's Figure 1 is a snapshot of a switch egress queue during the
Hadoop shuffle: the buffer persistently full of ECT-capable data packets
held at the marking threshold, leaving almost no room for the non-ECT
packets (pure ACKs, SYNs) that arrive in bursts and get dropped.

:class:`QueueMonitor` periodically samples a queue and records
:class:`QueueSnapshot` rows with the class composition of the queued
packets, so the experiment harness can regenerate that picture and tests
can assert the characterization quantitatively.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.qdisc import QueueDisc
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTimer
from repro.sim.trace import Tracer

__all__ = ["QueueSnapshot", "QueueMonitor"]


@dataclass(frozen=True)
class QueueSnapshot:
    """Composition of one queue at one instant."""

    time: float
    qlen_packets: int
    qlen_bytes: int
    limit_packets: int
    ect_data: int       #: queued ECT-capable data segments
    nonect_data: int    #: queued non-ECT data segments (non-ECN flows)
    pure_acks: int      #: queued pure ACKs
    syns: int           #: queued SYN / SYN-ACK packets
    ce_marked: int      #: queued packets already carrying CE
    #: Name of the sampled queue. Lets downstream consumers (the
    #: stability analysis, exporters) split a merged snapshot list back
    #: into per-queue series; "" for snapshots taken outside a monitor.
    queue: str = ""

    @property
    def occupancy(self) -> float:
        """Fill fraction of the physical buffer."""
        return self.qlen_packets / self.limit_packets if self.limit_packets else 0.0

    @property
    def ect_fraction(self) -> float:
        """Fraction of queued packets that are ECT-capable."""
        if self.qlen_packets == 0:
            return 0.0
        return (self.ect_data + self.ce_marked) / self.qlen_packets


def take_snapshot(q: QueueDisc, now: float, queue: str = "") -> QueueSnapshot:
    """Classify every packet currently queued in ``q``."""
    ect_data = nonect_data = pure_acks = syns = ce = 0
    for pkt in q.packets():
        if pkt.is_ce:
            ce += 1
        elif pkt.is_syn:
            syns += 1
        elif pkt.is_pure_ack:
            pure_acks += 1
        elif pkt.is_ect:
            ect_data += 1
        else:
            nonect_data += 1
    return QueueSnapshot(
        time=now,
        qlen_packets=q.qlen_packets,
        qlen_bytes=q.qlen_bytes,
        limit_packets=q.limit_packets,
        ect_data=ect_data,
        nonect_data=nonect_data,
        pure_acks=pure_acks,
        syns=syns,
        ce_marked=ce,
        queue=queue,
    )


class QueueMonitor:
    """Sample a queue every ``interval`` seconds into a snapshot buffer.

    Parameters
    ----------
    sim, queue, interval:
        Kernel, the queue to photograph, and the sampling period.
    max_samples:
        When set, keep only the most recent N snapshots (ring buffer);
        the default retains everything, matching the Figure-1 harness.
    tracer:
        When set, every sample is also emitted on the bus as a
        ``"queue.sample"`` record, so the telemetry JSONL writer sees the
        same rows this monitor retains — one snapshot path, two sinks.
    """

    def __init__(self, sim: Simulator, queue: QueueDisc, interval: float,
                 max_samples: Optional[int] = None,
                 tracer: Optional[Tracer] = None):
        self._sim = sim
        self._queue = queue
        self._tracer = tracer
        self.snapshots: "deque[QueueSnapshot]" = deque(maxlen=max_samples)
        #: Samples evicted because the buffer wrapped (``max_samples``
        #: reached). Non-zero means :attr:`snapshots` is a suffix of the
        #: run, not the whole of it — surfaced in run manifests so a
        #: truncated series cannot masquerade as a complete one.
        self.dropped = 0
        self._timer = PeriodicTimer(sim, interval, self._sample)

    def start(self, first_delay: Optional[float] = None) -> None:
        """Begin sampling."""
        self._timer.start(first_delay)

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()

    def _sample(self) -> None:
        snap = take_snapshot(self._queue, self._sim.now, queue=self._queue.name)
        if len(self.snapshots) == self.snapshots.maxlen:
            self.dropped += 1
        self.snapshots.append(snap)
        if self._tracer is not None:
            self._tracer.emit(snap.time, "queue.sample", self._queue.name, snap)

    # -- aggregates over the collected snapshots -----------------------------

    def mean_occupancy(self) -> float:
        """Mean buffer fill fraction across snapshots."""
        if not self.snapshots:
            return 0.0
        return sum(s.occupancy for s in self.snapshots) / len(self.snapshots)

    def mean_qlen(self) -> float:
        """Mean queue length (packets) across snapshots."""
        if not self.snapshots:
            return 0.0
        return sum(s.qlen_packets for s in self.snapshots) / len(self.snapshots)

    def peak_qlen(self) -> int:
        """Maximum sampled queue length (packets)."""
        return max((s.qlen_packets for s in self.snapshots), default=0)

    def busiest(self) -> Optional[QueueSnapshot]:
        """The snapshot with the highest occupancy (Figure-1 candidate)."""
        return max(self.snapshots, default=None, key=lambda s: s.qlen_packets)

    # -- telemetry integration -----------------------------------------------

    def register_metrics(self, registry) -> None:
        """Expose this monitor's aggregates as pull gauges in ``registry``."""
        registry.gauge("monitor.mean_occupancy",
                       fn=self.mean_occupancy, queue=self._queue.name)
        registry.gauge("monitor.mean_qlen",
                       fn=self.mean_qlen, queue=self._queue.name)
        registry.gauge("monitor.peak_qlen",
                       fn=lambda: float(self.peak_qlen()), queue=self._queue.name)
        registry.gauge("monitor.samples",
                       fn=lambda: float(len(self.snapshots)),
                       queue=self._queue.name)
        registry.gauge("monitor.dropped",
                       fn=lambda: float(self.dropped),
                       queue=self._queue.name)
