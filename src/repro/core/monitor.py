"""Queue monitoring and Figure-1 snapshots.

The paper's Figure 1 is a snapshot of a switch egress queue during the
Hadoop shuffle: the buffer persistently full of ECT-capable data packets
held at the marking threshold, leaving almost no room for the non-ECT
packets (pure ACKs, SYNs) that arrive in bursts and get dropped.

:class:`QueueMonitor` periodically samples a queue and records
:class:`QueueSnapshot` rows with the class composition of the queued
packets, so the experiment harness can regenerate that picture and tests
can assert the characterization quantitatively. The harness
(:func:`~repro.experiments.runner.run_cell`) builds every monitor of a
cell; the cell kind says whether each keeps its whole series or only its
busiest snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
    """Sample a queue every ``interval`` seconds into :attr:`snapshots`.

    Parameters
    ----------
    sim, queue, interval:
        Kernel, the queue to photograph, and the sampling period.
    busiest_only:
        Keep only the first snapshot with the most packets (what
        Figure 1 reads) instead of the whole series. Such a monitor
        classifies the queue's packets only when its length beats the
        best so far, or when the tracer wants ``queue.sample``.
    tracer:
        When set, every sample is also emitted on the bus as a
        ``"queue.sample"`` record.
    """

    def __init__(self, sim: Simulator, queue: QueueDisc, interval: float,
                 busiest_only: bool = False,
                 tracer: Optional[Tracer] = None):
        self._sim = sim
        self._queue = queue
        self._tracer = tracer
        self._busiest_only = busiest_only
        self._best = -1  # packets in the kept busiest snapshot
        #: The kept samples in time order: every one, or (busiest-only)
        #: at most the busiest.
        self.snapshots: List[QueueSnapshot] = []
        self._timer = PeriodicTimer(sim, interval, self._sample)

    def start(self, first_delay: Optional[float] = None) -> None:
        """Begin sampling."""
        self._timer.start(first_delay)

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()

    def _sample(self) -> None:
        queue, tracer = self._queue, self._tracer
        traced = tracer is not None and tracer.wants("queue.sample")
        if (self._busiest_only and queue.qlen_packets <= self._best
                and not traced):
            return  # cannot replace the kept snapshot, and nobody listens
        snap = take_snapshot(queue, self._sim.now, queue=queue.name)
        if traced:
            tracer.emit(snap.time, "queue.sample", queue.name, snap)
        if not self._busiest_only:
            self.snapshots.append(snap)
        elif snap.qlen_packets > self._best:
            self._best = snap.qlen_packets
            self.snapshots = [snap]

    def busiest(self) -> Optional[QueueSnapshot]:
        """The first snapshot with the most packets (Figure-1 candidate)."""
        return max(self.snapshots, default=None, key=lambda s: s.qlen_packets)
