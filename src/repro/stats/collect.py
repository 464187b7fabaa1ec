"""Run-level metric collection.

:class:`LatencyCollector` hooks every host's delivery path and accumulates
end-to-end per-packet latency (the paper's third metric) without retaining
per-packet records: a running sum plus a fixed log-spaced histogram gives
mean and approximate percentiles, behind a bounded 4,096-sample buffer
that keeps the binning off the per-packet path.

:class:`RunMetrics` is the record one experiment cell produces — runtime,
throughput per node, latency, and the per-class queue counters the paper's
characterization rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.qdisc import QueueStats
from repro.net.network import Network

__all__ = ["LatencyCollector", "RunMetrics"]

#: Buffered latency samples that trigger a drain. A module global, not a
#: class attribute: the delivery hook compares against it once per packet.
DRAIN_AT = 4096


class LatencyCollector:
    """Streaming end-to-end latency statistics over delivered packets.

    Latencies are binned into log-spaced buckets between ``lo`` and ``hi``
    seconds (default 100 ns .. 10 s), which bounds percentile error to the
    bin ratio (~5% with 400 bins) at constant memory.

    The statistics are read once, when a run ends, so the delivery hook
    only buffers the sample; :meth:`_drain` folds the buffer into the sum,
    the maximum and the bins — in arrival order, with the same float
    operations a per-packet update would perform, so the results are
    bit-identical to eager accumulation. Every read drains first.

    Parameters
    ----------
    data_only:
        Count only payload-carrying packets. Default False: the paper's
        latency metric is per *packet*.
    """

    N_BINS = 400
    LO = 1e-7
    HI = 10.0

    def __init__(self, data_only: bool = False):
        self.data_only = data_only
        self._pending: list = []
        self._count = 0
        self._total = 0.0
        # Plain Python list: a single-element numpy int64 increment costs
        # several hundred ns of boxing per packet; list[int] += 1 does not.
        self._bins = [0] * (self.N_BINS + 2)
        self._log_lo = math.log(self.LO)
        self._log_ratio = (math.log(self.HI) - self._log_lo) / self.N_BINS
        self._max_latency = 0.0

    # -- ingestion (hot path) ---------------------------------------------------

    def hook(self, pkt, now: float) -> None:
        """Host delivery hook: record one packet's end-to-end latency."""
        if self.data_only and pkt.payload == 0:
            return
        pending = self._pending
        pending.append(now - pkt.created_at)
        if len(pending) >= DRAIN_AT:
            self._drain()

    def _drain(self) -> None:
        """Fold the buffered samples into the statistics, oldest first.

        A plain ``total += lat`` loop and ``math.log`` per sample: ``sum()``
        is Neumaier-compensated from Python 3.12 and ``np.log``'s SIMD
        paths differ from libm in the last ulp, and either would move
        ``mean_latency`` / ``p99_latency`` between interpreters.
        """
        pending = self._pending
        if not pending:
            return
        total = self._total
        peak = self._max_latency
        bins = self._bins
        lo, hi, top = self.LO, self.HI, self.N_BINS + 1
        log, log_lo, log_ratio = math.log, self._log_lo, self._log_ratio
        for lat in pending:
            total += lat
            if lat > peak:
                peak = lat
            if lat <= lo:
                idx = 0
            elif lat >= hi:
                idx = top
            else:
                idx = 1 + int((log(lat) - log_lo) / log_ratio)
            bins[idx] += 1
        self._count += len(pending)
        self._total = total
        self._max_latency = peak
        pending.clear()

    def attach(self, network: Network) -> "LatencyCollector":
        """Register this collector on every host of ``network``."""
        for host in network.hosts:
            host.add_delivery_hook(self.hook)
        return self

    def credit(self, lat: float, n: int, data: bool = True) -> None:
        """Record ``n`` virtual deliveries at closed-form latency ``lat``.

        Hybrid-fidelity runs (repro.sim.fluid) deliver fluid traffic
        without packets; crediting the analytic per-packet latency here
        keeps a hybrid run's latency metrics comparable with packet mode.
        """
        if n <= 0 or (self.data_only and not data):
            return
        self._drain()  # buffered deliveries came first: keep the sum's order
        self._count += n
        self._total += lat * n
        if lat > self._max_latency:
            self._max_latency = lat
        if lat <= self.LO:
            idx = 0
        elif lat >= self.HI:
            idx = self.N_BINS + 1
        else:
            idx = 1 + int((math.log(lat) - self._log_lo) / self._log_ratio)
        self._bins[idx] += n

    # -- results (each read drains the buffer first) ---------------------------------

    @property
    def count(self) -> int:
        """Packets recorded."""
        self._drain()
        return self._count

    @property
    def total(self) -> float:
        """Summed latency of the recorded packets (seconds)."""
        self._drain()
        return self._total

    @property
    def max_latency(self) -> float:
        """Largest latency recorded (seconds)."""
        self._drain()
        return self._max_latency

    @property
    def mean(self) -> float:
        """Mean end-to-end latency (seconds)."""
        count = self.count
        return self._total / count if count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile (q in [0, 100]) from the histogram."""
        count = self.count
        if count == 0:
            return 0.0
        target = count * q / 100.0
        cum = np.cumsum(np.asarray(self._bins, dtype=np.int64))
        idx = int(np.searchsorted(cum, target))
        if idx <= 0:
            return self.LO
        if idx >= self.N_BINS + 1:
            return self._max_latency
        # bin idx covers [lo*r^(idx-1), lo*r^idx); return its geometric centre
        lo_edge = math.exp(self._log_lo + (idx - 1) * self._log_ratio)
        hi_edge = math.exp(self._log_lo + idx * self._log_ratio)
        return math.sqrt(lo_edge * hi_edge)


@dataclass
class RunMetrics:
    """Everything one experiment cell reports.

    The three headline metrics mirror the paper's Section III: ``runtime``
    (inversely proportional to effective cluster throughput),
    ``throughput_per_node_bps`` (average goodput per node) and
    ``mean_latency`` (average end-to-end latency per packet).
    """

    runtime: float = 0.0
    bytes_transferred: int = 0
    n_nodes: int = 0
    mean_latency: float = 0.0
    p99_latency: float = 0.0
    packets_delivered: int = 0
    queue: QueueStats = field(default_factory=QueueStats)
    flows_completed: int = 0
    flows_failed: int = 0
    retransmits: int = 0
    rtos: int = 0
    syn_retries: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_per_node_bps(self) -> float:
        """Average application goodput per node (bits/second)."""
        if self.runtime <= 0 or self.n_nodes == 0:
            return 0.0
        return self.bytes_transferred * 8.0 / self.runtime / self.n_nodes

    @property
    def cluster_throughput_bps(self) -> float:
        """Aggregate application goodput (bits/second)."""
        if self.runtime <= 0:
            return 0.0
        return self.bytes_transferred * 8.0 / self.runtime
