"""Machine-readable export: JSONL trace streams.

The JSONL trace schema (one JSON object per line) is deliberately flat so
``jq``/pandas can consume it directly. Every row carries:

``t``
    Simulation time of the event (seconds, float).
``kind``
    Event kind as emitted on the :class:`~repro.sim.trace.Tracer` bus:
    ``enqueue``, ``drop``, ``mark``, ``tx``, ``link_loss``, ``deliver``
    for packet events; ``queue.sample`` for queue composition samples;
    ``tcp.cwnd``, ``tcp.retx``, ``tcp.rto``, ``tcp.ece`` for per-flow
    transport events.
``where``
    Emitting component (``"tor.p3"``, ``"h0"``, a flow key string…).

Packet events additionally carry ``src, sport, dst, dport, seq, ack,
payload, size, flags, ecn`` (flags and ecn as human-readable strings);
``queue.sample`` rows carry the :class:`~repro.core.monitor.QueueSnapshot`
fields; ``tcp.*`` rows carry whatever dict the endpoint attached (cwnd,
ssthresh, rto, state…). Unknown payload types fall back to ``repr``.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Optional, Sequence, TextIO

from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "record_to_row",
    "snapshot_to_row",
    "TraceJsonlWriter",
]

#: Every packet-event kind the network layer emits.
PACKET_KINDS = ("enqueue", "drop", "mark", "tx", "link_loss", "deliver")


def _packet_fields(pkt) -> Dict[str, Any]:
    from repro.net.packet import ECN_NAMES, flag_names

    return {
        "src": pkt.src, "sport": pkt.sport,
        "dst": pkt.dst, "dport": pkt.dport,
        "seq": pkt.seq, "ack": pkt.ack,
        "payload": pkt.payload, "size": pkt.size,
        "flags": flag_names(pkt.flags), "ecn": ECN_NAMES[pkt.ecn],
    }


def snapshot_to_row(snap) -> Dict[str, Any]:
    """Flatten a :class:`~repro.core.monitor.QueueSnapshot` into a dict."""
    return {
        "t": snap.time,
        "qlen_packets": snap.qlen_packets,
        "qlen_bytes": snap.qlen_bytes,
        "limit_packets": snap.limit_packets,
        "ect_data": snap.ect_data,
        "nonect_data": snap.nonect_data,
        "pure_acks": snap.pure_acks,
        "syns": snap.syns,
        "ce_marked": snap.ce_marked,
        "occupancy": snap.occupancy,
    }


def record_to_row(rec: TraceRecord) -> Dict[str, Any]:
    """Convert one trace record into a flat JSON-serialisable row."""
    row: Dict[str, Any] = {"t": rec.time, "kind": rec.kind, "where": rec.where}
    data = rec.data
    if data is None:
        return row
    if isinstance(data, dict):
        row.update(data)
        return row
    # QueueSnapshot rows keep their own sample time under "t".
    if hasattr(data, "qlen_packets") and hasattr(data, "ect_data"):
        snap_row = snapshot_to_row(data)
        snap_row.pop("t", None)
        row.update(snap_row)
        return row
    if hasattr(data, "sport") and hasattr(data, "ecn"):
        row.update(_packet_fields(data))
        return row
    row["data"] = repr(data)
    return row


class TraceJsonlWriter:
    """Subscribe to tracer kinds and stream JSONL rows to a text sink.

    Parameters
    ----------
    tracer:
        The bus the network emits into (pass the same instance to the
        topology builder / telemetry session).
    out:
        Destination text stream; defaults to an in-memory buffer
        readable via :meth:`getvalue`.
    kinds:
        Which event kinds to record (default: the packet kinds).
    """

    def __init__(
        self,
        tracer: Tracer,
        out: Optional[TextIO] = None,
        kinds: Optional[Sequence[str]] = None,
    ):
        self._tracer = tracer
        self._out = out if out is not None else io.StringIO()
        self._owns_buffer = out is None
        self.kinds = tuple(kinds) if kinds else PACKET_KINDS
        self.rows_written = 0
        for kind in self.kinds:
            tracer.subscribe(kind, self._on_record)

    def _on_record(self, rec: TraceRecord) -> None:
        json.dump(record_to_row(rec), self._out, separators=(",", ":"))
        self._out.write("\n")
        self.rows_written += 1

    def detach(self) -> None:
        """Unsubscribe from every kind (idempotent)."""
        for kind in self.kinds:
            try:
                self._tracer.unsubscribe(kind, self._on_record)
            except ValueError:
                pass

    def getvalue(self) -> str:
        """The accumulated JSONL text (in-memory buffer mode only)."""
        if not self._owns_buffer:
            raise ValueError("trace was written to an external stream")
        return self._out.getvalue()
