"""CoDel (Controlled Delay) AQM, with ECN and the paper's protection patch.

CoDel (Nichols & Jacobson, 2012) is the AQM designed specifically against
Bufferbloat — the phenomenon the paper's introduction cites. Instead of
queue *length*, CoDel controls queue *sojourn time*: when every packet
dequeued over a full ``interval`` has waited longer than ``target``,
CoDel enters a dropping state and drops (or, with ECN, marks) one packet
per control-law interval ``interval / sqrt(count)``.

It is included as an extension beyond the paper's RED-centric evaluation
for two reasons:

* the paper argues its findings apply to "RED and any other AQM queue
  that supports ECN" — CoDel with ECN early-drops non-ECT packets in the
  dropping state exactly the same way, so the ACK-drop pathology and the
  protection patch are reproducible on it (see the ablation benches);
* it gives downstream users of this library a second, delay-based AQM to
  compare against the threshold-based ones.

Implementation follows the pseudo-code of RFC 8289, with the standard
head-drop behaviour translated to this library's admit-at-enqueue /
drop-at-dequeue structure: sojourn decisions happen at dequeue, and
drops consume queued packets (recorded as early drops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.core.protection import ProtectionMode, is_protected
from repro.core.qdisc import QueueDisc, VERDICT_DROPPED, VERDICT_ENQUEUED
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids core<->net cycle
    from repro.net.packet import Packet

__all__ = ["CodelParams", "CodelQueue"]


@dataclass(frozen=True)
class CodelParams:
    """CoDel configuration.

    Attributes
    ----------
    target_s:
        Acceptable standing sojourn time (RFC 8289 default 5 ms; data
    center deployments use ~1 ms or less).
    interval_s:
        Sliding window over which the sojourn must stay above target
        before the dropping state engages (default 100 ms; data centers
        use ~10 ms).
    ecn:
        Mark ECT packets instead of dropping them.
    protection:
        The paper's patch, applied to CoDel's early drops.
    """

    target_s: float = 0.001
    interval_s: float = 0.010
    ecn: bool = True
    protection: ProtectionMode = ProtectionMode.DEFAULT

    def validate(self) -> "CodelParams":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        if self.target_s <= 0 or self.interval_s <= 0:
            raise ConfigError(f"CoDel times must be positive ({self})")
        if self.target_s >= self.interval_s:
            raise ConfigError(f"target must be < interval ({self})")
        return self


class CodelQueue(QueueDisc):
    """Sojourn-time AQM per RFC 8289, adapted to head-of-queue actions."""

    def __init__(
        self,
        limit_packets: int,
        params: CodelParams,
        name: str = "codel",
    ):
        super().__init__(limit_packets, name=name)
        self.params = params.validate()
        self._first_above_time: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0
        # Hot-path hoists: CodelParams is frozen, so the dequeue-side
        # control law reads plain instance attributes.
        self._target_s = self.params.target_s
        self._interval_s = self.params.interval_s
        self._ecn = self.params.ecn
        self._protection = self.params.protection

    # -- enqueue side: only the physical limit applies ------------------------

    def _admit(self, pkt: "Packet", now: float) -> bool:
        if len(self._q) >= self.limit_packets:
            self.stats.drops_tail += 1
            return VERDICT_DROPPED
        return VERDICT_ENQUEUED

    def fluid_threshold_packets(self, rate_bps: float) -> float:
        """CoDel acts when sojourn exceeds target: target × drain rate."""
        pkts = self._target_s * rate_bps / 8.0 / 1500.0
        if pkts < 1.0:
            pkts = 1.0
        return pkts

    # -- dequeue side: the CoDel control law ----------------------------------

    def _control_interval(self) -> float:
        return self._interval_s / math.sqrt(max(self._drop_count, 1))

    def _should_act(self, sojourn: float, now: float) -> bool:
        """RFC 8289 ok_to_drop: sojourn above target for a full interval."""
        if sojourn < self._target_s or len(self._q) <= 1:
            self._first_above_time = None
            return False
        if self._first_above_time is None:
            self._first_above_time = now + self._interval_s
            return False
        return now >= self._first_above_time

    def _apply_action(self, pkt: "Packet", now: float) -> bool:
        """Mark/protect/decide-drop the head packet. True if it must drop."""
        st = self.stats
        if self._ecn and pkt.is_ect:
            pkt.mark_ce()
            st.marks += 1
            self._trace("mark", pkt, now)
            return False
        if is_protected(pkt, self._protection):
            st.protected += 1
            return False
        return True

    def _drop_head(self, now: float) -> None:
        """Remove the head packet as a CoDel early drop.

        The packet was already counted as an arrival at enqueue time, so
        only the drop-side counters move here — departures must NOT be
        credited (the packet never leaves on the wire).
        """
        pkt = self._q.popleft()
        self._dropped_bytes += pkt.size
        # The packet never departs, so queue_delay_sum will not see its
        # residence time; mean_queue_packets() needs it from here.
        self._head_drop_sojourn_s += now - pkt.enqueued_at
        st = self.stats
        st.drops_early += 1
        if pkt.is_pure_ack:
            st.ack_drops += 1
        if pkt.is_syn:
            st.syn_drops += 1
        if pkt.is_ect:
            st.ect_drops += 1
        # Head drops must be visible on the trace bus like every other
        # drop — otherwise conservation ledgers and `repro trace` exports
        # see the packet enter the queue and silently vanish.
        self._trace("drop", pkt, now)

    def dequeue(self, now: float):
        """Pop the next packet, applying the CoDel state machine."""
        while True:
            if not self._q:
                self._dropping = False
                return None
            head = self._q[0]
            sojourn = now - head.enqueued_at
            if not self._dropping:
                if self._should_act(sojourn, now):
                    self._dropping = True
                    # Control-law restart, remembering recent drop pressure.
                    delta = self._drop_count - self._last_drop_count
                    self._drop_count = (
                        delta if delta > 1 and now - self._drop_next
                        < 16 * self._interval_s else 1
                    )
                    self._drop_next = now + self._control_interval()
                    if self._apply_action(head, now):
                        self._last_drop_count = self._drop_count
                        self._drop_head(now)
                        continue
                return super().dequeue(now)
            # Dropping state.
            if sojourn < self._target_s:
                self._dropping = False
                self._first_above_time = None
                return super().dequeue(now)
            if now >= self._drop_next:
                self._drop_count += 1
                self._drop_next = now + self._control_interval()
                if self._apply_action(head, now):
                    self._last_drop_count = self._drop_count
                    self._drop_head(now)
                    continue
            return super().dequeue(now)
