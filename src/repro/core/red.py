"""RED (Random Early Detection) with ECN and the paper's protection patch.

The implementation follows Floyd & Jacobson (1993) and the NS-2 RED queue
the paper used:

* an EWMA of the queue length (``avg``) is updated on every arrival, with
  the standard idle-period decay when the queue has drained;
* below ``min_th`` packets are admitted; between ``min_th`` and ``max_th``
  packets face a probabilistic *early action* whose probability ramps from
  0 to ``max_p`` (with the uniform-spacing ``count`` correction); above
  ``max_th`` the action is forced (or, in *gentle* mode, ramps from
  ``max_p`` to 1 between ``max_th`` and ``2*max_th``);
* thresholds are interpreted **per packet**, as the paper notes real
  switches typically do — a 150 B pure ACK occupies one threshold slot
  just like a 1500 B data packet (byte-mode is available for ablation);
* when ECN is enabled, the early action on an **ECT-capable** packet is a
  CE *mark* (NS-2 ``setbit_`` semantics: ECT packets are never
  early-dropped); on a non-ECT packet it is a *drop* — this asymmetry is
  exactly the behaviour the paper identifies as the source of
  disproportionate ACK loss;
* the paper's patch: packets satisfying the configured
  :class:`~repro.core.protection.ProtectionMode` predicate are admitted
  instead of early-dropped (physical tail drops still apply to everyone).

Setting ``min_th == max_th`` reproduces the DCTCP-style single-threshold
configuration (the original DCTCP paper's recommendation of 65 packets at
10 Gbps), and ``use_instantaneous=True`` uses the current queue length
instead of the EWMA (the Wu et al. CoNEXT'12 recommendation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.protection import ProtectionMode, is_protected
from repro.core.qdisc import QueueDisc, VERDICT_DROPPED, VERDICT_ENQUEUED
from repro.errors import ConfigError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids core<->net cycle
    from repro.net.packet import Packet

__all__ = ["RedParams", "RedQueue"]


@dataclass(frozen=True)
class RedParams:
    """Configuration block for :class:`RedQueue`.

    Attributes
    ----------
    min_th, max_th:
        Lower / upper thresholds. Units: packets (or mean-packet
        equivalents in byte mode). ``min_th == max_th == K`` gives the
        Fixed-K single-threshold configuration (the DCTCP-style step
        marker). **Fixed-K semantics:** with ``gentle=False`` the step is
        *pure* — below ``K`` every packet is admitted, at or above ``K``
        the early action is forced on every packet. With ``gentle=True``
        the step is *gentle*, matching NS-2: the early-action probability
        ramps from ``max_p`` at ``K`` to 1 at ``2*K`` (with the
        uniform-spacing count correction), and only above ``2*K`` is the
        action forced. The gentle ramp applies between ``max_th`` and
        ``2*max_th`` regardless of the band width — a zero-width
        probabilistic band (``min_th == max_th``) does not disable it.
    max_p:
        Early-action probability at ``max_th``.
    wq:
        EWMA weight for the average queue size (ignored when
        ``use_instantaneous``).
    gentle:
        If True, probability ramps from ``max_p`` to 1 between ``max_th``
        and ``2*max_th`` instead of jumping to a forced action.
    ecn:
        Enable CE-marking of ECT packets (otherwise RED drops everyone).
    use_instantaneous:
        Use the current queue length instead of the EWMA (Wu et al.).
    byte_mode:
        Interpret thresholds in mean-packet-size units of *bytes*, and
        scale the early-action probability by packet size. Default off:
        per-packet thresholds, as the paper says real switches implement.
    mean_pktsize:
        Mean packet size in bytes for byte mode and idle decay.
    protection:
        Which packets to shield from early drops (the paper's patch).
    """

    min_th: float = 5.0
    max_th: float = 15.0
    max_p: float = 0.1
    wq: float = 0.002
    gentle: bool = True
    ecn: bool = True
    use_instantaneous: bool = False
    byte_mode: bool = False
    mean_pktsize: int = 1500
    protection: ProtectionMode = ProtectionMode.DEFAULT

    def validate(self) -> "RedParams":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        if self.min_th <= 0 or self.max_th <= 0:
            raise ConfigError(f"RED thresholds must be positive ({self})")
        if self.max_th < self.min_th:
            raise ConfigError(f"max_th < min_th ({self})")
        if not (0.0 < self.max_p <= 1.0):
            raise ConfigError(f"max_p must be in (0, 1] ({self})")
        if not (0.0 < self.wq <= 1.0):
            raise ConfigError(f"wq must be in (0, 1] ({self})")
        if self.mean_pktsize <= 0:
            raise ConfigError(f"mean_pktsize must be positive ({self})")
        return self

    def with_protection(self, mode: ProtectionMode) -> "RedParams":
        """Copy of these params under a different protection mode."""
        return replace(self, protection=mode)


class RedQueue(QueueDisc):
    """RED/ECN queue with optional early-drop protection.

    Parameters
    ----------
    limit_packets:
        Physical buffer size (packets).
    params:
        :class:`RedParams` policy block.
    rand:
        Zero-argument callable returning U(0,1) draws. Inject a seeded
        stream (see :class:`~repro.sim.rng.RngRegistry`) for reproducible
        runs; defaults to a fixed-seed generator.
    """

    def __init__(
        self,
        limit_packets: int,
        params: RedParams,
        rand: Optional[Callable[[], float]] = None,
        name: str = "red",
    ):
        super().__init__(limit_packets, name=name)
        self.params = params.validate()
        if rand is None:
            import numpy as np

            gen = np.random.Generator(np.random.PCG64(12345))
            rand = gen.random
        self._rand = rand
        self.avg = 0.0
        self._count = -1  # packets since last early action, -1 = below min_th
        self._idle_since: Optional[float] = 0.0  # queue starts empty
        self._idle_pkt_time: Optional[float] = None
        # Hot-path hoists: RedParams is frozen, so every per-arrival read
        # of a policy knob can be a plain instance attribute instead of a
        # dataclass-field lookup chain. _admit() reads only these.
        p = self.params
        self._min_th = p.min_th
        self._max_th = p.max_th
        self._max_p = p.max_p
        self._wq = p.wq
        self._gentle = p.gentle
        self._ecn = p.ecn
        self._use_inst = p.use_instantaneous
        self._byte_mode = p.byte_mode
        self._mean_pktsize = float(p.mean_pktsize)
        self._protection = p.protection
        self._band = p.max_th - p.min_th  # > 0 iff a probabilistic band exists
        # The average's form is a per-queue constant, chosen here once, so
        # the fused enqueue tests no mode on the two packet-mode forms: the
        # EWMA of len(q), and instantaneous len(q) (Fixed-K's and
        # DCTCP-style RED's).
        self._plain_ewma = not (p.byte_mode or p.use_instantaneous)
        self._inst_packets = p.use_instantaneous and not p.byte_mode

    # -- wiring ---------------------------------------------------------------

    def set_link_rate(self, rate_bps: float) -> None:
        """Tell the queue its drain rate so idle-period decay works.

        Called by the owning port at attach time, mirroring how NS-2's RED
        learns the link bandwidth.
        """
        if rate_bps > 0:
            self._idle_pkt_time = self.params.mean_pktsize * 8.0 / rate_bps

    # -- policy -----------------------------------------------------------------

    def _early_action(self, pkt: "Packet", now: float) -> bool:
        """Apply the AQM's early action to ``pkt``.

        Returns the enqueue verdict. ECT packets get CE-marked and
        admitted; protected packets get admitted unmarked; everything else
        is early-dropped.
        """
        st = self.stats
        if self._ecn and pkt.is_ect:
            pkt.mark_ce()
            st.marks += 1
            self._trace("mark", pkt, now)
            return VERDICT_ENQUEUED
        if is_protected(pkt, self._protection):
            st.protected += 1
            return VERDICT_ENQUEUED
        st.drops_early += 1
        return VERDICT_DROPPED

    def _update_avg(self, now: float, size: int) -> None:
        """The EWMA update in its general form, for an arrival of ``size``
        bytes whose arrival counters have already moved.

        NS-2 updates the average on *every* arrival, including ones that
        tail-drop: the EWMA tracks offered load, not just admitted load.
        Updating only on admission makes the average lag reality exactly
        during the full-buffer bursts the drop statistics measure.

        :meth:`_admit` calls this; the fused :meth:`enqueue` inlines it,
        with the two packet-mode forms as branches of their own.
        """
        q = self._q
        if self._byte_mode:
            # The backlog before this arrival: qlen_bytes, read from its
            # counters, less the arriving packet they already hold.
            st = self.stats
            qm = ((st.arrival_bytes - size - st.departure_bytes
                   - self._dropped_bytes) / self._mean_pktsize)
        else:
            qm = float(len(q))
        if self._use_inst:
            self.avg = qm
            return
        if not q and self._idle_since is not None:
            self._decay_idle(now)
        self.avg += self._wq * (qm - self.avg)

    def _decay_idle(self, now: float) -> None:
        """First arrival after the queue drained: decay the average over the
        idle period as if empty-queue samples had arrived once per typical
        transmission time."""
        if self._idle_pkt_time:
            m = (now - self._idle_since) / self._idle_pkt_time
            if m > 0:
                self.avg *= (1.0 - self._wq) ** m
        self._idle_since = None

    def _admit(self, pkt: "Packet", now: float) -> bool:
        self._update_avg(now, pkt.size)
        if len(self._q) >= self.limit_packets:
            self.stats.drops_tail += 1
            return VERDICT_DROPPED

        avg = self.avg
        min_th = self._min_th

        if avg < min_th:
            self._count = -1
            return VERDICT_ENQUEUED

        # Forced region: above max_th (or Fixed-K min==max step). NS-2's
        # gentle ramp lives between max_th and 2*max_th regardless of the
        # probabilistic band's width, so it must NOT be gated on band > 0
        # — that would silently turn a gentle Fixed-K step into a pure one.
        max_th = self._max_th
        band = self._band
        if not (band > 0.0 and avg < max_th):
            if self._gentle and avg < 2.0 * max_th:
                max_p = self._max_p
                pb = max_p + (1.0 - max_p) * (avg - max_th) / max_th
                self._count += 1
                # Same uniform-spacing correction as the min_th..max_th band
                # (Floyd & Jacobson eq. 3): without it, gentle-mode early
                # actions cluster geometrically instead of being uniformly
                # spaced in packet counts.
                denom = 1.0 - self._count * pb
                pa = pb / denom if denom > 0 else 1.0
                if self._rand() < pa:
                    self._count = 0
                    return self._early_action(pkt, now)
                return VERDICT_ENQUEUED
            # Hard forced action.
            self._count = 0
            return self._early_action(pkt, now)

        # Probabilistic band between min_th and max_th.
        self._count += 1
        pb = self._max_p * (avg - min_th) / band
        if self._byte_mode:
            pb *= pkt.size / self._mean_pktsize
        denom = 1.0 - self._count * pb
        pa = pb / denom if denom > 0 else 1.0
        if self._rand() < pa:
            self._count = 0
            return self._early_action(pkt, now)
        return VERDICT_ENQUEUED

    def _on_dequeue(self, pkt: "Packet", now: float) -> None:
        if not self._q:
            self._idle_since = now

    def fluid_threshold_packets(self, rate_bps: float) -> float:
        """RED starts early actions once the average crosses min_th."""
        return float(self._min_th)

    # -- fused hot path --------------------------------------------------------
    #
    # RED queues sit on every contended port, so the per-arrival and
    # per-departure paths each collapse the base-class frame and the policy
    # hook into a single frame. Decision-for-decision identical to
    # QueueDisc.enqueue→_admit and QueueDisc.dequeue→_on_dequeue — any
    # change to those must be mirrored here (and vice versa).

    def enqueue(self, pkt: "Packet", now: float) -> bool:
        """Fused :meth:`QueueDisc.enqueue` + :meth:`_admit` (keep in sync)."""
        st = self.stats
        q = self._q
        size = pkt.size
        st.arrivals += 1
        st.arrival_bytes += size
        is_ect = pkt.is_ect
        is_ack = pkt.is_pure_ack
        is_syn = pkt.is_syn
        if is_ect:
            st.ect_arrivals += 1
        if is_ack:
            st.ack_arrivals += 1
        if is_syn:
            st.syn_arrivals += 1

        # Inlined _admit body, EWMA update first (keep in sync with
        # _update_avg): the two packet-mode forms, then byte mode.
        if self._plain_ewma:
            if not q and self._idle_since is not None:
                self._decay_idle(now)
            self.avg += self._wq * (len(q) - self.avg)
        elif self._inst_packets:
            self.avg = float(len(q))
        else:
            qm = ((st.arrival_bytes - size - st.departure_bytes
                   - self._dropped_bytes) / self._mean_pktsize)
            if self._use_inst:
                self.avg = qm
            else:
                if not q and self._idle_since is not None:
                    self._decay_idle(now)
                self.avg += self._wq * (qm - self.avg)
        if len(q) >= self.limit_packets:
            st.drops_tail += 1
            verdict = VERDICT_DROPPED
        else:
            avg = self.avg
            min_th = self._min_th
            if avg < min_th:
                self._count = -1
                verdict = VERDICT_ENQUEUED
            else:
                max_th = self._max_th
                band = self._band
                if not (band > 0.0 and avg < max_th):
                    if self._gentle and avg < 2.0 * max_th:
                        max_p = self._max_p
                        pb = max_p + (1.0 - max_p) * (avg - max_th) / max_th
                        self._count += 1
                        denom = 1.0 - self._count * pb
                        pa = pb / denom if denom > 0 else 1.0
                        if self._rand() < pa:
                            self._count = 0
                            verdict = self._early_action(pkt, now)
                        else:
                            verdict = VERDICT_ENQUEUED
                    else:
                        self._count = 0
                        verdict = self._early_action(pkt, now)
                else:
                    self._count += 1
                    pb = self._max_p * (avg - min_th) / band
                    if self._byte_mode:
                        pb *= size / self._mean_pktsize
                    denom = 1.0 - self._count * pb
                    pa = pb / denom if denom > 0 else 1.0
                    if self._rand() < pa:
                        self._count = 0
                        verdict = self._early_action(pkt, now)
                    else:
                        verdict = VERDICT_ENQUEUED

        if verdict:
            pkt.enqueued_at = now
            q.append(pkt)
            if len(q) >= self._pressure_th:
                self._pressure_cb(self, now)
            tr = self.tracer
            if tr is not None and tr.active and tr.wants("enqueue"):
                tr.emit(now, "enqueue", self.name, pkt)
        else:
            self._dropped_bytes += size
            if is_ect:
                st.ect_drops += 1
            if is_ack:
                st.ack_drops += 1
            if is_syn:
                st.syn_drops += 1
        return verdict

    def dequeue(self, now: float) -> "Optional[Packet]":
        """Fused :meth:`QueueDisc.dequeue` + idle-timing hook (keep in sync)."""
        q = self._q
        if not q:
            return None
        st = self.stats
        pkt = q.popleft()
        size = pkt.size
        st.departures += 1
        st.departure_bytes += size
        st.queue_delay_sum += now - pkt.enqueued_at
        st.queue_delay_count += 1
        if not q:  # inlined _on_dequeue
            self._idle_since = now
        return pkt
