"""RTT estimation and retransmission timeout per RFC 6298.

``SRTT`` and ``RTTVAR`` follow the classic exponential averages
(alpha = 1/8, beta = 1/4); the RTO is ``SRTT + 4*RTTVAR`` clamped to
``[min_rto, max_rto]`` and doubled on each backoff (Karn's algorithm is
enforced by the caller: retransmitted segments are never sampled).
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["RttEstimator"]


class RttEstimator:
    """RFC 6298 RTT estimator with exponential backoff.

    Parameters
    ----------
    init_rto:
        RTO used before the first RTT sample (RFC 6298 says 1 s; data
        center stacks tune this down, and so do we by default).
    min_rto, max_rto:
        Clamp bounds for the computed RTO.
    """

    __slots__ = ("srtt", "rttvar", "_rto", "min_rto", "max_rto", "_backoff",
                 "samples", "rto")

    ALPHA = 0.125
    BETA = 0.25

    def __init__(self, init_rto: float = 0.05, min_rto: float = 0.01, max_rto: float = 4.0):
        if not (0 < min_rto <= init_rto <= max_rto):
            raise ConfigError(
                f"need 0 < min_rto <= init_rto <= max_rto, got "
                f"{min_rto}/{init_rto}/{max_rto}"
            )
        self.srtt: float | None = None
        self.rttvar = 0.0
        self._rto = init_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self._backoff = 1
        self.samples = 0
        #: Current retransmission timeout, including backoff. A plain
        #: attribute recomputed where its inputs change (sample, backoff,
        #: reset), not where it is read: the sender re-arms its timer from
        #: it on every ACK. Treat it as read-only.
        self.rto = init_rto  # <= max_rto, checked above

    def sample(self, rtt: float) -> None:
        """Feed one RTT measurement (never from a retransmitted segment)."""
        if rtt < 0:
            raise ConfigError(f"negative RTT sample: {rtt}")
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self.rto = self._rto = max(
            self.min_rto, min(self.srtt + 4.0 * self.rttvar, self.max_rto))
        self._backoff = 1  # fresh sample resets backoff (RFC 6298 §5.7)

    def backoff(self) -> None:
        """Double the RTO after a retransmission timeout.

        The doubling saturates once ``_rto * _backoff`` reaches
        ``max_rto``: past that point the effective RTO cannot grow, so a
        long blackout (dozens of consecutive timeouts) must not keep
        inflating the counter — an unbounded multiplier both risks float
        overflow and means the first post-blackout RTT sample is the only
        thing standing between the flow and a nonsense timeout if any
        code path reads ``_rto * _backoff`` unclamped.
        """
        if self._rto * self._backoff < self.max_rto:
            self._backoff *= 2
            self.rto = min(self._rto * self._backoff, self.max_rto)

    def reset_backoff(self) -> None:
        """Clear exponential backoff (new data acknowledged)."""
        if self._backoff != 1:
            self._backoff = 1
            self.rto = self._rto
