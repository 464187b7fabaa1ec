"""Steady-state stability probe cells: long-lived incast onto one port.

The Terasort cells measure what the paper measures — job runtime and
co-tenant latency — but their queues are bursty: the shuffle's fetches
start and stop, so a depth series from a fig2-style cell mixes the
control loop's dynamics with the workload's. To observe the TCP/AQM loop
itself (the D2TCP-II question: does it settle or cycle?), a
:class:`StabilityProbeConfig` cell holds the loop in steady state:
``n_senders`` long-lived bulk flows converge on one receiver for a fixed
simulated ``duration_s``, the congested ToR downlink is sampled every
``monitor_interval_s``, and the run ends at the horizon with the flows
still in flight — by construction, so every sample after the ramp-up
shows the closed loop at its operating point.

:func:`stability_grid` is the ``grid stability`` work list: one probe
per (target delay ≈ K, DCTCP gain g). :func:`render_stability_map`
marks each regime flip with the midpoint to add with ``--axis``.

Probe cells are the ``"probe"`` cell kind (:class:`ProbeCell`) on the
shared harness in :mod:`repro.experiments.runner`. The stability detector
(:class:`~repro.analysis.stability.StabilityAnalysis`) consumes the
snapshots either via ``run_cell(..., analyses=[...])`` or after the fact
on a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stability import CLASS_STABLE, StabilityAnalysis
from repro.errors import ConfigError
from repro.experiments.config import (
    CellResult,
    QueueSetup,
    queue_tag,
    transport_config,
    transport_suffix,
    validate_knobs,
)
from repro.experiments.kinds import CellKind, register_kind
from repro.experiments.runner import apply_analyses
from repro.tcp.endpoint import TcpConfig, TcpVariant
from repro.units import gbps, us
from repro.workloads.bulk import incast

__all__ = [
    "StabilityProbeConfig",
    "ProbeCell",
    "stability_grid",
    "render_stability_map",
    "stability_map_svgs",
]


@dataclass(frozen=True)
class StabilityProbeConfig:
    """One stability probe: an N:1 incast held for a fixed duration.

    ``duration_s`` and ``monitor_interval_s`` bound the depth series:
    ``duration_s / monitor_interval_s`` samples of the congested queue
    (default 2000 — comfortably inside the analysis' 2048-point resample
    cap). ``dctcp_g`` overrides the DCTCP EWMA gain when set, which is
    the knob the ``g`` axis of ``grid stability`` turns.
    """

    queue: QueueSetup
    variant: TcpVariant = TcpVariant.ECN
    n_senders: int = 4
    link_rate_bps: float = gbps(1)
    link_delay_s: float = us(20)
    duration_s: float = 2.0
    monitor_interval_s: float = 0.001
    dctcp_g: Optional[float] = None
    seed: int = 42
    #: Congestion-control registry key (:mod:`repro.tcp.cc`); ``None``
    #: keeps the variant's historical default (newreno / dctcp).
    cc: Optional[str] = None
    #: Endpoint-fidelity flaw profile (``repro.tcp.endpoint.FLAW_PROFILES``);
    #: ``None`` runs the corrected stack.
    flaw_profile: Optional[str] = None

    @property
    def n_hosts(self) -> int:
        """Receiver plus senders."""
        return self.n_senders + 1

    def validate(self) -> "StabilityProbeConfig":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        self.queue.validate()
        if self.n_senders < 1:
            raise ConfigError("need at least 1 sender")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.monitor_interval_s <= 0:
            raise ConfigError("monitor interval must be positive")
        if self.monitor_interval_s >= self.duration_s:
            raise ConfigError("monitor interval must be below the duration")
        if self.dctcp_g is not None and not (0.0 < self.dctcp_g <= 1.0):
            raise ConfigError(f"dctcp_g must be in (0, 1], got {self.dctcp_g}")
        validate_knobs(self)
        return self

    def tcp_config(self) -> TcpConfig:
        """Transport configuration for the probe flows."""
        knobs = {} if self.dctcp_g is None else {"dctcp_g": self.dctcp_g}
        return transport_config(self, **knobs)

    def flow_bytes(self) -> int:
        """Per-flow size guaranteeing the flows outlive the horizon.

        The receiver link caps aggregate goodput at ``link_rate_bps``, so
        giving *each* sender a full link-duration of bytes (plus slack)
        means no flow can complete before ``duration_s``.
        """
        return int(self.link_rate_bps * self.duration_s / 8.0) + 1_000_000

    def label(self) -> str:
        """Human-readable cell id, ``probe/``-prefixed."""
        g = f"/g{self.dctcp_g:g}" if self.dctcp_g is not None else ""
        return (f"probe/{self.variant}/{queue_tag(self)}"
                f"/n{self.n_senders}{g}{transport_suffix(self)}")


@register_kind("probe", "stability-probe", StabilityProbeConfig)
class ProbeCell(CellKind):
    """An N:1 incast held in steady state until the horizon.

    ``RunMetrics`` are shuffle-shaped (``runtime`` is the fixed horizon;
    ``bytes_transferred`` is the acked payload) so probe cells flow
    through the cache/sweep/fingerprint machinery unchanged; the dense
    snapshot series of every hot port is the stability detector's input.
    """

    @property
    def horizon_s(self) -> float:
        return self.config.duration_s

    def start(self) -> None:
        config, sim = self.config, self.sim
        self.flows = incast(
            sim, self.spec.hosts, receiver_index=0,
            nbytes=config.flow_bytes(), cfg=config.tcp_config(),
        )
        # Time-averaged DCTCP α across the senders, sampled at the monitor
        # cadence: the end-of-run snapshot alone is one point of a limit
        # cycle, far too noisy for flawed-vs-fixed comparisons (the flaws
        # pack gates on this average). Pure reads — the sampler never
        # perturbs the packet trajectory.
        self.alpha_sum = 0.0
        self.alpha_n = 0
        sim.schedule(config.monitor_interval_s, self._sample_alpha)

    def _alphas(self):
        return [f.sender.cc.alpha for f in self.flows
                if hasattr(f.sender.cc, "alpha")]

    def _sample_alpha(self) -> None:
        vals = self._alphas()
        if vals:
            self.alpha_sum += sum(vals) / len(vals)
            self.alpha_n += 1
            if self.sim.now < self.config.duration_s:
                self.sim.schedule(self.config.monitor_interval_s,
                                  self._sample_alpha)

    def collect(self):
        config, flows = self.config, self.flows
        # The flows are deliberately still in flight: read effort counters
        # and progress off the live senders.
        finished = [f for f in flows if f.result is not None]
        bytes_acked = sum(f.sender.snd_una for f in flows)
        extra = {
            "probe_senders": float(config.n_senders),
            "goodput_bps": bytes_acked * 8.0 / config.duration_s,
        }
        # Live DCTCP α estimate across the senders (the flaws pack compares
        # this between flawed and corrected endpoint profiles).
        alphas = self._alphas()
        if alphas:
            extra["dctcp_alpha_mean"] = sum(alphas) / len(alphas)
            extra["dctcp_alpha_max"] = max(alphas)
        if self.alpha_n:
            extra["dctcp_alpha_timeavg"] = self.alpha_sum / self.alpha_n
        return {
            "runtime": config.duration_s,
            "bytes_transferred": bytes_acked,
            "flows_completed": sum(1 for f in finished if not f.result.failed),
            "flows_failed": sum(1 for f in finished if f.result.failed),
            "retransmits": sum(f.sender.stats.retransmits for f in flows),
            "rtos": sum(f.sender.stats.rtos for f in flows),
            "syn_retries": sum(f.sender.stats.syn_retries for f in flows),
            "extra": extra,
        }


# -- the `grid stability` preset ---------------------------------------------


def stability_grid(target_delay: Sequence[int], g: Sequence[Optional[float]],
                   seed: int = 42) -> List[Tuple[str, StabilityProbeConfig]]:
    """One probe per (target delay in whole µs, DCTCP gain) — a 4:1 DCTCP
    incast onto a marking port held for 1 s; gain ``None`` keeps the
    transport's own. (Labels round the delay to 1 µs, so finer values
    would collide.)"""
    cells = []
    for td in target_delay:
        for gain in g:
            cfg = StabilityProbeConfig(
                queue=QueueSetup(kind="marking", target_delay_s=us(td)),
                variant=TcpVariant.DCTCP, n_senders=4, duration_s=1.0,
                seed=seed, dctcp_g=gain).validate()
            cells.append((cfg.label(), cfg))
    return cells


def _slices(results: Dict[str, CellResult]):
    """``(x, by, [(by value, points sorted by x)])``: the swept axis ``x``
    is ``target_delay``, one slice per gain ``by``, unless only explicit
    gains vary. A point is a cell's coordinates (x also as ``"value"``)
    and its dominant queue's verdict; cells without a stability block
    (cache hits too) get one stamped."""
    sa = StabilityAnalysis(keep_profiles=False)
    points = []
    for cell in results.values():
        if "stability" not in (cell.manifest or {}):
            apply_analyses(cell, [sa])
        block = cell.manifest["stability"]
        dominant = next((q for q in block["queues"]
                         if q["name"] == block["dominant_queue"]), {})
        points.append({
            "target_delay": round(cell.config.queue.target_delay_s * 1e6),
            "g": cell.config.dctcp_g,
            "classification": block["classification"],
            "confidence": block["confidence"],
            "amplitude": dominant.get("amplitude", 0.0),
            "rel_amplitude": dominant.get("rel_amplitude", 0.0),
            "period_s": dominant.get("period_s"),
        })
    x, by = "target_delay", "g"
    gains = {p["g"] for p in points}
    if (len({p["target_delay"] for p in points}) == 1 and len(gains) > 1
            and None not in gains):  # the default gain has no x position
        x, by = by, x
    slices: Dict[object, List[Dict[str, object]]] = {}
    for p in points:
        p["value"] = p[x]
        slices.setdefault(p[by], []).append(p)
    return x, by, [(key, sorted(pts, key=lambda p: p["value"]))
                   for key, pts in slices.items()]


def _fmt_axis(axis: str, value) -> str:
    """``200us`` on the target-delay axis, ``0.0625`` / ``default`` for g."""
    if value is None:
        return "default"
    return f"{value}us" if axis == "target_delay" else f"{value:.5g}"


def _midpoint(axis: str, lo, hi):
    """Geometric midpoint of ``lo``/``hi`` as an ``--axis`` value, or
    ``None`` when none fits strictly between (whole µs on target_delay)."""
    mid = (lo * hi) ** 0.5
    mid = round(mid) if axis == "target_delay" else float(f"{mid:.4g}")
    return mid if lo < mid < hi else None


def render_stability_map(results: Dict[str, CellResult]) -> str:
    """ASCII regime maps: one row per probe, per slice; between neighbours
    whose stable/oscillatory regime flips, a boundary line and the
    midpoint to add with ``--axis``."""
    x, by, slices = _slices(results)
    header = (f"{'value':>12} {'regime':<18} {'conf':>5} {'amp_pkts':>9} "
              f"{'rel_amp':>8} {'period':>10}")
    blocks = []
    for key, points in slices:
        lines = [f"stability map over {x} ({by}={_fmt_axis(by, key)})",
                 header, "-" * len(header)]
        transitions, values = [], [p["value"] for p in points]
        for p, nxt in zip(points, points[1:] + [None]):
            period = ("-" if p["period_s"] is None
                      else f"{p['period_s'] * 1e3:.3g}ms")
            lines.append(
                f"{_fmt_axis(x, p['value']):>12} "
                f"{p['classification']:<18} {p['confidence']:>5.2f} "
                f"{p['amplitude']:>9.2f} {p['rel_amplitude']:>8.2f} "
                f"{period:>10}")
            if nxt is None or ((p["classification"] == CLASS_STABLE)
                               == (nxt["classification"] == CLASS_STABLE)):
                continue
            mid = _midpoint(x, p["value"], nxt["value"])
            lines.append(f"{'':>12} --- stable/oscillatory boundary"
                         + ("" if mid is None else
                            f", midpoint {_fmt_axis(x, mid)}") + " ---")
            transitions.append(
                f"transition: {p['classification']} -> "
                f"{nxt['classification']} in [{_fmt_axis(x, p['value'])}, "
                f"{_fmt_axis(x, nxt['value'])}]")
            if mid is not None:
                values.append(mid)
        lines.append("")
        if transitions:
            lines += transitions
            if len(values) > len(points):
                lines.append(f"refine: --axis {x}=" + ",".join(
                    f"{v:g}" for v in sorted(values)))
        else:
            lines.append("no regime transitions on this grid")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def stability_map_svgs(results: Dict[str, CellResult]) -> List[Tuple[str, str]]:
    """One ``(slice id, svg)`` regime-map chart per slice."""
    from repro.plotting import regime_map_to_svg

    x, by, slices = _slices(results)
    xlabel = "target delay (us)" if x == "target_delay" else "DCTCP gain g"
    return [(f"{by}-{_fmt_axis(by, key)}", regime_map_to_svg(
                f"Stability map over {x}, {by}={_fmt_axis(by, key)}",
                xlabel, points))
            for key, points in slices]
