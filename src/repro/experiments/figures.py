"""Figure projections: the same series the paper plots, as data + ASCII.

Every function here is a pure function of a grid's results (``{label:
CellResult}``, as ``run_cells`` returns them); none runs a cell.

* Figure 1 — a snapshot of a congested switch egress queue during the
  shuffle under default RED/ECN (the ``fig1`` cell, :func:`fig1_config`),
  plus the drop-asymmetry statistics that the snapshot illustrates.
* Figure 2 — Hadoop runtime vs target delay (RED), shallow/deep.
* Figure 3 — cluster throughput per node vs target delay, shallow/deep.
* Figure 4 — mean per-packet network latency vs target delay, shallow/deep.

Normalization follows the paper exactly (see
:mod:`repro.stats.normalize`): runtime and throughput against
DropTail-shallow always; latency against DropTail at the same buffer
depth. Reference (dashed) lines carry the other baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

from repro.core.monitor import QueueSnapshot
from repro.core.protection import ProtectionMode
from repro.errors import ExperimentError
from repro.experiments.config import (
    DEEP_TARGET_DELAYS,
    SHALLOW_BUFFER_PACKETS,
    SHALLOW_TARGET_DELAYS,
    CellResult,
    ExperimentConfig,
    QueueSetup,
)
from repro.stats.normalize import normalize_to
from repro.tcp.endpoint import TcpVariant
from repro.units import us

__all__ = [
    "FigureData",
    "Fig1Data",
    "FIGURE_SPECS",
    "fig1_config",
    "fig1_data",
    "paper_figure",
    "require_cell",
    "render_figure",
    "render_fig1",
]

#: Queue labels swept in Figures 2-4, in legend order.
SERIES_QUEUES = ("red-default", "red-ece", "red-ack+syn", "marking")


@dataclass
class FigureData:
    """One sub-figure: x-axis delays, named series, reference lines."""

    name: str
    title: str
    deep: bool
    delays: Sequence[float]
    #: series label -> normalized value per delay
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: dashed reference lines: label -> normalized value
    references: Dict[str, float] = field(default_factory=dict)
    normalized_against: str = ""


@dataclass
class Fig1Data:
    """Figure 1: queue composition snapshot + drop asymmetry evidence."""

    snapshot: QueueSnapshot
    mark_threshold_packets: int
    ack_arrival_share: float   #: pure ACKs as a fraction of all arrivals
    ack_drop_share: float      #: pure ACKs as a fraction of all drops
    ack_drop_rate: float       #: fraction of arriving ACKs dropped
    ect_drop_rate: float       #: fraction of arriving ECT packets dropped
    early_drops: int
    marks: int


class FigureSpec(NamedTuple):
    """What one of Figures 2-4 plots: the title, the ``CellResult``
    attribute, how the normalized-against line names it, and whether the
    base is DropTail at the figure's own depth (else DropTail-shallow)."""

    title: str
    metric: str
    metric_name: str
    same_depth_base: bool


#: Figures 2-4, in the paper's order.
FIGURE_SPECS: Dict[str, FigureSpec] = {
    "fig2": FigureSpec("Hadoop Runtime", "runtime", "runtime", False),
    "fig3": FigureSpec("Cluster Throughput", "throughput_per_node",
                       "throughput/node", False),
    "fig4": FigureSpec("Network Latency", "latency", "latency", True),
}


def require_cell(results: Dict[str, CellResult], label: str) -> CellResult:
    """``results[label]``, or :class:`ExperimentError` naming the cell."""
    cell = results.get(label)
    if cell is None:
        raise ExperimentError(f"missing grid cell {label}")
    return cell


def paper_figure(results: Dict[str, CellResult], fig: str,
                 deep: bool) -> FigureData:
    """Figure ``fig`` (``fig2``/``fig3``/``fig4``), sub-figure (b) if
    ``deep`` else (a), from the paper grid's results.

    The deep sub-figure carries the other DropTail baseline as a dashed
    reference line, exactly as the paper draws it. Raises
    :class:`ExperimentError` naming the first missing cell.
    """
    spec = FIGURE_SPECS[fig]
    depth = "deep" if deep else "shallow"
    delays = DEEP_TARGET_DELAYS if deep else SHALLOW_TARGET_DELAYS

    def value(label: str) -> float:
        return getattr(require_cell(results, label), spec.metric)

    base_label = f"droptail-{depth}" if spec.same_depth_base \
        else "droptail-shallow"
    base = value(base_label)
    series = {
        f"{variant}/{qlabel}": [
            normalize_to(value(f"{variant}/{qlabel}@{d * 1e6:.0f}us/{depth}"),
                         base) for d in delays]
        for variant in (TcpVariant.ECN, TcpVariant.DCTCP)
        for qlabel in SERIES_QUEUES}
    references = {}
    if deep:
        other = ("droptail-shallow" if base_label == "droptail-deep"
                 else "droptail-deep")
        references[other] = normalize_to(value(other), base)
    return FigureData(
        name=f"{fig}{'b' if deep else 'a'}",
        title=f"{spec.title} - RED ({'Deep' if deep else 'Shallow'} Buffers)",
        deep=deep, delays=delays, series=series, references=references,
        normalized_against=f"{base_label} {spec.metric_name}")


def fig1_config(scale: float = 1.0, seed: int = 42) -> ExperimentConfig:
    """Figure 1's cell: default RED/ECN at the aggressive 50 µs target delay
    on shallow buffers, with the queue monitor photographing the switch
    ports every 2 ms."""
    return ExperimentConfig(
        queue=QueueSetup(
            kind="red",
            buffer_packets=SHALLOW_BUFFER_PACKETS,
            target_delay_s=us(50),
            protection=ProtectionMode.DEFAULT,
        ),
        variant=TcpVariant.ECN,
        seed=seed,
        monitor_interval_s=0.002,
        allow_timeout=True,
    ).scaled(scale)


def fig1_data(cell: CellResult) -> Fig1Data:
    """Figure 1 from a :func:`fig1_config` cell: its hottest queue
    snapshot and the queue's drop asymmetry."""
    from repro.core.target_delay import threshold_packets

    if not cell.snapshots:
        raise ExperimentError("fig1 run produced no queue snapshots")
    busiest = max(cell.snapshots, key=lambda s: s.qlen_packets)
    q = cell.metrics.queue
    total_drops = q.drops
    return Fig1Data(
        snapshot=busiest,
        mark_threshold_packets=threshold_packets(
            cell.config.queue.target_delay_s, cell.config.link_rate_bps
        ),
        ack_arrival_share=q.ack_arrivals / q.arrivals if q.arrivals else 0.0,
        ack_drop_share=q.ack_drops / total_drops if total_drops else 0.0,
        ack_drop_rate=q.ack_drop_rate(),
        ect_drop_rate=q.ect_drop_rate(),
        early_drops=q.drops_early,
        marks=q.marks,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_figure(fig: FigureData) -> str:
    """ASCII table of one sub-figure, one row per series."""
    header = ["series"] + [f"{d * 1e6:.0f}us" for d in fig.delays]
    rows = [[label] + [f"{v:.3f}" for v in vals] for label, vals in fig.series.items()]
    for ref, v in fig.references.items():
        rows.append([f"[dashed] {ref}", *([f"{v:.3f}"] * len(fig.delays))])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines = [fig.title, f"(normalized to {fig.normalized_against})"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def render_fig1(data: Fig1Data) -> str:
    """ASCII rendering of the Figure-1 queue snapshot."""
    s = data.snapshot
    width = 50
    used = s.qlen_packets
    limit = s.limit_packets

    def bar(n: int) -> int:
        return int(round(width * n / limit)) if limit else 0

    ect = bar(s.ect_data + s.ce_marked)
    ack = bar(s.pure_acks)
    other = bar(s.nonect_data + s.syns)
    free = max(0, width - ect - ack - other)
    lines = [
        "Fig 1: Typical snapshot of a network switch queue in a Hadoop cluster",
        f"(t={s.time:.3f}s, occupancy {used}/{limit} packets, "
        f"mark threshold K={data.mark_threshold_packets})",
        "",
        "[" + "D" * ect + "A" * ack + "o" * other + "." * free + "]",
        "  D = ECT-capable data (marked, never early-dropped)",
        "  A = non-ECT pure ACKs   o = other   . = free",
        "",
        f"pure-ACK share of arrivals : {data.ack_arrival_share:6.2%}",
        f"pure-ACK share of drops    : {data.ack_drop_share:6.2%}   <-- disproportionate",
        f"ACK drop rate              : {data.ack_drop_rate:6.2%}",
        f"ECT drop rate              : {data.ect_drop_rate:6.2%}   (marked instead: {data.marks})",
        f"AQM early drops            : {data.early_drops}",
    ]
    return "\n".join(lines)
