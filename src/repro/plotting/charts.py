"""Chart renderers: FigureData / QueueSnapshot / TimeSeries to SVG.

The goal is a faithful visual counterpart of the paper's plots — series
lines over the target-delay axis with the DropTail reference as a dashed
line — with no plotting dependency. A small qualitative palette with
distinguishable hues is baked in.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.monitor import QueueSnapshot
from repro.plotting.svg import SvgCanvas
from repro.stats.series import TimeSeries

__all__ = ["figure_to_svg", "queue_snapshot_to_svg", "timeseries_to_svg",
           "regime_map_to_svg", "grid_regime_map_to_svg"]

#: Qualitative palette (colorblind-safe-ish hues).
PALETTE = (
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0",
    "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5",
)

MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 200, 40, 50


def _axes(canvas: SvgCanvas, x0, y0, x1, y1, title: str,
          xlabel: str, ylabel: str) -> None:
    canvas.line(x0, y1, x1, y1, stroke="#333")  # x axis
    canvas.line(x0, y0, x0, y1, stroke="#333")  # y axis
    canvas.text((x0 + x1) / 2, 20, title, size=14, anchor="middle")
    canvas.text((x0 + x1) / 2, y1 + 35, xlabel, size=11, anchor="middle")
    canvas.text(14, (y0 + y1) / 2, ylabel, size=11, anchor="middle")


def figure_to_svg(
    fig,
    width: int = 760,
    height: int = 420,
    ylabel: Optional[str] = None,
) -> str:
    """Render an :class:`~repro.experiments.figures.FigureData` to SVG."""
    canvas = SvgCanvas(width, height)
    x0, y0 = MARGIN_L, MARGIN_T
    x1, y1 = width - MARGIN_R, height - MARGIN_B

    delays = list(fig.delays)
    all_vals = [v for vals in fig.series.values() for v in vals]
    all_vals += list(fig.references.values()) + [1.0]
    vmax = max(all_vals) * 1.1
    vmin = 0.0

    def sx(i: int) -> float:
        if len(delays) == 1:
            return (x0 + x1) / 2
        return x0 + (x1 - x0) * i / (len(delays) - 1)

    def sy(v: float) -> float:
        return y1 - (y1 - y0) * (v - vmin) / (vmax - vmin)

    _axes(canvas, x0, y0, x1, y1, fig.title,
          "target delay", ylabel or f"normalized to {fig.normalized_against}")

    # gridline + tick labels
    ticks = 5
    for t in range(ticks + 1):
        v = vmin + (vmax - vmin) * t / ticks
        y = sy(v)
        canvas.line(x0, y, x1, y, stroke="#eee")
        canvas.text(x0 - 6, y + 4, f"{v:.2f}", size=10, anchor="end")
    for i, d in enumerate(delays):
        canvas.text(sx(i), y1 + 16, f"{d * 1e6:.0f}us", size=10, anchor="middle")

    # the y=1.0 baseline (DropTail) as a thin reference
    canvas.line(x0, sy(1.0), x1, sy(1.0), stroke="#999", width=0.8)

    legend_y = y0
    for idx, (label, vals) in enumerate(sorted(fig.series.items())):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(sx(i), sy(v)) for i, v in enumerate(vals)]
        canvas.polyline(pts, stroke=color, width=1.8)
        for x, y in pts:
            canvas.circle(x, y, 2.4, fill=color)
        canvas.line(x1 + 10, legend_y, x1 + 30, legend_y, stroke=color, width=2)
        canvas.text(x1 + 36, legend_y + 4, label, size=10)
        legend_y += 16

    for ref, v in fig.references.items():
        canvas.line(x0, sy(v), x1, sy(v), stroke="#444", width=1.2, dashed=True)
        canvas.line(x1 + 10, legend_y, x1 + 30, legend_y, stroke="#444",
                    width=1.2, dashed=True)
        canvas.text(x1 + 36, legend_y + 4, f"{ref} (ref)", size=10)
        legend_y += 16

    return canvas.to_svg()


def queue_snapshot_to_svg(
    snapshot: QueueSnapshot,
    mark_threshold: Optional[int] = None,
    width: int = 700,
    height: int = 220,
) -> str:
    """Render a Figure-1 style queue-composition bar."""
    canvas = SvgCanvas(width, height)
    x0, y0 = 30, 70
    bar_h = 46
    bar_w = width - 60
    limit = max(snapshot.limit_packets, 1)

    canvas.text(width / 2, 24, "Switch egress queue snapshot", size=14,
                anchor="middle")
    canvas.text(width / 2, 42,
                f"t={snapshot.time:.3f}s  occupancy "
                f"{snapshot.qlen_packets}/{snapshot.limit_packets} packets",
                size=11, anchor="middle")

    segments = [
        ("ECT data", snapshot.ect_data + snapshot.ce_marked, "#4269d0"),
        ("pure ACKs", snapshot.pure_acks, "#ff725c"),
        ("SYNs", snapshot.syns, "#efb118"),
        ("other", snapshot.nonect_data, "#6cc5b0"),
    ]
    x = x0
    canvas.rect(x0, y0, bar_w, bar_h, fill="#f4f4f4", stroke="#333")
    legend_x = x0
    for label, count, color in segments:
        w = bar_w * count / limit
        if w > 0:
            canvas.rect(x, y0, w, bar_h, fill=color, stroke="none")
            x += w
        canvas.rect(legend_x, y0 + bar_h + 22, 10, 10, fill=color, stroke="none")
        canvas.text(legend_x + 14, y0 + bar_h + 31, f"{label} ({count})", size=10)
        legend_x += 150

    if mark_threshold is not None and mark_threshold <= limit:
        tx = x0 + bar_w * mark_threshold / limit
        canvas.line(tx, y0 - 10, tx, y0 + bar_h + 10, stroke="#d00",
                    width=1.2, dashed=True)
        canvas.text(tx + 4, y0 - 12, f"K={mark_threshold}", size=10, fill="#d00")

    return canvas.to_svg()


#: Regime colors for the stability map (match the classification names
#: in :mod:`repro.analysis.stability`).
REGIME_COLORS = {
    "stable": "#3ca951",
    "limit-cycle": "#ff725c",
    "chaotic-irregular": "#efb118",
}


def regime_map_to_svg(
    title: str,
    xlabel: str,
    points: Sequence[Dict],
    width: int = 760,
    height: int = 420,
) -> str:
    """Render a one-axis stability map (a ``grid stability`` slice).

    ``points`` are dicts sorted by ``value`` (the swept parameter, on a
    log-scaled x axis) with ``classification`` and ``rel_amplitude`` (the
    dominant queue's relative oscillation amplitude, the y axis). Points
    are colored by regime, the amplitude curve connects them, and the
    span between neighbours whose stable/oscillatory regime flips is
    shaded as the transition bracket.
    """
    import math

    canvas = SvgCanvas(width, height)
    x0, y0 = MARGIN_L, MARGIN_T
    x1, y1 = width - MARGIN_R, height - MARGIN_B

    if not points:
        canvas.text(width / 2, height / 2, "(no points)", anchor="middle")
        return canvas.to_svg()

    lo, hi = points[0]["value"], points[-1]["value"]
    log_lo, log_hi = math.log(lo), math.log(max(hi, lo * 1.0001))
    vmax = max(max(p["rel_amplitude"] for p in points) * 1.15, 0.3)

    def sx(v: float) -> float:
        if log_hi == log_lo:
            return (x0 + x1) / 2
        return x0 + (x1 - x0) * (math.log(v) - log_lo) / (log_hi - log_lo)

    def sy(a: float) -> float:
        return y1 - (y1 - y0) * a / vmax

    _axes(canvas, x0, y0, x1, y1, title, xlabel,
          "relative oscillation amplitude")

    # Shaded transition brackets first, so everything draws on top.
    for a, b in zip(points, points[1:]):
        if (a["classification"] == "stable") != (b["classification"] == "stable"):
            bx0, bx1 = sx(a["value"]), sx(b["value"])
            canvas.rect(bx0, y0, max(bx1 - bx0, 2.0), y1 - y0,
                        fill="#fbe9e7", stroke="none")

    for tick in range(6):
        a = vmax * tick / 5
        canvas.line(x0, sy(a), x1, sy(a), stroke="#eee")
        canvas.text(x0 - 6, sy(a) + 4, f"{a:.2f}", size=10, anchor="end")
    for p in points:
        canvas.text(sx(p["value"]), y1 + 16, f"{p['value']:.4g}", size=9,
                    anchor="middle")

    canvas.polyline([(sx(p["value"]), sy(p["rel_amplitude"]))
                     for p in points], stroke="#bbb", width=1.0)
    for p in points:
        color = REGIME_COLORS.get(p["classification"], "#4269d0")
        canvas.circle(sx(p["value"]), sy(p["rel_amplitude"]), 3.6,
                      fill=color)

    legend_y = y0
    for name, color in REGIME_COLORS.items():
        canvas.circle(x1 + 16, legend_y, 4, fill=color)
        canvas.text(x1 + 26, legend_y + 4, name, size=10)
        legend_y += 16
    canvas.rect(x1 + 10, legend_y - 5, 12, 10, fill="#fbe9e7", stroke="#ccc")
    canvas.text(x1 + 26, legend_y + 4, "transition bracket", size=10)

    return canvas.to_svg()


def grid_regime_map_to_svg(
    m,
    width: int = 760,
    height: int = 420,
) -> str:
    """Render a K-vs-load categorical regime grid.

    ``m`` is a :class:`~repro.experiments.fixedk.FixedKRegimeMap`-shaped
    object: ``k_values`` (x axis, sorted), ``loads`` (y axis, sorted),
    ``title``, and ``cells`` mapping ``(k_index, load_index)`` to a point
    dict with at least ``classification`` and ``rel_amplitude``. Each
    grid cell is a tile colored by regime; the tile's inner dot scales
    with the dominant queue's relative oscillation amplitude, so a row
    of growing dots shows the loop sliding toward its bifurcation even
    before the classification flips.
    """
    canvas = SvgCanvas(width, height)
    x0, y0 = MARGIN_L, MARGIN_T
    x1, y1 = width - MARGIN_R, height - MARGIN_B

    ks, loads = list(m.k_values), list(m.loads)
    if not ks or not loads:
        canvas.text(width / 2, height / 2, "(no points)", anchor="middle")
        return canvas.to_svg()

    _axes(canvas, x0, y0, x1, y1, m.title, "K (packets)", "offered load")

    tile_w = (x1 - x0) / len(ks)
    tile_h = (y1 - y0) / len(loads)
    for ki, k in enumerate(ks):
        canvas.text(x0 + (ki + 0.5) * tile_w, y1 + 16, f"{k}",
                    size=10, anchor="middle")
    for li, load in enumerate(loads):
        # loads grow upward: row 0 sits at the bottom of the grid.
        cy = y1 - (li + 0.5) * tile_h
        canvas.text(x0 - 6, cy + 4, f"{load:.2f}", size=10, anchor="end")

    max_dot = max(2.0, min(tile_w, tile_h) / 2 - 4)
    for ki in range(len(ks)):
        for li in range(len(loads)):
            tx = x0 + ki * tile_w
            ty = y1 - (li + 1) * tile_h
            point = m.cells.get((ki, li))
            if point is None:
                canvas.rect(tx, ty, tile_w, tile_h, fill="#f4f4f4",
                            stroke="#fff")
                continue
            color = REGIME_COLORS.get(str(point["classification"]), "#4269d0")
            canvas.rect(tx, ty, tile_w, tile_h, fill=color, stroke="#fff")
            rel = float(point.get("rel_amplitude") or 0.0)
            r = max_dot * min(rel, 1.0)
            if r > 0.5:
                canvas.circle(tx + tile_w / 2, ty + tile_h / 2, r,
                              fill="#00000055")

    legend_y = y0
    for name, color in REGIME_COLORS.items():
        canvas.rect(x1 + 10, legend_y - 5, 12, 10, fill=color, stroke="none")
        canvas.text(x1 + 26, legend_y + 4, name, size=10)
        legend_y += 16
    canvas.circle(x1 + 16, legend_y, 4, fill="#00000055")
    canvas.text(x1 + 26, legend_y + 4, "dot ∝ rel. amplitude", size=10)

    return canvas.to_svg()


def timeseries_to_svg(
    series: Sequence[TimeSeries],
    title: str = "",
    width: int = 760,
    height: int = 320,
    y_scale: float = 1.0,
    ylabel: str = "",
) -> str:
    """Render one or more TimeSeries (e.g. cwnd traces) as SVG lines."""
    canvas = SvgCanvas(width, height)
    x0, y0 = MARGIN_L, MARGIN_T
    x1, y1 = width - MARGIN_R, height - MARGIN_B

    series = [s for s in series if len(s)]
    if not series:
        canvas.text(width / 2, height / 2, "(no samples)", anchor="middle")
        return canvas.to_svg()

    tmax = max(s.times[-1] for s in series)
    tmin = min(s.times[0] for s in series)
    vmax = max(s.max() for s in series) * y_scale * 1.05 or 1.0

    def sx(t: float) -> float:
        if tmax == tmin:
            return (x0 + x1) / 2
        return x0 + (x1 - x0) * (t - tmin) / (tmax - tmin)

    def sy(v: float) -> float:
        return y1 - (y1 - y0) * v / vmax

    _axes(canvas, x0, y0, x1, y1, title, "time (s)", ylabel)
    for t in range(6):
        v = vmax * t / 5
        canvas.line(x0, sy(v), x1, sy(v), stroke="#eee")
        canvas.text(x0 - 6, sy(v) + 4, f"{v:.3g}", size=10, anchor="end")

    legend_y = y0
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(sx(t), sy(v * y_scale)) for t, v in zip(s.times, s.values)]
        canvas.polyline(pts, stroke=color, width=1.2)
        canvas.line(x1 + 10, legend_y, x1 + 30, legend_y, stroke=color, width=2)
        canvas.text(x1 + 36, legend_y + 4, s.name or f"series {idx}", size=10)
        legend_y += 16

    return canvas.to_svg()
