"""Claim checking and the EXPERIMENTS.md renderer.

The paper's quantitative statements are encoded as :class:`ClaimResult`
checks over the results of the ``claims`` grid preset (see DESIGN.md §4
for the claim inventory, C1-C6): the 82 paper-grid cells plus the
``fig1`` cell. ``render_experiments_md`` turns those same results into the
paper-vs-measured block of EXPERIMENTS.md, which ``report_frame`` places
between the file's hand-written sections. Nothing here runs a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.config import CellResult
from repro.experiments.figures import (
    FIGURE_SPECS,
    FigureData,
    fig1_data,
    paper_figure,
    render_fig1,
    render_figure,
    require_cell,
)
from repro.experiments.tables import render_table1, render_table2
from repro.tcp.endpoint import TcpVariant

__all__ = ["ClaimResult", "check_claims", "render_claims",
           "render_experiments_md", "report_frame", "REPORT_BEGIN",
           "REPORT_END"]


@dataclass
class ClaimResult:
    """One paper claim with its measured counterpart."""

    claim_id: str
    paper: str
    measured: str
    passed: bool


def _series_min(fig: FigureData, qlabel: str) -> float:
    """Best (minimum) normalized value of one queue label across variants."""
    return min(
        min(vals)
        for key, vals in fig.series.items()
        if key.endswith("/" + qlabel)
    )


def _series_max(fig: FigureData, qlabel: str) -> float:
    """Worst (maximum) normalized value of one queue label across variants."""
    return max(
        max(vals)
        for key, vals in fig.series.items()
        if key.endswith("/" + qlabel)
    )


def check_claims(results: Dict[str, CellResult]) -> List[ClaimResult]:
    """Check claims C1-C6 from DESIGN.md against the ``claims`` preset's
    results; raises :class:`ExperimentError` naming a missing cell."""
    f2a, f3a, f4a = (paper_figure(results, fig, False)
                     for fig in ("fig2", "fig3", "fig4"))
    f3b, f4b = (paper_figure(results, fig, True) for fig in ("fig3", "fig4"))
    f1 = fig1_data(require_cell(results, "fig1"))

    claims: List[ClaimResult] = []

    # C1 — default AQM at aggressive settings degrades throughput.
    dctcp_default_aggr = f2a.series[f"{TcpVariant.DCTCP}/red-default"][0]
    ecn_default_aggr = f2a.series[f"{TcpVariant.ECN}/red-default"][0]
    worst = max(dctcp_default_aggr, ecn_default_aggr)
    claims.append(ClaimResult(
        "C1",
        "Relying on default AQM marking degrades cluster throughput "
        "(prior work reported ~20% loss)",
        f"normalized runtime at most aggressive target delay: "
        f"TCP-ECN {ecn_default_aggr:.2f}x, DCTCP {dctcp_default_aggr:.2f}x "
        f"DropTail-shallow",
        worst > 1.05,
    ))

    # C2 — ECE-bit protection achieves the lowest latency band.
    ece_lat = _series_min(f4a, "red-ece")
    default_lat = _series_min(f4a, "red-default")
    claims.append(ClaimResult(
        "C2",
        "ECE-bit protection achieves the lowest latency while alleviating "
        "the throughput loss",
        f"best normalized latency shallow: red-ece {ece_lat:.2f}, "
        f"red-default {default_lat:.2f}; best runtime red-ece "
        f"{_series_min(f2a, 'red-ece'):.2f} vs red-default "
        f"{_series_min(f2a, 'red-default'):.2f}",
        ece_lat <= 0.5 and _series_min(f2a, "red-ece") <= _series_min(f2a, "red-default") + 0.02,
    ))

    # C3 — ACK+SYN / true marking recover full throughput (~+10% vs DropTail).
    mark_tput = _series_max(f3a, "marking")
    acksyn_tput = _series_max(f3a, "red-ack+syn")
    claims.append(ClaimResult(
        "C3",
        "ACK+SYN protection and the true marking scheme avoid the loss and "
        "boost throughput ~10% over DropTail",
        f"best normalized throughput shallow: marking {mark_tput:.2f}x, "
        f"red-ack+syn {acksyn_tput:.2f}x DropTail-shallow",
        mark_tput >= 1.05,
    ))

    # C4 — latency reduced by ~85% relative to deep DropTail.
    best_deep_lat = min(_series_min(f4b, q) for q in
                        ("red-ece", "red-ack+syn", "marking"))
    claims.append(ClaimResult(
        "C4",
        "Latency reduced by about 85% (vs DropTail with deep buffers)",
        f"best normalized latency deep: {best_deep_lat:.3f} "
        f"(= {100 * (1 - best_deep_lat):.0f}% reduction)",
        best_deep_lat <= 0.25,
    ))

    # C5 — shallow switches reach deep-switch throughput with marking.
    mark_deep_tput = _series_max(f3b, "marking")
    claims.append(ClaimResult(
        "C5",
        "Commodity shallow-buffer switches reach the same throughput as "
        "deep-buffer switches under a true marking scheme",
        f"best marking throughput: shallow {mark_tput:.2f}x vs deep "
        f"{mark_deep_tput:.2f}x (both normalized to DropTail-shallow)",
        abs(mark_tput - mark_deep_tput) <= 0.10 * max(mark_tput, mark_deep_tput),
    ))

    # C6 — ACK drops are disproportionate to ACK traffic share.
    claims.append(ClaimResult(
        "C6",
        "Default ECN-enabled AQM drops a disproportionate number of ACKs "
        "(ECT data is marked instead of dropped)",
        f"pure ACKs are {f1.ack_arrival_share:.1%} of arrivals but "
        f"{f1.ack_drop_share:.1%} of drops; ECT drop rate "
        f"{f1.ect_drop_rate:.2%}, marks {f1.marks}",
        f1.ack_drop_share > 1.5 * f1.ack_arrival_share and f1.ect_drop_rate < 0.01,
    ))

    return claims


def render_claims(claims: List[ClaimResult]) -> str:
    """ASCII table of claim outcomes."""
    lines = ["Paper claims vs measured", "=" * 24]
    for c in claims:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.claim_id}: {c.paper}")
        lines.append(f"       measured: {c.measured}")
    return "\n".join(lines)


#: ``repro report`` rewrites only the text between these two lines of
#: EXPERIMENTS.md; everything before and after them is hand-written.
REPORT_BEGIN = ("<!-- BEGIN generated by `repro report`: "
                "edits up to the END line are overwritten -->")
REPORT_END = "<!-- END generated by `repro report` -->"


def report_frame(existing: Optional[str]) -> Tuple[str, str]:
    """The text of an EXPERIMENTS.md around its generated block: through
    the BEGIN line, and from the END marker on. ``existing`` is the file's
    text, or None for a file that does not exist yet (the frame is then
    the two markers alone).

    Raises :class:`ExperimentError` when ``existing`` lacks either marker,
    so that ``report`` never overwrites a file it did not generate.
    """
    if existing is None:
        return f"{REPORT_BEGIN}\n", f"{REPORT_END}\n"
    start = existing.find(REPORT_BEGIN)
    end = existing.find(REPORT_END, start)
    if start < 0 or end < 0:
        raise ExperimentError(
            "no block between the BEGIN and END markers of `repro report` "
            "to rewrite")
    return f"{existing[:start]}{REPORT_BEGIN}\n", existing[end:]


def render_experiments_md(results: Dict[str, CellResult], scale: float,
                          seed: int) -> str:
    """The generated block of EXPERIMENTS.md, from its title to the
    claims tally, from the ``claims`` preset's results, which were run at
    ``scale`` and ``seed``."""
    figs = [paper_figure(results, fig, deep)
            for fig in FIGURE_SPECS for deep in (False, True)]
    f1 = fig1_data(require_cell(results, "fig1"))
    claims = check_claims(results)

    parts: List[str] = []
    parts.append("# EXPERIMENTS — paper vs measured\n")
    parts.append(
        f"All simulations: 16-node single-rack cluster, 1 Gbps links, "
        f"scaled Terasort (scale={scale}, seed={seed}). Values are "
        f"normalized exactly as the paper normalizes them (runtime and "
        f"throughput to DropTail-shallow; latency to DropTail at the same "
        f"buffer depth). We reproduce shapes and orderings, not absolute "
        f"testbed numbers.\n"
    )
    parts.append("## Tables I & II\n")
    parts.append("```\n" + render_table1() + "\n\n" + render_table2() + "\n```\n")
    parts.append("## Figure 1\n")
    parts.append("```\n" + render_fig1(f1) + "\n```\n")
    for fig in figs:
        parts.append(f"## {fig.name}\n")
        parts.append("```\n" + render_figure(fig) + "\n```\n")
    parts.append("## Claim checks\n")
    parts.append("```\n" + render_claims(claims) + "\n```\n")
    n_pass = sum(c.passed for c in claims)
    parts.append(f"\n**{n_pass}/{len(claims)} claims reproduced.**\n")
    return "\n".join(parts)
