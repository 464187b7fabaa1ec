"""Benchmarks for Figure 3 (exp ids F3a, F3b): cluster throughput per
node vs RED target delay, normalized to DropTail-shallow."""

from repro.experiments.figures import paper_figure, render_figure
from repro.tcp import TcpVariant

from conftest import run_once


def test_fig3a(benchmark, paper_results):
    """F3a — shallow buffers.

    Shape assertions: ACK+SYN and marking sustain DropTail-level (or
    better) throughput across the whole sweep, and their best point beats
    the baseline (the paper's ~10% boost); RED-default never beats them
    at the aggressive end.
    """
    fig = run_once(benchmark, paper_figure, paper_results, "fig3", False)
    for variant in (TcpVariant.ECN, TcpVariant.DCTCP):
        marking = fig.series[f"{variant}/marking"]
        default = fig.series[f"{variant}/red-default"]
        assert min(marking) >= 0.90
        assert max(marking) >= 1.0   # at least full DropTail throughput
        # aggressive end: marking >= default (ACK drops cost default)
        assert marking[0] >= default[0] - 0.02
    assert render_figure(fig)


def test_fig3b(benchmark, paper_results):
    """F3b — deep buffers.

    Shape assertions: with correct marking, deep buffers add nothing —
    throughput matches the shallow marking results (the paper's
    commodity-switch claim is asserted cross-figure in the claims
    report; here we check the deep marking series is flat and >= 0.9).
    """
    fig = run_once(benchmark, paper_figure, paper_results, "fig3", True)
    assert "droptail-deep" in fig.references
    for variant in (TcpVariant.ECN, TcpVariant.DCTCP):
        marking = fig.series[f"{variant}/marking"]
        assert min(marking) >= 0.90
        spread = max(marking) - min(marking)
        assert spread <= 0.15  # robust/flat across target delays
    assert render_figure(fig)
