"""Benchmarks for Figure 2 (exp ids F2a, F2b): Hadoop runtime vs RED
target delay, normalized to DropTail-shallow."""

from repro.experiments.figures import paper_figure, render_figure
from repro.tcp import TcpVariant

from conftest import run_once


def _common_checks(fig):
    assert len(fig.series) == 8  # 2 variants x (3 protections + marking)
    for vals in fig.series.values():
        assert len(vals) == len(fig.delays)
        assert all(v > 0 for v in vals)


def test_fig2a(benchmark, paper_results):
    """F2a — shallow buffers.

    Shape assertions: the marking scheme is robust (never materially
    slower than DropTail at any target delay) and at least matches the
    best RED-default point; RED-default's worst point is its most
    aggressive setting or it is never better than marking.
    """
    fig = run_once(benchmark, paper_figure, paper_results, "fig2", False)
    _common_checks(fig)
    for variant in (TcpVariant.ECN, TcpVariant.DCTCP):
        marking = fig.series[f"{variant}/marking"]
        default = fig.series[f"{variant}/red-default"]
        assert max(marking) <= 1.10          # robustness across the sweep
        assert min(marking) <= min(default) + 0.02
    assert render_figure(fig)


def test_fig2b(benchmark, paper_results):
    """F2b — deep buffers, with the DropTail-deep dashed reference.

    Shape assertions: protected/marking configurations reach (or beat)
    the DropTail-deep reference runtime, as the paper reports.
    """
    fig = run_once(benchmark, paper_figure, paper_results, "fig2", True)
    _common_checks(fig)
    assert "droptail-deep" in fig.references
    ref = fig.references["droptail-deep"]
    for variant in (TcpVariant.ECN, TcpVariant.DCTCP):
        assert min(fig.series[f"{variant}/marking"]) <= ref + 0.02
        assert min(fig.series[f"{variant}/red-ack+syn"]) <= ref + 0.05
    assert render_figure(fig)
