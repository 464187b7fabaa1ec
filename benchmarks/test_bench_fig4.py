"""Benchmarks for Figure 4 (exp ids F4a, F4b): mean per-packet network
latency vs RED target delay, normalized to DropTail at the same depth."""

from repro.experiments.figures import paper_figure, render_figure
from repro.tcp import TcpVariant

from conftest import run_once


def test_fig4a(benchmark, paper_results):
    """F4a — shallow buffers, normalized to DropTail-shallow.

    Shape assertions: latency falls as the target delay tightens
    (monotone trend per series), and the aggressive end cuts latency to
    half or less of DropTail — the paper's "never lower than 50%"
    observation region.
    """
    fig = run_once(benchmark, paper_figure, paper_results, "fig4", False)
    for key, vals in fig.series.items():
        assert vals[0] <= vals[-1] + 0.05, key  # tighter delay -> lower latency
        assert vals[0] <= 0.6, key
    assert render_figure(fig)


def test_fig4b(benchmark, paper_results):
    """F4b — deep buffers, normalized to DropTail-deep.

    Shape assertions: the headline ~85% latency reduction appears (best
    point <= 0.25 of DropTail-deep), and the dashed shallow-DropTail
    reference sits far below 1.0 (deep DropTail is the Bufferbloat
    worst case).
    """
    fig = run_once(benchmark, paper_figure, paper_results, "fig4", True)
    best = min(min(v) for v in fig.series.values())
    assert best <= 0.25  # >= 75% reduction; paper reports ~85%
    assert "droptail-shallow" in fig.references
    assert fig.references["droptail-shallow"] < 0.6
    for variant in (TcpVariant.ECN, TcpVariant.DCTCP):
        # marking achieves the lowest (or tied) latency band
        marking_best = min(fig.series[f"{variant}/marking"])
        default_best = min(fig.series[f"{variant}/red-default"])
        assert marking_best <= default_best + 0.05
    assert render_figure(fig)
