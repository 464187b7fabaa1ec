"""Benchmark for Figure 1 (exp id F1): the congested-queue snapshot and
the ACK-drop asymmetry it illustrates."""

from repro.experiments import run_cell
from repro.experiments.figures import fig1_config, fig1_data, render_fig1

from conftest import run_once


def test_fig1(benchmark, bench_scale, bench_seed):
    """F1 — queue snapshot under default RED/ECN during the shuffle.

    Shape assertions:

    * the AQM produced early drops, and ECT data survived them (its drop
      rate stays near zero because it is marked instead);
    * the busiest observed queue is dominated by ECT data packets;
    * pure ACKs were early-dropped at a higher rate than ECT data — the
      disproportionality of the paper's Section II.

    Runs at no less than 1/4 scale: below it the shuffle is over before
    RED's EWMA reaches ``min_th`` (at 1/8 the busiest queue holds 23
    packets and there is not one early drop or mark), so there is no
    congested queue to take a snapshot of.
    """
    data = run_once(benchmark, lambda: fig1_data(
        run_cell(fig1_config(max(bench_scale, 0.25), bench_seed))))

    assert data.early_drops > 0
    assert data.marks > 0
    assert data.ect_drop_rate < 0.02
    assert data.ack_drop_rate > data.ect_drop_rate
    assert data.snapshot.qlen_packets > 0
    assert data.snapshot.ect_fraction > 0.5

    text = render_fig1(data)
    assert "snapshot" in text
