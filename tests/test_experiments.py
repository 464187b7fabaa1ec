"""Tests for the experiment harness: configs, runner, figures, tables."""

from dataclasses import replace

import pytest

from repro.core import DropTail, ProtectionMode, RedQueue, SimpleMarkingQueue
from repro.errors import ConfigError, ExperimentError
from repro.experiments import (
    DEEP_BUFFER_PACKETS,
    SHALLOW_BUFFER_PACKETS,
    ExperimentConfig,
    QueueSetup,
    run_cell,
)
from repro.experiments.config import CellResult
from repro.experiments.grids import baseline_configs, figure_grid
from repro.experiments.tables import verify_table1, verify_table2
from repro.sim.rng import RngRegistry
from repro.tcp import TcpVariant
from repro.units import gbps, mb, us


def tiny(queue: QueueSetup, variant=TcpVariant.ECN, **kw) -> ExperimentConfig:
    """A fast cell: 8 hosts, 8 MB Terasort in 1 MB blocks."""
    return replace(
        ExperimentConfig(queue=queue, variant=variant),
        n_hosts=8, data_bytes=mb(8), block_bytes=mb(1), n_reducers=8, **kw
    )


class TestQueueSetup:
    def test_droptail_build(self):
        q = QueueSetup(kind="droptail").build("p", gbps(1), RngRegistry(0))
        assert isinstance(q, DropTail)
        assert q.limit_packets == SHALLOW_BUFFER_PACKETS

    def test_red_build(self):
        qs = QueueSetup(kind="red", target_delay_s=us(200))
        q = qs.build("p", gbps(1), RngRegistry(0))
        assert isinstance(q, RedQueue)
        assert q.params.min_th == 17  # 200us * 1Gbps / (8 * 1500B)

    def test_marking_build(self):
        qs = QueueSetup(kind="marking", target_delay_s=us(120))
        q = qs.build("p", gbps(1), RngRegistry(0))
        assert isinstance(q, SimpleMarkingQueue)
        assert q.mark_threshold == 10

    def test_red_requires_target_delay(self):
        with pytest.raises(ConfigError):
            QueueSetup(kind="red").validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            QueueSetup(kind="codel").validate()

    def test_labels(self):
        assert QueueSetup(kind="droptail").label() == "droptail-shallow"
        assert QueueSetup(
            kind="droptail", buffer_packets=DEEP_BUFFER_PACKETS
        ).label() == "droptail-deep"
        assert QueueSetup(
            kind="red", target_delay_s=us(1), protection=ProtectionMode.ACK_SYN
        ).label() == "red-ack+syn"
        assert QueueSetup(kind="marking", target_delay_s=us(1)).label() == "marking"


class TestExperimentConfig:
    def test_scaled_shrinks_data(self):
        cfg = ExperimentConfig(queue=QueueSetup(kind="droptail"))
        assert cfg.scaled(0.5).data_bytes == cfg.data_bytes // 2

    def test_scaled_rejects_nonpositive(self):
        cfg = ExperimentConfig(queue=QueueSetup(kind="droptail"))
        with pytest.raises(ConfigError):
            cfg.scaled(0)

    def test_label_contains_parts(self):
        cfg = ExperimentConfig(
            queue=QueueSetup(kind="red", target_delay_s=us(100)),
            variant=TcpVariant.DCTCP,
        )
        assert "dctcp" in cfg.label()
        assert "100us" in cfg.label()
        assert "shallow" in cfg.label()


class TestRunCell:
    def test_droptail_cell_runs(self):
        cell = run_cell(tiny(QueueSetup(kind="droptail")))
        assert isinstance(cell, CellResult)
        assert cell.runtime > 0
        assert cell.metrics.packets_delivered > 1000
        assert cell.metrics.queue.marks == 0

    def test_red_cell_marks(self):
        # 50 us keeps the RED band well inside the shallow buffer so the
        # EWMA reliably crosses min_th even at this tiny data scale.
        cell = run_cell(tiny(QueueSetup(kind="red", target_delay_s=us(50))))
        assert cell.metrics.queue.marks > 0
        assert cell.metrics.queue.drops_early > 0

    def test_marking_cell_never_early_drops(self):
        cell = run_cell(tiny(QueueSetup(kind="marking", target_delay_s=us(100))))
        assert cell.metrics.queue.drops_early == 0

    def test_determinism(self):
        cfg = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        a = run_cell(cfg)
        b = run_cell(cfg)
        assert a.runtime == b.runtime
        assert a.metrics.mean_latency == b.metrics.mean_latency

    def test_seed_changes_results(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        a = run_cell(cfg)
        b = run_cell(replace(cfg, seed=7))
        assert a.runtime != b.runtime

    def test_monitoring_produces_snapshots(self):
        cell = run_cell(tiny(QueueSetup(kind="droptail"),
                             monitor_interval_s=0.005))
        assert cell.snapshots

    def test_throughput_consistent_with_runtime(self):
        cell = run_cell(tiny(QueueSetup(kind="droptail")))
        m = cell.metrics
        expect = m.bytes_transferred * 8 / m.runtime / m.n_nodes
        assert m.throughput_per_node_bps == pytest.approx(expect)

    def test_horizon_violation_raises(self):
        cfg = replace(tiny(QueueSetup(kind="droptail")), sim_horizon_s=0.001)
        with pytest.raises(ExperimentError):
            run_cell(cfg)


class TestGrids:
    def test_figure_grid_shape(self):
        cells = figure_grid(deep=False)
        # 2 variants x (3 protections + marking) x 5 delays
        assert len(cells) == 2 * 4 * 5
        labels = {c.label() for c in cells}
        assert len(labels) == len(cells)  # all distinct

    def test_deep_grid_uses_deep_buffers(self):
        cells = figure_grid(deep=True)
        assert all(c.queue.buffer_packets == DEEP_BUFFER_PACKETS for c in cells)

    def test_baselines(self):
        b = baseline_configs()
        assert set(b) == {"droptail-shallow", "droptail-deep"}
        assert b["droptail-shallow"].queue.kind == "droptail"
        assert b["droptail-deep"].queue.is_deep

    def test_grid_scale_applied(self):
        cells = figure_grid(deep=False, scale=0.25)
        full = figure_grid(deep=False, scale=1.0)
        assert cells[0].data_bytes == full[0].data_bytes // 4


class TestArtifactPin:
    """Every paper artifact is a projection of the ``claims`` preset's
    results, byte-equal to what the per-figure sweeps printed before the
    artifacts became grid presets (sha256 of each rendering, scale 0.01,
    seed 42)."""

    PINNED = {
        "fig2a": "7ab76b9db8d46d386d95736ef39e622722ef86a7da779982bba1264d2699225d",
        "fig2b": "64f3f70e8d198089bd06ae7047f071f74d3ed9582d21a5013f1f17bc9755a2f9",
        "fig3a": "eb8eae46d7358ec2bc987fc97e0a8396424a046d1985002cb8067d703fe736af",
        "fig3b": "fb12803cb143224a77589f730d0fc058450899d64dcee3fde67892b647be4f3f",
        "fig4a": "95330d8fd5207bf93f84d68e84cca0e55140d6c23a674a256510b6b3cccd428b",
        "fig4b": "628e1c59000b1198b1076afe4942251c49743bf1289c4285ae8a09147789f2b8",
        "fig1": "910e7687cf6784776a11f980cca0a775b56cabb26fe0a1c340212d431e901e14",
        "claims": "597f791e7eeadcf7e2407c7a6c30def4dae7b9cf3680b34408b4daae6664f9a2",
    }

    @staticmethod
    def _sha(text: str) -> str:
        import hashlib

        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.fixture(scope="class")
    def results(self, report_run):
        # The claims cells `repro report --scale 0.01` ran (conftest.py),
        # under their grid labels: one run of the 83 cells per session.
        from repro.experiments import config_cache_key, grid_work

        _axes, work = grid_work("claims", scale=0.01)
        return {label: report_run.results[config_cache_key(cfg)]
                for label, cfg in work}

    def test_figures_claims_and_fig1_are_pinned(self, results):
        from repro.experiments import GRIDS
        from repro.experiments.figures import (
            fig1_data, paper_figure, render_fig1, render_figure)
        from repro.experiments.report import check_claims, render_claims

        figs = [paper_figure(results, fig, deep)
                for fig in ("fig2", "fig3", "fig4") for deep in (False, True)]
        got = {fig.name: self._sha(render_figure(fig)) for fig in figs}
        got["fig1"] = self._sha(render_fig1(fig1_data(results["fig1"])))
        got["claims"] = self._sha(render_claims(check_claims(results)))
        assert got == self.PINNED
        # The presets print exactly these renderings.
        assert GRIDS["figures"].render(results) == "\n\n".join(
            render_figure(fig) for fig in figs)
        assert self._sha(GRIDS["fig1"].render(results)) == self.PINNED["fig1"]
        assert (self._sha(GRIDS["claims"].render(results))
                == self.PINNED["claims"])

    def test_fig1_at_one_eighth_scale_is_pinned(self):
        """Figure 1 where its queue is not empty: at scale 0.01 the busiest
        switch snapshot holds 0 packets, at 1/8 it holds 23, all CE.
        "marked instead: 0" beside 23 CE packets is ROADMAP item 15's
        accounting gap: the marks happen at host NICs, which the switch
        totals do not count. Mending that is expected to move this pin."""
        from repro.experiments.figures import (
            fig1_config, fig1_data, render_fig1)

        data = fig1_data(run_cell(fig1_config(0.125, 42)))
        assert (data.snapshot.qlen_packets, data.snapshot.ce_marked) == (
            23, 23)
        assert self._sha(render_fig1(data)) == (
            "0c112caba835c46d48b57a5c08d31db719f93b564c571f8de3ceb9e09ffc2acb")

    def test_preset_figures_are_one_svg_per_subfigure(self, results):
        from repro.experiments import GRIDS

        svgs = GRIDS["figures"].figures(results)
        assert [name for name, _svg in svgs] == [
            "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b"]
        assert [name for name, _svg in GRIDS["fig1"].figures(results)] == [
            "fig1"]
        assert all(svg.startswith("<svg") for _name, svg in svgs)

    def test_report_renders_the_same_artifacts(self, results):
        from repro.experiments import GRIDS
        from repro.experiments.report import render_experiments_md

        text = render_experiments_md(results, 0.01, 42)
        assert "(scale=0.01, seed=42)" in text
        for name in ("fig1", "figures", "claims"):
            for block in GRIDS[name].render(results).split("\n\n"):
                assert block in text

    def test_a_missing_cell_is_named(self, results):
        from repro.experiments.report import check_claims

        partial = {k: v for k, v in results.items() if k != "fig1"}
        with pytest.raises(ExperimentError, match="missing grid cell fig1"):
            check_claims(partial)


class TestTables:
    def test_table1_verified(self):
        assert all(ok for _, ok in verify_table1())

    def test_table2_verified(self):
        assert all(ok for _, ok in verify_table2())
