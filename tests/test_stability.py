"""The stability observatory: classifier, aggregation, regime maps.

Unit-level tests drive the detector with synthetic queue series (sines,
constants, seeded noise) so each regime's decision boundary is pinned
without running the simulator; the ``grid stability`` render is tested
on stubbed stability blocks with a known regime boundary; one small
integration test runs a real incast probe cell end to end and checks the
``manifest["stability"]`` block lands with the right schema.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.stability import (
    CLASS_IRREGULAR,
    CLASS_LIMIT_CYCLE,
    CLASS_STABLE,
    STABILITY_SCHEMA,
    StabilityAnalysis,
    classify_series,
    snapshots_by_queue,
)
from repro.errors import ConfigError
from repro.experiments.config import SHALLOW_BUFFER_PACKETS, QueueSetup
from repro.experiments.probe import (
    StabilityProbeConfig,
    render_stability_map,
    stability_map_svgs,
)
from repro.experiments.runner import run_cell
from repro.plotting import regime_map_to_svg
from repro.tcp.endpoint import TcpVariant
from repro.units import us


def sine_series(n=256, dt=1e-3, period_s=16e-3, mean=20.0, amp=10.0,
                phase=0.0):
    t = np.arange(n) * dt
    return t, mean + amp * np.sin(2.0 * math.pi * t / period_s + phase)


# ---------------------------------------------------------------------------
# classifier


class TestClassifySeries:
    def test_sawtoothlike_sine_is_limit_cycle(self):
        t, v = sine_series()
        ev = classify_series(t, v, name="q")
        assert ev.classification == CLASS_LIMIT_CYCLE
        assert ev.confidence >= 0.5
        assert ev.period_s == pytest.approx(16e-3, rel=0.1)
        assert ev.peak_ratio > 50.0
        assert ev.acf_at_period > 0.3

    def test_constant_queue_is_stable_full_confidence(self):
        t = np.arange(128) * 1e-3
        ev = classify_series(t, np.full(128, 7.0))
        assert ev.classification == CLASS_STABLE
        assert ev.confidence == 1.0
        assert ev.amplitude == 0.0

    def test_small_relative_ripple_is_stable(self):
        # DCTCP held at K: a couple of packets around a deep operating point
        t, v = sine_series(mean=100.0, amp=5.0)
        ev = classify_series(t, v)
        assert ev.classification == CLASS_STABLE
        assert ev.rel_amplitude < 0.15

    def test_large_aperiodic_fluctuation_is_irregular(self):
        rng = np.random.default_rng(11)
        t = np.arange(512) * 1e-3
        v = np.abs(rng.normal(20.0, 15.0, size=512))
        ev = classify_series(t, v)
        assert ev.classification == CLASS_IRREGULAR

    def test_short_series_low_confidence_stable(self):
        t, v = sine_series(n=10)
        ev = classify_series(t, v)
        assert ev.classification == CLASS_STABLE
        assert ev.confidence == 0.25

    def test_profile_kept_and_bounded(self):
        t, v = sine_series(n=500)
        ev = classify_series(t, v, keep_profile=True)
        assert 2 <= len(ev.profile) <= 64
        # the block must round-trip through JSON unchanged
        d = ev.to_dict()
        assert json.loads(json.dumps(d)) == d

    def test_transient_rampup_discarded(self):
        # slow-start ramp into a flat steady state: stable, not irregular
        t = np.arange(200) * 1e-3
        v = np.concatenate([np.linspace(0.0, 40.0, 40), np.full(160, 40.0)])
        ev = classify_series(t, v)
        assert ev.classification == CLASS_STABLE


# ---------------------------------------------------------------------------
# snapshot grouping


def snap(time, qlen, queue=""):
    return SimpleNamespace(time=time, qlen_packets=qlen, queue=queue)


class TestSnapshotsByQueue:
    def test_labeled_snapshots_group_by_queue(self):
        snaps = [snap(0.0, 1, "tor.p0"), snap(0.0, 9, "tor.p1"),
                 snap(1.0, 2, "tor.p0"), snap(1.0, 8, "tor.p1")]
        out = snapshots_by_queue(snaps)
        assert sorted(out) == ["tor.p0", "tor.p1"]
        assert out["tor.p0"] == ([0.0, 1.0], [1.0, 2.0])
        assert out["tor.p1"] == ([0.0, 1.0], [9.0, 8.0])

    def test_unlabeled_snapshots_segment_on_time_reset(self):
        # run_cell lists one monitor's series after another
        snaps = [snap(0.0, 1), snap(1.0, 2), snap(0.0, 5), snap(1.0, 6)]
        out = snapshots_by_queue(snaps)
        assert sorted(out) == ["queue0", "queue1"]
        assert out["queue0"] == ([0.0, 1.0], [1.0, 2.0])
        assert out["queue1"] == ([0.0, 1.0], [5.0, 6.0])

    def test_empty(self):
        assert snapshots_by_queue([]) == {}


# ---------------------------------------------------------------------------
# per-cell aggregation


def fake_cell(series_by_queue, config=None):
    """A CellResult stand-in: labeled snapshots + an empty manifest."""
    snaps = []
    for qname, (t, v) in series_by_queue.items():
        snaps.extend(snap(float(ti), float(vi), qname)
                     for ti, vi in zip(t, v))
    return SimpleNamespace(config=config, snapshots=snaps, manifest={})


class TestStabilityAnalysis:
    def test_dominant_queue_drives_cell_verdict(self):
        cell = fake_cell({
            "tor.p0": sine_series(amp=10.0),        # the big oscillator
            "tor.p1": sine_series(mean=5.0, amp=0.1),  # basically flat
        })
        report = StabilityAnalysis().report(cell)
        assert report.classification == CLASS_LIMIT_CYCLE
        assert report.dominant_queue == "tor.p0"
        assert report.counts[CLASS_LIMIT_CYCLE] == 1
        assert report.counts[CLASS_STABLE] == 1

    def test_phase_locked_queues_synchronized(self):
        cell = fake_cell({
            "tor.p0": sine_series(amp=10.0),
            "tor.p1": sine_series(amp=10.0),
        })
        report = StabilityAnalysis().report(cell)
        assert report.sync_score is not None
        assert report.sync_score > 0.9

    def test_no_snapshots_is_low_confidence_stable(self):
        report = StabilityAnalysis().report(fake_cell({}))
        assert report.classification == CLASS_STABLE
        assert report.confidence == 0.25
        assert report.dominant_queue is None
        assert report.queues == []

    def test_analyze_is_deterministic_and_schemad(self):
        cell = fake_cell({"tor.p0": sine_series()})
        sa = StabilityAnalysis()
        a = json.dumps(sa.analyze(cell), sort_keys=True)
        b = json.dumps(sa.analyze(cell), sort_keys=True)
        assert a == b
        assert json.loads(a)["schema"] == STABILITY_SCHEMA


# ---------------------------------------------------------------------------
# probe config


class TestStabilityProbeConfig:
    def _cfg(self, **kw):
        kw.setdefault("queue", QueueSetup(
            kind="marking", buffer_packets=SHALLOW_BUFFER_PACKETS,
            target_delay_s=us(200.0)))
        return StabilityProbeConfig(**kw)

    def test_validate_accepts_default(self):
        self._cfg().validate()

    def test_flow_outlives_horizon(self):
        cfg = self._cfg()
        # senders must keep the bottleneck busy for the whole horizon
        assert cfg.flow_bytes() * 8 > cfg.link_rate_bps * cfg.duration_s

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            self._cfg(n_senders=0).validate()
        with pytest.raises(ConfigError):
            self._cfg(monitor_interval_s=2.0, duration_s=1.0).validate()
        with pytest.raises(ConfigError):
            self._cfg(dctcp_g=1.5).validate()


# ---------------------------------------------------------------------------
# the `grid stability` render (stubbed stability blocks, no simulation)


def stubbed_probe(td_us, classification, g=None):
    """A probe result whose stability block says ``classification``."""
    cfg = StabilityProbeConfig(
        queue=QueueSetup(kind="marking", target_delay_s=us(td_us)),
        variant=TcpVariant.DCTCP, dctcp_g=g)
    osc = classification != CLASS_STABLE
    block = {"classification": classification, "confidence": 0.75,
             "dominant_queue": "tor.p0",
             "queues": [{"name": "tor.p0", "amplitude": 3.0,
                         "rel_amplitude": 0.5 if osc else 0.05,
                         "period_s": 3e-3 if osc else None}]}
    return SimpleNamespace(config=cfg, snapshots=[],
                           manifest={"stability": block})


def probe_results(*points):
    cells = [stubbed_probe(*p) for p in points]
    return {c.config.label(): c for c in cells}


class TestStabilityMapRender:
    def test_flipping_slice_shows_boundary_and_midpoint(self):
        results = probe_results((1000, CLASS_STABLE), (50, CLASS_LIMIT_CYCLE),
                                (300, CLASS_STABLE), (100, CLASS_LIMIT_CYCLE))
        table = render_stability_map(results)
        lines = table.splitlines()
        assert lines[0] == "stability map over target_delay (g=default)"
        values = [ln.split()[0] for ln in lines[3:]
                  if ln.split() and ln.split()[0].endswith("us")]
        assert values == ["50us", "100us", "300us", "1000us"]
        # sqrt(100 * 300) = 173.2 -> whole microseconds
        boundary = lines.index(
            f"{'':>12} --- stable/oscillatory boundary, midpoint 173us ---")
        assert lines[boundary - 1].split()[0] == "100us"
        assert "transition: limit-cycle -> stable in [100us, 300us]" in table
        assert lines[-1] == "refine: --axis target_delay=50,100,173,300,1000"

    def test_uniform_slice_shows_neither(self):
        table = render_stability_map(probe_results(
            (400, CLASS_STABLE), (800, CLASS_STABLE)))
        assert "boundary" not in table and "midpoint" not in table
        assert "refine" not in table
        assert table.splitlines()[-1] == "no regime transitions on this grid"

    def test_one_slice_per_g_and_g_is_x_when_only_g_varies(self):
        two_g = render_stability_map(probe_results(
            (100, CLASS_LIMIT_CYCLE, 0.0625), (500, CLASS_STABLE, 0.0625),
            (100, CLASS_STABLE, 0.25), (500, CLASS_STABLE, 0.25)))
        blocks = two_g.split("\n\n")
        assert [b.splitlines()[0] for b in blocks if b.startswith("stab")] == [
            "stability map over target_delay (g=0.0625)",
            "stability map over target_delay (g=0.25)"]
        assert two_g.count("boundary") == 1
        only_g = render_stability_map(probe_results(
            (200, CLASS_LIMIT_CYCLE, 0.0625), (200, CLASS_STABLE, 0.25)))
        assert only_g.startswith("stability map over g (target_delay=200us)")
        assert "midpoint 0.125 ---" in only_g
        assert only_g.splitlines()[-1] == "refine: --axis g=0.0625,0.125,0.25"
        with_default = render_stability_map(probe_results(
            (200, CLASS_LIMIT_CYCLE), (200, CLASS_STABLE, 0.25)))
        assert with_default.startswith(
            "stability map over target_delay (g=default)")
        assert "boundary" not in with_default  # one point per slice

    def test_adjacent_whole_microseconds_have_no_midpoint(self):
        table = render_stability_map(probe_results(
            (282, CLASS_IRREGULAR), (283, CLASS_STABLE)))
        assert "--- stable/oscillatory boundary ---" in table
        assert "midpoint" not in table and "refine" not in table

    def test_unstamped_cells_get_a_stability_block(self):
        cfg = StabilityProbeConfig(queue=QueueSetup(
            kind="marking", target_delay_s=us(100.0)))
        cell = fake_cell({"tor.p0": sine_series()}, config=cfg)
        assert "limit-cycle" in render_stability_map({"c": cell})
        assert cell.manifest["stability"]["classification"] == CLASS_LIMIT_CYCLE

    def test_one_svg_per_slice_with_the_bracket(self):
        svgs = stability_map_svgs(probe_results(
            (100, CLASS_LIMIT_CYCLE), (300, CLASS_STABLE)))
        assert [name for name, _svg in svgs] == ["g-default"]
        svg = svgs[0][1]
        assert svg.startswith("<svg")
        assert "limit-cycle" in svg and "transition bracket" in svg
        assert "refined" not in svg


# ---------------------------------------------------------------------------
# integration: one real probe cell through run_cell(analyses=...)


class TestProbeIntegration:
    def test_probe_cell_lands_stability_block(self):
        cfg = StabilityProbeConfig(
            queue=QueueSetup(kind="marking",
                             buffer_packets=SHALLOW_BUFFER_PACKETS,
                             target_delay_s=us(100.0)),
            variant=TcpVariant.ECN, duration_s=0.25,
        )
        cell = run_cell(cfg, analyses=[StabilityAnalysis()])
        block = cell.manifest["stability"]
        assert block["schema"] == STABILITY_SCHEMA
        assert block["classification"] in (CLASS_STABLE, CLASS_LIMIT_CYCLE,
                                           CLASS_IRREGULAR)
        assert cell.manifest["kind"] == "stability-probe"
        assert cell.metrics.extra["goodput_bps"] > 0
        # the block is a pure function of the recorded samples
        again = StabilityAnalysis().analyze(cell)
        assert json.dumps(block, sort_keys=True) == json.dumps(
            again, sort_keys=True)

    def test_telemetry_leaves_samples_and_verdict_unchanged(self):
        """A session with a ``queue.sample`` writer listens to the probe's
        own monitors: the same snapshots and verdict as a plain run, and
        one JSONL row per sample (no second set of monitors whose series
        would join the first under the same queue names)."""
        from repro.telemetry import Telemetry, TraceJsonlWriter
        from repro.validate.smoke import stability_smoke_cells

        name, expected, cfg = stability_smoke_cells()[0]
        assert name == "oscillating"
        plain = run_cell(cfg, analyses=[StabilityAnalysis()])
        tel = Telemetry()
        writer = TraceJsonlWriter(tel.tracer, kinds=("queue.sample",))
        observed = run_cell(cfg, telemetry=tel,
                            analyses=[StabilityAnalysis()])
        assert observed.snapshots == plain.snapshots
        assert observed.manifest["stability"] == plain.manifest["stability"]
        assert plain.manifest["stability"]["classification"] == expected
        assert writer.rows_written == len(plain.snapshots)
