"""Extension benchmarks (beyond the paper's own figures).

* E1 — leaf-spine generalisation: the scheme ordering survives a second
  switching tier and oversubscription.
* E2 — workload generality: the paper's conclusion says its findings
  carry to any workload with a fabric-stressing shuffle; the preset
  sweep shows the effect scaling with shuffle volume and vanishing for
  the shuffle-light negative control.
"""

from dataclasses import replace

import numpy as np

from repro.core import DropTail, ProtectionMode
from repro.experiments import ExperimentConfig, QueueSetup, run_cell
from repro.experiments.multirack import MultiRackConfig
from repro.mapreduce import ClusterSpec, MapReduceEngine, NodeSpec, make_job
from repro.net import build_single_rack
from repro.sim import Simulator
from repro.tcp import TcpConfig, TcpVariant
from repro.units import gbps, mb, us

from conftest import run_once


def test_e1_leaf_spine_ordering(benchmark, bench_scale, bench_seed):
    """E1 — droptail vs red-default vs marking on an oversubscribed
    leaf-spine: marking keeps the lowest latency without losing runtime."""

    def build(queue, variant):
        base = replace(
            ExperimentConfig(queue=queue, variant=variant, seed=bench_seed,
                             allow_timeout=True).scaled(bench_scale),
        )
        return MultiRackConfig(base=base, n_leaves=4, n_spines=2,
                               hosts_per_leaf=4, oversubscription=2.0)

    def sweep():
        cells = {}
        cells["droptail"] = run_cell(
            build(QueueSetup(kind="droptail"), TcpVariant.RENO))
        cells["red-default"] = run_cell(
            build(QueueSetup(kind="red", target_delay_s=us(100)),
                  TcpVariant.ECN))
        cells["marking"] = run_cell(
            build(QueueSetup(kind="marking", target_delay_s=us(100)),
                  TcpVariant.DCTCP))
        return cells

    cells = run_once(benchmark, sweep)
    dt, rd, mk = (cells[k].metrics for k in ("droptail", "red-default", "marking"))
    assert mk.mean_latency < dt.mean_latency          # latency win survives
    assert mk.runtime <= rd.runtime + 0.02 * rd.runtime  # no runtime cost vs default AQM
    assert mk.queue.drops_early == 0


def test_e2_workload_generality(benchmark, bench_scale, bench_seed):
    """E2 — queue choice matters in proportion to shuffle volume."""

    def run_job(preset, qf, variant):
        sim = Simulator()
        n = 16
        spec = build_single_rack(sim, n, qf, host_qdisc=qf,
                                 link_rate_bps=gbps(1), link_delay_s=us(20))
        data = max(1, int(mb(128) * bench_scale * 2))
        eng = MapReduceEngine(
            sim, spec, ClusterSpec(n, NodeSpec()),
            make_job(preset, data, block_size=mb(2), n_reducers=n),
            TcpConfig(variant=variant), np.random.default_rng(bench_seed),
        )
        eng.submit()
        sim.run(until=600.0)
        assert eng.result is not None
        return eng.result

    def sweep():
        out = {}
        for preset in ("grep", "terasort", "join"):
            out[preset] = run_job(
                preset, lambda nm: DropTail(100, name=nm), TcpVariant.RENO
            )
        return out

    results = run_once(benchmark, sweep)
    # Shuffle volume tracks map selectivity across the presets...
    assert (results["grep"].bytes_shuffled
            < results["terasort"].bytes_shuffled
            < results["join"].bytes_shuffled)
    # ...and the shuffle-light negative control barely exercises the net.
    assert results["grep"].runtime < results["terasort"].runtime
