"""Tests of the benchmark suite itself (not part of tier-1).

Run with ``python -m pytest benchmarks/suite -q`` from the repository root.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

import compare  # noqa: E402
import run as suite_run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, fold_tree  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture()
def in_root(monkeypatch):
    """The suite keeps its temp paths relative to the checkout root."""
    monkeypatch.chdir(ROOT)


# -- the declaration ---------------------------------------------------------------


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names
                                               if not NAME.match(n)]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert os.path.getsize(ROOT / "BENCHMARK.json") <= 64 * 1024


# -- self-time arithmetic ------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_call_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    t = Tracer()

    def c():
        clock.tick(1)

    c = t.wrap_hot("x:c", c)

    def b():
        clock.tick(2)
        c()
        clock.tick(3)

    b = t.wrap_hot("x:b", b)

    def a():
        clock.tick(5)
        b()
        b()
        clock.tick(7)

    t.wrap_hot("x:a", a)()
    assert t.stats == {"x:c": [2, 2.0, 2.0], "x:b": [2, 12.0, 10.0],
                       "x:a": [1, 24.0, 12.0]}
    # The same tree, spelled out, through the reference fold.
    spans = [("x:a", 0, 24, None), ("x:b", 5, 11, 0), ("x:c", 7, 8, 1),
             ("x:b", 11, 17, 0), ("x:c", 13, 14, 3)]
    assert fold_tree(spans) == t.stats
    # Self times add up to the root's duration: nothing lost, nothing twice.
    assert sum(s[2] for s in t.stats.values()) == 24.0
    assert [p for _a, _b, p, _c in t.raw["x:c"]] == ["x:b", "x:b"]


def test_dispatched_callbacks_become_root_spans(monkeypatch):
    from repro.sim import engine

    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    monkeypatch.setattr(engine, "perf_counter", clock)
    t = Tracer().install(hot=True)
    try:
        leaf = t.wrap_hot("x:leaf", lambda: clock.tick(4))

        def callback():
            clock.tick(1)
            leaf()
            clock.tick(2)

        sim = engine.Simulator()
        sim.schedule(1.0, callback)
        sim.schedule(2.0, callback)
        sim.run()
    finally:
        t.uninstall()
    # A closure is named by the function that made it, and attributed to a
    # layer by its module (this test file is in none of the program's).
    root = "other:test_dispatched_callbacks_become_root_spans"
    assert t.root_names == {root}
    assert t.stats[root] == [2, 14.0, 6.0]
    assert t.stats["x:leaf"] == [2, 8.0, 8.0]
    assert t.stats["sim:Simulator.run"][1:] == [14.0, 0.0]
    assert t.stats["sim:Simulator.schedule"][0] == 2


def test_install_restores_every_class_attribute():
    from repro.core.red import RedQueue
    from repro.experiments.cache import ResultCache
    from repro.net.host import Host
    from repro.net.port import Port
    from repro.sim.engine import EventHandle, Simulator

    watched = [(Simulator, "run"), (Simulator, "schedule"),
               (EventHandle, "cancel"), (Port, "send"), (Host, "bind"),
               (RedQueue, "enqueue"), (ResultCache, "put")]
    before = [owner.__dict__[attr] for owner, attr in watched]
    t = Tracer().install(hot=True)
    assert all(owner.__dict__[attr] is not b
               for (owner, attr), b in zip(watched, before))
    t.uninstall()
    assert [owner.__dict__[attr] for owner, attr in watched] == before
    assert not t.missing


def test_a_missing_boundary_is_a_null_not_a_crash(monkeypatch, capsys):
    import layers

    monkeypatch.setattr(tracer_mod, "HOT_BOUNDARIES",
                        tracer_mod.HOT_BOUNDARIES
                        + (("repro.net.port", "Port", "gone_tomorrow"),))
    t = Tracer().install(hot=True)
    t.uninstall()
    assert t.missing == ["Port.gone_tomorrow"]
    assert "no longer exists" in capsys.readouterr().err
    t.missing.append("Port.send")
    metrics = layers.span_metrics([], t)
    assert metrics["net.port_self_s"] is None
    assert metrics["net.switch_self_s"] == 0.0


# -- inputs ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_configs_and_nothing_else(workload):
    from repro.experiments.cache import canonical_config_json

    one = workloads.make_cells(workload, 1)
    assert workloads.config_digest(one) == workloads.config_digest(
        workloads.make_cells(workload, 1))
    two = workloads.make_cells(workload, 2)
    assert workloads.config_digest(one) != workloads.config_digest(two)
    assert len(one) == len(two)
    assert len({canonical_config_json(c) for _l, c in one}) == len(one)


# -- miniatures: every workload, both modes ---------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_miniature_emits_every_declared_metric(workload, trace, spec, in_root):
    result, values = suite_run.measure(workload, 3, 0.0, trace, spec,
                                       limit=3, quick=True)
    assert result.failures == []
    assert result.attempted >= 3 and result.failed == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(values) == [m["name"] for m in declared]
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert len(result.sim_digest) == 64
    if not trace:
        assert all(v > 0 for v in values.values()), values
    else:
        fluid = [v for k, v in values.items() if k.startswith("sim.fluid_")]
        assert all(fluid) if workload == "bulk-hybrid" else not any(fluid)
        assert values["trace.overhead_ratio"] > 0
        assert values["experiments.cache.put_ms"] > 0
        # The farm scheduler reads entries itself, not through get().
        assert (values["experiments.cache.get_us"] > 0) == (
            workload != "farm-tiny")
        if workload == "farm-tiny":
            assert values["farm.journal.append_ms"] > 0
            assert values["farm.dedup_cells"] == 1
            assert values["farm.executed_cells"] == 3
        if workload in workloads.IN_PROCESS:
            assert values["sim.loop_self_s"] > 0
            assert values["net.port_send_calls"] > 0
            assert values["tcp.rx_calls"] > 0
    assert not os.path.exists(suite_run.TMP_ROOT)


def test_same_seed_same_digest_other_seed_other_digest(spec, in_root):
    a, _ = suite_run.measure("bulk-hybrid", 3, 0.0, False, spec, 3, True)
    b, _ = suite_run.measure("bulk-hybrid", 3, 0.0, False, spec, 3, True)
    c, _ = suite_run.measure("bulk-hybrid", 4, 0.0, False, spec, 3, True)
    assert a.sim_digest == b.sim_digest != c.sim_digest
    assert a.config_digest == b.config_digest != c.config_digest


# -- run hygiene ------------------------------------------------------------------------


def test_farm_is_reaped_when_the_launcher_ignores_sigchld():
    """With SIGCHLD ignored the kernel reaps the workers itself and
    ``multiprocessing`` reads them as alive for ever; the farm teardown
    must not mistake that for survivors."""
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", "farm-tiny",
         "--seed", "3", "--setup-only"], capture_output=True, text=True,
        timeout=120,
        preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ready"


def test_reap_children_stops_a_child_that_ignores_sigterm():
    import multiprocessing
    import time

    def stubborn():
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(60)

    child = multiprocessing.get_context("fork").Process(target=stubborn)
    child.start()
    time.sleep(0.2)  # let it install its handler
    assert workloads.reap_children(grace_s=0.5) == []
    assert not child.is_alive()


# -- compare ----------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1)[1] == "within bound"
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, [x * 0.8 for x in steady],
                           "lower", 0.1)[1] == "better"
    assert compare.verdict(steady, [x * 0.8 for x in steady],
                           "higher", 0.1)[1] == "worse"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(noisy, [x * 0.5 for x in noisy],
                           "lower", 0.1)[1] == "better"
    assert compare.verdict([100.0], [105.0], "lower", 0.1)[1] == "within bound"
