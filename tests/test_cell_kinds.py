"""Contracts every registered cell kind must keep, table-driven over the
registry: one tiny config per kind in ``TINY``.

``GOLDEN`` pins each tiny cell's ``fingerprint()`` and
``config_cache_key`` as literals. They were recorded at commit 023d54d —
the last one with a hand-rolled ``run_<family>_cell`` per family — before
the shared harness existed, so this file is the bit-identity and
cache-key-stability contract: a refactor of the harness, the registry or
the wire codec must leave every literal untouched. (A change that
*intends* to move simulated results re-records them and says so.)

The ``"scenario"`` row joined when the fuzzer's ``Scenario`` became a
kind: its ``events`` value is what the fuzzer's own harness counted for
the same scenario before the move (also pinned in
``tests/test_validate.py``); the fields that harness never reported —
latency, delivered packets, queue totals, effort counters — and the cache
key were recorded once, on the first ``run_cell`` of it.
"""

import dataclasses
import json
import pickle

import pytest

from repro.errors import ConfigError, FarmError
from repro.experiments import (
    BulkConfig,
    ExperimentConfig,
    FixedKConfig,
    MixConfig,
    MultiRackConfig,
    QueueSetup,
    Scenario,
    StabilityProbeConfig,
    run_cell,
    run_cells,
)
from repro.experiments.cache import config_cache_key
from repro.experiments.kinds import kind_for, kind_named, kind_names
from repro.farm.protocol import (
    config_from_dict,
    config_from_wire,
    config_kind,
    config_to_wire,
)
from repro.tcp import TcpVariant
from repro.telemetry.manifest import MANIFEST_SCHEMA, config_to_dict
from repro.units import gbps, mb, us
from repro.validate.checkers import build_suite
from repro.validate.smoke import fingerprint

RED = QueueSetup(kind="red", target_delay_s=us(200))
BASE = ExperimentConfig(queue=RED, data_bytes=mb(8), block_bytes=mb(1),
                        monitor_interval_s=0.001, allow_timeout=True)

#: One fast (<1 s) config per registered kind, keyed by registry name.
TINY = {
    "cell": BASE,
    "mix": MixConfig(queue=RED, n_hosts=8, data_bytes=mb(4), n_reducers=4,
                     rpc_fanout=4, rpc_rate_qps=150.0, bg_rate_fps=30.0,
                     seed=17),
    "probe": StabilityProbeConfig(
        queue=QueueSetup(kind="marking", target_delay_s=us(100)),
        variant=TcpVariant.DCTCP, n_senders=3, duration_s=0.1),
    "fixedk": FixedKConfig(k_packets=8, load=0.5, fanout=2, n_leaves=2,
                           n_spines=1, hosts_per_leaf=2, duration_s=0.05,
                           drain_s=0.1, uplink_rates_bps=(gbps(1),)),
    "bulk": BulkConfig(n_hosts=4, flow_bytes=mb(1)),
    "multirack": MultiRackConfig(
        base=dataclasses.replace(BASE, queue=QueueSetup(kind="droptail")),
        n_leaves=2, n_spines=2, hosts_per_leaf=2, oversubscription=2.0),
    "scenario": Scenario(pattern="mixed", n_flows=6, n_hosts=6, seed=3),
}

#: ``manifest["kind"]`` per registry name; the first five are what cached
#: entries and published manifests already carry.
MANIFEST_KINDS = {
    "cell": "cell",
    "mix": "mix-cell",
    "probe": "stability-probe",
    "fixedk": "fixedk-cell",
    "bulk": "bulk-cell",
    "multirack": "multirack-cell",
    "scenario": "fuzz-scenario",
}

GOLDEN = {
    "cell": {
        "key": "6bba6d3a319c0b4abae1ca125b8261f5"
               "2c3a0e5408587f7d9ce1965fd82f9c35",
        "fingerprint": {
            "runtime": 0.07765256000000059,
            "mean_latency": 0.00035254103281519826,
            "p99_latency": 0.001412537544622755,
            "packets_delivered": 8685,
            "retransmits": 768,
            "rtos": 55,
            "syn_retries": 2,
            "events": 36329,
            "queue": {
                "arrivals": 8685,
                "departures": 8685,
                "drops_tail": 0,
                "drops_early": 0,
                "marks": 0,
                "protected": 0,
                "ect_drops": 0,
                "ack_drops": 0,
                "syn_drops": 0,
            },
        },
    },
    "mix": {
        "key": "6c4581c0738c40d8701296a682587fb3"
               "7e5456cf1f0ec7f50ce4f2feeab1cf1c",
        "fingerprint": {
            "runtime": 0.0993974666666607,
            "mean_latency": 0.0002563760203099347,
            "p99_latency": 0.0012302687708123808,
            "packets_delivered": 8392,
            "retransmits": 331,
            "rtos": 4,
            "syn_retries": 0,
            "events": 33725,
            "queue": {
                "arrivals": 8392,
                "departures": 8392,
                "drops_tail": 0,
                "drops_early": 0,
                "marks": 0,
                "protected": 0,
                "ect_drops": 0,
                "ack_drops": 0,
                "syn_drops": 0,
            },
        },
    },
    "probe": {
        "key": "cc38d011b58b6a0de05d8595d901d923"
               "bc8be31814f296b096e960074baaae3f",
        "fingerprint": {
            "runtime": 0.1,
            "mean_latency": 0.00011075246643423638,
            "p99_latency": 0.00019498445997580453,
            "packets_delivered": 13481,
            "retransmits": 0,
            "rtos": 0,
            "syn_retries": 0,
            "events": 54443,
            "queue": {
                "arrivals": 13491,
                "departures": 13484,
                "drops_tail": 0,
                "drops_early": 0,
                "marks": 2260,
                "protected": 0,
                "ect_drops": 0,
                "ack_drops": 0,
                "syn_drops": 0,
            },
        },
    },
    "fixedk": {
        "key": "67bf9dbfa0bf5370ea24505231c76032"
               "103d452c252d19c3507f3f58701ac97b",
        "fingerprint": {
            "runtime": 0.15000000000000002,
            "mean_latency": 0.00019406885977458116,
            "p99_latency": 0.0005370317963702524,
            "packets_delivered": 3611,
            "retransmits": 0,
            "rtos": 0,
            "syn_retries": 28,
            "events": 29856,
            "queue": {
                "arrivals": 10890,
                "departures": 10833,
                "drops_tail": 0,
                "drops_early": 57,
                "marks": 777,
                "protected": 0,
                "ect_drops": 0,
                "ack_drops": 31,
                "syn_drops": 26,
            },
        },
    },
    "bulk": {
        "key": "c8329cbce514fc91d3b7571951148acf"
               "9ef5acaceda7672ff09e6743c5a37034",
        "fingerprint": {
            "runtime": 0.022458800000000105,
            "mean_latency": 0.0011984147429679934,
            "p99_latency": 0.0019498445997580456,
            "packets_delivered": 2062,
            "retransmits": 0,
            "rtos": 0,
            "syn_retries": 0,
            "events": 8250,
            "queue": {
                "arrivals": 2062,
                "departures": 2062,
                "drops_tail": 0,
                "drops_early": 0,
                "marks": 0,
                "protected": 0,
                "ect_drops": 0,
                "ack_drops": 0,
                "syn_drops": 0,
            },
        },
    },
    "multirack": {
        "key": "fc250b2bce64ef22652b0f88732c2f8e"
               "f5d1672a6bff6100cfe6d3c8f7df5568",
        "fingerprint": {
            "runtime": 0.07278288000000063,
            "mean_latency": 0.0006112975818342678,
            "p99_latency": 0.0030902954325135908,
            "packets_delivered": 6782,
            "retransmits": 507,
            "rtos": 2,
            "syn_retries": 0,
            "events": 46468,
            "queue": {
                "arrivals": 15878,
                "departures": 15800,
                "drops_tail": 78,
                "drops_early": 0,
                "marks": 0,
                "protected": 0,
                "ect_drops": 68,
                "ack_drops": 10,
                "syn_drops": 0,
            },
        },
    },
    "scenario": {
        "key": "98bda37a441790fc2c19e25e7be3ecf5"
               "4baa562ea9cf01204682d024acf4c93e",
        "fingerprint": {
            "runtime": 0.05896671236932934,
            "mean_latency": 0.004671518236983055,
            "p99_latency": 0.01479108388168207,
            "packets_delivered": 755,
            "retransmits": 36,
            "rtos": 3,
            "syn_retries": 1,
            "events": 3206,
            "queue": {
                "arrivals": 773,
                "departures": 755,
                "drops_tail": 18,
                "drops_early": 0,
                "marks": 0,
                "protected": 0,
                "ect_drops": 8,
                "ack_drops": 8,
                "syn_drops": 1,
            },
        },
    },
}

KINDS = sorted(TINY)


@pytest.fixture(scope="module")
def plain():
    """Each tiny cell run once, unarmed."""
    return {name: run_cell(cfg) for name, cfg in TINY.items()}


def test_table_covers_the_registry():
    assert set(TINY) == set(GOLDEN) == set(MANIFEST_KINDS) == set(kind_names())
    for name, cfg in TINY.items():
        kind = kind_named(name)
        assert kind_for(cfg) is kind
        assert type(cfg) is kind.config_cls
        assert kind.manifest_kind == MANIFEST_KINDS[name]


@pytest.mark.parametrize("name", KINDS)
def test_cache_key_is_stable(name):
    assert config_cache_key(TINY[name]) == GOLDEN[name]["key"]


@pytest.mark.parametrize("name", KINDS)
def test_fingerprint_is_bit_identical_to_the_recorded_run(name, plain):
    assert fingerprint(plain[name]) == GOLDEN[name]["fingerprint"]


@pytest.mark.parametrize("name", KINDS)
def test_wire_round_trip(name):
    cfg = TINY[name]
    wire = json.loads(json.dumps(config_to_wire(cfg)))
    assert wire == {"kind": name, "config": config_to_dict(cfg)}
    back = config_from_wire(wire)
    assert back == cfg and type(back) is type(cfg)
    assert config_cache_key(back) == config_cache_key(cfg)
    assert config_kind(back) == name


def test_wire_rebuilds_tuples_enums_and_nested_configs():
    fx = config_from_wire(json.loads(json.dumps(
        config_to_wire(TINY["fixedk"]))))
    assert fx.uplink_rates_bps == (gbps(1),)
    assert isinstance(fx.uplink_rates_bps, tuple)
    hash(fx)  # a list-valued field would make the frozen config unhashable
    mr = config_from_wire(json.loads(json.dumps(
        config_to_wire(TINY["multirack"]))))
    assert isinstance(mr.base, ExperimentConfig)
    assert isinstance(mr.base.queue, QueueSetup)
    assert mr.base.variant is TcpVariant.ECN
    assert mr.base.queue.target_delay_s is None  # Optional stays None


@pytest.mark.parametrize("name", KINDS)
def test_pickle_round_trip(name):
    cfg = TINY[name]
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert config_cache_key(back) == config_cache_key(cfg)


def test_every_kind_runs_in_pool_workers(plain):
    """What ``run_cells(jobs>1)`` needs: configs out, results back."""
    report = run_cells([(name, TINY[name]) for name in KINDS], jobs=2)
    for name in KINDS:
        assert fingerprint(report.results[name]) == fingerprint(plain[name])


@pytest.mark.parametrize("name", KINDS)
def test_armed_run_is_bit_identical_and_clean(name, plain):
    cfg = TINY[name]
    armed = run_cell(cfg, checks=build_suite(cfg))
    validation = armed.manifest["validation"]
    assert validation["ok"] and validation["violation_count"] == 0
    assert fingerprint(armed) == fingerprint(plain[name])


@pytest.mark.parametrize("name", KINDS)
def test_manifest_shape(name, plain):
    cfg, manifest = TINY[name], plain[name].manifest
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["kind"] == MANIFEST_KINDS[name]
    assert manifest["label"] == cfg.label()
    assert manifest["config"] == config_to_dict(cfg)
    assert manifest["seed"] == cfg.seed
    assert manifest["timings"]["events"] > 0
    assert manifest["metrics"]["runtime"] == plain[name].metrics.runtime
    json.dumps(manifest)


def test_bad_wire_input_raises_farm_error_naming_the_kinds():
    good = config_to_wire(TINY["cell"])["config"]
    with pytest.raises(FarmError) as exc:
        config_from_dict("nope", good)
    for name in kind_names():
        assert name in str(exc.value)
    with pytest.raises(FarmError, match="bogus_field"):
        config_from_dict("cell", {**good, "bogus_field": 1})
    with pytest.raises(FarmError, match="TcpVariant"):
        config_from_dict("cell", {**good, "variant": "tcp-bogus"})
    with pytest.raises(FarmError, match="QueueSetup"):
        config_from_dict("cell", {**good, "queue": "red"})
    with pytest.raises(FarmError):
        config_from_dict("fixedk", {"uplink_rates_bps": 5})
    with pytest.raises(FarmError, match="fq_codel"):
        config_from_dict("scenario", {"qdisc": "fq_codel"})
    with pytest.raises(FarmError) as exc:
        config_kind(object())
    assert "multirack" in str(exc.value)


def test_run_cell_rejects_an_unregistered_config_type():
    with pytest.raises(ConfigError, match="known kinds"):
        run_cell(RED)


@pytest.mark.parametrize("interval", [0, -0.001])
@pytest.mark.parametrize("name", ["cell", "mix"])
def test_nonpositive_monitor_interval_is_a_config_error(name, interval):
    """Refused by ``validate()``, before any topology or timer is built."""
    bad = dataclasses.replace(TINY[name], monitor_interval_s=interval)
    with pytest.raises(ConfigError, match="monitor_interval_s"):
        run_cell(bad)
