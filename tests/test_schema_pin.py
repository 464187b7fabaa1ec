"""The serialised shape of a cell's metrics, pinned.

``dataclasses.asdict(RunMetrics)`` — every ``QueueStats`` field included,
private and inert ones too — is written into every cache entry and hashed
into every benchmark ``sim_digest``. Removing, renaming or adding a field
(the always-0.0 ``_occ_*`` trio is the tempting one) orphans every cache
on disk and moves every digest, so it is a decision, not a tidy-up: change
these lists only together with a cache-schema bump and say so in CHANGES.

The lists and the fixture entry were recorded at commit 138978f (PR 23).
"""

import dataclasses
import hashlib
import json
import os

from repro.core.qdisc import QueueStats
from repro.experiments import BulkConfig, run_cell
from repro.experiments.cache import ResultCache, result_to_entry
from repro.stats.collect import RunMetrics
from repro.units import mb
from tests.test_cell_kinds import TINY

QUEUE_STATS_FIELDS = [
    "arrivals", "arrival_bytes", "departures", "departure_bytes",
    "drops_tail", "drops_early", "marks", "protected", "ect_arrivals",
    "ect_drops", "ack_arrivals", "ack_drops", "syn_arrivals", "syn_drops",
    "queue_delay_sum", "queue_delay_count", "fluid_packets", "fluid_bytes",
    "_occ_integral_pkts", "_occ_integral_bytes", "_occ_last_t",
]

RUN_METRICS_KEYS = {
    "runtime", "bytes_transferred", "n_nodes", "mean_latency", "p99_latency",
    "packets_delivered", "queue", "flows_completed", "flows_failed",
    "retransmits", "rtos", "syn_retries", "extra",
}

#: One entry written by ``ResultCache.put`` of the PR 23 checkout.
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "cache_pr23")
FIXTURE_CONFIG = BulkConfig(n_hosts=4, flow_bytes=mb(1))


#: One entry written by ``ResultCache.put`` of commit b84c7ee, the last
#: commit whose ``config_to_dict`` reflected over ``dataclasses.fields`` at
#: every node: an ``ExperimentConfig`` (nested ``QueueSetup``, enums,
#: ``None`` fields) with its busiest-queue snapshots.
RENDER_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                                  "cache_b84c7ee")


#: One entry written by ``ResultCache.put`` of ``TINY["cell"]`` by the first
#: ``repro.cell_cache/v2`` writer, with its sha256: a later format change
#: has to re-record it on purpose.
V2_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                              "cache_v2")
V2_FIXTURE_SHA256 = (
    "f41723519d03c193a606192b9f9df034bb24c489aa98819562e5f07ba20de234")


def stored_manifest(cache):
    """The ``manifest`` of the one entry in ``cache``, as stored."""
    (info,) = cache.entries()
    with open(info.path, "rb") as fh:
        return json.loads(fh.read())["manifest"]


def test_queue_stats_field_list():
    assert [f.name for f in dataclasses.fields(QueueStats)] == QUEUE_STATS_FIELDS


def test_run_metrics_key_set():
    doc = dataclasses.asdict(RunMetrics())
    assert set(doc) == RUN_METRICS_KEYS
    assert list(doc["queue"]) == QUEUE_STATS_FIELDS


def test_parent_cache_entry_still_loads_and_still_matches():
    cache = ResultCache(FIXTURE_DIR)
    cached = cache.get(FIXTURE_CONFIG)
    assert cached is not None, "a PR 23 cache entry no longer loads"
    assert cached.metrics.packets_delivered == 2062
    # A v1 manifest has real copies: the reader fills nothing in.
    assert json.dumps(cached.manifest) == json.dumps(stored_manifest(cache))
    # ...and this checkout still simulates what that one did.
    assert run_cell(FIXTURE_CONFIG).metrics == cached.metrics


def test_entry_from_before_the_field_table_is_still_a_hit():
    """The stored ``config`` must equal today's rendering for the lookup
    to count as a hit rather than a collision miss."""
    cache = ResultCache(RENDER_FIXTURE_DIR)
    cached = cache.get(TINY["cell"])
    assert cached is not None and cache.hits == 1 and cache.misses == 0
    fresh = run_cell(TINY["cell"])
    assert cached.metrics == fresh.metrics
    assert cached.snapshots == fresh.snapshots
    assert json.dumps(cached.manifest) == json.dumps(stored_manifest(cache))


def test_v2_entry_is_pinned_and_still_a_hit(tmp_path):
    cache = ResultCache(V2_FIXTURE_DIR)
    (info,) = cache.entries()
    with open(info.path, "rb") as fh:
        data = fh.read()
    assert hashlib.sha256(data).hexdigest() == V2_FIXTURE_SHA256
    cached = cache.get(TINY["cell"])
    assert cached is not None and cache.hits == 1
    fresh = run_cell(TINY["cell"])
    assert cached.metrics == fresh.metrics
    assert cached.snapshots == fresh.snapshots
    # Today's writer, given the fixture's run-dependent fields (build and
    # wall clock), writes the fixture's bytes.
    stored = json.loads(data)
    entry = result_to_entry(fresh)
    entry.update(version=stored["version"], git=stored["git"])
    entry["manifest"].update(
        {k: stored["manifest"][k] for k in ("version", "git", "timings")})
    with open(ResultCache(str(tmp_path)).put_entry(entry), "rb") as fh:
        assert fh.read() == data
