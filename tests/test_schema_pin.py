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
import os

from repro.core.qdisc import QueueStats
from repro.experiments import BulkConfig, run_cell
from repro.experiments.cache import ResultCache
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


def test_queue_stats_field_list():
    assert [f.name for f in dataclasses.fields(QueueStats)] == QUEUE_STATS_FIELDS


def test_run_metrics_key_set():
    doc = dataclasses.asdict(RunMetrics())
    assert set(doc) == RUN_METRICS_KEYS
    assert list(doc["queue"]) == QUEUE_STATS_FIELDS


def test_parent_cache_entry_still_loads_and_still_matches():
    cached = ResultCache(FIXTURE_DIR).get(FIXTURE_CONFIG)
    assert cached is not None, "a PR 23 cache entry no longer loads"
    assert cached.metrics.packets_delivered == 2062
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
