"""Property-based tests on the kernel, collectors and models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import red_stationary_drop_probability
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.stats import LatencyCollector, jain_index, summarize


class TestEngineProperties:
    @given(
        delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=200),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        handles = []
        for d in delays:
            handles.append(sim.schedule(d, lambda: fired.append(sim.now)))
        for h, cancel in zip(handles, cancel_mask):
            if cancel:
                sim.cancel(h)
        survivors = sum(1 for h in handles if sim.is_pending(h))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == survivors
        assert not any(sim.is_pending(h) for h in handles)

    @given(delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def observe():
            observed.append(sim.now)

        for d in delays:
            sim.schedule(d, observe)
        sim.run()
        assert all(b >= a for a, b in zip(observed, observed[1:]))


class TestLatencyCollectorProperties:
    @given(lats=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_mean_exact_and_percentiles_ordered(self, lats):
        c = LatencyCollector()
        pkt = Packet(src=0, sport=1, dst=1, dport=2, payload=10)
        for lat in lats:
            pkt.created_at = 0.0
            c.hook(pkt, lat)
        assert c.count == len(lats)
        assert c.mean == sum(lats) / len(lats)
        p50, p95, p99 = c.percentile(50), c.percentile(95), c.percentile(99)
        assert p50 <= p95 * 1.0001
        assert p95 <= p99 * 1.0001
        assert p99 <= c.max_latency * 1.1 + 1e-12

    @given(lats=st.lists(st.floats(1e-5, 0.1), min_size=50, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_percentile_within_bin_error(self, lats):
        c = LatencyCollector()
        pkt = Packet(src=0, sport=1, dst=1, dport=2, payload=10)
        for lat in lats:
            pkt.created_at = 0.0
            c.hook(pkt, lat)
        exact = float(np.percentile(lats, 90))
        approx = c.percentile(90)
        # log-bin resolution over [1e-7, 10] with 400 bins is ~4.7%/bin;
        # allow a couple of bins of slack.
        assert 0.8 * exact <= approx <= 1.25 * exact


class TestStatProperties:
    @given(vals=st.lists(st.floats(0.001, 1e6), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_jain_index_bounds(self, vals):
        j = jain_index(vals)
        assert 1.0 / len(vals) - 1e-9 <= j <= 1.0 + 1e-9

    @given(vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_summary_orderings(self, vals):
        s = summarize(vals)
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
        # The mean can land one ULP outside [min, max] for near-identical
        # inputs; allow relative float slack.
        slack = 1e-9 * max(abs(s.minimum), abs(s.maximum)) + 1e-300
        assert s.minimum - slack <= s.mean <= s.maximum + slack


class TestRedModelProperties:
    @given(
        avg=st.floats(0, 200),
        min_th=st.floats(1, 50),
        span=st.floats(0, 100),
        max_p=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_probability_bounds_and_monotonicity(self, avg, min_th, span, max_p):
        max_th = min_th + span
        p = red_stationary_drop_probability(avg, min_th, max_th, max_p)
        assert 0.0 <= p <= max_p
        # monotone in avg
        p_hi = red_stationary_drop_probability(avg + 1.0, min_th, max_th, max_p)
        assert p_hi >= p - 1e-12
