"""Measurement layer: latency collectors, time series, summaries, and the
paper's DropTail-relative normalization."""

from repro.stats.collect import LatencyCollector, RunMetrics
from repro.stats.fairness import goodput_fairness, jain_index
from repro.stats.normalize import normalize_map, normalize_to
from repro.stats.series import TimeSeries
from repro.stats.signal import (
    DominantPeriod,
    autocorrelation,
    cross_correlation_max,
    detrend,
    dominant_period,
    oscillation_amplitude,
    periodogram,
    resample_uniform,
    synchronization_score,
)
from repro.stats.summary import Summary, summarize

__all__ = [
    "LatencyCollector",
    "RunMetrics",
    "TimeSeries",
    "Summary",
    "summarize",
    "normalize_to",
    "normalize_map",
    "jain_index",
    "goodput_fairness",
    "DominantPeriod",
    "autocorrelation",
    "cross_correlation_max",
    "detrend",
    "dominant_period",
    "oscillation_amplitude",
    "periodogram",
    "resample_uniform",
    "synchronization_score",
]
