"""Signal-processing primitives for the stability observatory.

The telemetry layer records queue-depth and cwnd time-series; this module
turns those raw samples into the quantities the limit-cycle detector
(:mod:`repro.analysis.stability`) reasons about: detrended fluctuation,
autocorrelation, spectral power, dominant period, oscillation amplitude,
and pairwise synchronization. Everything here is a pure function of its
inputs — no simulator state, no randomness — so two runs that record the
same samples produce bit-identical analysis blocks.

No SciPy: the periodogram is a small direct DFT evaluated with plain
NumPy arithmetic (chunked over frequencies to bound memory), which is
plenty for the bounded series the queue monitors keep (<= a few
thousand samples per queue).

Every function is defined for degenerate inputs — empty series, constant
series, series shorter than one period — and guarantees NaN-free output;
``tests/test_signal.py`` pins that contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
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


def _as_array(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def detrend(values: Sequence[float], kind: str = "linear") -> np.ndarray:
    """Remove the mean (``kind="mean"``) or a least-squares line.

    Queue-depth series from a run's ramp-up carry a slow trend that would
    otherwise dominate the low-frequency end of the spectrum; removing it
    isolates the oscillatory component. Returns a new array; degenerate
    inputs (n < 3 for linear) fall back to mean removal, and the result
    never contains NaN.
    """
    v = _as_array(values)
    n = len(v)
    if n == 0:
        return v
    if kind not in ("linear", "mean"):
        raise ValueError(f"unknown detrend kind {kind!r}")
    if kind == "mean" or n < 3:
        return v - v.mean()
    t = np.arange(n, dtype=np.float64)
    t -= t.mean()
    denom = float(np.dot(t, t))
    if denom == 0.0:
        return v - v.mean()
    slope = float(np.dot(t, v - v.mean())) / denom
    return v - v.mean() - slope * t


def autocorrelation(values: Sequence[float],
                    max_lag: Optional[int] = None) -> np.ndarray:
    """Normalized autocorrelation ``acf[k]`` for lags 0..max_lag.

    Uses the unbiased estimator ``sum(x[i] x[i+k]) / ((n-k) var)`` on the
    mean-removed series. ``acf[0]`` is 1 for any series with variance;
    constant or too-short series return ``[1.0]`` (lag 0 only) so callers
    never index into NaNs.
    """
    x = detrend(values, kind="mean")
    n = len(x)
    if n < 2:
        return np.ones(1)
    var = float(np.dot(x, x)) / n
    if var <= 0.0:
        return np.ones(1)
    if max_lag is None:
        max_lag = n // 2
    max_lag = max(0, min(max_lag, n - 1))
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = float(np.dot(x[: n - k], x[k:])) / ((n - k) * var)
    return acf


#: Frequencies per chunk of the direct-DFT periodogram (memory bound:
#: one chunk is ``_DFT_CHUNK x n`` complex128, ~8 MB at n = 4096).
_DFT_CHUNK = 128


def periodogram(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Power spectrum of the detrended series at the Fourier frequencies.

    Returns ``(freqs, power)`` where ``freqs[j]`` is in cycles per
    sample, covering ``m/n`` for ``m = 1..n//2`` (the DC bin is excluded
    — the series is detrended first, so it carries no information).
    A direct DFT, not an FFT: n is bounded by the telemetry ring
    capacity, and the explicit sum keeps the implementation dependency-
    free and easy to audit. Series with fewer than 4 samples or zero
    variance return empty arrays.
    """
    x = detrend(values, kind="linear")
    n = len(x)
    if n < 4 or not np.any(x):
        return np.empty(0), np.empty(0)
    m = np.arange(1, n // 2 + 1, dtype=np.float64)
    t = np.arange(n, dtype=np.float64)
    power = np.empty(len(m))
    for lo in range(0, len(m), _DFT_CHUNK):
        chunk = m[lo: lo + _DFT_CHUNK]
        phase = (-2.0j * math.pi / n) * np.outer(chunk, t)
        coef = np.exp(phase) @ x
        power[lo: lo + len(chunk)] = (coef.real ** 2 + coef.imag ** 2) / n
    return m / n, power


@dataclass(frozen=True)
class DominantPeriod:
    """The strongest spectral component of one series.

    Attributes
    ----------
    period_samples:
        Oscillation period in samples (``1 / frequency``).
    period_s:
        The same period in seconds (``period_samples * dt``).
    peak_ratio:
        Peak spectral power over the median power across all bins — a
        measure of how concentrated the fluctuation is at one frequency
        (white noise ~ O(1); a clean sawtooth reaches 10^3..10^5).
    acf_at_period:
        Autocorrelation at a lag of one period: near 1 when the series
        really repeats itself there, near 0 when the spectral peak came
        from a transient or drift rather than sustained cycling.
    """

    period_samples: float
    period_s: float
    peak_ratio: float
    acf_at_period: float


def dominant_period(values: Sequence[float],
                    dt: float = 1.0) -> Optional[DominantPeriod]:
    """Extract the dominant oscillation period, or None if there is none.

    None means the series is too short, constant, or spectrally empty —
    not that it is stable; callers combine this with amplitude measures
    to classify.
    """
    freqs, power = periodogram(values)
    if len(power) == 0:
        return None
    peak = int(np.argmax(power))
    med = float(np.median(power))
    peak_ratio = float(power[peak] / med) if med > 0.0 else float("inf")
    period_samples = 1.0 / float(freqs[peak])
    lag = int(round(period_samples))
    acf = autocorrelation(values, max_lag=lag)
    acf_at = float(acf[lag]) if lag < len(acf) else 0.0
    return DominantPeriod(
        period_samples=period_samples,
        period_s=period_samples * dt,
        peak_ratio=peak_ratio,
        acf_at_period=acf_at,
    )


def oscillation_amplitude(values: Sequence[float]) -> float:
    """Half the 5th-to-95th percentile spread of the detrended series.

    A robust amplitude: for a clean sine it approximates the true
    amplitude; unlike ``(max - min) / 2`` a single transient spike cannot
    dominate it. 0.0 for constant or empty series.
    """
    x = detrend(values, kind="linear")
    if len(x) < 2:
        return 0.0
    lo, hi = np.percentile(x, [5.0, 95.0])
    return float(hi - lo) / 2.0


def resample_uniform(
    times: Sequence[float],
    values: Sequence[float],
    n: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of ``(times, values)`` onto a uniform grid.

    Spectral estimates assume evenly spaced samples; queue monitors
    sample periodically but flow timelines are event-driven. ``n``
    defaults to the input length (capped at 2048 to bound the direct-DFT
    cost). Unsorted input is sorted by time first; duplicate timestamps
    keep their last value. Returns empty arrays for fewer than 2 distinct
    times.
    """
    t = _as_array(times)
    v = _as_array(values)
    if len(t) != len(v):
        raise ValueError(f"times/values length mismatch: {len(t)} vs {len(v)}")
    if len(t) >= 2 and not np.all(np.diff(t) >= 0):
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
    if len(t) < 2 or t[-1] <= t[0]:
        return np.empty(0), np.empty(0)
    if n is None:
        n = min(len(t), 2048)
    n = max(2, int(n))
    grid = np.linspace(float(t[0]), float(t[-1]), n)
    return grid, np.interp(grid, t, v)


def cross_correlation_max(
    a: Sequence[float],
    b: Sequence[float],
    max_lag: Optional[int] = None,
) -> Tuple[int, float]:
    """``(lag, value)`` of the peak normalized cross-correlation.

    Positive lag means ``b`` trails ``a``. The two series must share a
    sampling grid (resample first). Returns ``(0, 0.0)`` when either side
    is constant or shorter than 2 samples.
    """
    x = detrend(a, kind="mean")
    y = detrend(b, kind="mean")
    n = min(len(x), len(y))
    if n < 2:
        return 0, 0.0
    x, y = x[:n], y[:n]
    sx = float(np.dot(x, x))
    sy = float(np.dot(y, y))
    if sx <= 0.0 or sy <= 0.0:
        return 0, 0.0
    norm = math.sqrt(sx * sy)
    if max_lag is None:
        max_lag = n // 4
    max_lag = max(0, min(max_lag, n - 1))
    best_lag, best = 0, float(np.dot(x, y)) / norm
    for k in range(1, max_lag + 1):
        fwd = float(np.dot(x[: n - k], y[k:])) / norm
        rev = float(np.dot(x[k:], y[: n - k])) / norm
        if fwd > best:
            best_lag, best = k, fwd
        if rev > best:
            best_lag, best = -k, rev
    return best_lag, best


def synchronization_score(
    series: Sequence[Sequence[float]],
    max_lag: Optional[int] = None,
) -> Optional[float]:
    """Mean pairwise peak cross-correlation across ``series``.

    The flow-synchronization measure: when an AQM marks every flow's
    packets in the same queue-overflow episode, their cwnd (and their
    queues' depth) sawtooths phase-lock, and this score approaches 1;
    desynchronized flows score near 0. Pairs where either side is
    constant are skipped. None when fewer than two non-constant series
    are available.
    """
    active = [detrend(s, kind="mean") for s in series]
    active = [s for s in active if len(s) >= 2 and float(np.dot(s, s)) > 0.0]
    if len(active) < 2:
        return None
    total, pairs = 0.0, 0
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            _lag, corr = cross_correlation_max(active[i], active[j], max_lag)
            total += corr
            pairs += 1
    return total / pairs
