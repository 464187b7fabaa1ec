"""Flow-level fairness and aggregate helpers.

The shuffle is many-to-many, so per-flow fairness matters: a scheme that
wins on aggregate throughput by starving a few flows would still hurt
job runtime (the reduce phase ends with its slowest fetch). Jain's
fairness index over flow goodputs quantifies this; the experiment
harness reports it in ``RunMetrics.extra``-style diagnostics and the
ablation benches assert the marking scheme does not trade fairness for
throughput.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["jain_index", "goodput_fairness", "fct_slowdown"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n · Σx²), in (0, 1], 1 = equal.

    Returns 0.0 for an empty input (no flows to be fair about).
    """
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        return 0.0
    sq_sum = float((a * a).sum())
    if sq_sum == 0.0:
        return 0.0
    return float(a.sum()) ** 2 / (a.size * sq_sum)


def goodput_fairness(flow_results: Iterable) -> float:
    """Jain's index over the goodputs of completed flows."""
    return jain_index([
        f.goodput_bps for f in flow_results if not f.failed
    ])


def fct_slowdown(flow_results: Iterable, line_rate_bps: float) -> np.ndarray:
    """Per-flow FCT slowdown: observed FCT over ideal (line-rate) FCT.

    The literature's short-flow tail metric — 1.0 means line rate,
    larger means queueing/loss stretched the flow; p99 slowdown is the
    headline number workload generators report.
    """
    out = []
    for f in flow_results:
        if f.failed or f.fct <= 0 or f.nbytes <= 0:
            continue
        ideal = f.nbytes * 8.0 / line_rate_bps
        out.append(f.fct / ideal)
    return np.asarray(out, dtype=np.float64)
