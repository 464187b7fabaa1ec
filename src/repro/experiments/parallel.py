"""Parallel, cache-aware, resumable execution of experiment cells.

The paper's evaluation grid is dozens of independent cells — (transport
variant × queue setup × buffer depth × target delay) — and each cell is a
pure function of its config (the frozen dataclass of any registered cell
kind, see :mod:`repro.experiments.kinds`):
:func:`~repro.experiments.runner.run_cell` builds its own kernel, RNG
registry, topology and traffic from the config alone, and every random
stream is seeded from ``config.seed``. That purity is what makes the fan-
out trivial *and* bit-identical: a cell computes the same
:class:`~repro.stats.collect.RunMetrics` whether it runs in this process,
in a worker, or came out of the on-disk cache
(:mod:`repro.experiments.cache`).

:func:`run_cells` is the one sweep executor. ``jobs=1`` is the in-process
serial path (no executor, no pickling); ``jobs>1`` fans cells out over a
``ProcessPoolExecutor``. With a :class:`~repro.experiments.cache.ResultCache`
attached, completed cells are skipped up front (resume-after-interrupt is
just re-running the same command) and fresh results are persisted as they
complete, so an interrupt loses at most the cells in flight.

Progress callbacks fire in the parent as cells finish — completions from
all workers aggregate into one ``(done, total, label)`` stream, so a
:class:`~repro.telemetry.profiler.ProgressReporter` works unchanged;
cache hits are reported with a ``[cached]`` suffix.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.cache import ResultCache, config_cache_key
from repro.experiments.config import CellResult
from repro.experiments.runner import run_cell
from repro.telemetry.profiler import ProgressReporter

__all__ = ["SweepReport", "run_cells"]

#: ``(label, config)`` pairs, as produced by the grid builders (any kind).
Cells = Sequence[Tuple[str, Any]]

Progress = Callable[[int, int, str], None]


@dataclass
class SweepReport:
    """Outcome of one :func:`run_cells` invocation.

    ``results`` preserves the submission order of the cells;
    ``executed`` / ``cached`` / ``aliases`` partition the labels by
    whether the cell actually ran, was served from the cache, or was
    deduplicated onto an identical config elsewhere in the same
    submission (``aliases`` maps each such label to the label whose
    execution it shares — the result objects are the same).
    """

    results: Dict[str, CellResult] = field(default_factory=dict)
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)
    jobs: int = 1
    wall_s: float = 0.0


def _run_one(item: Tuple[str, Any]) -> Tuple[str, CellResult]:
    """Worker entry point: one cell, picklable in and out."""
    label, config = item
    return label, run_cell(config)


def run_cells(
    cells: Cells,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    resume: bool = True,
    progress: Optional[Progress] = None,
) -> SweepReport:
    """Execute ``cells``, optionally in parallel and against a cache.

    Parameters
    ----------
    cells:
        ``(label, config)`` pairs; labels must be unique.
    jobs:
        Worker processes. 1 (the default) runs everything in-process;
        parallel results are bit-identical to the serial path because a
        cell is a pure function of its config.
    cache:
        Optional :class:`ResultCache`. Fresh results are always written
        to it; completed cells are *read* from it only when ``resume``.
    resume:
        Serve cells already present in ``cache`` without re-running them.
    progress:
        Optional ``(done, total, label)`` callback, invoked in the
        calling process as each cell completes (cache hits included,
        labelled ``[cached]``).
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    seen = set()
    for label, _cfg in cells:
        if label in seen:
            raise ExperimentError(f"duplicate cell label {label!r}")
        seen.add(label)

    t0 = _time.perf_counter()
    report = SweepReport(jobs=jobs)
    total = len(cells)
    done = 0

    def tick(label: str, suffix: str = "") -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, label + suffix)

    # Dedup identical configs *within* this submission: the same cache
    # key under two labels executes once, and the aliases share the one
    # result object (a cell is a pure function of its config, and labels
    # are presentation-only — they appear nowhere in the result).
    pending: List[Tuple[str, Any]] = []
    results: Dict[str, CellResult] = {}
    primary_by_key: Dict[str, str] = {}
    aliases_of: Dict[str, List[str]] = {}
    for label, cfg in cells:
        if cache is not None and resume:
            hit = cache.get(cfg)
            if hit is not None:
                results[label] = hit
                report.cached.append(label)
                tick(label, ProgressReporter.CACHED_SUFFIX)
                continue
            key = cache.last_key  # the miss's key, already rendered
        else:
            key = config_cache_key(cfg)
        primary = primary_by_key.get(key)
        if primary is not None:
            report.aliases[label] = primary
            aliases_of.setdefault(primary, []).append(label)
        else:
            primary_by_key[key] = label
            pending.append((label, cfg))

    def record(label: str, result: CellResult) -> None:
        results[label] = result
        report.executed.append(label)
        if cache is not None:
            cache.put(result)
        tick(label)
        for alias in aliases_of.get(label, ()):
            results[alias] = result
            tick(alias, ProgressReporter.DEDUP_SUFFIX)

    if jobs == 1 or len(pending) <= 1:
        for label, cfg in pending:
            record(label, run_cell(cfg))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(_run_one, item): item[0]
                       for item in pending}
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                for fut in finished:
                    # A worker exception (ExperimentError, ConfigError, …)
                    # re-raises here; completed cells are already in the
                    # cache, so the sweep is resumable past the failure.
                    label, result = fut.result()
                    record(label, result)

    # Hand results back in submission order regardless of completion order.
    report.results = {label: results[label] for label, _cfg in cells}
    report.wall_s = _time.perf_counter() - t0
    return report
