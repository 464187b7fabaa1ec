"""The five workloads: inputs from the seed, measurement, correctness checks.

Every workload is a list of *kinds* (a cell, or a batch of tiny cells) run
round-robin for ``--seconds``; each execution is one sample
``(kind, events, wall, cpu, calibration)``.  The program is driven only
through public entry points: ``run_cell``, ``run_cells``, ``ResultCache``,
``FarmScheduler`` and ``FarmClient``.

Host-speed normalisation.  This class of host drifts by tens of percent
over minutes (three minutes of one identical cell: median wall per 12 s
window 0.16-0.31 s), so a calibration probe — a standard-library heap churn
that runs no repository code — is timed right before every sample, and
each time is reported as ``time / probe_time * CAL_REF_S``: seconds on a
host that runs the probe in exactly ``CAL_REF_S``.  The median of those
per-sample ratios repeated within 2 % where raw medians moved by 30 %.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.protection import ProtectionMode
from repro.errors import FarmError
from repro.experiments import (ExperimentConfig, MixConfig, QueueSetup,
                               ResultCache, run_cell, run_cells)
from repro.experiments.bulkcell import BulkConfig
from repro.experiments.cache import canonical_config_json
from repro.farm import FarmClient, FarmScheduler
from repro.tcp.endpoint import TcpVariant
from repro.units import mb, us

from layers import cell_metrics, median, p95, span_metrics
from tracer import Tracer

__all__ = ["WORKLOADS", "CAL_REF_S", "RunResult", "calibrate", "make_cells",
           "tiny_config", "config_digest", "reap_children", "run_workload",
           "setup_only"]

WORKLOADS = ("shuffle-bulk", "rpc-mix", "bulk-hybrid", "sweep-tiny",
             "farm-tiny")
IN_PROCESS = WORKLOADS[:3]

#: Probe time on the reference host; normalised seconds are
#: ``measured / probe * CAL_REF_S``.
CAL_REF_S = 0.030
_CAL_N = 30_000

#: Worker processes of sweep-tiny and farm-tiny (= nproc of the target host).
JOBS = 2
#: Tiny cells per cold batch; farm-tiny splits a batch over two clients that
#: share a quarter of it (as 100 of 400 in the issue's full grid).
TINY_BATCH = 32
#: Tiny cells re-served in the warm phase: a fixed count, so that its cost
#: and the peak RSS do not follow how many batches a run got through.
WARM_TINY_CELLS = 64
#: Cells re-run serially and compared bit for bit on sweep-tiny/farm-tiny.
SAMPLE_CHECKS = 20
#: Warm-phase samples per workload family (farm-tiny: one resubmission of
#: ~35 ms each, three fsyncs inside, so more of them).
WARM_SAMPLES = {"in-process": 12, "sweep-tiny": 12, "farm-tiny": 20}


# -- inputs ---------------------------------------------------------------------

Cells = List[Tuple[str, Any]]

_SCHEMES = (("red-default", "red", ProtectionMode.DEFAULT),
            ("red-ece", "red", ProtectionMode.ECE),
            ("marking", "marking", ProtectionMode.DEFAULT))
_VARIANTS = (TcpVariant.ECN, TcpVariant.DCTCP)
_TINY_KINDS = ("droptail", "red", "marking", "codel")
_TINY_DELAYS_US = (100.0, 200.0, 500.0)


def _queue(kind: str, protection: ProtectionMode) -> QueueSetup:
    # Shallow buffers; 200 us target delay puts RED's band low enough that
    # a 32 MB shuffle drives it on every seed tried (at 500 us the early
    # drops the paper is about vanish on some seeds at this scale).
    return QueueSetup(kind=kind,
                      target_delay_s=None if kind == "droptail" else us(200),
                      protection=protection)


def _shuffle_bulk(seed: int, data_bytes: int = mb(16)) -> Cells:
    """The paper's headline cells: 16 hosts, 5:1 shuffle incast.

    16 MB keeps a round under 3 s, so every kind is sampled four times in
    a 12 s run (the median of two samples repeated within 6 %, of three
    within 3 %).
    """
    def cell(queue: QueueSetup, variant: TcpVariant) -> ExperimentConfig:
        return ExperimentConfig(queue=queue, variant=variant, seed=seed,
                                n_hosts=16, n_reducers=4,
                                data_bytes=data_bytes, block_bytes=mb(2))
    cells = [(f"{variant}/{name}", cell(_queue(kind, prot), variant))
             for variant in _VARIANTS for name, kind, prot in _SCHEMES]
    cells.append(("tcp-ecn/droptail", cell(
        _queue("droptail", ProtectionMode.DEFAULT), TcpVariant.ECN)))
    return cells


def _shuffle_claims(seed: int) -> Cells:
    """The TCP-ECN cells the paper's claims are checked on, at 32 MB: only
    there does RED-default drop ACKs on every seed (at 16 MB two seeds of
    twelve saw none).  Run once after the measurement, untimed."""
    wanted = ("tcp-ecn/red-default", "tcp-ecn/marking", "tcp-ecn/droptail")
    return [(label, config) for label, config in _shuffle_bulk(seed, mb(32))
            if label in wanted]


def _rpc_mix(seed: int) -> Cells:
    """Shuffle + partition-aggregate RPC + web-search background flows.

    The RPC and background load runs for as long as the 1 MB shuffle does
    (15-60 ms of simulated time, depending on the RTOs it suffers), which
    keeps a round of six cells to 1.5-3 s.
    """
    return [(f"{variant}/{name}", MixConfig(
        queue=_queue(kind, prot), variant=variant, seed=seed,
        data_bytes=mb(1), block_bytes=mb(1) // 2, n_reducers=4,
        rpc_rate_qps=1000.0, rpc_fanout=8, rpc_response_bytes=20_000,
        bg_rate_fps=250.0, drain_s=0.02))
        for variant in _VARIANTS for name, kind, prot in _SCHEMES]


def _bulk_hybrid(seed: int) -> Cells:
    """Disjoint long flows in the hybrid tier; the size follows the seed.

    16-24 MB: long enough that ~90 % of the bytes move in the fluid tier,
    short enough that every flow also *finishes* there on both transports.
    """
    cells = []
    for variant in _VARIANTS:
        for s in (seed, seed + 1, seed + 2):
            config = BulkConfig(n_hosts=16, fidelity="hybrid", variant=variant,
                                flow_bytes=mb(16) + (s % 4096) * 2048, seed=s)
            cells.append((f"{variant}/s{s}", config))
    return cells


def tiny_config(kind: str, seed: int, delay_us: float = 100.0
                ) -> ExperimentConfig:
    """The tiny cell of sweep-tiny/farm-tiny: 4 hosts, 2 MB Terasort."""
    queue = QueueSetup(
        kind=kind, target_delay_s=None if kind == "droptail" else us(delay_us))
    return replace(ExperimentConfig(queue=queue, variant=TcpVariant.ECN),
                   n_hosts=4, data_bytes=mb(2), block_bytes=mb(1),
                   n_reducers=4, seed=seed)


def tiny_cell(seed: int, index: int) -> Tuple[str, ExperimentConfig]:
    """Cell ``index`` of the unbounded tiny grid (all distinct configs)."""
    kind = _TINY_KINDS[index % len(_TINY_KINDS)]
    delay = _TINY_DELAYS_US[(index // len(_TINY_KINDS)) % len(_TINY_DELAYS_US)]
    return f"t{index}", tiny_config(kind, seed=seed * 100_003 + index,
                                    delay_us=delay)


def make_cells(workload: str, seed: int, limit: Optional[int] = None) -> Cells:
    """The cells of one round (for the tiny workloads: of the first batch)."""
    if workload == "shuffle-bulk":
        cells = _shuffle_bulk(seed)
    elif workload == "rpc-mix":
        cells = _rpc_mix(seed)
    elif workload == "bulk-hybrid":
        cells = _bulk_hybrid(seed)
    elif workload in ("sweep-tiny", "farm-tiny"):
        cells = [tiny_cell(seed, i) for i in range(limit or TINY_BATCH)]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    return cells[:limit] if limit else cells


def config_digest(cells: Cells) -> str:
    """SHA-256 over the canonical JSON of the generated configs."""
    h = hashlib.sha256()
    for label, config in cells:
        h.update(f"{label}\n{canonical_config_json(config)}\n".encode())
    return h.hexdigest()


def sim_digest(results: Dict[str, Any]) -> str:
    """SHA-256 over every cell's RunMetrics and event count, by label."""
    h = hashlib.sha256()
    for label in sorted(results):
        r = results[label]
        doc = {"metrics": dataclasses.asdict(r.metrics),
               "events": r.manifest["timings"]["events"]}
        h.update(f"{label}\n{json.dumps(doc, sort_keys=True)}\n".encode())
    return h.hexdigest()


# -- measurement primitives -------------------------------------------------------


def _probe() -> float:
    """Seconds for one host-speed probe (standard library only)."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    t0 = perf_counter()
    for i in range(_CAL_N):
        push(heap, ((i * 2654435761) % 1000003, i))
        if i & 1:
            acc += pop(heap)[0]
    while heap:
        acc += pop(heap)[0]
    return perf_counter() - t0


def calibrate(sample_s: float = 0.0) -> float:
    """Median probe time, probing for ~15 % of the sample it precedes.

    The probe is what a sample's time is divided by, so its own noise must
    not dominate: one 30 ms probe against a 1 s cell left the ratio twice
    as noisy (IQR over 12-pair blocks 4.0 % vs 2.0 %) as five of them.
    ``sample_s`` is the previous duration of the thing about to be timed.
    """
    probes = [_probe()]
    while sum(probes) < 0.15 * sample_s and len(probes) < 8:
        probes.append(_probe())
    return statistics.median(probes)


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """User + system CPU of this process, its reaped children, and its live
    ``multiprocessing`` children (pool and farm workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    for proc in multiprocessing.active_children():
        try:
            with open(f"/proc/{proc.pid}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
            total += (int(fields[11]) + int(fields[12])) / _TICK
        except (OSError, IndexError, ValueError):
            pass  # exited between the listing and the read
    return total


def peak_rss_mb() -> float:
    """Max RSS over this process and its reaped children (Linux: KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _pid_runs(pid: int) -> bool:
    """Is ``pid`` a process that still runs (a zombie does not)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def reap_children(grace_s: float = 5.0) -> List[int]:
    """Stop and wait for every ``multiprocessing`` child still around:
    SIGTERM, then SIGKILL.  Returns the pids that outlived even that.

    Asked of the kernel, not of ``multiprocessing``: a launcher that ignores
    SIGCHLD makes ``Process.is_alive()`` true for ever.
    """
    children = multiprocessing.active_children()
    for stop in ("terminate", "kill"):
        for proc in children:
            if _pid_runs(proc.pid):
                getattr(proc, stop)()
        deadline = perf_counter() + grace_s
        while (any(_pid_runs(p.pid) for p in children)
               and perf_counter() < deadline):
            threading.Event().wait(0.02)
    for proc in children:
        proc.join(timeout=0.1)
    return [p.pid for p in children if _pid_runs(p.pid)]


@dataclass
class Sample:
    kind: str
    events: int
    wall_s: float
    cpu_s: float
    cal_s: float


def _per_pass(samples: Sequence[Sample], value: Callable[[Sample], float]
              ) -> float:
    """One pass over every kind: per kind the median of ``value`` over its
    samples, summed over the kinds."""
    by_kind: Dict[str, List[float]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(value(s))
    return sum(statistics.median(v) for v in by_kind.values())


def _normalised(samples: Sequence[Sample], attr: str) -> float:
    """Reference-host seconds of ``attr`` (``wall_s``/``cpu_s``) per pass:
    each sample's time over its probe's, times CAL_REF_S."""
    return _per_pass(samples,
                     lambda s: getattr(s, attr) / s.cal_s) * CAL_REF_S


@dataclass
class RunResult:
    """Everything one invocation measured."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    sim_digest: str = ""
    config_digest: str = ""
    detail: Dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def check(self, name: str, ok: bool) -> None:
        """One named correctness check: an attempt, and a failure if not ok."""
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {name}")


def _cell_failure(result) -> Optional[str]:
    """Why a finished cell counts as failed, or None."""
    m = result.metrics
    if m.extra.get("timed_out"):
        return "timed out"
    if m.flows_failed:
        return f"{m.flows_failed} failed flows"
    rpc = (result.manifest.get("workloads") or {}).get("rpc") or {}
    if rpc.get("queries_failed"):
        return f"{rpc['queries_failed']} failed queries"
    return None


class _Runner:
    """Runs cells one at a time and keeps the samples and first results."""

    def __init__(self, out: RunResult, tracer: Optional[Tracer] = None):
        self.out = out
        self.tracer = tracer
        self.samples: List[Sample] = []
        self.first: Dict[str, Any] = {}
        self.last_wall: Dict[str, float] = {}
        self.overheads: List[float] = []  # run_cell wall - Simulator.run wall

    def _run_span_s(self) -> float:
        slot = self.tracer.stats.get("sim:Simulator.run") if self.tracer else None
        return slot[1] if slot else 0.0

    def cell(self, label: str, config) -> Optional[Any]:
        """One timed ``run_cell``; None (and a counted failure) if it fails."""
        self.out.attempted += 1
        if self.tracer is not None:
            self.tracer.label = label
        # A kind's first sample borrows the previous cell's duration.
        cal = calibrate(self.last_wall.get(
            label, self.samples[-1].wall_s if self.samples else 0.0))
        span0, cpu0, t0 = self._run_span_s(), cpu_seconds(), perf_counter()
        try:
            result = run_cell(config)
        except Exception as exc:  # a failed cell is a result, not a crash
            self.out.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        self.last_wall[label] = wall
        if self.tracer is not None:
            self.overheads.append(wall - (self._run_span_s() - span0))
        why = _cell_failure(result)
        if why:
            self.out.fail(f"{label}: {why}")
        events = result.manifest["timings"]["events"]
        first = self.first.setdefault(label, result)
        if first is not result and (first.metrics != result.metrics or
                                    first.manifest["timings"]["events"] != events):
            self.out.fail(f"{label}: repeat run is not bit-identical")
        self.samples.append(Sample(label, events, wall, cpu, cal))
        return result

    def rounds(self, cells: Cells, seconds: float, whole: bool,
               on_round: Optional[Callable[[], None]] = None) -> int:
        """Round-robin over ``cells`` for ``seconds``; at least one round.

        ``whole`` stops only at round boundaries (traced runs fold per
        round); otherwise the clock is checked after every cell.
        """
        t_start, done = perf_counter(), 0
        while True:
            for label, config in cells:
                self.cell(label, config)
                if (not whole and done
                        and perf_counter() - t_start >= seconds):
                    return done
            done += 1
            if on_round is not None:
                on_round()
            if perf_counter() - t_start >= seconds:
                return done


# -- correctness checks --------------------------------------------------------------


def _check_shuffle_claims(out: RunResult, seed: int) -> None:
    """The paper's claims, on the TCP-ECN column."""
    runner = _Runner(out)
    for label, config in _shuffle_claims(seed):
        runner.cell(label, config)
    if len(runner.first) < 3:
        return  # a cell failed (already counted): nothing to compare
    marking, red, droptail = (
        runner.first[f"tcp-ecn/{name}"].metrics
        for name in ("marking", "red-default", "droptail"))
    out.check("marking never drops early", marking.queue.drops_early == 0)
    out.check("RED-default drops ACKs (the untold truth)",
              red.queue.ack_drops > 0)
    out.check("marking drops fewer ACKs than RED-default",
              marking.queue.ack_drops < red.queue.ack_drops)
    out.check("marking finishes before RED-default and DropTail",
              marking.runtime < min(red.runtime, droptail.runtime))
    out.check("marking has lower mean latency than RED-default and DropTail",
              marking.mean_latency < min(red.mean_latency,
                                         droptail.mean_latency))


def _check_bulk_hybrid(out: RunResult, first: Dict[str, Any]) -> None:
    for label, r in first.items():
        fluid = r.manifest.get("fluid") or {}
        pairs = r.config.n_pairs
        out.check(f"{label}: every flow completes in the fluid tier",
                  r.metrics.flows_completed == pairs
                  and fluid.get("fluid_completions") == pairs
                  and fluid.get("promotions", 0) > 0)


def _check_packet_mode(out: RunResult, first: Dict[str, Any]) -> None:
    out.check("no fluid traffic in packet mode", all(
        not r.manifest.get("fluid") and r.metrics.queue.fluid_packets == 0
        for r in first.values()))


# -- warm phase: re-serving finished cells from a ResultCache --------------------------


#: A warm sample repeats its pass until it has lasted this long: a single
#: pass over seven cached cells takes ~1.5 ms, too short to time steadily
#: (at 0.05 s and one probe per sample the rate still spread 9-15 % over
#: ten runs).
WARM_SAMPLE_S = 0.2


def _warm_passes(out: RunResult, cells: Cells, reference: Dict[str, Any],
                 root: str, samples: int
                 ) -> Tuple[List[float], ResultCache, Dict[str, Any]]:
    """``samples`` timings of ``run_cells`` over an already-full cache, every
    pass against a fresh ``ResultCache`` instance.

    Returns the normalised cells/s samples, the last pass's cache instance
    (for its counters) and the last pass's results.
    """
    rates = []
    for _ in range(samples):
        cal = calibrate(3 * WARM_SAMPLE_S)  # three probes
        passes, t0 = 0, perf_counter()
        while not passes or perf_counter() - t0 < WARM_SAMPLE_S:
            cache = ResultCache(root)
            report = run_cells(cells, jobs=JOBS, cache=cache)
            passes += 1
            if report.executed or len(report.cached) != len(cells):
                out.fail(f"warm pass executed {len(report.executed)} cells")
        wall = perf_counter() - t0
        rates.append(passes * len(cells) / (wall / cal * CAL_REF_S))
    out.check("cache round-trip is bit-identical", all(
        report.results[label].metrics == reference[label].metrics
        for label, _config in cells))
    return rates, cache, report.results


def _cache_metrics(tracer: Optional[Tracer], root: str,
                   counters: Dict[str, int]) -> Dict[str, float]:
    """``experiments.cache.*`` from the traced spans and the cache directory."""
    if tracer is None:
        return {}
    d = tracer.durations
    puts = (d.get("experiments:ResultCache.put", [])
            + d.get("experiments:ResultCache.put_entry", []))
    gets = d.get("experiments:ResultCache.get", [])
    sizes = [os.path.getsize(os.path.join(root, name))
             for name in os.listdir(root) if name.endswith(".json")]
    return {
        "experiments.cache.put_ms": median(puts) * 1e3,
        "experiments.cache.put_p95_ms": p95(puts) * 1e3,
        "experiments.cache.get_us": median(gets) * 1e6,
        "experiments.cache.get_p95_us": p95(gets) * 1e6,
        "experiments.cache.entry_bytes": median(sizes),
        "experiments.cache.hits": counters["hits"],
        "experiments.cache.misses": counters["misses"],
        "experiments.cache.writes": counters["writes"],
    }


# -- the three in-process workloads ----------------------------------------------------


def _end_to_end(samples: Sequence[Sample], warm_rates: Sequence[float]
                ) -> Dict[str, float]:
    events = _per_pass(samples, lambda s: s.events)
    return {
        "events_per_s": events / _normalised(samples, "wall_s"),
        "cpu_us_per_event": _normalised(samples, "cpu_s") / events * 1e6,
        "warm_cells_per_s": median(warm_rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def _run_in_process(out: RunResult, cells: Cells, seconds: float,
                    tracer: Optional[Tracer], tmp: str, limit: Optional[int]
                    ) -> None:
    plain = _Runner(out)
    runner, folds = plain, []
    root = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    passes = 3 if limit else WARM_SAMPLES["in-process"]
    try:
        if tracer is None:
            plain.rounds(cells, seconds, whole=False)
        else:
            # One untraced round first, inside the time budget: the
            # reference for the tracer's price and for "tracing changes
            # no simulated statistic".
            t0 = perf_counter()
            plain.rounds(cells, 0.0, whole=True)
            seconds -= perf_counter() - t0
            tracer.install(hot=True)
            runner = _Runner(out, tracer)
            marks = [tracer.snapshot()]

            def fold_round() -> None:
                marks.append(tracer.snapshot())
                folds.append(Tracer.diff(marks[-1], marks[-2]))

            runner.rounds(cells, seconds, whole=True, on_round=fold_round)
            out.check("traced run is bit-identical to the untraced one",
                      sim_digest(runner.first) == sim_digest(plain.first))
        first = runner.first
        done = [(label, config) for label, config in cells if label in first]
        store = ResultCache(root)
        for label, _config in done:
            store.put(first[label])
        warm, cache, _results = _warm_passes(out, done, first, root, passes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.sim_digest = sim_digest(first)
    if out.workload == "shuffle-bulk" and not limit:
        _check_shuffle_claims(out, out.seed)
    if out.workload == "bulk-hybrid":
        _check_bulk_hybrid(out, first)
    else:
        _check_packet_mode(out, first)

    out.detail["samples"] = len(runner.samples)
    if tracer is None:
        out.metrics = _end_to_end(plain.samples, warm)
        return
    speed = CAL_REF_S / median(s.cal_s for s in runner.samples)
    out.metrics.update(span_metrics(folds, tracer, scale=speed))
    out.metrics.update(cell_metrics([first[label] for label, _c in done]))
    out.metrics.update(_cache_metrics(tracer, root, {
        "hits": cache.hits, "misses": cache.misses, "writes": store.writes}))
    walls = [s.wall_s for s in runner.samples]
    out.metrics.update({
        "experiments.cell_overhead_s": median(runner.overheads) * speed,
        "experiments.cell_wall_ms": median(walls) * speed * 1e3,
        "experiments.cell_wall_p95_ms": p95(walls) * speed * 1e3,
        "trace.overhead_ratio": (_normalised(runner.samples, "wall_s")
                                 / _normalised(plain.samples, "wall_s")),
    })
    out.detail["rounds_traced"] = len(folds)


# -- sweep-tiny: run_cells(jobs=2) against a ResultCache ---------------------------------


def _events(results: Dict[str, Any]) -> int:
    return sum(r.manifest["timings"]["events"] for r in results.values())


def _busy_s(results: Dict[str, Any]) -> float:
    """Summed in-worker wall time of the cells (their manifests' wall_s)."""
    return sum(r.manifest["timings"]["wall_s"] for r in results.values())


def _check_cells(out: RunResult, results: Dict[str, Any]) -> None:
    for label, result in results.items():
        why = _cell_failure(result)
        if why:
            out.fail(f"{label}: {why}")


def _sample_serially(out: RunResult, cells: Cells, seed: int,
                     served: Sequence[Dict[str, Any]], what: str,
                     tracer: Optional[Tracer]) -> List[float]:
    """Re-run a seeded sample of cells with ``run_cell`` and require every
    way they were served (pool, cache, farm) to be bit-identical.

    Returns the sampled cells' ``run_cell`` overheads (traced runs only).
    """
    picks = random.Random(seed).sample(range(len(cells)),
                                       min(SAMPLE_CHECKS, len(cells)))
    runner = _Runner(out, tracer)
    ok = True
    for i in picks:
        label, config = cells[i]
        local = runner.cell(label, config)
        ok = ok and local is not None and all(
            label in s and s[label].metrics == local.metrics for s in served)
    out.check(f"{len(picks)} sampled cells bit-identical across {what}", ok)
    return runner.overheads


def _tiny_metrics(tracer: Tracer, served: Dict[str, Any], first_batch: Cells,
                  overheads: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics both tiny workloads report the same way."""
    walls = [r.manifest["timings"]["wall_s"] for r in served.values()]
    return {
        **cell_metrics([served[label] for label, _c in first_batch]),
        "experiments.cell_overhead_s": median(overheads),
        "experiments.cell_wall_ms": median(walls) * 1e3,
        "experiments.cell_wall_p95_ms": p95(walls) * 1e3,
        # Only this process is traced; the workers run at full speed.
        "trace.overhead_ratio": 1.0,
    }


def _run_sweep_tiny(out: RunResult, seed: int, seconds: float,
                    tracer: Optional[Tracer], tmp: str, limit: Optional[int]
                    ) -> None:
    batch_size = limit or TINY_BATCH
    root = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    cold = ResultCache(root)
    samples: List[Sample] = []
    cells: Cells = []
    pooled: Dict[str, Any] = {}
    overhead_ms, efficiency = [], []
    t_start = perf_counter()
    while not samples or perf_counter() - t_start < seconds:
        batch = [tiny_cell(seed, len(cells) + j) for j in range(batch_size)]
        if tracer is not None:
            tracer.label = f"batch{len(samples)}"
        cal = calibrate(samples[-1].wall_s if samples else 0.0)
        cpu0, t0 = cpu_seconds(), perf_counter()
        # Closed batch: pool start-up, fan-out, pickling and the fsynced
        # put of every result are all inside the clock.
        report = run_cells(batch, jobs=JOBS, cache=cold)
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        out.attempted += len(batch)
        if len(report.executed) != len(batch):
            out.fail(f"cold batch executed {len(report.executed)} "
                     f"of {len(batch)} cells")
        _check_cells(out, report.results)
        cells.extend(batch)
        pooled.update(report.results)
        busy = _busy_s(report.results)
        overhead_ms.append((wall * JOBS - busy) / len(batch) * 1e3)
        efficiency.append(busy / (wall * JOBS))
        samples.append(Sample("batch", _events(report.results), wall, cpu, cal))
    rewarmed = cells[:WARM_TINY_CELLS]
    warm, cache, warm_results = _warm_passes(
        out, rewarmed, pooled, root, 3 if limit else WARM_SAMPLES["sweep-tiny"])
    overheads = _sample_serially(
        out, rewarmed, seed, [pooled, warm_results],
        "serial run_cell, the pool and the cache", tracer)
    first_batch = cells[:batch_size]
    out.sim_digest = sim_digest({label: pooled[label]
                                 for label, _c in first_batch})
    out.detail.update(batches=len(samples), cells=len(cells))
    if tracer is None:
        out.metrics = _end_to_end(samples, warm)
        return
    out.metrics.update(_tiny_metrics(tracer, pooled, first_batch, overheads))
    out.metrics.update(_cache_metrics(tracer, root, {
        "hits": cache.hits, "misses": cold.misses, "writes": cold.writes}))
    out.metrics.update({
        "experiments.parallel.overhead_ms_per_cell": median(overhead_ms),
        "experiments.parallel.efficiency": median(efficiency),
    })


# -- farm-tiny: FarmScheduler(workers=2) serving two concurrent clients ------------------


@contextmanager
def farm_session(tmp: str) -> Iterator[Tuple[FarmScheduler, str, threading.Thread]]:
    """A scheduler thread + its workers, stopped and reaped on every exit."""
    farm_dir = tempfile.mkdtemp(prefix="farm-", dir=tmp)
    # Relative to the working directory: AF_UNIX paths are limited to ~100
    # bytes and the checkout may sit anywhere.
    socket_path = os.path.relpath(os.path.join(farm_dir, "farm.sock"))
    sched = FarmScheduler(farm_dir, workers=JOBS, socket_path=socket_path)
    crash: List[BaseException] = []

    def serve() -> None:
        try:
            sched.serve_forever()
        except BaseException as exc:  # told to whoever waits for the farm
            crash.append(exc)
            raise

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        client = FarmClient(socket_path, timeout=10.0)
        deadline = perf_counter() + 60.0
        while True:
            try:
                client.ping()
                break
            except FarmError as exc:
                if crash:
                    raise RuntimeError(
                        f"farm scheduler died starting up: {crash[0]!r}") from exc
                if perf_counter() > deadline or not thread.is_alive():
                    raise
                threading.Event().wait(0.01)
        yield sched, socket_path, thread
    finally:
        sched.stop()
        thread.join(timeout=90.0)
        # The scheduler retires its workers itself; whatever it left behind
        # (it died, or a worker ignored it) is stopped here.
        survivors = reap_children()
        if thread.is_alive() or survivors:
            raise RuntimeError(f"farm survived shutdown: scheduler thread "
                               f"alive={thread.is_alive()}, pids {survivors}")


def _farm_client_job(socket_path: str, name: str, cells: Cells,
                     record: Dict[str, Any]) -> None:
    """Closed loop over one connection at a time: submit, watch, fetch."""
    try:
        client = FarmClient(socket_path, timeout=120.0, client=name)
        t0 = perf_counter()
        sub = client.submit(cells)
        t_submitted = perf_counter()
        first = None
        for event in client.watch(sub["id"], timeout=120.0):
            if first is None and event.get("ev") == "progress":
                first = perf_counter()
        # The scheduler drops a watcher that stalls it for 0.25 s, which
        # ends the stream early; the job itself goes on, so ask.
        status = client.status(sub["id"])
        while status["state"] == "running":
            if perf_counter() - t_submitted > 120.0:
                raise FarmError(f"job {sub['id']} still running after 120 s")
            threading.Event().wait(0.02)
            status = client.status(sub["id"])
        t_watched = perf_counter()
        record["results"] = client.fetch(sub["id"])
        record["fetch_s"] = perf_counter() - t_watched
        record["submit_s"] = t_submitted - t0
        record["first_result_s"] = None if first is None else first - t0
        record["counts"] = status["cells"]
    except Exception as exc:  # reported by the caller as a failed batch
        record["error"] = f"{type(exc).__name__}: {exc}"


def _run_farm_tiny(out: RunResult, seed: int, seconds: float,
                   tracer: Optional[Tracer], limit: Optional[int],
                   session) -> None:
    sched, socket_path, thread = session
    batch_size = limit or TINY_BATCH
    own = (batch_size - max(1, batch_size // 4)) // 2
    samples: List[Sample] = []
    cells: Cells = []
    served: Dict[str, Any] = {}
    timing: Dict[str, List[float]] = {k: [] for k in (
        "ping", "submit", "first_result", "fetch", "overhead", "utilization",
        "resubmit")}
    first_counts: Dict[str, int] = {}
    client = FarmClient(socket_path, timeout=120.0, client="suite")
    for _ in range(10):
        t0 = perf_counter()
        client.ping()
        timing["ping"].append(perf_counter() - t0)

    t_start = perf_counter()
    while not samples or perf_counter() - t_start < seconds:
        batch = [tiny_cell(seed, len(cells) + j) for j in range(batch_size)]
        # Shared cells go last in both submissions, so whichever client is
        # first, they are still queued when the other one asks for them.
        halves = {"a": batch[:own] + batch[2 * own:],
                  "b": batch[own:2 * own] + batch[2 * own:]}
        records: Dict[str, Dict[str, Any]] = {"a": {}, "b": {}}
        if tracer is not None:
            tracer.label = f"batch{len(samples)}"
        cal = calibrate(samples[-1].wall_s if samples else 0.0)
        cpu0, t0 = cpu_seconds(), perf_counter()
        threads = [threading.Thread(target=_farm_client_job, args=(
            socket_path, f"suite-{name}", halves[name], records[name]))
            for name in halves]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        out.attempted += len(batch)
        errors = [r["error"] for r in records.values() if "error" in r]
        if errors:
            raise RuntimeError(
                f"farm batch {len(samples)} (scheduler thread alive="
                f"{thread.is_alive()}): {'; '.join(errors)}")
        got: Dict[str, Any] = {}
        for record in records.values():
            got.update(record["results"])
            timing["submit"].append(record["submit_s"])
            timing["fetch"].append(record["fetch_s"])
            if record["first_result_s"] is not None:
                timing["first_result"].append(record["first_result_s"])
        counts = {k: sum(r["counts"][k] for r in records.values())
                  for k in ("executed", "dedup", "cached", "failed")}
        first_counts = first_counts or counts
        # Every cell runs once; a shared one is a dedup for the client that
        # asked second, or a cache hit if the first one's was done by then.
        if (counts["executed"] != len(batch) or counts["failed"]
                or counts["dedup"] + counts["cached"] != len(batch) - 2 * own):
            out.fail(f"farm batch {len(samples)} outcomes {counts}")
        _check_cells(out, got)
        cells.extend(batch)
        served.update(got)
        busy = _busy_s(got)
        timing["overhead"].append((wall * JOBS - busy) / len(batch) * 1e3)
        timing["utilization"].append(busy / (wall * JOBS))
        samples.append(Sample("batch", _events(got), wall, cpu, cal))

    warm: List[float] = []
    again: Dict[str, Any] = {}
    rewarmed = cells[:WARM_TINY_CELLS]
    for p in range(3 if limit else WARM_SAMPLES["farm-tiny"]):
        cal = calibrate(0.3)  # two probes
        t0 = perf_counter()
        sub = client.submit([(f"w{p}/{label}", config)
                             for label, config in rewarmed])
        again = {label.partition("/")[2]: result
                 for label, result in client.fetch(sub["id"]).items()}
        wall = perf_counter() - t0
        timing["resubmit"].append(wall)
        warm.append(len(rewarmed) / (wall / cal * CAL_REF_S))
        if (sub["cells"]["cached"] != len(rewarmed)
                or len(again) != len(rewarmed)):
            out.fail(f"resubmission {p} was not served from the cache")
    out.check("farm resubmission is bit-identical", all(
        again[label].metrics == served[label].metrics
        for label, _config in rewarmed))

    t0 = perf_counter()
    client.shutdown()
    thread.join(timeout=90.0)
    shutdown_s = perf_counter() - t0
    out.check("clean shutdown", not thread.is_alive()
              and not os.path.exists(socket_path))
    overheads = _sample_serially(out, rewarmed, seed, [served],
                                 "serial run_cell and farm fetch", tracer)
    first_batch = cells[:batch_size]
    out.sim_digest = sim_digest({label: served[label]
                                 for label, _c in first_batch})
    out.detail.update(batches=len(samples), cells=len(cells))
    if tracer is None:
        out.metrics = _end_to_end(samples, warm)
        return
    d = tracer.durations
    appends = d.get("farm:Journal.append", [])
    store = (d.get("farm:ArtifactStore.put_job", [])
             + d.get("farm:ArtifactStore.put_results", []))
    out.metrics.update(_tiny_metrics(tracer, served, first_batch, overheads))
    out.metrics.update(_cache_metrics(tracer, sched.cache.root, {
        "hits": sched.cache.hits, "misses": sched.cache.misses,
        "writes": sched.cache.writes}))
    out.metrics.update({
        "farm.journal.append_ms": median(appends) * 1e3,
        "farm.journal.append_p95_ms": p95(appends) * 1e3,
        "farm.store.put_ms": median(store) * 1e3,
        "farm.ping_us": median(timing["ping"]) * 1e6,
        "farm.submit_ms": median(timing["submit"]) * 1e3,
        "farm.first_result_ms": median(timing["first_result"]) * 1e3,
        "farm.fetch_ms": median(timing["fetch"]) * 1e3,
        "farm.resubmit_ms": median(timing["resubmit"]) * 1e3,
        "farm.overhead_ms_per_cell": median(timing["overhead"]),
        "farm.worker_utilization": median(timing["utilization"]),
        "farm.executed_cells": first_counts["executed"],
        "farm.dedup_cells": first_counts["dedup"],
        "farm.cached_cells": len(rewarmed),
        "farm.shutdown_s": shutdown_s,
    })


# -- entry points ----------------------------------------------------------------------


@contextmanager
def _setup(workload: str, seed: int, tmp_root: str, limit: Optional[int],
           tracer: Optional[Tracer]):
    """Everything before the first measured operation (this is ``setup_s``):
    input generation, one warm-up tiny cell, the temp directory, and for
    farm-tiny the scheduler and its workers up to the first ping reply.

    On the two service workloads the tracer goes in here, before the farm
    starts, so the scheduler thread's journal and store calls are seen from
    the first one; it stays until teardown.  (The in-process workloads
    install it themselves, after their untraced reference round.)
    """
    cells = make_cells(workload, seed, limit)
    run_cell(tiny_config("red", seed=seed))
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    service = tracer is not None and workload not in IN_PROCESS
    try:
        if service:
            tracer.install(hot=False)
        if workload == "farm-tiny":
            with farm_session(tmp) as session:
                yield cells, tmp, session
        else:
            yield cells, tmp, None
    finally:
        reap_children()  # a pool worker an exception left behind
        if service:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's directory is still in there


def setup_only(workload: str, seed: int, tmp_root: str) -> None:
    """Set up, say so on stdout, tear down: one ``setup_s`` sample."""
    with _setup(workload, seed, tmp_root, None, None):
        print("ready", flush=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tmp_root: str, limit: Optional[int] = None) -> RunResult:
    """Measure one workload; ``limit`` shrinks it to a miniature (tests).

    A traced run returns the per-layer metrics the tracer and the cells
    give; the caller adds the direct drivers' (``drivers.run_drivers``).
    """
    out = RunResult(workload, seed, trace)
    tracer = Tracer() if trace else None
    with _setup(workload, seed, tmp_root, limit, tracer) as (cells, tmp, session):
        out.config_digest = config_digest(cells)
        if workload in IN_PROCESS:
            _run_in_process(out, cells, seconds, tracer, tmp, limit)
        elif workload == "sweep-tiny":
            _run_sweep_tiny(out, seed, seconds, tracer, tmp, limit)
        else:
            _run_farm_tiny(out, seed, seconds, tracer, limit, session)
    out.detail["tracer"] = tracer
    return out
