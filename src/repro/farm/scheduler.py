"""The farm scheduler: socket loop, priority queue, dedup, resume.

One scheduler process owns everything mutable — the content-addressed
:class:`~repro.experiments.cache.ResultCache` and the crash-safe
:class:`~repro.farm.journal.Journal` — and drives N worker processes
plus any number of client connections from a single ``selectors`` loop.
No locks anywhere: workers talk over ``multiprocessing.Pipe``\\ s, clients
over a Unix socket, and both kinds of file descriptor wake the same
loop.

Execution model
---------------
Work is deduplicated at the **execution unit** level: a unit is one
cache key (= one canonical config), and every ``(job, label)`` that
needs that key — from the same submission or from different clients —
is a *waiter* on the same unit. A unit runs at the **highest** priority
any waiter asked for, at most once; when it finishes, every waiter's
job ticks (the first waiter plainly, the rest with the ``[dedup]``
suffix the :class:`~repro.telemetry.profiler.ProgressReporter`
convention defines).

The pending queue is a lazy max-priority heap (``(-priority, seq)``
entries; stale entries are skipped when popped). When every worker is
busy and a pending unit outranks the lowest-priority running one, the
scheduler sends that worker ``SIGUSR1``: the worker's event-loop
checkpoint raises out of the cell, reports ``preempted``, and the unit
requeues — nothing is lost, because a cell is a pure function of its
config.

Crash safety
------------
Every submission is journalled (fsynced) before it is acknowledged, and
every completed unit's result reaches the cache before its ``done``
record. On startup the scheduler replays the journal — tolerating a
torn final line — and re-checks the cache at dispatch time, so a killed
scheduler resumes with at most the in-flight cells re-executed and a
killed worker costs exactly the cell it was running.

Each selector wake-up runs **drain → dispatch → persist**: worker
reports are received and their slots freed, one ``_pump()`` hands every
freed worker its next unit, and only then are the reports settled
(cache put → journal ``done`` → ticks, in arrival order). The writes
and their order are those of a report-at-a-time loop; the fsyncs just
overlap worker compute. A crash between dispatch and persist is a crash
before persist: the finished-but-unrecorded cell re-runs after resume.
"""

from __future__ import annotations

import heapq
import os
import selectors
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FarmError
from repro.experiments.cache import ResultCache
from repro.farm.journal import Journal
from repro.farm.protocol import (
    PROTOCOL_SCHEMA,
    config_from_dict,
    error_response,
    parse_lines,
    send_json,
)
from repro.farm.worker import CHECKPOINT_INTERVAL_S, spawn_worker
from repro.telemetry.profiler import ProgressFanout, ProgressReporter

__all__ = ["FarmScheduler"]

#: A cell that crashes its worker this many times is declared failed
#: instead of being requeued forever.
MAX_UNIT_ATTEMPTS = 3

#: Consecutive worker deaths without a single completed cell in between
#: before the scheduler stops respawning (a poisoned environment, not a
#: poisoned cell).
MAX_CONSECUTIVE_CRASHES = 8

#: Label suffix for cells that failed (progress-stream convention,
#: alongside ``[cached]`` / ``[dedup]``).
FAILED_SUFFIX = " [failed]"

#: Per-event send deadline for watch progress streams. Progress is
#: best-effort: sends run synchronously inside the single selector
#: loop, so a watcher that cannot take a small event within this window
#: (full socket buffer, suspended client) is stalled and gets dropped
#: instead of wedging dispatch, worker messages and every other client
#: behind the 5s request timeout.
WATCH_SEND_TIMEOUT_S = 0.25

#: Request/response (and terminal-event) socket timeout.
CLIENT_SEND_TIMEOUT_S = 5.0


@dataclass
class ExecUnit:
    """One deduplicated execution: a cache key plus its waiters."""

    key: str
    kind: str
    config: Dict[str, Any]
    priority: int
    seq: int
    state: str = "pending"  #: pending | running | done | failed | cancelled
    waiters: List[Tuple[str, str]] = field(default_factory=list)
    attempts: int = 0
    error: Optional[str] = None


@dataclass
class Job:
    """One client submission: an ordered set of labelled cells."""

    id: str
    client: str
    priority: int
    labels: List[str] = field(default_factory=list)
    key_of: Dict[str, str] = field(default_factory=dict)
    kind_of: Dict[str, str] = field(default_factory=dict)
    #: label -> outcome ("executed" | "cached" | "dedup" | "failed")
    done: Dict[str, str] = field(default_factory=dict)
    cancelled: bool = False
    fanout: ProgressFanout = field(default_factory=ProgressFanout)
    watchers: List[socket.socket] = field(default_factory=list)

    @property
    def state(self) -> str:
        if self.cancelled:
            return "cancelled"
        if len(self.done) >= len(self.labels):
            return ("failed" if any(v == "failed"
                                    for v in self.done.values()) else "done")
        return "running"

    def counts(self) -> Dict[str, int]:
        out = {"total": len(self.labels), "done": len(self.done),
               "executed": 0, "cached": 0, "dedup": 0, "failed": 0}
        for outcome in self.done.values():
            out[outcome] += 1
        return out


class _WorkerSlot:
    """One worker process + its pipe, as seen by the scheduler."""

    __slots__ = ("proc", "conn", "busy", "preempting")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.busy: Optional[str] = None  #: key of the running unit
        self.preempting = False


class _ClientState:
    """Per-connection receive buffer + watcher registration."""

    __slots__ = ("buf", "watching")

    def __init__(self):
        self.buf = bytearray()
        self.watching: Optional[Tuple[str, int]] = None  #: (job_id, token)


class FarmScheduler:
    """The sweep-farm service (see module docstring).

    Parameters
    ----------
    farm_dir:
        Service state directory: ``cache/``, ``journal.jsonl`` and (by
        default) ``farm.sock`` live here. An existing directory is
        **resumed**, not wiped.
    workers:
        Worker processes to keep alive.
    socket_path:
        Unix-socket override. ``AF_UNIX`` paths are limited to ~100
        characters — pass a short path (e.g. under ``/tmp``) when the
        farm dir is deeply nested.
    checkpoint_s:
        Simulated-time spacing of worker preemption checkpoints.
    """

    def __init__(
        self,
        farm_dir: str,
        workers: int = 2,
        socket_path: Optional[str] = None,
        checkpoint_s: float = CHECKPOINT_INTERVAL_S,
    ):
        if workers < 1:
            raise FarmError(f"workers must be >= 1, got {workers}")
        os.makedirs(farm_dir, exist_ok=True)
        self.farm_dir = farm_dir
        self.socket_path = socket_path or os.path.join(farm_dir, "farm.sock")
        if len(self.socket_path.encode()) > 100:
            raise FarmError(
                f"socket path too long for AF_UNIX "
                f"({len(self.socket_path)} chars): pass socket_path= / "
                f"--socket with a short path (e.g. under /tmp)")
        self.n_workers = workers
        self.checkpoint_s = checkpoint_s
        self.cache = ResultCache(os.path.join(farm_dir, "cache"))
        self.journal = Journal(os.path.join(farm_dir, "journal.jsonl"))

        self.jobs: Dict[str, Job] = {}
        self.units: Dict[str, ExecUnit] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._job_seq = 0
        self.preemptions = 0
        self.worker_crashes = 0
        #: Loop accounting (the ``loop`` block of ``stats``): reports
        #: settled, ``run`` messages sent while a report still awaited
        #: persistence, total seconds in the persist phase.
        self.reports = 0
        self.dispatched_ahead = 0
        self.persist_s = 0.0
        self._unsettled: List[Dict[str, Any]] = []
        self._consecutive_crashes = 0
        self._shutdown = False
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._slots: List[_WorkerSlot] = []
        self._clients: Dict[socket.socket, _ClientState] = {}

        self.resumed_jobs = 0
        self.resumed_truncated = 0
        self._resume()

    # -- journal resume ------------------------------------------------------

    def _resume(self) -> None:
        records, truncated = self.journal.replay()
        self.resumed_truncated = truncated
        for rec in records:
            ev = rec.get("ev")
            if ev == "job":
                self._add_job(rec["id"], rec.get("client", "?"),
                              int(rec.get("priority", 0)), rec["cells"])
                self.resumed_jobs += 1
            elif ev == "done":
                unit = self.units.get(rec.get("key", ""))
                # Trust the cache, not the record: a pruned cache entry
                # means the work is genuinely gone and must re-run.
                if unit is not None and unit.state in ("pending", "running"):
                    if self.cache.get_entry(unit.key) is not None:
                        self._unit_finished(unit, "executed")
            elif ev == "failed":
                unit = self.units.get(rec.get("key", ""))
                if unit is not None and unit.state in ("pending", "running"):
                    unit.error = rec.get("error")
                    self._unit_finished(unit, "failed")
            elif ev == "cancel":
                job = self.jobs.get(rec.get("id", ""))
                if job is not None and not job.cancelled:
                    self._cancel_job(job, journal=False)

    # -- bookkeeping helpers -------------------------------------------------

    def _push(self, unit: ExecUnit) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-unit.priority, self._seq, unit.key))

    def _pop_pending(self) -> Optional[ExecUnit]:
        """Highest-priority pending unit with live waiters (lazy heap)."""
        while self._heap:
            _np, _seq, key = heapq.heappop(self._heap)
            unit = self.units.get(key)
            if unit is None or unit.state != "pending":
                continue  # stale entry (already dispatched/finished)
            if not unit.waiters:
                unit.state = "cancelled"
                continue
            return unit
        return None

    def _peek_priority(self) -> Optional[int]:
        """Priority of the best live pending unit (cleans stale heads)."""
        while self._heap:
            _np, _seq, key = self._heap[0]
            unit = self.units.get(key)
            if unit is None or unit.state != "pending" or not unit.waiters:
                heapq.heappop(self._heap)
                if unit is not None and unit.state == "pending":
                    unit.state = "cancelled"
                continue
            return unit.priority
        return None

    # -- job lifecycle -------------------------------------------------------

    def _add_job(self, job_id: str, client: str, priority: int,
                 cells: List[Dict[str, Any]]) -> Job:
        """Register one submission (shared by the submit op and resume)."""
        job = Job(id=job_id, client=client, priority=priority)
        self.jobs[job_id] = job
        self._job_seq = max(self._job_seq, _job_number(job_id))
        for cell in cells:
            label, key = cell["label"], cell["key"]
            job.labels.append(label)
            job.key_of[label] = key
            job.kind_of[label] = cell.get("kind", "cell")
        # Second pass so job.labels is complete before any completion
        # tick can declare the job done.
        for cell in cells:
            label, key = cell["label"], cell["key"]
            if self.cache.get_entry(key) is not None:
                job.done[label] = "cached"
                self._tick(job, label, ProgressReporter.CACHED_SUFFIX)
                continue
            unit = self.units.get(key)
            if unit is None or unit.state in ("done", "failed", "cancelled"):
                # done-but-evicted / previously-failed keys get a fresh
                # unit: resubmission is the retry mechanism.
                self._seq += 1
                unit = ExecUnit(key=key, kind=cell.get("kind", "cell"),
                                config=cell["config"], priority=priority,
                                seq=self._seq)
                self.units[key] = unit
                unit.waiters.append((job_id, label))
                self._push(unit)
            else:
                unit.waiters.append((job_id, label))
                if priority > unit.priority:
                    unit.priority = priority
                    if unit.state == "pending":
                        self._push(unit)  # re-rank; old entry goes stale
        return job

    def _tick(self, job: Job, label: str, suffix: str = "") -> None:
        """One label of ``job`` completed; stream progress, maybe finish."""
        job.fanout(len(job.done), len(job.labels), label + suffix)
        if len(job.done) >= len(job.labels):
            self._notify_job_done(job)

    def _notify_job_done(self, job: Job) -> None:
        """Send the terminal event to watchers and drop them."""
        for sock in list(job.watchers):
            try:
                send_json(sock, {"ev": "job_done", "id": job.id,
                                 "state": job.state,
                                 "cells": job.counts()})
            except FarmError:
                pass
            self._close_client(sock)

    def _unit_finished(self, unit: ExecUnit, outcome: str) -> None:
        """Credit every waiter of a finished unit.

        ``outcome`` is "executed", "cached" (dispatch-time cache hit) or
        "failed". The first executed waiter ticks plainly; the rest tick
        with the ``[dedup]`` suffix — that is the cross-client dedup
        made visible.
        """
        unit.state = "failed" if outcome == "failed" else "done"
        first = True
        for job_id, label in unit.waiters:
            job = self.jobs.get(job_id)
            if job is None or job.cancelled or label in job.done:
                continue
            if outcome == "executed":
                job.done[label] = "executed" if first else "dedup"
                suffix = "" if first else ProgressReporter.DEDUP_SUFFIX
                first = False
            elif outcome == "cached":
                job.done[label] = "cached"
                suffix = ProgressReporter.CACHED_SUFFIX
            else:
                job.done[label] = "failed"
                suffix = FAILED_SUFFIX
            self._tick(job, label, suffix)
        unit.waiters = []

    def _cancel_job(self, job: Job, journal: bool = True) -> None:
        job.cancelled = True
        if journal:
            self.journal.append({"ev": "cancel", "id": job.id})
        for unit in self.units.values():
            if unit.state not in ("pending", "running"):
                continue
            before = len(unit.waiters)
            unit.waiters = [(j, l) for j, l in unit.waiters if j != job.id]
            if before and not unit.waiters:
                if unit.state == "pending":
                    unit.state = "cancelled"
                elif unit.state == "running":
                    # Free the worker; the preempted unit has nobody
                    # left waiting and will be discarded on report.
                    self._preempt_key(unit.key)
        self._notify_job_done(job)

    # -- worker management ---------------------------------------------------

    def _spawn_one(self) -> None:
        # The forked child must not keep scheduler-only fds alive after
        # a scheduler SIGKILL: the listener would leave the socket
        # accepting connections nobody answers; a client socket (watch
        # streams — workers respawned mid-session fork while clients
        # are connected) would rob that client of its EOF; a sibling's
        # pipe end would mask that worker's death; the journal fd could
        # outlive the scheduler that owns the append order.
        fds: List[int] = []
        if self._listener is not None:
            fds.append(self._listener.fileno())
        for sock in self._clients:
            try:
                fds.append(sock.fileno())
            except OSError:  # pragma: no cover - closing race
                pass
        for other in self._slots:
            try:
                fds.append(other.conn.fileno())
            except OSError:  # pragma: no cover - dying sibling
                pass
        journal_fd = self.journal.fileno()
        if journal_fd is not None:
            fds.append(journal_fd)
        proc, conn = spawn_worker(self.checkpoint_s,
                                  close_fds=[fd for fd in fds if fd >= 0])
        slot = _WorkerSlot(proc, conn)
        self._slots.append(slot)
        if self._selector is not None:
            self._selector.register(conn, selectors.EVENT_READ,
                                    ("worker", slot))

    def _preempt_key(self, key: str) -> None:
        for slot in self._slots:
            if slot.busy == key and not slot.preempting:
                slot.preempting = True
                self.preemptions += 1
                try:
                    os.kill(slot.proc.pid, signal.SIGUSR1)
                except (OSError, TypeError):  # pragma: no cover - dying worker
                    pass
                return

    def _pump(self) -> None:
        """Dispatch pending units to idle workers; trigger preemption."""
        if self._shutdown:
            return
        for slot in self._slots:
            if slot.busy is not None:
                continue
            unit = self._pop_pending()
            if unit is None:
                break
            # Dispatch-time cache check: the resume path after a crash
            # (journal lost its tail, cache kept the result) and the
            # window where another client's identical cell finished
            # between submit and dispatch both land here.
            if self.cache.get_entry(unit.key) is not None:
                self.journal.append({"ev": "done", "key": unit.key})
                self._unit_finished(unit, "cached")
                continue
            slot.conn.send({"op": "run", "key": unit.key,
                            "kind": unit.kind, "config": unit.config})
            slot.busy = unit.key
            unit.state = "running"
            if self._unsettled:
                self.dispatched_ahead += 1
        # Priority inversion? Preempt the lowest-priority running unit
        # when a pending one outranks it and no worker is idle.
        top = self._peek_priority()
        if top is None:
            return
        victim: Optional[_WorkerSlot] = None
        victim_priority = top
        for slot in self._slots:
            if slot.busy is None or slot.preempting:
                continue
            unit = self.units.get(slot.busy)
            if unit is not None and unit.priority < victim_priority:
                victim = slot
                victim_priority = unit.priority
        if victim is not None:
            self._preempt_key(victim.busy)

    def _release(self, slot: _WorkerSlot, msg: Dict[str, Any]) -> None:
        """Drain half of a worker report: free the slot, queue the rest.

        Nothing here touches the disk, so the ``_pump()`` that follows
        restarts the worker before :meth:`_persist` pays the fsyncs. The
        unit stays ``running`` until settled, so a submit arriving in
        between joins it as a waiter.
        """
        if msg.get("ev") == "ready":
            return
        if slot.busy == msg.get("key", ""):
            slot.busy = None
            slot.preempting = False
        self._unsettled.append(msg)

    def _persist(self) -> None:
        """Settle every queued report, in arrival order."""
        if not self._unsettled:
            return
        t0 = time.perf_counter()
        reports, self._unsettled = self._unsettled, []
        for msg in reports:
            self._settle(msg)
        self.reports += len(reports)
        self.persist_s += time.perf_counter() - t0

    def _settle(self, msg: Dict[str, Any]) -> None:
        """Persist half of a worker report: cache, journal, then ticks.

        A cache write that fails with ``OSError`` (ENOSPC, EACCES, …)
        fails that one unit — resubmission is the retry path — and the
        farm keeps serving. A journal write failure stays fatal: the
        scheduler cannot keep its ack promise without the journal.
        """
        ev = msg.get("ev")
        key = msg.get("key", "")
        unit = self.units.get(key)
        live = unit is not None and unit.state == "running"
        err: Optional[str] = None
        if ev == "done":
            self._consecutive_crashes = 0
            try:
                # Result becomes durable *before* the journal says so.
                self.cache.put_entry(msg["entry"])
            except OSError as exc:
                err = f"cache write failed: {exc}"
            else:
                self.journal.append({"ev": "done", "key": key})
                if live:
                    self._unit_finished(unit, "executed")
        elif ev == "preempted":
            if live:
                if unit.waiters:
                    unit.state = "pending"
                    self._push(unit)
                else:
                    unit.state = "cancelled"
        elif ev == "error":
            err = str(msg.get("error", "?"))[-2000:]
        if err is not None:
            self.journal.append({"ev": "failed", "key": key, "error": err})
            if live:
                unit.error = err
                self._unit_finished(unit, "failed")

    def _on_worker_death(self, slot: _WorkerSlot) -> None:
        self.worker_crashes += 1
        self._consecutive_crashes += 1
        if self._selector is not None:
            try:
                self._selector.unregister(slot.conn)
            except (KeyError, ValueError):
                pass
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot in self._slots:
            self._slots.remove(slot)
        slot.proc.join(timeout=1.0)
        key = slot.busy
        if key:
            unit = self.units.get(key)
            if unit is not None and unit.state == "running":
                unit.attempts += 1
                if unit.attempts >= MAX_UNIT_ATTEMPTS:
                    err = (f"worker died {unit.attempts} times running this "
                           f"cell")
                    self.journal.append({"ev": "failed", "key": key,
                                         "error": err})
                    unit.error = err
                    self._unit_finished(unit, "failed")
                elif unit.waiters:
                    unit.state = "pending"
                    self._push(unit)
                else:
                    unit.state = "cancelled"
        if (not self._shutdown
                and self._consecutive_crashes < MAX_CONSECUTIVE_CRASHES):
            self._spawn_one()

    # -- client ops ----------------------------------------------------------

    def _handle_request(self, sock: socket.socket,
                        req: Dict[str, Any]) -> None:
        if "_malformed" in req:
            send_json(sock, error_response(
                f"not valid JSON: {req['_malformed'][:120]!r}"))
            return
        op = req.get("op")
        handler = {
            "ping": self._op_ping,
            "stats": self._op_stats,
            "submit": self._op_submit,
            "status": self._op_status,
            "results": self._op_results,
            "cancel": self._op_cancel,
            "watch": self._op_watch,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            send_json(sock, error_response(f"unknown op {op!r}"))
            return
        try:
            handler(sock, req)
        except FarmError as exc:
            send_json(sock, error_response(str(exc)))

    def _op_ping(self, sock, req) -> None:
        send_json(sock, {"ok": True, "schema": PROTOCOL_SCHEMA,
                         "pid": os.getpid(), "workers": len(self._slots),
                         "jobs": len(self.jobs)})

    def _op_stats(self, sock, req) -> None:
        by_state: Dict[str, int] = {}
        for unit in self.units.values():
            by_state[unit.state] = by_state.get(unit.state, 0) + 1
        send_json(sock, {
            "ok": True,
            "jobs": {jid: {"state": j.state, "cells": j.counts()}
                     for jid, j in self.jobs.items()},
            "units": by_state,
            "workers": len(self._slots),
            "busy": sum(1 for s in self._slots if s.busy is not None),
            "preemptions": self.preemptions,
            "worker_crashes": self.worker_crashes,
            "loop": {"reports": self.reports,
                     "dispatched_ahead": self.dispatched_ahead,
                     "persist_s": self.persist_s},
            "resumed_jobs": self.resumed_jobs,
            "resumed_truncated_lines": self.resumed_truncated,
            "cache": self.cache.stats(),
        })

    def _op_submit(self, sock, req) -> None:
        raw_cells = req.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise FarmError("submit needs a non-empty 'cells' list")
        priority = int(req.get("priority", 0))
        client = str(req.get("client", "?"))
        from repro.experiments.cache import config_dict_key
        from repro.telemetry.manifest import config_to_dict

        cells: List[Dict[str, Any]] = []
        seen_labels = set()
        for i, cell in enumerate(raw_cells):
            if not isinstance(cell, dict) or "config" not in cell:
                raise FarmError(
                    f"cells[{i}] must be "
                    "{'label': ..., 'kind': ..., 'config': ...}")
            kind = cell.get("kind", "cell")
            config = config_from_dict(kind, cell["config"])
            label = str(cell.get("label") or config.label())
            if label in seen_labels:
                raise FarmError(f"duplicate cell label {label!r}")
            seen_labels.add(label)
            # Re-render from the validated object, once, so the journal
            # holds exactly what the key was computed over.
            config_dict = config_to_dict(config)
            cells.append({
                "label": label,
                "kind": kind,
                "config": config_dict,
                "key": config_dict_key(config_dict),
            })

        self._job_seq += 1
        job_id = f"job-{self._job_seq:06d}"
        # Durability order: journal first (the ack promise), memory last.
        self.journal.append({"ev": "job", "id": job_id, "client": client,
                             "priority": priority, "cells": cells})
        job = self._add_job(job_id, client, priority, cells)
        self._pump()
        counts = job.counts()
        # In-submission and cross-client dedup, made visible: pending
        # labels whose unit already carries another waiter.
        deduped = sum(
            1 for label in job.labels
            if label not in job.done
            and (self.units.get(job.key_of[label]) is not None
                 and (job.id, label) != self.units[job.key_of[label]].waiters[0])
        )
        send_json(sock, {"ok": True, "id": job_id, "state": job.state,
                         "priority": priority, "cells": counts,
                         "deduped_pending": deduped})

    def _require_job(self, req) -> Job:
        job_id = req.get("id")
        job = self.jobs.get(job_id or "")
        if job is None:
            raise FarmError(f"unknown job {job_id!r}")
        return job

    def _op_status(self, sock, req) -> None:
        if req.get("id"):
            job = self._require_job(req)
            labels = {label: job.done.get(label, "pending")
                      for label in job.labels}
            send_json(sock, {"ok": True, "id": job.id, "state": job.state,
                             "client": job.client, "priority": job.priority,
                             "cells": job.counts(), "labels": labels})
        else:
            send_json(sock, {"ok": True, "jobs": [
                {"id": j.id, "state": j.state, "client": j.client,
                 "priority": j.priority, "cells": j.counts()}
                for j in self.jobs.values()
            ]})

    def _op_results(self, sock, req) -> None:
        job = self._require_job(req)
        results: Dict[str, Any] = {}
        missing: List[str] = []
        for label in job.labels:
            entry = self.cache.get_entry(job.key_of[label])
            if entry is None:
                missing.append(label)
            else:
                results[label] = entry
        send_json(sock, {"ok": True, "id": job.id, "state": job.state,
                         "kinds": dict(job.kind_of), "results": results,
                         "missing": missing})

    def _op_cancel(self, sock, req) -> None:
        job = self._require_job(req)
        if not job.cancelled and job.state == "running":
            self._cancel_job(job)
        send_json(sock, {"ok": True, "id": job.id, "state": job.state})

    def _op_watch(self, sock, req) -> None:
        job = self._require_job(req)
        send_json(sock, {"ev": "watch", "ok": True, "id": job.id,
                         "state": job.state, "cells": job.counts()})
        if job.state != "running":
            send_json(sock, {"ev": "job_done", "id": job.id,
                             "state": job.state, "cells": job.counts()})
            self._close_client(sock)
            return

        def stream(done: int, total: int, label: str) -> None:
            # send_json raises FarmError on a dead peer; the fanout
            # drops the subscriber. A *stalled* peer is treated the
            # same: the tight timeout turns a full socket buffer into
            # FarmError (socket.timeout is an OSError) and the client
            # is closed here, so one slow watcher costs the loop at
            # most WATCH_SEND_TIMEOUT_S once, not 5s per event.
            sock.settimeout(WATCH_SEND_TIMEOUT_S)
            try:
                send_json(sock, {"ev": "progress", "id": job.id,
                                 "done": done, "total": total,
                                 "label": label})
            except FarmError:
                self._close_client(sock)
                raise
            finally:
                try:
                    sock.settimeout(CLIENT_SEND_TIMEOUT_S)
                except OSError:  # pragma: no cover - just closed above
                    pass

        token = job.fanout.subscribe(stream)
        state = self._clients.get(sock)
        if state is not None:
            state.watching = (job.id, token)
        job.watchers.append(sock)

    def _op_shutdown(self, sock, req) -> None:
        send_json(sock, {"ok": True, "draining": sum(
            1 for s in self._slots if s.busy is not None)})
        self._shutdown = True

    # -- the loop ------------------------------------------------------------

    def _open_socket(self) -> None:
        path = self.socket_path
        if os.path.exists(path):
            # A connect alone is not proof of life: a process that
            # inherited the old listener fd (or a half-dead scheduler)
            # can leave the socket accepting connections nobody answers.
            # Only an actual ping reply counts as "already serving".
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(1.0)
            alive = False
            try:
                probe.connect(path)
                probe.sendall(b'{"op": "ping"}\n')
                alive = bool(probe.recv(1))
            except OSError:
                alive = False
            finally:
                probe.close()
            if alive:
                raise FarmError(f"a farm is already serving on {path}")
            try:
                os.unlink(path)  # stale socket from a dead scheduler
            except OSError:
                pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(16)
        listener.setblocking(False)
        self._listener = listener

    def serve_forever(self, poll_s: float = 0.2) -> None:
        """Run the service until :meth:`stop` or a ``shutdown`` request.

        Opens the socket, spawns the workers, then multiplexes client
        connections and worker pipes through one ``selectors`` loop.
        On exit: drains in-flight cells, retires the workers, removes
        the socket, closes the journal.
        """
        self._open_socket()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("listen", None))
        for _ in range(self.n_workers):
            self._spawn_one()
        try:
            while not self._shutdown:
                self._loop_once(poll_s)
        finally:
            self._teardown()

    def stop(self) -> None:
        """Request the loop to exit (signal handlers, tests)."""
        self._shutdown = True

    def _loop_once(self, poll_s: float) -> None:
        # Drain: take every report off the pipes, freeing its slot.
        for sel_key, _mask in self._selector.select(timeout=poll_s):
            tag, obj = sel_key.data
            if tag == "listen":
                self._accept()
            elif tag == "client":
                self._read_client(sel_key.fileobj)
            elif tag == "worker":
                self._recv_report(obj)
        # Dispatch: freed workers get their next unit ahead of any
        # disk write. Persist: the fsyncs overlap their compute.
        self._pump()
        self._persist()
        # Reap workers that died without a readable EOF (rare but
        # possible under SIGKILL between selector wakeups).
        for slot in list(self._slots):
            if not slot.proc.is_alive():
                self._on_worker_death(slot)
        self._pump()

    def _recv_report(self, slot: _WorkerSlot) -> None:
        try:
            msg = slot.conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(slot)
        else:
            self._release(slot, msg)

    def _accept(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError:
            return
        # Writes must never wedge the loop for long (progress streams
        # tighten this further per-send; see _op_watch).
        conn.settimeout(CLIENT_SEND_TIMEOUT_S)
        self._clients[conn] = _ClientState()
        self._selector.register(conn, selectors.EVENT_READ, ("client", None))

    def _read_client(self, sock: socket.socket) -> None:
        try:
            data = sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._close_client(sock)
            return
        state = self._clients.get(sock)
        if state is None:
            return
        state.buf += data
        messages, state.buf = parse_lines(state.buf)
        for msg in messages:
            try:
                self._handle_request(sock, msg)
            except FarmError:
                self._close_client(sock)
                return
            except Exception as exc:  # never let one client kill the farm
                try:
                    send_json(sock, error_response(
                        f"internal error: {type(exc).__name__}: {exc}"))
                except FarmError:
                    self._close_client(sock)
                    return

    def _close_client(self, sock: socket.socket) -> None:
        state = self._clients.pop(sock, None)
        if state is not None and state.watching is not None:
            job_id, token = state.watching
            job = self.jobs.get(job_id)
            if job is not None:
                job.fanout.unsubscribe(token)
                if sock in job.watchers:
                    job.watchers.remove(sock)
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _teardown(self, drain_timeout_s: float = 60.0) -> None:
        # Graceful: let in-flight cells finish (bounded), journal their
        # results, then retire the workers.
        deadline = time.time() + drain_timeout_s
        while (any(s.busy is not None for s in self._slots)
               and time.time() < deadline):
            for sel_key, _mask in self._selector.select(timeout=0.2):
                tag, obj = sel_key.data
                if tag == "worker":
                    self._recv_report(obj)
            self._persist()
            for slot in list(self._slots):
                if not slot.proc.is_alive():
                    self._on_worker_death(slot)
        for slot in self._slots:
            try:
                slot.conn.send({"op": "exit"})
            except (OSError, ValueError):
                pass
        for slot in self._slots:
            slot.proc.join(timeout=2.0)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=2.0)
            try:
                slot.conn.close()
            except OSError:
                pass
        self._slots = []
        for sock in list(self._clients):
            self._close_client(sock)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self.journal.close()


def _job_number(job_id: str) -> int:
    """Numeric suffix of a ``job-NNNNNN`` id (0 for foreign formats)."""
    try:
        return int(job_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0
