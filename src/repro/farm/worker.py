"""Farm worker process: pull cells, run them, stream results back.

A worker is a child process of the scheduler connected by one
``multiprocessing.Pipe``. The loop is strictly request/response-free —
the scheduler pushes ``{"op": "run", ...}`` messages and the worker
answers with exactly one terminal message per cell::

    {"ev": "ready"}                       # once, at startup
    {"ev": "done", "key": ..., "entry": <cache-entry doc>, "wall_s": ...}
    {"ev": "preempted", "key": ...}       # cell yielded at a checkpoint
    {"ev": "error", "key": ..., "error": "..."}

Results travel as the same JSON-safe cache-entry document the on-disk
cache stores (:func:`~repro.experiments.cache.result_to_entry`), so the
scheduler persists them verbatim and a farm-served result is
byte-identical to a locally-cached one.

Preemption
----------
The scheduler sends ``SIGUSR1``; the handler only sets a flag. The flag
is *observed* at event-loop checkpoints: the worker installs a
:attr:`~repro.sim.engine.Simulator.on_create` birth hook that arms a
self-re-arming simulated-time event on every kernel the cell builds.
Each checkpoint rewinds the ``events_processed`` counter by one (the
checkpoint is harness bookkeeping, not workload — manifests must match
un-checkpointed runs exactly), raises
:class:`~repro.errors.PreemptedError` if the flag is up, and re-arms
only while the heap is non-empty so heap-drain termination still works.
Checkpoints only read kernel state, so a preempted-and-rerun cell is
bit-identical to an undisturbed one.

``SIGTERM`` requests a graceful exit: finish (or preempt) the current
cell, then leave the loop.
"""

from __future__ import annotations

import os
import signal
import traceback
from typing import Optional, Sequence

from repro.errors import FarmError, PreemptedError
from repro.experiments.cache import result_to_entry
from repro.experiments.runner import run_cell
from repro.farm.protocol import config_from_dict
from repro.sim.engine import Simulator

__all__ = ["CHECKPOINT_INTERVAL_S", "install_checkpoints", "worker_main"]

#: Simulated seconds between preemption checkpoints. Cells simulate tens
#: of seconds, so this bounds preemption latency to a small fraction of a
#: cell while adding only a handful of (accounting-neutral) events.
CHECKPOINT_INTERVAL_S = 0.25

#: Set by the SIGUSR1 handler, consumed at the next checkpoint.
_preempt_requested = False
#: Set by the SIGTERM handler, consumed between cells.
_exit_requested = False


def _on_sigusr1(_signum, _frame) -> None:
    global _preempt_requested
    _preempt_requested = True


def _on_sigterm(_signum, _frame) -> None:
    global _exit_requested
    _exit_requested = True


def install_checkpoints(interval_s: float = CHECKPOINT_INTERVAL_S):
    """Install the preemption birth hook; returns the previous hook.

    Every :class:`Simulator` constructed while the hook is installed gets
    a periodic checkpoint event. The checkpoint:

    * subtracts itself from ``events_processed`` (manifests record that
      counter; a checkpointed run must report the same number as a plain
      one);
    * raises :class:`PreemptedError` when SIGUSR1 arrived;
    * re-arms only while other events remain, so it never keeps an
      otherwise-finished kernel alive.
    """
    previous = Simulator.on_create

    def arm(sim: Simulator) -> None:
        def tick() -> None:
            sim._events_processed -= 1  # harness event: invisible to manifests
            if _preempt_requested:
                raise PreemptedError(
                    f"preempted at t={sim.now:.3f}s (checkpoint)")
            if sim._heap:  # drained heap = cell finishing; let it
                sim.schedule(interval_s, tick)

        sim.schedule(interval_s, tick)
        if previous is not None:
            previous(sim)

    Simulator.on_create = arm
    return previous


def _run_request(conn, request) -> None:
    """Execute one ``run`` request and send the terminal message.

    The preemption flag is cleared when the terminal message goes out —
    never at the start of a run. The scheduler may SIGUSR1 as soon as it
    dispatches; a start-of-run reset would silently erase a request that
    landed between dispatch and the reset, leaving the high-priority
    unit to wait out the whole cell. Clearing at the terminal send means
    a request for the finished cell cannot leak into the next one, while
    a request for the *new* cell (delivered any time after dispatch)
    survives until its first checkpoint.
    """
    global _preempt_requested
    key = request.get("key", "?")
    try:
        config = config_from_dict(request["kind"], request["config"])
        result = run_cell(config)
        entry = result_to_entry(result)
        _preempt_requested = False
        conn.send({"ev": "done", "key": key, "entry": entry,
                   "wall_s": result.manifest["timings"]["wall_s"]
                   if result.manifest else None})
    except PreemptedError:
        _preempt_requested = False
        conn.send({"ev": "preempted", "key": key})
    except Exception:
        _preempt_requested = False
        conn.send({"ev": "error", "key": key,
                   "error": traceback.format_exc(limit=8)})


def worker_main(conn, interval_s: float = CHECKPOINT_INTERVAL_S,
                close_fds: Sequence[int] = ()) -> None:
    """Entry point for a worker process (``multiprocessing.Process`` target).

    Parameters
    ----------
    conn:
        Worker end of a ``multiprocessing.Pipe`` to the scheduler.
    interval_s:
        Simulated-time spacing of preemption checkpoints.
    close_fds:
        Parent file descriptors to close immediately (fork inherits
        them). The scheduler passes every fd only it should own — the
        listener, connected client sockets, the journal, sibling worker
        pipes. An orphaned worker keeping any of those alive would make
        a SIGKILLed farm's socket accept connections nobody answers, or
        rob a client of the EOF that tells it the farm died.
    """
    global _exit_requested, _preempt_requested
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    _exit_requested = False
    _preempt_requested = False  # fork copies the parent's module state
    signal.signal(signal.SIGUSR1, _on_sigusr1)
    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the scheduler owns ^C
    install_checkpoints(interval_s)
    conn.send({"ev": "ready"})
    try:
        while not _exit_requested:
            # Wake periodically so a SIGTERM between cells is noticed.
            if not conn.poll(0.2):
                continue
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break  # scheduler went away; nothing to serve
            op = request.get("op") if isinstance(request, dict) else None
            if op == "run":
                _run_request(conn, request)
            elif op == "exit":
                break
            else:
                conn.send({"ev": "error", "key": "?",
                           "error": f"unknown worker op {op!r}"})
    except KeyboardInterrupt:  # pragma: no cover - belt and braces
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def spawn_worker(interval_s: float = CHECKPOINT_INTERVAL_S, ctx=None,
                 close_fds: Sequence[int] = ()):
    """Start one worker; returns ``(process, scheduler_conn)``.

    Uses the given multiprocessing context (default: ``fork`` where
    available for cheap startup, else the platform default).
    """
    import multiprocessing as mp

    if ctx is None:
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = mp.get_context()
    parent_conn, child_conn = ctx.Pipe()
    close_fds = tuple(close_fds)
    if ctx.get_start_method() == "fork":
        # The fork also inherits the scheduler's end of *this* pipe: left
        # open, a SIGKILLed scheduler never reads as EOF in the worker,
        # which then idles for ever.
        close_fds += (parent_conn.fileno(),)
    proc = ctx.Process(target=worker_main,
                       args=(child_conn, interval_s, close_fds),
                       daemon=True)
    proc.start()
    child_conn.close()
    return proc, parent_conn
