"""Blocking client for the sweep farm (CLI verbs, tests, scripts).

Every call is one short-lived connection — connect, one JSON request,
one JSON response — except :meth:`FarmClient.watch`, which keeps its
connection open and yields streamed progress events until the job
reaches a terminal state. The farm holds no per-client state beyond
open watch subscriptions, so clients are free to crash, retry, and poll
from anywhere that can reach the Unix socket.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import FarmError
from repro.experiments.config import CellResult
from repro.experiments.cache import result_from_entry
from repro.farm.protocol import (
    config_from_dict,
    config_to_wire,
    make_request,
    one_shot,
    recv_json_lines,
    send_json,
)

__all__ = ["FarmClient"]


class FarmClient:
    """Talk to a running farm over its Unix socket.

    Parameters
    ----------
    socket_path:
        The farm's socket (``<farm-dir>/farm.sock`` by default).
    timeout:
        Per-call socket timeout in seconds (None = block forever).
    client:
        Identity string stamped on submissions (shows up in status and
        the artifact store).
    """

    def __init__(self, socket_path: str, timeout: Optional[float] = 30.0,
                 client: str = "cli"):
        self.socket_path = socket_path
        self.timeout = timeout
        self.client = client

    # -- plumbing ------------------------------------------------------------

    def _call(self, op: str, **fields: Any) -> Dict[str, Any]:
        resp = one_shot(self.socket_path, make_request(op, **fields),
                        timeout=self.timeout)
        if resp.get("ok") is False:
            raise FarmError(f"{op}: {resp.get('error', 'unknown error')}")
        return resp

    # -- ops -----------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Liveness + identity of the serving scheduler."""
        return self._call("ping")

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters: jobs, units, workers, cache, preemptions."""
        return self._call("stats")

    def submit(self, cells: Iterable[Tuple[str, Any]], priority: int = 0,
               client: Optional[str] = None) -> Dict[str, Any]:
        """Submit ``(label, config)`` pairs; returns the submit response.

        ``config`` objects are any of the five cell config dataclasses;
        they cross the wire via :func:`config_to_wire`, so the farm
        computes the same cache key a local sweep would.
        """
        wire = [{"label": label, **config_to_wire(config)}
                for label, config in cells]
        return self._call("submit", cells=wire, priority=priority,
                          client=client or self.client)

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        """One job's detailed status, or all jobs when ``job_id`` is None."""
        return self._call("status", id=job_id) if job_id \
            else self._call("status")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job; running cells are preempted, not killed."""
        return self._call("cancel", id=job_id)

    def results(self, job_id: str) -> Dict[str, Any]:
        """Raw results response: cache-entry docs keyed by label."""
        return self._call("results", id=job_id)

    def fetch(self, job_id: str) -> Dict[str, CellResult]:
        """Rebuilt :class:`CellResult` objects for a finished job.

        Round-trips each entry through the same codec the on-disk cache
        uses, so a farm-fetched result compares equal (``metrics ==``)
        to a locally-run one.
        """
        resp = self.results(job_id)
        if resp.get("missing"):
            raise FarmError(
                f"job {job_id} has {len(resp['missing'])} unfinished "
                f"cell(s): {', '.join(resp['missing'][:5])}")
        kinds = resp.get("kinds", {})
        out: Dict[str, CellResult] = {}
        for label, entry in resp["results"].items():
            config = config_from_dict(kinds.get(label, "cell"),
                                      entry["config"])
            out[label] = result_from_entry(entry, config)
        return out

    def shutdown(self) -> Dict[str, Any]:
        """Ask the farm to drain in-flight cells and exit."""
        return self._call("shutdown")

    # -- streaming -----------------------------------------------------------

    def watch(self, job_id: str,
              timeout: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """Yield the job's event stream until it reaches a terminal state.

        Events: one ``{"ev": "watch", ...}`` snapshot, then
        ``{"ev": "progress", "done": ..., "total": ..., "label": ...}``
        per completed cell, then a final ``{"ev": "job_done", ...}``.
        ``timeout`` bounds the silence between events, not the total
        watch (None = wait as long as the job takes).
        """
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                raise FarmError(
                    f"cannot reach farm at {self.socket_path}: {exc}") from exc
            send_json(sock, make_request("watch", id=job_id))
            for event in recv_json_lines(sock):
                if event.get("ok") is False:
                    raise FarmError(
                        f"watch: {event.get('error', 'unknown error')}")
                yield event
                if event.get("ev") == "job_done":
                    return
        finally:
            sock.close()

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job finishes; returns the ``job_done`` event."""
        last: Optional[Dict[str, Any]] = None
        for event in self.watch(job_id, timeout=timeout):
            last = event
        if last is None or last.get("ev") != "job_done":
            raise FarmError(f"watch stream for {job_id} ended early "
                            f"(last event: {last})")
        return last
