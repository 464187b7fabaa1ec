"""Tests for the sweep farm: protocol, journal, workers, service.

The crash-safety tests are honest: a worker is SIGKILLed mid-cell, a
scheduler subprocess is ``kill -9``'d mid-sweep, and a journal gets a
torn final line — in every case the restarted farm must resume with
bit-identical results and only the in-flight cells re-executed.

AF_UNIX socket paths are length-limited (~100 bytes), so the service
fixtures put sockets in their own short ``tempfile.mkdtemp`` dirs
rather than under pytest's deeply nested ``tmp_path``.
"""

import errno
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.errors import FarmError
from repro.experiments.cache import (
    CACHE_SCHEMA,
    ResultCache,
    config_cache_key,
    result_to_entry,
)
from repro.experiments.config import ExperimentConfig, QueueSetup
from repro.experiments.runner import run_cell
from repro.farm.client import FarmClient
from repro.farm.journal import JOURNAL_SCHEMA, Journal
from repro.farm.protocol import (
    config_from_dict,
    config_from_wire,
    config_to_wire,
    parse_lines,
    recv_json_lines,
    send_json,
)
from repro.farm.scheduler import FarmScheduler, _ClientState, _WorkerSlot
from repro.farm.worker import install_checkpoints, spawn_worker
from repro.sim.engine import Simulator
from repro.tcp.endpoint import TcpVariant
from repro.telemetry.profiler import ProgressFanout, ProgressReporter
from repro.units import mb, us


def tiny(queue: QueueSetup, **kw) -> ExperimentConfig:
    """A very fast cell: 4 hosts, 2 MB Terasort in 1 MB blocks."""
    return replace(
        ExperimentConfig(queue=queue, variant=TcpVariant.ECN),
        n_hosts=4, data_bytes=mb(2), block_bytes=mb(1), n_reducers=4, **kw
    )


def slow(**kw) -> ExperimentConfig:
    """A ~0.4s-wall cell, long enough to be killed/preempted mid-run."""
    return replace(tiny(QueueSetup(kind="droptail")),
                   data_bytes=mb(16), **kw)


@contextmanager
def short_dir():
    d = tempfile.mkdtemp(prefix="farm-t-")
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


@contextmanager
def farm(workers=1, checkpoint_s=0.005, farm_dir=None):
    """An in-process scheduler on a real socket with real workers."""
    with short_dir() as d:
        sched = FarmScheduler(farm_dir or d, workers=workers,
                              socket_path=os.path.join(d, "s.sock"),
                              checkpoint_s=checkpoint_s)
        thread = threading.Thread(target=sched.serve_forever, daemon=True)
        thread.start()
        client = FarmClient(sched.socket_path, client="test")
        _wait_ping(client)
        try:
            yield sched, client
        finally:
            sched.stop()
            thread.join(timeout=60)
            assert not thread.is_alive()


def _wait_ping(client, timeout_s=10.0):
    deadline = time.time() + timeout_s
    while True:
        try:
            return client.ping()
        except FarmError:
            if time.time() >= deadline:
                raise
            time.sleep(0.05)


def _subprocess_env():
    """os.environ with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def _wait(predicate, timeout_s=60.0, interval_s=0.02):
    deadline = time.time() + timeout_s
    while not predicate():
        if time.time() >= deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(interval_s)


class TestProtocol:
    def test_wire_round_trip_preserves_cache_key(self):
        cfg = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        wire = json.loads(json.dumps(config_to_wire(cfg)))
        back = config_from_wire(wire)
        assert back == cfg
        assert config_cache_key(back) == config_cache_key(cfg)

    def test_all_config_kinds_round_trip(self):
        from repro.experiments.kinds import kind_named, kind_names
        from tests.test_cell_kinds import TINY

        assert set(TINY) == set(kind_names())
        for name in kind_names():
            cfg = TINY[name]
            assert type(cfg) is kind_named(name).config_cls
            wire = json.loads(json.dumps(config_to_wire(cfg)))
            assert wire["kind"] == name
            assert config_from_wire(wire) == cfg

    def test_unknown_kind_and_fields_rejected(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        wire = config_to_wire(cfg)
        with pytest.raises(FarmError):
            config_from_dict("nope", wire["config"])
        with pytest.raises(FarmError):
            config_from_dict("cell", {**wire["config"], "bogus_field": 1})

    def test_invalid_config_rejected_with_farm_error(self):
        wire = config_to_wire(tiny(QueueSetup(kind="droptail")))
        bad = {**wire["config"], "n_hosts": -1}
        with pytest.raises(FarmError):
            config_from_dict("cell", bad)

    def test_parse_lines_keeps_partial_and_flags_garbage(self):
        buf = bytearray(b'{"a":1}\nnot json\n{"b":')
        messages, rest = parse_lines(buf)
        assert messages[0] == {"a": 1}
        assert "_malformed" in messages[1]
        assert bytes(rest) == b'{"b":'


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"))
        j.append({"ev": "job", "id": "job-1"})
        j.append({"ev": "done", "key": "k"})
        j.close()
        records, torn = Journal(j.path).replay()
        assert torn == 0
        assert [r["ev"] for r in records] == ["header", "job", "done"]
        assert records[0]["schema"] == JOURNAL_SCHEMA
        assert all("t" in r for r in records)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"))
        j.append({"ev": "job", "id": "job-1"})
        j.close()
        with open(j.path, "a") as fh:
            fh.write('{"ev": "done", "key": "trunc')  # kill -9 mid-append
        records, torn = Journal(j.path).replay()
        assert torn == 1
        assert [r["ev"] for r in records] == ["header", "job"]

    def test_append_after_torn_tail_stays_resumable(self, tmp_path):
        """Regression: a resumed journal must trim the torn fragment.

        Appending straight after the partial bytes would fuse the next
        record onto the fragment — one malformed line that is no longer
        final, so the *second* restart's replay would refuse to resume.
        """
        j = Journal(str(tmp_path / "j.jsonl"))
        j.append({"ev": "job", "id": "job-1"})
        j.close()
        with open(j.path, "a") as fh:
            fh.write('{"ev": "done", "key": "trunc')  # kill -9 mid-append
        resumed = Journal(j.path)
        _records, torn = resumed.replay()
        assert torn == 1
        resumed.append({"ev": "done", "key": "k2"})  # post-resume append
        resumed.close()
        records, torn = Journal(j.path).replay()  # second restart
        assert torn == 0
        assert [r["ev"] for r in records] == ["header", "job", "done"]
        assert records[-1]["key"] == "k2"

    def test_torn_header_only_file_rebuilds_header(self, tmp_path):
        """A crash during the very first (header) append leaves a file
        with no complete line; reopening must start it over cleanly."""
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "head')
        j = Journal(path)
        j.append({"ev": "job", "id": "job-1"})
        j.close()
        records, torn = Journal(path).replay()
        assert torn == 0
        assert [r["ev"] for r in records] == ["header", "job"]

    def test_mid_file_corruption_refuses_to_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "header"}\ngarbage\n{"ev": "done"}\n')
        with pytest.raises(FarmError):
            Journal(path).replay()

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal(str(tmp_path / "absent.jsonl")).replay() == ([], 0)


class TestWorkerPreemption:
    def test_checkpoints_are_bit_invisible(self):
        cfg = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        plain = run_cell(cfg)
        prev = install_checkpoints(0.005)
        try:
            hooked = run_cell(cfg)
        finally:
            Simulator.on_create = prev
        assert hooked.metrics == plain.metrics
        assert (hooked.manifest["timings"]["events"]
                == plain.manifest["timings"]["events"])

    def test_sigusr1_preempts_at_a_checkpoint(self):
        proc, conn = spawn_worker(interval_s=0.001)
        try:
            assert conn.recv() == {"ev": "ready"}
            wire = config_to_wire(slow())
            conn.send({"op": "run", "key": "k1", "kind": wire["kind"],
                       "config": wire["config"]})
            time.sleep(0.1)  # let it get well into the event loop
            os.kill(proc.pid, signal.SIGUSR1)
            assert conn.poll(30)
            msg = conn.recv()
            assert msg == {"ev": "preempted", "key": "k1"}
            # The worker survives preemption and still runs cells.
            tiny_wire = config_to_wire(tiny(QueueSetup(kind="droptail")))
            conn.send({"op": "run", "key": "k2", **tiny_wire})
            assert conn.poll(60)
            done = conn.recv()
            assert done["ev"] == "done" and done["key"] == "k2"
        finally:
            proc.terminate()
            proc.join(timeout=5)

    def test_preempt_request_before_run_starts_is_not_lost(self):
        """Regression: the scheduler may SIGUSR1 the instant it marks a
        slot busy — before the worker enters the cell. That request must
        survive until the first checkpoint, not be reset on run entry.
        """
        import repro.farm.worker as worker_mod

        sent = []

        class Conn:
            def send(self, msg):
                sent.append(msg)

        prev = install_checkpoints(0.005)
        try:
            worker_mod._preempt_requested = True  # signal beat the run
            wire = config_to_wire(tiny(QueueSetup(kind="droptail")))
            worker_mod._run_request(Conn(), {"key": "k", **wire})
            flag_after = worker_mod._preempt_requested
        finally:
            Simulator.on_create = prev
            worker_mod._preempt_requested = False
        assert sent == [{"ev": "preempted", "key": "k"}]
        assert flag_after is False  # cleared with the terminal message

    def test_preempted_rerun_is_bit_identical(self):
        cfg = slow()
        local = run_cell(cfg)
        proc, conn = spawn_worker(interval_s=0.001)
        try:
            assert conn.recv() == {"ev": "ready"}
            wire = config_to_wire(cfg)
            conn.send({"op": "run", "key": "k", **wire})
            time.sleep(0.1)
            os.kill(proc.pid, signal.SIGUSR1)
            assert conn.poll(30)
            assert conn.recv()["ev"] == "preempted"
            conn.send({"op": "run", "key": "k", **wire})
            assert conn.poll(120)
            msg = conn.recv()
            assert msg["ev"] == "done"
            assert msg["entry"]["metrics"]["runtime"] == local.metrics.runtime
        finally:
            proc.terminate()
            proc.join(timeout=5)


class TestFarmService:
    def test_submit_status_results_round_trip(self):
        cfg_a = tiny(QueueSetup(kind="droptail"))
        cfg_b = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        local = {"a": run_cell(cfg_a), "b": run_cell(cfg_b)}
        with farm(workers=2) as (_sched, client):
            sub = client.submit([("a", cfg_a), ("b", cfg_b)])
            assert sub["id"] == "job-000001"
            final = client.wait(sub["id"], timeout=120)
            assert final["state"] == "done"
            status = client.status(sub["id"])
            assert status["labels"] == {"a": "executed", "b": "executed"}
            got = client.fetch(sub["id"])
            for label in ("a", "b"):
                assert got[label].metrics == local[label].metrics
                assert got[label].snapshots == local[label].snapshots

    def test_cross_client_dedup_shares_one_execution(self):
        # Slow enough (~0.4s) that it is still running when the second
        # client's identical submission arrives — dedup, not cache hit.
        shared = slow(seed=11)
        with farm(workers=1) as (sched, client):
            other = FarmClient(sched.socket_path, client="other")
            sub1 = client.submit([("mine", shared)])
            sub2 = other.submit([("theirs", shared)])
            client.wait(sub1["id"], timeout=120)
            other.wait(sub2["id"], timeout=120)
            outcomes = sorted([
                client.status(sub1["id"])["labels"]["mine"],
                other.status(sub2["id"])["labels"]["theirs"],
            ])
            assert outcomes == ["dedup", "executed"]
            assert client.stats()["cache"]["entries"] == 1
            # Both clients still fetch the full result.
            assert (client.fetch(sub1["id"])["mine"].metrics
                    == other.fetch(sub2["id"])["theirs"].metrics)

    def test_resubmission_is_cache_served(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        with farm(workers=1) as (sched, client):
            first = client.submit([("x", cfg)])
            client.wait(first["id"], timeout=120)
            hits = sched.cache.hits
            again = client.submit([("x", cfg)])
            assert again["state"] == "done"
            assert again["cells"]["cached"] == 1
            # The scheduler reads through ResultCache, so a warm farm
            # shows up in the cache's own counters and in `farm --stats`.
            assert sched.cache.hits == hits + 1
            assert client.stats()["cache"]["hits"] >= hits + 1

    def test_watch_streams_live_progress(self):
        cfg_a = tiny(QueueSetup(kind="droptail"))
        cfg_b = tiny(QueueSetup(kind="marking", target_delay_s=us(100)))
        with farm(workers=1) as (_sched, client):
            sub = client.submit([("a", cfg_a), ("b", cfg_b)])
            events = list(client.watch(sub["id"], timeout=120))
            kinds = [e["ev"] for e in events]
            assert kinds[0] == "watch" and kinds[-1] == "job_done"
            progress = [e for e in events if e["ev"] == "progress"]
            # Every cell completion streamed, counters strictly rising.
            assert [p["done"] for p in progress] == [1, 2]
            assert all(p["total"] == 2 for p in progress)
            assert {p["label"] for p in progress} == {"a", "b"}

    def test_priority_preempts_running_low_priority_cell(self):
        lows = [("low/%d" % i, slow(seed=100 + i)) for i in range(2)]
        high = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        with farm(workers=1) as (sched, client):
            sub_low = client.submit(lows, priority=0)
            _wait(lambda: client.stats()["busy"] == 1, timeout_s=30)
            sub_high = client.submit([("high", high)], priority=10)
            done_high = client.wait(sub_high["id"], timeout=120)
            assert done_high["state"] == "done"
            # The high-priority job finished while the low one still ran…
            low_status = client.status(sub_low["id"])
            assert low_status["cells"]["done"] < 2
            client.wait(sub_low["id"], timeout=240)
            # …because the in-flight low cell was preempted, not raced.
            assert client.stats()["preemptions"] >= 1
            # Preempted-and-rerun results stay bit-identical.
            got = client.fetch(sub_low["id"])
            for label, cfg in lows:
                assert got[label].metrics == run_cell(cfg).metrics

    def test_cancel_frees_the_queue(self):
        cells = [("c/%d" % i, slow(seed=200 + i)) for i in range(3)]
        with farm(workers=1) as (_sched, client):
            sub = client.submit(cells)
            _wait(lambda: client.stats()["busy"] == 1, timeout_s=30)
            resp = client.cancel(sub["id"])
            assert resp["state"] == "cancelled"
            # The farm goes fully idle: pending cells dropped, the
            # running one preempted and discarded.
            _wait(lambda: client.stats()["busy"] == 0, timeout_s=60)
            assert client.status(sub["id"])["state"] == "cancelled"

    def test_bad_requests_get_errors_not_crashes(self):
        with farm(workers=1) as (_sched, client):
            with pytest.raises(FarmError):
                client.status("job-nope")
            with pytest.raises(FarmError):
                client._call("submit", cells=[])
            with pytest.raises(FarmError):
                client._call("frobnicate")
            assert client.ping()["ok"] is True  # still alive

    def test_cache_write_failure_fails_one_cell_not_the_farm(self):
        """ENOSPC on one ``put_entry`` must cost that cell, nothing else."""
        bad = tiny(QueueSetup(kind="droptail"), seed=31)
        good = [("ok/%d" % i, tiny(QueueSetup(kind="droptail"), seed=32 + i))
                for i in range(2)]
        theirs = tiny(QueueSetup(kind="marking", target_delay_s=us(100)))
        bad_key = config_cache_key(bad)
        with farm(workers=1) as (sched, client):
            real_put = sched.cache.put_entry

            def put_entry(entry):
                if entry["key"] == bad_key:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real_put(entry)

            sched.cache.put_entry = put_entry
            other = FarmClient(sched.socket_path, client="other")
            sub = client.submit([("bad", bad)] + good)
            sub2 = other.submit([("theirs", theirs)])
            assert client.wait(sub["id"], timeout=120)["state"] == "failed"
            assert other.wait(sub2["id"], timeout=120)["state"] == "done"
            assert client.status(sub["id"])["labels"] == {
                "bad": "failed", "ok/0": "executed", "ok/1": "executed"}
            assert (other.status(sub2["id"])["labels"]
                    == {"theirs": "executed"})
            assert os.strerror(errno.ENOSPC) in sched.units[bad_key].error
            assert client.ping()["ok"] is True  # still serving
            records, _torn = Journal(sched.journal.path).replay()
            failed = [r for r in records if r["ev"] == "failed"]
            assert [r["key"] for r in failed] == [bad_key]
            assert os.strerror(errno.ENOSPC) in failed[0]["error"]
            assert bad_key not in {r.get("key") for r in records
                                   if r["ev"] == "done"}


class TestGridThroughFarm:
    """`repro grid NAME --farm SOCKET` is the local run, served remotely."""

    def test_farm_grid_prints_the_local_table_and_results(
            self, tmp_path, capsys):
        import json

        from repro.cli import main

        argv = ["grid", "mix", "--limit", "2", "--scale", "0.0625",
                "--quiet"]

        def run(extra, name):
            manifest = tmp_path / name
            assert main(argv + extra + ["--manifest", str(manifest)]) == 0
            out = capsys.readouterr().out
            return out, json.loads(manifest.read_text())

        local_out, local = run([], "local.json")
        with farm(workers=2) as (sched, _client):
            farm_out, remote = run(["--farm", sched.socket_path], "farm.json")
            again_out, _ = run(["--farm", sched.socket_path,
                                "--priority", "3"], "again.json")

        def table(out):
            return out.split("cells    :")[0]

        assert table(farm_out) == table(local_out) == table(again_out)
        assert "rpc_miss" in table(local_out)
        assert "2 total — 2 executed, 0 cached" in local_out
        assert "2 total — 2 executed, 0 cached" in farm_out
        assert "2 total — 0 executed, 2 cached" in again_out
        assert list(remote["cells"]) == list(local["cells"])
        for label, cell in local["cells"].items():
            assert remote["cells"][label]["metrics"] == cell["metrics"]
        assert remote["kind_detail"] == "mix" and remote["jobs"] == 0


class _FakeProc:
    """A worker process that never dies and cannot be signalled."""

    pid = None  # os.kill(None, …) raises TypeError, which _preempt_key eats

    def is_alive(self):
        return True


class _FakeConn:
    """A worker pipe whose traffic lands in the rig's shared call list."""

    def __init__(self, calls):
        self.calls = calls
        self.inbox = []

    def send(self, msg):
        self.calls.append(("send", msg["op"], msg.get("key")))

    def recv(self):
        msg = self.inbox.pop(0)
        self.calls.append(("recv", msg["ev"], msg["key"]))
        return msg


class _PhaseRig:
    """An in-process scheduler on a stub selector and fake workers.

    Each :meth:`wake` is one scripted selector wake-up through the real
    ``_loop_once``; worker sends/recvs, ``cache.put_entry``,
    ``journal.append``, heap pushes and job ticks all record into
    ``calls`` in the order they happen. Requests go through a socketpair
    and the real ``_read_client``/``_op_*`` path.
    """

    def __init__(self, farm_dir, n_slots):
        self.calls = []
        self._ready = []
        self.sched = sched = FarmScheduler(
            farm_dir, workers=n_slots,
            socket_path=os.path.join(farm_dir, "s.sock"))
        sched._selector = self
        sched._slots = [_WorkerSlot(_FakeProc(), _FakeConn(self.calls))
                        for _ in range(n_slots)]
        self._record(sched.cache, "put_entry",
                     lambda entry: ("put_entry", entry["key"]))
        self._record(sched.journal, "append",
                     lambda rec: ("journal", rec["ev"],
                                  rec.get("key", rec.get("id"))))
        self._record(sched, "_push", lambda unit: ("push", unit.key))
        self._record(sched, "_tick",
                     lambda job, label, suffix="": ("tick", job.id,
                                                    label + suffix))

    def _record(self, owner, name, describe):
        real = getattr(owner, name)

        def wrapper(*args):
            self.calls.append(describe(*args))
            return real(*args)

        setattr(owner, name, wrapper)

    # The selectors.BaseSelector surface _loop_once/_close_client use.
    def select(self, timeout=None):
        ready, self._ready = self._ready, []
        return ready

    def unregister(self, fileobj):
        pass

    def wake(self, *events):
        """One ``_loop_once`` over ``events``, in order: ``(slot_index,
        report)`` or a request dict. Returns the replies to the requests.
        """
        peers = []
        for event in events:
            if isinstance(event, dict):
                ours, theirs = socket.socketpair()
                theirs.settimeout(5.0)
                self.sched._clients[theirs] = _ClientState()
                send_json(ours, event)
                peers.append((ours, theirs))
                data, fileobj = ("client", None), theirs
            else:
                index, report = event
                slot = self.sched._slots[index]
                slot.conn.inbox.append(report)
                data, fileobj = ("worker", slot), slot.conn
            self._ready.append(
                (SimpleNamespace(data=data, fileobj=fileobj), 1))
        try:
            self.sched._loop_once(0)
            return [next(recv_json_lines(ours)) for ours, _ in peers]
        finally:
            for pair in peers:
                for sock in pair:
                    sock.close()

    def submit(self, cells, priority=0, before=()):
        """Submit through the wire path (after the ``before`` events)."""
        wire = [{"label": label, **config_to_wire(cfg)}
                for label, cfg in cells]
        reply = self.wake(*before, {"op": "submit", "cells": wire,
                                    "priority": priority, "client": "rig"})[-1]
        assert reply["ok"] is True
        return reply

    def close(self):
        self.sched.journal.close()


def _done(key, entry=None):
    """A worker's ``done`` report (a bare entry unless one is given)."""
    return {"ev": "done", "key": key,
            "entry": entry or {"schema": CACHE_SCHEMA, "key": key}}


@contextmanager
def phase_rig(n_slots, farm_dir=None):
    with short_dir() as d:
        rig = _PhaseRig(farm_dir or d, n_slots)
        try:
            yield rig
        finally:
            rig.close()


class TestLoopPhases:
    """``_loop_once`` is drain → dispatch → persist (DESIGN §8)."""

    CELLS = [("c/%d" % i, tiny(QueueSetup(kind="droptail"), seed=500 + i))
             for i in range(4)]
    KEYS = [config_cache_key(cfg) for _label, cfg in CELLS]

    def test_next_run_is_sent_before_the_finished_cell_is_persisted(self):
        k1, k2 = self.KEYS[:2]
        with phase_rig(1) as rig:
            job = rig.submit(self.CELLS[:2])["id"]
            assert rig.calls[-1] == ("send", "run", k1)
            del rig.calls[:]
            rig.wake((0, _done(k1)))
            assert rig.calls == [
                ("recv", "done", k1),
                ("send", "run", k2),       # dispatch …
                ("put_entry", k1),         # … then persist, in DESIGN §8's
                ("journal", "done", k1),   # write order
                ("tick", job, "c/0"),
            ]

    def test_two_reports_in_one_wakeup_dispatch_both_then_settle_in_order(self):
        k1, k2, k3, k4 = self.KEYS
        with phase_rig(2) as rig:
            job = rig.submit(self.CELLS)["id"]
            del rig.calls[:]
            rig.wake((1, _done(k2)), (0, _done(k1)))
            assert rig.calls == [
                ("recv", "done", k2), ("recv", "done", k1),
                ("send", "run", k3), ("send", "run", k4),
                # Arrival order (k2 first), each report's sequence unbroken.
                ("put_entry", k2), ("journal", "done", k2),
                ("tick", job, "c/1"),
                ("put_entry", k1), ("journal", "done", k1),
                ("tick", job, "c/0"),
            ]

    def test_preempted_slot_goes_to_the_high_priority_unit_first(self):
        low, high = self.CELLS[0], self.CELLS[1]
        k_low, k_high = self.KEYS[:2]
        with phase_rig(1) as rig:
            sched = rig.sched
            rig.submit([low], priority=0)
            rig.submit([high], priority=10)
            assert sched._slots[0].preempting and sched.preemptions == 1
            del rig.calls[:]
            rig.wake((0, {"ev": "preempted", "key": k_low}))
            assert rig.calls == [
                ("recv", "preempted", k_low),
                ("send", "run", k_high),   # dispatch phase
                ("push", k_low),           # persist phase: re-queued
            ]
            assert sched.units[k_low].state == "pending"
            assert sched._slots[0].busy == k_high
            assert not sched._slots[0].preempting
            rig.wake((0, _done(k_high)))
            assert ("send", "run", k_low) in rig.calls

    def test_loop_stats_count_reports_and_dispatches_ahead(self):
        with phase_rig(1) as rig:
            rig.submit(self.CELLS)
            for key in self.KEYS:
                rig.wake((0, _done(key)))
            stats, = rig.wake({"op": "stats"})
            assert stats["loop"]["reports"] == 4
            assert stats["loop"]["dispatched_ahead"] == 3
            assert stats["loop"]["persist_s"] > 0.0
            assert stats["jobs"]["job-000001"]["cells"]["executed"] == 4

    def test_submit_between_drain_and_persist_joins_the_unit(self):
        label, cfg = self.CELLS[0]
        k1 = self.KEYS[0]
        with phase_rig(1) as rig:
            first = rig.submit([(label, cfg)])["id"]
            del rig.calls[:]
            # Same wake-up: the done report is drained, then the submit
            # for the same key is served while it is still unsettled.
            second = rig.submit([("again", cfg)], before=[(0, _done(k1))])
            assert second["state"] == "running"
            assert second["cells"]["cached"] == 0
            assert second["deduped_pending"] == 1
            jobs = rig.sched.jobs
            assert jobs[first].done == {label: "executed"}
            assert jobs[second["id"]].done == {"again": "dedup"}
            assert [c for c in rig.calls if c[0] == "send"] == []
            assert rig.calls.count(("put_entry", k1)) == 1


class TestDurability:
    """The farm's durable state is the journal plus the result cache."""

    def test_fully_cached_resubmission_makes_one_fsync(self, monkeypatch):
        cells = TestLoopPhases.CELLS[:2]
        with phase_rig(1) as rig:
            rig.submit(cells)
            for key in TestLoopPhases.KEYS[:2]:
                rig.wake((0, _done(key)))
            fsyncs = []
            real_fsync = os.fsync

            def counting_fsync(fd):
                fsyncs.append(fd)
                real_fsync(fd)

            monkeypatch.setattr(os, "fsync", counting_fsync)
            again = rig.submit(cells)
            assert again["state"] == "done"
            assert again["cells"]["cached"] == 2
            # The journal's ``job`` record, and nothing else.
            assert len(fsyncs) == 1
            assert not os.path.exists(
                os.path.join(rig.sched.farm_dir, "artifacts"))


class TestCrashResume:
    def test_sigkilled_worker_is_replaced_and_cell_rerun(self):
        cfg = slow(seed=7)
        local = run_cell(cfg)
        with farm(workers=1) as (sched, client):
            sub = client.submit([("victim", cfg)])
            _wait(lambda: any(s.busy for s in sched._slots), timeout_s=30)
            os.kill(sched._slots[0].proc.pid, signal.SIGKILL)
            final = client.wait(sub["id"], timeout=240)
            assert final["state"] == "done"
            assert client.stats()["worker_crashes"] == 1
            got = client.fetch(sub["id"])["victim"]
            assert got.metrics == local.metrics

    def test_scheduler_kill9_resumes_from_journal(self):
        """The honest test: kill -9 a real `repro serve` mid-sweep."""
        cells = [("cell/%d" % i, slow(seed=300 + i)) for i in range(3)]
        env = _subprocess_env()

        started = []

        def start(d):
            # Own session: the finally block can killpg the scheduler
            # *and* its workers whatever state the test left them in.
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--farm-dir", d,
                 "--workers", "1", "--checkpoint-s", "0.005"],
                env=env, stderr=subprocess.DEVNULL, start_new_session=True)
            started.append(proc)
            client = FarmClient(os.path.join(d, "farm.sock"))
            _wait_ping(client, timeout_s=30)
            return proc, client

        with short_dir() as d:
            proc, client = start(d)
            try:
                sub = client.submit(cells)
                job_id = sub["id"]
                # Let the first cell land in the cache, then murder the
                # scheduler while the second is in flight.
                _wait(lambda: client.status(job_id)["cells"]["done"] >= 1,
                      timeout_s=120)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)

                cache = ResultCache(os.path.join(d, "cache"))
                done_before = set(cache.keys())
                assert done_before  # at least the first cell persisted
                mtimes = {k: os.path.getmtime(
                    os.path.join(cache.root, k + ".json"))
                    for k in done_before}

                proc, client = start(d)  # resume from journal + cache
                assert client.stats()["resumed_jobs"] == 1
                final = client.wait(job_id, timeout=300)
                assert final["state"] == "done"

                # Only in-flight cells re-executed: entries that were
                # already on disk were served, not rewritten.
                for key, mtime in mtimes.items():
                    assert os.path.getmtime(
                        os.path.join(cache.root, key + ".json")) == mtime

                # And the merged results are bit-identical to local runs.
                got = client.fetch(job_id)
                for label, cfg in cells:
                    assert got[label].metrics == run_cell(cfg).metrics
                client.shutdown()
                proc.wait(timeout=60)
                assert proc.returncode == 0
            finally:
                for p in started:
                    try:
                        os.killpg(p.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    p.wait(timeout=10)

    def test_orphaned_worker_exits_when_its_scheduler_is_killed(self):
        """A forked worker must not hold the scheduler's end of its own
        pipe: after ``kill -9`` of the scheduler it has to see EOF."""
        script = (
            "import sys, time\n"
            "from repro.farm.worker import spawn_worker\n"
            "proc, conn = spawn_worker()\n"
            "assert conn.recv() == {'ev': 'ready'}\n"
            "print(proc.pid, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = _subprocess_env()
        holder = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  start_new_session=True)
        try:
            worker_pid = int(holder.stdout.readline())
            os.kill(holder.pid, signal.SIGKILL)
            holder.wait(timeout=10)

            def gone():
                try:
                    with open(f"/proc/{worker_pid}/stat") as fh:
                        # Exited, not yet reaped by whoever adopted it.
                        state = fh.read().rsplit(")", 1)[1].split()[0]
                        return state == "Z"
                except FileNotFoundError:
                    return True

            _wait(gone, timeout_s=5)
        finally:
            try:
                os.killpg(holder.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            holder.wait(timeout=10)

    def test_resume_tolerates_torn_journal_tail(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        with short_dir() as d:
            with farm(farm_dir=d, workers=1) as (_sched, client):
                sub = client.submit([("t", cfg)])
                client.wait(sub["id"], timeout=120)
            with open(os.path.join(d, "journal.jsonl"), "a") as fh:
                fh.write('{"ev": "job", "id": "job-000002", "ce')  # torn
            with farm(farm_dir=d, workers=1) as (sched, client):
                assert sched.resumed_truncated == 1
                assert client.stats()["resumed_jobs"] == 1
                # The intact history replayed: job-000001 is complete,
                # and new submissions do not collide with the torn id.
                assert client.status("job-000001")["state"] == "done"
                again = client.submit([("t2", cfg)])
                assert again["cells"]["cached"] == 1

    def test_death_between_dispatch_and_persist_reruns_the_cell(self):
        """The window the drain → dispatch → persist loop adds: the next
        ``run`` is out, the finished cell's result is not yet on disk."""

        class SchedulerDied(BaseException):
            pass

        cells = [("w/%d" % i, tiny(QueueSetup(kind="droptail"), seed=600 + i))
                 for i in range(2)]
        k1, k2 = [config_cache_key(cfg) for _label, cfg in cells]
        local = {label: run_cell(cfg) for label, cfg in cells}
        with short_dir() as d:
            with phase_rig(1, farm_dir=d) as rig:
                cache = rig.sched.cache

                def dying_put(entry):
                    # Dies mid-write: a torn temp file, never renamed.
                    torn = os.path.join(cache.root,
                                        entry["key"] + ".json.1.1.tmp")
                    with open(torn, "w") as fh:
                        fh.write(json.dumps(entry)[:40])
                    raise SchedulerDied()

                cache.put_entry = dying_put
                job_id = rig.submit(cells)["id"]
                with pytest.raises(SchedulerDied):
                    rig.wake((0, _done(k1, result_to_entry(local["w/0"]))))
                assert ("send", "run", k2) in rig.calls  # dispatched ahead

            records, torn = Journal(os.path.join(d, "journal.jsonl")).replay()
            assert torn == 0
            assert [r["ev"] for r in records] == ["header", "job"]
            assert ResultCache(os.path.join(d, "cache")).keys() == []

            with farm(farm_dir=d, workers=1) as (sched, client):
                assert sched.resumed_jobs == 1
                assert client.stats()["cache"]["stale_tmp_files"] == 1
                assert client.wait(job_id, timeout=120)["state"] == "done"
                # Both cells were pending again and really re-ran.
                assert client.status(job_id)["labels"] == {
                    "w/0": "executed", "w/1": "executed"}
                got = client.fetch(job_id)
                for label, _cfg in cells:
                    assert got[label].metrics == local[label].metrics


class TestProgressFanout:
    def test_fanout_multiplexes(self):
        fan = ProgressFanout()
        a, b = [], []
        fan.subscribe(lambda d, t, label: a.append((d, t, label)))
        token = fan.subscribe(lambda d, t, label: b.append(label))
        fan(1, 2, "x")
        fan.unsubscribe(token)
        fan(2, 2, "y")
        assert a == [(1, 2, "x"), (2, 2, "y")]
        assert b == ["x"]

    def test_raising_subscriber_is_dropped_not_fatal(self):
        fan = ProgressFanout()
        ok = []

        def dead(d, t, label):
            raise BrokenPipeError("watcher went away")

        token = fan.subscribe(dead)
        fan.subscribe(lambda d, t, label: ok.append(label))
        fan(1, 2, "x")
        fan(2, 2, "y")
        assert ok == ["x", "y"]
        assert len(fan) == 1
        assert isinstance(fan.dropped[token], BrokenPipeError)

    def test_reporter_counts_dedup_separately(self, capsys):
        rep = ProgressReporter(stream=sys.stdout)
        rep(1, 3, "a")
        rep(2, 3, "b" + ProgressReporter.CACHED_SUFFIX)
        rep(3, 3, "c" + ProgressReporter.DEDUP_SUFFIX)
        assert rep.cached == 1 and rep.deduped == 1 and rep.done == 3
