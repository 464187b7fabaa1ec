"""Outside-in tracer: spans at every layer's public boundary, no source edits.

``Tracer.install()`` wraps, at class level, the public entry points of each
layer (see ``HOT_BOUNDARIES`` / ``SERVICE_BOUNDARIES``) and installs itself
as ``sim.profiler`` on every simulator that runs, so each dispatched
callback becomes a root span attributed to the layer that owns it (the
second component of the callback's module, ``repro.<layer>....``).

A span is (name, start, end, parent, cell label).  Spans are folded in
memory into ``name -> [count, total_s, self_s]`` — self time is the span's
duration minus the part its child spans cover — plus the first
``RAW_LIMIT`` raw spans per name; ``dump()`` writes both to ``trace.json``.

Two wrapper flavours, because the costs differ by three orders of magnitude:

* *hot* boundaries (simulator, net, core, tcp, stats, mapreduce) run
  millions of times on the main thread only; their wrappers share one
  stack and keep their fold slot in a closure.
* *service* boundaries (result cache, journal, artifact store, farm client)
  run on the scheduler and client threads too; their wrappers use a
  per-thread stack, fold under a lock and keep every duration so medians
  and p95s can be reported.

A boundary that no longer exists is recorded in ``Tracer.missing`` with a
warning; it never raises, and nothing here runs in an untraced benchmark.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "Fold", "fold_tree", "layer_of", "HOT_BOUNDARIES",
           "SERVICE_BOUNDARIES", "RAW_LIMIT"]

#: Raw spans kept per span name (the fold keeps counting past it).
RAW_LIMIT = 64

#: ``(module, class, attribute)`` wrapped with the fast main-thread wrapper.
HOT_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "schedule"),
    ("repro.sim.engine", "Simulator", "schedule_now"),
    ("repro.sim.engine", "Simulator", "schedule_at"),
    ("repro.sim.engine", "EventHandle", "cancel"),
    ("repro.net.port", "Port", "send"),
    ("repro.net.switch", "Switch", "receive"),
    ("repro.net.host", "Host", "receive"),
    ("repro.net.host", "Host", "send"),
    ("repro.mapreduce.engine", "MapReduceEngine", "submit"),
)

#: ``(module, class, attribute)`` wrapped with the thread-safe wrapper.
SERVICE_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.cache", "ResultCache", "get"),
    ("repro.experiments.cache", "ResultCache", "put"),
    ("repro.experiments.cache", "ResultCache", "put_entry"),
    ("repro.farm.journal", "Journal", "append"),
    ("repro.farm.store", "ArtifactStore", "put_job"),
    ("repro.farm.store", "ArtifactStore", "put_results"),
    ("repro.farm.client", "FarmClient", "ping"),
    ("repro.farm.client", "FarmClient", "submit"),
    ("repro.farm.client", "FarmClient", "status"),
    ("repro.farm.client", "FarmClient", "wait"),
    ("repro.farm.client", "FarmClient", "fetch"),
    ("repro.farm.client", "FarmClient", "shutdown"),
)

#: Fold slot layout: ``[count, total_s, self_s]``.
Fold = Dict[str, List[float]]


def layer_of(module: Optional[str]) -> str:
    """Layer name for a module path: ``repro.net.port`` -> ``net``."""
    parts = (module or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def fold_tree(spans: List[Tuple[str, float, float, Optional[int]]]) -> Fold:
    """Fold explicit ``(name, start, end, parent_index)`` spans.

    The reference for the self-time arithmetic the live wrappers do
    incrementally: self = duration - sum of direct children's durations.
    """
    child_s = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    fold: Fold = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        slot = fold.setdefault(name, [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += end - start
        slot[2] += (end - start) - child_s[i]
    return fold


class Tracer:
    """Class-level span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.stats: Fold = {}
        self.raw: Dict[str, list] = {}
        #: Every duration of each service span, for medians and p95s.
        self.durations: Dict[str, List[float]] = {}
        #: Shared id stamped on raw spans: the cell (or batch) being run.
        self.label = ""
        self.missing: List[str] = []
        #: Names of spans created through ``Host.bind`` / delivery hooks /
        #: the dispatch loop, so metrics can tell them apart.
        self.rx_names: set = set()
        self.hook_names: set = set()
        self.root_names: set = set()
        self.heap_high_water = 0
        self._stack: list = []          # main-thread frames: [name, child_s, mark]
        self._tls = threading.local()   # service-wrapper stacks
        self._lock = threading.Lock()
        self._patches: list = []        # (owner, attr, original, wrapper)
        self._names: Dict[Any, str] = {}

    # -- wrapping --------------------------------------------------------------

    def _slot(self, name: str) -> Tuple[list, list]:
        return (self.stats.setdefault(name, [0, 0.0, 0.0]),
                self.raw.setdefault(name, []))

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        """Main-thread span wrapper around ``fn`` (fold slot in the closure)."""
        stack = self._stack
        slot, raw = self._slot(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                if len(raw) < RAW_LIMIT:
                    raw.append((t0, t0 + dt,
                                stack[-1][0] if stack else None, tracer.label))

        traced.__wrapped__ = fn
        return traced

    def wrap_service(self, name: str, fn: Callable) -> Callable:
        """Thread-safe span wrapper around ``fn`` (keeps every duration)."""
        slot, raw = self._slot(name)
        durations = self.durations.setdefault(name, [])
        tls, lock, tracer = self._tls, self._lock, self

        def traced(*args, **kwargs):
            stack = tls.__dict__.setdefault("stack", [])
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with lock:
                    slot[0] += 1
                    slot[1] += dt
                    slot[2] += dt - frame[1]
                    durations.append(dt)
                    if len(raw) < RAW_LIMIT:
                        raw.append((t0, t0 + dt,
                                    stack[-1][0] if stack else None,
                                    tracer.label))

        traced.__wrapped__ = fn
        return traced

    def _span_name(self, fn: Callable) -> str:
        """``layer:Qualname`` of a callable, closures named by their owner."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        while hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        fn = getattr(fn, "__func__", fn)
        qual = getattr(fn, "__qualname__", type(fn).__name__)
        module = getattr(fn, "__module__", None) or type(fn).__module__
        return f"{layer_of(module)}:{qual.partition('.<locals>')[0]}"

    def _patch(self, owner: type, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def _resolve(self, module: str, cls: str, attr: str) -> Optional[type]:
        """The class that *defines* ``attr``, or None (recorded as missing)."""
        try:
            owner = getattr(__import__(module, fromlist=[cls]), cls)
            for klass in owner.__mro__:
                if attr in klass.__dict__:
                    return klass
        except (ImportError, AttributeError):
            pass
        self.missing.append(f"{cls}.{attr}")
        print(f"tracer: boundary {module}.{cls}.{attr} no longer exists; "
              f"its metrics read null", file=sys.stderr)
        return None

    def install(self, hot: bool = True) -> "Tracer":
        """Wrap the service boundaries and, if ``hot``, the simulator's.

        Call before the workload builds anything: ports and endpoints
        cache bound methods (``sim.schedule``) at construction.
        """
        for module, cls, attr in SERVICE_BOUNDARIES:
            owner = self._resolve(module, cls, attr)
            if owner is not None:
                name = f"{layer_of(module)}:{cls}.{attr}"
                self._patch(owner, attr,
                            self.wrap_service(name, owner.__dict__[attr]))
        self._install_run(profile=hot)
        if not hot:
            return self
        for module, cls, attr in HOT_BOUNDARIES:
            owner = self._resolve(module, cls, attr)
            if owner is not None:
                name = f"{layer_of(module)}:{cls}.{attr}"
                self._patch(owner, attr,
                            self.wrap_hot(name, owner.__dict__[attr]))
        self._install_qdiscs()
        self._install_host_registrations()
        return self

    def _install_run(self, profile: bool) -> None:
        """``Simulator.run``: one span per run and, if ``profile``, the
        tracer as ``sim.profiler`` so every callback becomes a root span.

        Without ``profile`` the wrapper costs one call per cell, which is
        all that pool and farm workers forked from a traced parent pay."""
        owner = self._resolve("repro.sim.engine", "Simulator", "run")
        if owner is None:
            return
        original = owner.__dict__["run"]
        stack = self._stack
        slot, raw = self._slot("sim:Simulator.run")
        tracer = self

        def run(sim, *args, **kwargs):
            # A run that brought its own profiler (Telemetry(profile=True))
            # keeps it; its callbacks then fold into the run span's self.
            mine = profile and sim.profiler is None
            if mine:
                sim.profiler = tracer
            frame = ["sim:Simulator.run", 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if mine:
                    sim.profiler = None
                if stack:
                    stack[-1][1] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                if len(raw) < RAW_LIMIT:
                    raw.append((t0, t0 + dt, None, tracer.label))
                hw = sim.heap_high_water
                if hw > tracer.heap_high_water:
                    tracer.heap_high_water = hw

        run.__wrapped__ = original
        self._patch(owner, "run", run)

    def _install_qdiscs(self) -> None:
        """``enqueue``/``dequeue`` of QueueDisc and every loaded subclass."""
        try:
            import repro.core.registry  # noqa: F401 - loads every qdisc class
            from repro.core.qdisc import QueueDisc
        except ImportError:
            self.missing.append("QueueDisc")
            return
        classes, todo = [], [QueueDisc]
        while todo:
            klass = todo.pop()
            classes.append(klass)
            todo.extend(klass.__subclasses__())
        for klass in classes:
            for attr in ("enqueue", "dequeue"):
                if attr in klass.__dict__:
                    name = f"core:{klass.__name__}.{attr}"
                    self._patch(klass, attr,
                                self.wrap_hot(name, klass.__dict__[attr]))

    def _install_host_registrations(self) -> None:
        """Receivers through ``Host.bind``, hooks through
        ``Host.add_delivery_hook``: wrapped as they are registered."""
        for attr, names in (("bind", self.rx_names),
                            ("add_delivery_hook", self.hook_names)):
            owner = self._resolve("repro.net.host", "Host", attr)
            if owner is None:
                continue
            original = owner.__dict__[attr]

            def register(host, *args, _original=original, _names=names,
                         **kwargs):
                if args and callable(args[-1]):  # the callable goes last
                    fn = args[-1]
                    name = self._span_name(fn)
                    _names.add(name)
                    traced = self.wrap_hot(name, fn)
                    if hasattr(fn, "__self__"):
                        # The fluid tier finds a listener through its bound
                        # receiver's __self__; stay transparent to that.
                        traced.__self__ = fn.__self__
                    args = args[:-1] + (traced,)
                return _original(host, *args, **kwargs)

            register.__wrapped__ = original
            self._patch(owner, attr, register)

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one was replaced under us."""
        clobbered = []
        for owner, attr, original, wrapper in reversed(self._patches):
            if owner.__dict__.get(attr) is not wrapper:
                clobbered.append(f"{owner.__name__}.{attr}")
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                clobbered.append(f"{owner.__name__}.{attr} (restore)")
        self._patches = []
        if clobbered:
            raise RuntimeError(
                f"class attributes changed while traced: {clobbered}")

    # -- the kernel-facing profiler hook ------------------------------------------

    def record(self, callback: Callable, dt: float) -> None:
        """One dispatched callback = one root span (``sim.profiler`` API)."""
        fn = getattr(callback, "__func__", callback)
        try:
            name = self._names[fn.__code__]
        except (AttributeError, KeyError):
            name = self._span_name(callback)
            code = getattr(fn, "__code__", None)
            # Never cache under a wrapper's code object: all wrappers of
            # one flavour share it.
            if code is not None and not hasattr(fn, "__wrapped__"):
                self._names[code] = name
            self.root_names.add(name)
        nested = 0.0
        stack = self._stack
        if stack and len(stack[-1]) == 3:
            frame = stack[-1]
            nested = frame[1] - frame[2]
            frame[1] = frame[2] = frame[2] + dt
        slot = self.stats.get(name)
        if slot is None:
            slot, _raw = self._slot(name)
        slot[0] += 1
        slot[1] += dt
        slot[2] += dt - nested
        raw = self.raw[name]
        if len(raw) < RAW_LIMIT:
            end = perf_counter()
            raw.append((end - dt, end, "sim:Simulator.run", self.label))

    # -- reading -------------------------------------------------------------------

    def snapshot(self) -> Fold:
        """Copy of the fold (take one per round and subtract)."""
        with self._lock:
            return {name: list(slot) for name, slot in self.stats.items()}

    @staticmethod
    def diff(after: Fold, before: Fold) -> Fold:
        """Fold of the work done between two snapshots."""
        out: Fold = {}
        for name, slot in after.items():
            base = before.get(name, (0, 0.0, 0.0))
            if slot[0] != base[0]:
                out[name] = [slot[0] - base[0], slot[1] - base[1],
                             slot[2] - base[2]]
        return out

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the fold and the retained raw spans as JSON."""
        doc = {
            "schema": "repro.suite_trace/v1",
            "fold": {name: {"count": s[0], "total_s": s[1], "self_s": s[2]}
                     for name, s in sorted(self.stats.items()) if s[0]},
            "spans": {name: [{"start": a, "end": b, "parent": p, "cell": c}
                             for a, b, p, c in rows]
                      for name, rows in sorted(self.raw.items()) if rows},
            "missing_boundaries": self.missing,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
