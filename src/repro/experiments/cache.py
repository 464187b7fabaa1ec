"""Content-addressed result cache for experiment cells.

A cell's cache key is the SHA-256 of its canonicalised config — the
frozen dataclass of any registered cell kind
(:mod:`repro.experiments.kinds`), in the same JSON-safe rendering that
goes into ``repro.run_manifest/v1`` manifests, serialised with sorted
keys — so any change to any config field (queue parameters, seed, scale,
transport) yields a different key. Entries are one JSON
file per cell under the cache directory, which makes resume-after-
interrupt a directory scan and lets concurrent sweeps share a cache.

Fidelity: entries round-trip :class:`~repro.stats.collect.RunMetrics`
(including the private occupancy-integral accumulators of
:class:`~repro.core.qdisc.QueueStats`) and every
:class:`~repro.core.monitor.QueueSnapshot` exactly — Python's JSON float
serialisation is ``repr``-based and round-trips bit-identically — so a
cache hit compares equal to a fresh run of the same config.

Format (``repro.cell_cache/v2``): each fact is stored once. The entry's
manifest keeps its keys, but its ``config`` and ``metrics`` are ``null``
placeholders that :func:`result_from_entry` fills from the entry's own
``config`` and rebuilt metrics; the file is one compact line, read in one
binary pass. ``repro.cell_cache/v1`` entries, whose manifest repeats both
copies, are still served by the same reader; writers write v2 only.

Cost of a hit (:meth:`ResultCache.get` on one ``sweep-tiny`` cell; best
of 15 timings over five interleaved runs per side, on a shared 2-core
x86 host, CPython 3.11): about 70 µs for a 1.8 kB v2 entry, against
81 µs for the same cell's 4.2 kB v1 entry. Rendering the config takes
3.5 µs, once, for both the key and the collision check; hashing its
canonical JSON 12 µs. Reading the file takes 7 µs in binary (10 µs as
text for v1), parsing it 22 µs (35 µs), and rebuilding the
:class:`CellResult` 17 µs (8 µs): filling the manifest's metrics costs
the 9 µs of one :func:`~repro.telemetry.manifest.metrics_to_dict`.
Storing an entry gets cheaper as well: one compact ``json.dumps`` and an
fsync took 0.46 ms against 0.69 ms for the indented v1 write.

Caveat (documented in EXPERIMENTS.md): the key covers the *config*, not
the code. After editing simulator behaviour, point sweeps at a fresh
``--cache-dir`` (or delete the old one); a stale entry for an unchanged
config would otherwise be served as-is. Entries embed the package
version and ``git describe`` to make such audits possible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time as _time
from itertools import count as _count
from typing import Any, Dict, List, Optional

from repro.core.monitor import QueueSnapshot
from repro.core.qdisc import QueueStats
from repro.errors import ExperimentError
from repro.experiments.config import CellResult
from repro.stats.collect import RunMetrics
from repro.telemetry.manifest import (config_to_dict, git_describe,
                                     metrics_to_dict)

__all__ = ["CACHE_SCHEMA", "canonical_config_json", "config_cache_key",
           "config_dict_key", "result_to_entry", "result_from_entry",
           "CacheEntryInfo", "ResultCache"]

CACHE_SCHEMA = "repro.cell_cache/v2"

#: The schemas the one reader serves. A v1 manifest carries real copies of
#: the entry's config and metrics, so :func:`result_from_entry` fills
#: nothing in it; writers write :data:`CACHE_SCHEMA` only.
_READABLE_SCHEMAS = frozenset({"repro.cell_cache/v1", CACHE_SCHEMA})


def _canonical_json(config_dict: Dict[str, Any]) -> str:
    return json.dumps(config_dict, sort_keys=True, separators=(",", ":"))


def canonical_config_json(config) -> str:
    """Canonical JSON rendering of a config (sorted keys, no whitespace)."""
    return _canonical_json(config_to_dict(config))


def config_dict_key(config_dict: Dict[str, Any]) -> str:
    """The cache key of an already rendered ``config_to_dict(config)``:
    callers that need both the dict and the key render the config once."""
    return hashlib.sha256(_canonical_json(config_dict).encode()).hexdigest()


def config_cache_key(config) -> str:
    """Content address of one cell: SHA-256 over the canonical config."""
    return config_dict_key(config_to_dict(config))


def _metrics_to_entry(metrics: RunMetrics) -> Dict[str, Any]:
    """Exact (private-fields-included) dict rendering of RunMetrics."""
    return dataclasses.asdict(metrics)


def _metrics_from_entry(d: Dict[str, Any]) -> RunMetrics:
    d = dict(d)
    d["queue"] = QueueStats(**d["queue"])
    return RunMetrics(**d)


def _renders_alike(stored: Any, rebuilt: Any) -> bool:
    """True when ``rebuilt`` serialises exactly as ``stored`` (key order
    and number types included). A non-finite float never counts as alike,
    so a NaN metric keeps its manifest copy."""
    try:
        return (json.dumps(stored, allow_nan=False)
                == json.dumps(rebuilt, allow_nan=False))
    except ValueError:
        return False


def result_to_entry(result: CellResult) -> Dict[str, Any]:
    """One finished cell as the JSON-safe cache-entry document.

    This is the on-disk cache format *and* the farm's wire format for
    shipping results between processes — both sides round-trip through
    the same codec, so a farm-served result compares equal to a
    cache-served one.

    Each fact is stored once: the manifest's ``config`` and ``metrics``
    become ``null`` placeholders (keeping the manifest's key order) when
    the reader's rebuild — the entry's ``config``, ``metrics_to_dict`` of
    the rebuilt metrics — renders exactly as the copy; otherwise the copy
    stays.
    """
    config_dict = config_to_dict(result.config)
    manifest = result.manifest
    if manifest is not None:
        manifest = dict(manifest)
        if _renders_alike(manifest.get("config"), config_dict):
            manifest["config"] = None
        if _renders_alike(manifest.get("metrics"),
                          metrics_to_dict(result.metrics)):
            manifest["metrics"] = None
    return {
        "schema": CACHE_SCHEMA,
        "key": config_dict_key(config_dict),
        "label": result.config.label(),
        "config": config_dict,
        "version": _package_version(),
        "git": git_describe(),
        "metrics": _metrics_to_entry(result.metrics),
        "snapshots": [dataclasses.asdict(s) for s in result.snapshots],
        "manifest": manifest,
    }


def result_from_entry(entry: Dict[str, Any], config) -> CellResult:
    """Rebuild the :class:`CellResult` for ``config`` from an entry doc
    of either readable schema, filling the manifest's ``null``
    placeholders (a v1 manifest has none)."""
    metrics = _metrics_from_entry(entry["metrics"])
    manifest = entry.get("manifest")
    if manifest is not None:
        if manifest.get("config") is None:
            manifest = {**manifest, "config": entry["config"]}
        if manifest.get("metrics") is None:
            manifest = {**manifest, "metrics": metrics_to_dict(metrics)}
    return CellResult(
        config=config,
        metrics=metrics,
        snapshots=[QueueSnapshot(**row) for row in entry["snapshots"]],
        manifest=manifest,
    )


@dataclasses.dataclass
class CacheEntryInfo:
    """One on-disk entry as seen by ``repro cache``: the whole document is
    parsed (to check its schema and read its label), but no
    :class:`~repro.stats.collect.RunMetrics` is rebuilt."""

    key: str
    label: Optional[str]  #: None when the entry is unreadable/corrupt
    bytes: int
    age_s: float
    path: str

    @property
    def ok(self) -> bool:
        """False for corrupt entries (unreadable bytes or JSON, or a
        schema this checkout cannot read)."""
        return self.label is not None


class ResultCache:
    """Directory of completed cells, one ``<sha256>.json`` file each.

    Parameters
    ----------
    root:
        Cache directory; created (with parents) if missing.

    Attributes
    ----------
    hits, misses, writes:
        Lookup/store counters for this instance (also in :meth:`stats`).
    last_key:
        The key the latest :meth:`get` looked up (None before the first).
    """

    def __init__(self, root: str):
        if os.path.exists(root) and not os.path.isdir(root):
            raise ExperimentError(
                f"cache path {root!r} exists and is not a directory")
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.last_key: Optional[str] = None
        # Per-instance temp-name counter: with the pid it makes every
        # in-flight write target a distinct file.
        self._tmp_ids = _count()

    # -- addressing ---------------------------------------------------------

    def path_for(self, config) -> str:
        """Entry file for ``config`` (whether or not it exists yet)."""
        return os.path.join(self.root, config_cache_key(config) + ".json")

    def keys(self) -> List[str]:
        """Cache keys present on disk (the resume scan)."""
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- lookup / store -----------------------------------------------------

    def get_entry(self, key: str,
                  config_dict: Optional[Dict[str, Any]] = None,
                  ) -> Optional[Dict[str, Any]]:
        """The entry document stored under ``key``, or None — the one
        keyed read (every lookup counts one hit or one miss).

        A corrupt or mismatched entry (truncated write, schema drift, or
        — when ``config_dict`` is given — a stored config that differs
        from it, i.e. a hash collision) counts as a miss rather than an
        error: the cell is simply re-run and the entry overwritten.
        """
        entry = self._load(key)
        if entry is None or (config_dict is not None
                             and entry.get("config") != config_dict):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        """Parse ``key``'s file in one binary read; None unless it is a
        well-formed entry of a readable schema. ``ValueError`` covers bad
        JSON and bytes that are not text alike."""
        try:
            with open(os.path.join(self.root, key + ".json"), "rb") as fh:
                entry = json.loads(fh.read())
        except (OSError, ValueError):
            return None
        if (isinstance(entry, dict)
                and entry.get("schema") in _READABLE_SCHEMAS):
            return entry
        return None

    def get(self, config) -> Optional[CellResult]:
        """Return the cached :class:`CellResult` for ``config``, or None
        (see :meth:`get_entry` for what counts as a miss).

        The config is rendered once, for both its key and the collision
        check; the key stays in :attr:`last_key` for a caller that goes on
        to run and store a miss.
        """
        config_dict = config_to_dict(config)
        self.last_key = config_dict_key(config_dict)
        entry = self.get_entry(self.last_key, config_dict)
        return None if entry is None else result_from_entry(entry, config)

    def put(self, result: CellResult) -> str:
        """Store one finished cell; returns the entry path."""
        return self.put_entry(result_to_entry(result))

    def put_entry(self, entry: Dict[str, Any]) -> str:
        """Store an entry document (as produced by :func:`result_to_entry`,
        carrying its own ``key``) as one compact line; returns the entry
        path.

        Atomic against any interruption a filesystem can survive: the
        entry is written to a same-directory temp file (named uniquely
        per process *and* per call, so two writers of the same key never
        stomp each other's partial file), fsynced, then ``os.replace``\\ d
        over the final name. A worker killed — even ``SIGKILL``\\ ed —
        mid-write leaves at worst a stale ``*.tmp`` file (collected by
        :meth:`prune`), never a truncated entry that would poison resume.
        """
        key = entry.get("key")
        if not key or entry.get("schema") != CACHE_SCHEMA:
            raise ExperimentError("not a cache entry document")
        path = os.path.join(self.root, key + ".json")
        tmp = f"{path}.{os.getpid()}.{next(self._tmp_ids)}.tmp"
        data = json.dumps(entry, separators=(",", ":")) + "\n"
        with open(tmp, "wb") as fh:
            fh.write(data.encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.writes += 1
        return path

    # -- inspection / hygiene (the `repro cache` verb) -----------------------

    def entries(self) -> List[CacheEntryInfo]:
        """Scan the directory: one :class:`CacheEntryInfo` per entry.

        Corrupt entries (truncated JSON, non-text bytes, an unreadable
        schema) appear with ``label=None`` rather than raising, so hygiene
        tooling can see — and prune — exactly what resume would skip.
        """
        now = _time.time()
        out: List[CacheEntryInfo] = []
        for key in self.keys():
            path = os.path.join(self.root, key + ".json")
            try:
                st = os.stat(path)
            except OSError:
                continue  # raced with a concurrent prune
            doc = self._load(key)
            out.append(CacheEntryInfo(
                key=key,
                label=None if doc is None else doc.get("label") or "?",
                bytes=st.st_size,
                age_s=max(0.0, now - st.st_mtime), path=path,
            ))
        return out

    def stale_tmp_files(self) -> List[str]:
        """Leftover ``*.tmp`` files from writers that died mid-put."""
        return sorted(
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.endswith(".tmp")
        )

    def stats(self) -> Dict[str, Any]:
        """Summary for ``repro cache --stats`` (JSON-safe)."""
        infos = self.entries()
        ages = [e.age_s for e in infos]
        return {
            "root": self.root,
            "entries": len(infos),
            "corrupt": sum(1 for e in infos if not e.ok),
            "bytes": sum(e.bytes for e in infos),
            "oldest_age_s": max(ages) if ages else 0.0,
            "newest_age_s": min(ages) if ages else 0.0,
            "stale_tmp_files": len(self.stale_tmp_files()),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    def prune(
        self,
        max_age_s: Optional[float] = None,
        keep_keys: Optional[set] = None,
        corrupt: bool = True,
        dry_run: bool = False,
    ) -> List[str]:
        """Delete entries by age and/or grid membership; returns pruned keys.

        Parameters
        ----------
        max_age_s:
            Remove entries older than this (mtime-based). None = no age
            criterion.
        keep_keys:
            When given, remove entries whose key is *not* in this set
            (grid-membership pruning: pass the keys of a current grid and
            everything orphaned by config changes goes away).
        corrupt:
            Also remove unreadable/wrong-schema entries (resume would
            re-run them anyway). Stale ``*.tmp`` files are always
            collected unless ``dry_run``.
        dry_run:
            Report what would be pruned without deleting anything.
        """
        doomed: List[str] = []
        for info in self.entries():
            if not info.ok:
                if corrupt:
                    doomed.append(info.key)
                continue
            if max_age_s is not None and info.age_s > max_age_s:
                doomed.append(info.key)
            elif keep_keys is not None and info.key not in keep_keys:
                doomed.append(info.key)
        if not dry_run:
            for key in doomed:
                try:
                    os.remove(os.path.join(self.root, key + ".json"))
                except OSError:
                    pass  # already gone
            for tmp in self.stale_tmp_files():
                try:
                    os.remove(tmp)
                except OSError:
                    pass
        return doomed


def _package_version() -> str:
    from repro import __version__

    return __version__
