"""Run manifests: one JSON artifact per experiment run.

A manifest bundles everything needed to reproduce and audit a run — the
full :class:`~repro.experiments.config.ExperimentConfig` (enums rendered
as their string values), the seed, the package version, ``git describe``
of the working tree (when available), wall-clock timings, and the final
metrics snapshot. ``repro cell --json`` prints one; sweeps can write one
per grid. The schema:

.. code-block:: json

    {
      "schema": "repro.run_manifest/v1",
      "kind": "cell",
      "label": "tcp-ecn/red-default@500us/shallow",
      "config": {"queue": {"kind": "red", ...}, "variant": "tcp-ecn", ...},
      "seed": 42,
      "version": "1.0.0",
      "git": "b80b213",
      "timings": {"wall_s": 1.93, "sim_s": 4.71, "events": 1203456,
                   "events_per_s": 623000.0, "sim_wall_ratio": 2.44},
      "metrics": {"runtime": 4.71, "queue": {...}, "extra": {...}},
      "telemetry": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }

``metrics`` is always present; ``telemetry`` and ``profile`` appear only
when a registry / profiler was active for the run.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import subprocess
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "MANIFEST_SCHEMA",
    "config_to_dict",
    "metrics_to_dict",
    "git_describe",
    "build_manifest",
    "build_sweep_manifest",
    "write_manifest",
]

MANIFEST_SCHEMA = "repro.run_manifest/v1"

_GIT_CACHE: Dict[str, Optional[str]] = {}


#: Types :func:`_json_safe` returns unchanged (exact types: an ``int``
#: enum or ``str`` subclass takes the general path).
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})

#: Per dataclass: the names of its public (non-``_``) fields, in
#: declaration order — built on first sight of the class, so rendering an
#: instance never reflects over its fields again.
_PUBLIC_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _json_safe(value: Any) -> Any:
    """Recursively convert dataclasses/enums into JSON-serialisable values."""
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    names = _PUBLIC_FIELDS.get(cls)
    if names is not None:
        out = {}
        for name in names:
            field = getattr(value, name)
            out[name] = (field if type(field) in _LEAF_TYPES
                         else _json_safe(field))
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _PUBLIC_FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(value)
            if not f.name.startswith("_"))
        return _json_safe(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def config_to_dict(config) -> Dict[str, Any]:
    """ExperimentConfig (or any dataclass) as a JSON-safe dict."""
    return _json_safe(config)


def metrics_to_dict(metrics) -> Dict[str, Any]:
    """RunMetrics as a JSON-safe dict, including derived throughputs."""
    out = _json_safe(metrics)
    out["throughput_per_node_bps"] = metrics.throughput_per_node_bps
    out["cluster_throughput_bps"] = metrics.cluster_throughput_bps
    return out


def git_describe(path: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the tree containing ``path``.

    Returns None when git or the repository is unavailable (e.g. an
    installed wheel); results are cached per directory.
    """
    if path is None:
        path = os.path.dirname(os.path.abspath(__file__))
    if path in _GIT_CACHE:
        return _GIT_CACHE[path]
    try:
        out = subprocess.run(
            ["git", "-C", path, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=5,
        )
        result = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        result = None
    _GIT_CACHE[path] = result
    return result


def build_manifest(
    config,
    metrics,
    wall_s: float,
    events: Optional[int] = None,
    telemetry_snapshot: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    kind: str = "cell",
) -> Dict[str, Any]:
    """Assemble the manifest dict for one finished run."""
    from repro import __version__

    sim_s = float(metrics.runtime)
    timings: Dict[str, Any] = {"wall_s": wall_s, "sim_s": sim_s}
    if events is not None:
        timings["events"] = events
        timings["events_per_s"] = events / wall_s if wall_s > 0 else 0.0
    timings["sim_wall_ratio"] = sim_s / wall_s if wall_s > 0 else 0.0

    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "label": config.label(),
        "config": config_to_dict(config),
        "seed": config.seed,
        "version": __version__,
        "git": git_describe(),
        "timings": timings,
        "metrics": metrics_to_dict(metrics),
    }
    if telemetry_snapshot is not None:
        manifest["telemetry"] = telemetry_snapshot
    if profile is not None:
        manifest["profile"] = profile
    return manifest


def build_sweep_manifest(
    cell_manifests: Dict[str, Optional[Dict[str, Any]]],
    **fields: Any,
) -> Dict[str, Any]:
    """Merge per-cell run manifests into one sweep manifest.

    ``cell_manifests`` maps cell label to the per-cell (per-worker, when
    the sweep ran in parallel) manifest; ``fields`` are sweep-level
    attributes recorded verbatim (``deep``, ``scale``, ``seed``,
    ``jobs``, executed/cached partitions, wall time, …).
    """
    from repro import __version__

    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": "sweep",
        **fields,
        "version": __version__,
        "git": git_describe(),
        "cells": dict(cell_manifests),
    }
    return manifest


def write_manifest(manifest: Dict[str, Any], path: str) -> str:
    """Write a manifest as pretty-printed JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
