#!/usr/bin/env python3
"""Compare two suite result files: ``compare.py A.json B.json``.

For every workload × end-to-end metric: the relative change of B's median
against A's, judged against the metric's bound from ``BENCHMARK.json``, and
one verdict per row:

* ``better``       — B's median is better than A's by more than A's own spread;
* ``within bound`` — B's median is not worse than A's by more than the bound;
* ``worse``        — it is;
* ``unresolved``   — the run-to-run spread (IQR / median, needs >= 4 runs a
  side) is wider than the bound, so a change of that size could not be
  seen — unless every run of B is better than every run of A.

Also reported: ``sim_digest`` equality per (workload, seed) present on both
sides, and failures.  Exit 1 on any ``worse`` row or any rise in failures.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[str, dict]:
    """``workload -> {"values": {metric: [..]}, "digests": {seed: ..},
    "failed": n, "attempted": n}`` from the untraced runs of a result file."""
    with open(path) as fh:
        doc = json.load(fh)
    out: Dict[str, dict] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        w = out.setdefault(run["workload"], {
            "values": {}, "digests": {}, "failed": 0, "attempted": 0})
        for name, value in run["metrics"].items():
            w["values"].setdefault(name, []).append(value)
        w["digests"][run["seed"]] = run["sim_digest"]
        w["failed"] += run["failed"]
        w["attempted"] += run["attempted"]
    return out


def spread(values: List[float]) -> Optional[float]:
    """IQR over median, or None with fewer than four runs."""
    if len(values) < 4:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[float, str]:
    """``(relative change of the median, in the worse direction; verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    noisy = bool(spreads) and max(spreads) > bound
    b_all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if noisy and not b_all_better:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if b_all_better or (spreads and -worse_by > max(spreads)):
        return worse_by, "better"
    return worse_by, "within bound"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = load(path_a), load(path_b)
    status = 0
    print(f"{'workload':13s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        if w not in a or w not in b:
            print(f"{w:13s} not in both files")
            continue
        for m in spec["end_to_end"]:
            va, vb = a[w]["values"].get(m["name"]), b[w]["values"].get(m["name"])
            if not va or not vb:
                continue
            worse_by, word = verdict(va, vb, m["better"], m["bound"])
            change = worse_by if m["better"] == "lower" else -worse_by
            print(f"{w:13s} {m['name']:18s} {statistics.median(va):12.5g} "
                  f"{statistics.median(vb):12.5g} {change:+8.1%} "
                  f"{m['bound']:6.0%}  {word}")
            if word == "worse":
                status = 1
        shared = sorted(set(a[w]["digests"]) & set(b[w]["digests"]))
        same = [s for s in shared if a[w]["digests"][s] == b[w]["digests"][s]]
        print(f"{w:13s} sim_digest         identical on {len(same)} of "
              f"{len(shared)} shared seeds")
        frac_a = a[w]["failed"] / max(1, a[w]["attempted"])
        frac_b = b[w]["failed"] / max(1, b[w]["attempted"])
        print(f"{w:13s} failed_frac        {frac_a:12.5g} {frac_b:12.5g}")
        if frac_b > frac_a:
            print(f"{w:13s} failures rose: worse")
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    sys.exit(main())
