"""Hybrid-vs-packet fidelity validation (the ``fluid`` gate of ``repro smoke``).

Three claims make the hybrid tier trustworthy, each checked here:

1. **No-op where it must be.** On the fig2/fig3 smoke cells (Terasort
   shuffle: every flow shares ports) and the fixedk smoke cell (20 KB
   RPC responses: below the fluid size floor) the manager promotes
   nothing, and the hybrid run must be **bit-identical** to packet mode
   — same fingerprint, zero promotions.
2. **Accurate where it acts.** On the bulk pairs cell (see
   :mod:`repro.experiments.bulkcell`) most bytes flow through the fluid
   recurrence; RunMetrics must agree with the packet-mode run within
   the pinned per-field tolerances below, with byte/flow counts exact.
3. **Deterministic and observable.** Repeated hybrid runs are
   bit-identical (fingerprint + ``manifest["fluid"]``), and a run with
   every invariant checker armed keeps the same fingerprint with zero
   violations.

Tolerances are *pinned*, not adaptive: the bulk cell's hybrid runtime
currently lands within ~2% of packet mode and mean latency within ~1%;
the bounds below leave headroom for parameter drift but will catch a
broken recurrence (a wrong cwnd law or queue-delay term shifts runtime
and latency by far more than 5%).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.experiments.bulkcell import BulkConfig
from repro.experiments.config import CellResult
from repro.experiments.fixedk import FixedKConfig
from repro.experiments.runner import run_cell
from repro.validate.smoke import fingerprint, smoke_cells

__all__ = [
    "BULK_TOLERANCES",
    "EXACT_FIELDS",
    "compare_metrics",
    "fluid_smoke",
]

#: Pinned relative tolerances for hybrid-vs-packet RunMetrics on cells
#: where the fluid tier actually engages. Keys are RunMetrics fields.
BULK_TOLERANCES: Dict[str, float] = {
    "runtime": 0.05,
    "mean_latency": 0.10,
    "p99_latency": 0.25,
    "packets_delivered": 0.05,
}

#: RunMetrics fields that must agree exactly regardless of fidelity:
#: the hybrid tier may re-time traffic but never change what was
#: delivered or whether flows succeeded.
EXACT_FIELDS: Tuple[str, ...] = (
    "bytes_transferred", "n_nodes", "flows_completed", "flows_failed",
)

#: Event-count fields where hybrid may legitimately differ a little
#: (the paced refill can avoid losses packet mode suffers, and vice
#: versa): absolute slack of 4 or 25% of the packet-mode count,
#: whichever is larger.
_SLACK_FIELDS: Tuple[str, ...] = ("retransmits", "rtos", "syn_retries")


def compare_metrics(packet: CellResult, hybrid: CellResult,
                    tolerances: Optional[Dict[str, float]] = None) -> Dict:
    """Field-by-field hybrid-vs-packet comparison block.

    Returns a JSON-safe dict: per-field packet/hybrid values, relative
    delta, the bound applied, and pass/fail; ``ok`` rolls them up.
    """
    tol = dict(BULK_TOLERANCES if tolerances is None else tolerances)
    fields = {}
    ok = True
    pm, hm = packet.metrics, hybrid.metrics
    for name in EXACT_FIELDS:
        p, h = getattr(pm, name), getattr(hm, name)
        good = p == h
        ok &= good
        fields[name] = {"packet": p, "hybrid": h, "bound": "exact", "ok": good}
    for name, bound in tol.items():
        p, h = float(getattr(pm, name)), float(getattr(hm, name))
        delta = abs(h - p) / p if p else abs(h - p)
        good = delta <= bound
        ok &= good
        fields[name] = {"packet": p, "hybrid": h, "delta": delta,
                        "bound": bound, "ok": good}
    for name in _SLACK_FIELDS:
        p, h = getattr(pm, name), getattr(hm, name)
        slack = max(4.0, 0.25 * p)
        good = abs(h - p) <= slack
        ok &= good
        fields[name] = {"packet": p, "hybrid": h, "bound": slack, "ok": good}
    return {"ok": ok, "fields": fields}


def _hybrid(config):
    return dataclasses.replace(config, fidelity="hybrid")


def fluid_smoke(report) -> None:
    """Body of the ``fluid`` smoke gate (``repro smoke fluid``).

    Every hybrid cell goes through ``report.replay`` (claim 3, with
    ``manifest["fluid"]`` in the digest); the packet-mode reference runs
    and the checks for claims 1 and 2 are this gate's own.
    """
    cells = dict(smoke_cells())
    fx = FixedKConfig(duration_s=0.1, drain_s=0.1)
    for name, cfg in (("red-default", cells["red-default"]),
                      ("marking", cells["marking"]), (fx.label(), fx)):
        packet_fp = fingerprint(run_cell(cfg))
        hybrid_cell = report.replay(name, _hybrid(cfg), block="fluid")
        promotions = hybrid_cell.manifest["fluid"]["promotions"]
        report.note(promotions=promotions)
        report.check(f"noop_identical_{name}",
                     fingerprint(hybrid_cell) == packet_fp and promotions == 0)

    bulk = BulkConfig()
    packet_cell = run_cell(bulk)
    hybrid_cell = report.replay(bulk.label(), _hybrid(bulk), block="fluid")
    fl = hybrid_cell.manifest["fluid"]
    comparison = compare_metrics(packet_cell, hybrid_cell)
    report.note(promotions=fl["promotions"], fluid_bytes=fl["fluid_bytes"],
                comparison=comparison)
    report.check("bulk_fluid_engaged",
                 fl["promotions"] > 0 and fl["fluid_bytes"]
                 > 0.5 * hybrid_cell.metrics.bytes_transferred)
    report.check("bulk_within_tolerances", comparison["ok"])
