"""Smoke gates: one replay primitive, one gate table, one report.

The repo's contract is that packet mode stays bit-identical — run to
run, and with the invariant checkers armed. :func:`replay` is the only
place that contract is exercised: it runs a cell **plain, plain again,
then armed** with a :class:`~repro.validate.ValidationSuite`, digests
the three runs (:func:`fingerprint` plus, when asked, one manifest
block) and returns one cell record. Identical digests prove both that
the run is deterministic and that the observation layer stayed an
observation layer; the armed run also proves every invariant holds on
the real experiment pipeline.

:data:`GATES` is the ordered gate table behind ``repro smoke [NAME…]``
and the CI ``smoke`` matrix. A gate body supplies only what is its own —
which pinned cells to replay, the per-cell facts worth showing, and its
gate-level checks — through a :class:`SmokeReport`; the verdict, the
``repro.smoke/v1`` document and its text rendering are shared. Gates are
pinned (seed 42, fixed horizons): the expectations they check are only
valid for those cells. DESIGN.md "Smoke gates" has the table, the schema
and the add-a-gate recipe.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.protection import ProtectionMode
from repro.experiments.config import (
    SHALLOW_BUFFER_PACKETS,
    CellResult,
    ExperimentConfig,
    QueueSetup,
)
from repro.experiments.runner import run_cell
from repro.tcp.endpoint import TcpVariant
from repro.units import us
from repro.validate.checkers import build_suite
from repro.validate.fuzz import fuzz

__all__ = ["SMOKE_SCHEMA", "SMOKE_SCALE", "SMOKE_SEED", "GATES", "Gate",
           "SmokeReport", "smoke_cells", "stability_smoke_cells",
           "mix_smoke_cell", "fingerprint", "replay",
           "cell_ok", "run_check", "run_gate", "render_report"]

SMOKE_SCHEMA = "repro.smoke/v1"

#: Default dataset scale for ``repro check`` cells (1/32 of the 256 MB
#: reference — the same size the sweep smoke tests use).
SMOKE_SCALE = 0.03125

#: Every gate's cells are pinned to this seed.
SMOKE_SEED = 42


def smoke_cells(scale: float = SMOKE_SCALE,
                seed: int = SMOKE_SEED) -> List[Tuple[str, ExperimentConfig]]:
    """The representative fig2/3/4 cells ``repro check`` validates.

    RED under all three protection modes, the DropTail baseline, the
    simple marking queue and the CoDel extension.
    """
    def cfg(kind: str, protection: ProtectionMode = ProtectionMode.DEFAULT,
            ) -> ExperimentConfig:
        queue = QueueSetup(
            kind=kind,
            buffer_packets=SHALLOW_BUFFER_PACKETS,
            target_delay_s=None if kind == "droptail" else us(500.0),
            protection=protection,
        )
        return ExperimentConfig(
            queue=queue, variant=TcpVariant.ECN, seed=seed,
        ).scaled(scale)

    return [
        ("red-default", cfg("red")),
        ("red-ece", cfg("red", ProtectionMode.ECE)),
        ("red-ack+syn", cfg("red", ProtectionMode.ACK_SYN)),
        ("droptail-shallow", cfg("droptail")),
        ("marking", cfg("marking")),
        ("codel-default", cfg("codel")),
    ]


def stability_smoke_cells(seed: int = SMOKE_SEED):
    """The pinned regime cells the ``stability`` gate classifies.

    Returns ``(name, expected_classification, config)`` triples: a
    NewReno+ECN marking queue at an aggressive 100 µs threshold (a clean
    synchronized sawtooth — the canonical limit cycle) and DCTCP against
    a 500 µs threshold (K large enough that the √K-relative amplitude is
    small — the canonical damped loop). Expectations are part of the
    contract: a classifier or simulator change that flips either regime
    fails the smoke, not just the bit-identity compare.
    """
    from repro.analysis.stability import CLASS_LIMIT_CYCLE, CLASS_STABLE
    from repro.experiments.probe import StabilityProbeConfig

    def probe(kind: str, variant: TcpVariant, td_s: float,
              ) -> StabilityProbeConfig:
        return StabilityProbeConfig(
            queue=QueueSetup(kind=kind,
                             buffer_packets=SHALLOW_BUFFER_PACKETS,
                             target_delay_s=td_s),
            variant=variant, duration_s=1.0, seed=seed,
        )

    return [
        ("oscillating", CLASS_LIMIT_CYCLE,
         probe("marking", TcpVariant.ECN, us(100.0))),
        ("damped", CLASS_STABLE,
         probe("marking", TcpVariant.DCTCP, us(500.0))),
    ]


def mix_smoke_cell():
    """The pinned coexistence cell of the ``mix`` gate (4 MB shuffle +
    partition-aggregate RPC + open-loop background flows on 8 hosts)."""
    from repro.experiments.mix import MixConfig

    return MixConfig(
        queue=QueueSetup(kind="red", target_delay_s=us(200)),
        variant=TcpVariant.ECN,
        n_hosts=8,
        n_reducers=4,
        rpc_fanout=4,
        rpc_rate_qps=100.0,
        bg_rate_fps=20.0,
        seed=SMOKE_SEED,
    ).scaled(1.0 / 16.0)


def fingerprint(cell: CellResult) -> Dict[str, object]:
    """Deterministic run digest: identical runs ⇒ identical fingerprints.

    Covers the simulated clock, the latency distribution endpoints, TCP
    effort counters, the event count and every per-class queue counter —
    any perturbation of the event sequence moves at least one of these.
    """
    m = cell.metrics
    q = m.queue
    return {
        "runtime": m.runtime,
        "mean_latency": m.mean_latency,
        "p99_latency": m.p99_latency,
        "packets_delivered": m.packets_delivered,
        "retransmits": m.retransmits,
        "rtos": m.rtos,
        "syn_retries": m.syn_retries,
        "events": int(cell.manifest["timings"]["events"]),
        "queue": {
            "arrivals": q.arrivals,
            "departures": q.departures,
            "drops_tail": q.drops_tail,
            "drops_early": q.drops_early,
            "marks": q.marks,
            "protected": q.protected,
            "ect_drops": q.ect_drops,
            "ack_drops": q.ack_drops,
            "syn_drops": q.syn_drops,
        },
    }


def replay(config, *, block: Optional[str] = None, analyses: Sequence = (),
           checker_names: Optional[List[str]] = None,
           ) -> Tuple[Dict[str, Any], CellResult]:
    """Run one cell plain, plain again, then armed; compare the digests.

    The digest is :func:`fingerprint` plus, when ``block`` names one, the
    cell's ``manifest[block]`` (e.g. the per-workload buckets of a mix
    cell, or the ``stability`` block an analysis in ``analyses`` wrote).
    Returns ``(record, first)``: the ``repro.smoke/v1`` cell record and
    the first plain run's result, for the caller's own facts and checks.
    """
    def digest(cell: CellResult) -> Tuple[Dict[str, object], Any]:
        return fingerprint(cell), cell.manifest[block] if block else None

    first = run_cell(config, analyses=analyses)
    second = run_cell(config, analyses=analyses)
    armed = run_cell(config, checks=build_suite(config, checker_names),
                     analyses=analyses)
    reference = digest(first)
    validation = armed.manifest["validation"]
    detail: Dict[str, Any] = {block: reference[1]} if block else {}
    if validation["violations"]:
        detail["violations"] = [
            f"t={v['time']:.6f} [{v['checker']}] {v['where']}: {v['message']}"
            for v in validation["violations"][:10]]
    return {
        "label": config.label(),
        "identical_plain_rerun": reference == digest(second),
        "identical_armed_rerun": reference == digest(armed),
        "validation_ok": bool(validation["ok"]),
        "violation_count": validation["violation_count"],
        "fingerprint": reference[0],
        "detail": detail,
    }, first


def cell_ok(record: Dict[str, Any]) -> bool:
    """A replayed cell passes when all three runs agree and none violates."""
    return (record["identical_plain_rerun"] and record["identical_armed_rerun"]
            and record["validation_ok"])


class SmokeReport:
    """What a gate body writes into; :meth:`finish` is the v1 document."""

    def __init__(self, gate: str,
                 say: Optional[Callable[[str], None]] = None) -> None:
        self.gate = gate
        self.say = say or (lambda _msg: None)
        self.cells: List[Dict[str, Any]] = []
        self.checks: Dict[str, bool] = {}
        self.detail: Dict[str, Any] = {}
        self._t0 = time.time()

    def replay(self, name: str, config, **kwargs) -> CellResult:
        """:func:`replay` one pinned cell under ``name``; returns the
        first plain run so the gate can :meth:`note` facts about it."""
        self.say(f"{self.gate}: replaying {name}")
        record, first = replay(config, **kwargs)
        record["label"] = name
        record["detail"] = {"config": config.label(), **record["detail"]}
        self.cells.append(record)
        return first

    def note(self, **facts: Any) -> None:
        """Attach gate-specific facts to the cell replayed last."""
        self.cells[-1]["detail"].update(facts)

    def check(self, name: str, ok: bool) -> None:
        """Record one gate-level check (beyond per-cell bit-identity)."""
        self.checks[name] = bool(ok)

    def finish(self) -> Dict[str, Any]:
        ok = (bool(self.cells or self.checks)
              and all(cell_ok(c) for c in self.cells)
              and all(self.checks.values()))
        return {"schema": SMOKE_SCHEMA, "gate": self.gate, "ok": ok,
                "wall_s": time.time() - self._t0, "cells": self.cells,
                "checks": self.checks, "detail": self.detail}


def _detail_lines(detail: Dict[str, Any], indent: str) -> List[str]:
    # Scalars print as one line, lists one item per line; nested blocks
    # (manifest blocks, comparison tables) are JSON-only.
    lines = []
    for key, value in detail.items():
        if isinstance(value, list):
            lines.append(f"{indent}{key}:")
            lines += [f"{indent}    {item}" for item in value]
        elif not isinstance(value, dict):
            shown = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"{indent}{key:<18}: {shown}")
    return lines


def render_report(report: Dict[str, Any]) -> str:
    """Text rendering of one ``repro.smoke/v1`` gate report."""
    def same(flag: bool) -> str:
        return "identical" if flag else "DIVERGED"

    lines = []
    for c in report["cells"]:
        lines.append(f"cell {c['label']}")
        lines += _detail_lines(c["detail"], "  ")
        lines.append(f"  replay            : plain "
                     f"{same(c['identical_plain_rerun'])}  armed "
                     f"{same(c['identical_armed_rerun'])}")
        lines.append(f"  checkers          : "
                     f"{'ok' if c['validation_ok'] else 'VIOLATIONS'} "
                     f"({c['violation_count']} violations)")
    for name, ok in report["checks"].items():
        lines.append(f"check {name:<30}: {'ok' if ok else 'FAILED'}")
    lines += _detail_lines(report["detail"], "")
    lines.append(f"gate {report['gate']}: {'OK' if report['ok'] else 'FAILED'} "
                 f"(wall time {report['wall_s']:.1f}s)")
    return "\n".join(lines)


def run_check(report: SmokeReport, cells, *, n_fuzz: int,
              seed: int = SMOKE_SEED,
              checker_names: Optional[List[str]] = None,
              shrink_failures: bool = True) -> None:
    """Replay ``cells`` and fuzz ``n_fuzz`` randomized scenarios.

    The body of both ``repro check`` (any cells / checkers / fuzz count)
    and the pinned ``check`` gate.
    """
    for name, config in cells:
        report.replay(name, config, checker_names=checker_names)
    if n_fuzz <= 0:
        return

    def progress(i, n, result):
        if i % 10 == 0 or not result.ok:
            report.say(f"fuzz {i:3d}/{n}: {'ok' if result.ok else 'VIOLATION'}")

    fuzzed = fuzz(n=n_fuzz, seed=seed, shrink_failures=shrink_failures,
                  progress=progress, checker_names=checker_names)
    report.check("fuzz_clean", fuzzed.ok)
    report.detail["fuzz"] = fuzzed.as_dict()
    if not fuzzed.ok:
        report.detail["fuzz_failures"] = [
            f"minimal repro: {f.get('shrunk', f['scenario'])} — "
            + "; ".join(str(v) for v in f["violations"][:5])
            for f in fuzzed.failures]


# -- the gate table ------------------------------------------------------------
# Gate bodies import their families lazily: importing this module (or
# repro.experiments / repro.farm) must not load every subsystem.


def _gate_check(report: SmokeReport) -> None:
    # One RED protection-mode pair plus the other qdiscs: every queue
    # hot path at half the wall time of the full `repro check` list.
    cells = [(name, cfg) for name, cfg in smoke_cells() if name != "red-ece"]
    run_check(report, cells, n_fuzz=10)
    # The sweep's digest is pinned too, so a drift in the fuzzer's harness
    # fails the gate even when every scenario stays clean.
    fuzzed = report.detail["fuzz"]
    report.check("fuzz_digest", (fuzzed["total_events"],
                                 fuzzed["completed_flows"]) == (17_464, 71))


def _gate_mix(report: SmokeReport) -> None:
    cfg = mix_smoke_cell()
    cell = report.replay(cfg.label(), cfg, block="workloads")
    wl = cell.manifest["workloads"]
    rpc, bg = wl["rpc"], wl["background"]
    report.note(shuffle_runtime_s=cell.metrics.runtime,
                shuffle_flows=wl["shuffle"]["flows"],
                rpc_queries=rpc["queries_completed"],
                rpc_miss_rate=rpc["deadline_miss_rate"],
                rpc_qct_p99_s=rpc["qct_s"]["p99"],
                bg_flows=bg["flows"],
                bg_slowdown_p99=bg["slowdown"]["p99"])


def _gate_stability(report: SmokeReport) -> None:
    from repro.analysis.stability import StabilityAnalysis

    analysis = StabilityAnalysis()
    for name, expected, cfg in stability_smoke_cells():
        cell = report.replay(name, cfg, block="stability",
                             analyses=[analysis])
        block = cell.manifest["stability"]
        report.note(regime=block["classification"], expected=expected,
                    dominant=block["dominant_queue"])
        report.check(f"{name}_regime", block["classification"] == expected)


def _gate_fluid(report: SmokeReport) -> None:
    from repro.experiments.fidelity import fluid_smoke

    fluid_smoke(report)


def _gate_fixedk(report: SmokeReport) -> None:
    from repro.experiments.fixedk import fixedk_smoke_cells

    for label, cfg in fixedk_smoke_cells():
        block = report.replay(label, cfg, block="fixedk").manifest["fixedk"]
        rpc, up = block["rpc"], block["uplinks"]
        report.note(queries=rpc["queries_completed"],
                    qct_p99_s=rpc["qct_s"]["p99"],
                    slowdown_p99=rpc["responses"]["slowdown"]["p99"],
                    ack_loss_rate=up["ack_loss_rate"],
                    marks=up["marks"], drops_tail=up["drops_tail"])


def _gate_farm(report: SmokeReport) -> None:
    from repro.farm.smoke import run_smoke

    run_smoke(report)


def _gate_flaws(report: SmokeReport) -> None:
    from repro.experiments.flaws import FLAWS_PROFILES, flaws_cell, flaws_row

    alpha = {}
    for profile in FLAWS_PROFILES:
        row = flaws_row(profile, report.replay(profile or "fixed",
                                               flaws_cell(profile)))
        alpha[row.pop("profile")] = row["alpha_timeavg"]
        report.note(**row)
    # The pack's raison d'être: the flawed endpoints must overestimate
    # congestion on the pinned cell (time-averaged α, not the noisy
    # end-of-run snapshot).
    for flawed in ("linux-dctcp", "coalesce"):
        report.check(f"alpha_{flawed}_above_fixed",
                     alpha[flawed] > alpha["fixed"])


class Gate(NamedTuple):
    name: str
    description: str
    body: Callable[[SmokeReport], None]


GATES: Dict[str, Gate] = {g.name: g for g in (
    Gate("check", "fig2/3/4 cells (RED pair, DropTail, marking, CoDel) "
                  "+ a 10-scenario fuzz sweep", _gate_check),
    Gate("mix", "one shuffle + RPC + background coexistence cell, "
                "per-workload buckets in the digest", _gate_mix),
    Gate("stability", "two probe cells must classify limit-cycle / stable "
                      "with identical stability blocks", _gate_stability),
    Gate("fluid", "hybrid tier: bit-identical no-op on shuffle/fixedk "
                  "cells, pinned tolerances on the bulk cell", _gate_fluid),
    Gate("fixedk", "pinned 8-cell Fixed-K leaf-spine mini-grid, fixedk "
                   "block in the digest", _gate_fixedk),
    Gate("farm", "throwaway farm, two clients: dedup, results equal local "
                 "runs, cache-served resubmission, shutdown", _gate_farm),
    Gate("flaws", "Linux-DCTCP flaw profiles; flawed time-averaged alpha "
                  "must exceed the corrected stack's", _gate_flaws),
)}


def run_gate(name: str,
             say: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Run one gate of :data:`GATES`; returns its ``repro.smoke/v1`` report."""
    report = SmokeReport(name, say)
    GATES[name].body(report)
    return report.finish()
