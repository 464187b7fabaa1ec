"""Randomized scenario fuzzer for the invariant checkers.

Sweeps randomized :class:`~repro.experiments.scenario.Scenario` cells
from one master seed (same seed, same scenarios, same verdicts), runs
each through :func:`~repro.experiments.runner.run_cell` with checkers
armed, and greedily **shrinks** a failing one (fewer flows/bytes/hosts,
simpler traffic) to a minimal repro dict, replayable with
``run_scenario(Scenario(**d))``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.errors import ValidationError
from repro.experiments.runner import run_cell
from repro.experiments.scenario import AXES, Scenario
from repro.validate.checkers import build_suite

__all__ = ["Scenario", "ScenarioResult", "FuzzReport", "run_scenario",
           "fuzz", "shrink"]


class ScenarioResult(NamedTuple):
    """Outcome of one fuzz scenario."""

    scenario: Scenario
    ok: bool
    violations: List[str]
    completed_flows: int
    failed_flows: int
    events: int


def run_scenario(sc: Scenario,
                 checker_names: Optional[List[str]] = None) -> ScenarioResult:
    """Run one scenario through :func:`run_cell` with checkers armed.

    ``checker_names`` picks a subset of
    :data:`~repro.validate.checkers.CHECKER_NAMES` (default: all four,
    the TCP checker bounded by the scenario's RTO limits).
    """
    suite = build_suite(sc.validate(), checker_names)
    cell = run_cell(sc, checks=suite)
    return ScenarioResult(
        scenario=sc,
        ok=suite.ok,
        violations=[str(v) for v in suite.violations],
        completed_flows=cell.metrics.flows_completed,
        failed_flows=cell.metrics.flows_failed,
        events=int(cell.manifest["timings"]["events"]),
    )


# -- shrinking ----------------------------------------------------------------

def _reductions(sc: Scenario):
    """Candidate one-step simplifications, most aggressive first."""
    if sc.link_flap:
        yield replace(sc, link_flap=False)
    if sc.cc:
        yield replace(sc, cc="")  # the variant default is the simpler CC
    if sc.pattern != "bulk":
        yield replace(sc, pattern="bulk")  # bulk is the simplest traffic
    if sc.n_flows > 1:
        yield replace(sc, n_flows=max(1, sc.n_flows // 2))
    if sc.flow_bytes > 2_000:
        yield replace(sc, flow_bytes=max(2_000, sc.flow_bytes // 2))
    if sc.n_hosts > 2:
        yield replace(sc, n_hosts=max(2, sc.n_hosts // 2))
    if sc.topology == "dumbbell":
        yield replace(sc, topology="rack")
    if not sc.incast:
        yield replace(sc, incast=True)  # incast is the simpler fixed pattern
    if sc.buffer_packets > 8:
        yield replace(sc, buffer_packets=max(8, sc.buffer_packets // 2))


def shrink(sc: Scenario, max_attempts: int = 48,
           checker_names: Optional[List[str]] = None) -> Scenario:
    """Greedily reduce ``sc`` while it still violates an invariant.

    Returns the smallest still-failing scenario found within
    ``max_attempts`` re-runs (the original if no reduction reproduces).
    """
    current = sc
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand in _reductions(current):
            attempts += 1
            if not run_scenario(cand, checker_names).ok:
                current = cand
                improved = True
                break
            if attempts >= max_attempts:
                break
    return current


# -- the sweep ----------------------------------------------------------------

@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz sweep."""

    seed: int
    scenarios_run: int = 0
    total_events: int = 0
    completed_flows: int = 0
    failures: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no scenario breached any invariant."""
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "ok": self.ok}


def _random_scenario(gen: np.random.Generator, horizon_s: float) -> Scenario:
    def pick(axis: str) -> str:
        return AXES[axis][int(gen.integers(len(AXES[axis])))]

    # Keyword arguments evaluate left to right: this order is the draw order.
    return Scenario(
        topology=pick("topology"),
        n_hosts=int(gen.integers(3, 9)),
        qdisc=pick("qdisc"),
        protection=pick("protection"),
        variant=pick("variant"),
        buffer_packets=int(gen.integers(10, 80)),
        n_flows=int(gen.integers(2, 7)),
        flow_bytes=int(gen.integers(8_000, 60_000)),
        incast=bool(gen.integers(2)),
        link_flap=bool(gen.random() < 0.25),
        seed=int(gen.integers(2**31)),
        horizon_s=horizon_s,
        pattern=pick("pattern"),
        cc=pick("cc"),
    )


def fuzz(
    n: int = 50,
    seed: int = 0,
    shrink_failures: bool = True,
    horizon_s: float = 20.0,
    progress: Optional[Callable[[int, int, ScenarioResult], None]] = None,
    checker_names: Optional[List[str]] = None,
) -> FuzzReport:
    """Run ``n`` randomized scenarios derived from ``seed``.

    Fully deterministic: the same ``(n, seed)`` always produces the same
    scenarios and verdicts. Failing scenarios are shrunk (unless
    ``shrink_failures`` is off) and reported with both the original and
    the minimal repro dict. ``checker_names`` arms a checker subset
    (default: all four) for every run, shrink re-runs included.
    """
    if n < 1:
        raise ValidationError(f"need at least one scenario, got {n}")
    gen = np.random.Generator(np.random.PCG64(int(seed)))
    report = FuzzReport(seed=int(seed))
    for i in range(n):
        sc = _random_scenario(gen, horizon_s)
        result = run_scenario(sc, checker_names)
        report.scenarios_run += 1
        report.total_events += result.events
        report.completed_flows += result.completed_flows
        if not result.ok:
            entry: Dict[str, object] = {
                "scenario": sc.as_dict(),
                "violations": result.violations[:20],
            }
            if shrink_failures:
                entry["shrunk"] = shrink(
                    sc, checker_names=checker_names).as_dict()
            report.failures.append(entry)
        if progress is not None:
            progress(i + 1, n, result)
    return report
