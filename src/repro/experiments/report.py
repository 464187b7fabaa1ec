"""Claim checking and the EXPERIMENTS.md writer.

The paper's quantitative statements are encoded as :class:`ClaimResult`
checks over the measured grid (see DESIGN.md §4 for the claim inventory,
C1-C6). ``write_experiments_md`` runs everything and writes the
paper-vs-measured record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.figures import (
    Fig1Data,
    FigureData,
    fig1_queue_snapshot,
    fig2_runtime,
    fig3_throughput,
    fig4_latency,
    render_fig1,
    render_figure,
)
from repro.experiments.tables import render_table1, render_table2
from repro.tcp.endpoint import TcpVariant

__all__ = ["ClaimResult", "check_claims", "render_claims", "write_experiments_md"]


@dataclass
class ClaimResult:
    """One paper claim with its measured counterpart."""

    claim_id: str
    paper: str
    measured: str
    passed: bool


def _series_min(fig: FigureData, qlabel: str) -> float:
    """Best (minimum) normalized value of one queue label across variants."""
    return min(
        min(vals)
        for key, vals in fig.series.items()
        if key.endswith("/" + qlabel)
    )


def _series_max(fig: FigureData, qlabel: str) -> float:
    """Worst (maximum) normalized value of one queue label across variants."""
    return max(
        max(vals)
        for key, vals in fig.series.items()
        if key.endswith("/" + qlabel)
    )


def check_claims(scale: float = 1.0, seed: int = 42, progress=None,
                 jobs: int = 1) -> List[ClaimResult]:
    """Run the evaluation and check claims C1-C6 from DESIGN.md."""
    f2a = fig2_runtime(False, scale, seed, progress=progress, jobs=jobs)
    f3a = fig3_throughput(False, scale, seed)
    f4a = fig4_latency(False, scale, seed)
    f2b = fig2_runtime(True, scale, seed, progress=progress, jobs=jobs)
    f3b = fig3_throughput(True, scale, seed)
    f4b = fig4_latency(True, scale, seed)
    f1 = fig1_queue_snapshot(scale, seed)

    claims: List[ClaimResult] = []

    # C1 — default AQM at aggressive settings degrades throughput.
    dctcp_default_aggr = f2a.series[f"{TcpVariant.DCTCP}/red-default"][0]
    ecn_default_aggr = f2a.series[f"{TcpVariant.ECN}/red-default"][0]
    worst = max(dctcp_default_aggr, ecn_default_aggr)
    claims.append(ClaimResult(
        "C1",
        "Relying on default AQM marking degrades cluster throughput "
        "(prior work reported ~20% loss)",
        f"normalized runtime at most aggressive target delay: "
        f"TCP-ECN {ecn_default_aggr:.2f}x, DCTCP {dctcp_default_aggr:.2f}x "
        f"DropTail-shallow",
        worst > 1.05,
    ))

    # C2 — ECE-bit protection achieves the lowest latency band.
    ece_lat = _series_min(f4a, "red-ece")
    default_lat = _series_min(f4a, "red-default")
    claims.append(ClaimResult(
        "C2",
        "ECE-bit protection achieves the lowest latency while alleviating "
        "the throughput loss",
        f"best normalized latency shallow: red-ece {ece_lat:.2f}, "
        f"red-default {default_lat:.2f}; best runtime red-ece "
        f"{_series_min(f2a, 'red-ece'):.2f} vs red-default "
        f"{_series_min(f2a, 'red-default'):.2f}",
        ece_lat <= 0.5 and _series_min(f2a, "red-ece") <= _series_min(f2a, "red-default") + 0.02,
    ))

    # C3 — ACK+SYN / true marking recover full throughput (~+10% vs DropTail).
    mark_tput = _series_max(f3a, "marking")
    acksyn_tput = _series_max(f3a, "red-ack+syn")
    claims.append(ClaimResult(
        "C3",
        "ACK+SYN protection and the true marking scheme avoid the loss and "
        "boost throughput ~10% over DropTail",
        f"best normalized throughput shallow: marking {mark_tput:.2f}x, "
        f"red-ack+syn {acksyn_tput:.2f}x DropTail-shallow",
        mark_tput >= 1.05,
    ))

    # C4 — latency reduced by ~85% relative to deep DropTail.
    best_deep_lat = min(_series_min(f4b, q) for q in
                        ("red-ece", "red-ack+syn", "marking"))
    claims.append(ClaimResult(
        "C4",
        "Latency reduced by about 85% (vs DropTail with deep buffers)",
        f"best normalized latency deep: {best_deep_lat:.3f} "
        f"(= {100 * (1 - best_deep_lat):.0f}% reduction)",
        best_deep_lat <= 0.25,
    ))

    # C5 — shallow switches reach deep-switch throughput with marking.
    mark_deep_tput = _series_max(f3b, "marking")
    claims.append(ClaimResult(
        "C5",
        "Commodity shallow-buffer switches reach the same throughput as "
        "deep-buffer switches under a true marking scheme",
        f"best marking throughput: shallow {mark_tput:.2f}x vs deep "
        f"{mark_deep_tput:.2f}x (both normalized to DropTail-shallow)",
        abs(mark_tput - mark_deep_tput) <= 0.10 * max(mark_tput, mark_deep_tput),
    ))

    # C6 — ACK drops are disproportionate to ACK traffic share.
    claims.append(ClaimResult(
        "C6",
        "Default ECN-enabled AQM drops a disproportionate number of ACKs "
        "(ECT data is marked instead of dropped)",
        f"pure ACKs are {f1.ack_arrival_share:.1%} of arrivals but "
        f"{f1.ack_drop_share:.1%} of drops; ECT drop rate "
        f"{f1.ect_drop_rate:.2%}, marks {f1.marks}",
        f1.ack_drop_share > 1.5 * f1.ack_arrival_share and f1.ect_drop_rate < 0.01,
    ))

    return claims


def render_claims(claims: List[ClaimResult]) -> str:
    """ASCII table of claim outcomes."""
    lines = ["Paper claims vs measured", "=" * 24]
    for c in claims:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.claim_id}: {c.paper}")
        lines.append(f"       measured: {c.measured}")
    return "\n".join(lines)


_PARALLEL_SWEEPS_SECTION = """\
## Parallel sweeps

The grid behind the figures (the `paper` preset of `repro grid`) can be
fanned out over worker processes and resumed from an on-disk result
cache:

```bash
repro-hadoop-ecn grid paper --jobs 8 --cache-dir .sweep-cache            # shallow grid
repro-hadoop-ecn grid paper --jobs 8 --cache-dir .sweep-cache --resume   # pick up where an interrupt left off
repro-hadoop-ecn fig2 --jobs 8 --scale 0.5                               # figures accept --jobs too
```

Every cell is a pure function of its `ExperimentConfig` (own kernel, own
seeded RNG registry), so `--jobs N` is **bit-identical** to the serial
run and cache hits are bit-identical to fresh executions
(`tests/test_parallel.py` pins both). Cells are cached one JSON file
each under `--cache-dir`, keyed by the SHA-256 of the canonicalised
config; `--resume` skips any cell whose key is already present.

Cache-key caveat: the key covers the *config*, not the simulator code.
After changing simulation behaviour (queues, TCP, engine), use a fresh
`--cache-dir` — an old entry for an unchanged config would be served
as-is. Entries record the package version and `git describe` for
auditing. Editing any config field (scale, seed, delays, …) changes the
key, so stale-config collisions cannot happen.
"""

_BENCHMARKS_SECTION = """\
## Performance benchmarks

One measuring device: the layered suite under `benchmarks/suite/`
(workloads, metrics and bounds declared in `BENCHMARK.json`, measurement
method in `benchmarks/suite/README.md`), driven through `repro bench`. A
performance number counts when it is a committed
`benchmarks/BENCH_<stamp>.json` trajectory point:

```bash
repro-hadoop-ecn bench --seed 42 --repeat 4                     # all five workloads → benchmarks/BENCH_<stamp>.json
repro-hadoop-ecn bench --workload shuffle-bulk --seed 1 --seconds 3 --out b.json   # what CI runs per workload
repro-hadoop-ecn bench --compare benchmarks/BENCH_A.json benchmarks/BENCH_B.json   # B judged against A
```

Every argument but `--out` and `--compare` is `benchmarks/suite/run.py`'s.
The `repro.suite_result/v1` file holds, per workload and seed, the
end-to-end metrics of an untraced run, the per-layer metrics of one traced
run, each run's `sim_digest`, failures and the host record, in
reference-host seconds; `--compare` judges each metric against its bound
and exits 1 on a `worse` row or a rise in failures.

Determinism guarantees the suite leans on (and re-verifies through
`sim_digest` and its repeat-cell checks): event ties break FIFO via
per-simulator sequence numbers, every random draw comes from named seeded
streams, packet ids are a per-run counter (two back-to-back cells in one
process yield identical traces), and lazy cancellation + heap compaction
never reorder live events (`tests/test_perf_and_determinism.py` pins all
four).
"""


_VALIDATION_SECTION = """\
## Validation

Every number above can be re-derived with the simulation invariant
checkers armed (`repro.validate`): packet conservation (each packet
delivered, dropped, lost, or physically in flight exactly once at the
end of the run), queue counter equations, TCP sequence-space
monotonicity, and the event kernel's own self-audit. The checkers are
pure trace-bus observers, so an armed run is bit-identical to an
unarmed one — `repro-hadoop-ecn check` runs each representative cell
plain, plain again and armed, and fails unless the three run
fingerprints match exactly.

```bash
repro-hadoop-ecn check            # figure cells + 50 randomized fuzz scenarios
repro-hadoop-ecn smoke check      # the pinned CI gate (5 cells + 10 scenarios)
```

The randomized scenario fuzzer behind the second half of `check`
sweeps topologies x five qdiscs x protection modes x TCP variants x CC
overrides x seeds (incast fan-in, link-flap blackouts, shallow buffers)
from one master seed and shrinks any failure to a minimal repro dict;
`tests/test_validate.py` pins a 50-scenario sweep at seed 42 with zero
violations.
"""


def write_experiments_md(path: str, scale: float = 1.0, seed: int = 42,
                         progress=None, jobs: int = 1) -> str:
    """Run the full evaluation and write EXPERIMENTS.md; returns the text."""
    figs = [
        fig2_runtime(False, scale, seed, progress=progress, jobs=jobs),
        fig2_runtime(True, scale, seed, progress=progress, jobs=jobs),
        fig3_throughput(False, scale, seed),
        fig3_throughput(True, scale, seed),
        fig4_latency(False, scale, seed),
        fig4_latency(True, scale, seed),
    ]
    f1 = fig1_queue_snapshot(scale, seed)
    claims = check_claims(scale, seed)

    parts: List[str] = []
    parts.append("# EXPERIMENTS — paper vs measured\n")
    parts.append(
        f"All simulations: 16-node single-rack cluster, 1 Gbps links, "
        f"scaled Terasort (scale={scale}, seed={seed}). Values are "
        f"normalized exactly as the paper normalizes them (runtime and "
        f"throughput to DropTail-shallow; latency to DropTail at the same "
        f"buffer depth). We reproduce shapes and orderings, not absolute "
        f"testbed numbers.\n"
    )
    parts.append("## Tables I & II\n")
    parts.append("```\n" + render_table1() + "\n\n" + render_table2() + "\n```\n")
    parts.append("## Figure 1\n")
    parts.append("```\n" + render_fig1(f1) + "\n```\n")
    for fig in figs:
        parts.append(f"## {fig.name}\n")
        parts.append("```\n" + render_figure(fig) + "\n```\n")
    parts.append("## Claim checks\n")
    parts.append("```\n" + render_claims(claims) + "\n```\n")
    n_pass = sum(c.passed for c in claims)
    parts.append(f"\n**{n_pass}/{len(claims)} claims reproduced.**\n")
    parts.append(_PARALLEL_SWEEPS_SECTION)
    parts.append(_BENCHMARKS_SECTION)
    parts.append(_VALIDATION_SECTION)

    text = "\n".join(parts)
    with open(path, "w") as fh:
        fh.write(text)
    return text
