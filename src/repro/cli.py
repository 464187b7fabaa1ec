"""Command-line interface: ``repro-hadoop-ecn`` / ``python -m repro``.

Each verb's ``--help`` is its reference; in brief:

* paper artifacts — ``tables``, ``fig1``, ``fig2|fig3|fig4`` (``--deep``
  for (b)), ``claims`` (C1-C6), ``report`` (writes EXPERIMENTS.md);
* ``grid NAME`` — run a named grid of cells (``paper``, ``mix``,
  ``fixedk``; :data:`repro.experiments.grids.GRIDS`) with ``--axis
  A=v1,v2`` overrides, locally (``--jobs`` / ``--cache-dir`` /
  ``--resume``) or on a running farm (``--farm SOCKET``); both print the
  preset's table and the same executed/cached footer;
* one configuration — ``cell`` (``--json`` for the run manifest),
  ``profile`` (event-loop profiler), ``trace`` (JSONL event export);
* validation — ``check`` (armed invariant checkers + scenario fuzzing),
  ``smoke [NAME…]`` (the pinned CI gates, DESIGN.md §10), ``flaws``
  (the Linux-DCTCP flaws pack), ``stability`` (auto-refining stability
  sweeps over probe cells; not a grid, DESIGN.md §9);
* service — ``serve`` (the sweep-farm scheduler), ``farm`` (its client:
  status, results, watch, cancel, shutdown), ``cache`` (list, stats and
  prune a result cache, ``--keep-grid NAME`` by a grid's work list);
* ``bench`` — run ``benchmarks/suite/run.py`` of the checkout and write
  a ``benchmarks/BENCH_<stamp>.json`` point (``--compare A B`` judges two).

``--scale`` shrinks the Terasort dataset for quick looks (1.0 = the 256 MB
reference configuration; 0.25 runs in roughly a quarter of the time).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from repro.core.protection import ProtectionMode
from repro.core.registry import qdisc_entry, qdisc_names
from repro.experiments.config import (
    DEEP_BUFFER_PACKETS,
    SHALLOW_BUFFER_PACKETS,
    ExperimentConfig,
    QueueSetup,
)
from repro.experiments.figures import (
    fig1_queue_snapshot,
    fig2_runtime,
    fig3_throughput,
    fig4_latency,
    render_fig1,
    render_figure,
)
from repro.experiments.grids import GRIDS
from repro.experiments.report import check_claims, render_claims, write_experiments_md
from repro.experiments.runner import run_cell
from repro.experiments.tables import render_table1, render_table2
from repro.tcp.cc import cc_names
from repro.tcp.endpoint import FLAW_PROFILES, TcpVariant
from repro.telemetry.profiler import ProgressReporter
from repro.units import fmt_rate, fmt_time, us

__all__ = ["main"]


def _say(msg: str) -> None:
    # Progress line of the smoke gates and `check` (unless --quiet).
    print(f"  {msg}", file=sys.stderr)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale factor (default 1.0 = 256 MB)")
    p.add_argument("--seed", type=int, default=42, help="experiment seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hadoop-ecn",
        description="Reproduce 'High Throughput and Low Latency on Hadoop "
                    "Clusters using ECN' (CLUSTER 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I and II").set_defaults(
        handler=_cmd_tables)

    p1 = sub.add_parser("fig1", help="queue snapshot + ACK drop asymmetry")
    p1.add_argument("--svg", metavar="PATH",
                    help="also write the figure as an SVG file")
    _add_common(p1)
    p1.set_defaults(handler=_cmd_fig1)

    for name, help_text in (
        ("fig2", "Hadoop runtime vs target delay"),
        ("fig3", "cluster throughput vs target delay"),
        ("fig4", "network latency vs target delay"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--deep", action="store_true",
                       help="deep-buffer variant (sub-figure b)")
        p.add_argument("--svg", metavar="PATH",
                       help="also write the figure as an SVG file")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the underlying sweep "
                            "(default 1 = serial; results are identical)")
        _add_common(p)
        p.set_defaults(handler=_cmd_figure)

    pc = sub.add_parser("claims", help="check paper claims C1-C6")
    pc.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the underlying sweeps")
    _add_common(pc)
    pc.set_defaults(handler=_cmd_claims)

    pr = sub.add_parser("report", help="write EXPERIMENTS.md")
    pr.add_argument("--out", default="EXPERIMENTS.md", help="output path")
    pr.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the underlying sweeps")
    _add_common(pr)
    pr.set_defaults(handler=_cmd_report)

    def _add_cell_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--queue",
                       choices=list(qdisc_names()),
                       default="red")
        p.add_argument("--protection",
                       choices=[m.value for m in ProtectionMode],
                       default="default")
        p.add_argument("--variant",
                       choices=[v.value for v in TcpVariant],
                       default=TcpVariant.ECN.value)
        p.add_argument("--cc", choices=list(cc_names()), default=None,
                       help="congestion-control override (registry key; "
                            "default: the variant's own CC)")
        p.add_argument("--flaw-profile", choices=sorted(FLAW_PROFILES),
                       default=None,
                       help="re-enable a Linux-DCTCP endpoint flaw "
                            "profile (default: corrected stack)")
        p.add_argument("--deep", action="store_true")
        p.add_argument("--target-delay-us", type=float, default=500.0)
        _add_common(p)

    pgrid = sub.add_parser(
        "grid",
        help="run a named grid of cells (paper, mix, fixedk) locally, in "
             "parallel against a resumable result cache, or through a "
             "running `repro serve` farm",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="grids (axes with their defaults):\n" + "\n".join(
            f"  {name:<7} {g.description}" + "".join(
                f"\n          --axis {a}={','.join(map(str, ax.default))}"
                for a, ax in g.axes.items())
            for name, g in GRIDS.items()))
    pgrid.add_argument("name", metavar="NAME", help="grid preset (below)")
    pgrid.add_argument("--axis", action="append", default=[],
                       metavar="A=V1,V2",
                       help="override one axis of the preset (repeatable)")
    pgrid.add_argument("--limit", type=int, default=None, metavar="N",
                       help="run only the first N cells")
    pgrid.add_argument("--manifest", metavar="PATH",
                       help="write the merged sweep manifest as JSON")
    pgrid.add_argument("--svg", metavar="PREFIX",
                       help="write the preset's figures as "
                            "PREFIX_<id>.svg (fixedk: one regime map per "
                            "variant/protection/fan-in slice)")
    local = pgrid.add_argument_group("local run")
    local.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default 1 = serial; "
                            "parallel results are bit-identical)")
    local.add_argument("--cache-dir", metavar="DIR",
                       help="persist per-cell results here, keyed by "
                            "config content")
    local.add_argument("--resume", action="store_true",
                       help="skip cells already present in --cache-dir")
    remote = pgrid.add_argument_group("farm run")
    remote.add_argument("--farm", metavar="SOCKET",
                        help="submit the cells to the `repro serve` farm "
                             "on this Unix socket, stream its progress and "
                             "fetch the results")
    remote.add_argument("--priority", type=int, default=None, metavar="P",
                        help="farm job priority (higher runs first and may "
                             "preempt lower-priority cells; default 0)")
    _add_common(pgrid)
    pgrid.set_defaults(handler=_cmd_grid)

    pcell = sub.add_parser("cell", help="run one configuration")
    pcell.add_argument("--json", nargs="?", const="-", metavar="PATH",
                       help="emit the run manifest as JSON to PATH "
                            "(default: stdout) instead of the text summary")
    _add_cell_options(pcell)
    pcell.set_defaults(handler=_cmd_cell)

    pprof = sub.add_parser(
        "profile", help="profile the event loop over one configuration")
    pprof.add_argument("--json", nargs="?", const="-", metavar="PATH",
                       help="emit the profile report as JSON")
    _add_cell_options(pprof)
    pprof.set_defaults(handler=_cmd_profile)

    ptrace = sub.add_parser(
        "trace", help="export a JSONL event trace of one configuration")
    ptrace.add_argument("--kinds", default="drop,mark,deliver",
                        help="comma-separated event kinds (default "
                             "drop,mark,deliver; also: enqueue,tx,link_loss,"
                             "queue.sample,tcp.cwnd,tcp.retx,tcp.rto,tcp.ece)")
    ptrace.add_argument("--out", default="trace.jsonl", metavar="PATH",
                        help="output file ('-' for stdout)")
    ptrace.add_argument("--queue-interval-us", type=float, default=None,
                        help="also sample queue composition on this period "
                             "(emits queue.sample records)")
    _add_cell_options(ptrace)
    ptrace.set_defaults(handler=_cmd_trace)

    pcheck = sub.add_parser(
        "check",
        help="arm the simulation invariant checkers on representative "
             "figure cells (plus a randomized scenario fuzz sweep) and "
             "verify armed runs stay bit-identical")
    pcheck.add_argument("--fuzz", type=int, default=50, metavar="N",
                        help="randomized scenarios to run (default 50; "
                             "0 disables fuzzing)")
    pcheck.add_argument("--checkers", default=",".join(
                            "conservation queues tcp engine".split()),
                        help="comma-separated checker subset (default: "
                             "all four)")
    pcheck.add_argument("--no-shrink", action="store_true",
                        help="report failing fuzz scenarios without "
                             "shrinking them")
    pcheck.add_argument("--json", nargs="?", const="-", metavar="PATH",
                        help="emit the full check report as JSON")
    pcheck.add_argument("--scale", type=float, default=None,
                        help="dataset scale for the armed cells "
                             "(default 0.03125)")
    pcheck.add_argument("--seed", type=int, default=42, help="master seed")
    pcheck.add_argument("--quiet", action="store_true",
                        help="suppress progress")
    pcheck.set_defaults(handler=_cmd_check)

    pstab = sub.add_parser(
        "stability",
        help="stability observatory: sweep one control-loop parameter "
             "with steady-state incast probe cells, classify each point "
             "(stable / limit-cycle / chaotic-irregular), refine the "
             "grid near regime boundaries, and write the stability map "
             "(SVG + JSON)")
    pstab.add_argument("--axis", choices=["target-delay", "dctcp-g"],
                       default="target-delay",
                       help="parameter to sweep (target-delay sets the "
                            "ECN threshold K; default target-delay)")
    pstab.add_argument("--values", default=None, metavar="V1,V2,...",
                       help="initial sweep grid — microseconds for "
                            "target-delay, raw gain for dctcp-g "
                            "(default: 50,100,200,500,1000 / "
                            "0.02,0.0625,0.25,0.5)")
    pstab.add_argument("--queue", choices=["red", "marking", "codel"],
                       default="marking",
                       help="probe queue discipline (default marking)")
    pstab.add_argument("--variant",
                       choices=[v.value for v in TcpVariant],
                       default=TcpVariant.DCTCP.value,
                       help="probe transport (default dctcp)")
    pstab.add_argument("--senders", type=int, default=4, metavar="N",
                       help="incast fan-in of each probe cell (default 4)")
    pstab.add_argument("--duration-s", type=float, default=1.0,
                       help="simulated seconds each probe holds the loop "
                            "in steady state (default 1.0)")
    pstab.add_argument("--rounds", type=int, default=3, metavar="N",
                       help="max automatic refinement passes near "
                            "detected regime boundaries (default 3)")
    pstab.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default 1 = serial)")
    pstab.add_argument("--cache-dir", metavar="DIR",
                       help="persist per-cell results here, keyed by "
                            "config content")
    pstab.add_argument("--resume", action="store_true",
                       help="skip cells already present in --cache-dir")
    pstab.add_argument("--svg", metavar="PATH", default="stability_map.svg",
                       help="stability-map SVG path "
                            "(default stability_map.svg)")
    pstab.add_argument("--json", metavar="PATH", default="stability_map.json",
                       help="stability-map JSON path "
                            "(default stability_map.json)")
    pstab.add_argument("--seed", type=int, default=42, help="probe seed")
    pstab.add_argument("--quiet", action="store_true",
                       help="suppress progress")
    pstab.set_defaults(handler=_cmd_stability)

    pflaws = sub.add_parser(
        "flaws",
        help="Linux-DCTCP flaws pack: flawed vs corrected endpoint "
             "fidelity on one pinned tiny-buffer incast cell")
    pflaws.add_argument("--duration-s", type=float, default=1.0,
                        metavar="S",
                        help="simulated horizon per profile (default 1.0)")
    pflaws.add_argument("--json", nargs="?", const="-", metavar="PATH",
                        help="emit the comparison rows as JSON to PATH "
                             "(default: stdout)")
    pflaws.add_argument("--seed", type=int, default=42, help="cell seed")
    pflaws.add_argument("--quiet", action="store_true",
                        help="suppress progress")
    pflaws.set_defaults(handler=_cmd_flaws)

    pbench = sub.add_parser(
        "bench",
        help="run the layered benchmark suite (benchmarks/suite/run.py) "
             "and write benchmarks/BENCH_<stamp>.json",
        epilog="Every other argument is the suite's own and is passed on "
               "verbatim (--workload --seed --repeat --seconds: see "
               "benchmarks/suite/README.md); the exit code is the suite's.")
    bench_mode = pbench.add_mutually_exclusive_group()
    bench_mode.add_argument("--out", metavar="PATH",
                            help="result file (default: benchmarks/"
                                 "BENCH_<YYYYMMDD-HHMMSS>.json)")
    bench_mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                            help="run nothing: judge result file B against "
                                 "A with benchmarks/suite/compare.py")
    pbench.set_defaults(handler=_cmd_bench)

    pserve = sub.add_parser(
        "serve",
        help="run the sweep-farm scheduler: a daemonized job-queue "
             "service that owns a result cache, a crash-safe journal and "
             "an artifact store, drives N worker processes, and answers "
             "submit/status/results/cancel/watch as JSON over a Unix "
             "socket (restarting after a kill resumes from the journal)")
    pserve.add_argument("--farm-dir", required=True, metavar="DIR",
                        help="service state directory (cache/, artifacts/, "
                             "journal.jsonl, farm.sock); an existing "
                             "directory is resumed, not wiped")
    pserve.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default 2)")
    pserve.add_argument("--socket", metavar="PATH", default=None,
                        help="Unix-socket override (default "
                             "<farm-dir>/farm.sock; AF_UNIX paths are "
                             "length-limited — use /tmp for deep trees)")
    pserve.add_argument("--checkpoint-s", type=float, default=0.25,
                        metavar="S",
                        help="simulated seconds between preemption "
                             "checkpoints in workers (default 0.25)")
    pserve.set_defaults(handler=_cmd_serve)

    pfarm = sub.add_parser(
        "farm",
        help="sweep-farm client: inspect a running `repro serve` instance "
             "(submit with `repro grid NAME --farm SOCKET`)")
    pfarm.add_argument("--socket", metavar="PATH",
                       help="the farm's Unix socket "
                            "(<farm-dir>/farm.sock)")
    pfarm.add_argument("--ping", action="store_true",
                       help="liveness check")
    pfarm.add_argument("--stats", action="store_true",
                       help="scheduler counters: jobs, units, workers, "
                            "preemptions, cache")
    pfarm.add_argument("--status", nargs="?", const="", metavar="JOB",
                       help="one job's per-label status, or all jobs "
                            "when no id is given")
    pfarm.add_argument("--results", metavar="JOB",
                       help="fetch a job's results (cache-entry "
                            "documents) as JSON")
    pfarm.add_argument("--out", metavar="PATH", default="-",
                       help="where --results writes ('-' = stdout)")
    pfarm.add_argument("--watch", metavar="JOB",
                       help="stream a job's live progress events")
    pfarm.add_argument("--cancel", metavar="JOB",
                       help="cancel a job (running cells are preempted)")
    pfarm.add_argument("--shutdown", action="store_true",
                       help="drain in-flight cells and stop the farm")
    pfarm.set_defaults(handler=_cmd_farm)

    pcache = sub.add_parser(
        "cache",
        help="inspect and prune a content-addressed result cache "
             "(the --cache-dir of grid/stability, or a "
             "farm's <farm-dir>/cache)")
    pcache.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="the cache directory to inspect")
    pcache.add_argument("--stats", action="store_true",
                        help="print summary statistics as JSON instead "
                             "of the entry listing")
    pcache.add_argument("--prune-age", type=float, default=None,
                        metavar="HOURS",
                        help="remove entries older than HOURS (also "
                             "collects corrupt entries and stale *.tmp "
                             "files)")
    pcache.add_argument("--keep-grid", metavar="NAME", default=None,
                        help="remove entries NOT in the named `grid` "
                             "preset's work list (grid-membership prune; "
                             "--axis/--scale/--seed rebuild its keys)")
    pcache.add_argument("--axis", action="append", default=[],
                        metavar="A=V1,V2",
                        help="axis override of the --keep-grid preset")
    pcache.add_argument("--dry-run", action="store_true",
                        help="report what would be pruned without "
                             "deleting anything")
    pcache.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale of the --keep-grid cells")
    pcache.add_argument("--seed", type=int, default=42,
                        help="seed of the --keep-grid cells")
    pcache.set_defaults(handler=_cmd_cache)

    from repro.validate.smoke import GATES

    psmoke = sub.add_parser(
        "smoke",
        help="run the pinned CI smoke gates: each replays its cells plain, "
             "plain again and with the invariant checkers armed, and must "
             "stay bit-identical with zero violations (plus its own checks)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="gates:\n" + "\n".join(
            f"  {g.name:<10} {g.description}" for g in GATES.values()))
    psmoke.add_argument("names", nargs="*", metavar="NAME",
                        help="gates to run (default: all, in table order)")
    psmoke.add_argument("--json", metavar="PATH",
                        help="write the repro.smoke/v1 reports as JSON")
    psmoke.add_argument("--quiet", action="store_true",
                        help="suppress progress")
    psmoke.set_defaults(handler=_cmd_gates)

    return parser


def _cell_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the ExperimentConfig shared by cell/profile/trace."""
    needs_td = qdisc_entry(args.queue).needs_target_delay
    queue = QueueSetup(
        kind=args.queue,
        buffer_packets=DEEP_BUFFER_PACKETS if args.deep else SHALLOW_BUFFER_PACKETS,
        target_delay_s=us(args.target_delay_us) if needs_td else None,
        protection=ProtectionMode(args.protection),
    )
    return ExperimentConfig(
        queue=queue,
        variant=TcpVariant(args.variant),
        seed=args.seed,
        cc=args.cc,
        flaw_profile=args.flaw_profile,
    ).scaled(args.scale)


def _write_text(dest: str, text: str) -> int:
    """Write ``text`` to the file ``dest``; returns an exit code."""
    try:
        with open(dest, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {dest}: {exc.strerror}", file=sys.stderr)
        return 1
    print(f"wrote {dest}", file=sys.stderr)
    return 0


def _emit_json(payload, dest: str) -> int:
    """Write JSON to a path or stdout (dest '-'); returns an exit code."""
    text = json.dumps(payload, indent=2)
    if dest == "-":
        print(text)
        return 0
    return _write_text(dest, text + "\n")


def _open_grid(verb: str, args: argparse.Namespace, build):
    """Front half the grid verbs (grid / stability) share.

    Validates ``--resume`` / ``--limit``, calls ``build()`` for the
    verb's work list (``None`` = the verb already printed why not), trims
    it to ``--limit``, opens the result cache and builds the progress
    reporter. Returns ``(work, cache, progress)``, or the exit code 2
    after printing ``<verb>: <reason>`` to stderr.
    """
    from repro.errors import ConfigError, ExperimentError
    from repro.experiments.cache import ResultCache

    def refuse(reason: str) -> int:
        print(f"{verb}: {reason}", file=sys.stderr)
        return 2

    limit = getattr(args, "limit", None)
    if args.resume and not args.cache_dir:
        return refuse("--resume needs --cache-dir (nothing to resume from)")
    if limit is not None and limit < 1:
        return refuse(f"--limit must be >= 1 (got {limit})")
    try:
        work = build()
        if work is None:
            return 2
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
    except (ExperimentError, ConfigError) as exc:
        return refuse(str(exc))
    if limit is not None:
        work = work[:limit]
    return work, cache, _progress(args)


def _progress(args: argparse.Namespace):
    """The stderr progress printer of every multi-cell verb (or None
    under ``--quiet``)."""
    return None if args.quiet else ProgressReporter()


def _cmd_tables(args: argparse.Namespace) -> int:
    print(render_table1())
    print()
    print(render_table2())
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    data = fig1_queue_snapshot(args.scale, args.seed)
    print(render_fig1(data))
    if args.svg:
        from repro.plotting import queue_snapshot_to_svg

        return _write_text(args.svg, queue_snapshot_to_svg(
            data.snapshot, data.mark_threshold_packets))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fn = {"fig2": fig2_runtime, "fig3": fig3_throughput,
          "fig4": fig4_latency}[args.command]
    fig = fn(args.deep, args.scale, args.seed, progress=_progress(args),
             jobs=args.jobs)
    print(render_figure(fig))
    if args.svg:
        from repro.plotting import figure_to_svg

        return _write_text(args.svg, figure_to_svg(fig))
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    print(render_claims(check_claims(
        args.scale, args.seed, progress=_progress(args), jobs=args.jobs)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    write_experiments_md(args.out, args.scale, args.seed,
                         progress=_progress(args), jobs=args.jobs)
    print(f"wrote {args.out}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.experiments.grids import grid_work
    from repro.experiments.parallel import run_cells

    def refuse(reason: str) -> int:
        print(f"grid: {reason}", file=sys.stderr)
        return 2

    preset = GRIDS.get(args.name)  # None: grid_work names the choices
    if args.farm and (args.jobs is not None or args.cache_dir
                      or args.resume):
        return refuse("--jobs/--cache-dir/--resume run cells locally; "
                      "they do not combine with --farm")
    if args.priority is not None and not args.farm:
        return refuse("--priority orders a farm's queue: it needs --farm")
    if args.svg and preset and preset.figures is None:
        return refuse(f"grid {args.name} draws no figures (--svg)")

    axes = {}

    def build():
        resolved, work = grid_work(args.name, args.axis, args.scale,
                                   args.seed)
        axes.update(resolved)
        return work

    opened = _open_grid("grid", args, build)
    if isinstance(opened, int):
        return opened
    todo, cache, progress = opened
    if args.farm:
        report = _farm_run(args.farm, todo, args.priority or 0, progress)
        if isinstance(report, int):
            return report
    else:
        report = run_cells(todo, jobs=args.jobs or 1, cache=cache,
                           resume=args.resume, progress=progress)

    print(preset.render(report.results))
    print()
    print(f"cells    : {len(report.results)} total — "
          f"{len(report.executed)} executed, {len(report.cached)} cached")
    print(f"wall time: {report.wall_s:.1f}s")
    if cache is not None:
        print(f"cache    : {args.cache_dir} ({len(cache)} entries)")
    for suffix, svg in (preset.figures(report.results) if args.svg else ()):
        if _write_text(f"{args.svg}_{suffix}.svg", svg):
            return 1
    if args.manifest:
        from repro.telemetry.manifest import build_sweep_manifest

        doc = build_sweep_manifest(
            {label: res.manifest for label, res in report.results.items()},
            kind_detail=args.name, axes=axes, scale=args.scale,
            seed=args.seed, jobs=report.jobs, executed=report.executed,
            cached=report.cached, wall_s=report.wall_s)
        if preset.extras is not None:
            doc.update(preset.extras(report.results))
        return _emit_json(doc, args.manifest)
    return 0


def _farm_run(socket_path: str, todo, priority: int, progress):
    """Run ``todo`` as one farm job: submit, stream progress, fetch.

    Returns a :class:`SweepReport` shaped like a local ``run_cells`` one
    (``jobs`` 0: no local workers; a cell deduplicated onto another
    waiter's execution counts as executed), or exit code 1.
    """
    from repro.errors import FarmError
    from repro.experiments.parallel import SweepReport
    from repro.farm.client import FarmClient

    t0 = time.perf_counter()
    client = FarmClient(socket_path)
    try:
        job = client.submit(todo, priority=priority)["id"]
        ev = {}
        for ev in client.watch(job, timeout=None):  # ends at job_done
            if ev.get("ev") == "progress" and progress is not None:
                progress(ev["done"], ev["total"], ev["label"])
        if ev.get("ev") != "job_done" or ev["state"] != "done":
            print(f"grid: farm job {job} {ev.get('state', 'lost')}",
                  file=sys.stderr)
            return 1
        outcomes = client.status(job)["labels"]
        fetched = client.fetch(job)
    except FarmError as exc:
        print(f"grid: {exc}", file=sys.stderr)
        return 1
    return SweepReport(
        results={label: fetched[label] for label, _cfg in todo},
        executed=[lb for lb, o in outcomes.items() if o != "cached"],
        cached=[lb for lb, o in outcomes.items() if o == "cached"],
        jobs=0, wall_s=time.perf_counter() - t0)


#: Default bifurcation grids per axis (target-delay values in µs).
_STABILITY_GRIDS = {
    "target-delay": (50.0, 100.0, 200.0, 500.0, 1000.0),
    "dctcp-g": (0.02, 0.0625, 0.25, 0.5),
}


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.bifurcation import (
        render_regime_table,
        run_bifurcation,
    )
    from repro.experiments.probe import StabilityProbeConfig

    def axis_values():
        if args.rounds < 0:
            print(f"stability: --rounds must be >= 0 (got {args.rounds})",
                  file=sys.stderr)
            return None
        raw = args.values or ",".join(str(v)
                                      for v in _STABILITY_GRIDS[args.axis])
        try:
            values = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            print(f"stability: --values must be comma-separated numbers "
                  f"(got {raw!r})", file=sys.stderr)
            return None
        if args.axis == "target-delay":
            values = [us(v) for v in values]
        return values

    opened = _open_grid("stability", args, axis_values)
    if isinstance(opened, int):
        return opened
    values, cache, progress = opened

    base = StabilityProbeConfig(
        queue=QueueSetup(kind=args.queue, target_delay_s=us(200.0)),
        variant=TcpVariant(args.variant),
        n_senders=args.senders,
        duration_s=args.duration_s,
        seed=args.seed,
    )
    try:
        m = run_bifurcation(base, args.axis, values, rounds=args.rounds,
                            jobs=args.jobs, cache=cache,
                            resume=args.resume, progress=progress)
    except ExperimentError as exc:
        print(f"stability: {exc}", file=sys.stderr)
        return 2

    print(render_regime_table(m))
    rc = _emit_json(m.to_dict(), args.json)
    if rc != 0:
        return rc
    if args.svg:
        from repro.plotting import regime_map_to_svg

        return _write_text(args.svg, regime_map_to_svg(m))
    return 0


def _cmd_flaws(args: argparse.Namespace) -> int:
    from repro.experiments.flaws import render_flaws_table, run_flaws

    t0 = time.time()
    cells, rows = run_flaws(seed=args.seed, duration_s=args.duration_s)
    print(render_flaws_table(rows))
    if not args.quiet:
        print(f"(5 profiles, wall time {time.time() - t0:.1f}s)",
              file=sys.stderr)
    if args.json:
        return _emit_json({"schema": "repro.flaws/v1", "seed": args.seed,
                           "duration_s": args.duration_s, "rows": rows},
                          args.json)
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    cfg = _cell_config(args)
    t0 = time.time()
    cell = run_cell(cfg)
    if args.json is not None:
        return _emit_json(cell.manifest, args.json)
    m = cell.metrics
    q = m.queue
    print(f"cell     : {cfg.label()}")
    print(f"runtime  : {fmt_time(m.runtime)}")
    print(f"tput/node: {fmt_rate(m.throughput_per_node_bps)}")
    print(f"latency  : mean {fmt_time(m.mean_latency)}  p99 {fmt_time(m.p99_latency)}")
    print(f"queueing : early drops {q.drops_early}  tail drops {q.drops_tail}  "
          f"marks {q.marks}  protected {q.protected}")
    print(f"ack drops: {q.ack_drops}/{q.ack_arrivals} ({q.ack_drop_rate():.2%})")
    print(f"tcp      : retx {m.retransmits}  rtos {m.rtos}  syn retries {m.syn_retries}")
    print(f"(wall time {time.time() - t0:.1f}s)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry import Telemetry

    cfg = _cell_config(args)
    tel = Telemetry(profile=True)
    cell = run_cell(cfg, telemetry=tel)
    if args.json is not None:
        return _emit_json(cell.manifest["profile"], args.json)
    print(f"cell      : {cfg.label()}")
    print(f"sim time  : {fmt_time(cell.metrics.runtime)}")
    print(tel.profiler.render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import subprocess

    suite = Path(__file__).resolve().parents[2] / "benchmarks" / "suite"
    if not (suite / "run.py").is_file():
        print(f"bench: needs a source checkout: no {suite / 'run.py'} (the "
              "suite is not part of the installed package)", file=sys.stderr)
        return 2
    if args.compare:
        script, argv = "compare.py", args.compare
    else:
        # Absolute, against the caller's directory: run.py changes to the
        # checkout before it resolves --out.
        out = args.out or suite.parent / time.strftime(
            "BENCH_%Y%m%d-%H%M%S.json", time.gmtime())
        script, argv = "run.py", ["--out", str(Path(out).absolute())]
    return subprocess.run([sys.executable, str(suite / script), *argv,
                           *args.suite_args]).returncode


def _cmd_gates(args: argparse.Namespace) -> int:
    from repro.validate.smoke import GATES, SMOKE_SCHEMA, render_report, run_gate

    unknown = [n for n in args.names if n not in GATES]
    if unknown:
        print(f"smoke: unknown gate(s): {', '.join(unknown)} "
              f"(available: {', '.join(GATES)})", file=sys.stderr)
        return 2
    reports = []
    for name in args.names or GATES:
        reports.append(run_gate(name, None if args.quiet else _say))
        print(render_report(reports[-1]))
    failed = [r["gate"] for r in reports if not r["ok"]]
    if len(reports) > 1:
        print(f"smoke: {len(reports) - len(failed)}/{len(reports)} gates OK"
              + (f" — FAILED: {', '.join(failed)}" if failed else ""))
    rc = 1 if failed else 0
    if args.json:
        rc = _emit_json({"schema": SMOKE_SCHEMA, "ok": not failed,
                         "gates": reports}, args.json) or rc
    return rc


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.validate import CHECKER_NAMES
    from repro.validate.smoke import (
        SMOKE_SCALE,
        SmokeReport,
        cell_ok,
        render_report,
        run_check,
        smoke_cells,
    )

    names = [c.strip() for c in args.checkers.split(",") if c.strip()]
    unknown = sorted(set(names) - set(CHECKER_NAMES))
    if not names or unknown:
        what = f"unknown checker(s): {', '.join(unknown)}" if unknown \
            else "--checkers must name at least one checker"
        print(f"check: {what} (available: {', '.join(CHECKER_NAMES)})",
              file=sys.stderr)
        return 2
    if args.fuzz < 0:
        print(f"check: --fuzz must be >= 0 (got {args.fuzz})", file=sys.stderr)
        return 2
    if args.scale is not None and args.scale <= 0:
        print(f"check: --scale must be positive (got {args.scale})",
              file=sys.stderr)
        return 2

    scale = args.scale if args.scale is not None else SMOKE_SCALE
    report = SmokeReport("check", None if args.quiet else _say)
    try:
        run_check(report, smoke_cells(scale, args.seed), n_fuzz=args.fuzz,
                  seed=args.seed, checker_names=names,
                  shrink_failures=not args.no_shrink)
    except ValidationError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    doc = report.finish()
    if not (args.quiet and doc["ok"]):
        print(render_report(doc), file=sys.stderr)
    rc = 0 if doc["ok"] else 1
    if args.json is not None:
        return _emit_json({**doc, "checkers": names, "scale": scale,
                           "seed": args.seed}, args.json) or rc
    fuzzed = doc["detail"].get("fuzz")
    n_clean = sum(1 for c in doc["cells"] if cell_ok(c))
    print(f"check: {n_clean}/{len(doc['cells'])} cells clean"
          + (f", fuzz {fuzzed['scenarios_run']} scenarios "
             f"({len(fuzzed['failures'])} failing)" if fuzzed else "")
          + f" — {'OK' if rc == 0 else 'FAILED'}")
    return rc


#: Kinds something in the stack actually emits (for `trace` typo warnings).
_KNOWN_TRACE_KINDS = frozenset(
    ("enqueue", "drop", "mark", "tx", "link_loss", "deliver", "queue.sample",
     "tcp.cwnd", "tcp.retx", "tcp.rto", "tcp.ece")
)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import Telemetry, TraceJsonlWriter

    cfg = _cell_config(args)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        print("trace: --kinds must name at least one event kind",
              file=sys.stderr)
        return 2
    unknown = sorted(set(kinds) - _KNOWN_TRACE_KINDS)
    if unknown:
        print(f"trace: warning: nothing emits kind(s) {', '.join(unknown)} "
              f"(known: {', '.join(sorted(_KNOWN_TRACE_KINDS))})",
              file=sys.stderr)
    interval = (us(args.queue_interval_us)
                if args.queue_interval_us is not None else None)
    tel = Telemetry(queue_interval_s=interval)
    if args.out == "-":
        writer = TraceJsonlWriter(tel.tracer, out=sys.stdout, kinds=kinds)
        run_cell(cfg, telemetry=tel)
    else:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        with fh:
            writer = TraceJsonlWriter(tel.tracer, out=fh, kinds=kinds)
            run_cell(cfg, telemetry=tel)
        print(f"wrote {args.out} ({writer.rows_written} records, kinds: "
              f"{','.join(kinds)})", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.errors import FarmError
    from repro.farm.scheduler import FarmScheduler

    try:
        sched = FarmScheduler(args.farm_dir, workers=args.workers,
                              socket_path=args.socket,
                              checkpoint_s=args.checkpoint_s)
    except FarmError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _s, _f: sched.stop())
    resumed = (f", resumed {sched.resumed_jobs} job(s) from the journal"
               if sched.resumed_jobs else "")
    print(f"serve: farm on {sched.socket_path} "
          f"({args.workers} worker(s){resumed})", file=sys.stderr)
    try:
        sched.serve_forever()
    except FarmError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    print("serve: stopped", file=sys.stderr)
    return 0


def _cmd_farm(args: argparse.Namespace) -> int:
    from repro.errors import FarmError
    from repro.farm.client import FarmClient

    if not args.socket:
        print("farm: --socket is required (the farm's <farm-dir>/farm.sock)",
              file=sys.stderr)
        return 2
    client = FarmClient(args.socket)
    try:
        if args.ping:
            print(json.dumps(client.ping(), indent=2))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.status is not None:
            payload = client.status(args.status or None)
            print(json.dumps(payload, indent=2))
            return 0
        if args.results:
            return _emit_json(client.results(args.results), args.out)
        if args.watch:
            final_state = "lost"
            for ev in client.watch(args.watch, timeout=None):
                print(json.dumps(ev))
                if ev.get("ev") == "job_done":
                    final_state = ev.get("state", "lost")
            return 0 if final_state == "done" else 1
        if args.cancel:
            resp = client.cancel(args.cancel)
            print(f"farm: {resp['id']} -> {resp['state']}")
            return 0
        if args.shutdown:
            resp = client.shutdown()
            print(f"farm: shutting down "
                  f"({resp.get('draining', 0)} cell(s) draining)")
            return 0
    except FarmError as exc:
        print(f"farm: {exc}", file=sys.stderr)
        return 1
    print("farm: nothing to do — pass one of --ping/--stats/--status/"
          "--results/--watch/--cancel/--shutdown (submit with "
          "`repro grid NAME --farm SOCKET`)",
          file=sys.stderr)
    return 2


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import ResultCache, config_cache_key

    # An inspection verb creates nothing: ResultCache() would mkdir.
    if not Path(args.cache_dir).is_dir():
        print(f"cache: no such cache directory {args.cache_dir}",
              file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.prune_age is not None and args.prune_age < 0:
        print(f"cache: --prune-age must be >= 0 (got {args.prune_age})",
              file=sys.stderr)
        return 2

    if args.prune_age is not None or args.keep_grid is not None:
        keep_keys = None
        if args.keep_grid is not None:
            from repro.errors import ConfigError, ExperimentError
            from repro.experiments.grids import grid_work

            try:
                _axes, work = grid_work(args.keep_grid, args.axis,
                                        args.scale, args.seed)
            except (ExperimentError, ConfigError) as exc:
                print(f"cache: {exc}", file=sys.stderr)
                return 2
            keep_keys = {config_cache_key(cfg) for _label, cfg in work}
        # Count before pruning: after a dry run the doomed entries are
        # still on disk, so entries() would double-count them.
        total = len(cache.entries())
        pruned = cache.prune(
            max_age_s=(args.prune_age * 3600.0
                       if args.prune_age is not None else None),
            keep_keys=keep_keys, dry_run=args.dry_run)
        verb = "would prune" if args.dry_run else "pruned"
        print(f"cache: {verb} {len(pruned)} of {total} entries"
              + (f" (keeping the {args.keep_grid} grid)"
                 if args.keep_grid else ""))
        for key in pruned:
            print(f"  {key[:16]}…")
        return 0

    if args.stats:
        print(json.dumps(cache.stats(), indent=2))
        return 0

    entries = cache.entries()
    if not entries:
        print(f"cache: {args.cache_dir} is empty")
        return 0
    print(f"{'key':<18} {'size':>8} {'age':>8}  label")
    for e in sorted(entries, key=lambda e: e.age_s):
        age = (f"{e.age_s:.0f}s" if e.age_s < 3600
               else f"{e.age_s / 3600:.1f}h")
        label = e.label if e.ok else "(corrupt entry)"
        print(f"{e.key[:16]}…  {e.bytes:>7}B {age:>8}  {label}")
    stale = cache.stale_tmp_files()
    if stale:
        print(f"({len(stale)} stale *.tmp file(s) — collect with --prune-age)")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    # Die quietly when piped into `head` etc. instead of tracebacking.
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, ValueError, AttributeError):  # pragma: no cover
        pass  # non-POSIX platform or non-main thread
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and args.handler is not _cmd_bench:
        parser.error("unrecognized arguments: " + " ".join(extra))
    # Only `bench` takes arguments not declared here: the suite's own.
    args.suite_args = extra
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        print(f"{args.command}: --jobs must be >= 1 (got {args.jobs})",
              file=sys.stderr)
        return 2
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
