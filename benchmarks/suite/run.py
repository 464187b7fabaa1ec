#!/usr/bin/env python3
"""Layered benchmark suite: entry point.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement of one workload in this (fresh) interpreter.  Prints
    every metric by name with its unit, then — as the last line of standard
    output — one JSON object ``{"correct", "attempted", "failed",
    "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1``.  A failed cell or check is counted in that
    line (``correct`` false, ``failed`` > 0) and told on stderr; the exit
    code is 0 whenever the line was printed.

``run.py [--seed N] [--repeat K] [--workload W ...] [--out PATH]``
    The whole suite: each workload in a fresh interpreter, untraced for
    seeds N..N+K-1 and traced once (seed N); writes ``--out`` (the input of
    ``compare.py``) and one ``trace.json`` per traced run beside it.  Exit
    code 1 on any failed check.

Metric names, units and bounds come from ``BENCHMARK.json`` at the root of
the checkout, the single declaration of what this benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
TMP_ROOT = ".bench_tmp"

#: Fresh-interpreter set-ups timed per untraced run (median reported).
SETUP_PROBES = 5


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _environment() -> dict:
    from repro.telemetry.manifest import git_describe

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    if load1 > 0.5 * nproc:
        print(f"warning: 1-min load average {load1:.2f} > 0.5 x nproc "
              f"({nproc}); timings may be disturbed", file=sys.stderr)
    return {"nproc": nproc, "python": platform.python_version(),
            "git": git_describe(), "load1": load1}


def _measure_setup(workload: str, seed: int, probes: int) -> float:
    """Median normalised seconds from process start to "ready", over
    ``probes`` fresh interpreters (each tears itself down again)."""
    from workloads import CAL_REF_S, calibrate

    samples = []
    for _ in range(probes):
        cal = calibrate(samples[-1] if samples else 1.0)
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(SUITE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(ready / cal * CAL_REF_S)
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            limit=None, quick: bool = False):
    """One measurement: ``(RunResult, {declared name: value or None})``.

    Untraced: the end-to-end metrics, set-up time from fresh-interpreter
    probes.  Traced: the per-layer metrics — the direct drivers first, on
    unpatched code, then the traced workload.  A declared metric the
    workload does not exercise reads 0; one whose boundary is gone, None.
    ``limit``/``quick`` shrink the run to a miniature (tests).
    """
    from workloads import run_workload

    measured = {}
    if trace:
        from drivers import run_drivers

        measured.update(run_drivers(repeats=1 if quick else None))
    else:
        measured["setup_s"] = _measure_setup(
            workload, seed, 1 if quick else SETUP_PROBES)
    result = run_workload(workload, seed, seconds, trace, TMP_ROOT, limit)
    measured.update(result.metrics)
    declared = [m["name"] for m in
                spec["per_layer" if trace else "end_to_end"]]
    undeclared = sorted(set(measured) - set(declared))
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return result, {name: measured.get(name, 0.0) for name in declared}


def run_one(args, spec: dict) -> int:
    """Contract mode: one workload, one trace mode, in this interpreter."""
    trace = bool(args.trace)
    env = _environment()
    result, values = measure(args.workload[0], args.seed, args.seconds, trace,
                             spec)
    tracer = result.detail.pop("tracer", None)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}

    print(f"workload {result.workload}  seed {result.seed}  "
          f"trace {int(trace)}  sim_digest {result.sim_digest[:16]}  "
          f"{result.detail}")
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {units[name]}")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    if tracer is not None and args.trace_out:
        tracer.dump(args.trace_out, {"workload": result.workload,
                                     "seed": result.seed})
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump({
                "workload": result.workload, "seed": result.seed,
                "trace": int(trace), "env": env, "metrics": values,
                "attempted": result.attempted, "failed": result.failed,
                "failures": result.failures, "sim_digest": result.sim_digest,
                "config_digest": result.config_digest, "detail": result.detail,
            }, fh)
    # The result line carries numbers only: a metric whose boundary is gone
    # (null above and in --detail) reads 0 here.
    print(json.dumps({
        "correct": result.failed == 0, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": 0.0 if value is None else value,
                           "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


def run_suite(args, spec: dict) -> int:
    """Suite mode: every workload × seed, untraced then traced, each in a
    fresh interpreter (set-up time, peak RSS and patched classes never leak
    from one run into the next)."""
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    runs, status = [], 0
    out_path = Path(args.out).resolve() if args.out else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_suite_") as tmp:
        for workload in workloads:
            for seed in range(args.seed, args.seed + args.repeat):
                digests = {}
                # Per-layer numbers need no repeats: one traced run per
                # workload, on the first seed.
                for trace in ((0, 1) if seed == args.seed else (0,)):
                    detail = os.path.join(tmp, "detail.json")
                    cmd = [sys.executable, str(SUITE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", str(trace),
                           "--detail", detail]
                    if trace and out_path is not None:
                        cmd += ["--trace-out", str(out_path.with_name(
                            f"{out_path.stem}.trace-{workload}-s{seed}.json"))]
                    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                    sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
                    if proc.returncode != 0 or not os.path.exists(detail):
                        print(f"FAILED: {workload} seed {seed} trace {trace} "
                              f"(exit {proc.returncode})", file=sys.stderr)
                        status = 1
                        continue
                    with open(detail) as fh:
                        runs.append(json.load(fh))
                    os.remove(detail)
                    if runs[-1]["failed"]:
                        print(f"FAILED: {workload} seed {seed} trace {trace}: "
                              f"{runs[-1]['failed']} of {runs[-1]['attempted']}",
                              file=sys.stderr)
                        status = 1
                    digests[trace] = runs[-1]["sim_digest"]
                if len(set(digests.values())) > 1:
                    print(f"FAILED: {workload} seed {seed}: traced sim_digest "
                          f"differs from untraced", file=sys.stderr)
                    status = 1
    if out_path is not None:
        with open(out_path, "w") as fh:
            json.dump({"schema": "repro.suite_result/v1",
                       "seconds": args.seconds, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: seeds SEED..SEED+REPEAT-1")
    parser.add_argument("--out", help="suite mode: result file for compare.py")
    parser.add_argument("--detail", help="one run: full result as JSON")
    parser.add_argument("--trace-out", help="one traced run: trace.json path")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready', tear down (setup_s probe)")
    args = parser.parse_args(argv)

    # Relative temp paths keep AF_UNIX socket names short wherever the
    # checkout lives, and everything written stays inside it.
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(SUITE)]
    if args.setup_only or args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("exactly one --workload with --trace / --setup-only")
    if args.setup_only:
        from workloads import setup_only

        setup_only(args.workload[0], args.seed, TMP_ROOT)
        return 0
    if args.trace is not None:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    # Whatever started this process may have left signals ignored or
    # blocked; stopping and reaping pool and farm workers needs SIGCHLD,
    # SIGTERM and SIGUSR1 as they are by default.
    signal.pthread_sigmask(signal.SIG_SETMASK, [])
    for _sig in (signal.SIGCHLD, signal.SIGTERM, signal.SIGUSR1):
        signal.signal(_sig, signal.SIG_DFL)
    sys.exit(main())
