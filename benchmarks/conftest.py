"""Shared benchmark configuration.

Benchmarks regenerate every table and figure of the paper at a reduced
dataset scale so the whole suite completes in minutes. Set
``REPRO_BENCH_SCALE=1.0`` to run the full 256 MB reference configuration
(the one EXPERIMENTS.md reports).

Figures 2-4 share one sweep: the session fixture ``paper_results`` runs
the ``figures`` grid preset's 82 cells (both buffer depths and the
DropTail baselines) once, and every figure benchmark times the projection
of its sub-figure from them. Figure 1 runs its own cell: it needs at
least 1/4 scale (see ``test_bench_fig1.py``).
Assertions are limited to scale-robust *shape* properties (orderings,
reduction bands) — absolute numbers are not the reproduction target.
"""

import os

import pytest

#: Dataset scale for benchmark runs (1.0 = 256 MB Terasort).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.125"))

#: Seed shared by every benchmark run.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Dataset scale factor for this benchmark session."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Seed for this benchmark session."""
    return BENCH_SEED


@pytest.fixture(scope="session")
def paper_results(bench_scale, bench_seed):
    """``{label: CellResult}`` of the ``figures`` preset at both depths, at
    this session's scale and seed, run once (serially) for Figures 2-4."""
    from repro.experiments import grid_work, run_cells

    _axes, work = grid_work("figures", ["buffer=shallow,deep"],
                            scale=bench_scale, seed=bench_seed)
    return run_cells(work).results


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulation cells are deterministic and expensive; statistical rounds
    would only repeat identical work.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
