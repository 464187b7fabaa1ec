"""Experiment harness: the paper's evaluation grid and figure generators.

``run_cell`` is the one cell harness: it executes a config of any
registered cell kind (:mod:`repro.experiments.kinds`) — by default one
(transport × queue × buffer × target-delay) configuration of the scaled
Terasort. Importing this package registers every built-in kind.
``run_cells`` sweeps a work list — e.g. a ``grids.GRIDS`` preset's, such
as the full grid of Figures 2-4 — optionally fanned out over worker
processes against an on-disk result cache (see
:mod:`repro.experiments.parallel` and :mod:`repro.experiments.cache`);
the ``figures`` module projects those results into the same normalized
series the paper plots, and ``report`` checks the claims and renders the
paper-vs-measured record from them.
"""

from repro.experiments.cache import ResultCache, config_cache_key
from repro.experiments.config import (
    DEEP_BUFFER_PACKETS,
    DEEP_TARGET_DELAYS,
    SHALLOW_BUFFER_PACKETS,
    SHALLOW_TARGET_DELAYS,
    CellResult,
    ExperimentConfig,
    QueueSetup,
)
from repro.experiments.figures import (
    fig1_config,
    fig1_data,
    paper_figure,
    render_figure,
)
from repro.experiments.grids import (
    GRIDS,
    baseline_configs,
    figure_grid,
    grid_cells,
    grid_work,
)
from repro.experiments.fixedk import (
    FixedKConfig,
    build_regime_maps,
    fixedk_grid,
    fixedk_smoke_cells,
    render_fixedk_table,
    render_regime_grid,
)
from repro.experiments.mix import (
    MixConfig,
    mix_grid,
    render_mix_table,
)
from repro.experiments.bulkcell import BulkConfig
from repro.experiments.kinds import CellKind, kind_names, register_kind
from repro.experiments.multirack import MultiRackConfig
from repro.experiments.parallel import SweepReport, run_cells
from repro.experiments.probe import StabilityProbeConfig
from repro.experiments.runner import apply_analyses, run_cell
from repro.experiments.scenario import Scenario
from repro.experiments.report import (
    check_claims,
    render_claims,
    render_experiments_md,
)

__all__ = [
    "QueueSetup",
    "ExperimentConfig",
    "CellResult",
    "SHALLOW_BUFFER_PACKETS",
    "DEEP_BUFFER_PACKETS",
    "SHALLOW_TARGET_DELAYS",
    "DEEP_TARGET_DELAYS",
    "run_cell",
    "run_cells",
    "CellKind",
    "register_kind",
    "kind_names",
    "BulkConfig",
    "MultiRackConfig",
    "Scenario",
    "FixedKConfig",
    "fixedk_grid",
    "fixedk_smoke_cells",
    "render_fixedk_table",
    "render_regime_grid",
    "build_regime_maps",
    "GRIDS",
    "grid_work",
    "SweepReport",
    "ResultCache",
    "config_cache_key",
    "figure_grid",
    "grid_cells",
    "baseline_configs",
    "fig1_config",
    "fig1_data",
    "paper_figure",
    "render_figure",
    "check_claims",
    "render_claims",
    "render_experiments_md",
    "MixConfig",
    "mix_grid",
    "render_mix_table",
    "StabilityProbeConfig",
    "apply_analyses",
]
