"""The paper's evaluation grid, and the grid presets ``repro grid`` runs.

Figures 2-4 sweep the AQM target delay for {TCP-ECN, DCTCP} × {Default,
ECE-bit, ACK+SYN} on {shallow, deep} buffers, normalized to DropTail
baselines. We additionally sweep the true simple marking scheme (the
paper's second proposal) as its own series. ``grid_cells`` is that flat
(label, config) work list.

``GRIDS`` names every work list the ``grid`` verb runs: its axes,
builder, table and optional manifest extras / SVG figures. The paper's
artifacts are presets too — ``fig1``, ``figures`` (Figures 2-4) and
``claims`` (C1-C6, the 82 paper cells plus ``fig1``) — whose tables are
projections of the results (:mod:`repro.experiments.figures`,
:mod:`repro.experiments.report`); so are the ``stability`` probes and the
``flaws`` pack. Every sweep therefore runs with ``--jobs``,
``--cache-dir``, ``--resume`` and ``--farm`` like any grid.
``grid_work`` resolves one with axis overrides.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.protection import ProtectionMode
from repro.errors import ExperimentError
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
    FIGURE_SPECS,
    FigureData,
    fig1_config,
    fig1_data,
    paper_figure,
    render_fig1,
    render_figure,
    require_cell,
)
from repro.experiments.fixedk import (
    DEFAULT_FANOUTS,
    DEFAULT_K_VALUES,
    DEFAULT_LOADS,
    FixedKConfig,
    build_regime_maps,
    fixedk_grid,
    render_fixedk_table,
    render_regime_grid,
)
from repro.experiments.flaws import flaws_grid, flaws_row, render_flaws_table
from repro.experiments.mix import mix_grid, render_mix_table
from repro.experiments.probe import (
    render_stability_map,
    stability_grid,
    stability_map_svgs,
)
from repro.experiments.report import check_claims, render_claims
from repro.tcp.endpoint import TcpVariant

__all__ = [
    "PROTECTION_MODES",
    "VARIANTS",
    "baseline_configs",
    "figure_grid",
    "grid_cells",
    "render_paper_table",
    "Axis",
    "GridPreset",
    "GRIDS",
    "grid_work",
]

PROTECTION_MODES: Tuple[ProtectionMode, ...] = (
    ProtectionMode.DEFAULT,
    ProtectionMode.ECE,
    ProtectionMode.ACK_SYN,
)

#: The two ECN-capable transports the paper evaluates.
VARIANTS: Tuple[TcpVariant, ...] = (TcpVariant.ECN, TcpVariant.DCTCP)


def _buffer(deep: bool) -> int:
    return DEEP_BUFFER_PACKETS if deep else SHALLOW_BUFFER_PACKETS


def baseline_configs(scale: float = 1.0, seed: int = 42) -> Dict[str, ExperimentConfig]:
    """The two DropTail baselines everything is normalized against."""
    out = {}
    for name, deep in (("droptail-shallow", False), ("droptail-deep", True)):
        out[name] = ExperimentConfig(
            queue=QueueSetup(kind="droptail", buffer_packets=_buffer(deep)),
            variant=TcpVariant.RENO,
            seed=seed,
            allow_timeout=True,
        ).scaled(scale)
    return out


def figure_grid(
    deep: bool, scale: float = 1.0, seed: int = 42
) -> List[ExperimentConfig]:
    """All swept cells for one buffer depth (Figures 2-4 share them)."""
    delays = DEEP_TARGET_DELAYS if deep else SHALLOW_TARGET_DELAYS
    cells: List[ExperimentConfig] = []
    for variant in VARIANTS:
        for mode in PROTECTION_MODES:
            for d in delays:
                cells.append(
                    ExperimentConfig(
                        queue=QueueSetup(
                            kind="red",
                            buffer_packets=_buffer(deep),
                            target_delay_s=d,
                            protection=mode,
                        ),
                        variant=variant,
                        seed=seed,
                        allow_timeout=True,
                    ).scaled(scale)
                )
        # The paper's second proposal as its own series.
        for d in delays:
            cells.append(
                ExperimentConfig(
                    queue=QueueSetup(
                        kind="marking",
                        buffer_packets=_buffer(deep),
                        target_delay_s=d,
                    ),
                    variant=variant,
                    seed=seed,
                    allow_timeout=True,
                ).scaled(scale)
            )
    return cells


def grid_cells(
    scale: float = 1.0, seed: int = 42, buffer: Sequence[str] = ("shallow",)
) -> List[Tuple[str, ExperimentConfig]]:
    """The full (label, config) work list: swept cells per buffer depth,
    then the two DropTail baselines once (shared by every depth)."""
    cells = [cfg for depth in buffer
             for cfg in figure_grid(depth == "deep", scale, seed)]
    baselines = baseline_configs(scale, seed)
    return [(cfg.label(), cfg) for cfg in cells] + list(baselines.items())


def render_paper_table(results: Dict[str, CellResult]) -> str:
    """ASCII table of the raw paper-grid metrics, one row per cell.

    Columns: job runtime, per-node throughput, and mean / p99 per-packet
    latency — the un-normalized inputs of Figures 2-4.
    """
    header = (f"{'cell':<36} {'runtime_s':>9} {'tput_gbps':>9} "
              f"{'lat_ms':>8} {'p99_ms':>8}")
    lines = [header, "-" * len(header)]
    for label, cell in results.items():
        m = cell.metrics
        lines.append(f"{label:<36} {m.runtime:>9.3g} "
                     f"{m.throughput_per_node_bps / 1e9:>9.3g} "
                     f"{m.mean_latency * 1e3:>8.3g} "
                     f"{m.p99_latency * 1e3:>8.3g}")
    return "\n".join(lines)


def _unscaled(name: str, scale: float) -> None:
    """Refuse ``--scale`` for a grid whose cells have no dataset."""
    if scale != 1.0:
        raise ExperimentError(
            f"{name} cells have no dataset to scale (got --scale {scale}); "
            "shrink the grid with --axis or --limit instead")


def _fixedk_cells(scale: float, seed: int, k: Sequence[int],
                  load: Sequence[float], fanout: Sequence[int]):
    _unscaled("fixedk", scale)
    cells = fixedk_grid(k_values=k, loads=load, fanouts=fanout,
                        seeds=(seed,), base=FixedKConfig(seed=seed))
    for _label, cfg in cells:
        cfg.validate()
    return cells


def _fixedk_render(results: Dict[str, CellResult]) -> str:
    # Regime maps stamp manifest["stability"] into every cell (cache hits
    # included), so the table can show the regime column.
    maps = build_regime_maps(results)
    return "\n\n".join([render_fixedk_table(results)]
                        + [render_regime_grid(m) for m in maps])


def _fixedk_figures(results: Dict[str, CellResult]) -> List[Tuple[str, str]]:
    from repro.plotting import grid_regime_map_to_svg

    return [(m.slice_id, grid_regime_map_to_svg(m))
            for m in build_regime_maps(results)]


def _gain(raw: str) -> Optional[float]:
    return None if raw == "None" else float(raw)


def _stability_cells(scale: float, seed: int, target_delay: Sequence[int],
                     g: Sequence[Optional[float]]):
    _unscaled("stability", scale)
    return stability_grid(target_delay, g, seed)


def _flaws_cells(scale: float, seed: int):
    _unscaled("flaws", scale)
    return [(cfg.flaw_profile or "fixed", cfg) for cfg in flaws_grid(seed)]


def _paper_figures(results: Dict[str, CellResult]) -> List[FigureData]:
    """Figures 2-4 for every buffer depth whose swept cells ``results``
    holds, in the paper's order (fig2a, fig2b, fig3a, ...)."""
    depths = [deep for deep in (False, True) if any(
        label.endswith("/deep" if deep else "/shallow") for label in results)]
    return [paper_figure(results, fig, deep)
            for fig in FIGURE_SPECS for deep in depths]


def _paper_figure_svgs(results: Dict[str, CellResult]) -> List[Tuple[str, str]]:
    from repro.plotting import figure_to_svg

    return [(fig.name, figure_to_svg(fig)) for fig in _paper_figures(results)]


def _fig1_svg(results: Dict[str, CellResult]) -> List[Tuple[str, str]]:
    from repro.plotting import queue_snapshot_to_svg

    data = fig1_data(require_cell(results, "fig1"))
    return [("fig1", queue_snapshot_to_svg(data.snapshot,
                                           data.mark_threshold_packets))]


def _claims_cells(scale: float, seed: int) -> List[Tuple[str, Any]]:
    # fig1's config differs from a grid cell only in its queue monitor, so
    # it needs a label of its own (cfg.label() would collide).
    return (grid_cells(scale, seed, ("shallow", "deep"))
            + [("fig1", fig1_config(scale, seed))])


def _depth(raw: str) -> str:
    if raw not in ("shallow", "deep"):
        raise ValueError(f"{raw!r} is not one of shallow, deep")
    return raw


class Axis(NamedTuple):
    """One axis of a grid preset: default values and a per-value parser
    (raises ``ValueError`` on a value that does not parse)."""

    default: Tuple
    parse: Callable[[str], Any]


class GridPreset(NamedTuple):
    """A named work list ``repro grid NAME`` runs, locally or on the farm.

    ``cells(scale, seed, **axes)`` builds the ``(label, config)`` list,
    ``render(results)`` the table printed under it; ``extras(results)``
    adds top-level fields to the sweep manifest and ``figures(results)``
    returns ``(suffix, svg)`` pairs for ``--svg PREFIX``.
    """

    description: str
    axes: Dict[str, Axis]
    cells: Callable[..., List[Tuple[str, Any]]]
    render: Callable[[Dict[str, CellResult]], str]
    extras: Optional[Callable[..., Dict[str, Any]]] = None
    figures: Optional[Callable[..., List[Tuple[str, str]]]] = None


#: Every grid ``repro grid`` knows. A kind's grid is one entry here.
GRIDS: Dict[str, GridPreset] = {
    "paper": GridPreset(
        "the paper's target-delay grid (Figures 2-4) + DropTail baselines",
        {"buffer": Axis(("shallow",), _depth)},
        grid_cells, render_paper_table),
    "fig1": GridPreset(
        "Figure 1: queue snapshot + ACK-drop asymmetry (default RED/ECN)",
        {}, lambda scale, seed: [("fig1", fig1_config(scale, seed))],
        lambda results: render_fig1(fig1_data(require_cell(results, "fig1"))),
        figures=_fig1_svg),
    "figures": GridPreset(
        "Figures 2-4 over the paper grid's cells, per buffer depth",
        {"buffer": Axis(("shallow",), _depth)}, grid_cells,
        lambda results: "\n\n".join(
            render_figure(fig) for fig in _paper_figures(results)),
        figures=_paper_figure_svgs),
    "claims": GridPreset(
        "claims C1-C6: the paper grid at both depths + the fig1 cell",
        {}, _claims_cells,
        lambda results: render_claims(check_claims(results))),
    "mix": GridPreset(
        "mixed-cluster coexistence: shuffle + RPC + background per queue "
        "scheme", {}, mix_grid, render_mix_table),
    "fixedk": GridPreset(
        "Fixed-K ECN on the leaf-spine fabric: K x load x fan-in x "
        "protection x transport, with K-vs-load regime maps",
        {"k": Axis(DEFAULT_K_VALUES, int),
         "load": Axis(DEFAULT_LOADS, float),
         "fanout": Axis(DEFAULT_FANOUTS, int)},
        _fixedk_cells, _fixedk_render,
        extras=lambda results: {"regime_maps": [
            m.to_dict() for m in build_regime_maps(results)]},
        figures=_fixedk_figures),
    "stability": GridPreset(
        "stability probes (4:1 DCTCP incast, marking port): regime per "
        "target delay (whole us) and DCTCP gain g (None = the transport's "
        "own)",
        {"target_delay": Axis((50, 100, 200, 500, 1000), int),
         "g": Axis((None,), _gain)},
        _stability_cells, render_stability_map, figures=stability_map_svgs),
    "flaws": GridPreset(
        "Linux-DCTCP flaws pack: each flaw profile vs the corrected stack "
        "on one tiny-buffer incast", {}, _flaws_cells,
        lambda results: render_flaws_table([
            flaws_row(cell.config.flaw_profile, cell)
            for cell in results.values()])),
}


def grid_work(name: str, axis_specs: Iterable[str] = (), scale: float = 1.0,
              seed: int = 42) -> Tuple[Dict[str, Tuple], List[Tuple[str, Any]]]:
    """Resolve preset ``name`` with ``A=v1,v2`` axis overrides.

    Returns ``(axes, cells)``: every axis's values (defaults filled in)
    and the preset's work list. Raises :class:`ExperimentError` for an
    unknown preset or axis, a repeated axis or value, or a value that
    does not parse, or values whose cells share a label;
    :class:`~repro.errors.ConfigError` for a cell its kind rejects.
    """
    preset = GRIDS.get(name)
    if preset is None:
        raise ExperimentError(
            f"unknown grid {name!r} (available: {', '.join(GRIDS)})")
    given: Dict[str, Tuple] = {}
    for spec in axis_specs:
        axis, _, raw = spec.partition("=")
        if axis not in preset.axes:
            raise ExperimentError(
                f"grid {name} has no axis {axis!r} (axes: "
                f"{', '.join(preset.axes) or 'none'}; use --axis NAME=V1,V2)")
        if axis in given:
            raise ExperimentError(f"axis {axis} given twice")
        try:
            values = tuple(preset.axes[axis].parse(v.strip())
                           for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ExperimentError(f"--axis {spec}: {exc}") from None
        if not values or len(set(values)) != len(values):
            raise ExperimentError(
                f"--axis {spec}: needs distinct comma-separated values")
        given[axis] = values
    axes = {axis: given.get(axis, a.default)
            for axis, a in preset.axes.items()}
    cells = preset.cells(scale, seed, **axes)
    labels = [label for label, _cfg in cells]
    if len(set(labels)) != len(labels):  # labels round, e.g. g to 6 digits
        raise ExperimentError(
            f"axis values collide in cell labels: {', '.join(axis_specs)}")
    return axes, cells
