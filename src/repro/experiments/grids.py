"""The paper's evaluation grid, and the grid presets ``repro grid`` runs.

Figures 2-4 sweep the AQM target delay for {TCP-ECN, DCTCP} × {Default,
ECE-bit, ACK+SYN} on {shallow, deep} buffers, normalized to DropTail
baselines. We additionally sweep the true simple marking scheme (the
paper's second proposal) as its own series.

``run_grid`` executes every cell once and memoises results per
(scale, seed) so the three figures share one sweep. ``grid_cells`` is the
flat (label, config) work list; ``jobs``/``cache_dir`` fan the sweep out
over worker processes and/or an on-disk result cache (see
:mod:`repro.experiments.parallel`) — parallel results are bit-identical
to the serial path.

``GRIDS`` names every work list the ``grid`` verb runs (``paper``,
``mix``, ``fixedk``): its axes, builder, table and optional manifest
extras / SVG figures. ``grid_work`` resolves one with axis overrides.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.protection import ProtectionMode
from repro.errors import ExperimentError
from repro.experiments.config import (
    DEEP_BUFFER_PACKETS,
    SHALLOW_BUFFER_PACKETS,
    CellResult,
    ExperimentConfig,
    QueueSetup,
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
from repro.experiments.mix import mix_grid, render_mix_table
from repro.tcp.endpoint import TcpVariant
from repro.units import us

__all__ = [
    "SHALLOW_TARGET_DELAYS",
    "DEEP_TARGET_DELAYS",
    "PROTECTION_MODES",
    "VARIANTS",
    "baseline_configs",
    "figure_grid",
    "grid_cells",
    "run_grid",
    "render_paper_table",
    "Axis",
    "GridPreset",
    "GRIDS",
    "grid_work",
]

#: Target-delay sweep for shallow (100-packet ≈ 1.2 ms) buffers:
#: aggressive 50 µs up to 1 ms. Beyond ~400 µs the RED band (min=K,
#: max=3K) exceeds the physical buffer and the AQM degenerates into
#: DropTail — the sweep deliberately includes that regime, as the paper's
#: "loose settings" do.
SHALLOW_TARGET_DELAYS: Tuple[float, ...] = (
    us(50), us(100), us(200), us(500), us(1000),
)

#: Target-delay sweep for deep (1000-packet ≈ 12 ms) buffers.
DEEP_TARGET_DELAYS: Tuple[float, ...] = (
    us(100), us(500), us(1000), us(2000), us(5000),
)

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


_GRID_CACHE: Dict[Tuple, Dict[str, CellResult]] = {}


def run_grid(
    deep: bool,
    scale: float = 1.0,
    seed: int = 42,
    use_cache: bool = True,
    progress=None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = True,
) -> Dict[str, CellResult]:
    """Run baselines + swept cells for one buffer depth.

    Returns {cell label: CellResult}; baselines appear under their
    ``droptail-*`` labels. ``progress`` is an optional callable invoked
    with (done, total, label) after each cell
    (:class:`~repro.telemetry.profiler.ProgressReporter` fits).

    ``jobs`` > 1 fans cells out over worker processes; ``cache_dir``
    persists per-cell results keyed by config content, and ``resume``
    (default on, when a cache is attached) skips cells already present.
    Neither changes the results: parallel and cached cells are
    bit-identical to the serial path.
    """
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import run_cells

    key = (deep, scale, seed)
    results = _GRID_CACHE.get(key) if use_cache else None
    if results is None:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        results = run_cells(
            grid_cells(scale, seed, ("deep" if deep else "shallow",)),
            jobs=jobs, cache=cache, resume=resume, progress=progress,
        ).results
        if use_cache:
            _GRID_CACHE[key] = results
    return results


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


def _fixedk_cells(scale: float, seed: int, k: Sequence[int],
                  load: Sequence[float], fanout: Sequence[int]):
    if scale != 1.0:
        raise ExperimentError(
            f"fixedk cells have no dataset to scale (got --scale {scale}); "
            "shrink the grid with --axis instead")
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
}


def grid_work(name: str, axis_specs: Iterable[str] = (), scale: float = 1.0,
              seed: int = 42) -> Tuple[Dict[str, Tuple], List[Tuple[str, Any]]]:
    """Resolve preset ``name`` with ``A=v1,v2`` axis overrides.

    Returns ``(axes, cells)``: every axis's values (defaults filled in)
    and the preset's work list. Raises :class:`ExperimentError` for an
    unknown preset or axis, a repeated axis or value, or a value that
    does not parse; :class:`~repro.errors.ConfigError` for a cell its
    kind rejects.
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
    return axes, preset.cells(scale, seed, **axes)
