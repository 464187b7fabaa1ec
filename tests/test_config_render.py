"""``config_to_dict`` renders exactly what the reflective renderer did.

``telemetry/manifest.py::_json_safe`` looks a dataclass's public field
names up in a per-class table instead of calling ``dataclasses.fields``
at every node. Its output is hashed into every cache key and written into
every cache entry, manifest and farm journal, so it must not move: not a
value, not a type (``1`` vs ``1.0`` vs ``True``), not a key's position.
``reflective_json_safe`` below is the renderer as it was before the table,
kept as the oracle.

The count tests pin the other half of the saving: a cache lookup and an
entry build each render their config once.
"""

import dataclasses
import enum
from typing import Any, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.cache as cache_mod
from repro.core import ProtectionMode
from repro.core.registry import qdisc_names
from repro.experiments import ExperimentConfig, QueueSetup, run_cell
from repro.experiments.cache import (
    ResultCache,
    config_cache_key,
    config_dict_key,
    result_to_entry,
)
from repro.experiments.grids import GRIDS, grid_work
from repro.tcp import TcpVariant
from repro.tcp.cc import cc_names
from repro.tcp.endpoint import FLAW_PROFILES
from repro.telemetry.manifest import config_to_dict, metrics_to_dict
from tests.test_cell_kinds import TINY


def reflective_json_safe(value: Any) -> Any:
    """The renderer before the per-class field table (the oracle)."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reflective_json_safe(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not f.name.startswith("_")
        }
    if isinstance(value, dict):
        return {str(k): reflective_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reflective_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def shape(value: Any) -> Any:
    """``value`` with every dict's key order and every leaf's type made
    part of equality (``{"a": 1, "b": 2} == {"b": 2, "a": 1}`` and
    ``1 == 1.0 == True`` in Python; none of them render alike)."""
    if isinstance(value, dict):
        return ("dict", [(k, shape(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [shape(v) for v in value])
    return (type(value), value)


def assert_same_rendering(obj: Any) -> None:
    assert shape(config_to_dict(obj)) == shape(reflective_json_safe(obj))


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_kinds_tiny_config_renders_as_before(name):
    assert_same_rendering(TINY[name])


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_every_grid_presets_default_work_renders_as_before(grid):
    _axes, cells = grid_work(grid)
    assert cells
    for _label, cfg in cells:
        assert_same_rendering(cfg)


_FLOATS = st.one_of(st.integers(-10**6, 10**12),
                    st.floats(allow_nan=False))
_OPT_FLOATS = st.one_of(st.none(), _FLOATS)

EXPERIMENT_CONFIGS = st.builds(
    ExperimentConfig,
    queue=st.builds(
        QueueSetup,
        kind=st.sampled_from(sorted(qdisc_names())),
        buffer_packets=st.integers(0, 10**4),
        target_delay_s=_OPT_FLOATS,
        protection=st.sampled_from(list(ProtectionMode)),
        dctcp_style_red=st.booleans()),
    variant=st.sampled_from(list(TcpVariant)),
    n_hosts=st.integers(-2, 64),
    link_rate_bps=_FLOATS,
    link_delay_s=_FLOATS,
    data_bytes=st.integers(0, 2**40),
    seed=st.integers(0, 2**63),
    sim_horizon_s=_FLOATS,
    monitor_interval_s=_OPT_FLOATS,
    allow_timeout=st.booleans(),
    fidelity=st.sampled_from(["packet", "hybrid", "bogus"]),
    cc=st.one_of(st.none(), st.sampled_from(sorted(cc_names()))),
    flaw_profile=st.one_of(st.none(), st.sampled_from(sorted(FLAW_PROFILES))),
)


@settings(max_examples=200, deadline=None)
@given(EXPERIMENT_CONFIGS)
def test_drawn_experiment_configs_render_and_key_as_before(cfg):
    assert_same_rendering(cfg)
    assert config_cache_key(cfg) == config_dict_key(reflective_json_safe(cfg))


class Colour(str, enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Odd:
    """Every branch of the renderer in one value."""

    name: str
    _hidden: int = 7
    colour: Colour = Colour.RED
    pairs: Tuple = ((1, True), (2.5, None))
    table: dict = dataclasses.field(
        default_factory=lambda: {3: Colour.RED, "k": [1, 2.0]})
    obj: Any = dataclasses.field(default_factory=object)
    cls: Any = QueueSetup
    inner: Optional[QueueSetup] = QueueSetup(kind="red")


class MyInt(int):
    pass


def test_every_branch_renders_as_before():
    odd = Odd(name="x")
    got = config_to_dict(odd)
    assert "_hidden" not in got
    assert got["obj"] == repr(odd.obj) and got["cls"] == repr(QueueSetup)
    assert shape(got) == shape(reflective_json_safe(odd))
    # Twice: the second rendering comes from the class's field table.
    assert shape(config_to_dict(odd)) == shape(got)
    for value in (MyInt(3), Colour.RED, [Odd(name="y")], {1: (Odd("z"),)}):
        assert_same_rendering(value)


def test_metrics_of_a_finished_cell_render_as_before():
    metrics = run_cell(TINY["cell"]).metrics
    expected = reflective_json_safe(metrics)
    expected["throughput_per_node_bps"] = metrics.throughput_per_node_bps
    expected["cluster_throughput_bps"] = metrics.cluster_throughput_bps
    assert shape(metrics_to_dict(metrics)) == shape(expected)


@pytest.fixture
def renders(monkeypatch):
    """Count the renderings the cache module asks for."""
    calls = []

    def counting(config):
        calls.append(config)
        return config_to_dict(config)

    monkeypatch.setattr(cache_mod, "config_to_dict", counting)
    return calls


def test_a_cache_hit_renders_its_config_once(tmp_path, renders):
    cfg = TINY["cell"]
    cache = ResultCache(str(tmp_path))
    cache.put(run_cell(cfg))
    renders.clear()
    hit = cache.get(cfg)
    assert hit is not None and cache.hits == 1
    assert renders == [cfg]
    assert cache.last_key == config_cache_key(cfg)


def test_an_entry_build_renders_its_config_once(renders):
    result = run_cell(TINY["cell"])
    renders.clear()
    entry = result_to_entry(result)
    assert renders == [result.config]
    assert entry["key"] == config_cache_key(result.config)
    assert entry["config"] == config_to_dict(result.config)
