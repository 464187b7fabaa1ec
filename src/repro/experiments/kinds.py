"""String-keyed cell-kind registry: what one cell family supplies.

:func:`~repro.experiments.runner.run_cell` is the one harness; a
:class:`CellKind` subclass supplies only what differs between families —
its frozen config dataclass, the topology, which ports to monitor, the
traffic, and the traffic-side numbers — and registers with
:func:`register_kind` (the :mod:`repro.tcp.cc` / qdisc-registry pattern),
so the harness, the result cache and the farm wire protocol resolve
``config ↔ kind ↔ name`` here and nowhere else. DESIGN.md "Cell kinds and
the shared harness" has the one-module recipe for adding a family.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple, Type

from repro.errors import ConfigError
from repro.net.topology import TopologySpec, build_single_rack

__all__ = [
    "CellKind",
    "flow_fields",
    "KIND_REGISTRY",
    "register_kind",
    "kind_names",
    "kind_named",
    "kind_for",
]


def flow_fields(flows: Iterable, runtime: float, bytes_transferred: int,
                extra: Dict[str, float]) -> Dict[str, Any]:
    """The traffic-side :class:`~repro.stats.collect.RunMetrics` fields,
    with effort counters summed over finished
    :class:`~repro.tcp.flow.FlowResult` rows."""
    flows = list(flows)
    failed = sum(1 for f in flows if f.failed)
    return {
        "runtime": runtime,
        "bytes_transferred": bytes_transferred,
        "flows_completed": len(flows) - failed,
        "flows_failed": failed,
        "retransmits": sum(f.retransmits for f in flows),
        "rtos": sum(f.rtos for f in flows),
        "syn_retries": sum(f.syn_retries for f in flows),
        "extra": extra,
    }


class CellKind:
    """One cell family; the harness makes one instance per run and calls
    :meth:`build_topology`, :meth:`monitored_ports`, :meth:`setup`,
    :meth:`start`, runs the simulator to :attr:`horizon_s`, then
    :meth:`collect`. :func:`register_kind` sets ``name`` /
    ``manifest_kind`` / ``config_cls``."""

    #: :class:`~repro.mapreduce.engine.MapReduceEngine` built by
    #: :meth:`setup`, if the family has one (telemetry registers it).
    engine = None
    #: Exceptions out of ``sim.run`` that :meth:`collect` accounts for
    #: (e.g. an abandoned shuffle fetch under ``allow_timeout``).
    tolerated_errors: Tuple[type, ...] = ()
    #: Each :meth:`monitored_ports` monitor keeps only its busiest
    #: snapshot, not its whole series (``CellResult.snapshots`` then
    #: holds one per queue, in monitor order).
    busiest_snapshot_only = False

    def __init__(self, config, sim, rng, tracer):
        #: The cell this instance runs; the harness reads ``n_hosts`` and
        #: the optional ``fidelity`` / ``monitor_interval_s`` from it (a
        #: wrapper kind substitutes the cell it resolves to).
        self.config = config
        self.sim = sim
        self.rng = rng
        self.tracer = tracer
        #: The built fabric; the harness sets it after build_topology().
        self.spec: TopologySpec = None
        #: Extra top-level manifest blocks (``"workloads"``, ``"fixedk"``,
        #: …), filled by :meth:`collect`.
        self.manifest_blocks: Dict[str, Any] = {}

    def qdisc(self, name: str):
        """Queue for one port: by default the config's ``queue`` setup on
        every switch egress *and* host NIC port — the NS-2 duplex-link
        convention the paper's methodology inherits (every queue on the
        path is the configured type)."""
        return self.config.queue.build(name, self.config.link_rate_bps,
                                       self.rng)

    def fabric(self, builder, *dims, **options) -> TopologySpec:
        """Call a :mod:`repro.net.topology` builder with :meth:`qdisc` on
        every port and the config's link rate and delay."""
        return builder(
            self.sim, *dims,
            switch_qdisc=self.qdisc,
            host_qdisc=self.qdisc,
            link_rate_bps=self.config.link_rate_bps,
            link_delay_s=self.config.link_delay_s,
            tracer=self.tracer,
            **options,
        )

    def build_topology(self) -> TopologySpec:
        """The fabric; a single rack of ``config.n_hosts`` by default."""
        return self.fabric(build_single_rack, self.config.n_hosts)

    def monitored_ports(self) -> list:
        """Ports sampled every ``config.monitor_interval_s`` (when set)."""
        return self.spec.hot_ports

    def setup(self) -> None:
        """Build traffic sources that telemetry must see before they
        start (sets :attr:`engine`); nothing may be scheduled here."""

    def start(self) -> None:
        """Offer the load."""
        raise NotImplementedError

    @property
    def horizon_s(self) -> float:
        """Simulated time at which the harness stops the run."""
        return self.config.sim_horizon_s

    def collect(self) -> Dict[str, Any]:
        """Traffic-side ``RunMetrics`` fields of the finished run (see
        :func:`flow_fields`); the harness adds latency, delivered
        packets, switch queue totals and the node count."""
        raise NotImplementedError


KIND_REGISTRY: Dict[str, Type[CellKind]] = {}


def register_kind(name: str, manifest_kind: str, config_cls: type):
    """Class decorator: register a :class:`CellKind` subclass.

    ``name`` is the registry key and farm wire name, ``manifest_kind``
    the ``kind`` string stamped into run manifests, and ``config_cls``
    the frozen config dataclass the kind runs. The config must offer
    ``validate()``, ``label()``, ``tcp_config()``, ``seed`` and
    ``n_hosts``.
    """
    def register(cls: Type[CellKind]) -> Type[CellKind]:
        if name in KIND_REGISTRY:
            raise ConfigError(f"cell kind {name!r} already registered to "
                              f"{KIND_REGISTRY[name].__name__}")
        cls.name, cls.manifest_kind, cls.config_cls = (
            name, manifest_kind, config_cls)
        KIND_REGISTRY[name] = cls
        return cls
    return register


def kind_names() -> Tuple[str, ...]:
    """Registered cell-kind names, sorted."""
    return tuple(sorted(KIND_REGISTRY))


def kind_named(name: str) -> Type[CellKind]:
    """Look a kind up by registry / wire name."""
    try:
        return KIND_REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown config kind {name!r}; known: "
                          f"{', '.join(kind_names())}") from None


def kind_for(config) -> Type[CellKind]:
    """The kind that runs ``config`` (exact type match)."""
    for kind in KIND_REGISTRY.values():
        if kind.config_cls is type(config):
            return kind
    raise ConfigError(
        f"unknown config type {type(config).__name__}; known kinds: "
        f"{', '.join(kind_names())}")
