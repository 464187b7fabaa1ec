"""Simulation invariant checking and scenario fuzzing.

An always-available, **off-by-default** validation layer: checkers ride
the existing :class:`~repro.sim.trace.Tracer` bus (pure observation —
armed runs are bit-identical to unarmed ones) and audit packet
conservation, queue accounting, TCP sequence space and event-engine
bookkeeping. A randomized scenario fuzzer drives topologies × qdiscs ×
protection modes × seeds with the checkers armed and shrinks failures to
a minimal repro dict. Exposed on the command line as ``repro check``.
"""

from repro.validate.checkers import (
    CHECKER_NAMES,
    Checker,
    ConservationChecker,
    EngineChecker,
    InvariantViolation,
    QueueAccountingChecker,
    TcpChecker,
    ValidationSuite,
    build_suite,
    checkers_from_names,
)
from repro.validate.fuzz import (
    FuzzReport,
    Scenario,
    fuzz,
    run_scenario,
    shrink,
)

__all__ = [
    "CHECKER_NAMES",
    "Checker",
    "ConservationChecker",
    "EngineChecker",
    "InvariantViolation",
    "QueueAccountingChecker",
    "TcpChecker",
    "ValidationSuite",
    "checkers_from_names",
    "build_suite",
    "FuzzReport",
    "Scenario",
    "fuzz",
    "run_scenario",
    "shrink",
]
