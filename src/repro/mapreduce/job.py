"""Job and task records.

A :class:`JobSpec` describes the workload (input size, block size, reducer
count, selectivities); :class:`MapTask` / :class:`ReduceTask` carry the
mutable per-attempt state the engine and scheduler update. Speculative
execution and task failure are out of scope (the paper's runs don't
exercise them); the records still track enough state to add them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.mapreduce.hdfs import Block

__all__ = ["TaskState", "JobSpec", "MapTask", "ReduceTask"]


class TaskState(enum.Enum):
    """Lifecycle of one task attempt."""

    PENDING = "pending"
    RUNNING = "running"
    SHUFFLING = "shuffling"  # reduce only: fetching map outputs
    DONE = "done"


@dataclass(frozen=True)
class JobSpec:
    """Workload description.

    Attributes
    ----------
    name:
        Label for reports.
    input_bytes:
        Total input file size.
    block_size:
        HDFS block size; one map task per block.
    n_reducers:
        Reduce task count.
    map_selectivity:
        Map output bytes per input byte (Terasort: 1.0).
    reduce_selectivity:
        Reduce output bytes per shuffled byte (Terasort: 1.0).
    reduce_slowstart:
        Fraction of maps that must complete before reducers launch
        (Hadoop's ``mapreduce.job.reduce.slowstart.completedmaps``).
    """

    name: str
    input_bytes: int
    block_size: int
    n_reducers: int
    map_selectivity: float = 1.0
    reduce_selectivity: float = 1.0
    reduce_slowstart: float = 0.05

    def validate(self) -> "JobSpec":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        if self.input_bytes <= 0 or self.block_size <= 0:
            raise ConfigError(f"sizes must be positive ({self})")
        if self.n_reducers < 1:
            raise ConfigError(f"need >= 1 reducer ({self})")
        if self.map_selectivity < 0 or self.reduce_selectivity < 0:
            raise ConfigError(f"selectivities must be >= 0 ({self})")
        if not (0.0 <= self.reduce_slowstart <= 1.0):
            raise ConfigError(f"slowstart must be in [0,1] ({self})")
        return self

    @property
    def n_maps(self) -> int:
        """Map task count (one per block, rounding the tail block up)."""
        return -(-self.input_bytes // self.block_size)


@dataclass
class MapTask:
    """One map task attempt."""

    task_id: int
    block: Block
    state: TaskState = TaskState.PENDING
    node: Optional[int] = None
    data_local: bool = False
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    output_bytes: int = 0


@dataclass
class ReduceTask:
    """One reduce task attempt."""

    task_id: int
    state: TaskState = TaskState.PENDING
    node: Optional[int] = None
    start_time: Optional[float] = None
    shuffle_done_time: Optional[float] = None
    end_time: Optional[float] = None
    #: map task id -> bytes this reducer must fetch from it
    pending_inputs: Dict[int, int] = field(default_factory=dict)
    fetched_bytes: int = 0
