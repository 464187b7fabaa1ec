"""Slot-based FIFO task scheduler with map locality.

Mirrors the Hadoop 1.x JobTracker behaviour the MRPerf simulator models:
each node advertises map and reduce slots; pending map tasks are assigned
to free slots preferring nodes that hold a replica of the task's input
block (data-local first, then any node); reduce tasks launch once the
slowstart fraction of maps has finished, spread round-robin across nodes
with free reduce slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import MapReduceError
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.job import MapTask, ReduceTask, TaskState

__all__ = ["SlotScheduler"]


class SlotScheduler:
    """Tracks slot occupancy and picks task→node assignments."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self._free_map: Dict[int, int] = {
            n: cluster.node.map_slots for n in range(cluster.n_nodes)
        }
        self._free_reduce: Dict[int, int] = {
            n: cluster.node.reduce_slots for n in range(cluster.n_nodes)
        }
        self._rr_next = 0  # round-robin pointer for reduce placement

    # -- map side ---------------------------------------------------------------

    def assign_map(self, pending: List[MapTask]) -> Optional[MapTask]:
        """Assign one pending map task to a free slot, locality-first.

        Returns the task (with ``node`` and ``data_local`` filled in and
        the slot debited) or None if no assignment is possible.
        """
        free_nodes = [n for n, k in self._free_map.items() if k > 0]
        if not free_nodes:
            return None
        free_set = set(free_nodes)
        # Pass 1: a task whose block is local to some free node.
        for task in pending:
            if task.state is not TaskState.PENDING:
                continue
            local = [n for n in task.block.replicas if n in free_set]
            if local:
                return self._take_map(task, local[0], data_local=True)
        # Pass 2: first pending task anywhere.
        for task in pending:
            if task.state is TaskState.PENDING:
                return self._take_map(task, free_nodes[0], data_local=False)
        return None

    def _take_map(self, task: MapTask, node: int, data_local: bool) -> MapTask:
        self._free_map[node] -= 1
        task.node = node
        task.data_local = data_local
        task.state = TaskState.RUNNING
        return task

    def release_map(self, node: int) -> None:
        """Return a map slot on ``node``."""
        if self._free_map[node] >= self.cluster.node.map_slots:
            raise MapReduceError(f"map slot over-release on node {node}")
        self._free_map[node] += 1

    # -- reduce side ----------------------------------------------------------------

    def assign_reduce(self, pending: List[ReduceTask]) -> Optional[ReduceTask]:
        """Assign one pending reduce task round-robin over free slots."""
        task = next((t for t in pending if t.state is TaskState.PENDING), None)
        if task is None:
            return None
        n = self.cluster.n_nodes
        for off in range(n):
            node = (self._rr_next + off) % n
            if self._free_reduce[node] > 0:
                self._free_reduce[node] -= 1
                self._rr_next = (node + 1) % n
                task.node = node
                task.state = TaskState.RUNNING
                return task
        return None

    def release_reduce(self, node: int) -> None:
        """Return a reduce slot on ``node``."""
        if self._free_reduce[node] >= self.cluster.node.reduce_slots:
            raise MapReduceError(f"reduce slot over-release on node {node}")
        self._free_reduce[node] += 1

    # -- introspection ---------------------------------------------------------------

    def free_map_slots(self) -> int:
        """Cluster-wide free map slots."""
        return sum(self._free_map.values())
