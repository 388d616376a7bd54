"""The cluster timing model: converting counted work into seconds.

The paper measured wall-clock times on a 100-machine Hadoop cluster
(2 GHz Xeon, 4 GB RAM, two 7200 rpm disks, up to two tasks per machine,
~800 MB of memory per task, 3x replication).  We cannot measure that
testbed, so this module is the substitution: an analytical model charging
each task for the bytes it reads from disk, ships over the network, sorts
(including external merge passes) and processes.

The constants below are calibrated to commodity 2008-era hardware.  Their
absolute values scale simulated times uniformly; the experiment *shapes*
(linearity, crossovers, which plan wins) depend only on the counted work,
which the engine measures exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

#: Bytes per mebibyte; used for readable constant definitions.
MB = 1 << 20


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated shared-nothing cluster."""

    machines: int = 100
    map_slots_per_machine: int = 1
    reduce_slots_per_machine: int = 1
    memory_per_task: int = 800 * MB
    replication: int = 3
    disk_bandwidth: float = 60.0 * MB  # bytes/second sequential
    network_bandwidth: float = 40.0 * MB  # bytes/second per task
    cpu_map_record: float = 2.0e-6  # seconds to map one record
    cpu_eval_record: float = 1.5e-6  # seconds to scan/evaluate one record
    cpu_sort_record: float = 2.5e-7  # seconds per record per log2-level
    remote_read_penalty: float = 2.5  # slowdown for non-local block reads
    straggler_probability: float = 0.0  # chance a task runs degraded
    straggler_slowdown: float = 8.0  # degraded task duration multiplier
    speculative_execution: bool = False  # launch backups for stragglers
    speculation_overhead: float = 2.0  # straggler cost cap with backups

    def __post_init__(self):
        if self.machines <= 0:
            raise ValueError("a cluster needs at least one machine")
        if self.replication <= 0:
            raise ValueError("replication must be positive")
        if not 0.0 <= self.straggler_probability < 1.0:
            raise ValueError("straggler_probability must be in [0, 1)")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.speculation_overhead < 1.0:
            raise ValueError("speculation_overhead must be >= 1")

    @property
    def map_slots(self) -> int:
        return self.machines * self.map_slots_per_machine

    @property
    def reduce_slots(self) -> int:
        return self.machines * self.reduce_slots_per_machine

    def with_machines(self, machines: int) -> "ClusterConfig":
        """A copy scaled to a different machine count."""
        return dataclasses.replace(self, machines=machines)


class TimingModel:
    """Charges simulated seconds for units of work under a config."""

    def __init__(self, config: ClusterConfig):
        self.config = config

    # -- primitive costs -------------------------------------------------------

    def disk_read(self, nbytes: int, remote: bool = False) -> float:
        seconds = nbytes / self.config.disk_bandwidth
        if remote:
            seconds *= self.config.remote_read_penalty
        return seconds

    def network_transfer(self, nbytes: int) -> float:
        return nbytes / self.config.network_bandwidth

    def map_cpu(self, records: int) -> float:
        return records * self.config.cpu_map_record

    def eval_cpu(self, records: int) -> float:
        return records * self.config.cpu_eval_record

    def sort(self, records: int, nbytes: int) -> float:
        """Cost of sorting *records* totalling *nbytes*.

        In-memory comparison cost always applies; data larger than one
        task's memory additionally pays external merge-pass I/O (read and
        write the whole input once per extra pass).
        """
        if records <= 1:
            return 0.0
        cpu = records * math.log2(records) * self.config.cpu_sort_record
        passes = self.external_sort_passes(nbytes)
        io = 2 * passes * nbytes / self.config.disk_bandwidth
        return cpu + io

    def external_sort_passes(self, nbytes: int) -> int:
        """Number of spill/merge passes beyond the in-memory sort."""
        memory = self.config.memory_per_task
        if nbytes <= memory:
            return 0
        # Merge fan-in bounded by memory buffers; a wide fan-in keeps the
        # pass count at one for anything a reducer realistically sees.
        fan_in = 64
        runs = math.ceil(nbytes / memory)
        return max(1, math.ceil(math.log(runs, fan_in)))
