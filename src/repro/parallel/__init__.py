"""Parallel execution layer: per-circuit fan-out over a process pool,
intra-circuit fault sharding with deterministic merge, retry/salvage
fault tolerance with backoff, always-on per-job heartbeats with the
watchdog that is the runner's only kill path (stuck or overdue jobs),
and checkpoint/resume persistence."""

from .checkpoint import RunCheckpoint
from .heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_STALE_AFTER,
    HeartbeatWriter,
    Watchdog,
    heartbeat_path,
)
from .runner import (
    CircuitJob,
    CircuitJobResult,
    JobFailure,
    ParallelRunError,
    ParallelRunner,
    execute_job,
    resolve_jobs,
    run_circuit_job,
)
from .sharding import (
    FaultShardJob,
    ShardJobResult,
    ShardSweep,
    merge_shard_results,
    run_fault_shard_job,
)

__all__ = [
    "CircuitJob",
    "CircuitJobResult",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_STALE_AFTER",
    "FaultShardJob",
    "HeartbeatWriter",
    "Watchdog",
    "heartbeat_path",
    "JobFailure",
    "ParallelRunError",
    "ParallelRunner",
    "RunCheckpoint",
    "ShardJobResult",
    "ShardSweep",
    "merge_shard_results",
    "resolve_jobs",
    "run_circuit_job",
    "run_fault_shard_job",
    "execute_job",
]
