"""Process-pool fan-out of per-circuit experiment work.

The table experiments are embarrassingly parallel across circuits: every
circuit's pipeline (enumeration, target sets, generation runs, fault
simulation) is independent and deterministic given ``(circuit, scale,
seed)``.  :class:`ParallelRunner` exploits that:

* one :class:`CircuitJob` describes all the work for one circuit
  (which heuristic runs, whether to run enrichment);
* one pool worker owns one :class:`~repro.engine.CircuitSession`, so a
  circuit appearing in both the basic and the enrichment sweeps still
  compiles its artifacts exactly once;
* a :class:`~repro.parallel.sharding.FaultShardJob` splits *one*
  circuit's primary-fault universe across several pool tasks (see
  :mod:`repro.parallel.sharding`); the runner treats both job kinds
  uniformly through their ``key`` property (``circuit`` for circuit
  jobs, ``circuit#shard`` for shard jobs), so retries, timeouts,
  chaos injection and checkpoints all operate at shard granularity;
* results come back as the plain dataclasses of
  :mod:`repro.experiments.results` and are merged **in submission order**,
  so ``--jobs N`` output is identical to the serial path for every
  deterministic field (wall-clock ``runtime_seconds`` fields necessarily
  differ run to run; see ``ExperimentResults.canonical_json``);
* each worker's :class:`~repro.engine.EngineStats` is returned and folded
  into the parent engine's stats via :meth:`EngineStats.merge`.

``jobs=1`` (or a single job) never touches a pool: work runs in-process
on the caller's engine, preserving the pre-parallel code path exactly.

Fault tolerance
---------------

A multi-circuit sweep costs tens of CPU-minutes; one crashed worker must
not discard every finished circuit.  Workers therefore never propagate
exceptions: job bodies run guarded and ship back a structured
:class:`JobFailure` (circuit, phase, traceback).  One
:class:`~repro.robustness.RetryPolicy` governs every retry (its
``max_retries`` extra attempts per job, exponential backoff, jitter and
a delay cap; waits are recorded under the ``parallel.retry_wait_seconds``
timer).  Only after every retry is exhausted does the runner raise a
single aggregated :class:`ParallelRunError` carrying all salvaged
results.  Retries, timeouts, fallbacks and failures are recorded on the
parent engine's stats under ``parallel.*`` counters.

Every pool worker proves liveness through a per-job heartbeat file
(:class:`~repro.parallel.heartbeat.HeartbeatWriter`) whose first beat
records the attempt's start time, and a
:class:`~repro.parallel.heartbeat.Watchdog` reading those files is the
runner's only kill path.  A job that started beating and then went
silent past ``stale_after`` is *stuck* (``phase="stuck"``,
``parallel.stuck``); a job still running ``timeout * 1.25 + 1`` seconds
after it started is *overdue* (``phase="timeout"``,
``parallel.timeouts``).  Either way only that job is killed and charged
an attempt; in-flight and backlog neighbours are re-queued without
consuming one.  Crashed workers keep their own signature
(``BrokenProcessPool``): the remaining jobs fall back to in-process
execution, and a job whose beat file proves it had started is charged
one attempt for the crash.  The supervision layer above can thus tell
the three failure modes apart.

Passing a :class:`~repro.parallel.checkpoint.RunCheckpoint` to
:meth:`ParallelRunner.run` additionally persists every finished result
as it completes (``<dir>/<circuit>.json`` for circuit jobs,
``<dir>/<circuit>.shard<i>.json`` for fault shards), and skips jobs
whose matching checkpoint already exists -- the resume path behind
``repro-pdf tables --checkpoint-dir D --resume``.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
import traceback as _tb
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..artifacts import ArtifactStore
from ..engine import Engine
from ..engine.stats import EngineStats
from ..robustness import Budget, RetryPolicy
from .heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_STALE_AFTER,
    HeartbeatWriter,
    Watchdog,
    heartbeat_path,
)
from .sharding import FaultShardJob, ShardJobResult, run_fault_shard_job

if TYPE_CHECKING:  # experiments imports parallel; keep the reverse type-only
    from ..experiments.results import CircuitBasicResult, Table6Row
    from ..experiments.scale import ExperimentScale
    from .checkpoint import RunCheckpoint

__all__ = [
    "CircuitJob",
    "CircuitJobResult",
    "JobFailure",
    "ParallelRunError",
    "ParallelRunner",
    "resolve_jobs",
    "run_circuit_job",
    "execute_job",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means all CPUs, min 1."""
    if jobs is None:
        return max(1, os.cpu_count() or 1)
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class CircuitJob:
    """All experiment work assigned to one circuit (one pool task).

    ``heuristics`` is the basic-generation sweep; an empty tuple means the
    driver default (:data:`repro.experiments.workloads.HEURISTICS`).
    """

    circuit: str
    scale: "ExperimentScale"
    heuristics: tuple[str, ...] = ()
    run_basic: bool = False
    run_table6: bool = False

    @property
    def key(self) -> str:
        """Runner/checkpoint identity (circuit jobs are keyed by circuit)."""
        return self.circuit


#: Everything the runner can execute: whole-circuit jobs and fault shards.
Job = CircuitJob | FaultShardJob


def effective_heuristics(job: "Job") -> tuple[str, ...]:
    """The heuristic list a job will actually run (resolving the default)."""
    if job.heuristics:
        return tuple(job.heuristics)
    from ..experiments.workloads import HEURISTICS

    return tuple(HEURISTICS)


@dataclass
class CircuitJobResult:
    """One circuit's outcome, shipped back from a worker.

    ``stats`` is the worker engine's instrumentation, ``None`` when the
    job ran in-process (its events already landed on the caller's engine).
    ``wall_seconds`` is the job body's wall clock on whichever side ran
    it (journal bookkeeping; not part of the checkpoint payload).
    """

    circuit: str
    basic: "CircuitBasicResult | None" = None
    table6: "Table6Row | None" = None
    stats: EngineStats | None = None
    wall_seconds: float = 0.0

    @property
    def key(self) -> str:
        return self.circuit

    def to_payload(self) -> dict:
        """JSON-ready dict (see :meth:`from_payload`; used by checkpoints)."""
        from dataclasses import asdict

        return {
            "circuit": self.circuit,
            "basic": asdict(self.basic) if self.basic is not None else None,
            "table6": asdict(self.table6) if self.table6 is not None else None,
            "stats": self.stats.snapshot() if self.stats is not None else None,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CircuitJobResult":
        from ..experiments.results import CircuitBasicResult, Table6Row

        basic = payload.get("basic")
        table6 = payload.get("table6")
        stats = payload.get("stats")
        return cls(
            circuit=payload["circuit"],
            basic=CircuitBasicResult.from_dict(basic) if basic else None,
            table6=Table6Row.from_dict(table6) if table6 else None,
            stats=EngineStats.from_snapshot(stats) if stats else None,
        )


@dataclass
class JobFailure:
    """Structured report of one failed job attempt.

    Built inside the worker (or the in-process runner) instead of letting
    the exception propagate, so one bad circuit cannot abort the sweep
    and the parent still learns *where* it died: ``phase`` is the
    pipeline stage (``inject``/``session``/``basic``/``table6``/
    ``shard``) or the runner-level cause (``timeout``/``stuck``/``pool``).
    ``circuit`` holds the failing job's *key* -- the circuit name for
    circuit jobs, ``circuit#shard`` for fault shards.
    """

    circuit: str
    phase: str
    error: str
    message: str
    traceback: str = ""
    attempt: int = 0

    @classmethod
    def from_exception(
        cls, circuit: str, phase: str, exc: BaseException, attempt: int = 0
    ) -> "JobFailure":
        return cls(
            circuit=circuit,
            phase=phase,
            error=type(exc).__name__,
            message=str(exc),
            traceback="".join(_tb.format_exception(exc)),
            attempt=attempt,
        )

    def describe(self) -> str:
        return (
            f"{self.circuit} [{self.phase}, attempt {self.attempt}]: "
            f"{self.error}: {self.message}"
        )


class ParallelRunError(RuntimeError):
    """One or more circuit jobs failed after exhausting their retries.

    Raised only after the whole sweep has been driven to completion:
    ``results`` holds every circuit that *did* finish (in submission
    order), ``failures`` one :class:`JobFailure` per lost circuit, so a
    checkpointed run can be resumed instead of redone.
    """

    def __init__(
        self,
        failures: Sequence[JobFailure],
        results: "Sequence[CircuitJobResult | ShardJobResult]",
    ) -> None:
        self.failures = list(failures)
        self.results = list(results)
        names = ", ".join(sorted({f.circuit for f in self.failures}))
        super().__init__(
            f"{len(self.failures)} circuit job(s) failed after retries: "
            f"{names} ({len(self.results)} completed result(s) salvaged)"
        )

    def details(self) -> str:
        """Full per-failure report including worker tracebacks."""
        parts = [str(self)]
        for failure in self.failures:
            parts.append(failure.describe())
            if failure.traceback:
                parts.append(failure.traceback.rstrip())
        return "\n".join(parts)


def run_circuit_job(job: CircuitJob, engine: Engine) -> CircuitJobResult:
    """Run one circuit's work on ``engine`` (in-process path)."""
    from ..experiments.tables import run_basic_circuit, run_table6_circuit

    started = time.perf_counter()
    session = engine.session(job.circuit)
    basic = None
    if job.run_basic:
        basic = run_basic_circuit(session, job.scale, job.heuristics or None)
    table6 = None
    if job.run_table6:
        table6 = run_table6_circuit(session, job.scale)
    return CircuitJobResult(
        circuit=job.circuit,
        basic=basic,
        table6=table6,
        wall_seconds=time.perf_counter() - started,
    )


def execute_job(job: "Job") -> "CircuitJobResult | ShardJobResult":
    """Pool-worker entry point: fresh engine, stats shipped back.

    The fresh engine still picks up ``REPRO_ARTIFACT_CACHE`` from the
    (inherited) environment; the runner's own pool path additionally
    forwards its parent engine's store directory in the job payload (see
    :func:`_pool_entry`), covering ``--artifact-cache`` runs too.
    """
    engine = Engine()
    if isinstance(job, FaultShardJob):
        result = run_fault_shard_job(job, engine)
    else:
        result = run_circuit_job(job, engine)
    result.stats = engine.stats
    return result


def _inject_chaos(job: "Job", attempt: int, in_worker: bool) -> None:
    """Test-only fault injection, keyed off environment variables.

    Environment variables cross process boundaries under every pool start
    method, unlike monkeypatching, so the failure-path tests use these:

    * ``REPRO_INJECT_FAIL=<name>[:<n>]`` -- raise ``RuntimeError`` for
      the first ``n`` attempts of that job (default: every attempt);
    * ``REPRO_INJECT_SLEEP=<name>:<seconds>`` -- stall the job (drives
      the timeout path);
    * ``REPRO_INJECT_EXIT=<name>`` -- kill the worker process outright
      (pool workers only; simulates an OOM kill -> ``BrokenProcessPool``);
    * ``REPRO_INJECT_EXIT_SIGKILL=<name>[:<n>]`` -- SIGKILL the worker
      process for the first ``n`` attempts (default: every attempt; pool
      workers only).  Unlike ``os._exit``, SIGKILL gives the process
      zero chance to flush or clean up -- the hardest crash the service
      supervisor must recover from.

    ``<name>`` matches either the job's circuit (every shard of it) or
    its full key (``circuit#shard`` targets one specific shard).
    """
    names = {job.circuit, job.key}
    spec = os.environ.get("REPRO_INJECT_SLEEP")
    if spec:
        name, _, seconds = spec.partition(":")
        if name in names:
            time.sleep(float(seconds or 60.0))
    spec = os.environ.get("REPRO_INJECT_EXIT")
    if spec and in_worker and spec in names:
        os._exit(13)
    spec = os.environ.get("REPRO_INJECT_EXIT_SIGKILL")
    if spec and in_worker:
        name, _, count = spec.partition(":")
        if name in names and attempt < (int(count) if count else 1 << 30):
            os.kill(os.getpid(), signal.SIGKILL)
    spec = os.environ.get("REPRO_INJECT_FAIL")
    if spec:
        name, _, count = spec.partition(":")
        if name in names and attempt < (int(count) if count else 1 << 30):
            raise RuntimeError(
                f"injected failure ({job.key}, attempt {attempt})"
            )


def _run_job_guarded(
    job: "Job", engine: Engine, attempt: int, in_worker: bool
) -> "CircuitJobResult | ShardJobResult | JobFailure":
    """Run a job, converting any exception into a :class:`JobFailure`."""
    from ..experiments.tables import run_basic_circuit, run_table6_circuit

    phase = "inject"
    started = time.perf_counter()
    try:
        _inject_chaos(job, attempt, in_worker)
        if isinstance(job, FaultShardJob):
            phase = "shard"
            return run_fault_shard_job(job, engine)
        result = CircuitJobResult(circuit=job.circuit)
        phase = "session"
        session = engine.session(job.circuit)
        if job.run_basic:
            phase = "basic"
            result.basic = run_basic_circuit(
                session, job.scale, job.heuristics or None
            )
        if job.run_table6:
            phase = "table6"
            result.table6 = run_table6_circuit(session, job.scale)
        result.wall_seconds = time.perf_counter() - started
    except Exception as exc:
        return JobFailure.from_exception(job.key, phase, exc, attempt)
    return result


def _effective_budget(
    budget: Budget | None, timeout: float | None, job: "Job | None" = None
) -> Budget | None:
    """The budget one job attempt runs under: the run budget (its
    *remaining* allowance) tightened to the per-job ``timeout``.

    ``None`` when neither is set -- the attempt runs unbudgeted, exactly
    as before budgets existed.  The returned budget is fresh and
    unstarted; the executing side calls ``start()`` so the deadline
    anchors on its own clock (monotonic clocks are not portable across
    processes).

    A :class:`~repro.parallel.sharding.FaultShardJob` receives its
    *share* of the run budget (``Budget.split``): the circuit's shards
    run concurrently, so shard-local deadlines and abort caps must sum
    to the global allowance instead of each shard inheriting all of it.
    Per-fault caps are per-fault and pass through unchanged.
    """
    if budget is not None and budget.is_null:
        budget = None
    if budget is None and timeout is None:
        return None
    if budget is None:
        base = Budget()
    elif isinstance(job, FaultShardJob):
        base = budget.split(job.shard_count)[job.shard_index]
    else:
        base = budget.forked()
    return base.limited(timeout)


def _pool_entry(
    job: "Job",
    attempt: int,
    heartbeat_dir: str,
    heartbeat_interval: float,
    budget: Budget | None,
    timeout: float | None,
    artifact_cache: str | None,
) -> "CircuitJobResult | ShardJobResult | JobFailure":
    """Guarded pool-worker entry point: never raises, ships stats back.

    A budget (run budget and/or per-job ``timeout``) is applied
    *cooperatively*: the worker's engine carries it into every session,
    so deadline expiry degrades the job into a partial result that is
    still shipped back and checkpointed -- unlike the parent's watchdog
    kill of an overdue job, which discards it.  While a budget is
    active, SIGTERM cancels it instead of killing the worker, so an
    orderly shutdown (e.g. a cluster preemption that signals before
    SIGKILL) also salvages the partial result.

    ``artifact_cache`` is the parent engine's persistent artifact store
    directory, forwarded in the job payload so every worker of a sharded
    run opens the *same* store -- N shards of one circuit load one
    shared enumeration instead of recomputing it N times.  ``None``
    still honours ``REPRO_ARTIFACT_CACHE`` via the fresh engine.

    A :class:`HeartbeatWriter` thread in ``heartbeat_dir`` records the
    attempt's start time and proves this worker's liveness under the
    job's key for the whole job body, so the parent's watchdog can tell
    a stuck or overdue worker from a slow one.
    """
    engine = Engine(
        artifacts=ArtifactStore(artifact_cache) if artifact_cache else None
    )
    effective = _effective_budget(budget, timeout, job)
    previous_handler = None
    if effective is not None:
        effective.start()
        engine.budget = effective
        try:
            previous_handler = signal.signal(
                signal.SIGTERM, lambda _sig, _frame: effective.cancel()
            )
        except (ValueError, OSError):  # non-main thread / unsupported platform
            previous_handler = None
    try:
        with HeartbeatWriter(
            heartbeat_path(heartbeat_dir, job.key), heartbeat_interval
        ):
            outcome = _run_job_guarded(job, engine, attempt, in_worker=True)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    if not isinstance(outcome, JobFailure):
        outcome.stats = engine.stats
    return outcome


def _init_pool_worker() -> None:
    # Workers must not read or grow the module-level one-shot simulator
    # cache (fork inherits the parent's populated cache).
    from ..sim.faultsim import mark_pool_worker

    mark_pool_worker()


class ParallelRunner:
    """Fans :class:`CircuitJob` lists out over a process pool.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` means ``os.cpu_count()``.  ``1`` runs
        everything in-process on ``engine``.
    engine:
        The parent engine.  In-process jobs run directly on it; pool
        workers build their own and their stats are merged back into it.
    retry_policy:
        The :class:`~repro.robustness.RetryPolicy` governing every retry:
        its ``max_retries`` extra attempts per job and the backoff curve,
        jitter and cap of the waits between them (default
        ``RetryPolicy()``: one retry).  Waits land on the
        ``parallel.retry_wait_seconds`` stats timer.
    heartbeat_dir:
        Directory where pool workers write per-job heartbeat files
        (default: a temporary directory per run).  Heartbeats are always
        on in the pool path; the watchdog reading them is the only kill
        path.  A job that started beating and then went silent for
        ``stale_after`` seconds is *stuck*; its workers are terminated
        and it is retried (consuming an attempt), while healthy
        in-flight and backlog neighbours are re-queued without
        consuming one.
    heartbeat_interval / stale_after:
        Beat period and silence threshold in seconds (defaults
        :data:`~repro.parallel.heartbeat.DEFAULT_HEARTBEAT_INTERVAL` /
        :data:`~repro.parallel.heartbeat.DEFAULT_STALE_AFTER`).
    timeout:
        Optional per-job wall-clock budget in seconds.  Enforced
        *cooperatively*: each job attempt runs under a
        :class:`~repro.robustness.Budget` whose deadline is ``timeout``,
        so an overrunning circuit degrades into a partial result
        (aborted faults reported) that is still returned and
        checkpointed -- on the pool path *and* in-process.  On the pool
        path the watchdog also declares a job *overdue* once it has run
        ``timeout * 1.25 + 1`` seconds (grace for jobs that salvage
        close to the deadline): it is killed and charged an attempt
        like a stuck job, with phase ``"timeout"``.  This catches
        non-cooperative stalls (a worker stuck in a syscall or a C
        kernel) that the cooperative deadline cannot interrupt.
    budget:
        Optional run-wide :class:`~repro.robustness.Budget`.  Every job
        attempt receives its *remaining* allowance (combined with
        ``timeout`` via ``Budget.limited``), so node/attempt caps apply
        inside workers and a run deadline bounds the whole sweep.
    """

    def __init__(
        self,
        jobs: int | None = None,
        engine: Engine | None = None,
        timeout: float | None = None,
        budget: Budget | None = None,
        retry_policy: RetryPolicy | None = None,
        heartbeat_dir: "str | Path | None" = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.engine = engine if engine is not None else Engine()
        self.retry_policy = retry_policy or RetryPolicy()
        self.heartbeat_dir = str(heartbeat_dir) if heartbeat_dir else None
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.heartbeat_interval = float(heartbeat_interval)
        if stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {stale_after}")
        self.stale_after = float(stale_after)
        self._retry_counts: dict[str, int] = {}
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        if budget is None:
            budget = self.engine.budget
        self.budget = budget if budget is None or not budget.is_null else None
        # Pool workers receive the parent store's directory in the job
        # payload (env inheritance alone would miss --artifact-cache).
        self.artifact_cache = (
            str(self.engine.artifacts.directory)
            if self.engine.artifacts is not None
            else None
        )

    def run(
        self,
        jobs: "Iterable[Job]",
        checkpoint: "RunCheckpoint | None" = None,
    ) -> "list[CircuitJobResult | ShardJobResult]":
        """Execute every job; results in submission (key) order.

        With ``checkpoint``, finished results are persisted as they
        complete and jobs whose matching checkpoint already exists are
        skipped (their stored result is returned in place; its stats are
        *not* re-merged -- that work happened in a previous run).  Raises
        :class:`ParallelRunError` -- carrying all completed results --
        only after every failed job has exhausted its retries.
        """
        job_list: "Sequence[Job]" = list(jobs)
        results: "dict[str, CircuitJobResult | ShardJobResult]" = {}
        failures: list[JobFailure] = []
        pending: "list[Job]" = []
        self._retry_counts = {}
        if self.budget is not None:
            self.budget.start()
        if checkpoint is not None and checkpoint.stats is None:
            checkpoint.stats = self.engine.stats
        for job in job_list:
            cached = checkpoint.load(job) if checkpoint is not None else None
            if cached is not None:
                results[job.key] = cached
                self.engine.stats.count("parallel.resumed")
                self._journal_record(job, resumed=True)
            else:
                pending.append(job)
        if pending:
            self.engine.stats.count("parallel.jobs", len(pending))
            if self.jobs == 1 or len(pending) < 2:
                self._run_serial(pending, results, failures, checkpoint)
            else:
                self._run_pool(pending, results, failures, checkpoint)
        ordered = [
            results[job.key]
            for job in job_list
            if job.key in results
        ]
        if failures:
            self.engine.stats.count("parallel.failures", len(failures))
            raise ParallelRunError(failures, ordered)
        return ordered

    # -- shared bookkeeping --------------------------------------------

    @staticmethod
    def _job_kind(job: "Job") -> str:
        return "shard" if isinstance(job, FaultShardJob) else "circuit"

    def _journal_record(self, job: "Job", **extra) -> None:
        """Append a per-job completion record to the engine (when it keeps
        one; see ``Engine.job_records``) for run-journal bookkeeping."""
        records = getattr(self.engine, "job_records", None)
        if records is not None:
            records.append({"key": job.key, "kind": self._job_kind(job), **extra})

    def _record(
        self,
        job: "Job",
        result: "CircuitJobResult | ShardJobResult",
        results: "dict[str, CircuitJobResult | ShardJobResult]",
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        if result.stats is not None:
            self.engine.stats.merge(result.stats)
        results[result.key] = result
        extra: dict = {"wall_seconds": round(result.wall_seconds, 6)}
        retries = self._retry_counts.get(job.key, 0)
        if retries:
            extra["retries"] = retries
        self._journal_record(job, **extra)
        if checkpoint is not None:
            checkpoint.save(result, job)
            self.engine.stats.count("parallel.checkpointed")

    def _count_retry(self, job: "Job") -> None:
        self.engine.stats.count("parallel.retries")
        self._retry_counts[job.key] = self._retry_counts.get(job.key, 0) + 1

    def _backoff(self, delay: float) -> None:
        """Wait ``delay`` seconds before the next attempt, on the record.

        Every wait lands on the ``parallel.retry_wait_seconds`` timer so
        a run's journal entry proves retries were *paced* (bounded
        backoff) rather than hot-looped.
        """
        if delay > 0:
            self.engine.stats.add_time("parallel.retry_wait_seconds", delay)
            time.sleep(delay)

    def _attempt_serial(
        self, job: "Job", failures: list[JobFailure], attempt: int = 0
    ) -> "CircuitJobResult | ShardJobResult | None":
        """In-process execution with the retry policy applied, starting
        at ``attempt`` (the broken-pool fallback continues each job's
        attempt count instead of restarting it).

        The per-job cooperative budget applies here too (installed on
        the engine for the duration of the attempt), so ``--timeout``
        and run budgets work at ``--jobs 1`` -- degradation instead of
        the pool path's preemption.
        """
        while True:
            effective = _effective_budget(self.budget, self.timeout, job)
            previous = self.engine.budget
            if effective is not None:
                self.engine.budget = effective.start()
            try:
                outcome = _run_job_guarded(
                    job, self.engine, attempt, in_worker=False
                )
            finally:
                self.engine.budget = previous
            if not isinstance(outcome, JobFailure):
                return outcome
            if attempt >= self.retry_policy.max_retries:
                failures.append(outcome)
                return None
            attempt += 1
            self._count_retry(job)
            self._backoff(self.retry_policy.delay(attempt, job.key))

    def _run_serial(
        self,
        jobs: "Sequence[Job]",
        results: "dict[str, CircuitJobResult | ShardJobResult]",
        failures: list[JobFailure],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        for job in jobs:
            outcome = self._attempt_serial(job, failures)
            if outcome is not None:
                self._record(job, outcome, results, checkpoint)

    # -- pool path -----------------------------------------------------

    def _run_pool(
        self,
        jobs: "Sequence[Job]",
        results: "dict[str, CircuitJobResult | ShardJobResult]",
        failures: list[JobFailure],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        beats = (
            nullcontext(self.heartbeat_dir)
            if self.heartbeat_dir
            else tempfile.TemporaryDirectory(
                prefix="repro-heartbeats-", ignore_cleanup_errors=True
            )
        )
        with beats as directory:
            # The overdue mark leaves the cooperative deadline headroom to
            # salvage a partial result: a worker that trips its budget at
            # ~timeout still needs to finish the in-flight seam and ship
            # the result back before the watchdog gives up on it.
            watchdog = Watchdog(
                Path(directory),
                self.stale_after,
                self.timeout * 1.25 + 1.0 if self.timeout is not None else None,
            )
            queue: "list[tuple[Job, int]]" = [(job, 0) for job in jobs]
            while queue:
                failed, unfinished, broken = self._pool_round(
                    queue, results, checkpoint, watchdog
                )
                retried: "list[tuple[Job, int]]" = []
                for job, attempt, failure in failed:
                    if attempt < self.retry_policy.max_retries:
                        self._count_retry(job)
                        retried.append((job, attempt + 1))
                    else:
                        failures.append(failure)
                if retried:
                    # One paced wait covers the whole retry batch: the
                    # longest backoff among them (per-job sleeps would
                    # serialize an otherwise-parallel round).
                    self._backoff(
                        max(
                            self.retry_policy.delay(attempt, job.key)
                            for job, attempt in retried
                        )
                    )
                if not broken:
                    # Neighbours of a watchdog kill rerun at their
                    # *current* attempt (they did nothing wrong).
                    queue = unfinished + retried
                    continue
                # The pool machinery itself died (a worker was killed
                # mid-job); a new pool over the same jobs would face the
                # same hazard, so finish everything left in-process.
                self.engine.stats.count("parallel.pool_broken")
                self.engine.stats.count(
                    "parallel.fallback", len(unfinished) + len(retried)
                )
                fallback: "list[tuple[Job, int]]" = []
                for job, attempt in unfinished:
                    # A beat file proves this job had started when the
                    # pool died: its in-process rerun is its next
                    # attempt, charged once so the journal shows the
                    # crash was recovered.  Backlog jobs never ran.
                    if heartbeat_path(directory, job.key).exists():
                        self._count_retry(job)
                        attempt += 1
                    fallback.append((job, attempt))
                for job, attempt in fallback + retried:
                    outcome = self._attempt_serial(job, failures, attempt)
                    if outcome is not None:
                        self._record(job, outcome, results, checkpoint)
                return

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill the workers of a pool the watchdog declared stuck.

        Abandoning the pool (``shutdown(wait=False)``) is not enough: the
        interpreter's exit handler still joins the pool machinery, so a
        worker stalled in a syscall would keep the *parent* alive long
        after the run reported its failure.  SIGTERM first -- a worker
        that can still cooperate cancels its budget and dies cleanly --
        then SIGKILL for anything that cannot be reasoned with.
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            process.terminate()
        grace = time.monotonic() + 2.0
        for process in processes:
            process.join(max(0.0, grace - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()

    def _kill_failure(
        self, watchdog: Watchdog, job: "Job", attempt: int, now: float
    ) -> JobFailure:
        """The failure charged to a job the watchdog ordered killed."""
        if watchdog.is_overdue(job.key, now):
            self.engine.stats.count("parallel.timeouts")
            phase = "timeout"
            message = (
                f"still running {watchdog.overdue_after:g}s after it "
                f"started (timeout {self.timeout}s)"
            )
        else:
            self.engine.stats.count("parallel.stuck")
            phase = "stuck"
            message = f"no heartbeat within {self.stale_after}s"
        return JobFailure(
            circuit=job.key,
            phase=phase,
            error="TimeoutError",
            message=message,
            attempt=attempt,
        )

    def _pool_round(
        self,
        queue: "Sequence[tuple[Job, int]]",
        results: "dict[str, CircuitJobResult | ShardJobResult]",
        checkpoint: "RunCheckpoint | None",
        watchdog: Watchdog,
    ) -> tuple[
        "list[tuple[Job, int, JobFailure]]",
        "list[tuple[Job, int]]",
        bool,
    ]:
        """One pool pass over ``queue``; completed results are recorded
        (and checkpointed) eagerly, in completion order.

        Returns ``(failed, unfinished, broken)``.  ``failed`` holds every
        job charged an attempt this round: a failure its worker reported,
        or a watchdog kill (phase ``"stuck"`` or ``"timeout"``).
        ``unfinished`` holds the jobs to rerun at their current attempt:
        the in-flight and backlog neighbours of a watchdog kill, or
        everything left when the pool broke.
        """
        failed: "list[tuple[Job, int, JobFailure]]" = []
        unfinished: "list[tuple[Job, int]]" = []
        broken = False
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(queue)), initializer=_init_pool_worker
        )
        clean = True
        # Wake often enough to read heartbeats between completions.
        slice_timeout = self.stale_after / 2.0
        if watchdog.overdue_after is not None:
            slice_timeout = min(slice_timeout, watchdog.overdue_after)
        for job, _attempt in queue:
            # A retried (or re-queued) job's previous attempt left a stale
            # heartbeat file; without clearing it the watchdog would read
            # the old clocks and kill the fresh attempt while it is still
            # queued in the pool backlog.
            try:
                heartbeat_path(watchdog.directory, job.key).unlink(
                    missing_ok=True
                )
            except OSError:
                pass
        try:
            future_map = {
                pool.submit(
                    _pool_entry,
                    job,
                    attempt,
                    str(watchdog.directory),
                    self.heartbeat_interval,
                    self.budget.forked() if self.budget is not None else None,
                    self.timeout,
                    self.artifact_cache,
                ): (job, attempt)
                for job, attempt in queue
            }
            # `remaining` = futures not yet handed off to an outcome list;
            # everything still in it when the pool breaks must be re-run.
            remaining = set(future_map)
            while remaining:
                done, _ = wait(
                    remaining, timeout=slice_timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    remaining.discard(future)
                    job, attempt = future_map[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        unfinished.append((job, attempt))
                        unfinished.extend(future_map[f] for f in remaining)
                        remaining = set()
                        clean = False
                        break
                    except Exception as exc:  # e.g. unpicklable result
                        failed.append(
                            (
                                job,
                                attempt,
                                JobFailure.from_exception(
                                    job.key, "pool", exc, attempt
                                ),
                            )
                        )
                        continue
                    if isinstance(outcome, JobFailure):
                        failed.append((job, attempt, outcome))
                    else:
                        self._record(job, outcome, results, checkpoint)
                if not remaining:
                    break
                now = time.time()
                _, dead = watchdog.classify(
                    [future_map[f][0].key for f in remaining], now
                )
                if not dead:
                    continue
                # Kill the pool: only the stuck or overdue jobs are
                # charged, everything else outstanding is re-queued.  No
                # future.cancel() here: it races the pool's own cleanup
                # thread, which then fails setting BrokenProcessPool on
                # a cancelled future (InvalidStateError on Python 3.11).
                for future in remaining:
                    job, attempt = future_map[future]
                    if job.key in dead:
                        failure = self._kill_failure(watchdog, job, attempt, now)
                        failed.append((job, attempt, failure))
                    else:
                        unfinished.append((job, attempt))
                clean = False
                self._terminate_workers(pool)
                break
        finally:
            # After a watchdog kill or pool breakage, waiting would block
            # on a stuck or dead worker; abandon the pool instead.
            pool.shutdown(wait=clean, cancel_futures=True)
        return failed, unfinished, broken

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParallelRunner(jobs={self.jobs}, retry_policy={self.retry_policy}, "
            f"timeout={self.timeout})"
        )
