"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps public callables of each ``repro`` layer from the
benchmark's own files -- the program itself is not modified.  Each call
records a span ``(pid, id, parent, name, start, end, info)``; spans stay in
memory and are read once the workload ends.  Forked pool workers inherit
the patched callables but exit without running ``atexit`` handlers, so a
worker appends its spans to ``spans-<pid>.jsonl`` in the spill directory
each time one of its top-level spans closes.

A layer's self time is its spans' duration minus the part covered by
their child spans; :func:`layer_metrics` turns spans plus the engine's own
counters into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Patches layer entry points and collects spans in memory."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: list[tuple] = []
        self.main_pid = os.getpid()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with no spans of its own; the parent's
        # open spans stay the parent's.
        self.spans = []
        self._stack = []

    # -- span recording ------------------------------------------------

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, info) -> None:
        self._stack.pop()
        self.spans.append(
            (os.getpid(), span_id, parent, name, start, time.perf_counter(), info)
        )
        if not self._stack and os.getpid() != self.main_pid:
            self._spill()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. the timed section)."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start, None)

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def all_spans(self) -> list[tuple]:
        """This process's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(tuple(json.loads(line)) for line in handle)
        return spans

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class (methods) or the module where the caller
        looks the name up.  ``info(args, result)`` may return a small
        JSON value stored on the span (columns simulated, success, ...).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(
                    span_id, parent, name, start,
                    info(args, result) if info is not None else None,
                )

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def install(self) -> "Tracer":
        """Wrap every traced entry point (see README.md for the list)."""
        from repro.artifacts.store import ArtifactStore
        from repro.atpg import justify as justify_mod
        from repro.engine import session as session_mod
        from repro.engine.session import CircuitSession
        from repro.experiments import tables as tables_mod
        from repro.parallel import runner as runner_mod
        from repro.parallel.checkpoint import RunCheckpoint
        from repro.parallel.runner import ParallelRunner
        from repro.paths import enumerate as enumerate_mod
        from repro.sim.batch import BatchSimulator, ConeSimulator
        from repro.sim.faultsim import FaultSimulator
        from repro.sim.packed import PackedConeSimulator

        def columns(args, _result):
            return int(args[1].shape[-1])

        def justified(_args, result):
            return 0 if result is None else 1

        def secondaries(_args, result):
            generation = getattr(result, "result", result)
            if hasattr(generation, "secondary_attempts"):
                return [generation.secondary_attempts, generation.secondary_successes]
            return None

        def screened(_args, targets):
            if targets is None:
                return None
            kept = len(targets.p0) + len(targets.p1)
            dropped = targets.dropped_conflict + targets.dropped_implication
            return [kept + dropped, dropped]

        def enumerated(_args, result):
            return None if result is None else result.num_faults

        self.wrap(justify_mod.Justifier, "justify", "atpg.justify", justified)
        self.wrap(justify_mod, "has_implication_conflict", "faults.implication")
        self.wrap(BatchSimulator, "restricted", "sim.cone_lookup")
        self.wrap(BatchSimulator, "run_triples", "sim.run_triples")
        self.wrap(BatchSimulator, "__init__", "engine.compile")
        self.wrap(ConeSimulator, "run_codes", "sim.kernel", columns)
        self.wrap(PackedConeSimulator, "run_codes", "sim.kernel", columns)
        self.wrap(PackedConeSimulator, "screen", "sim.kernel", columns)
        self.wrap(FaultSimulator, "__init__", "engine.compile")
        self.wrap(FaultSimulator, "coverage", "sim.faultsim")
        self.wrap(FaultSimulator, "detection_matrix", "sim.faultsim")
        self.wrap(enumerate_mod, "enumerate_paths", "paths.enumerate", enumerated)
        self.wrap(session_mod, "build_target_sets", "faults.target_sets", screened)
        self.wrap(session_mod, "load_enumeration", "artifacts.load")
        self.wrap(session_mod, "load_target_sets", "artifacts.load")
        self.wrap(session_mod, "publish_enumeration", "artifacts.publish")
        self.wrap(session_mod, "publish_target_sets", "artifacts.publish")
        self.wrap(ArtifactStore, "load", "artifacts.load")
        self.wrap(ArtifactStore, "publish", "artifacts.publish")
        self.wrap(CircuitSession, "__init__", "circuit.load")
        for method in ("enumeration", "target_sets", "fault_simulator"):
            self.wrap(CircuitSession, method, "engine.session")
        for method in ("generate_basic", "generate_enriched", "generate_shard_outcomes"):
            self.wrap(CircuitSession, method, "atpg.generate", secondaries)
        self.wrap(RunCheckpoint, "save", "parallel.checkpoint")
        self.wrap(tables_mod, "merge_shard_results", "parallel.merge")
        self.wrap(tables_mod, "run_table1", "experiments.tables12")
        self.wrap(tables_mod, "run_table2", "experiments.tables12")
        self.wrap(ParallelRunner, "run", "parallel.pool")
        self.wrap(runner_mod, "run_fault_shard_job", "parallel.job")
        return self


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Self-time metric -> span names it sums.  Inside the timed section of an
#: in-process workload these partition ``wall_s`` together with
#: ``trace.unattributed_s`` (the timed root's own self time).
SELF_TIME = {
    "atpg.justify_s": ("atpg.justify",),
    "atpg.generate_s": ("atpg.generate",),
    "sim.kernel_s": ("sim.kernel",),
    "sim.cone_lookup_s": ("sim.cone_lookup",),
    "sim.verify_s": ("sim.run_triples",),
    "sim.faultsim_s": ("sim.faultsim",),
    "faults.target_sets_s": ("faults.target_sets",),
    "faults.implication_s": ("faults.implication",),
    "paths.enumerate_s": ("paths.enumerate",),
    "artifacts.publish_s": ("artifacts.publish",),
    "artifacts.load_s": ("artifacts.load",),
    "parallel.wait_s": ("parallel.pool",),
    "parallel.merge_s": ("parallel.merge",),
    "parallel.checkpoint_s": ("parallel.checkpoint",),
    "experiments.run_s": ("experiments.run", "experiments.tables12"),
    "engine.session_s": ("engine.session",),
    "engine.compile_s": ("engine.compile",),
    "circuit.load_s": ("circuit.load",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(spans: list[tuple]) -> dict[tuple, float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    covered: dict[tuple, float] = defaultdict(float)
    for pid, _sid, parent, _name, start, end, _info in spans:
        if parent != -1:
            covered[(pid, parent)] += end - start
    return {
        (pid, sid): (end - start) - covered[(pid, sid)]
        for pid, sid, _parent, _name, start, end, _info in spans
    }


def layer_metrics(
    spans: list[tuple],
    counters: dict,
    root: str = "workload",
    workers: int = 1,
    artifact_bytes: int = 0,
) -> dict[str, float]:
    """Derive every per-layer metric from spans and engine counters.

    Only spans inside the timed ``root`` span count, in any process,
    except for ``circuit.load_s`` and ``engine.compile_s``, which report
    set-up work too.
    """
    own = self_times(spans)
    (timed,) = [s for s in spans if s[3] == root and s[0] == os.getpid()]
    setup_metrics = {
        metric: sum(own[(s[0], s[1])] for s in spans if s[3] in SELF_TIME[metric])
        for metric in ("circuit.load_s", "engine.compile_s")
    }
    spans = [s for s in spans if timed[4] <= s[4] and s[5] <= timed[5]]
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
    parent_name = {(s[0], s[1]): s[3] for s in spans}
    metrics: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(own[(s[0], s[1])] for n in names for s in by_name[n])
    # Full-netlist simulations under fault simulation belong to it; the
    # rest are the justifier's final verification runs.
    moved = sum(
        own[(s[0], s[1])]
        for s in by_name["sim.run_triples"]
        if parent_name.get((s[0], s[2])) == "sim.faultsim"
    )
    metrics["sim.verify_s"] -= moved
    metrics["sim.faultsim_s"] += moved
    metrics["experiments.tables12_s"] = sum(
        s[5] - s[4] for s in by_name["experiments.tables12"]
    )

    justify = by_name["atpg.justify"]
    durations_ms = sorted((s[5] - s[4]) * 1e3 for s in justify)
    metrics["atpg.justify_calls"] = len(justify)
    metrics["atpg.justify_ok"] = sum(s[6] or 0 for s in justify)
    metrics["atpg.justify_ok_ratio"] = _ratio(metrics["atpg.justify_ok"], len(justify))
    metrics["atpg.justify_p50_ms"] = statistics.median(durations_ms) if durations_ms else 0.0
    metrics["atpg.justify_p99_ms"] = (
        statistics.quantiles(durations_ms, n=100)[98]
        if len(durations_ms) >= 2
        else sum(durations_ms)
    )
    pairs = [s[6] for s in by_name["atpg.generate"] if s[6]]
    metrics["atpg.secondary_attempts"] = sum(p[0] for p in pairs)
    metrics["atpg.secondary_ok"] = sum(p[1] for p in pairs)
    metrics["atpg.secondary_ok_ratio"] = _ratio(
        metrics["atpg.secondary_ok"], metrics["atpg.secondary_attempts"]
    )
    metrics["atpg.screen_calls"] = counters.get("compact.screen_calls", 0)
    metrics["atpg.screen_columns"] = counters.get("compact.screen_columns", 0)

    kernel = by_name["sim.kernel"]
    metrics["sim.kernel_calls"] = len(kernel)
    metrics["sim.columns_per_call"] = _ratio(
        counters.get("cone.columns", 0), counters.get("cone.runs", 0)
    )
    if counters.get("backend.packed.runs"):
        metrics["sim.words_per_call"] = _ratio(
            counters["backend.packed.words"], counters["backend.packed.runs"]
        )
    else:  # numpy kernel: the 64-lane words the same columns would fill
        metrics["sim.words_per_call"] = _ratio(
            sum(math.ceil(s[6] / 64) for s in kernel), len(kernel)
        )
    hits, misses = counters.get("cone.hit", 0), counters.get("cone.miss", 0)
    metrics["sim.cone_hits"] = hits
    metrics["sim.cone_lookups"] = hits + misses
    metrics["sim.cone_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["sim.cone_compiles"] = counters.get("cone.compile", 0)
    metrics["sim.cone_nodes"] = counters.get("justify.cone_nodes", 0)
    metrics["sim.full_nodes"] = counters.get("justify.full_nodes", 0)
    metrics["sim.cone_node_ratio"] = _ratio(
        metrics["sim.cone_nodes"], metrics["sim.full_nodes"]
    )

    built = [s[6] for s in by_name["faults.target_sets"] if s[6]]
    metrics["faults.implication_calls"] = len(by_name["faults.implication"])
    metrics["faults.screened"] = sum(b[0] for b in built)
    metrics["faults.eliminated"] = sum(b[1] for b in built)
    metrics["faults.eliminated_ratio"] = _ratio(
        metrics["faults.eliminated"], metrics["faults.screened"]
    )
    metrics["paths.faults"] = sum(s[6] or 0 for s in by_name["paths.enumerate"])

    a_hits, a_misses = counters.get("artifact.hit", 0), counters.get("artifact.miss", 0)
    metrics["artifacts.hits"] = a_hits
    metrics["artifacts.lookups"] = a_hits + a_misses
    metrics["artifacts.hit_ratio"] = _ratio(a_hits, a_hits + a_misses)
    metrics["artifacts.bytes"] = artifact_bytes

    jobs = by_name["parallel.job"]
    busy_by_pid: dict[int, float] = defaultdict(float)
    for s in jobs:
        busy_by_pid[s[0]] += s[5] - s[4]
    busy = sum(busy_by_pid.values())
    pool_wall = sum(s[5] - s[4] for s in by_name["parallel.pool"])
    metrics["parallel.jobs"] = counters.get("parallel.jobs", 0)
    metrics["parallel.retries"] = counters.get("parallel.retries", 0)
    metrics["parallel.busy_s"] = busy
    metrics["parallel.idle_s"] = workers * pool_wall - busy if jobs else 0.0
    metrics["parallel.critical_path_s"] = max(busy_by_pid.values(), default=0.0)

    metrics.update(setup_metrics)
    metrics["trace.unattributed_s"] = own[(timed[0], timed[1])]
    metrics["trace.spans"] = len(spans)
    return metrics
