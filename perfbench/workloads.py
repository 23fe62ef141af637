"""One benchmark iteration in a fresh interpreter: set up, time, verify.

``run.py`` starts this script once per iteration, so every iteration pays
interpreter start-up and a cold ``Engine`` the way a command-line user
does.  It writes one JSON result to ``--out``::

    python3 perfbench/workloads.py --workload s1423-basic-values --seed 1000 \\
        --mode run --work DIR --out result.json --spawned <perf_counter at spawn>

``--spawned`` is the parent's ``time.perf_counter()`` just before the
start (a system-wide monotonic clock on Linux), so ``setup_s`` includes
interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.algebra.triple import Triple
from repro.artifacts import ArtifactStore
from repro.engine import Engine
from repro.experiments import ExperimentScale, get_scale, run_all, run_basic_circuit
from repro.experiments.workloads import HEURISTICS, TABLE3_CIRCUITS, TABLE6_CIRCUITS
from repro.sim.batch import BatchSimulator
from repro.sim.faultsim import FaultSimulator
from repro.sim.vectors import TwoPatternTest

import checks
from spans import Tracer, layer_metrics


class Workload:
    """Common shape: ``setup`` (untimed), ``run`` (timed), ``verify``."""

    def __init__(self, seed: int, work: Path, reduced: bool, tracer: Tracer | None) -> None:
        self.seed = seed
        self.work = work
        self.reduced = reduced
        self.tracer = tracer
        self.engine: Engine | None = None

    def experiments_span(self):
        """Span around the benchmark's own call into the experiments layer."""
        return self.tracer.span("experiments.run") if self.tracer else nullcontext()

    def artifact_bytes(self) -> int:
        return 0

    def worker_rss_kb(self) -> int:
        return 0


class BasicValues(Workload):
    """``run_basic_circuit(s1423_proxy, "default", ["values"])``, packed kernel."""

    name = "s1423-basic-values"

    def setup(self) -> None:
        self.circuit = "s641_proxy" if self.reduced else "s1423_proxy"
        base = ExperimentScale("reduced", 60, 15, 8) if self.reduced else get_scale("default")
        self.scale = replace(base, seed=self.seed)
        self.engine = Engine()
        self.session = self.engine.session(self.circuit)
        self.session.simulator
        self.generated = []
        generate = self.session.generate_basic

        def capture(*args, **kwargs):
            result = generate(*args, **kwargs)
            self.generated.append(result)
            return result

        # run_basic_circuit keeps only the counts; the instance attribute
        # hands the benchmark the full GenerationResult for re-grading.
        self.session.generate_basic = capture

    def run(self) -> None:
        with self.experiments_span():
            self.entry = run_basic_circuit(self.session, self.scale, ["values"])

    def verify(self) -> list[tuple[str, list[str]]]:
        outcome = self.entry.outcomes["values"]
        (result,) = self.generated
        problems = checks.verify_generation(self.session.netlist, result)
        if (outcome.tests, outcome.detected_p0) != (result.num_tests, result.detected_by_pool[0]):
            problems.append("table outcome disagrees with the generation result")
        targets = self.session.target_sets(self.scale.max_faults, self.scale.p0_min_faults)
        p01, _ = FaultSimulator(
            self.session.netlist, targets.all_records,
            simulator=BatchSimulator(self.session.netlist),
        ).coverage(result.test_vectors)
        if p01 != outcome.detected_p01:
            problems.append(f"P0+P1 re-graded {p01}, table claims {outcome.detected_p01}")
        target_problems = [] if len(targets.p0) == self.entry.p0_total else ["|P0| mismatch"]
        return [("target_sets", target_problems), ("generation", problems)]

    def quality(self) -> dict:
        outcome = self.entry.outcomes["values"]
        return {
            "tests": outcome.tests,
            "p0_detected": outcome.detected_p0,
            "p01_detected": outcome.detected_p01,
            "primaries": self.entry.p0_total,
            "aborted": outcome.aborted,
        }


#: The four fully specified single-input waveforms, indexed ``2*v1 + v3``.
WAVEFORMS = np.array(
    [Triple.transition(v1, v3) for v1 in (0, 1) for v3 in (0, 1)], dtype=object
)


def random_tests(netlist, seed: int, stream: int, count: int) -> list[TwoPatternTest]:
    """Seeded random two-pattern tests; each input toggles with p = 1/4."""
    rng = np.random.default_rng([seed, stream])
    n_pis = len(netlist.input_indices)
    first = rng.integers(0, 2, size=(count, n_pis))
    final = first ^ (rng.random((count, n_pis)) < 0.25)
    pis = netlist.input_indices
    return [TwoPatternTest(dict(zip(pis, row))) for row in WAVEFORMS[2 * first + final]]


class PaperTargets(Workload):
    """Target sets at the paper's N_P/N_P0, published to a fresh store,
    then random tests graded against ``P0 u P1``."""

    name = "paper-targets"

    def setup(self) -> None:
        if self.reduced:
            self.circuits, self.params, self.sets, self.per_set = ("s641_proxy",), (200, 50), 1, 256
        else:
            self.circuits, self.params, self.sets, self.per_set = (
                ("s9234r_proxy", "b04_proxy"), (10000, 1000), 4, 2048
            )
        self.store_dir = self.work / "store"
        self.store = ArtifactStore(self.store_dir)
        self.engine = Engine(artifacts=self.store)
        self.sessions = [self.engine.session(name) for name in self.circuits]
        for session in self.sessions:
            session.simulator

    def _tests(self, index: int, session, r: int) -> list[TwoPatternTest]:
        return random_tests(session.netlist, self.seed, index * 1000 + r, self.per_set)

    def run(self) -> None:
        self.targets, self.graded = [], []
        for index, session in enumerate(self.sessions):
            targets = session.target_sets(*self.params)
            simulator = session.fault_simulator(targets.all_records)
            graded = []
            for r in range(self.sets):
                mask = simulator.detected_mask(self._tests(index, session, r))
                graded.append((int(mask[: len(targets.p0)].sum()), int(mask.sum())))
            self.targets.append(targets)
            self.graded.append(graded)

    def verify(self) -> list[tuple[str, list[str]]]:
        fresh = Engine(artifacts=ArtifactStore(self.store_dir))
        ops = []
        for index, (session, targets) in enumerate(zip(self.sessions, self.targets)):
            problems = checks.verify_store_roundtrip(fresh, session.netlist.name, self.params, targets)
            loaded = fresh.session(session.netlist.name).target_sets(*self.params)
            simulator = FaultSimulator(
                loaded.netlist, loaded.all_records,
                simulator=BatchSimulator(loaded.netlist),
            )
            for r, (p0, p01) in enumerate(self.graded[index]):
                tests = self._tests(index, session, r)
                p01_again, _ = simulator.coverage(tests)
                if p01_again != p01:
                    problems.append(f"set {r}: reloaded faults grade {p01_again}, run graded {p01}")
            if targets.budget_exhausted is not None:
                problems.append(f"target-set build cut short ({targets.budget_exhausted})")
            ops.append((f"target_sets:{session.netlist.name}", problems))
        return ops

    def screened(self) -> int:
        return sum(
            len(t.all_records) + t.dropped_conflict + t.dropped_implication for t in self.targets
        )

    def quality(self) -> dict:
        return {
            "tests": len(self.circuits) * self.sets * self.per_set,
            "p0_detected": sum(p0 for graded in self.graded for p0, _ in graded),
            "p01_detected": sum(p01 for graded in self.graded for _, p01 in graded),
            "primaries": self.screened(),
            "aborted": 0,
        }

    def artifact_bytes(self) -> int:
        return self.store.total_bytes()


class TablesSweep(Workload):
    """``run_all`` over the Table 3/6 circuits: pool, shards, checkpoints,
    heartbeats and a pre-seeded artifact store."""

    name = "tables-sweep"

    def setup(self) -> None:
        if self.reduced:
            self.basic, self.table6 = ("s641_proxy", "b03_proxy"), ("s641_proxy", "b03_proxy")
            self.scale = ExperimentScale("reduced", 30, 8, 4, seed=self.seed)
        else:
            self.basic, self.table6 = TABLE3_CIRCUITS, TABLE6_CIRCUITS
            self.scale = ExperimentScale("bench", 60, 15, 8, seed=self.seed)
        self.jobs = min(2, os.cpu_count() or 1)
        self.store_dir = self.work / "store"
        self.store = ArtifactStore(self.store_dir)
        seeder = Engine(artifacts=self.store)
        for name in dict.fromkeys(self.basic + self.table6):
            seeder.session(name).target_sets(self.scale.max_faults, self.scale.p0_min_faults)
        (self.work / "capture").mkdir()
        self.capture = checks.ShardCapture(self.work / "capture").install()

    def run(self) -> None:
        self.engine = Engine(artifacts=self.store)
        with self.experiments_span():
            self.results = run_all(
                self.scale,
                circuits=self.basic,
                table6_circuits=self.table6,
                engine=self.engine,
                jobs=self.jobs,
                shards=2,
                checkpoint_dir=str(self.work / "checkpoints"),
                heartbeat_dir=str(self.work / "heartbeats"),
            )

    def _sweeps(self):
        """``(circuit, sweep, expected counts)`` for every merged run."""
        for name in self.basic:
            for heuristic in HEURISTICS:
                outcome = self.results.basic[name].outcomes[heuristic]
                yield name, heuristic, outcome.aborted, {
                    "tests": outcome.tests, "p0": outcome.detected_p0, "p01": outcome.detected_p01,
                }
        for row in self.results.table6:
            yield row.circuit, "enrich", row.aborted, {
                "tests": row.tests, "p0": row.p0_detected, "p01": row.p01_detected,
            }

    def verify(self) -> list[tuple[str, list[str]]]:
        # run_all raises when a pool job fails for good, so every job
        # counted here completed.
        ops = [(f"job{i}", []) for i in range(self.engine.stats.counter("parallel.jobs"))]
        records = self.capture.records()
        reader = Engine(artifacts=ArtifactStore(self.store_dir))
        for circuit, sweep, _aborted, expected in self._sweeps():
            mine = [r for r in records if r["circuit"] == circuit and r["sweep"] == sweep]
            session = reader.session(circuit)
            targets = session.target_sets(self.scale.max_faults, self.scale.p0_min_faults)
            problems = checks.verify_shard_sweep(session.netlist, targets, mine, expected)
            ops.append((f"{circuit}:{sweep}", problems))
        return ops

    def quality(self) -> dict:
        totals = {"tests": 0, "p0_detected": 0, "p01_detected": 0, "primaries": 0, "aborted": 0}
        p0_total = {name: entry.p0_total for name, entry in self.results.basic.items()}
        p0_total.update((row.circuit, row.p0_total) for row in self.results.table6)
        for circuit, _sweep, aborted, counts in self._sweeps():
            totals["tests"] += counts["tests"]
            totals["p0_detected"] += counts["p0"]
            totals["p01_detected"] += counts["p01"]
            totals["primaries"] += p0_total[circuit]
            totals["aborted"] += aborted
        return totals

    def artifact_bytes(self) -> int:
        return self.store.total_bytes()

    def worker_rss_kb(self) -> int:
        peak: dict[int, int] = {}
        for record in self.capture.records():
            peak[record["pid"]] = max(peak.get(record["pid"], 0), record["maxrss_kb"])
        return sum(peak.values())


WORKLOADS = {cls.name: cls for cls in (BasicValues, PaperTargets, TablesSweep)}


def run_iteration(name: str, seed: int, work: Path, reduced: bool, mode: str, spawned: float) -> dict:
    """Set up, time and verify one workload; returns the result record.

    ``mode`` is ``run``, ``trace`` (the same, traced) or ``setup`` (set-up
    only: extra ``setup_s`` samples at little cost).
    """
    tracer = Tracer(work).install() if mode == "trace" else None
    workload = WORKLOADS[name](seed, work, reduced, tracer)
    with tracer.span("setup") if tracer else nullcontext():
        workload.setup()
    setup_s = time.perf_counter() - spawned
    if mode == "setup":
        return {"workload": name, "seed": seed, "setup_s": setup_s}
    with tracer.span("workload") if tracer else nullcontext():
        started = time.perf_counter()
        workload.run()
        wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    ops = workload.verify()
    quality = workload.quality()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.worker_rss_kb()
    record = {
        "workload": name,
        "seed": seed,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "rss_mb": rss_kb / 1024.0,
        "quality": quality,
        "attempted": len(ops),
        "failed": sum(1 for _, problems in ops if problems),
        "problems": [f"{op}: {p}" for op, problems in ops for p in problems],
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer.all_spans(),
            dict(workload.engine.stats.counters),
            workers=getattr(workload, "jobs", 1),
            artifact_bytes=workload.artifact_bytes(),
        )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)
    record = run_iteration(
        args.workload, args.seed, args.work, args.reduced, args.mode, args.spawned
    )
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
