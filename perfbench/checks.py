"""Output verification for every benchmark run.

Each check returns a list of human-readable problems (empty = verified).
The checks re-grade emitted tests with a freshly compiled simulator
(default numpy kernel), independently of the caches the run itself used.
"""

from __future__ import annotations

import json
import os
import resource
from pathlib import Path

import numpy as np

from repro.algebra.ternary import X
from repro.algebra.triple import Triple
from repro.sim.batch import BatchSimulator
from repro.sim.faultsim import FaultSimulator
from repro.sim.vectors import TwoPatternTest


def unspecified_inputs(netlist, test: TwoPatternTest) -> list[int]:
    """Primary inputs whose triple is not a fully specified waveform."""
    bad = []
    for pi in netlist.input_indices:
        triple = test.triple_for(pi)
        if X in (triple.v1, triple.v3) or triple != Triple.transition(triple.v1, triple.v3):
            bad.append(pi)
    return bad


def verify_generation(netlist, result) -> list[str]:
    """Re-grade a :class:`GenerationResult` over its own pools.

    Every test must be fully specified, the re-graded per-pool detection
    counts must equal ``detected_by_pool``, and every test must detect
    each fault it claims to target.
    """
    problems = []
    tests = result.test_vectors
    for index, test in enumerate(tests):
        bad = unspecified_inputs(netlist, test)
        if bad:
            problems.append(f"test {index}: {len(bad)} input(s) not fully specified")
    simulator = BatchSimulator(netlist)
    for pool_index, pool in enumerate(result.pools):
        detected, _ = FaultSimulator(netlist, pool, simulator=simulator).coverage(tests)
        claimed = result.detected_by_pool[pool_index]
        if detected != claimed:
            problems.append(f"pool {pool_index}: re-graded {detected} detected, claimed {claimed}")
    targeted = [(j, record) for j, test in enumerate(result.tests) for record in test.targeted]
    if targeted:
        matrix = FaultSimulator(
            netlist, [record for _, record in targeted], simulator=simulator
        ).detection_matrix(tests)
        missed = sum(1 for row, (j, _) in enumerate(targeted) if not matrix[row, j])
        if missed:
            problems.append(f"{missed} targeted fault(s) not detected by their test")
    return problems


# ----------------------------------------------------------------------
# Shard-stable sweeps: final tests are captured inside pool workers
# ----------------------------------------------------------------------


class ShardCapture:
    """Records each shard sweep's final tests for later re-grading.

    The shard-stable generator keeps only each primary's detected fault
    indices, so the final test is recovered from the node codes it grades
    (the primary-input rows of ``sim_codes`` are the test itself).  Pool
    workers are forked and never run ``atexit``: every sweep is written to
    its own file as soon as it returns.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._tests: list[str] | None = None
        self._written = 0
        self._patches: list[tuple[type, str, object]] = []

    def install(self) -> "ShardCapture":
        from repro.atpg.generator import TestGenerator
        from repro.engine.session import CircuitSession

        capture = self
        generate = CircuitSession.generate_shard_outcomes
        detect = TestGenerator._detect_static

        def generate_shard_outcomes(session, targets, config, indices, kind="basic", budget=None):
            capture._tests = []
            try:
                outcomes = generate(session, targets, config, indices, kind, budget)
            finally:
                tests, capture._tests = capture._tests, None
            capture._write({
                "circuit": session.netlist.name,
                "sweep": "enrich" if kind == "enrich" else config.heuristic,
                "outcomes": [outcome.to_payload() for outcome in outcomes],
                "tests": tests,
            })
            return outcomes

        def detect_static(generator, sim_codes, *args):
            if capture._tests is not None:
                rows = sim_codes[list(generator.netlist.input_indices)]
                capture._tests.append("".join(map(str, rows.ravel().tolist())))
            return detect(generator, sim_codes, *args)

        for owner, attr, replacement in (
            (CircuitSession, "generate_shard_outcomes", generate_shard_outcomes),
            (TestGenerator, "_detect_static", detect_static),
        ):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _write(self, record: dict) -> None:
        record["pid"] = os.getpid()
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._written += 1
        path = self.directory / f"capture-{os.getpid()}-{self._written}.json"
        path.write_text(json.dumps(record), encoding="utf-8")

    def records(self) -> list[dict]:
        return [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(self.directory.glob("capture-*.json"))
        ]


def decode_test(netlist, codes: str) -> TwoPatternTest:
    """Rebuild a test from captured primary-input codes (v1 v2 v3 per input)."""
    values = np.array([int(c) for c in codes], dtype=np.int8).reshape(-1, 3)
    return TwoPatternTest({
        pi: Triple.of(int(v1), int(v2), int(v3))
        for pi, (v1, v2, v3) in zip(netlist.input_indices, values)
    })


def verify_shard_sweep(netlist, targets, records: list[dict], expected: dict) -> list[str]:
    """Re-grade one circuit's sweep from its captured shard records.

    Every found outcome's test must be fully specified, detect its own
    primary, and detect exactly the universe indices it reported.  The
    canonical-order replay of those outcomes gives the emitted test set,
    whose re-graded counts must equal the merged table row in
    ``expected`` (``tests``, ``p0``, ``p01``).
    """
    problems = []
    outcomes, tests = [], []
    for record in records:
        found = [row for row in record["outcomes"] if row[2] == "found"]
        if len(found) != len(record["tests"]):
            return [f"{len(found)} found outcomes but {len(record['tests'])} captured tests"]
        outcomes.extend(record["outcomes"])
        tests.extend(zip((row[0] for row in found), record["tests"]))
    indices = sorted(row[0] for row in outcomes)
    if indices != list(range(len(targets.p0))):
        problems.append(f"outcomes cover {len(indices)} of |P0|={len(targets.p0)} primaries")
    test_of = {index: decode_test(netlist, codes) for index, codes in tests}
    order = sorted(test_of)
    simulator = FaultSimulator(netlist, targets.all_records, simulator=BatchSimulator(netlist))
    matrix = simulator.detection_matrix([test_of[i] for i in order])
    column = {index: col for col, index in enumerate(order)}
    for row in outcomes:
        index, uid, status, detected = row[0], row[1], row[2], row[3]
        if status != "found":
            continue
        test = test_of[index]
        if unspecified_inputs(netlist, test):
            problems.append(f"primary {index}: test not fully specified")
        graded = set(np.flatnonzero(matrix[:, column[index]]).tolist())
        if uid not in graded:
            problems.append(f"primary {index}: test misses its own fault")
        if graded != set(detected):
            problems.append(f"primary {index}: re-graded detections differ from reported")
    dead: set[int] = set()
    emitted = []
    for row in sorted(outcomes, key=lambda row: row[0]):
        if row[1] in dead or row[2] != "found":
            continue
        emitted.append(test_of[row[0]])
        dead.update(row[3])
    mask = simulator.detected_mask(emitted)
    graded = {
        "tests": len(emitted),
        "p0": int(mask[: len(targets.p0)].sum()),
        "p01": int(mask.sum()),
    }
    if graded != expected:
        problems.append(f"emitted set re-grades to {graded}, table claims {expected}")
    return problems


def verify_store_roundtrip(fresh_engine, circuit, params, targets) -> list[str]:
    """A fresh engine on the just-written store must hit and agree."""
    loaded = fresh_engine.session(circuit).target_sets(*params)
    problems = []
    if fresh_engine.stats.counter("artifact.miss"):
        problems.append(f"{circuit}: artifact store missed on reload")
    for name in ("p0", "p1"):
        mine = [record.fault.key() for record in getattr(targets, name)]
        theirs = [record.fault.key() for record in getattr(loaded, name)]
        if mine != theirs:
            problems.append(f"{circuit}: reloaded {name.upper()} fault keys differ")
    return problems
