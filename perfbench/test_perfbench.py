"""Self-tests of the benchmark (reduced sizes).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from spans import SELF_TIME, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, BasicValues  # noqa: E402

from repro.algebra.triple import UNKNOWN  # noqa: E402
from repro.atpg.generator import AtpgConfig  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.experiments import ExperimentScale  # noqa: E402
from repro.parallel import FaultShardJob, merge_shard_results, run_fault_shard_job  # noqa: E402
from repro.sim.vectors import TwoPatternTest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CIRCUIT = "s641_proxy"
SCALE = ExperimentScale("reduced", 60, 15, 8, seed=3)


def run_benchmark(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_pass_emits_every_metric_with_its_unit(workload, trace):
    result = run_benchmark("--workload", workload, "--seed", "2", "--trace", trace, "--reduced")
    section = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }


def test_run_without_program_sources_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-targets"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""


@pytest.fixture(scope="module")
def generation():
    session = Engine().session(CIRCUIT)
    targets = session.target_sets(SCALE.max_faults, SCALE.p0_min_faults)
    result = session.generate_basic(targets.p0, AtpgConfig(heuristic="values", seed=3))
    assert result.num_tests and checks.verify_generation(session.netlist, result) == []
    return session.netlist, result


def test_test_with_an_input_forced_to_x_counts_as_failed(generation):
    netlist, result = generation
    first = result.tests[0]
    assignment = dict(first.test.assignment)
    assignment[netlist.input_indices[0]] = UNKNOWN
    tampered = dataclasses.replace(
        result, tests=[dataclasses.replace(first, test=TwoPatternTest(assignment))] + result.tests[1:]
    )
    assert checks.verify_generation(netlist, tampered)


def test_removed_claimed_detection_counts_as_failed(generation):
    netlist, result = generation
    tampered = dataclasses.replace(
        result, detected_by_pool=[result.detected_by_pool[0] - 1] + result.detected_by_pool[1:]
    )
    assert checks.verify_generation(netlist, tampered)


@pytest.fixture(scope="module")
def shard_sweep(tmp_path_factory):
    capture = checks.ShardCapture(tmp_path_factory.mktemp("capture")).install()
    try:
        engine = Engine()
        results = [
            run_fault_shard_job(
                FaultShardJob(CIRCUIT, SCALE, index, 2, heuristics=("values",), run_basic=True),
                engine,
            )
            for index in range(2)
        ]
    finally:
        capture.uninstall()
    outcome = merge_shard_results(results)[0].outcomes["values"]
    expected = {"tests": outcome.tests, "p0": outcome.detected_p0, "p01": outcome.detected_p01}
    session = engine.session(CIRCUIT)
    targets = session.target_sets(SCALE.max_faults, SCALE.p0_min_faults)
    records = capture.records()
    assert checks.verify_shard_sweep(session.netlist, targets, records, expected) == []
    return session.netlist, targets, records, expected


def test_shard_test_with_an_input_forced_to_x_counts_as_failed(shard_sweep):
    netlist, targets, records, expected = shard_sweep
    tampered = json.loads(json.dumps(records))
    codes = tampered[0]["tests"][0]
    tampered[0]["tests"][0] = "222" + codes[3:]
    assert checks.verify_shard_sweep(netlist, targets, tampered, expected)


def test_shard_outcome_with_a_detection_removed_counts_as_failed(shard_sweep):
    netlist, targets, records, expected = shard_sweep
    tampered = json.loads(json.dumps(records))
    found = next(row for row in tampered[0]["outcomes"] if row[2] == "found")
    found[3] = found[3][1:]
    assert checks.verify_shard_sweep(netlist, targets, tampered, expected)


def test_self_times_and_unattributed_add_up_to_wall(tmp_path):
    tracer = Tracer(tmp_path).install()
    try:
        workload = BasicValues(3, tmp_path, True, tracer)
        with tracer.span("setup"):
            workload.setup()
        with tracer.span("workload"):
            workload.run()
    finally:
        tracer.uninstall()
    spans = tracer.all_spans()
    (root,) = [s for s in spans if s[3] == "workload"]
    inside = [s for s in spans if root[4] <= s[4] and s[5] <= root[5]]
    own = self_times(spans)
    assert sum(own[(s[0], s[1])] for s in inside) == pytest.approx(root[5] - root[4])
    partition = {name for names in SELF_TIME.values() for name in names}
    assert {s[3] for s in inside} - partition == {"workload"}
