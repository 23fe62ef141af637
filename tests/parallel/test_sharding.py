"""Tests for intra-circuit fault sharding and its deterministic merge.

The determinism contract: with sharding enabled, the merged output is
byte-identical (under ``canonical_json``) for **every** combination of
shard count and worker count -- ``shards=1, jobs=1`` is the serial
reference.  Awkward geometry (shard counts that do not divide the pool,
empty shards, plans collapsed by ``min_faults``) must change nothing but
the wall clock.
"""

from dataclasses import asdict

import pytest

from repro.atpg import PrimaryOutcome
from repro.engine import Engine
from repro.experiments import ExperimentScale, run_all
from repro.faults.universe import effective_shard_count, shard_slice
from repro.parallel import (
    CircuitJob,
    FaultShardJob,
    ParallelRunError,
    ParallelRunner,
    RunCheckpoint,
    ShardJobResult,
    ShardSweep,
    merge_shard_results,
)
from repro.robustness import RetryPolicy

TINY = ExperimentScale(
    name="tiny", max_faults=120, p0_min_faults=30, max_secondary_attempts=4, seed=1
)
CIRCUITS = ("s27", "b03_proxy")


# ----------------------------------------------------------------------
# Shard planning helpers
# ----------------------------------------------------------------------


class TestShardPlan:
    def test_effective_count_caps_at_pool_size(self):
        assert effective_shard_count(5, 8) == 5
        assert effective_shard_count(8, 8) == 8

    def test_min_faults_collapses_plan(self):
        assert effective_shard_count(32, 8, min_faults=10) == 3
        assert effective_shard_count(32, 8, min_faults=1000) == 1

    def test_empty_pool_still_one_shard(self):
        assert effective_shard_count(0, 4) == 1

    def test_slices_partition_the_pool(self):
        for n in (0, 1, 7, 32):
            for k in (1, 2, 3, 5, 64):
                slices = [list(shard_slice(n, i, k)) for i in range(k)]
                flat = sorted(x for s in slices for x in s)
                assert flat == list(range(n))

    def test_collapsed_plan_empties_high_shards(self):
        # k_eff = 3: shards 3.. own nothing.
        assert list(shard_slice(32, 3, 8, min_faults=10)) == []
        assert len(list(shard_slice(32, 0, 8, min_faults=10))) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_slice(10, 2, 2)  # index out of range
        with pytest.raises(ValueError):
            effective_shard_count(10, 0)
        with pytest.raises(ValueError):
            FaultShardJob("s27", TINY, shard_index=2, shard_count=2)
        with pytest.raises(ValueError):
            FaultShardJob("s27", TINY, shard_index=0, shard_count=1, min_faults=0)

    def test_job_key(self):
        job = FaultShardJob("s27", TINY, shard_index=1, shard_count=4)
        assert job.key == "s27#1"


# ----------------------------------------------------------------------
# Deterministic merge (pure unit tests on hand-built outcomes)
# ----------------------------------------------------------------------


def _outcome(index, uid, status="found", detected=(), reason=None, phase=None):
    return PrimaryOutcome(
        index=index,
        uid=uid,
        status=status,
        detected=list(detected),
        reason=reason,
        phase=phase,
        fault=f"f{uid}",
    )


def _shard_result(index, count, outcomes, p0_total=4, p01_total=6):
    return ShardJobResult(
        circuit="s27",
        shard_index=index,
        shard_count=count,
        meta={
            "i0": 2,
            "p0_total": p0_total,
            "p01_total": p01_total,
            "universe": "abc",
        },
        basic={"values": ShardSweep(outcomes=outcomes, seconds=0.5)},
    )


class TestMergeSemantics:
    def test_accidental_detection_skips_later_primary(self):
        # Primary 0 accidentally detects uid 1; primary 1's own test must
        # be discarded even though its shard computed one.
        a = _shard_result(0, 2, [
            _outcome(0, 0, detected=[0, 1, 5]),
            _outcome(2, 2, detected=[2]),
        ])
        b = _shard_result(1, 2, [
            _outcome(1, 1, detected=[1, 3]),
            _outcome(3, 3, detected=[3]),
        ])
        basic, table6 = merge_shard_results([a, b])
        assert table6 is None
        outcome = basic.outcomes["values"]
        assert outcome.tests == 3  # primaries 0, 2, 3; primary 1 skipped
        assert outcome.detected_p01 == 5  # {0,1,5,2,3}
        assert outcome.detected_p0 == 4  # uids < p0_total=4
        assert outcome.runtime_seconds == pytest.approx(1.0)

    def test_merge_is_shard_order_independent(self):
        a = _shard_result(0, 2, [_outcome(0, 0, detected=[0, 1]),
                                 _outcome(2, 2, detected=[2])])
        b = _shard_result(1, 2, [_outcome(1, 1, detected=[1]),
                                 _outcome(3, 3, status="failed")])
        first, _ = merge_shard_results([a, b])
        second, _ = merge_shard_results([b, a])
        assert asdict(first) == asdict(second)

    def test_abort_of_already_dead_primary_is_moot(self):
        a = _shard_result(0, 2, [
            _outcome(0, 0, detected=[0, 1]),
            _outcome(2, 2, status="aborted", reason="DEADLINE", phase="generate"),
        ])
        b = _shard_result(1, 2, [
            _outcome(1, 1, status="aborted", reason="DEADLINE", phase="generate"),
            _outcome(3, 3, status="failed"),
        ])
        basic, _ = merge_shard_results([a, b])
        outcome = basic.outcomes["values"]
        assert outcome.tests == 1
        assert outcome.aborted == 1  # uid 1 was already dead; only uid 2 counts

    def test_global_abort_cap_enforced_at_merge(self):
        # Budget.split floors every share at 1, so 4 shards under
        # abort_limit=2 may abort up to 4 faults together.  The merge
        # re-applies the parent cap: only the first two aborts in
        # canonical pool order are counted and listed.
        shards = [
            _shard_result(
                i,
                4,
                [_outcome(i, i, status="aborted", reason="node_limit",
                          phase="justify")],
            )
            for i in range(4)
        ]
        basic, _ = merge_shard_results(shards, abort_limit=2)
        outcome = basic.outcomes["values"]
        assert outcome.aborted == 2

    def test_abort_cap_truncates_table6_rows_in_pool_order(self):
        shards = []
        for i in range(3):
            shard = _shard_result(i, 3, [], p0_total=3)
            shard.basic = {}
            shard.table6 = ShardSweep(
                outcomes=[
                    _outcome(i, i, status="aborted", reason="node_limit",
                             phase="justify")
                ],
                seconds=0.1,
            )
            shards.append(shard)
        _, table6 = merge_shard_results(shards[::-1], abort_limit=2)
        assert table6.aborted == 2
        assert [row[0] for row in table6.aborted_faults] == ["f0", "f1"]

    def test_no_cap_keeps_every_abort(self):
        shards = [
            _shard_result(
                i,
                3,
                [_outcome(i, i, status="aborted", reason="node_limit",
                          phase="justify")],
                p0_total=3,
            )
            for i in range(3)
        ]
        basic, _ = merge_shard_results(shards)
        assert basic.outcomes["values"].aborted == 3

    def test_duplicate_index_rejected(self):
        a = _shard_result(0, 2, [_outcome(0, 0), _outcome(1, 1)])
        b = _shard_result(1, 2, [_outcome(1, 1), _outcome(2, 2),
                                 _outcome(3, 3)])
        with pytest.raises(ValueError, match="partition"):
            merge_shard_results([a, b])

    def test_missing_index_rejected(self):
        a = _shard_result(0, 2, [_outcome(0, 0)])
        b = _shard_result(1, 2, [_outcome(1, 1), _outcome(3, 3)])
        with pytest.raises(ValueError, match="partition"):
            merge_shard_results([a, b])

    def test_missing_shard_rejected(self):
        a = _shard_result(0, 3, [_outcome(i, i) for i in range(4)])
        c = _shard_result(2, 3, [])
        with pytest.raises(ValueError, match="expected shards"):
            merge_shard_results([a, c])

    def test_universe_disagreement_rejected(self):
        a = _shard_result(0, 2, [_outcome(0, 0), _outcome(1, 1)])
        b = _shard_result(1, 2, [_outcome(2, 2), _outcome(3, 3)])
        b.meta = dict(b.meta, universe="different")
        with pytest.raises(ValueError, match="metadata"):
            merge_shard_results([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_shard_results([])


class TestPayloadRoundtrip:
    def test_primary_outcome_roundtrip(self):
        outcome = _outcome(3, 7, status="aborted", detected=[1, 2],
                           reason="DEADLINE", phase="generate")
        rebuilt = PrimaryOutcome.from_payload(outcome.to_payload())
        assert rebuilt == outcome

    def test_primary_outcome_rejects_unknown_status(self):
        payload = _outcome(0, 0).to_payload()
        payload[2] = "exploded"
        with pytest.raises(ValueError):
            PrimaryOutcome.from_payload(payload)

    def test_shard_result_roundtrip(self):
        result = _shard_result(1, 2, [_outcome(1, 1, detected=[1, 4])])
        result.table6 = ShardSweep(outcomes=[_outcome(3, 3)], seconds=0.25)
        result.wall_seconds = 1.5
        rebuilt = ShardJobResult.from_payload(result.to_payload())
        assert rebuilt.to_payload() == result.to_payload()
        assert rebuilt.key == "s27#1"


# ----------------------------------------------------------------------
# End-to-end identity matrix
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_reference():
    """The sharded serial reference: ``shards=1, jobs=1``."""
    return run_all(
        TINY, circuits=CIRCUITS, table6_circuits=CIRCUITS, jobs=1, shards=1
    )


class TestShardIdentity:
    @pytest.mark.parametrize("shards,jobs", [(2, 2), (3, 1), (1, 2)])
    def test_output_independent_of_geometry(
        self, sharded_reference, shards, jobs
    ):
        result = run_all(
            TINY,
            circuits=CIRCUITS,
            table6_circuits=CIRCUITS,
            jobs=jobs,
            shards=shards,
        )
        assert result.canonical_json() == sharded_reference.canonical_json()

    def test_circuit_order_preserved(self, sharded_reference):
        assert tuple(sharded_reference.basic) == CIRCUITS
        assert tuple(r.circuit for r in sharded_reference.table6) == CIRCUITS

    def test_rejects_bad_shard_arguments(self):
        with pytest.raises(ValueError):
            run_all(TINY, circuits=("s27",), table6_circuits=(), shards=0)
        with pytest.raises(ValueError):
            run_all(
                TINY,
                circuits=("s27",),
                table6_circuits=(),
                shards=1,
                shard_min_faults=0,
            )


def _shard_jobs(k, circuit="s27", min_faults=1, **kwargs):
    kwargs.setdefault("heuristics", ("values",))
    kwargs.setdefault("run_basic", True)
    return [
        FaultShardJob(
            circuit=circuit,
            scale=TINY,
            shard_index=index,
            shard_count=k,
            min_faults=min_faults,
            **kwargs,
        )
        for index in range(k)
    ]


def _merged_basic(results):
    basic, _ = merge_shard_results(results)
    payload = asdict(basic)
    for outcome in payload["outcomes"].values():
        outcome["runtime_seconds"] = 0.0
    return payload


@pytest.fixture(scope="module")
def s27_values_reference():
    results = ParallelRunner(jobs=1, engine=Engine()).run(_shard_jobs(1))
    return _merged_basic(results)


class TestAwkwardGeometry:
    def test_more_shards_than_faults(self, s27_values_reference):
        # |P0| = 32 at this scale; with min_faults=10 only 3 of the 8
        # shards own any primaries and the other 5 ship empty sweeps.
        results = ParallelRunner(jobs=1, engine=Engine()).run(
            _shard_jobs(8, min_faults=10)
        )
        empty = [r for r in results if not r.basic["values"].outcomes]
        assert len(empty) == 5
        assert _merged_basic(results) == s27_values_reference

    def test_huge_min_faults_collapses_to_single_shard(
        self, s27_values_reference
    ):
        results = ParallelRunner(jobs=1, engine=Engine()).run(
            _shard_jobs(4, min_faults=10_000)
        )
        # shard 0 owns everything, the rest are empty
        assert len(results[0].basic["values"].outcomes) > 0
        assert all(not r.basic["values"].outcomes for r in results[1:])
        assert _merged_basic(results) == s27_values_reference

    def test_indivisible_shard_count(self, s27_values_reference):
        results = ParallelRunner(jobs=1, engine=Engine()).run(_shard_jobs(5))
        sizes = [len(r.basic["values"].outcomes) for r in results]
        assert sum(sizes) == 32 and max(sizes) - min(sizes) <= 1
        assert _merged_basic(results) == s27_values_reference


# ----------------------------------------------------------------------
# Chaos: shard-targeted failures
# ----------------------------------------------------------------------


class TestShardChaos:
    def test_killed_shard_retried_without_disturbing_siblings(
        self, monkeypatch, s27_values_reference
    ):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s27#1:1")  # 1st attempt only
        engine = Engine()
        runner = ParallelRunner(
            jobs=2, engine=engine, retry_policy=RetryPolicy(max_retries=1)
        )
        results = runner.run(_shard_jobs(2))
        assert engine.stats.counter("parallel.retries") == 1
        assert engine.stats.counter("parallel.failures") == 0
        assert _merged_basic(results) == s27_values_reference

    def test_exhausted_shard_failure_names_the_shard(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s27#1")  # every attempt
        engine = Engine()
        runner = ParallelRunner(
            jobs=2, engine=engine, retry_policy=RetryPolicy(max_retries=1)
        )
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(_shard_jobs(2))
        assert [f.circuit for f in excinfo.value.failures] == ["s27#1"]
        # the sibling shard's finished result is salvaged
        assert [r.key for r in excinfo.value.results] == ["s27#0"]

    def test_dead_shard_worker_salvaged_in_process(
        self, monkeypatch, s27_values_reference
    ):
        monkeypatch.setenv("REPRO_INJECT_EXIT", "s27#1")  # worker dies
        engine = Engine()
        runner = ParallelRunner(jobs=2, engine=engine)
        results = runner.run(_shard_jobs(2))
        assert engine.stats.counter("parallel.pool_broken") >= 1
        assert _merged_basic(results) == s27_values_reference

    def test_bare_circuit_name_targets_every_shard(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s27")
        engine = Engine()
        runner = ParallelRunner(
            jobs=2, engine=engine, retry_policy=RetryPolicy(max_retries=0)
        )
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(_shard_jobs(2))
        assert sorted(f.circuit for f in excinfo.value.failures) == [
            "s27#0",
            "s27#1",
        ]


# ----------------------------------------------------------------------
# Shard checkpoints
# ----------------------------------------------------------------------


class TestShardCheckpoints:
    def test_shard_files_are_disjoint_from_circuit_files(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        assert checkpoint.path_for("s27").name == "s27.json"
        assert checkpoint.path_for("s27#2").name == "s27.shard2.json"

    def test_roundtrip_and_resume(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        jobs = _shard_jobs(2)
        engine = Engine()
        first = ParallelRunner(jobs=1, engine=engine).run(
            jobs, checkpoint=checkpoint
        )
        assert engine.stats.counter("parallel.checkpointed") == 2
        assert checkpoint.completed() == {"s27#0", "s27#1"}
        resumed_engine = Engine()
        second = ParallelRunner(jobs=1, engine=resumed_engine).run(
            jobs, checkpoint=checkpoint
        )
        assert resumed_engine.stats.counter("parallel.resumed") == 2
        assert resumed_engine.stats.counter("parallel.jobs") == 0
        assert _merged_basic(second) == _merged_basic(first)

    def test_geometry_change_reads_as_stale(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        ParallelRunner(jobs=1, engine=Engine()).run(
            _shard_jobs(2), checkpoint=checkpoint
        )
        for job in _shard_jobs(3):
            assert checkpoint.load(job) is None
        for job in _shard_jobs(2, min_faults=5):
            assert checkpoint.load(job) is None
        for job in _shard_jobs(2):  # unchanged geometry still resumes
            assert checkpoint.load(job) is not None

    def test_kind_marker_separates_formats(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        (job,) = _shard_jobs(1)
        result = _shard_result(0, 1, [_outcome(i, i) for i in range(4)])
        path = checkpoint.save(result, job)
        # A circuit job keyed like the shard file's stem must not load it.
        import json

        payload = json.loads(path.read_text())
        assert payload["kind"] == "shard"
        circuit_job = CircuitJob("s27", TINY, ("values",), run_basic=True)
        shard_style = checkpoint.path_for(circuit_job.key)
        shard_style.write_text(path.read_text())
        assert checkpoint.load(circuit_job) is None

    def test_killed_sharded_run_resumes_at_shard_granularity(
        self, tmp_path, monkeypatch, sharded_reference
    ):
        ckpt = tmp_path / "ckpt"
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s27#1")
        with pytest.raises(ParallelRunError):
            run_all(
                TINY,
                circuits=("s27",),
                table6_circuits=(),
                jobs=2,
                shards=2,
                checkpoint_dir=str(ckpt),
                retry_policy=RetryPolicy(max_retries=0),
            )
        assert (ckpt / "s27.shard0.json").exists()
        assert not (ckpt / "s27.shard1.json").exists()
        monkeypatch.delenv("REPRO_INJECT_FAIL")
        engine = Engine()
        resumed = run_all(
            TINY,
            circuits=("s27",),
            table6_circuits=(),
            jobs=2,
            shards=2,
            checkpoint_dir=str(ckpt),
            resume=True,
            engine=engine,
        )
        assert engine.stats.counter("parallel.resumed") == 1
        expected = asdict(sharded_reference.basic["s27"])
        got = asdict(resumed.basic["s27"])
        for payload in (expected, got):
            for outcome in payload["outcomes"].values():
                outcome["runtime_seconds"] = 0.0
        assert got == expected
