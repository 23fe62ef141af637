"""Unit tests for the benchmark comparison gate (tools/bench_compare.py)."""

import argparse
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def _run(base, cur, max_regression=0.25):
    return bench_compare.compare(
        {"results": cur}, {"results": base}, max_regression
    )


class TestCompare:
    def test_within_tolerance_passes(self):
        assert _run({"a": 1.0}, {"a": 1.2}) == []

    def test_regression_fails_with_detail(self):
        failures = _run({"a": 1.0}, {"a": 2.0})
        assert len(failures) == 1
        assert "a" in failures[0] and "2.00x" in failures[0]

    def test_missing_baseline_entry_warns_but_passes(self, capsys):
        """A baseline key the current run did not produce (a retired or
        not-run benchmark) must be skipped, not treated as a failure."""
        failures = _run({"a": 1.0, "gone": 0.5}, {"a": 1.0})
        assert failures == []
        out = capsys.readouterr().out
        assert "gone" in out and "missing from current run" in out

    def test_extra_current_entry_ignored(self):
        assert _run({"a": 1.0}, {"a": 1.0, "new": 9.0}) == []

    def test_zero_baseline_counts_as_regression(self):
        assert len(_run({"a": 0.0}, {"a": 0.1})) == 1


class TestToleratedRegressions:
    def test_fraction_within_absolute_bar_passes(self):
        """The warm/cold fraction is jitter-dominated: a nominal slowdown
        that stays under the >= 5x acceptance bar is not a regression."""
        assert _run(
            {"artifact_warm_cold_fraction": 0.03},
            {"artifact_warm_cold_fraction": 0.05},
        ) == []

    def test_fraction_past_absolute_bar_fails(self):
        failures = _run(
            {"artifact_warm_cold_fraction": 0.03},
            {"artifact_warm_cold_fraction": 0.25},
        )
        assert len(failures) == 1

    def test_tiny_wall_clocks_below_noise_floor_pass(self):
        assert _run({"sharded_merge": 0.0001}, {"sharded_merge": 0.0004}) == []

    def test_regression_past_noise_floor_fails(self):
        failures = _run({"a": 0.04}, {"a": 0.06})
        assert len(failures) == 1

    def test_journal_gate_applies_same_tolerance(self, tmp_path, monkeypatch):
        from repro.journal import append_entry, bench_entry

        monkeypatch.setenv("REPRO_JOURNAL_SHA", "a" * 40)
        journal = tmp_path / "journal.jsonl"
        append_entry(
            journal,
            bench_entry({"results": {"artifact_warm_cold_fraction": 0.03}}),
        )
        noisy = {"meta": {}, "results": {"artifact_warm_cold_fraction": 0.05}}
        regressions = bench_compare.journal_run(
            noisy, _journal_args(journal, journal_gate=True), skip_gate=False
        )
        assert regressions == 0


class TestMergeBaseline:
    def test_current_wins_shared_entries(self):
        merged = bench_compare.merge_baseline(
            {"meta": {"python": "3.12"}, "results": {"a": 2.0}},
            {"meta": {"python": "3.10"}, "results": {"a": 1.0}},
        )
        assert merged["results"] == {"a": 2.0}
        assert merged["meta"] == {"python": "3.12"}

    def test_retired_entries_preserved(self):
        """--update-baseline must merge, not overwrite: entries only the
        old baseline has (retired benchmarks) survive the refresh."""
        merged = bench_compare.merge_baseline(
            {"results": {"a": 2.0}},
            {"results": {"a": 1.0, "retired": 0.5}},
        )
        assert merged["results"] == {"a": 2.0, "retired": 0.5}


def _journal_args(journal, journal_gate=False, max_regression=0.25):
    return argparse.Namespace(
        journal=str(journal),
        journal_gate=journal_gate,
        max_regression=max_regression,
        sharded=False,
        packed=False,
        cached=False,
        repeats=3,
        update_baseline=False,
    )


class TestPackedMode:
    def test_sharded_and_packed_are_mutually_exclusive(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            bench_compare.main(["--sharded", "--packed"])
        assert excinfo.value.code == 2
        assert "pick one" in capsys.readouterr().err

    def test_packed_run_journals_as_its_own_config(self, tmp_path, monkeypatch):
        """The packed suite must be distinguishable in the journal, so its
        cone-kernel sample trends as a separate config."""
        from repro.journal import read_journal

        monkeypatch.setenv("REPRO_JOURNAL_SHA", "a" * 40)
        journal = tmp_path / "journal.jsonl"
        args = _journal_args(journal)
        args.packed = True
        current = {"meta": {}, "results": {"justify_cone_packed": 0.5}}
        bench_compare.journal_run(current, args, skip_gate=False)
        [entry] = read_journal(journal).entries
        assert entry["config"]["mode"] == "packed"
        assert entry["config"]["packed"] is True


class TestCachedMode:
    def test_cached_excludes_other_suites(self, capsys):
        import pytest

        for argv in (["--cached", "--sharded"], ["--cached", "--packed"]):
            with pytest.raises(SystemExit):
                bench_compare.main(argv)

    def test_cached_run_journals_as_its_own_config(self, tmp_path, monkeypatch):
        from repro.journal import read_journal

        monkeypatch.setenv("REPRO_JOURNAL_SHA", "a" * 40)
        journal = tmp_path / "journal.jsonl"
        args = _journal_args(journal)
        args.cached = True
        current = {"meta": {}, "results": {"artifact_cold_build": 0.5}}
        bench_compare.journal_run(current, args, skip_gate=False)
        [entry] = read_journal(journal).entries
        assert entry["config"]["mode"] == "cached"
        assert entry["config"]["cached"] is True


class TestJournalRun:
    def test_appends_valid_bench_entry(self, tmp_path, monkeypatch):
        from repro.journal import read_journal

        monkeypatch.setenv("REPRO_JOURNAL_SHA", "a" * 40)
        journal = tmp_path / "journal.jsonl"
        current = {"meta": {}, "results": {"tables_s27": 0.5}}
        regressions = bench_compare.journal_run(
            current, _journal_args(journal), skip_gate=False
        )
        assert regressions == 0
        read = read_journal(journal)
        assert read.problems == []
        [entry] = read.entries
        assert entry["kind"] == "bench"
        assert entry["metrics"] == {"tables_s27": 0.5}
        assert entry["config"]["repeats"] == 3

    def test_gate_counts_trajectory_regressions(self, tmp_path, monkeypatch):
        from repro.journal import append_entry, bench_entry, read_journal

        monkeypatch.setenv("REPRO_JOURNAL_SHA", "a" * 40)
        journal = tmp_path / "journal.jsonl"
        append_entry(journal, bench_entry({"results": {"tables_s27": 0.5}}))
        slow = {"meta": {}, "results": {"tables_s27": 1.5}}
        regressions = bench_compare.journal_run(
            slow, _journal_args(journal, journal_gate=True), skip_gate=False
        )
        assert regressions == 1
        # The regressing measurement is still recorded after the verdict.
        assert len(read_journal(journal).entries) == 2

    def test_skip_gate_still_appends(self, tmp_path, monkeypatch):
        from repro.journal import append_entry, bench_entry, read_journal

        monkeypatch.setenv("REPRO_JOURNAL_SHA", "a" * 40)
        journal = tmp_path / "journal.jsonl"
        append_entry(journal, bench_entry({"results": {"tables_s27": 0.5}}))
        slow = {"meta": {}, "results": {"tables_s27": 9.0}}
        regressions = bench_compare.journal_run(
            slow, _journal_args(journal, journal_gate=True), skip_gate=True
        )
        assert regressions == 0
        assert len(read_journal(journal).entries) == 2
