"""Repository benchmark: named ATPG workloads, verified outputs, metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload s1423-basic-values --seed 1 --seconds 30 --trace 0

Each iteration runs ``perfbench/workloads.py`` in a fresh interpreter
with a cold ``Engine``.  ``--trace 0`` runs the iterations planned for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
traced iteration between two untraced ones of the same input and prints
the per-layer metrics.  Metric names, units and directions come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: Nominal seconds of one iteration (set-up included) on a 2-core x86
#: machine; ``--seconds`` divided by it fixes how many iterations a run
#: makes, so the inputs -- and the quality counts -- depend only on the
#: seed and ``--seconds``, never on how fast the machine is.
NOMINAL_S = {"s1423-basic-values": 6.0, "paper-targets": 14.0, "tables-sweep": 34.0}
#: Simulation kernel each workload runs on (``REPRO_BACKEND``).
BACKEND = {"s1423-basic-values": "packed", "paper-targets": "numpy", "tables-sweep": "numpy"}
#: Wall-clock budget of one invocation, iterations and verification included.
RUN_LIMIT_S = 170.0
#: ``setup_s`` is the median of this many set-ups per run; iterations that
#: only set up top up the timed ones.
SETUP_SAMPLES = 5
THREAD_POOLS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def sub_seed(seed: int, iteration: int) -> int:
    """Input seed of one iteration: distinct per iteration, fixed by ``seed``."""
    return seed * 1000 + iteration


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def workload_env(workload: str) -> dict:
    """Child environment: program sources, kernel choice, pinned thread pools.

    Every ``REPRO_*`` variable of the caller is dropped so the program sees
    only what the benchmark sets.  The kernels are elementwise, so one BLAS
    or OpenMP thread per process loses nothing, and the two pool workers of
    ``tables-sweep`` cannot oversubscribe two cores.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_BACKEND"] = BACKEND[workload]
    for name in THREAD_POOLS:
        env[name] = "1"
    return env


def stop_group(process: subprocess.Popen) -> None:
    """Kill an iteration's process group (pool workers included) and wait."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_iteration(workload, seed, mode, work, reduced, timeout) -> tuple[dict | None, str]:
    """One fresh-interpreter iteration; ``(record, error)``."""
    work.mkdir(parents=True)
    out = work / "result.json"
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--work", str(work), "--out", str(out),
    ] + (["--reduced"] if reduced else [])
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command + ["--spawned", repr(spawned)],
        env=workload_env(workload), cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stop_group(process)
        return None, f"iteration exceeded {timeout:.0f}s"
    finally:
        stop_group(process)
    if process.returncode != 0 or not out.exists():
        tail = (stderr or "").strip().splitlines()[-3:]
        return None, f"iteration exited {process.returncode}: {' | '.join(tail)}"
    return json.loads(out.read_text(encoding="utf-8")), ""


def source_digest() -> str:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def quality_drift(key: dict, quality: dict) -> str:
    """Compare the quality counts with the first run of the same input.

    The first run of a (program source, workload, seed, plan) in this
    checkout records its counts; every later run must reproduce them.
    """
    name = hashlib.blake2b(json.dumps(key, sort_keys=True).encode(), digest_size=8).hexdigest()
    path = WORK / "quality" / f"{key['workload']}-{name}.json"
    if path.exists():
        first = json.loads(path.read_text(encoding="utf-8"))
        if first != quality:
            return f"quality counts {quality} differ from the first run's {first}"
        return ""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(quality, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return ""


def summed_quality(records: list[dict]) -> dict:
    return {k: sum(r["quality"][k] for r in records) for k in records[0]["quality"]}


def end_to_end(records: list[dict]) -> dict:
    """Medians of the timed iterations, sums of their quality counts."""
    quality = summed_quality(records)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "faults_per_s": statistics.median(r["quality"]["primaries"] / r["wall_s"] for r in records),
        "rss_mb": statistics.median(r["rss_mb"] for r in records),
        "tests": quality["tests"],
        "p0_detected": quality["p0_detected"],
        "p01_detected": quality["p01_detected"],
        "verdict_frac": (quality["primaries"] - quality["aborted"]) / quality["primaries"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduced", action="store_true",
        help="small circuits and one iteration (benchmark self-tests)",
    )
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running iteration's process group is
    # stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no BENCHMARK.json or program sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.seed < 0 or seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.trace:
        # The traced iteration sits between two untraced ones of the same
        # input, so slow drift in machine speed cancels out of the overhead.
        plan = [(sub_seed(args.seed, 0), mode) for mode in ("run", "trace", "run")]
    else:
        count = 1 if args.reduced else max(1, int(seconds // NOMINAL_S[args.workload]))
        plan = [(sub_seed(args.seed, j), "run") for j in range(count)]
        plan += [(sub_seed(args.seed, j), "setup") for j in range(count, SETUP_SAMPLES)]
    timed = sum(1 for _, mode in plan if mode != "setup")

    started = time.monotonic()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    records: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    try:
        for index, (seed, mode) in enumerate(plan):
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            record, error = run_iteration(
                args.workload, seed, mode, run_dir / f"it{index}", args.reduced, remaining
            )
            if record is None:
                attempted += 1
                failed += 1
                problems.append(error)
            elif mode == "setup":
                setups.append(record["setup_s"])
            else:
                records.append(record)
                setups.append(record["setup_s"])
                attempted += record["attempted"]
                failed += record["failed"]
                problems.extend(record["problems"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if len(records) == timed:
        if args.trace:
            drift = "" if all(r["quality"] == records[0]["quality"] for r in records) else (
                "traced and untraced iterations disagree on the quality counts"
            )
        else:
            key = {
                "workload": args.workload, "seed": args.seed, "plan": plan,
                "reduced": args.reduced, "source": source_digest(),
            }
            drift = quality_drift(key, summed_quality(records))
        if drift:
            attempted += 1
            failed += 1
            problems.append(drift)

    if args.trace:
        names = spec["per_layer"]
        values = {}
        if len(records) == 3:
            untraced = (records[0]["wall_s"] + records[2]["wall_s"]) / 2
            values = dict(records[1]["layers"])
            values["trace.overhead_frac"] = records[1]["wall_s"] / untraced - 1.0
    else:
        names = spec["end_to_end"]
        values = end_to_end(records) | {"setup_s": statistics.median(setups)} if records else {}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in names
        if m["name"] in values
    }

    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"workload: {args.workload}  seed: {args.seed}  iterations: {len(records)}/{timed}")
    for m in names:
        if m["name"] in metrics:
            value = metrics[m["name"]]["value"]
            print(f"  {m['name']:<28} {value:>16.6g} {m['unit']:<12} ({m['better']} is better)")
    if records and not args.trace:
        q = summed_quality(records)
        print(f"  aborted {q['aborted']} of {q['primaries']} primaries; "
              f"failed_frac {failed / max(attempted, 1):.4f} ({failed}/{attempted} operations)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = failed == 0 and len(metrics) == len(names)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
