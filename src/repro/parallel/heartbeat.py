"""Per-job heartbeats and the watchdog that reads them.

A pool worker that crashes announces itself (the future raises
``BrokenProcessPool``); a worker that *hangs* -- stuck in a syscall, a
pathological kernel call, a livelock -- or simply overruns its deadline
announces nothing.  Heartbeats supply the missing liveness data, and the
watchdog is the parallel runner's only kill path:

* :class:`HeartbeatWriter` runs a daemon thread inside the worker that
  touches one file per job key (``<dir>/<safe-key>.hb``) every
  ``interval`` seconds while the job body runs.  The first, synchronous
  beat writes the attempt's start time into the file; later beats only
  bump its mtime;
* :class:`Watchdog` classifies outstanding jobs by those two clocks:
  a job whose file is younger than ``stale_after`` is *alive* (keep
  waiting), one whose file exists but has gone silent for longer is
  *stuck*, one that started more than ``overdue_after`` seconds ago is
  *overdue* (both: kill and retry), and one with no file yet never
  started (it is queued behind other work in the pool backlog -- not
  stuck, not overdue).

The writer half is deliberately dependency-free so ``_pool_entry`` can
start it before any engine work, and the watchdog half is pure file
arithmetic.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "HeartbeatWriter",
    "Watchdog",
    "heartbeat_path",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_STALE_AFTER",
]

#: How often a supervised worker proves liveness (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Silence threshold after which a started job counts as stuck (seconds).
#: Several missed beats, not one: a single delayed scheduler quantum on a
#: loaded CI machine must not read as a hang.
DEFAULT_STALE_AFTER = 30.0


def heartbeat_path(directory: str | Path, key: str) -> Path:
    """Heartbeat file for a job key (``circuit`` or ``circuit#shard``).

    Shard keys map ``#`` to ``.shard`` exactly like checkpoint files, so
    one run directory can hold both without collisions.
    """
    return Path(directory) / f"{key.replace('#', '.shard')}.hb"


class HeartbeatWriter:
    """Touches one heartbeat file periodically while a job runs.

    Use as a context manager around the job body::

        with HeartbeatWriter(path, interval=1.0):
            ...  # the file's mtime now advances every second

    The first beat is written synchronously on ``__enter__`` and records
    the attempt's start time as the file's content (so a job that dies
    instantly still leaves evidence it *started*, and the watchdog can
    tell when it did), then a daemon thread keeps beating until
    ``__exit__``.  Beats degrade silently on OSError -- a full disk must
    not fail the job itself; the watchdog will conservatively read the
    silence as stuck and retry.
    """

    def __init__(self, path: str | Path, interval: float = DEFAULT_HEARTBEAT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.path = Path(path)
        self.interval = float(interval)
        self.started: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        """Write one heartbeat now: the first records the start time,
        later ones bump the file's mtime."""
        try:
            if self.started is None:
                self.started = time.time()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.write_text(f"{self.started!r}\n")
            else:
                os.utime(self.path)
        except OSError:
            pass

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def __enter__(self) -> "HeartbeatWriter":
        self.beat()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat:{self.path.name}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None


@dataclass(frozen=True)
class Watchdog:
    """Classifies supervised jobs by heartbeat age and run time.

    ``stale_after`` is the silence threshold in seconds; ``overdue_after``
    (``None`` = never) is how long a started job may run in total;
    ``directory`` is where the workers' :class:`HeartbeatWriter` files
    live.
    """

    directory: Path
    stale_after: float = DEFAULT_STALE_AFTER
    overdue_after: float | None = None

    def __post_init__(self) -> None:
        if self.stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {self.stale_after}")

    def age(self, key: str, now: float) -> float | None:
        """Seconds since ``key``'s last beat, ``None`` when never started.

        ``now`` is the caller's ``time.time()`` epoch clock (heartbeats
        are mtimes, which live on the epoch clock, not the monotonic
        one).
        """
        path = heartbeat_path(self.directory, key)
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        return max(0.0, now - mtime)

    def started(self, key: str) -> float | None:
        """Epoch start time of ``key``'s attempt, ``None`` when never
        started (or the first beat is still being written)."""
        try:
            return float(heartbeat_path(self.directory, key).read_text())
        except (OSError, ValueError):
            return None

    def is_stuck(self, key: str, now: float) -> bool:
        """True when ``key`` started beating and then went silent too long."""
        age = self.age(key, now)
        return age is not None and age > self.stale_after

    def is_overdue(self, key: str, now: float) -> bool:
        """True when ``key`` started more than ``overdue_after`` seconds ago."""
        if self.overdue_after is None:
            return False
        started = self.started(key)
        return started is not None and now - started > self.overdue_after

    def classify(self, keys: list[str], now: float) -> tuple[list[str], list[str]]:
        """Split ``keys`` into ``(alive_or_unstarted, stuck_or_overdue)``."""
        alive, dead = [], []
        for key in keys:
            failing = self.is_stuck(key, now) or self.is_overdue(key, now)
            (dead if failing else alive).append(key)
        return alive, dead
