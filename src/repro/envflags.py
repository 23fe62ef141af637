"""Process-wide environment escape hatches, read once.

The hot kernels consult three knobs:

* ``REPRO_SCALAR_COVER=1`` -- fall back to the per-fault covering loops
  (fault simulation *and* the generator's batched candidate screening);
* ``REPRO_FULL_SIM=1``     -- justify on the full netlist instead of the
  cone-restricted sub-simulator;
* ``REPRO_BACKEND=<name>`` -- simulation backend for the justifier's
  candidate screening: ``numpy`` (default, the int8 level kernel) or
  ``packed`` (2-bit {0,1,x} codes, 64 columns per uint64 word pair,
  evaluated by a compiled C kernel, see :mod:`repro.sim.packed`).

The engine layer consults one more:

* ``REPRO_ARTIFACT_CACHE=<dir>`` -- enable the persistent artifact store
  (:mod:`repro.artifacts`) rooted at ``<dir>``; equivalent to the CLI's
  ``--artifact-cache``.  Unset (the default) leaves caching off.

All are consulted on every :class:`~repro.sim.faultsim.FaultSimulator`
construction and every justification, so each value is snapshotted on first
use instead of hitting ``os.environ`` per call.  Tests monkeypatch the
environment and call :func:`reset` (or monkeypatch the ``*_requested``
functions directly); worker processes started by :mod:`repro.parallel`
re-read the flags on their own first use.
"""

from __future__ import annotations

import os
from functools import lru_cache

__all__ = [
    "SCALAR_COVER_ENV",
    "FULL_SIM_ENV",
    "BACKEND_ENV",
    "ARTIFACT_CACHE_ENV",
    "BACKENDS",
    "flag_enabled",
    "scalar_cover_requested",
    "full_sim_requested",
    "simulation_backend",
    "artifact_cache_dir",
    "reset",
]

#: Force the pre-vectorization per-fault covering loops.
SCALAR_COVER_ENV = "REPRO_SCALAR_COVER"

#: Force the justifier to simulate the whole netlist (no cone restriction).
FULL_SIM_ENV = "REPRO_FULL_SIM"

#: Select the simulation backend ("numpy" or "packed").
BACKEND_ENV = "REPRO_BACKEND"

#: Directory of the persistent artifact cache (default: disabled).
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"

#: Implemented backends, in preference order.
BACKENDS = ("numpy", "packed")

_TRUTHY = ("1", "true", "yes", "on")


@lru_cache(maxsize=None)
def flag_enabled(name: str) -> bool:
    """Truthiness of environment variable ``name``, cached per process."""
    return os.environ.get(name, "").strip().lower() in _TRUTHY


@lru_cache(maxsize=None)
def _env_value(name: str) -> str:
    return os.environ.get(name, "").strip().lower()


def scalar_cover_requested() -> bool:
    """True when ``REPRO_SCALAR_COVER`` asks for the per-fault loops."""
    return flag_enabled(SCALAR_COVER_ENV)


def full_sim_requested() -> bool:
    """True when ``REPRO_FULL_SIM`` disables cone-restricted justification."""
    return flag_enabled(FULL_SIM_ENV)


def simulation_backend() -> str:
    """The ``REPRO_BACKEND`` selection, validated ("numpy" when unset).

    Unknown names raise :class:`ValueError` -- a typo must not silently
    fall back to the default backend.
    """
    raw = _env_value(BACKEND_ENV)
    if not raw:
        return "numpy"
    if raw not in BACKENDS:
        raise ValueError(f"unknown {BACKEND_ENV}={raw!r}; expected one of {BACKENDS}")
    return raw


@lru_cache(maxsize=None)
def _env_path(name: str) -> str:
    # Like _env_value but case-preserving: the value is a filesystem path.
    return os.environ.get(name, "").strip()


def artifact_cache_dir() -> str | None:
    """``REPRO_ARTIFACT_CACHE`` directory, or ``None`` when unset.

    Enables the persistent artifact store (:mod:`repro.artifacts`) for
    every :class:`~repro.engine.session.Engine` built without an explicit
    store -- including pool workers, which inherit the environment.
    """
    return _env_path(ARTIFACT_CACHE_ENV) or None


def reset() -> None:
    """Drop the cached snapshots (tests re-read the environment after this)."""
    flag_enabled.cache_clear()
    _env_value.cache_clear()
    _env_path.cache_clear()
