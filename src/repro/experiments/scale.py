"""Experiment scaling presets.

The paper runs with ``N_P = 10000`` and ``N_P0 = 1000`` on circuits of up
to ~10k gates, using compiled C code.  A pure-Python reproduction needs a
smaller default working point; the *relationships* the paper demonstrates
(compaction ratios, accidental-vs-explicit P1 detection, test-count
invariance of enrichment) are preserved at every scale.

Three presets:

* ``paper``   -- the paper's parameters (slow: basic ``values`` generation
  on ``s1423_proxy`` alone takes ~98 s on a 2-core x86 Xeon, Python
  3.11, numpy 2.4).
* ``default`` -- the standard reproduction scale used by EXPERIMENTS.md.
* ``smoke``   -- small enough for CI benchmarks (seconds per run).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """One working point for the experiment drivers.

    Attributes
    ----------
    name:
        Preset name.
    max_faults:
        The paper's ``N_P`` (cap on enumerated faults).
    p0_min_faults:
        The paper's ``N_P0`` (minimum size of the first target set).
    max_secondary_attempts:
        Budget of secondary justification attempts per test.  ``None``
        reproduces the paper's "consider every fault once per test"
        exactly; a small budget trades a little compaction quality for a
        large speedup (see EXPERIMENTS.md for the measured difference).
    seed:
        Base RNG seed for generation runs.
    """

    name: str
    max_faults: int
    p0_min_faults: int
    max_secondary_attempts: int | None
    seed: int = 1


SCALES: dict[str, ExperimentScale] = {
    "paper": ExperimentScale(
        name="paper",
        max_faults=10_000,
        p0_min_faults=1_000,
        max_secondary_attempts=None,
    ),
    "default": ExperimentScale(
        name="default",
        max_faults=600,
        p0_min_faults=150,
        max_secondary_attempts=24,
    ),
    "smoke": ExperimentScale(
        name="smoke",
        max_faults=240,
        p0_min_faults=60,
        max_secondary_attempts=8,
    ),
}


def get_scale(name_or_scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a preset name (or pass an explicit scale through)."""
    if isinstance(name_or_scale, ExperimentScale):
        return name_or_scale
    try:
        return SCALES[name_or_scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {name_or_scale!r}; presets: {sorted(SCALES)}"
        ) from None
