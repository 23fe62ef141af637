"""Cone-restricted vs full-netlist justification (PR 4's tentpole).

Justifies a fixed sample of single-fault requirement sets from each
benchmark circuit's P0, once on the cone-restricted kernel and once with
``use_cones=False``.  Both paths produce identical tests (asserted); the
cone path should win by roughly the circuit-size / cone-size ratio, which
the engine reports as ``justify.cone_nodes`` vs ``justify.full_nodes``.
The cone round runs the compiled {0,1,x} cone kernel, the full round the
numpy full-netlist level kernel.
"""

import random

import pytest

from repro.atpg.justify import Justifier
from repro.atpg.requirements import RequirementSet

#: Justifications per benchmark round (a fixed slice of P0, pool order).
SAMPLE = 40


def _sample(targets):
    records = targets.p0[:SAMPLE]
    return [RequirementSet(record.sens.requirements) for record in records]


def _justify_all(justifier, sample, seed):
    rng = random.Random(seed)
    return [justifier.justify(requirements, rng) for requirements in sample]


@pytest.mark.parametrize("use_cones", [True, False], ids=["cone", "full"])
def bench_justify(benchmark, circuit_targets, smoke_scale, use_cones):
    name, targets = circuit_targets
    sample = _sample(targets)
    justifier = Justifier(targets.netlist, use_cones=use_cones)
    # Warm the cone-compilation cache outside the timed region: a steady-
    # state ATPG run reuses compilations across thousands of calls, and
    # that steady state is what the comparison should measure.
    _justify_all(justifier, sample, smoke_scale.seed)

    results = benchmark(_justify_all, justifier, sample, smoke_scale.seed)

    # Identity spot check against the opposite kernel: same RNG draws,
    # same tests either way.
    reference = _justify_all(
        Justifier(targets.netlist, use_cones=not use_cones),
        sample,
        smoke_scale.seed,
    )
    for ours, theirs in zip(results, reference):
        if ours is None or theirs is None:
            assert (ours is None) == (theirs is None), name
        else:
            assert ours.test.assignment == theirs.test.assignment, name
