"""Output identity of the fast paths against their reference paths.

The cone-restricted justifier (the compiled C kernel) and the batched
candidate screening are pure optimizations: both must reproduce the
reference pipeline (numpy full-netlist simulation, per-candidate scalar
screening) bit for bit, RNG draws included.  These tests run the full generator matrix -- cone on/off x
vectorized on/off -- and require identical test sets.
"""

from __future__ import annotations

import pytest

from repro import envflags
from repro.atpg.generator import AtpgConfig
from repro.atpg.generator import TestGenerator as Generator
from repro.atpg.justify import Justifier
from repro.faults import build_target_sets


def fingerprint(result):
    """Full structural fingerprint of a generation run."""
    tests = tuple(
        tuple(sorted(
            (pi, triple.v1, triple.v2, triple.v3)
            for pi, triple in test.assignment.items()
        ))
        for test in result.test_vectors
    )
    detected = tuple(
        tuple(sorted(record.fault.key() for record in generated.detected))
        for generated in result.tests
    )
    return (tests, detected, tuple(result.detected_by_pool))


def run(netlist, pools, heuristic, *, use_cones, vectorized, seed=11):
    config = AtpgConfig(
        heuristic=heuristic, seed=seed, max_secondary_attempts=12
    )
    justifier = Justifier(netlist, use_cones=use_cones)
    generator = Generator(
        netlist, config, justifier.simulator, justifier, vectorized=vectorized
    )
    return generator.generate(pools)


VARIANTS = [
    pytest.param(False, True, id="full-sim"),
    pytest.param(True, False, id="scalar-screen"),
    pytest.param(False, False, id="full-scalar"),
]


@pytest.fixture(scope="module")
def s27_pools(s27):
    targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
    return [targets.p0, targets.p1]


@pytest.fixture(scope="module")
def c17_pools(c17):
    targets = build_target_sets(c17, max_faults=1000, p0_min_faults=10)
    return [targets.p0, targets.p1]


@pytest.fixture(scope="module")
def chain_pools(tiny_chain):
    targets = build_target_sets(tiny_chain, max_faults=200, p0_min_faults=30)
    return [targets.p0, targets.p1]


class TestGeneratorIdentity:
    @pytest.mark.parametrize("heuristic", ["values", "length", "arbit"])
    @pytest.mark.parametrize("use_cones,vectorized", VARIANTS)
    def test_s27(self, s27, s27_pools, heuristic, use_cones, vectorized):
        reference = run(
            s27, s27_pools, heuristic, use_cones=True, vectorized=True
        )
        variant = run(
            s27, s27_pools, heuristic,
            use_cones=use_cones, vectorized=vectorized,
        )
        assert fingerprint(variant) == fingerprint(reference)

    @pytest.mark.parametrize("use_cones,vectorized", VARIANTS)
    def test_c17(self, c17, c17_pools, use_cones, vectorized):
        reference = run(
            c17, c17_pools, "values", use_cones=True, vectorized=True
        )
        variant = run(
            c17, c17_pools, "values",
            use_cones=use_cones, vectorized=vectorized,
        )
        assert fingerprint(variant) == fingerprint(reference)

    @pytest.mark.parametrize("use_cones,vectorized", VARIANTS)
    def test_synthetic_proxy(self, tiny_chain, chain_pools, use_cones, vectorized):
        """One chain-style proxy circuit -- the experiments' circuit family."""
        reference = run(
            tiny_chain, chain_pools, "values", use_cones=True, vectorized=True
        )
        variant = run(
            tiny_chain, chain_pools, "values",
            use_cones=use_cones, vectorized=vectorized,
        )
        assert fingerprint(variant) == fingerprint(reference)

    def test_seed_changes_output(self, s27, s27_pools):
        """Sanity: the fingerprint is sensitive enough to notice RNG drift."""
        a = run(s27, s27_pools, "values", use_cones=True, vectorized=True)
        b = run(
            s27, s27_pools, "values",
            use_cones=True, vectorized=True, seed=12,
        )
        assert fingerprint(a) != fingerprint(b)


class TestEnvEscapeHatches:
    def test_full_sim_env_disables_cones(self, s27, monkeypatch):
        try:
            monkeypatch.setenv(envflags.FULL_SIM_ENV, "1")
            envflags.reset()
            assert Justifier(s27).use_cones is False
            monkeypatch.setenv(envflags.FULL_SIM_ENV, "0")
            envflags.reset()
            assert Justifier(s27).use_cones is True
        finally:
            monkeypatch.undo()
            envflags.reset()

    def test_scalar_cover_env_disables_batched_screen(self, s27, monkeypatch):
        try:
            monkeypatch.setenv(envflags.SCALAR_COVER_ENV, "1")
            envflags.reset()
            assert Generator(s27).vectorized is False
            monkeypatch.delenv(envflags.SCALAR_COVER_ENV)
            envflags.reset()
            assert Generator(s27).vectorized is True
        finally:
            monkeypatch.undo()
            envflags.reset()

    def test_explicit_flags_override_env(self, s27, monkeypatch):
        try:
            monkeypatch.setenv(envflags.FULL_SIM_ENV, "1")
            monkeypatch.setenv(envflags.SCALAR_COVER_ENV, "1")
            envflags.reset()
            assert Justifier(s27, use_cones=True).use_cones is True
            assert Generator(s27, vectorized=True).vectorized is True
        finally:
            monkeypatch.undo()
            envflags.reset()
