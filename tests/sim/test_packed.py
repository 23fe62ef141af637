"""Compiled {0,1,x} cone kernel: packing, kernel equivalence, the cone
class, build.

For every cone, every {0,1,x} input batch and every batch width
(including widths that do not fill a 64-lane word, and several words) the
cone kernel must reproduce the numpy full-netlist level kernel
(:meth:`BatchSimulator.run_codes`) on the cone's nodes exactly --
``run_codes`` values, and ``screen`` verdicts against the
``consistent_with`` / ``covered_by`` predicates on those codes.
Hypothesis drives random synthesized cones through both, and a
hand-built netlist covers the gate types the synthesizer never emits
(XOR, XNOR, BUF, NOT, constants); the lane-padding checks mirror the
pad-row treatment of the fused level kernel (widening a batch must not
disturb earlier columns).
"""

from __future__ import annotations

import random
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.ternary import ONE, X, ZERO
from repro.algebra.triple import Triple
from repro.circuit import GateType, build_netlist
from repro.circuit.synth import SynthProfile, generate
from repro.engine.stats import EngineStats
from repro.sim import packed as packed_module
from repro.sim.batch import BatchSimulator, ConeSimulator
from repro.sim.cover import CompiledRequirements
from repro.sim.packed import (
    LANES,
    KernelBuildError,
    PackedConeSimulator,
    unpack_words,
    words_for,
)

#: Batch widths that stress lane padding: single lane, just below/above
#: the historic 32-lane layout, around one full 64-lane word, and around
#: two and four words (the C kernel's word stride).
AWKWARD_WIDTHS = (1, 5, 31, 32, 33, 63, 64, 65, 70, 127, 128, 129, 257)


def mixed_gate_netlist():
    """Every gate type the packed kernel evaluates, including the ones
    :mod:`repro.circuit.synth` never emits: XOR, XNOR, BUF, NOT and the
    two constants, mixed with wide AND/NAND/OR/NOR fanins."""
    return build_netlist(
        "mixed",
        inputs=["a", "b", "c", "d", "e"],
        gates=[
            ("t0", GateType.CONST0, []),
            ("t1", GateType.CONST1, []),
            ("x2", GateType.XOR, ["a", "b"]),
            ("x3", GateType.XOR, ["a", "b", "c"]),
            ("n2", GateType.XNOR, ["c", "d"]),
            ("n3", GateType.XNOR, ["b", "d", "e"]),
            ("bf", GateType.BUF, ["x2"]),
            ("nt", GateType.NOT, ["n2"]),
            ("g1", GateType.AND, ["bf", "t1", "e"]),
            ("g2", GateType.NAND, ["nt", "x3"]),
            ("g3", GateType.OR, ["t0", "n3"]),
            ("g4", GateType.NOR, ["g1", "t0", "c"]),
            ("m1", GateType.XNOR, ["g2", "g3", "t1"]),
            ("m2", GateType.XOR, ["g4", "nt", "t0"]),
            ("inv", GateType.NOT, ["t1"]),
            ("out", GateType.AND, ["m1", "m2", "inv", "bf"]),
        ],
        outputs=["m1", "m2", "out"],
    )


def synth_netlist(seed: int, style: str):
    if style == "mixed":
        return mixed_gate_netlist()
    if style == "mesh":
        profile = SynthProfile(
            name=f"pk{seed}",
            seed=seed,
            n_inputs=6 + seed % 5,
            n_gates=25 + seed % 17,
            style="mesh",
        )
    else:
        profile = SynthProfile(
            name=f"pk{seed}",
            seed=seed,
            n_inputs=6 + seed % 5,
            style="chain",
            rails=3,
            depth=5 + seed % 4,
        )
    return generate(profile)


def random_cone(netlist, rng: random.Random) -> ConeSimulator:
    sim = BatchSimulator(netlist)
    seeds = rng.sample(range(len(netlist)), min(3, len(netlist)))
    return sim.restricted(seeds)


def random_codes(np_rng, n_rows: int, k: int) -> np.ndarray:
    return np_rng.integers(0, 3, size=(n_rows, 3, k)).astype(np.int8)


def full_reference(cone: ConeSimulator, codes: np.ndarray) -> np.ndarray:
    """The numpy full-netlist kernel's codes on ``cone.nodes`` for a cone
    batch; primary inputs outside the cone are held at ``x`` (they cannot
    reach a cone node)."""
    full = BatchSimulator(cone.netlist)
    full_codes = np.full((len(full.pi_index), 3, codes.shape[2]), X, dtype=np.int8)
    rows = [int(np.nonzero(full.pi_index == pi)[0][0]) for pi in cone.pi_index]
    full_codes[rows] = codes
    return full.run_codes(full_codes)[cone.nodes]


def random_requirements(cone, rng: random.Random) -> CompiledRequirements:
    requirements = {}
    for node in rng.sample(
        [int(node) for node in cone.nodes], min(4, cone.n_nodes)
    ):
        requirements[node] = Triple.of(
            rng.choice([ZERO, ONE, X]),
            rng.choice([ZERO, ONE, X]),
            rng.choice([ZERO, ONE, X]),
        )
    return CompiledRequirements(requirements)


def inputs_only_cone(netlist) -> ConeSimulator:
    """A gate-free cone: ``run_codes`` is exactly pack then unpack."""
    return BatchSimulator(netlist).restricted(netlist.input_indices)


class TestPacking:
    def test_words_for(self):
        assert words_for(1) == 1
        assert words_for(LANES) == 1
        assert words_for(LANES + 1) == 2
        assert words_for(0) == 1  # empty batches still get one word

    @pytest.mark.parametrize("k", AWKWARD_WIDTHS)
    def test_round_trip(self, k, c17):
        cone = inputs_only_cone(c17)
        assert cone.n_nodes == len(c17.input_indices)
        codes = random_codes(np.random.default_rng(k), cone.n_nodes, k)
        assert np.array_equal(cone.run_codes(codes), codes)
        assert cone._buffers[words_for(k)][0].shape[2] == words_for(k)

    def test_padding_lanes_are_zero(self, c17):
        # Lanes beyond k must pack as (0, 0): the kernel relies on pad
        # lanes never injecting spurious "possibly 1" bits.
        cone = inputs_only_cone(c17)
        codes = np.full((cone.n_nodes, 3, 3), ONE, dtype=np.int8)
        cone.run_codes(codes)
        words = cone._buffers[1][0][: 2 * cone.n_nodes]
        mask = np.uint64((1 << 3) - 1)
        assert np.all(words & mask == mask)
        assert np.all(words & ~mask == 0)

    def test_invalid_plane_pair_decodes_as_x(self):
        # (d1=1, p1=0) is never produced by the kernel; a defensive
        # decode maps it to x rather than inventing a definite value.
        words = np.zeros((1, 2, 3, 1), dtype=np.uint64)
        words[0, 0, :, 0] = 1  # d1 set, p1 clear
        assert np.all(unpack_words(words, 1) == X)


class TestKernelEquivalence:
    """Cone kernel vs the numpy full-netlist kernel on random cones,
    columns and widths."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_run_codes_matches_numpy(self, data):
        seed = data.draw(st.integers(0, 10_000))
        style = data.draw(st.sampled_from(["mesh", "chain", "mixed"]))
        k = data.draw(st.sampled_from(AWKWARD_WIDTHS))
        netlist = synth_netlist(seed, style)
        cone = random_cone(netlist, random.Random(seed))
        codes = random_codes(np.random.default_rng(seed), len(cone.pi_index), k)
        assert np.array_equal(cone.run_codes(codes), full_reference(cone, codes))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_screen_matches_reference_predicates(self, data):
        seed = data.draw(st.integers(0, 10_000))
        style = data.draw(st.sampled_from(["mesh", "mixed"]))
        k = data.draw(st.sampled_from(AWKWARD_WIDTHS))
        netlist = synth_netlist(seed, style)
        rng = random.Random(seed)
        cone = random_cone(netlist, rng)
        compiled = random_requirements(cone, rng)
        codes = random_codes(np.random.default_rng(seed), len(cone.pi_index), k)
        reference = full_reference(cone, codes)
        local = cone.localize(compiled)
        consistent, covered = cone.screen(codes, local)
        assert np.array_equal(consistent, local.consistent_with(reference))
        assert np.array_equal(covered, local.covered_by(reference))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_widening_a_batch_never_disturbs_earlier_columns(self, data):
        # The packed analogue of the fused kernel's neutral pad rows:
        # lanes past the batch width must be inert, so growing the batch
        # reproduces the narrow result column for column.
        seed = data.draw(st.integers(0, 10_000))
        k = data.draw(st.sampled_from(AWKWARD_WIDTHS))
        extra = data.draw(st.integers(1, 40))
        netlist = synth_netlist(seed, "mesh")
        cone = random_cone(netlist, random.Random(seed))
        np_rng = np.random.default_rng(seed)
        codes = random_codes(np_rng, len(cone.pi_index), k)
        narrow = cone.run_codes(codes)
        wide = np.concatenate(
            [codes, random_codes(np_rng, len(cone.pi_index), extra)], axis=2
        )
        assert np.array_equal(cone.run_codes(wide)[:, :, :k], narrow)

    @pytest.mark.parametrize("k", AWKWARD_WIDTHS)
    def test_mixed_gate_types_match_numpy(self, k):
        # Whole-circuit cone of the hand-built netlist: every gate type,
        # both constants, at every awkward width.
        netlist = mixed_gate_netlist()
        cone = BatchSimulator(netlist).restricted(netlist.output_indices)
        assert cone.n_nodes == len(netlist)
        rng = random.Random(k)
        codes = random_codes(np.random.default_rng(k), len(cone.pi_index), k)
        reference = full_reference(cone, codes)
        assert np.array_equal(cone.run_codes(codes), reference)
        for _ in range(5):
            compiled = random_requirements(cone, rng)
            local = cone.localize(compiled)
            consistent, covered = cone.screen(codes, local)
            assert np.array_equal(consistent, local.consistent_with(reference))
            assert np.array_equal(covered, local.covered_by(reference))

    def test_strided_batch_matches_numpy(self):
        # A non-contiguous batch is copied before its address reaches C.
        netlist = mixed_gate_netlist()
        cone = BatchSimulator(netlist).restricted(netlist.output_indices)
        wide = random_codes(np.random.default_rng(7), len(cone.pi_index), 140)
        codes = wide[:, :, ::2]
        assert not codes.flags.c_contiguous
        assert np.array_equal(cone.run_codes(codes), full_reference(cone, codes))

    def test_screen_rejects_requirements_outside_the_cone(self, c17):
        cone = BatchSimulator(c17).restricted([c17.output_indices[0]])
        codes = np.full((len(cone.pi_index), 3, 2), X, dtype=np.int8)
        # Global indices past the cone's rows must never reach the kernel.
        compiled = CompiledRequirements({len(c17) - 1 + cone.n_nodes: Triple.of(ONE, X, X)})
        with pytest.raises(ValueError, match="cone-local"):
            cone.screen(codes, compiled)

    def test_rejects_bad_shape(self, c17):
        cone = random_cone(c17, random.Random(0))
        with pytest.raises(ValueError):
            cone.run_codes(
                np.zeros((len(cone.pi_index) + 1, 3, 4), dtype=np.int8)
            )


class TestDispatch:
    def test_packed_backend_wraps_cones(self, c17):
        # restricted() hands out the one compiled cone class; the old
        # PackedConeSimulator name is an alias with both kernel entries in
        # the class body (perfbench's tracer patches them there).
        cone = BatchSimulator(c17).restricted([3])
        assert type(cone) is ConeSimulator
        assert PackedConeSimulator is ConeSimulator
        assert {"run_codes", "screen"} <= set(vars(ConeSimulator))

    def test_packed_twin_cached_on_cone(self, c17):
        # The gate program is compiled once per cone and cached with it.
        sim = BatchSimulator(c17)
        assert sim.restricted([3]) is sim.restricted([3])

    def test_unknown_backend_argument_rejected(self, c17):
        # There is no backend choice left to make.
        for name in ("bogus", "numpy", "packed"):
            with pytest.raises(TypeError):
                BatchSimulator(c17, backend=name)


class TestStats:
    def test_backend_counters(self, c17):
        stats = EngineStats()
        sim = BatchSimulator(c17, stats=stats)
        cone = sim.restricted([3])
        codes = np.full((len(cone.pi_index), 3, 5), X, dtype=np.int8)
        cone.run_codes(codes)
        assert stats.counter("backend.packed.runs") == 1
        assert stats.counter("backend.packed.columns") == 5
        assert stats.counter("backend.packed.words") == words_for(5)
        # The shared batch/cone series count the same calls.
        assert stats.counter("batch.runs") == 1
        assert stats.counter("cone.runs") == 1


class TestKernelBuild:
    """Build and load of the C kernel every :class:`BatchSimulator` needs."""

    def test_failing_compiler_names_it_and_leaves_no_file(
        self, c17, monkeypatch, tmp_path
    ):
        real = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig, "get_config_var", lambda name: "false" if name == "CC" else real(name)
        )
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(packed_module, "_kernel", None)
        with pytest.raises(KernelBuildError, match="'false'"):
            BatchSimulator(c17)
        assert list((tmp_path / "repro").iterdir()) == []
        # Every BatchSimulator needs the compiler: no later construction
        # falls back to a kernel-free simulator.
        with pytest.raises(KernelBuildError, match="'false'"):
            BatchSimulator(c17)

    def test_unloadable_cached_file_is_rebuilt_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(packed_module, "_kernel", None)
        path = packed_module._library_path(packed_module._compiler())
        path.write_bytes(b"not a shared library")
        builds = []
        real_build = packed_module._build

        def counting_build(compiler, target):
            builds.append(target)
            real_build(compiler, target)

        monkeypatch.setattr(packed_module, "_build", counting_build)
        lib = packed_module.load_kernel()
        assert builds == [path]
        assert hasattr(lib, "repro_screen")
        assert path.read_bytes() != b"not a shared library"
        assert [entry.name for entry in path.parent.iterdir()] == [path.name]
        # A good cached file is loaded as is: no later process rebuilds it.
        monkeypatch.setattr(packed_module, "_kernel", None)
        packed_module.load_kernel()
        assert builds == [path]
