"""Bit-packed {0,1,x} simulation backend (``REPRO_BACKEND=packed``).

Packs the batch columns of the justifier's trial simulations into uint64
words, 2 bits per ternary value, and evaluates the cone with word-wide
bitwise ops in a small compiled C loop (``_packed_kernel.c``): one call
packs the batch, propagates every gate and reduces the requirement
verdicts, so a whole fixpoint round costs one foreign call instead of a
few numpy calls per level.

Encoding
--------

Each {0,1,x} value is 2 bits split across a *plane pair* of words:

* plane 0 -- ``d1``, "definitely one";
* plane 1 -- ``p1``, "possibly one".

So ``0 -> (0, 0)``, ``1 -> (1, 1)``, ``x -> (0, 1)``; ``(1, 0)`` is never
produced (``d1 -> p1`` is an invariant of every op below) and decodes
defensively as ``x``.  Lane ``j`` of the pair is bit ``j`` of both words
(64 lanes per word pair, little-endian bit order).  The planes make the
ternary algebra collapse into single bitwise ops, because ``d1`` and
``p1`` are each monoid homomorphisms of the ternary AND/OR algebra onto
boolean AND/OR:

* AND: ``d1' = AND(d1_i)`` and ``p1' = AND(p1_i)``; OR likewise;
* NOT: ``(d1', p1') = (~p1, ~d1)`` -- a bitwise NOT plus a plane *swap*;
* XOR: pairwise -- any ``x`` operand forces ``x``, else the boolean xor
  of the ``d1`` bits.

State layout and the gate program
---------------------------------

The packed state folds the plane axis into the row axis: row ``2i`` holds
cone-local node ``i``'s ``d1`` words, row ``2i + 1`` its ``p1`` words
(shape ``(2 * (n_nodes + 2), 3, W)``).  :func:`_compile_plan` flattens the
cone's fused levels once into a *gate program*: one int64 record per gate,
in level order, holding its op (AND/NAND/OR/NOR/XOR/XNOR), its output row
pair and its fanin row pairs.  The NOT half of NAND/NOR is compiled into
the fanin pairs as a plane swap -- ``(2j + 1, 2j)`` instead of
``(2j, 2j + 1)`` -- since plane permutation commutes with the plane-wise
AND/OR, so ``NAND = ~ AND(swapped inputs)`` and ``NOR = ~ OR(swapped
inputs)``.  BUF and NOT are one-input AND and NAND.

Lane padding mirrors the numpy kernel's pad-*row* treatment: when ``K``
is not a multiple of 64, the trailing lanes of the last word pair hold
constant 0 -- lanes never interact, so any valid ternary constant is inert
by construction, and the first ``K`` lanes are unaffected by batch
widening (tested property).  The numpy kernel's two pad *rows* pad each
fused gate's fanins to its family's arity: the min-family pad holds
constant 1 (all-ones in both planes), the max/xor-family pad constant 0;
both are symmetric across planes, so swapped pad operands stay neutral.

The C kernel
------------

The C source is compiled with the system C compiler (``sysconfig``'s
``CC``, else ``cc``) at ``-O2 -shared -fPIC`` and loaded with
:mod:`ctypes` (:func:`load_kernel`).  The library is cached under
``${XDG_CACHE_HOME:-~/.cache}/repro/`` (else the temp directory), named by
a digest of the source, the compiler command and the platform, and
published with a temp file plus :func:`os.replace`, so concurrent pool
workers never see a partial file.  Constructing a packed
:class:`~repro.sim.batch.BatchSimulator` builds or loads it; a missing or
failing compiler is a :class:`KernelBuildError` naming the compiler, never
a silent fallback.

Dispatch
--------

:meth:`repro.sim.batch.BatchSimulator.restricted` wraps each cached
:class:`~repro.sim.batch.ConeSimulator` in a lazily-attached packed twin
when the backend resolves to ``packed`` (the ``REPRO_BACKEND`` seam in
:mod:`repro.envflags`).  The twin implements the ``ConeSimulator``
interface -- ``run_codes`` returns identical unpacked int8 codes in the
parent's row order -- plus :meth:`PackedConeSimulator.screen`, the
justifier's fast path that computes the (consistent, covered) verdicts
against a :class:`~repro.sim.cover.CompiledRequirements` inside the C
call, without materializing per-node codes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..algebra.ternary import ONE, X, ZERO
from .batch import _N_PAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch dispatches here)
    from .batch import ConeSimulator
    from .cover import CompiledRequirements

__all__ = [
    "LANES",
    "KernelBuildError",
    "PackedConeSimulator",
    "load_kernel",
    "unpack_words",
    "words_for",
]

#: Batch columns per uint64 word pair (2 bits per {0,1,x} value).
LANES = 64

_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Word views assume little-endian byte <-> bit-lane order; byteswap on BE.
_BIG_ENDIAN = sys.byteorder == "big"

#: ``2*d1 + p1`` -> ternary code ((1, 0) defensively decodes as x).
_DECODE = np.array([ZERO, X, X, ONE], dtype=np.int8)
_DECODE.setflags(write=False)

#: Gate-program opcodes (mirrored by the enum in ``_packed_kernel.c``),
#: keyed by the fused level kernel's (family, inverted).
_OPCODES = {
    ("min", False): 0,  # AND (and BUF)
    ("min", True): 1,  # NAND (and NOT)
    ("max", False): 2,  # OR
    ("max", True): 3,  # NOR
    ("xor", False): 4,  # XOR
    ("xor", True): 5,  # XNOR
}
#: Opcodes whose fanin row pairs are plane-swapped (the NOT half).
_SWAPPED = (1, 3)

_SOURCE = Path(__file__).with_name("_packed_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_KERNEL_ARGS = [_PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR, _I64]

#: The loaded kernel library, once per process.
_kernel: ctypes.CDLL | None = None


class KernelBuildError(RuntimeError):
    """The packed kernel's C source could not be compiled or loaded."""


def words_for(columns: int) -> int:
    """Number of uint64 words per plane for ``columns`` lanes (>= 1)."""
    return max(1, -(-columns // LANES))


def unpack_words(words: np.ndarray, k: int) -> np.ndarray:
    """Unpack plane pairs ``(n, 2, 3, W)`` into ternary codes ``(n, 3, K)``."""
    if _BIG_ENDIAN:
        words = words.byteswap()
    lane_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(lane_bytes, axis=-1, bitorder="little")  # (n, 2, 3, 64W)
    return _DECODE[2 * bits[:, 0, :, :k] + bits[:, 1, :, :k]]


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------


def _compiler() -> list[str]:
    """The system C compiler command: ``sysconfig``'s ``CC``, else ``cc``."""
    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    if configured and shutil.which(configured[0]):
        return configured
    return ["cc"]


def _cache_dir() -> Path:
    """``${XDG_CACHE_HOME:-~/.cache}/repro``, else the temp directory."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    directory = Path(root) / "repro"
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return Path(tempfile.gettempdir())
    return directory if os.access(directory, os.W_OK) else Path(tempfile.gettempdir())


def _library_path(compiler: list[str]) -> Path:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(shlex.join([*compiler, *_CFLAGS]).encode())
    digest.update(sysconfig.get_platform().encode())
    return _cache_dir() / f"repro-packed-{digest.hexdigest()[:16]}.so"


def _build(compiler: list[str], target: Path) -> None:
    """Compile the kernel into ``target`` via a temp file + ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.stem}-")
    os.close(fd)
    command = [*compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)]
    try:
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(
                f"C compiler {shlex.join(compiler)!r} could not run: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"C compiler {shlex.join(compiler)!r} exited {proc.returncode} "
                f"building {_SOURCE.name}: {proc.stderr.strip()[-2000:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.repro_propagate.argtypes = _KERNEL_ARGS
    lib.repro_propagate.restype = None
    lib.repro_screen.argtypes = _KERNEL_ARGS + [_PTR, _PTR, _PTR, _I64, _PTR]
    lib.repro_screen.restype = _I64
    return lib


def load_kernel() -> ctypes.CDLL:
    """Build (at most once per source, compiler and platform) and load the
    C kernel.

    A cached library that fails to load is rebuilt once, not trusted;
    raises :class:`KernelBuildError` when the compiler fails or the fresh
    build does not load either.
    """
    global _kernel
    if _kernel is None:
        compiler = _compiler()
        path = _library_path(compiler)
        error: Exception | None = None
        for attempt in range(2):
            if attempt or not path.exists():
                _build(compiler, path)
            try:
                _kernel = _load(path)
                break
            except (OSError, AttributeError) as exc:
                error = exc
        else:
            raise KernelBuildError(
                f"packed kernel built by {shlex.join(compiler)!r} does not load: {error}"
            )
    return _kernel


# ----------------------------------------------------------------------
# Gate program
# ----------------------------------------------------------------------


def _compile_plan(cone: "ConeSimulator") -> tuple[np.ndarray, int]:
    """Flatten the cone's fused levels into the C kernel's gate program.

    Returns ``(program, n_gates)``: per gate, in level order, the record
    ``op, n_in, out_row, a_0, b_0, a_1, b_1, ...`` of state rows -- the
    output's ``d1`` row (its ``p1`` row is ``out_row + 1``) and each
    fanin's ``(d1, p1)`` row pair, swapped for NAND/NOR.  Fanins keep the
    fused kernel's family padding, which references the pad rows.
    """
    program: list[int] = []
    n_gates = 0
    for fused_groups in cone._levels:
        for fused in fused_groups:
            inverted = np.zeros(len(fused.out_idx), dtype=bool)
            if fused.invert_all:
                inverted[:] = True
            elif fused.invert is not None:
                inverted[fused.invert] = True
            for out, fanin, inv in zip(
                fused.out_idx.tolist(), fused.in_idx.tolist(), inverted.tolist()
            ):
                op = _OPCODES[fused.kind, inv]
                program += (op, len(fanin), 2 * out)
                for ref in fanin:
                    if op in _SWAPPED:
                        program += (2 * ref + 1, 2 * ref)
                    else:
                        program += (2 * ref, 2 * ref + 1)
                n_gates += 1
    return np.array(program, dtype=np.int64), n_gates


class PackedConeSimulator:
    """Packed-word twin of one :class:`~repro.sim.batch.ConeSimulator`.

    Compiles the parent cone's fused levels once into a gate program and
    implements the same interface -- :meth:`run_codes` returns identical
    int8 codes in the parent's row order -- plus :meth:`screen`, the
    justifier's fast path.  Constructed lazily by
    :meth:`repro.sim.batch.BatchSimulator._dispatch` and cached on the
    cone, so plan compilation amortizes exactly like the cone LRU.

    The packed state buffers are cached per word count and reused across
    simulations: every input and gate row is overwritten by each kernel
    call, so only the pad/const rows carry state between calls -- and
    those are written once at buffer creation.
    """

    #: Dispatch tag consumed by tests and stats consumers.
    backend = "packed"

    def __init__(self, cone: "ConeSimulator") -> None:
        self._kernel = load_kernel()
        self._cone = cone
        self._program, self._n_gates = _compile_plan(cone)
        self._pi_rows = np.ascontiguousarray(2 * cone._pi_local, dtype=np.int64)
        self._pi_rows_ptr = self._pi_rows.ctypes.data
        self._program_ptr = self._program.ctypes.data
        #: Word count -> (state buffer, its address).
        self._buffers: dict[int, tuple[np.ndarray, int]] = {}
        #: (requirements, their kernel arrays, kernel args) of the last
        #: screen: a fixpoint screens one requirement set round after round.
        self._screened: tuple | None = None

    # -- ConeSimulator interface (delegated metadata) -------------------

    @property
    def netlist(self):
        return self._cone.netlist

    @property
    def stats(self):
        return self._cone.stats

    @property
    def nodes(self):
        return self._cone.nodes

    @property
    def n_nodes(self):
        return self._cone.n_nodes

    @property
    def global_to_local(self):
        return self._cone.global_to_local

    @property
    def pi_index(self):
        return self._cone.pi_index

    @property
    def support(self):
        return self._cone.support

    def local_indices(self, global_indices: np.ndarray) -> np.ndarray:
        """Map global dense indices to cone-local rows (-1 when outside)."""
        return self._cone.local_indices(global_indices)

    def localize(self, compiled: "CompiledRequirements") -> "CompiledRequirements":
        """Remap requirements into cone-local rows (what :meth:`screen` reads)."""
        return self._cone.localize(compiled)

    # -- Simulation -----------------------------------------------------

    def _buffer(self, w: int) -> tuple[np.ndarray, int]:
        cached = self._buffers.get(w)
        if cached is None:
            cone = self._cone
            n2 = 2 * cone.n_nodes
            vals = np.empty((n2 + 2 * _N_PAD, 3, w), dtype=np.uint64)
            vals[n2 : n2 + 2] = _ALL  # min-family pad: constant 1
            vals[n2 + 2 : n2 + 4] = 0  # max/xor-family pad: constant 0
            for rows, value in ((cone._const0, 0), (cone._const1, _ALL)):
                vals[2 * rows] = value
                vals[2 * rows + 1] = value
            cached = self._buffers[w] = (vals, vals.ctypes.data)
        return cached

    def _prepare(self, pi_codes: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
        """Validate the batch; returns the contiguous int8 codes (the
        caller keeps them alive across the kernel call), the kernel
        arguments shared by both entries, and the state buffer."""
        n_pis, three, k = pi_codes.shape
        if three != 3 or n_pis != len(self._cone.pi_index):
            raise ValueError(
                f"expected shape ({len(self._cone.pi_index)}, 3, K), got {pi_codes.shape}"
            )
        codes = np.ascontiguousarray(pi_codes, dtype=np.int8)
        w = words_for(k)
        vals, vals_ptr = self._buffer(w)
        args = [
            codes.ctypes.data, n_pis, k, self._pi_rows_ptr,
            vals_ptr, w, self._program_ptr, self._n_gates,
        ]  # fmt: skip
        return codes, args, vals

    def _count(self, k: int, extra: dict[str, int] | None = None) -> None:
        """One counter update per kernel call (batch, cone and backend series)."""
        stats = self._cone.stats
        if stats is None:
            return
        counts = {
            "batch.runs": 1,
            "batch.columns": k,
            "cone.runs": 1,
            "cone.columns": k,
            "backend.packed.runs": 1,
            "backend.packed.columns": k,
            "backend.packed.words": words_for(k),
        }
        if extra:
            counts.update(extra)
        stats.counters.update(counts)

    def run_codes(self, pi_codes: np.ndarray) -> np.ndarray:
        """Simulate from raw ternary codes over the cone.

        Same contract as :meth:`repro.sim.batch.ConeSimulator.run_codes`:
        rows ordered as :attr:`pi_index` in, cone-local codes
        ``(n_cone_nodes, 3, K)`` out -- bit-identical to the numpy kernel.
        """
        codes, args, vals = self._prepare(pi_codes)
        self._kernel.repro_propagate(*args)
        k = codes.shape[2]
        self._count(k)
        n = self._cone.n_nodes
        return unpack_words(vals[: 2 * n].reshape(n, 2, 3, -1), k)

    def screen(
        self, pi_codes: np.ndarray, compiled: "CompiledRequirements"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate and check requirements without unpacking node codes.

        ``compiled`` must come from :meth:`localize` (cone-local rows).
        Returns ``(consistent, covered)`` boolean arrays over the ``K``
        columns, exactly equal to the numpy kernel's
        ``consistent_with`` / ``covered_by`` verdicts: a lane contradicts
        a required 1 iff its value is a definite 0 (``~p1``) and a
        required 0 iff definite 1 (``d1``); it covers iff the definite
        value matches.
        """
        codes, args, _ = self._prepare(pi_codes)
        screened = self._screened
        if screened is None or screened[0] is not compiled:
            screened = self._screened = (compiled, *self._requirement_args(compiled))
        k = codes.shape[2]
        verdicts = np.empty((2, k), dtype=bool)  # consistent, covered
        rejected = self._kernel.repro_screen(*args, *screened[2], verdicts.ctypes.data)
        self._count(k, {"backend.packed.screens": 1, "backend.packed.rejected": rejected})
        return verdicts[0], verdicts[1]

    def _requirement_args(self, compiled: "CompiledRequirements") -> tuple[tuple, list]:
        """Bounds-checked kernel arrays of cone-local requirements, and
        the kernel arguments pointing at them."""
        arrays = (
            np.ascontiguousarray(compiled.nodes, dtype=np.int64),
            np.ascontiguousarray(compiled.positions, dtype=np.int64),
            np.ascontiguousarray(compiled.values, dtype=np.int8),
        )
        nodes, positions, values = arrays
        m = len(nodes)
        if len(positions) != m or len(values) != m or m and (
            nodes.min() < 0
            or nodes.max() >= self._cone.n_nodes
            or positions.min() < 0
            or positions.max() > 2
        ):
            raise ValueError("requirements are not cone-local; pass them through localize()")
        return arrays, [array.ctypes.data for array in arrays] + [m]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cone = self._cone
        return (
            f"PackedConeSimulator({cone.netlist.name!r}, {cone.n_nodes} nodes, "
            f"{self._n_gates} gates)"
        )
