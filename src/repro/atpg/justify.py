"""Simulation-based justification (Section 2.1 of the paper).

Given a set of required line values (the union of ``A(p)`` over the faults
assigned to the test under construction), the justifier searches for a
fully specified two-pattern test:

1. every primary input starts as ``x x x``;
2. **necessary values**: for every unspecified input position ``beta_ij``
   (``j in {1, 3}``; the intermediate position is derived), both values are
   tried by trial simulation.  If each of 0 and 1 contradicts a required
   value, the search fails; if exactly one contradicts, the other is
   assigned permanently.  This repeats to a fixpoint;
3. **decisions**: when no necessary value exists, an input with exactly one
   specified endpoint is completed to a *stable* value if possible;
   otherwise a random unspecified position gets a random value.  Back to 2.

There is no backtracking -- a conflict after random decisions simply fails
the attempt, exactly as in the paper (which points out that a
branch-and-bound procedure would remove the resulting variance; see
:mod:`repro.atpg.bnb` for that extension).

Key properties used for efficiency:

* three-valued simulation is *monotone*: specifying more inputs only
  refines ``x`` components and never flips a specified one.  Hence once the
  requirements are **covered** by a partial assignment, any completion
  works, and the remaining inputs are filled with random stable values.
* all candidate values of one fixpoint round are simulated as a single
  batch (one column per candidate) by :class:`~repro.sim.batch.BatchSimulator`.
* trial simulation runs on the **cone-restricted** compiled kernel
  (:meth:`~repro.sim.batch.BatchSimulator.restricted`,
  :mod:`repro.sim.packed`): the requirements depend only on the
  transitive-fanin cone of the required lines, so only that cone is
  simulated, and each fixpoint round screens its whole candidate batch,
  64 columns per uint64 word pair, in one C call that also computes the
  (consistent, covered) verdicts.  The verdicts equal those of a full
  simulation (the tested cone-equivalence invariant), and
  ``REPRO_FULL_SIM=1`` (snapshotted per process, :mod:`repro.envflags`)
  falls back to simulating the whole netlist on the numpy level kernel.
  The final verification below always runs the full-netlist numpy
  simulation, so the cone kernel only accelerates trial screening.
* the partial assignment is kept as one ``(n_support, 3)`` ternary-code
  array updated in place by :class:`_SearchState`, so fixpoint rounds
  build their candidate batch by array copy instead of re-walking dicts.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..algebra.ternary import ONE, X, ZERO
from ..algebra.triple import Triple
from ..circuit.analysis import support_inputs
from ..circuit.netlist import Netlist
from ..envflags import full_sim_requested
from ..robustness import Budget, InternalInvariantError
from ..sim.batch import LRU_CACHE_SIZE, BatchSimulator, ConeSimulator
from ..sim.vectors import TwoPatternTest
from .requirements import RequirementSet

__all__ = ["Justifier", "JustifyResult", "JustifyStats", "has_implication_conflict"]


@dataclass
class JustifyStats:
    """Work counters for one justification attempt."""

    simulations: int = 0
    rounds: int = 0
    decisions: int = 0
    necessary_assignments: int = 0


@dataclass
class JustifyResult:
    """A successful justification: the test plus its simulated values."""

    test: TwoPatternTest
    #: Node codes of shape ``(n_nodes, 3)`` for the final test.
    sim_codes: np.ndarray
    stats: JustifyStats = field(default_factory=JustifyStats)


class _SearchState:
    """Endpoint assignments (pattern 1 / pattern 2) for the support inputs.

    The state *is* the base simulation column: ``base[row]`` holds the
    ``(v1, v2, v3)`` ternary codes of support input ``support[row]``, with
    ``x`` marking unassigned endpoints and the intermediate component kept
    derived (stable value when both endpoints agree, else ``x``).  Rows
    follow ``support`` order, which matches the cone simulator's input
    rows, so fixpoint rounds hand ``base`` to the simulator as-is.
    """

    def __init__(self, support: list[int]) -> None:
        self.support = support
        self.row_of = {pi: row for row, pi in enumerate(support)}
        self.base = np.full((len(support), 3), X, dtype=np.int8)

    def unresolved(self) -> list[tuple[int, int]]:
        """Unspecified (input, position) pairs; position is 1 or 3.

        Order is the scan order the random decisions rely on: support rows
        ascending, position 1 before 3 within a row -- exactly the
        row-major order of ``np.nonzero``.
        """
        rows, cols = np.nonzero(self.base[:, 0::2] == X)
        support = self.support
        return [
            (support[row], 1 if col == 0 else 3) for row, col in zip(rows, cols)
        ]

    def assign(self, pi: int, position: int, value: int) -> None:
        row = self.row_of[pi]
        self.base[row, 0 if position == 1 else 2] = value
        v1, v3 = self.base[row, 0], self.base[row, 2]
        self.base[row, 1] = v1 if (v1 == v3 and v1 != X) else X

    def endpoints(self, pi: int) -> tuple[int, int]:
        """The (pattern 1, pattern 2) codes of one input (``x`` = unset)."""
        row = self.row_of[pi]
        return int(self.base[row, 0]), int(self.base[row, 2])

    def triple_of(self, pi: int) -> Triple:
        row = self.row_of[pi]
        return Triple.of(*(int(v) for v in self.base[row]))

    def clone(self) -> "_SearchState":
        copy = _SearchState.__new__(_SearchState)
        copy.support = self.support
        copy.row_of = self.row_of
        copy.base = self.base.copy()
        return copy

    def half_specified_input(self) -> tuple[int, int, int] | None:
        """An input with exactly one endpoint set: (pi, open position, value).

        Implements the paper's preference for completing inputs to stable
        values before resorting to random decisions.  First match in
        support order, as before vectorization.
        """
        base = self.base
        open1 = base[:, 0] == X
        open3 = base[:, 2] == X
        rows = np.nonzero(open1 != open3)[0]
        if rows.size == 0:
            return None
        row = int(rows[0])
        pi = self.support[row]
        if open3[row]:  # endpoint 1 set, complete position 3 to it
            return (pi, 3, int(base[row, 0]))
        return (pi, 1, int(base[row, 2]))


class Justifier:
    """Reusable justification engine bound to one netlist.

    ``use_cones`` selects the trial-simulation kernel: ``True`` restricts
    each justification to the fanin cone of its required lines, ``False``
    simulates the full netlist, ``None`` (default) restricts unless
    ``REPRO_FULL_SIM`` is set.
    """

    def __init__(
        self,
        netlist: Netlist,
        simulator: BatchSimulator | None = None,
        stats=None,
        use_cones: bool | None = None,
    ) -> None:
        """``stats`` is an optional EngineStats-compatible sink (``count``
        + ``timer``); when set, each :meth:`justify` call records
        ``justify.calls``, accumulates wall-clock time under ``justify``,
        and tracks the cone saving as ``justify.cone_nodes`` (node-columns
        actually simulated) vs ``justify.full_nodes`` (node-columns a full
        simulation would have cost)."""
        self.netlist = netlist
        self.simulator = simulator or BatchSimulator(netlist)
        self._stats = stats
        if use_cones is None:
            use_cones = not full_sim_requested()
        self.use_cones = use_cones
        self._pi_row = {pi: row for row, pi in enumerate(netlist.input_indices)}
        self._n_pis = len(netlist.input_indices)
        self._support_cache: OrderedDict[frozenset[int], list[int]] = OrderedDict()

    # ------------------------------------------------------------------

    def _support(self, requirements: RequirementSet) -> list[int]:
        key = frozenset(requirements.values.keys())
        cached = self._support_cache.get(key)
        if cached is None:
            cached = support_inputs(self.netlist, key)
            self._support_cache[key] = cached
            while len(self._support_cache) > LRU_CACHE_SIZE:
                self._support_cache.popitem(last=False)
        else:
            self._support_cache.move_to_end(key)
        return cached

    def _cone(self, requirements: RequirementSet) -> ConeSimulator | None:
        """The compiled cone simulator for a requirement set: the fanin
        cone of its required lines, whose ``screen`` runs each fixpoint
        round (None on the full-netlist path)."""
        if not self.use_cones:
            return None
        return self.simulator.restricted(requirements.values.keys())

    def _make_state(
        self, requirements: RequirementSet
    ) -> tuple[_SearchState, ConeSimulator | None]:
        cone = self._cone(requirements)
        support = cone.support if cone is not None else self._support(requirements)
        return _SearchState(support), cone

    def _count_sim(self, columns: int, simulated_nodes: int) -> None:
        if self._stats is not None:
            self._stats.count("justify.cone_nodes", simulated_nodes * columns)
            self._stats.count("justify.full_nodes", self.simulator.n_nodes * columns)

    def _fixpoint(
        self,
        state: _SearchState,
        requirements: RequirementSet,
        stats: JustifyStats,
        cone: ConeSimulator | None,
        budget: Budget | None = None,
        phase: str = "justify",
    ) -> str:
        """Assign all necessary values.

        Returns ``"conflict"``, ``"covered"`` (requirements already
        satisfied) or ``"stuck"`` (a decision is needed).

        When ``budget`` is set, each fixpoint round checks the wall-clock
        deadline and counts against the justification ``node_limit``
        (rounds are this engine's unit of work; each one simulates a full
        candidate batch), raising
        :class:`~repro.robustness.BudgetExceeded` at the round boundary.
        """
        compiled = requirements.compiled()
        if cone is not None:
            compiled = cone.localize(compiled)
            simulated_nodes = cone.n_nodes
            full_rows = None
        else:
            simulated_nodes = self.simulator.n_nodes
            full_rows = np.array(
                [self._pi_row[pi] for pi in state.support], dtype=np.int64
            )
        while True:
            if budget is not None:
                budget.check_deadline(phase, rounds=stats.rounds)
                budget.check_nodes(stats.rounds + 1, phase)
            stats.rounds += 1
            # Unresolved (row, endpoint) pairs in scan order (row asc,
            # endpoint 1 before 3); column 1+2i tries ZERO at pair i,
            # column 2+2i tries ONE, column 0 is the unmodified base.
            rows, endpoint_sel = np.nonzero(state.base[:, 0::2] == X)
            pos = endpoint_sel * 2  # base-array column: 0 or 2
            n_unresolved = rows.size
            if cone is not None:
                base = state.base
                sim_rows = rows
            else:
                base = np.full((self._n_pis, 3), X, dtype=np.int8)
                base[full_rows] = state.base
                sim_rows = full_rows[rows]
            k = 1 + 2 * n_unresolved
            batch = np.repeat(base[:, :, None], k, axis=2)  # (rows, 3, K)
            col_zero = 1 + 2 * np.arange(n_unresolved)
            col_one = col_zero + 1
            batch[sim_rows, pos, col_zero] = ZERO
            batch[sim_rows, pos, col_one] = ONE
            patched_rows = np.concatenate([sim_rows, sim_rows])
            patched_cols = np.concatenate([col_zero, col_one])
            v1 = batch[patched_rows, 0, patched_cols]
            v3 = batch[patched_rows, 2, patched_cols]
            batch[patched_rows, 1, patched_cols] = np.where(
                (v1 == v3) & (v1 != X), v1, X
            )
            # Decisions depend only on the (consistent, covered) booleans;
            # the cone's C screen computes them exactly as the full-netlist
            # predicates below (a tested identity), so both paths give the
            # same search trace.
            if cone is not None:
                consistent, covered = cone.screen(batch, compiled)
            else:
                sim = self.simulator.run_codes(batch)
                consistent = compiled.consistent_with(sim)
                covered = compiled.covered_by(sim[:, :, :1])
            stats.simulations += 1
            self._count_sim(k, simulated_nodes)
            if not consistent[0]:
                return "conflict"
            if covered[0]:
                return "covered"
            zero_ok = consistent[col_zero]
            one_ok = consistent[col_one]
            if (~zero_ok & ~one_ok).any():
                return "conflict"
            forced = zero_ok != one_ok
            if not forced.any():
                return "stuck" if n_unresolved else "conflict"
            forced_rows = rows[forced]
            state.base[forced_rows, pos[forced]] = np.where(
                zero_ok[forced], ZERO, ONE
            )
            f1 = state.base[forced_rows, 0]
            f3 = state.base[forced_rows, 2]
            state.base[forced_rows, 1] = np.where(
                (f1 == f3) & (f1 != X), f1, X
            )
            stats.necessary_assignments += int(forced.sum())

    # ------------------------------------------------------------------

    def justify(
        self,
        requirements: RequirementSet,
        rng: random.Random,
        budget: Budget | None = None,
    ) -> JustifyResult | None:
        """Search for a fully specified test satisfying ``requirements``.

        Returns ``None`` when the (incomplete, randomized) search fails.
        A non-null ``budget`` is checked at every fixpoint round and
        raises :class:`~repro.robustness.BudgetExceeded` on a trip; the
        caller decides whether that aborts the fault or the run.
        """
        if self._stats is not None:
            self._stats.count("justify.calls")
            with self._stats.timer("justify"):
                return self._justify(requirements, rng, budget)
        return self._justify(requirements, rng, budget)

    def _justify(
        self,
        requirements: RequirementSet,
        rng: random.Random,
        budget: Budget | None = None,
    ) -> JustifyResult | None:
        if budget is not None and budget.is_null:
            budget = None
        stats = JustifyStats()
        state, cone = self._make_state(requirements)
        covered = False
        while True:
            status = self._fixpoint(state, requirements, stats, cone, budget)
            if status == "conflict":
                return None
            if status == "covered":
                covered = True
                break
            # status == "stuck": make a decision.
            half = state.half_specified_input()
            if half is not None:
                pi, position, value = half
                state.assign(pi, position, value)
            else:
                unresolved = state.unresolved()
                if not unresolved:
                    break  # fully specified but not covered -> verify below
                pi, position = rng.choice(unresolved)
                state.assign(pi, position, rng.randint(ZERO, ONE))
            stats.decisions += 1

        # Complete every input to a fully specified waveform.  Monotonicity
        # of three-valued simulation guarantees coverage is preserved.
        assignment: dict[int, Triple] = {}
        for pi in self.netlist.input_indices:
            if pi in state.row_of:
                v1, v3 = state.endpoints(pi)
                v1 = v1 if v1 != X else rng.randint(ZERO, ONE)
                v3 = v3 if v3 != X else rng.randint(ZERO, ONE)
            else:
                v1 = v3 = rng.randint(ZERO, ONE)  # outside the support cone
            assignment[pi] = Triple.transition(v1, v3)
        test = TwoPatternTest(assignment)

        # The final verification simulates the full netlist: downstream
        # consumers (secondary screening, fault simulation) need codes on
        # every node, not just the cone.
        sim = self.simulator.run_triples([assignment])
        stats.simulations += 1
        self._count_sim(1, self.simulator.n_nodes)
        if not requirements.compiled().covered_by(sim)[0]:
            if covered:  # pragma: no cover - would indicate a simulator bug
                raise InternalInvariantError(
                    "monotonicity violated: covered test regressed"
                )
            return None
        return JustifyResult(test=test, sim_codes=sim[:, :, 0], stats=stats)


def has_implication_conflict(
    netlist_or_justifier: Netlist | Justifier, requirements: RequirementSet
) -> bool:
    """Paper's type-2 undetectability check via implications.

    Runs only the necessary-value fixpoint (no random decisions).  When the
    fixpoint derives a hard conflict -- some input position where both
    values contradict the requirements, or a requirement already
    contradicted -- no test can exist and the fault is undetectable.

    Pass an existing :class:`Justifier` (e.g. a session-owned one) when
    screening many faults: a bare netlist compiles a throwaway simulator
    per call.
    """
    justifier = (
        netlist_or_justifier
        if isinstance(netlist_or_justifier, Justifier)
        else Justifier(netlist_or_justifier)
    )
    state, cone = justifier._make_state(requirements)
    status = justifier._fixpoint(state, requirements, JustifyStats(), cone)
    return status == "conflict"
