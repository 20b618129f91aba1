"""The interpreter: runs an IR program on an input, yielding events.

The machine is deliberately simple — programs are structured, so execution
is a walk of the statement tree — but the *events it emits* are faithful to
what binary instrumentation sees:

* every block execution carries the block's address and size;
* every loop iteration ends with the latch's conditional branch, whose
  target is the loop header — a *backwards branch*, which is how the
  call-loop profiler discovers loops (paper Section 4.2);
* calls and returns bracket callee execution.

Determinism: all data-dependent control flow (trip counts, branch
outcomes, switch dispatch) is sampled from a generator seeded by the
input, so identical (program, input) pairs yield identical traces.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.engine.events import BlockEvent, BranchEvent, CallEvent, ReturnEvent
from repro.engine.rng import make_rng
from repro.ir.program import (
    BasicBlock,
    BlockStmt,
    CallStmt,
    IfStmt,
    LoopStmt,
    Program,
    ProgramInput,
    Stmt,
    SwitchStmt,
)

#: assumed gap between a forward branch and its target (address modeling
#: for if/switch branches; exact values only matter to the predictor's
#: table indexing, not to loop discovery)
_FORWARD_BRANCH_SPAN = 8


class ExecutionLimitExceeded(Exception):
    """Raised when a run would exceed the configured instruction limit."""


class _StopRun(Exception):
    """Internal: unwind the interpreter when the soft cap is reached."""


class Machine:
    """Interprets a program for one input.

    Parameters
    ----------
    program:
        The program to run.
    program_input:
        Parameters and seed for this run.
    max_instructions:
        Optional cap.  With ``strict=False`` (default) the run stops
        cleanly once the cap is crossed; with ``strict=True`` it raises
        :class:`ExecutionLimitExceeded`.
    """

    def __init__(
        self,
        program: Program,
        program_input: ProgramInput,
        max_instructions: Optional[int] = None,
        strict: bool = False,
    ):
        self.program = program
        self.input = program_input
        self.max_instructions = max_instructions
        self.strict = strict
        self.instructions_executed = 0
        #: loop entries of the last record(), by recorder path
        self.loop_entries: Dict[str, int] = {}
        #: its per-iteration entries, by the reason the loop took that path
        self.per_iteration: Dict[str, int] = {}
        self._rng: Optional[np.random.Generator] = None
        self._recorder = None

    # -- public API -----------------------------------------------------------

    def run(self) -> Iterator[object]:
        """Yield the run's events in order."""
        self.instructions_executed = 0
        # Control-flow randomness depends only on (input name, seed), not on
        # the binary variant: two compilations of the same source make the
        # same data-dependent decisions on the same input.
        self._rng = make_rng(self.input.seed, "control", self.input.name)
        try:
            yield from self._run_body(
                self.program.procedures[self.program.entry].body, self.input.params
            )
        except _StopRun:
            if self.strict:
                raise self._limit_error()

    def record(self):
        """Run and record straight into a row-id Trace (the fast path).

        Compiles the program once per machine into row-id templates
        (:mod:`repro.engine.recorder`).  The trace and
        ``instructions_executed`` equal ``run()``'s, the reference the
        ``trace-pipeline`` verify check holds it to.
        """
        from repro.engine.recorder import Recorder

        if self._recorder is None:
            self._recorder = Recorder(
                self.program, self.input.params, self.max_instructions
            )
        # same stream as run(): identical control-flow decisions
        trace, self.instructions_executed, crossed = self._recorder.record(
            make_rng(self.input.seed, "control", self.input.name)
        )
        self.loop_entries = self._recorder.loop_entries
        self.per_iteration = self._recorder.per_iteration
        if crossed and self.strict:
            raise self._limit_error()
        return trace

    def _limit_error(self) -> ExecutionLimitExceeded:
        return ExecutionLimitExceeded(
            f"{self.program.name}/{self.input.name}: exceeded "
            f"{self.max_instructions} instructions"
        )

    # -- interpreter -------------------------------------------------------

    def _exec_block(self, block: BasicBlock) -> BlockEvent:
        self.instructions_executed += block.size
        if (
            self.max_instructions is not None
            and self.instructions_executed > self.max_instructions
        ):
            raise _StopRun()
        return BlockEvent(block.block_id, block.address, block.size)

    def _run_body(self, stmts: List[Stmt], params) -> Iterator[object]:
        rng = self._rng
        for stmt in stmts:
            if isinstance(stmt, BlockStmt):
                yield self._exec_block(stmt.block)
            elif isinstance(stmt, LoopStmt):
                trips = stmt.trips.sample(params, rng)
                header = stmt.header_block
                latch = stmt.latch_block
                back_src = latch.end_address
                back_dst = header.address
                for i in range(trips):
                    yield self._exec_block(header)
                    yield from self._run_body(stmt.body, params)
                    yield self._exec_block(latch)
                    yield BranchEvent(back_src, back_dst, i + 1 < trips)
            elif isinstance(stmt, CallStmt):
                site = stmt.site_block
                yield self._exec_block(site)
                callee = self.program.procedures[stmt.callee]
                yield CallEvent(site.end_address, callee.proc_id)
                yield from self._run_body(callee.body, params)
                yield ReturnEvent(callee.proc_id)
            elif isinstance(stmt, IfStmt):
                cond = stmt.cond_block
                yield self._exec_block(cond)
                take_then = rng.random() < stmt.prob.value(params)
                # Convention: the branch is *taken* when it jumps over the
                # then-side (i.e. the else path executes).
                yield BranchEvent(
                    cond.end_address,
                    cond.end_address + _FORWARD_BRANCH_SPAN,
                    not take_then,
                )
                if take_then:
                    yield from self._run_body(stmt.then_body, params)
                else:
                    yield from self._run_body(stmt.else_body, params)
            elif isinstance(stmt, SwitchStmt):
                cond = stmt.cond_block
                yield self._exec_block(cond)
                weights = np.asarray(stmt.weights, dtype=float)
                probs = weights / weights.sum()
                case_idx = int(rng.choice(len(stmt.cases), p=probs))
                yield BranchEvent(
                    cond.end_address,
                    cond.end_address + _FORWARD_BRANCH_SPAN * (case_idx + 1),
                    case_idx != 0,
                )
                yield from self._run_body(stmt.cases[case_idx], params)
            else:  # pragma: no cover - exhaustive over Stmt subclasses
                raise TypeError(f"unknown statement {type(stmt).__name__}")


def run_program(
    program: Program,
    program_input: ProgramInput,
    max_instructions: Optional[int] = None,
) -> Iterator[object]:
    """Convenience wrapper: iterate a fresh Machine's events."""
    return Machine(program, program_input, max_instructions=max_instructions).run()
