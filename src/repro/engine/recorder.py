"""Row-template recorder: the compiled fast path behind ``Machine.record``.

Every trace row is one of a program's fixed set of *static rows* (a
block, a taken or exiting back-edge, an arm's branch, a call, a return),
so a run is a sequence of *row ids*.  The recorder compiles each
statement list once per machine into maximal straight-line *runs* of
ids (calls into procedures that draw no randomness are inlined),
records ids only, and returns them as the
:class:`~repro.engine.tracing.Trace` with its static row table.  A loop
entry takes one of three paths:

* **tiled** — a straight-line body: the iteration template repeated
  ``trips`` times;
* **drawn** — straight-line runs around exactly one ``if``/``switch``
  whose arms are straight-line: all ``trips`` decisions come from one
  ``rng.random(trips)`` (the same values and generator end state as
  ``trips`` scalar draws), and the per-arm iteration templates are
  gathered with one ``repeat`` + ``take``;
* **per-iteration** — any other body, interpreted over its compiled
  ops; a single-branch body emits a straight-line arm's whole iteration
  at once and interprets only arms that draw more randomness.  Why a
  loop takes this path is fixed at compile time, one of
  :data:`PER_ITERATION_REASONS`: its body holds a loop, a call into a
  procedure that draws randomness, or a second ``if``/``switch`` (the
  first such statement decides), or its one branch has an arm that
  draws.

Randomness is drawn in ``Machine.run``'s order, and the instruction cap
stops at the same block: on crossing, the recorder emits the rows
before the crossing block, counts that block, and stops.
``Machine.run`` stays the reference this is checked against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro.engine.events import K_BLOCK, K_BRANCH, K_CALL, K_RETURN
from repro.engine.machine import _FORWARD_BRANCH_SPAN
from repro.engine.tracing import Trace, id_dtype
from repro.ir.program import BlockStmt, CallStmt, IfStmt, LoopStmt, SwitchStmt

# op tags; an op is a tuple whose first element is its tag
_RUN, _BRANCH, _CALL, _LOOP, _TILE, _DRAWN, _BRANCHY = range(7)

#: loop-entry paths, the keys of :attr:`Recorder.loop_entries`
LOOP_PATHS = ("tiled", "drawn", "per_iteration")

#: why a loop is interpreted per iteration, the keys of
#: :attr:`Recorder.per_iteration`: its body holds a loop, a call into a
#: procedure that draws, or a second if/switch; or an arm of its one
#: branch draws
PER_ITERATION_REASONS = ("nested_loop", "drawing_call", "second_branch", "drawing_arm")

#: the recorded id stream's element type; the trace narrows it to
#: int16 when the table allows
_ID_TYPECODE, _ID_DTYPE = "i", np.int32


def _ids(*rows: int) -> array:
    """A row-id sequence."""
    return array(_ID_TYPECODE, rows)


class _CapCrossed(Exception):
    """A block crossed the instruction cap; ``args[0]`` is the final count."""


class Recorder:
    """One program's statement trees compiled to row-id templates."""

    def __init__(self, program, params, max_instructions: Optional[int]):
        self.program = program
        self.params = params
        self.cap = float("inf") if max_instructions is None else max_instructions
        self.rows: Dict[tuple, int] = {}  #: static row (kind, a, b, c) -> id
        self.sizes: List[int] = []  #: instructions per row id
        self._flat: Dict[str, Optional[array]] = {}  # straight-line proc bodies
        self._procs: Dict[str, list] = {}  # compiled proc bodies
        self.entry = self._proc(program.entry)

    def record(self, rng: np.random.Generator):
        """Record one run: ``(trace, instructions executed, cap crossed)``."""
        self.rng = rng
        self.out = _ids()
        self.loop_entries = dict.fromkeys(LOOP_PATHS, 0)
        self.per_iteration = dict.fromkeys(PER_ITERATION_REASONS, 0)
        try:
            executed, crossed = self._exec(self.entry, 0), False
        except _CapCrossed as stop:
            executed, crossed = stop.args[0], True
        table = np.array(list(self.rows), dtype=np.int64).reshape(-1, 4)
        ids = np.frombuffer(self.out, dtype=_ID_DTYPE).astype(id_dtype(len(table)))
        self.out = None
        return Trace(ids, table), executed, crossed

    # -- compiling ---------------------------------------------------------

    def _row(self, kind: int, a: int, b: int = 0, c: int = 0, size: int = 0) -> int:
        rid = self.rows.setdefault((kind, a, b, c), len(self.sizes))
        if rid == len(self.sizes):
            self.sizes.append(size)
        return rid

    def _block(self, block) -> int:
        size = block.size
        return self._row(K_BLOCK, block.block_id, block.address, size, size)

    def _instr(self, ids) -> int:
        return sum(map(self.sizes.__getitem__, ids))

    def _call(self, stmt):
        """``(site + call rows, return row, callee)`` of a call statement."""
        callee = self.program.procedures[stmt.callee]
        site = stmt.site_block
        head = _ids(self._block(site), self._row(K_CALL, site.end_address, callee.proc_id))
        return head, self._row(K_RETURN, callee.proc_id), callee

    def _flat_stmt(self, stmt) -> Optional[array]:
        """The fixed rows of a block or of a call into a straight-line
        procedure; None for anything that draws randomness."""
        if isinstance(stmt, BlockStmt):
            return _ids(self._block(stmt.block))
        if not isinstance(stmt, CallStmt):
            return None
        head, ret, callee = self._call(stmt)
        if callee.name not in self._flat:
            # a procedure reaching itself unconditionally is not straight-line
            self._flat[callee.name] = None
            self._flat[callee.name] = self._straight(callee.body)
        body = self._flat[callee.name]
        return None if body is None else head + body + _ids(ret)

    def _straight(self, stmts) -> Optional[array]:
        """The fixed rows of *stmts* if they draw no randomness, else None."""
        ids = _ids()
        for stmt in stmts:
            flat = self._flat_stmt(stmt)
            if flat is None:
                return None
            ids += flat
        return ids

    def _proc(self, name: str) -> list:
        """A procedure body's ops, filled in place so recursion resolves."""
        ops = self._procs.get(name)
        if ops is None:
            ops = self._procs[name] = []
            ops += self._compile(self.program.procedures[name].body)
        return ops

    def _compile(self, stmts, head=(), tail=()) -> list:
        """Ops for *stmts* framed by *head*/*tail* rows: maximal runs of
        static rows between the ops that draw randomness."""
        ops, run = [], _ids(*head)

        def flush() -> None:
            if run:
                ops.append((_RUN, run[:], self._instr(run)))
                del run[:]

        for stmt in stmts:
            flat = self._flat_stmt(stmt)
            if flat is not None:
                run += flat
            elif isinstance(stmt, CallStmt):
                call, ret, callee = self._call(stmt)
                run += call
                flush()
                ops.append((_CALL, self._proc(callee.name)))
                run.append(ret)
            elif isinstance(stmt, LoopStmt):
                flush()
                ops.append(self._loop(stmt))
            else:
                cond, cdf, arms = self._branch(stmt)
                run.append(cond)
                flush()
                ops.append((_BRANCH, cdf, [self._compile(body, [br]) for br, body in arms]))
        run += _ids(*tail)
        flush()
        return ops

    def _branch(self, stmt):
        """``(cond row, cdf, [(branch row, arm body)])`` of an if/switch.

        A draw ``u`` picks arm ``bisect_right(cdf, u)``.  For an ``if``
        that is ``u < p`` (then) versus not (else); for a ``switch`` it
        is ``rng.choice``'s own sampling — normalized cdf, one uniform,
        right-sided search — so one ``random()`` draws the value
        ``choice`` would.
        """
        end = stmt.cond_block.end_address
        if isinstance(stmt, IfStmt):
            cdf = [float(stmt.prob.value(self.params))]
            # taken == jumping over the then-side (see Machine.run)
            arms = [(stmt.then_body, 1, 0), (stmt.else_body, 1, 1)]
        else:
            weights = np.asarray(stmt.weights, dtype=float)
            cdf = (weights / weights.sum()).cumsum()
            cdf /= cdf[-1]
            cdf = cdf.tolist()
            arms = [(body, k + 1, int(k != 0)) for k, body in enumerate(stmt.cases)]
        return self._block(stmt.cond_block), cdf, [
            (self._row(K_BRANCH, end, end + _FORWARD_BRANCH_SPAN * k, taken), body)
            for body, k, taken in arms
        ]

    def _loop(self, stmt: LoopStmt) -> tuple:
        header, latch = stmt.header_block, stmt.latch_block
        first = _ids(self._block(header))
        last = _ids(self._block(latch), self._row(K_BRANCH, latch.end_address, header.address, 1))
        exit_row = self._row(K_BRANCH, latch.end_address, header.address, 0)
        flat = self._straight(stmt.body)
        if flat is not None:
            tmpl = first + flat + last
            return (_TILE, stmt.trips, tmpl, self._instr(tmpl), exit_row)
        pre, branch, post = _ids(), None, _ids()
        for s in stmt.body:
            flat = self._flat_stmt(s)
            if flat is not None:
                (pre if branch is None else post).extend(flat)
            elif branch is None and isinstance(s, (IfStmt, SwitchStmt)):
                branch = s
            else:
                reason = (
                    "nested_loop" if isinstance(s, LoopStmt)
                    else "drawing_call" if isinstance(s, CallStmt)
                    else "second_branch"
                )
                body = self._compile(stmt.body, first, last)
                return (_LOOP, stmt.trips, body, exit_row, reason)
        # a body without a branch is straight-line and tiled above
        cond, cdf, arms = self._branch(branch)
        pre = first + pre + _ids(cond)
        post += last
        flats = [self._straight(body) for _, body in arms]
        if all(f is not None for f in flats):
            tmpls = [pre + _ids(br) + f + post for (br, _), f in zip(arms, flats)]
            lens = np.array([len(t) for t in tmpls], dtype=np.int64)
            return (
                _DRAWN, stmt.trips, np.array(cdf), tmpls,
                np.concatenate([np.frombuffer(t, dtype=_ID_DTYPE) for t in tmpls]),
                lens.cumsum() - lens, lens,
                np.array([self._instr(t) for t in tmpls], dtype=np.int64), exit_row,
            )
        arm_ops = []
        for (br, body), f in zip(arms, flats):
            if f is not None:
                ids = pre + _ids(br) + f + post
                arm_ops.append((ids, self._instr(ids), None, None, 0))
            else:
                ids = pre + _ids(br)
                arm_ops.append((ids, self._instr(ids), self._compile(body), post, self._instr(post)))
        return (_BRANCHY, stmt.trips, cdf, arm_ops, exit_row)

    # -- recording ---------------------------------------------------------

    def _cross(self, ids, n: int) -> None:
        """Emit *ids* up to the block that crosses the cap, count it, stop."""
        sizes, cap = self.sizes, self.cap
        for i, rid in enumerate(ids):
            n += sizes[rid]
            if n > cap:
                self.out += ids[:i]
                raise _CapCrossed(n)
        raise AssertionError("no row of the run crosses the cap")

    def _exec(self, ops: list, n: int) -> int:
        """Record *ops* after *n* executed instructions; returns the count."""
        out, cap = self.out, self.cap
        for op in ops:
            tag = op[0]
            if tag == _RUN:
                if n + op[2] > cap:
                    self._cross(op[1], n)
                out += op[1]
                n += op[2]
            elif tag == _BRANCH:
                n = self._exec(op[2][bisect_right(op[1], self.rng.random())], n)
            elif tag == _CALL:
                n = self._exec(op[1], n)
            elif tag == _LOOP:
                self.loop_entries["per_iteration"] += 1
                self.per_iteration[op[4]] += 1
                trips = op[1].sample(self.params, self.rng)
                for _ in range(trips):
                    n = self._exec(op[2], n)
                if trips > 0:
                    out[-1] = op[3]  # the final back-edge falls through
            elif tag == _TILE:
                n = self._tile(op, n)
            elif tag == _DRAWN:
                n = self._drawn(op, n)
            else:
                n = self._branchy(op, n)
        return n

    def _tile(self, op: tuple, n: int) -> int:
        _, trips_model, tmpl, per, exit_row = op
        self.loop_entries["tiled"] += 1
        trips = trips_model.sample(self.params, self.rng)
        if trips <= 0:
            return n
        if n + per * trips > self.cap:
            full = max(0, int(self.cap - n) // per) if per else 0
            self.out += tmpl * full
            self._cross(tmpl, n + per * full)
        self.out += tmpl * trips
        self.out[-1] = exit_row
        return n + per * trips

    def _drawn(self, op: tuple, n: int) -> int:
        _, trips_model, cdf, tmpls, flat, starts, lens, instr, exit_row = op
        self.loop_entries["drawn"] += 1
        trips = trips_model.sample(self.params, self.rng)
        if trips <= 0:
            return n
        arm = cdf.searchsorted(self.rng.random(trips), side="right")
        cum = instr[arm].cumsum()
        total = int(cum[-1])

        def gather(arm: np.ndarray) -> None:
            if len(arm):
                arm_lens = lens[arm]
                ends = arm_lens.cumsum()
                idx = np.repeat(starts[arm] - ends + arm_lens, arm_lens)
                idx += np.arange(ends[-1])
                self.out.frombytes(flat.take(idx).tobytes())

        if n + total > self.cap:
            it = int(cum.searchsorted(self.cap - n, side="right"))
            gather(arm[:it])
            self._cross(tmpls[arm[it]], n + (int(cum[it - 1]) if it else 0))
        gather(arm)
        self.out[-1] = exit_row
        return n + total

    def _branchy(self, op: tuple, n: int) -> int:
        _, trips_model, cdf, arms, exit_row = op
        self.loop_entries["per_iteration"] += 1
        self.per_iteration["drawing_arm"] += 1
        out, cap, rng = self.out, self.cap, self.rng
        random = rng.random
        trips = trips_model.sample(self.params, rng)
        for _ in range(trips):
            ids, size, ops, post, post_size = arms[bisect_right(cdf, random())]
            if n + size > cap:
                self._cross(ids, n)
            out += ids
            n += size
            if ops is not None:
                n = self._exec(ops, n)
                if n + post_size > cap:
                    self._cross(post, n)
                out += post
                n += post_size
        if trips > 0:
            out[-1] = exit_row
        return n
