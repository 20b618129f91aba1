"""Fuzzer determinism, adversarial shapes, and the shrinker."""

import json
from pathlib import Path

import pytest

import repro.verify.fuzz as fuzz_mod
from repro.verify.fuzz import (
    build_program,
    generate_spec,
    run_fuzz,
    shrink_spec,
)


def test_generate_spec_is_deterministic():
    assert generate_spec(42) == generate_spec(42)
    assert generate_spec(42) != generate_spec(43)


def test_specs_are_json_round_trippable():
    for seed in range(20):
        spec = generate_spec(seed)
        assert json.loads(json.dumps(spec)) == spec


def test_all_shapes_build_and_run():
    seen = set()
    seed = 0
    # draw seeds until every shape generator has been exercised
    while len(seen) < 5 and seed < 200:
        spec = generate_spec(seed)
        seen.add(spec["shape"])
        program, program_input = build_program(spec)
        assert program.procedures
        seed += 1
    assert seen == {
        "mutual_recursion", "loop_zoo", "fan_out", "degenerate", "mixed"
    }


def test_fan_out_shape_has_many_procs():
    spec = next(
        generate_spec(s) for s in range(300)
        if generate_spec(s)["shape"] == "fan_out"
    )
    assert len(spec["procs"]) > 100


def test_run_fuzz_smoke_clean():
    report = run_fuzz(seed=7, iters=5)
    assert report.ok, report.describe()
    assert report.programs_checked == 5


def test_run_fuzz_seed_streams_disjoint():
    # iteration i of seed s uses spec seed s*1_000_003+i: no overlap for
    # small iteration counts
    a = [generate_spec(0 * 1_000_003 + i) for i in range(5)]
    b = [generate_spec(1 * 1_000_003 + i) for i in range(5)]
    assert a != b


# -- shrinking ---------------------------------------------------------------


def _spec_with_noise():
    return {
        "seed": 1,
        "shape": "synthetic",
        "procs": [
            {
                "name": "p0",
                "body": [
                    {"op": "code", "size": 40, "loads": 4},
                    {
                        "op": "loop", "lo": 2, "hi": 6,
                        "body": [
                            {"op": "code", "size": 8, "loads": 0},
                            {"op": "call", "callee": "p1"},
                        ],
                    },
                    {
                        "op": "if", "prob": 0.5,
                        "then": [{"op": "code", "size": 3, "loads": 0}],
                        "else": [{"op": "code", "size": 2, "loads": 0}],
                    },
                ],
            },
            {"name": "p1", "body": [{"op": "code", "size": 5, "loads": 1}]},
            {"name": "unused", "body": [{"op": "code", "size": 9, "loads": 0}]},
        ],
    }


def _count_stmts(spec):
    def walk(stmts):
        total = 0
        for s in stmts:
            total += 1
            if s["op"] == "loop":
                total += walk(s["body"])
            elif s["op"] == "if":
                total += walk(s["then"]) + walk(s["else"])
        return total

    return sum(walk(p["body"]) for p in spec["procs"])


def test_shrink_removes_irrelevant_structure():
    """Predicate: 'fails whenever any loop statement exists'. The shrunk
    spec should be little more than that loop."""

    def has_loop(spec):
        return any(
            s["op"] == "loop"
            for stmts in fuzz_mod._iter_stmt_lists(spec)
            for s in stmts
        )

    shrunk = shrink_spec(_spec_with_noise(), has_loop)
    assert has_loop(shrunk)
    assert _count_stmts(shrunk) <= 2
    assert [p["name"] for p in shrunk["procs"]] == ["p0"]


def test_shrink_simplifies_scalars():
    def big_code(spec):
        return any(
            s["op"] == "code" and s["size"] >= 40
            for stmts in fuzz_mod._iter_stmt_lists(spec)
            for s in stmts
        )

    shrunk = shrink_spec(_spec_with_noise(), big_code)
    assert _count_stmts(shrunk) == 1
    # size stays >= 40 (the failure condition) but loads are zeroed and
    # everything else is gone
    (stmt,) = shrunk["procs"][0]["body"]
    assert stmt["op"] == "code" and stmt["size"] >= 40


def test_shrink_preserves_failure():
    calls = 0

    def flaky_looking(spec):
        nonlocal calls
        calls += 1
        return len(spec["procs"]) >= 2

    shrunk = shrink_spec(_spec_with_noise(), flaky_looking)
    assert len(shrunk["procs"]) == 2
    assert calls > 0


# -- failure path (planted bug) ---------------------------------------------


def test_failing_iteration_is_shrunk_and_persisted(tmp_path, monkeypatch):
    """Plant a fake mismatch for specs containing a loop and check the
    whole failure path: detection -> shrinking -> reproducer on disk."""
    from repro.verify.diff import DiffReport, Mismatch

    real_check = fuzz_mod._check_spec

    def rigged_check(spec, max_instructions, reuse_cap):
        report = real_check(spec, max_instructions, reuse_cap)
        has_loop = any(
            s["op"] == "loop"
            for stmts in fuzz_mod._iter_stmt_lists(spec)
            for s in stmts
        )
        if has_loop:
            report.mismatches.append(
                Mismatch("graph", "planted", 1, 2, "test bug")
            )
        return report

    monkeypatch.setattr(fuzz_mod, "_check_spec", rigged_check)
    # seed 0's stream contains loop-bearing specs within a few iterations
    report = run_fuzz(seed=0, iters=4, repro_dir=tmp_path)
    assert not report.ok
    failure = report.failures[0]
    assert _count_stmts(failure.shrunk) <= _count_stmts(failure.spec)
    assert failure.repro_path is not None
    data = json.loads(Path(failure.repro_path).read_text())
    assert data["spec"] == failure.shrunk
    assert "planted" in data["report"]


def test_replay_repro_roundtrip(tmp_path):
    """A persisted reproducer file re-runs through the public helper."""
    spec = generate_spec(3)
    path = tmp_path / "repro.json"
    path.write_text(json.dumps({"spec": spec, "max_instructions": 5000}))
    report = fuzz_mod.replay_repro(path)
    assert report.ok, report.describe()


def test_committed_repros_stay_fixed():
    """Any reproducer committed under tests/verify/repros/ must keep
    passing once the bug it captured is fixed."""
    repro_dir = Path(__file__).parent / "repros"
    for path in sorted(repro_dir.glob("*.json")):
        report = fuzz_mod.replay_repro(path)
        assert report.ok, f"{path.name}: {report.describe()}"


def test_check_spec_compares_the_recorder(monkeypatch):
    """A broken recorder surfaces as a trace mismatch in every fuzz
    iteration the call-depth cap did not cut short."""
    from repro.engine.machine import Machine
    from repro.engine.tracing import Trace

    real_record = Machine.record

    def broken_record(self):
        trace = real_record(self)
        c = trace.c.copy()
        c[-1] += 1
        return Trace.from_columns(trace.kinds, trace.a, trace.b, c)

    monkeypatch.setattr(Machine, "record", broken_record)
    report = fuzz_mod._check_spec(
        _spec_with_noise(),
        fuzz_mod.DEFAULT_MAX_INSTRUCTIONS,
        fuzz_mod.DEFAULT_REUSE_CAP,
    )
    assert [m.key for m in report.mismatches if m.kind == "trace"] == ["column c"]
