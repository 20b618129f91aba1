"""The committed golden corpus matches a from-scratch recompute, and
the corpus pass checks each workload from one recording."""

import json
from collections import Counter

from repro.telemetry import telemetry_session
from repro.verify.golden import (
    check_corpus,
    compute_golden_entry,
    default_golden_dir,
    diff_golden,
    write_golden_corpus,
)
from repro.workloads import all_workloads


def test_default_dir_is_committed_corpus():
    golden = default_golden_dir()
    assert golden.name == "golden"
    assert golden.is_dir(), "tests/golden/ must be committed"


def test_corpus_covers_every_bundled_workload():
    names = {w.name for w in all_workloads()}
    files = {p.stem for p in default_golden_dir().glob("*.json")}
    assert files == names


def test_committed_corpus_matches_recompute():
    """The regression check itself: profiling + depth + selection today
    must equal the committed documents exactly (documents only: the
    corpus pass's streaming and split checks are tested below)."""
    for workload in all_workloads():
        mismatches = diff_golden(workload.name, compute_golden_entry(workload.name))
        assert mismatches == [], [m.describe() for m in mismatches]


def test_entry_is_deterministic():
    assert compute_golden_entry("gzip") == compute_golden_entry("gzip")


def test_missing_entry_reported(tmp_path):
    mismatches = diff_golden("gzip", compute_golden_entry("gzip"), tmp_path)
    assert [(m.kind, m.key, m.oracle) for m in mismatches] == [
        ("golden", "gzip", "missing")
    ]
    assert "--refresh-golden" in mismatches[0].describe()


def test_stale_entry_reported_with_detail(tmp_path):
    write_golden_corpus(tmp_path, workloads=["gzip"])
    path = tmp_path / "gzip.json"
    doc = json.loads(path.read_text())
    doc["graph"]["total_instructions"] += 1
    path.write_text(json.dumps(doc))
    mismatches = diff_golden("gzip", compute_golden_entry("gzip"), tmp_path)
    assert [m.key for m in mismatches] == ["gzip $.graph.total_instructions"]
    (stale,) = mismatches
    assert stale.kind == "golden"
    assert stale.oracle == stale.optimized + 1


def test_corpus_pass_records_and_profiles_once():
    """One recording and one profile per workload serve all three
    checks, and the split is answered from the span index."""
    with telemetry_session() as tm:
        report = check_corpus(workloads=["gzip"])
    assert report.ok, report.describe()
    assert report.checks_run == ["golden", "streaming", "split (1 via span index)"]
    assert report.describe() == (
        "1 corpus workload(s): OK (golden, streaming, split (1 via span index))"
    )
    spans = Counter(s.name for s in tm.spans)
    assert spans["engine.record_trace"] == 1
    assert spans["callloop.profile_trace"] == 1


def test_refresh_writes_loadable_graphs(tmp_path):
    from repro.callloop.serialization import graph_from_dict

    write_golden_corpus(tmp_path, workloads=["mcf"])
    doc = json.loads((tmp_path / "mcf.json").read_text())
    graph = graph_from_dict(doc["graph"])
    assert graph.num_edges > 0
    assert doc["selections"]["default"]["markers"] is not None
    assert doc["selections"]["procs_only"] is not None
    assert "<root>" in doc["processing_order"]  # deepest nodes come first
