"""Differential-oracle verification of the core algorithms.

The paper's claims rest on exact algorithmic behavior — hierarchical
edge statistics (Section 4.2), the depth-ordered two-pass marker
selection (Section 5.1), marker-driven interval splitting (Section 6.2),
and the reuse-distance baseline (Shen et al.).  As the surrounding
system grows (parallel runner, caching, telemetry), this package guards
the algorithms themselves:

* :mod:`repro.verify.oracles` — deliberately naive, obviously-correct
  re-implementations of each algorithm (full observation lists instead
  of Welford accumulators, brute-force path enumeration instead of the
  modified DFS, direct set filters instead of the streaming passes,
  O(n²) scans instead of the Fenwick tree);
* :mod:`repro.verify.diff` — runs the optimized and oracle
  implementations on the same program and reports structured
  mismatches, with tolerance rules for floating-point statistics;
* :mod:`repro.verify.fuzz` — a seeded structured-program generator
  producing adversarial shapes (deep mutual recursion, zero-iteration
  loops, 100+-way call fan-out, degenerate procedures), with automatic
  shrinking of failing programs to minimal reproducers;
* :mod:`repro.verify.golden` — the corpus pass: every bundled
  workload's ``train`` run, recorded and profiled once, checked against
  its committed golden document under ``tests/golden/`` (serialized
  graph + expected marker selections), by the streaming-vs-batch
  equivalence check, and by the split equivalence check on its plain
  and max-limit marker sets (both of which also ride every fuzz
  iteration).

Entry points: ``repro verify`` (CLI), ``make verify`` (corpus pass +
fuzz smoke), ``make verify-fuzz FUZZ_ITERS=N`` (long fuzz loop, no
corpus pass).  The oracle contract and triage procedure are documented
in ``docs/VERIFICATION.md``.
"""

from repro.verify.diff import (
    DiffReport,
    Mismatch,
    diff_depths,
    diff_graphs,
    diff_reuse,
    diff_selection,
    diff_split,
    diff_streaming,
    diff_trace_pipeline,
    verify_program,
)
from repro.verify.fuzz import (
    FuzzFailure,
    FuzzReport,
    build_program,
    generate_spec,
    run_fuzz,
    shrink_spec,
)
from repro.verify.golden import (
    GOLDEN_FORMAT_VERSION,
    check_corpus,
    compute_golden_entry,
    default_golden_dir,
    diff_golden,
    write_golden_corpus,
)
from repro.verify.oracles import (
    OracleGraph,
    oracle_call_loop_graph,
    oracle_estimate_depth,
    oracle_longest_path_depths,
    oracle_processing_order,
    oracle_reuse_distances,
    oracle_reuse_histogram,
    oracle_select_markers,
)

__all__ = [
    "DiffReport",
    "Mismatch",
    "diff_depths",
    "diff_graphs",
    "diff_reuse",
    "diff_selection",
    "diff_split",
    "diff_streaming",
    "diff_trace_pipeline",
    "verify_program",
    "FuzzFailure",
    "FuzzReport",
    "build_program",
    "generate_spec",
    "run_fuzz",
    "shrink_spec",
    "GOLDEN_FORMAT_VERSION",
    "check_corpus",
    "compute_golden_entry",
    "default_golden_dir",
    "diff_golden",
    "write_golden_corpus",
    "OracleGraph",
    "oracle_call_loop_graph",
    "oracle_estimate_depth",
    "oracle_longest_path_depths",
    "oracle_processing_order",
    "oracle_reuse_distances",
    "oracle_reuse_histogram",
    "oracle_select_markers",
]
