"""Extension experiments beyond the paper's figures.

Two quantitative follow-ups the paper sketches but does not evaluate:

* **Cross-binary simulation points** (Section 6.2.1's "current and future
  research"): simulation points chosen on the base binary, located on the
  -O0 and peak builds via marker firing indices, and *scored there* — the
  CPI of the recompiled binary estimated from the transferred points.
* **Next-phase prediction** (the dynamic-reconfiguration companion):
  last-phase vs order-1/2 Markov prediction accuracy over each
  workload's marker phase sequence.  Programs with alternating phases
  (gzip) defeat last-phase prediction but are trivial for Markov — the
  property that makes marker-driven reconfiguration practical.
"""

from __future__ import annotations

from typing import List, Optional

from repro.callloop import map_markers, marker_trace
from repro.experiments.runner import Runner, default_runner
from repro.intervals.metrics import attach_metrics
from repro.intervals.vli import split_at_markers
from repro.ir.linker import ALPHA_O0, ALPHA_PEAK
from repro.runtime import LastPhasePredictor, MarkovPredictor, PhaseMonitor, evaluate_predictor
from repro.simpoint.error import (
    filter_by_coverage,
    relative_error,
    true_weighted_metric,
)
from repro.simpoint.simpoint import SimPointOptions, run_simpoint_on_intervals
from repro.simpoint.xbin import (
    estimate_from_located,
    locate_points,
    specs_from_selection,
    validate_transfer,
)
from repro.util.tables import Table
from repro.workloads import SPEC_EVALUATION_SET

XBIN_SPECS = [
    "gzip/graphic",
    "mgrid/ref",
    "lucas/ref",
    "bzip2/graphic",
    "art/110",
]


def run_xbin_points(runner: Optional[Runner] = None) -> Table:
    """Cross-binary simulation points: CPI error on recompiled binaries."""
    runner = runner or default_runner()
    table = Table(
        "Extension: cross-binary simulation points "
        "(points chosen on base; CPI error when located+measured on each build)",
        ["workload", "points", "base error (%)", "-O0 error (%)", "peak error (%)"],
        digits=2,
    )
    for spec in XBIN_SPECS:
        base = runner.program(spec)
        ref = runner.input_for(spec, "ref")
        markers = runner.markers(spec, "limit")
        intervals, _ = runner.vli_intervals(spec, "limit")
        result = run_simpoint_on_intervals(
            intervals,
            SimPointOptions(k_max=runner.config.vli_k_max),
            weighted=True,
        )
        coverage = filter_by_coverage(result, intervals, 1.0)
        firings = marker_trace(base, ref, markers, trace=runner.trace(spec))
        specs_b = specs_from_selection(intervals, firings, coverage)

        errors = []
        # base binary first (sanity: locating on the source binary)
        base_located = locate_points(
            specs_b, firings, runner.trace(spec).total_instructions
        )
        true_cpi = true_weighted_metric(intervals, intervals.cpis)
        errors.append(
            relative_error(
                estimate_from_located(base_located, intervals, intervals.cpis),
                true_cpi,
            )
        )
        for variant in (ALPHA_O0, ALPHA_PEAK):
            target = runner.program(spec, variant)
            target_markers = map_markers(markers, target).markers
            target_trace = runner.trace(spec, variant=variant)
            target_firings = marker_trace(
                target, ref, target_markers, trace=target_trace
            )
            assert validate_transfer(firings, target_firings)
            located = locate_points(
                specs_b, target_firings, target_trace.total_instructions
            )
            target_intervals = split_at_markers(target, target_trace, target_markers)
            attach_metrics(target_intervals, target_trace, target, ref)
            estimate = estimate_from_located(
                located, target_intervals, target_intervals.cpis
            )
            true = true_weighted_metric(target_intervals, target_intervals.cpis)
            errors.append(relative_error(estimate, true))
        table.add_row(
            [spec, len(specs_b)] + [e * 100.0 for e in errors]
        )
    return table


def run_prediction(
    runner: Optional[Runner] = None, specs: List[str] = SPEC_EVALUATION_SET
) -> Table:
    """Next-phase prediction accuracy over marker phase sequences."""
    runner = runner or default_runner()
    table = Table(
        "Extension: next-phase prediction accuracy at phase transitions (%)",
        ["workload", "changes", "last phase", "Markov-1", "Markov-2"],
        digits=1,
    )
    for spec in specs:
        monitor = PhaseMonitor(
            runner.program(spec),
            runner.markers(spec, "nolimit-self"),
            min_interval=runner.config.ilower // 10,
        )
        # the ref trace the markers were profiled on
        monitor.run(runner.trace(spec))
        seq = monitor.phase_sequence
        row = [spec, len(monitor.changes)]
        for predictor in (LastPhasePredictor(), MarkovPredictor(1), MarkovPredictor(2)):
            row.append(evaluate_predictor(seq, predictor).accuracy * 100.0)
        table.add_row(row)
    return table


HARDWARE_BBV_SPECS = [
    "swim/ref",
    "tomcatv/ref",
    "applu/ref",
    "gzip/graphic",
    "mgrid/ref",
]


def run_hardware_bbv(runner: Optional[Runner] = None) -> Table:
    """Verify the paper's approximation: "ideal SimPoint ... is a good
    approximation to the hardware BBV phase classification approach
    [26, 17] with perfect next-phase prediction."

    Both classifiers label the same fixed intervals; the table compares
    phase counts, within-phase CoV of CPI, and the adaptive cache size
    each classification yields under the Figure 10 protocol.
    """
    from repro.analysis.cov import phase_cov
    from repro.cache.reconfig import adaptive_average_size
    from repro.experiments.fig10 import TOLERANCE
    from repro.simpoint.online import classify_intervals_online

    runner = runner or default_runner()
    table = Table(
        "Extension: ideal SimPoint vs hardware-style online BBV classifier",
        [
            "workload",
            "phases (SimPoint)",
            "phases (online)",
            "CoV CPI (SimPoint)",
            "CoV CPI (online)",
            "cache KB (SimPoint)",
            "cache KB (online)",
        ],
        digits=3,
    )
    for spec in HARDWARE_BBV_SPECS:
        intervals, profile = runner.fixed_intervals(spec, runner.config.bbv_interval)
        offline = run_simpoint_on_intervals(
            intervals,
            runner.config.simpoint_options(runner.config.bbv_k_max),
            weighted=False,
        )
        offline_set = intervals.with_phase_ids(offline.phase_ids)
        online_set = classify_intervals_online(intervals)

        def cache_kb(classified):
            return adaptive_average_size(
                classified.phase_ids,
                classified.lengths,
                profile.accesses,
                profile.hits,
                tolerance=TOLERANCE,
            ).avg_size_kb

        table.add_row(
            [
                spec,
                offline_set.num_phases,
                online_set.num_phases,
                phase_cov(offline_set).overall,
                phase_cov(online_set).overall,
                cache_kb(offline_set),
                cache_kb(online_set),
            ]
        )
    return table


DETECTION_SPECS = ["gzip/graphic", "swim/ref", "bzip2/graphic", "mgrid/ref", "art/110"]


def run_detection_comparison(runner: Optional[Runner] = None) -> Table:
    """Phase-change *detection* agreement across the three detector
    families of the related work (Dhodapkar & Smith [5] ran this very
    comparison): software phase markers (the boundaries), working-set
    signatures, and BBV-signature distance.

    Marker firings define the reference boundaries; the other detectors
    run causally over fixed intervals and are scored by precision /
    recall within one interval of a marker boundary.
    """
    import numpy as np

    from repro.simpoint.online import OnlineClassifierOptions, classify_online
    from repro.simpoint.working_set import (
        WorkingSetOptions,
        boundary_agreement,
        detect_on_intervals,
    )

    runner = runner or default_runner()
    table = Table(
        "Extension: phase-change detection vs marker boundaries "
        "(precision/recall within one interval)",
        ["workload", "marker bounds", "wset P", "wset R", "wset F1",
         "bbv P", "bbv R", "bbv F1"],
        digits=2,
    )
    for spec in DETECTION_SPECS:
        vli, _ = runner.vli_intervals(spec, "nolimit-self")
        reference_ts = vli.start_ts[1:]  # marker boundaries
        fixed, _ = runner.fixed_intervals(spec, runner.config.bbv_interval)
        tolerance = runner.config.bbv_interval

        wset = detect_on_intervals(fixed, WorkingSetOptions(threshold=0.3))
        wset_ts = fixed.start_ts[wset.change_points]

        online = classify_online(fixed.bbvs, OnlineClassifierOptions())
        changes = np.nonzero(np.diff(online.phase_ids) != 0)[0] + 1
        bbv_ts = fixed.start_ts[changes]

        wp, wr, wf = boundary_agreement(wset_ts, reference_ts, tolerance)
        bp, br, bf = boundary_agreement(bbv_ts, reference_ts, tolerance)
        table.add_row(
            [spec, len(reference_ts), wp, wr, wf, bp, br, bf]
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run_xbin_points().render())
    print()
    print(run_prediction().render())
    print()
    print(run_hardware_bbv().render())
    print()
    print(run_detection_comparison().render())
