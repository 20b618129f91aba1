"""Integration test of the package's top-level public API."""

import numpy as np

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__


def test_quickstart_pipeline_records_once():
    """The pipeline profiles and splits one recording of the run."""
    from repro.telemetry import telemetry_session

    with telemetry_session() as tm:
        repro.quickstart_pipeline("vortex")
    assert [s.name for s in tm.spans].count("engine.record_trace") == 1


def test_quickstart_pipeline():
    markers, intervals = repro.quickstart_pipeline("vortex")
    assert len(markers) >= 1
    assert len(intervals) >= 2
    assert intervals.cpis is not None
    intervals.check_partition(intervals.total_instructions)
    # phase homogeneity beats whole-program variability
    from repro.analysis import phase_cov, whole_program_cov

    assert phase_cov(intervals).overall <= whole_program_cov(intervals) + 1e-9
