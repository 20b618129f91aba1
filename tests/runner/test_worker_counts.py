"""Worker-count selection: affinity-aware defaults, explicit overrides."""

import os

from repro.runner.parallel import available_cpus, default_jobs


def test_available_cpus_prefers_process_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
    assert available_cpus() == 3


def test_available_cpus_uses_affinity_mask(monkeypatch):
    """A scheduler-restricted affinity mask beats the machine CPU count."""
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 5}, raising=False
    )
    assert available_cpus() == 2
    assert default_jobs() == 2


def test_available_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert available_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1


def test_explicit_max_workers_not_clamped(monkeypatch, tmp_path):
    """Only the default is affinity-aware; an explicit worker count is
    honored even when it exceeds the available CPUs."""
    from repro.experiments.runner import Runner
    from repro.runner import TraceStore

    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    runner = Runner(jobs=2, trace_store=TraceStore(tmp_path))
    profiled = runner.prefetch_graphs([("vortex/one", "ref"), ("tomcatv/ref", "ref")])
    assert profiled == 2
    assert {a[2] for a in runner.acquisitions} == {"worker"}
