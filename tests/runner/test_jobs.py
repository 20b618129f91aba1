"""Tests for the picklable profile-job entry point.

The job contract: pure, self-contained, identical results to in-process
profiling — and a *clear* error (not a pickle traceback) when a job
cannot cross the process boundary.
"""

import json

import pytest

from repro.callloop.serialization import graph_to_dict
from repro.experiments.runner import Runner
from repro.ir.program import ProgramInput
from repro.runner import (
    ProfileJob,
    UnpicklableJobError,
    ensure_picklable,
    run_profile_job,
    run_profile_jobs,
)
from repro.workloads import get_workload
from repro.workloads.base import Workload
from tests.conftest import build_toy_program

SPEC = "vortex/one"


def adhoc_workload() -> Workload:
    """A workload whose builder is a lambda — unpicklable by design."""
    return Workload(
        name="adhoc",
        category="int",
        description="test-only workload",
        builder=lambda: build_toy_program(),
        inputs={
            "train": ProgramInput("train", seed=1),
            "ref": ProgramInput("ref", seed=2),
        },
    )


def test_job_result_matches_serial_profiling():
    result = run_profile_job(ProfileJob(SPEC, "ref"))
    serial = Runner().graph(SPEC, "ref")
    assert json.dumps(result.graph_data, sort_keys=True) == json.dumps(
        graph_to_dict(serial), sort_keys=True
    )
    assert result.spec == SPEC
    assert result.which == "ref"
    assert result.seconds > 0


def test_job_resolves_named_input():
    workload = get_workload("gzip")
    assert workload.input_for("graphic") is workload.inputs["graphic"]
    assert workload.input_for("train") is workload.train_input
    assert workload.input_for("ref") is workload.ref_input


def test_unknown_spec_fails_with_registry_error():
    with pytest.raises(KeyError, match="unknown workload"):
        run_profile_job(ProfileJob("nonesuch", "ref"))


def test_unpicklable_job_raises_clear_error():
    job = ProfileJob("adhoc", "ref", workload=adhoc_workload())
    with pytest.raises(UnpicklableJobError) as excinfo:
        ensure_picklable(job)
    message = str(excinfo.value)
    assert "adhoc" in message
    assert "worker process" in message
    assert "jobs=1" in message  # the error tells the user the fix


def test_parallel_submission_rejects_unpicklable_job_up_front():
    jobs = [ProfileJob("adhoc", "ref", workload=adhoc_workload()), ProfileJob(SPEC)]
    with pytest.raises(UnpicklableJobError, match="adhoc"):
        run_profile_jobs(jobs, max_workers=2)


def test_unpicklable_workload_still_runs_inline():
    """Serial execution never pickles, so ad-hoc workloads are fine."""
    result = run_profile_job(ProfileJob("adhoc", "ref", workload=adhoc_workload()))
    assert result.graph_data["program_name"] == "toy"
    assert result.graph_data["edges"]
    # and the jobs=1 path of the fan-out API takes the same inline route
    results = run_profile_jobs(
        [ProfileJob("adhoc", "ref", workload=adhoc_workload())], max_workers=1
    )
    assert results[0].graph_data == result.graph_data
