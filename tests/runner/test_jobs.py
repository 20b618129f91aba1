"""Tests for the picklable profile-job entry point.

The job contract: pure, self-contained, identical results to in-process
profiling, and a registry error for a spec the registry does not name.
"""

import json

import pytest

from repro.callloop.serialization import graph_to_dict
from repro.experiments.runner import Runner
from repro.runner import ProfileJob, run_profile_job
from repro.workloads import get_workload

SPEC = "vortex/one"


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
