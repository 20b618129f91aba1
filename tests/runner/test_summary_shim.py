"""The Runner's run summary: the table the retired RunLog shim rendered,
byte for byte, from the Runner's own list of acquisitions; telemetry
gets the acquisitions only when a session is active."""

import pytest

from repro.experiments.runner import CACHE_HIT, PROFILED, WORKER, Runner
from repro.telemetry import install_telemetry, telemetry_session

#: the summary of the ``log`` fixture, as the RunLog shim rendered it
SUMMARY = """\
Run summary: call-loop profile acquisitions
--------------------------------------------------
workload   input  source                   seconds
--------------------------------------------------
gzip       ref    profiled                 1.250
gcc        166    cache                    0.002
vortex     ref    worker                   0.750
total (3)         1 cache hits / 2 misses  2.002
--------------------------------------------------"""


@pytest.fixture(autouse=True)
def _no_global_session():
    prev = install_telemetry(None)
    yield
    install_telemetry(prev)


@pytest.fixture
def log():
    runner = Runner()
    runner.acquisitions.extend(
        [
            ("gzip", "ref", PROFILED, 1.25),
            ("gcc", "166", CACHE_HIT, 0.002),
            ("vortex", "ref", WORKER, 0.75),
        ]
    )
    return runner


def _totals(runner):
    return runner.run_summary().rows[-1]


def test_counters_compat(log):
    """Profiled and worker acquisitions are both misses; the seconds
    add up over every acquisition."""
    assert _totals(log) == ["total (3)", "", "1 cache hits / 2 misses", "2.002"]


def test_profiling_skipped_all_cache():
    runner = Runner()
    runner.acquisitions.append(("gzip", "ref", CACHE_HIT, 0.0))
    assert _totals(runner)[2] == "1 cache hits / 0 misses"
    # nothing acquired: no hits either
    assert _totals(Runner()) == ["total (0)", "", "0 cache hits / 0 misses", "0.000"]


def test_summary_table_format_stable(log):
    """The exact table layout: title, columns, rows and totals row."""
    assert log.run_summary().render() == SUMMARY


def test_summary_table_cache_stats():
    class FakeCache:
        stores = 2
        invalid = 1

    runner = Runner()
    runner.cache = FakeCache()
    runner.acquisitions.append(("gzip", "ref", PROFILED, 0.5))
    text = runner.run_summary().render()
    assert "2 stored" in text
    assert "1 corrupt discarded" in text


def test_records_render_with_global_telemetry_disabled(log):
    """Summaries must not depend on the global --telemetry switch."""
    assert "gzip" in log.run_summary().render()


def test_records_forward_to_active_session():
    """An acquisition lands in the active session as a runner.acquire
    span and counters, with the seconds the summary shows."""
    with telemetry_session() as tm:
        runner = Runner()
        runner.graph("vortex/one")
    ((_, _, _, seconds),) = runner.acquisitions
    spans = [s for s in tm.spans if s.name == "runner.acquire"]
    assert len(spans) == 1
    assert spans[0].attrs == {"spec": "vortex", "which": "ref", "source": PROFILED}
    assert spans[0].seconds == pytest.approx(seconds)
    assert tm.metrics.counters["runner.acquire.profiled"] == 1
    assert tm.metrics.counters["runner.acquire.seconds"] == pytest.approx(seconds)
