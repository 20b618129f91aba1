#!/usr/bin/env python
"""An online reconfiguration controller driven by phase markers.

Scenario: a processor that can resize its data cache wants to switch
configurations *while the program runs*, with the next configuration
staged before each phase begins.  Phase markers make this software-only:

1. markers are selected offline (here: loaded the way a deployed tool
   would, via the JSON marker file);
2. at run time a :class:`StreamingPhaseMonitor` watches the execution
   stream (here the ref run's recording, fed chunk by chunk) and fires a
   callback at every phase change;
3. the controller keeps a per-phase configuration table (explore twice,
   then lock in) and an order-1 Markov predictor to pre-stage the next
   phase's configuration.

Run:  python examples/online_reconfiguration.py
"""

import tempfile
from collections import defaultdict
from pathlib import Path

from repro import (
    Machine,
    SelectionParams,
    build_call_loop_graph,
    record_trace,
    select_markers,
)
from repro.callloop.serialization import load_markers, save_markers
from repro.runtime import MarkovPredictor
from repro.streaming import StreamingConfig, StreamingPhaseMonitor
from repro.workloads import get_workload


class CacheController:
    """Toy controller: per-phase cache size with Markov pre-staging."""

    #: pretend sizes (KB) a phase might need, assigned on first sighting
    EXPLORE_SIZE = 256

    def __init__(self):
        self.table = {}  # phase -> decided size
        self.sightings = defaultdict(int)
        self.predictor = MarkovPredictor(order=1)
        self.staged = None
        self.prestage_hits = 0
        self.reconfigurations = 0

    def on_phase_change(self, change):
        phase = change.new_phase
        # was the right configuration already staged?
        if self.staged == phase:
            self.prestage_hits += 1
        self.reconfigurations += 1
        # a phase just *ended*: we now know how long it ran, so decide
        # its configuration after two completed sightings (short phases
        # here get the small cache; a real controller would use miss
        # counts, as in benchmarks/test_bench_fig10.py)
        ended = change.previous_phase
        self.sightings[ended] += 1
        if self.sightings[ended] == 2:
            self.table[ended] = 64 if change.time_in_previous < 20_000 else 192
        # predict and pre-stage the next phase's configuration
        self.predictor.observe(phase)
        self.staged = self.predictor.predict()

    def size_for(self, phase):
        return self.table.get(phase, self.EXPLORE_SIZE)


def main() -> None:
    workload = get_workload("gzip")
    program = workload.build()

    # offline: select markers and ship them as a marker file
    graph = build_call_loop_graph(program, [workload.train_input])
    markers = select_markers(graph, SelectionParams(ilower=10_000)).markers
    marker_file = Path(tempfile.gettempdir()) / "gzip_markers.json"
    save_markers(markers, marker_file)
    print(f"shipped {len(markers)} markers (selected on train) to {marker_file}")

    # online: load the file and run the controller against the ref input
    # (drift off: the deployed markers stay fixed)
    deployed = load_markers(marker_file)
    controller = CacheController()
    monitor = StreamingPhaseMonitor(
        program, deployed, StreamingConfig(min_interval=1_000),
        on_change=controller.on_phase_change,
    )
    trace = record_trace(Machine(program, workload.ref_input))
    for chunk in trace.iter_chunks():
        monitor.feed_rows(*chunk)
    total = monitor.finish()

    print(f"\nran {total:,} instructions with {controller.reconfigurations} "
          f"phase changes")
    print(f"phases seen: {sorted(controller.sightings)}")
    print("decided configurations:")
    for phase, size in sorted(controller.table.items()):
        share = monitor.time_in_phase.get(phase, 0) / total
        print(f"  phase {phase:3d}: {size:3d}KB  ({share:5.1%} of execution)")
    rate = controller.prestage_hits / max(1, controller.reconfigurations)
    print(f"\nMarkov pre-staging hit rate: {rate:.1%} — the next phase's "
          f"configuration was usually ready before the phase began")


if __name__ == "__main__":
    main()
