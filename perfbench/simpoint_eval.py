"""``simpoint-eval``: the paper's Section 6 evaluation (Figures 11/12).

Two specs go through ``experiments.fig1112.cells_for`` on a ``Runner``
with a fresh ``ProfileCache`` and ``TraceStore`` per pass and ``jobs =
nproc`` with ``prefetch_graphs`` — what ``repro experiment fig12 --jobs
N`` does.  One operation is one spec's six cells.

The seed picks SimPoint's random seed (projection and k-means++
initialisation) from ``INPUT_CLASSES`` values, not the specs: specs
differ in cost by up to 10x (lucas 2.2 s, perlbmk 20 s on a 2-CPU host),
so a drawn spec set would move the pass time more than any change under
test.  The two specs are the cheapest, so a run holds several passes.
Cell values are checked against ``refs/simpoint.json``, made per seed
class by a serial, uncached runner.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import repro.experiments.fig1112
from repro.experiments.config import SCALED, ExperimentConfig
from repro.experiments.runner import Runner
from repro.runner.cache import ProfileCache
from repro.runner.traces import TraceStore

from perfbench.common import (
    INPUT_CLASSES,
    OUT_DIR,
    HostClock,
    Outcome,
    load_refs,
    nproc,
    repeat_passes,
)

NAME = "simpoint-eval"
IMPORTS = ("repro.experiments.fig1112", "repro.experiments.runner")

SPECS = ("lucas/ref", "mgrid/ref")

#: relative tolerance on CPI error (floats from BLAS-backed projection)
CPI_RTOL = 1e-9


@dataclass(frozen=True)
class SeededConfig(ExperimentConfig):
    """The scaled experiment configuration with SimPoint's seed set."""

    simpoint_seed: int = 2006

    def simpoint_options(self, k_max: int):
        options = super().simpoint_options(k_max)
        return dataclasses.replace(options, seed=self.simpoint_seed)


def config_for(seed: int) -> SeededConfig:
    """Seed class 0 is the paper configuration (SimPoint seed 2006)."""
    fields = {f.name: getattr(SCALED, f.name) for f in dataclasses.fields(SCALED)}
    base = SCALED.simpoint_options(1).seed
    return SeededConfig(**fields, simpoint_seed=base + seed % INPUT_CLASSES)


def cell_values(cells) -> Dict[str, list]:
    return {
        config: [c.simulated_instructions, c.cpi_error, c.num_points]
        for config, c in cells.items()
    }


def cells_match(got: list, want: list) -> bool:
    return (
        got[0] == want[0]
        and got[2] == want[2]
        and math.isclose(got[1], want[1], rel_tol=CPI_RTOL, abs_tol=1e-12)
    )


@dataclass
class State:
    specs: List[str]
    config: SeededConfig
    refs: Dict[str, Dict[str, list]]
    scratch: Path


def setup(seed: int, specs: Optional[List[str]] = None) -> State:
    specs = list(specs or SPECS)
    refs = load_refs("simpoint.json")
    if refs["input_classes"] != INPUT_CLASSES:
        raise ValueError("simpoint references were made for another class count")
    cells = refs["classes"][str(seed % INPUT_CLASSES)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="simpoint-", dir=OUT_DIR))
    return State(specs, config_for(seed), {spec: cells[spec] for spec in specs}, scratch)


def teardown(state: State) -> None:
    shutil.rmtree(state.scratch, ignore_errors=True)


def one_pass(state: State, out: Outcome, clock: HostClock) -> None:
    root = Path(tempfile.mkdtemp(dir=state.scratch))
    try:
        runner = Runner(
            config=state.config,
            cache=ProfileCache(root / "cache"),
            jobs=nproc(),
            trace_store=TraceStore(root / "traces"),
        )
        clock.probe()
        start = time.perf_counter()
        runner.prefetch_graphs([(spec, "ref") for spec in state.specs])
        raw = time.perf_counter() - start
        scaled = raw * clock.scale()
        results = {}
        for spec in state.specs:
            clock.probe()
            t = time.perf_counter()
            results[spec] = repro.experiments.fig1112.cells_for(runner, spec)
            seconds = time.perf_counter() - t
            out.record(spec, seconds * clock.scale())
            raw += seconds
            scaled += out.ops[spec][-1]
        out.end_unit(
            sum(int(runner.trace(spec).total_instructions) for spec in results),
            scaled,
            raw,
        )
        for spec, cells in results.items():
            got = cell_values(cells)
            for config, want in state.refs[spec].items():
                out.check(config in got and cells_match(got[config], want))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure(
    state: State,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
    tracer=None,
) -> Outcome:
    out = Outcome(op_label="spec evaluated (six fig11/12 cells)")
    clock = HostClock()
    out.host_scales = clock.factors
    repeat_passes(out, lambda: one_pass(state, out, clock), seconds, units)
    return out
