"""``serve-mixed``: ``repro serve`` under open-loop load with warm stores.

Setup warms the profile cache and trace store, computes the expected
payload of every query, starts ``PhaseMarkerServer(jobs=nproc)`` in this
process and sends warm-up queries until every pool worker has answered.
The load generator then sends a seeded, balanced mix of
markers/profile/vli/phases/bbv queries over several workloads at a fixed
rate below saturation (Poisson arrivals: uniform times given the count),
over at most ``nproc`` keep-alive connections.  Latency counts from the
scheduled send, so a stall also charges the requests queued behind it.
Every response is compared byte for byte with its expected payload.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.serving.queries
from repro.runner.cache import ProfileCache
from repro.runner.traces import TraceStore
from repro.serving import AsyncServeClient, PhaseMarkerServer, Query, expected_payloads
from repro.workloads import get_workload

from perfbench.common import OUT_DIR, REFERENCE_KERNEL_S, HostClock, Outcome, nproc, span

NAME = "serve-mixed"
IMPORTS = ("repro.serving", "repro.workloads")

WORKLOADS = ("bzip2", "compress95", "mcf", "tomcatv")
KINDS = ("markers", "profile", "vli", "phases", "bbv")
#: offered load, queries per second (below saturation on 2 workers)
RATE_QPS = 20.0
#: inline replays of the distinct queries for the compute baseline
REPLAYS = 3
#: seconds between host-speed probes during the load (each holds the
#: event loop for about 5 ms)
PROBE_EVERY_S = 0.5


def queries() -> List[Query]:
    return [Query(kind=kind, workload=w) for w in WORKLOADS for kind in KINDS]


def plan(seed: int, seconds: float) -> Tuple[List[float], List[Query]]:
    """Arrival offsets and the query for each: a whole number of copies
    of every distinct query in seeded order, arrivals uniform over the
    run (a Poisson process conditioned on its count)."""
    distinct = queries()
    copies = max(1, round(RATE_QPS * seconds / len(distinct)))
    count = copies * len(distinct)
    duration = count / RATE_QPS
    rng = random.Random(seed)
    order = distinct * copies
    rng.shuffle(order)
    arrivals = sorted(rng.uniform(0.0, duration) for _ in range(count))
    return arrivals, order


@dataclass
class State:
    seed: int
    scratch: Path
    loop: asyncio.AbstractEventLoop
    server: PhaseMarkerServer
    expected: Dict[str, bytes]
    instructions: Dict[str, int]
    cache: ProfileCache
    store: TraceStore


def _instructions(store: TraceStore) -> Dict[str, int]:
    out = {}
    for name in WORKLOADS:
        wl = get_workload(name)
        trace = store.load(store.trace_key(name, "ref", wl.ref_input))
        out[name] = int(trace.total_instructions)
    return out


async def _warm(server: PhaseMarkerServer, workers: int) -> None:
    """Every distinct query once, *workers* at a time, so each pool
    worker is forked and has answered before timing starts."""
    clients = [AsyncServeClient(server.host, server.port) for _ in range(workers)]
    try:
        distinct = queries()
        for i in range(0, len(distinct), workers):
            batch = distinct[i : i + workers]
            await asyncio.gather(
                *(c.query(q) for c, q in zip(clients, batch))
            )
    finally:
        for client in clients:
            await client.close()


def setup(seed: int) -> State:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR))
    cache_dir, trace_root = str(scratch / "cache"), str(scratch / "traces")
    expected = expected_payloads(queries(), cache_dir=cache_dir, trace_root=trace_root)
    store = TraceStore(trace_root)
    loop = asyncio.new_event_loop()
    server = PhaseMarkerServer(
        port=0, jobs=nproc(), cache_dir=cache_dir, trace_root=trace_root
    )
    try:
        loop.run_until_complete(server.start())
        loop.run_until_complete(_warm(server, nproc()))
    except BaseException:
        loop.run_until_complete(server.shutdown())
        loop.close()
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    return State(
        seed,
        scratch,
        loop,
        server,
        expected,
        _instructions(store),
        ProfileCache(cache_dir),
        store,
    )


def teardown(state: State) -> None:
    try:
        state.loop.run_until_complete(state.server.shutdown())
    finally:
        state.loop.close()
        shutil.rmtree(state.scratch, ignore_errors=True)


async def _drive(state: State, seconds: float, out: Outcome, tracer) -> None:
    arrivals, order = plan(state.seed, seconds)
    server = state.server
    connections: "asyncio.Queue[Tuple[int, AsyncServeClient]]" = asyncio.Queue()
    lanes = []
    for i in range(nproc()):
        connections.put_nowait((i, AsyncServeClient(server.host, server.port)))
        lanes.append(tracer.tm.lane(f"connection {i}") if tracer else 0)
    #: (request number, due offset, completion offset)
    completed: List[Tuple[int, float, float]] = []
    late: List[float] = []
    #: instructions behind the correct answers; last completion offset
    answered = [0, 0.0]
    clock = HostClock()
    #: (offset from the load's start, kernel seconds)
    probes: List[Tuple[float, float]] = []

    async def one(number: int, query: Query, due: float, start: float) -> None:
        conn, client = await connections.get()
        sent = time.perf_counter() - start
        sent_ns = time.monotonic_ns()
        try:
            payload: Optional[bytes] = await client.query(query)
        except Exception:
            payload = None
        finally:
            connections.put_nowait((conn, client))
        done = time.perf_counter() - start
        if tracer is not None:
            tracer.tm.emit_span(
                "loadgen.request",
                sent_ns,
                time.monotonic_ns(),
                tid=lanes[conn],
                query=query.label(),
                late_ms=(sent - due) * 1e3,
            )
        late.append(sent - due)
        ok = payload is not None and payload == state.expected[query.key()]
        out.check(ok)
        if ok:
            completed.append((number, due, done))
            answered[0] += state.instructions[query.workload]
        answered[1] = max(answered[1], done)

    async def batcher_stats() -> Dict[str, int]:
        entry = await connections.get()
        try:
            return json.loads(await entry[1].request("GET", "/stats"))["batcher"]
        finally:
            connections.put_nowait(entry)

    def probe(start: float) -> None:
        probes.append((time.perf_counter() - start, clock.probe()))

    async def probe_host(start: float) -> None:
        while True:
            await asyncio.sleep(PROBE_EVERY_S)
            probe(start)

    prober = None
    try:
        before = await batcher_stats()
        start = time.perf_counter()
        probe(start)
        prober = asyncio.create_task(probe_host(start))
        tasks = []
        for number, (due, query) in enumerate(zip(arrivals, order)):
            delay = due - (time.perf_counter() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(number, query, due, start)))
        await asyncio.gather(*tasks)
        probe(start)
        after = await batcher_stats()
    finally:
        if prober is not None:
            prober.cancel()
            await asyncio.gather(prober, return_exceptions=True)
        while not connections.empty():
            await connections.get_nowait()[1].close()
    # each latency scales by the probes bracketing it; throughput stays
    # as measured, because the offered rate bounds it
    offsets = [t for t, _ in probes]
    for number, due, done in completed:
        k_before = probes[max(0, bisect.bisect_right(offsets, due) - 1)][1]
        k_after = probes[min(len(probes) - 1, bisect.bisect_left(offsets, done))][1]
        scale = REFERENCE_KERNEL_S / ((k_before + k_after) / 2)
        out.record(number, (done - due) * scale)
        out.host_scales.append(scale)
    out.end_unit(answered[0], answered[1], answered[1])
    submitted = after["submitted"] - before["submitted"]
    deduplicated = after["deduplicated"] - before["deduplicated"]
    batches = after["batches"] - before["batches"]
    out.layer.update(
        {
            # as measured, like the spans it is compared with
            "serving.client_mean_ms": (
                statistics.fmean(done - due for _, due, done in completed) * 1e3
                if completed
                else 0.0
            ),
            "serving.dedup_ratio": deduplicated / max(1, submitted),
            "serving.batch_mean": (submitted - deduplicated) / max(1, batches),
            "loadgen.late_ms": statistics.fmean(late) * 1e3 if late else 0.0,
        }
    )


def replay_compute(state: State, count: int = REPLAYS) -> Tuple[float, float]:
    """Inline ``compute_result`` over every distinct query against the
    warm stores: (mean ms per query, wall seconds)."""
    distinct = queries()
    start = time.perf_counter()
    for _ in range(count):
        for query in distinct:
            repro.serving.queries.compute_result(
                query, cache=state.cache, trace_store=state.store
            )
    wall = time.perf_counter() - start
    return wall / (count * len(distinct)) * 1e3, wall


def measure(
    state: State,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
    tracer=None,
) -> Outcome:
    """One open-loop load of *seconds* (*units* does not apply: the
    schedule, not a pass count, fixes the work)."""
    out = Outcome(op_label="request, scheduled send to response")
    start = time.perf_counter()
    with span(tracer, "loadgen.run"):
        state.loop.run_until_complete(_drive(state, seconds, out, tracer))
    out.wall_s = time.perf_counter() - start
    return out
