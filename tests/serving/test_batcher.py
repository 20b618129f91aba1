"""The in-flight dedup layer, including the interleaving fuzz test.

The batcher's contract is a bijection: every ``submit(query)`` resolves
to exactly the payload of *that* query — never lost, never duplicated,
never cross-wired — while concurrent duplicates share one computation.
The fuzz test drives random interleavings of duplicate and distinct
queries through it and checks the bijection on every response.
"""

import asyncio
import random

import pytest

from repro.serving import BatcherClosed, Query, QueryBatcher
from repro.serving.queries import canonical_json_bytes


def payload_for(query: Query) -> bytes:
    return canonical_json_bytes({"key": query.key(), "kind": query.kind})


class CountingCompute:
    """A fake compute backend: records per-key call counts, optionally
    sleeps (so duplicates overlap), optionally fails on demand."""

    def __init__(self, delay_s: float = 0.0, fail_keys=()):
        self.calls = {}
        self.delay_s = delay_s
        self.fail_keys = set(fail_keys)

    async def __call__(self, query: Query) -> bytes:
        self.calls[query.key()] = self.calls.get(query.key(), 0) + 1
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        if query.key() in self.fail_keys:
            raise RuntimeError(f"injected failure for {query.label()}")
        return payload_for(query)


def queries(n):
    return [Query(kind="markers", workload=f"w{i}") for i in range(n)]


def test_concurrent_duplicates_share_one_computation():
    async def main():
        compute = CountingCompute(delay_s=0.01)
        batcher = QueryBatcher(compute)
        (query,) = queries(1)
        payloads = await asyncio.gather(
            *(batcher.submit(query) for _ in range(5))
        )
        await batcher.close()
        return compute, batcher, payloads

    compute, batcher, payloads = asyncio.run(main())
    assert payloads == [payload_for(queries(1)[0])] * 5
    assert compute.calls == {queries(1)[0].key(): 1}
    stats = batcher.stats()
    assert stats["submitted"] == 5
    assert stats["computed"] == 1
    assert stats["deduplicated"] == 4


def test_distinct_queries_compute_independently():
    async def main():
        compute = CountingCompute()
        batcher = QueryBatcher(compute)
        qs = queries(4)
        payloads = await asyncio.gather(*(batcher.submit(q) for q in qs))
        await batcher.close()
        return compute, payloads, qs

    compute, payloads, qs = asyncio.run(main())
    assert payloads == [payload_for(q) for q in qs]
    assert all(count == 1 for count in compute.calls.values())


def test_failure_propagates_to_every_waiter_then_clears():
    async def main():
        (query,) = queries(1)
        compute = CountingCompute(delay_s=0.01, fail_keys=[query.key()])
        batcher = QueryBatcher(compute)
        results = await asyncio.gather(
            *(batcher.submit(query) for _ in range(3)),
            return_exceptions=True,
        )
        # the failure is not cached: a retry computes again
        compute.fail_keys.clear()
        retry = await batcher.submit(query)
        await batcher.close()
        return compute, results, retry, query

    compute, results, retry, query = asyncio.run(main())
    assert all(isinstance(r, RuntimeError) for r in results)
    assert retry == payload_for(query)
    assert compute.calls[query.key()] == 2


def test_submit_after_close_raises():
    async def main():
        batcher = QueryBatcher(CountingCompute())
        await batcher.close()
        with pytest.raises(BatcherClosed):
            await batcher.submit(queries(1)[0])

    asyncio.run(main())


def test_close_drains_pending_submissions():
    async def main():
        compute = CountingCompute(delay_s=0.02)
        batcher = QueryBatcher(compute)
        qs = queries(3)
        tasks = [asyncio.create_task(batcher.submit(q)) for q in qs]
        await asyncio.sleep(0)  # let the submissions enter the batcher
        await batcher.close(drain=True)
        return await asyncio.gather(*tasks), qs

    payloads, qs = asyncio.run(main())
    assert payloads == [payload_for(q) for q in qs]


def test_submit_starts_the_computation_without_waiting():
    async def main():
        compute = CountingCompute(delay_s=0.05)
        batcher = QueryBatcher(compute)
        (query,) = queries(1)
        task = asyncio.create_task(batcher.submit(query))
        for _ in range(3):
            await asyncio.sleep(0)
        calls = dict(compute.calls)
        await task
        await batcher.close()
        return calls, query

    calls, query = asyncio.run(main())
    assert calls == {query.key(): 1}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_random_interleavings_preserve_bijection(seed):
    """Random duplicate/distinct interleavings: every response carries
    exactly its own query's payload; accounting adds up."""
    rng = random.Random(seed)
    pool = queries(6)
    num_clients = rng.randint(3, 8)
    plans = [
        [rng.choice(pool) for _ in range(rng.randint(5, 20))]
        for _ in range(num_clients)
    ]
    total = sum(len(plan) for plan in plans)

    async def main():
        compute = CountingCompute(delay_s=0.002)
        batcher = QueryBatcher(compute)

        async def client(plan):
            got = []
            for query in plan:
                if rng.random() < 0.5:
                    await asyncio.sleep(rng.random() * 0.004)
                got.append((query, await batcher.submit(query)))
            return got

        results = await asyncio.gather(*(client(plan) for plan in plans))
        await batcher.close()
        return compute, batcher, results

    compute, batcher, results = asyncio.run(main())
    answered = 0
    for got in results:
        for query, payload in got:
            assert payload == payload_for(query)  # never cross-wired
            answered += 1
    assert answered == total  # never lost
    stats = batcher.stats()
    assert stats["submitted"] == total
    assert stats["computed"] + stats["deduplicated"] == total
    assert stats["computed"] == sum(compute.calls.values())
    assert stats["failed"] == 0
    assert stats["batches"] == stats["computed"] + stats["failed"]
