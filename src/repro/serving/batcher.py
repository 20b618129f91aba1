"""In-flight deduplication between the event loop and the pool.

Heavy traffic against a phase-marker service is extremely repetitive:
many clients ask for the same few (workload, configuration) products.
Queries are keyed by :meth:`Query.key`.  The first submission of a key
starts its computation at once; while it is in flight, every further
submission of that key awaits the *same* future — N concurrent
identical queries cost one pool job, and all N waiters receive the
identical payload object.  Everything runs on the event loop (no locks
— asyncio tasks interleave only at awaits).

The response contract — the property the fuzz suite drives — is a
request ↔ payload bijection: every submitted query receives exactly one
result, and that result is *its own* query's payload (never another
key's, never a duplicate delivery).  Failures propagate to exactly the
waiters of the failing key; other keys are unaffected.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict

from repro.serving.queries import Query


class BatcherClosed(RuntimeError):
    """Submission after :meth:`QueryBatcher.close` (server draining)."""


class QueryBatcher:
    """Share one computation among concurrent identical queries.

    *compute* is an async callable ``(query) -> bytes`` — the server
    passes a wrapper that runs a :class:`~repro.serving.queries.QueryJob`
    in its process pool; tests inject fakes.  One batcher instance
    belongs to one event loop.
    """

    def __init__(
        self, compute: Callable[[Query], Awaitable[bytes]], telemetry=None
    ) -> None:
        self._compute = compute
        self._tm = telemetry
        #: key -> future resolving to payload bytes (computation in flight)
        self._inflight: Dict[str, "asyncio.Future[bytes]"] = {}
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._closed = False
        # -- stats (served by /stats regardless of telemetry) --
        self.submitted = 0
        self.deduplicated = 0
        self.computed = 0
        self.failed = 0
        #: dispatched computations, one per first-of-its-key submission
        self.batches = 0

    @property
    def inflight(self) -> int:
        """Keys currently computing (the dedup window size)."""
        return len(self._inflight)

    async def submit(self, query: Query) -> bytes:
        """The payload for *query*; shares any in-flight computation."""
        if self._closed:
            raise BatcherClosed("batcher is closed; server is draining")
        self.submitted += 1
        key = query.key()
        future = self._inflight.get(key)
        if future is not None:
            self.deduplicated += 1
            if self._tm is not None and self._tm.enabled:
                self._tm.counter("serve.batch.deduplicated")
            return await asyncio.shield(future)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        self.batches += 1
        task = loop.create_task(self._run_one(query, future))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await asyncio.shield(future)

    async def _run_one(self, query: Query, future: "asyncio.Future[bytes]") -> None:
        key = query.key()
        try:
            payload = await self._compute(query)
        except asyncio.CancelledError:
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:
            self.failed += 1
            if not future.done():
                future.set_exception(exc)
        else:
            self.computed += 1
            if not future.done():
                future.set_result(payload)
        finally:
            # the dedup window closes only once the result is settled, so
            # a submission can never observe a key that has no future
            if self._inflight.get(key) is future:
                del self._inflight[key]

    async def close(self, drain: bool = True) -> None:
        """Stop accepting submissions; optionally await in-flight work.

        With ``drain=True`` (graceful shutdown) every already-accepted
        query still resolves; with ``drain=False`` outstanding futures
        are cancelled.
        """
        self._closed = True
        if drain:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        else:
            for task in list(self._tasks):
                task.cancel()
            for future in list(self._inflight.values()):
                if not future.done():
                    future.cancel()
            self._inflight.clear()

    def stats(self) -> Dict[str, Any]:
        """Counters for the ``/stats`` endpoint (plain data, always on)."""
        return {
            "submitted": self.submitted,
            "deduplicated": self.deduplicated,
            "computed": self.computed,
            "failed": self.failed,
            "batches": self.batches,
            "inflight": self.inflight,
        }
