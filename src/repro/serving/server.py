"""``repro serve``: the long-lived phase-marker query service.

An asyncio HTTP/1.1 server (stdlib only — the request grammar we accept
is small enough to parse by hand) that turns the batch pipeline into an
online service:

* ``POST /v1/query`` — a :class:`~repro.serving.queries.Query` as JSON;
  responds with the canonical payload bytes.  Concurrent duplicates are
  coalesced by the :class:`~repro.serving.batcher.QueryBatcher`; distinct
  queries fan out over a ``ProcessPoolExecutor`` running
  :func:`~repro.serving.queries.run_query_job`; repeats across requests
  are served from the content-addressed profile cache and trace store
  the workers share.
* ``GET /healthz`` — liveness: status, uptime, pool size, run id.
* ``GET /stats`` — the serving counters (requests by kind/status,
  dedup stats, cache counters, in-flight and drained state).
* ``POST /v1/shutdown`` — begin a graceful drain (used by tests, the
  loadgen ``--shutdown`` flag, and orchestration).

Graceful shutdown is drain-first: the listener closes, in-flight
requests run to completion and are answered, *then* the pool goes down.

Telemetry (when a session is enabled) follows the lane model from
``docs/OBSERVABILITY.md``: each request is emitted as a ``serve.request``
span on the ``serve`` lane, queue depth is a gauge, request latency is
a histogram, deduplicated submissions are a counter, and worker
snapshots merge into the server session so one exported trace shows the
whole service timeline.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.serving.batcher import BatcherClosed, QueryBatcher
from repro.serving.queries import (
    Query,
    QueryError,
    QueryJob,
    canonical_json_bytes,
    query_from_dict,
    run_query_job,
)

#: request bodies beyond this are rejected with 413 (queries are tiny)
MAX_BODY_BYTES = 1 << 20

#: request-line/header section cap (defense against garbage input)
MAX_HEADER_BYTES = 1 << 16


class _HTTPError(Exception):
    """An error with a definite HTTP status (becomes the response)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServeStats:
    """Plain always-on serving counters (telemetry-independent)."""

    def __init__(self) -> None:
        self.started_s = time.monotonic()
        self.requests = 0
        self.by_kind: Dict[str, int] = {}
        self.by_status: Dict[int, int] = {}
        self.errors = 0
        self.inflight = 0
        self.latency_us_total = 0.0
        self.latency_us_max = 0.0

    def record(self, kind: Optional[str], status: int, latency_us: float) -> None:
        self.requests += 1
        if kind is not None:
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if status >= 400:
            self.errors += 1
        self.latency_us_total += latency_us
        self.latency_us_max = max(self.latency_us_max, latency_us)


class PhaseMarkerServer:
    """The ``repro serve`` service object (also used in-process by tests
    and benchmarks: ``await server.start()`` then ``server.port``).

    *jobs* sizes the worker pool (default
    :func:`~repro.runner.parallel.default_jobs`); *cache_dir* / *no_cache*
    and *trace_root* configure the shared on-disk stores exactly like the
    ``repro experiment`` flags.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
        trace_root: Optional[str] = None,
    ) -> None:
        from repro.runner.cache import default_cache_dir
        from repro.runner.parallel import default_jobs
        from repro.runner.traces import default_trace_dir

        self.host = host
        self.port = port
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.cache_dir = (
            None if no_cache else str(cache_dir or default_cache_dir())
        )
        self.trace_root = str(trace_root or default_trace_dir())
        self.stats = ServeStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._batcher: Optional[QueryBatcher] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self._connections: "set[asyncio.Task]" = set()
        # Drain bookkeeping.  Counting *requests* (not connection tasks)
        # matters: a keep-alive connection task never completes on its
        # own — after answering it loops back to read the next request —
        # so waiting on the tasks themselves would deadlock the drain.
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "PhaseMarkerServer":
        from repro.telemetry import get_telemetry

        tm = get_telemetry()
        self._tm = tm
        self._serve_lane = tm.lane("serve") if tm.enabled else 0
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self._batcher = QueryBatcher(self._compute_in_pool, telemetry=tm)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Run until a shutdown is requested, then drain and stop."""
        assert self._server is not None, "call start() first"
        await self._shutdown_requested.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        """Signal :meth:`serve_until_shutdown` (safe from handlers and
        signal callbacks on the loop)."""
        self._shutdown_requested.set()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, answer everything in flight, tear down.

        Idempotent.  With ``drain=False`` outstanding work is cancelled
        instead of awaited (tests of the non-graceful path only).
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._shutdown_requested.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # drain: already-accepted queries resolve first (batcher), then
        # every handler mid-request writes its response; idle keep-alive
        # connections (blocked waiting for a next request that will never
        # come) are cancelled rather than waited on
        if self._batcher is not None:
            await self._batcher.close(drain=drain)
        if drain:
            await self._idle.wait()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=drain, cancel_futures=not drain)
            self._pool = None
        self._drained.set()

    # -- computation ----------------------------------------------------------

    async def _compute_in_pool(self, query: Query) -> bytes:
        """Run one query job in the pool; merge its telemetry snapshot."""
        assert self._pool is not None
        tm = self._tm
        job = QueryJob(
            query=query,
            cache_dir=self.cache_dir,
            trace_root=self.trace_root,
            run_id=tm.run_id if tm.enabled else None,
        )
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            self._pool, functools.partial(run_query_job, job)
        )
        if tm.enabled:
            tm.counter(f"serve.graph_source.{result.graph_source}")
            tm.merge_snapshot(result.telemetry)
        return result.payload

    # -- HTTP plumbing --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            # shutdown cancels idle connections; exiting quietly is the
            # drain semantic, not an error (streams would log otherwise)
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await self._read_request(reader)
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                _HTTPError,
            ) as exc:
                if isinstance(exc, _HTTPError):
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                break
            if request is None:
                break  # clean EOF between requests
            self._active_requests += 1
            self._idle.clear()
            try:
                keep_alive = await self._handle_request(writer, *request)
            finally:
                self._active_requests -= 1
                if self._active_requests == 0:
                    self._idle.set()
            if not keep_alive:
                break

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; None on clean EOF before a request line."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HTTPError(413, "header section too large")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        if len(head) > MAX_HEADER_BYTES:
            raise _HTTPError(413, "header section too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HTTPError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HTTPError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _HTTPError(400, f"bad Content-Length: {length!r}")
            if n > MAX_BODY_BYTES:
                raise _HTTPError(413, "request body too large")
            body = await reader.readexactly(n)
        return method, target, headers, body

    async def _handle_request(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> bool:
        tm = self._tm
        start_ns = time.monotonic_ns()
        kind: Optional[str] = None
        self.stats.inflight += 1
        if tm.enabled:
            tm.gauge("serve.queue_depth", self.stats.inflight)
        try:
            status, payload, kind = await self._route(method, target, body)
            if isinstance(payload, bytes):
                raw = payload
            else:
                raw = canonical_json_bytes(payload)
        except _HTTPError as exc:
            status, raw = exc.status, canonical_json_bytes({"error": str(exc)})
        except QueryError as exc:
            status, raw = 400, canonical_json_bytes({"error": str(exc)})
        except BatcherClosed as exc:
            status, raw = 503, canonical_json_bytes({"error": str(exc)})
        except Exception as exc:  # never kill the connection loop
            status, raw = 500, canonical_json_bytes(
                {"error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            self.stats.inflight -= 1
        latency_us = (time.monotonic_ns() - start_ns) / 1000.0
        self.stats.record(kind, status, latency_us)
        if tm.enabled:
            tm.counter("serve.requests")
            tm.observe("serve.request_us", latency_us)
            tm.gauge("serve.queue_depth", self.stats.inflight)
            tm.emit_span(
                "serve.request",
                start_ns,
                time.monotonic_ns(),
                tid=self._serve_lane,
                target=target,
                status=status,
                **({"kind": kind} if kind else {}),
            )
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        await self._respond(writer, status, raw, close=not keep_alive)
        return keep_alive

    async def _route(self, method: str, target: str, body: bytes):
        target = target.split("?", 1)[0]
        if target == "/healthz":
            if method != "GET":
                raise _HTTPError(405, f"{method} not allowed on {target}")
            return 200, self.health(), None
        if target == "/stats":
            if method != "GET":
                raise _HTTPError(405, f"{method} not allowed on {target}")
            return 200, self.stats_document(), None
        if target == "/v1/query":
            if method != "POST":
                raise _HTTPError(405, f"{method} not allowed on {target}")
            try:
                data = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HTTPError(400, f"request body is not valid JSON: {exc}")
            query = query_from_dict(data)
            if self._draining or self._batcher is None:
                raise BatcherClosed("server is draining")
            payload = await self._batcher.submit(query)
            return 200, payload, query.kind
        if target == "/v1/shutdown":
            if method != "POST":
                raise _HTTPError(405, f"{method} not allowed on {target}")
            self.request_shutdown()
            return 200, {"status": "draining"}, None
        raise _HTTPError(404, f"no route for {target}")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        close: bool,
    ) -> None:
        raw = payload if isinstance(payload, bytes) else canonical_json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(raw)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + raw)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- documents ------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        tm = self._tm
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self.stats.started_s, 6),
            "jobs": self.jobs,
            "run_id": tm.run_id if tm.enabled else "",
        }

    def stats_document(self) -> Dict[str, Any]:
        s = self.stats
        mean_us = s.latency_us_total / s.requests if s.requests else 0.0
        return {
            "requests": s.requests,
            "by_kind": dict(s.by_kind),
            "by_status": {str(k): v for k, v in s.by_status.items()},
            "errors": s.errors,
            "inflight": s.inflight,
            "latency_mean_us": mean_us,
            "latency_max_us": s.latency_us_max,
            "batcher": self._batcher.stats() if self._batcher else {},
            "cache_dir": self.cache_dir,
            "trace_root": self.trace_root,
            "draining": self._draining,
        }


async def run_server(server: PhaseMarkerServer, ready=None) -> None:
    """Start *server*, optionally signal *ready* (an ``asyncio.Event`` or
    callable receiving the server), and block until it has drained."""
    await server.start()
    if ready is not None:
        if callable(ready):
            ready(server)
        else:
            ready.set()
    await server.serve_until_shutdown()
