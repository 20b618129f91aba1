"""The client for ``repro serve``.

:class:`AsyncServeClient` (asyncio streams, persistent keep-alive
connection) is what the loadgen, the tests and ``repro loadgen
--shutdown`` use — an open-loop Server scenario needs many requests in
flight at once, which a blocking client cannot express without a
thread per request.

It speaks JSON bodies in and canonical payload bytes back, and
surfaces server-side errors as :class:`ServeClientError` carrying the
HTTP status and the server's error message.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from repro.serving.queries import Query


class ServeClientError(RuntimeError):
    """A non-200 response from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _raise_for_status(status: int, body: bytes) -> None:
    if status == 200:
        return
    try:
        message = json.loads(body.decode("utf-8")).get("error", "")
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
        message = body.decode("utf-8", "replace")
    raise ServeClientError(status, message)


class AsyncServeClient:
    """Asyncio client over one persistent keep-alive connection.

    One instance serializes its own requests (HTTP/1.1 pipelining is
    deliberately not attempted); the loadgen opens a small pool of these
    and dispatches in-flight queries across them.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def _request_once(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> bytes:
        async with self._lock:
            if self._writer is None:
                await self._connect()
            try:
                status, payload = await self._request_once(method, path, body)
            except (ConnectionResetError, asyncio.IncompleteReadError, OSError):
                await self.close()
                await self._connect()
                status, payload = await self._request_once(method, path, body)
        _raise_for_status(status, payload)
        return payload

    async def query(self, query: Query) -> bytes:
        return await self.request(
            "POST", "/v1/query", json.dumps(query.as_dict()).encode()
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = None
        self._writer = None
