"""A minimal asyncio HTTP/1.1 server — stdlib only, by design.

The service's transport needs are narrow: small JSON requests in, JSON
or NDJSON streams out, one request per connection.  Rather than grow a
framework dependency the repo cannot install, this module hand-rolls
exactly that slice of HTTP/1.1:

* requests are parsed from the socket (request line, headers, a
  ``Content-Length`` body) with hard limits on header and body size;
* every response carries ``Connection: close`` and the connection is
  closed after it — no keep-alive, no pipelining, no chunked encoding
  (a streamed response is terminated by the close, which HTTP/1.1
  permits when no ``Content-Length`` is sent);
* the handler is one async callable ``(Request) -> Response |
  StreamResponse``; routing lives in :mod:`repro.serve.app`.

This is not a general web server and does not try to be one; it is the
smallest correct carrier for the job API.
"""

from __future__ import annotations

import asyncio
import json
import sys
import traceback
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, Optional, Tuple, Union

__all__ = [
    "HTTPError",
    "HTTPServer",
    "Request",
    "Response",
    "StreamResponse",
]

#: Hard limits: nothing the job API carries is anywhere near these.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON (400 on failure)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    """A complete (non-streaming) response."""

    status: int = 200
    body: Union[bytes, str, dict, list, None] = None
    content_type: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> Tuple[bytes, str]:
        """Returns ``(body_bytes, content_type)``."""
        if self.body is None:
            return b"", self.content_type or "text/plain; charset=utf-8"
        if isinstance(self.body, (dict, list)):
            # Compact: indenting runs json's slow pure-Python encoder.
            payload = json.dumps(self.body, sort_keys=True, separators=(",", ":"))
            payload += "\n"
            return (
                payload.encode("utf-8"),
                self.content_type or "application/json",
            )
        if isinstance(self.body, str):
            return (
                self.body.encode("utf-8"),
                self.content_type or "text/plain; charset=utf-8",
            )
        return self.body, self.content_type or "application/octet-stream"


@dataclass
class StreamResponse:
    """A response whose body is produced incrementally (e.g. NDJSON).

    ``chunks`` is an async iterator of byte chunks; the server writes
    each as it arrives and signals the end of the body by closing the
    connection (no ``Content-Length``).
    """

    chunks: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "application/x-ndjson"
    headers: Dict[str, str] = field(default_factory=dict)


Handler = Callable[[Request], Awaitable[Union[Response, StreamResponse]]]


class HTTPServer:
    """Serve ``handler`` on ``host:port`` (port 0 = ephemeral)."""

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except HTTPError as exc:
                await self._write_error(writer, exc.status, exc.message)
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request
            try:
                response = await self.handler(request)
            except HTTPError as exc:
                await self._write_error(writer, exc.status, exc.message)
                return
            except Exception:  # noqa: BLE001 - a handler bug must not kill the server
                traceback.print_exc(file=sys.stderr)
                await self._write_error(writer, 500, "internal server error")
                return
            if isinstance(response, StreamResponse):
                await self._write_stream(writer, response)
            else:
                await self._write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client disconnected mid-response (or server shutdown)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Request:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise HTTPError(400, "request head too large")
        if len(head) > MAX_HEADER_BYTES:
            raise HTTPError(400, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HTTPError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HTTPError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        split = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(split.query))
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise HTTPError(400, f"bad Content-Length: {length_text!r}")
            if length < 0 or length > MAX_BODY_BYTES:
                raise HTTPError(400, f"unacceptable Content-Length {length}")
            body = await reader.readexactly(length)
        return Request(
            method=method.upper(),
            path=split.path,
            query=query,
            headers=headers,
            body=body,
        )

    @staticmethod
    def _head(
        status: int, content_type: str, extra: Dict[str, str],
        content_length: Optional[int],
    ) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        body, content_type = response.encode()
        writer.write(
            self._head(response.status, content_type, response.headers, len(body))
        )
        writer.write(body)
        await writer.drain()

    async def _write_stream(
        self, writer: asyncio.StreamWriter, response: StreamResponse
    ) -> None:
        writer.write(
            self._head(
                response.status, response.content_type, response.headers, None
            )
        )
        await writer.drain()
        async for chunk in response.chunks:
            writer.write(chunk)
            await writer.drain()

    async def _write_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        await self._write_response(
            writer, Response(status=status, body={"error": message})
        )
