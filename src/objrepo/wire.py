"""HTTP binding of the operation table in :mod:`objrepo.api`, plus the clients.

Request and response bodies are JSON except where an operation's result is
an opaque byte stream (datastream content, disseminations, manifests); those
travel as raw bodies under their own MIME. The caller's principal rides in
the ``X-Principal`` header and defaults to "anonymous". Every failure maps
to one (status, error-code) pair, so a wire round-trip surfaces exactly the
error an in-process call would raise. A JSON request body must fit its
operation's ``body_shape``.
"""

from __future__ import annotations

import contextlib
import email.utils
import functools
import http.client
import json
import logging
import re
import select
import socket
import sys
import threading
import time
import urllib.parse
from dataclasses import replace
from http import HTTPStatus

from . import errors, shape
from .api import DEFAULT_PRINCIPAL, NAMING_OPS, RAW, REPOSITORY_OPS, Op, derive
from .errors import (
    BadArguments,
    BodyTooLarge,
    NamingUnavailable,
    NotFound,
    ObjectRepositoryError,
    TargetUnreachable,
)
from .naming import NamingConfig, NamingService
from .repository import Repository, RepositoryConfig

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# server


def _router(ops) -> dict:
    """verb -> [(path pattern, op)] for every path of every row, aliases included."""
    routes: dict = {}
    for op in ops:
        for path in op.paths:
            pattern = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", path)
            routes.setdefault(op.verb, []).append((re.compile(f"^{pattern}$"), op))
    return routes


REPOSITORY_ROUTES = _router(REPOSITORY_OPS)
NAMING_ROUTES = _router(NAMING_OPS)


def _json(doc: dict, status: int = 200) -> tuple[int, str, bytes]:
    return status, "application/json", json.dumps(doc).encode("utf-8")


def _decode(op: Op, match, body: bytes, headers, query: dict) -> dict:
    """The arguments of one request, each read from where its row says it travels."""
    doc = {}
    if op.body_shape is not None:
        doc = shape.parse(body, op.body_shape, BadArguments, "request body")
    values = {}
    for arg in op.args:
        if arg.where == "path":
            value = urllib.parse.unquote(match[arg.name])
        elif arg.where == "body":
            value = doc.get(arg.key)
        elif arg.where == "query":
            if len(query.get(arg.key, [])) != 1:
                raise BadArguments(f"query parameter {arg.key!r} required exactly once")
            value = query[arg.key][0]
        elif arg.where == "args":
            value = {}
            for key, items in query.items():
                if key.startswith("arg."):
                    if len(items) != 1:
                        raise BadArguments(f"duplicate argument {key!r}")
                    value[key[4:]] = items[0]
        elif arg.where == "raw":
            value = body
        elif arg.where == "content-type":
            value = headers.get("content-type")
        else:  # x-principal
            value = headers.get("x-principal") or DEFAULT_PRINCIPAL
        values[arg.name] = value
    return values


def _envelope(exc: ObjectRepositoryError) -> tuple[int, str, bytes]:
    return _json({"error": exc.code, "detail": str(exc)}, errors.http_status(exc.code))


#: the longest request line or header line, and the most header lines, a request may have
_MAX_LINE, _MAX_HEADERS = 65536, 100
#: the largest request body a server reads: a 16 MB datastream and the 22 MB
#: manifest that replicating an object holding it sends fit, with room
MAX_BODY_BYTES = 64 * 1024 * 1024
#: after a refusal that leaves a request body unread, the most bytes the
#: server reads and discards, and for how many seconds, before it closes
_LINGER_BYTES, _LINGER_SECONDS = 2 * MAX_BODY_BYTES, 5.0
#: the request headers the protocol reads; every other one is skipped
_HEADERS_READ = {"content-length", "content-type", "x-principal", "connection", "transfer-encoding"}
_VERBS = {"GET", "POST", "PUT", "DELETE"}
_REASONS = {status.value: status.phrase for status in HTTPStatus}


@functools.lru_cache(maxsize=1)  # formatted once a second
def _http_date(second: int) -> str:
    return email.utils.formatdate(second, usegmt=True)


class _Handler:
    """One connection: reads each request on it in turn, dispatches it and
    sends its reply, until either side closes the connection."""

    # Seconds a connection may sit idle (or stall inside a request) before
    # the server closes it and frees its thread.
    timeout = 30.0

    def __init__(self, server: "WireServer", connection: socket.socket):
        self.server = server
        self.connection = connection
        self.close_connection = False
        self.command = self.path = ""

    def handle(self) -> None:
        self.connection.settimeout(self.timeout)
        # Connections persist, so a reply must not wait for the client's ACK
        # of the segment before it (Nagle against delayed ACK).
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.connection.makefile("rb") as self.rfile:
            while not self.close_connection:
                try:
                    refusal = self._read_head()
                except (TimeoutError, EOFError):  # idle or stalled too long, or closed
                    return
                if refusal is None:
                    self._dispatch(self.command)
                else:
                    self.close_connection = True
                    self._send(*_envelope(BadArguments(f"malformed request: {refusal}")))

    def _read_head(self) -> str | None:
        """Read a request line and its headers, keeping those the protocol
        reads; returns why the request is refused, if it is. Raises EOFError
        if the connection ends before a whole request line, or sends a blank one."""
        line = self.rfile.readline(_MAX_LINE + 1)
        words = line.decode("latin-1").split()
        if len(line) > _MAX_LINE:
            return "request line too long"
        if not words or not line.endswith(b"\n"):  # closed before it, or inside it
            raise EOFError
        if not 2 <= len(words) <= 3:
            return f"bad request line {line[:80]!r}"
        self.headers = headers = {}
        self.command, self.path, *version = words
        if version not in ([], ["HTTP/1.0"], ["HTTP/1.1"]):
            return f"unsupported version {version[0]!r}"
        if self.command not in _VERBS:  # answered as an unknown path, then closed
            self.close_connection = True
        if not version:  # HTTP/0.9: no headers, one reply
            self.close_connection = True
            return None
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if len(line) > _MAX_LINE or not colon or not name or name != name.strip():
                return f"bad header line {line[:80]!r}"
            name = name.lower()
            if name in _HEADERS_READ:
                if name in headers:
                    return f"repeated {name} header"
                headers[name] = value.strip()
        else:
            return f"more than {_MAX_HEADERS} header lines"
        options = {option.strip() for option in headers.get("connection", "").lower().split(",")}
        if "close" in options or (version == ["HTTP/1.0"] and "keep-alive" not in options):
            self.close_connection = True
        return None

    def _read_body(self) -> bytes:
        if "transfer-encoding" in self.headers:
            # without Content-Length the body's end is unknown, and a body
            # read as the next request would be a smuggled one
            self.close_connection = True
            raise BadArguments("Transfer-Encoding is not supported; send Content-Length")
        value = self.headers.get("content-length") or "0"
        if not (value.isascii() and value.isdigit()):  # no sign, no "_"
            # the body's end is unknown, so nothing after it can be read
            self.close_connection = True
            raise BadArguments("Content-Length must be a non-negative integer")
        digits = value.lstrip("0") or "0"  # a number too long for int() is over the limit too
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            # the body is left unread, so nothing after it can be read
            self.close_connection = True
            raise BodyTooLarge(f"a request body may hold at most {MAX_BODY_BYTES} bytes")
        length = int(digits)
        try:
            body = self.rfile.read(length) if length else b""
        except TimeoutError:
            # the rest of the body may still come, and must not be read as a request
            self.close_connection = True
            raise BadArguments(f"request body stalled for {self.timeout} s") from None
        if len(body) < length:  # the client, or stop(), closed the connection mid-body
            self.close_connection = True
            raise BadArguments(f"request body ended after {len(body)} of {length} bytes")
        return body

    def _send(self, status: int, mime: str, body: bytes) -> None:
        """Send one reply: the status line and headers, then the body."""
        if self.server._stopping:  # the last reply before stop() closes the connection
            self.close_connection = True
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: objrepo\r\n"
            f"Date: {_http_date(int(time.time()))}\r\nContent-Type: {mime}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        head = (head + "\r\n").encode("latin-1")
        try:
            if len(body) < 65536:
                self.connection.sendall(head + body)
            else:  # a large body is not copied to join it to its head
                self.connection.sendall(head)
                self.connection.sendall(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True

    def _linger(self) -> None:
        """Shut the write side, then discard what the client still sends, within
        the bounds: closed with bytes unread, the connection would be reset."""
        deadline, left = time.monotonic() + _LINGER_SECONDS, _LINGER_BYTES
        with contextlib.suppress(OSError):  # a timeout, or the client gone
            self.connection.shutdown(socket.SHUT_WR)
            while left > 0 and (wait := deadline - time.monotonic()) > 0:
                self.connection.settimeout(wait)
                if not (chunk := self.rfile.read1(min(left, 65536))):
                    return
                left -= len(chunk)

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        try:  # a ConnectionError here is a client gone: handle_error drops it
            body = self._read_body()
        except (BadArguments, BodyTooLarge) as exc:
            self._send(*_envelope(exc))
            return self._linger()
        try:
            for pattern, op in self.server.routes.get(method, ()):
                match = pattern.match(parsed.path)
                if match is not None:
                    break
            else:
                raise NotFound(f"no route {method} {parsed.path}")
            query = urllib.parse.parse_qs(parsed.query, keep_blank_values=True)
            values = _decode(op, match, body, self.headers, query)
            encoded = op.invoke(self.server.context, values)
            resp = (200, *encoded) if op.reply == RAW else _json(encoded)
        except ObjectRepositoryError as exc:
            resp = _envelope(exc)
        except Exception as exc:  # noqa: BLE001 - must answer the client
            log.exception("unhandled error serving %s %s", method, parsed.path)
            resp = _json({"error": "INTERNAL", "detail": str(exc)}, 500)
        self._send(*resp)


class WireServer:
    """An embeddable HTTP/1.1 server. Each connection has a thread of its own
    for as long as the client keeps it open, so no request waits for another;
    :meth:`stop` drains them."""

    def __init__(self, host: str, port: int, routes, context):
        # the listen backlog; at the stdlib's 5, a burst of connects overflows it
        # and each connect past it waits about a second for the SYN to be resent
        self.socket = socket.create_server((host, port), backlog=128)  # with SO_REUSEADDR
        self.server_address = self.socket.getsockname()[:2]
        self.routes = routes
        self.context = context
        self._thread: threading.Thread | None = None
        self._open: dict[socket.socket, threading.Thread] = {}  # connection -> its handler
        self._stopping = False
        self._open_lock = threading.Lock()

    def _accept(self) -> None:
        while not self._stopping:
            try:
                self.process_request(*self.socket.accept())
            except OSError:  # woken by stop(), or a connect aborted before its accept
                pass

    def process_request(self, request, client_address):
        # a daemon, so no client holds the process open; stop() joins it
        thread = threading.Thread(
            target=self._serve_connection, args=(request, client_address), daemon=True
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def _serve_connection(self, request, client_address):
        try:
            _Handler(self, request).handle()
        except Exception:  # noqa: BLE001 - logged by handle_error unless a reset
            self.handle_error(request, client_address)
        finally:
            with self._open_lock:
                self._open.pop(request, None)
            request.close()

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):  # a reset is a close
            log.exception("unhandled error on the connection from %s", client_address)

    @property
    def endpoint(self) -> str:
        return f"{self.server_address[0]}:{self.server_address[1]}"

    def start(self) -> "WireServer":
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and end every connection's reading: an idle one
        closes at once, and a request already received runs to its reply,
        sent with ``Connection: close``. Returns once every handler has
        ended, or after 5 s. Stopping a stopped server does nothing."""
        if self._stopping:
            return
        self._stopping = True
        self.socket.shutdown(socket.SHUT_RDWR)  # wakes accept()
        if self._thread is not None:
            self._thread.join()
        self.socket.close()
        with self._open_lock:  # a handler closes its connection only once it left _open
            for conn in self._open:
                with contextlib.suppress(OSError):  # the client has reset it
                    conn.shutdown(socket.SHUT_RD)  # a blocked read returns, as at a close
            handlers = list(self._open.values())
        deadline = time.monotonic() + 5
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))


def _split_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    return host, int(port)


def serve_repository(config: RepositoryConfig) -> tuple[WireServer, Repository]:
    """Bind and start a repository server.

    A listen port of 0 picks a free port; the repository then uses the bound
    endpoint as its identity for naming registrations.
    """
    host, port = _split_endpoint(config.listen_endpoint)
    server = WireServer(host, port, REPOSITORY_ROUTES, None)
    config = replace(config, listen_endpoint=server.endpoint)
    repo = Repository(config, NamingClient(config.naming_endpoint), RepositoryClient)
    server.context = repo
    server.start()
    return server, repo


def serve_naming(config: NamingConfig) -> tuple[WireServer, NamingService]:
    host, port = _split_endpoint(config.listen_endpoint)
    server = WireServer(host, port, NAMING_ROUTES, None)
    service = NamingService(config.journal_path)
    server.context = service
    server.start()
    return server, service


# ---------------------------------------------------------------------------
# clients


# This thread's idle keep-alive connections, one per endpoint. The pool is
# per thread, not per client object, because callers make a fresh client for
# each call (the CLI, the type resolver, a repository's peer pushes).
_idle = threading.local()


class _IdleConnections(dict):
    """endpoint -> idle connection, for one thread; closed when it ends."""

    def take(self, endpoint: str) -> http.client.HTTPConnection | None:
        """The idle connection to ``endpoint``, if any. Every idle connection
        its server has closed is dropped first: an idle socket that polls
        readable holds an EOF (or bytes nobody asked for)."""
        poller = select.poll()  # not select.select, which fails on fds >= 1024
        endpoints = {}
        for key, conn in self.items():
            poller.register(conn.sock, select.POLLIN)
            endpoints[conn.sock.fileno()] = key
        for fd, _ in poller.poll(0):
            self.pop(endpoints[fd]).close()
        return self.pop(endpoint, None)

    def __del__(self):
        for conn in self.values():
            conn.close()


def _idle_connections() -> _IdleConnections:
    pool = getattr(_idle, "conns", None)
    if pool is None:
        pool = _idle.conns = _IdleConnections()
    return pool


class _BaseClient:
    """Sends each operation of its table as one HTTP request on a persistent
    connection. Each thread keeps one idle connection per endpoint, shared
    by every client object on that thread; a connection the server has
    closed (restart, idle timeout, stop) is replaced before use. Only a GET
    that fails on a reused connection before any reply arrives is sent once
    more, on a fresh one: a POST, PUT or DELETE is never sent twice."""

    unreachable_error: type[ObjectRepositoryError] = TargetUnreachable
    principal: str | None = None

    def __init__(self, endpoint: str, timeout: float = 15.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        mime: str | None = None,
        principal: str | None = None,
    ) -> tuple[str, bytes]:
        """Send one request; returns the reply's (Content-Type, body) or
        raises the error its envelope names."""
        if body is not None and len(body) > MAX_BODY_BYTES:
            # refused unread, the body would reset the connection mid-send
            raise BodyTooLarge(f"a request body may hold at most {MAX_BODY_BYTES} bytes")
        headers = {}
        if principal:
            headers["X-Principal"] = principal
        if body is not None and mime:
            headers["Content-Type"] = mime
        pool = _idle_connections()
        conn = pool.take(self.endpoint)
        retry = conn is not None and method == "GET"
        try:
            while True:
                if conn is None:
                    conn = http.client.HTTPConnection(self.endpoint, timeout=self.timeout)
                else:
                    conn.sock.settimeout(self.timeout)
                try:
                    conn.request(method, path, body=body, headers=headers)
                    resp = conn.getresponse()
                    break
                except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected included
                    if not retry:  # nothing but a GET is sent twice
                        raise
                    conn.close()
                    conn, retry = None, False
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            if conn is not None:
                conn.close()
            raise self.unreachable_error(f"{self.endpoint}: {exc}") from None
        if resp.will_close:
            conn.close()
        else:
            pool[self.endpoint] = conn
        if resp.status >= 400:
            try:
                doc = shape.load(data, ValueError, "error reply")
                code = shape.check(shape.NON_EMPTY, doc["error"], ValueError, "error code")
                detail = doc.get("detail", "")
            except (ValueError, KeyError, TypeError):  # not an error envelope
                code, detail = "INTERNAL", data.decode("utf-8", "replace")
            raise errors.from_code(code, detail)
        return resp.getheader("Content-Type", ""), data

    def _call(self, op: Op, values: dict):
        """Send one row's call as its HTTP request; returns what the method returns."""
        path_args = {}
        query: list[tuple[str, str]] = []
        doc: dict = {}
        body, mime = None, "application/json"
        for arg in op.args:
            value = values[arg.name]
            if arg.where == "path":
                path_args[arg.name] = urllib.parse.quote(value, safe="")
            elif arg.where == "query":
                query.append((arg.key, value))
            elif arg.where == "args":
                query.extend((f"arg.{key}", item) for key, item in (value or {}).items())
            elif arg.where == "body" and value is not None:
                doc[arg.key] = value
            elif arg.where == "raw":
                body = value
            elif arg.where == "content-type":
                mime = value
        if op.body_shape is not None:
            body = json.dumps(doc).encode("utf-8")
        path = op.paths[0].format(**path_args)
        if query:
            path += "?" + urllib.parse.urlencode(query)
        principal = values.get("principal") or self.principal
        reply = self._request(op.verb, path, body=body, mime=mime, principal=principal)
        if op.reply != RAW:
            reply = shape.load(reply[1], self.unreachable_error, f"{self.endpoint} reply")
        return op.unwrap(reply)


@derive(REPOSITORY_OPS)
class RepositoryClient(_BaseClient):
    """Client for one repository endpoint. Used by operators (through the
    CLI), by resolvers fetching type documents, and by repositories pushing
    manifests to each other."""

    def __init__(self, endpoint: str, principal: str = DEFAULT_PRINCIPAL, timeout: float = 15.0):
        super().__init__(endpoint, timeout)
        self.principal = principal


@derive(NAMING_OPS)
class NamingClient(_BaseClient):
    unreachable_error = NamingUnavailable
