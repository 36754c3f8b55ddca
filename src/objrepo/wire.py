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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import errors, shape
from .api import DEFAULT_PRINCIPAL, NAMING_OPS, RAW, REPOSITORY_OPS, Op, derive
from .errors import (
    BadArguments,
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
            value = headers.get("Content-Type")
        else:  # x-principal
            value = headers.get("X-Principal") or DEFAULT_PRINCIPAL
        values[arg.name] = value
    return values


def _envelope(exc: ObjectRepositoryError) -> tuple[int, str, bytes]:
    return _json({"error": exc.code, "detail": str(exc)}, errors.http_status(exc.code))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "objrepo"
    # Connections persist, so a reply must not wait for the client's ACK of
    # the headers before its body goes out (Nagle against delayed ACK).
    disable_nagle_algorithm = True
    # Seconds a connection may sit idle (or stall inside a request) before
    # the server closes it and frees its thread.
    timeout = 30.0

    def log_message(self, fmt, *args):
        log.debug("%s %s", self.address_string(), fmt % args)

    def send_error(self, code, message=None, explain=None):
        """Answer what the stdlib parser refused (bad request line or
        headers, unknown verb) with the error envelope, then close."""
        self.close_connection = True
        if code == HTTPStatus.NOT_IMPLEMENTED:  # no do_<verb> method
            path = urllib.parse.urlsplit(self.path).path
            exc = NotFound(f"no route {self.command} {path}")
        else:
            exc = BadArguments(f"malformed request: {message or self.responses[code][0]}")
        self.log_error("code %d, message %s", code, message)
        self._send(*_envelope(exc))

    def _read_body(self) -> bytes:
        if "Transfer-Encoding" in self.headers:
            # without Content-Length the body's end is unknown, and a body
            # read as the next request would be a smuggled one
            self.close_connection = True
            raise BadArguments("Transfer-Encoding is not supported; send Content-Length")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # the body's end is unknown, so nothing after it can be read
            self.close_connection = True
            raise BadArguments("Content-Length must be a non-negative integer")
        try:
            return self.rfile.read(length) if length else b""
        except TimeoutError:
            # the rest of the body may still come, and must not be read as a request
            self.close_connection = True
            raise BadArguments(f"request body stalled for {self.timeout} s") from None

    def _send(self, status: int, mime: str, body: bytes) -> None:
        # an HTTP/0.9 request line would otherwise get a reply with no status line
        self.request_version = self.protocol_version
        try:
            self.send_response(status)
            self.send_header("Content-Type", mime)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        try:  # a ConnectionError here is a client gone: handle_error drops it
            body = self._read_body()
        except BadArguments as exc:
            return self._send(*_envelope(exc))
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

    def do_GET(self):
        self._dispatch(self.command)

    do_POST = do_PUT = do_DELETE = do_GET


class WireServer(ThreadingHTTPServer):
    """An embeddable HTTP server. Each connection has a thread of its own for
    as long as the client keeps it open, so no request waits for another;
    :meth:`stop` closes them all and waits for their threads."""

    # the listen backlog; at the stdlib's 5, a burst of connects overflows it
    # and each connect past it waits about a second for the SYN to be resent
    request_queue_size = 128

    def __init__(self, host: str, port: int, routes, context):
        super().__init__((host, port), _Handler)
        self.routes = routes
        self.context = context
        self._thread: threading.Thread | None = None
        self._open: dict[socket.socket, threading.Thread] = {}  # connection -> its handler
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        # a daemon, so no client holds the process open; stop() joins it
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):  # a reset is a close
            log.exception("unhandled error on the connection from %s", client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    @property
    def endpoint(self) -> str:
        return f"{self.server_address[0]}:{self.server_address[1]}"

    def start(self) -> "WireServer":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and close every open connection, idle ones
        included, so no pooled client is answered any more. Returns once
        every handler has ended, or after 5 s."""
        self.shutdown()
        with self._open_lock:
            open_now = dict(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass
        self.server_close()
        deadline = time.monotonic() + 5
        for thread in (self._thread, *open_now.values()):
            if thread is not None:
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
                doc = json.loads(data)
                code, detail = doc["error"], doc.get("detail", "")
            except (ValueError, KeyError, TypeError):
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
