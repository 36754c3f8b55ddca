"""Wire protocol: routes, status mapping, raw-body fidelity, headers."""

from __future__ import annotations

import concurrent.futures
import json
import re
import socket
import threading
import time
import urllib.parse
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    ACL_ALICE_ALL,
    EXPECTED_ELEMENTS,
    MARC_FIXTURE,
    acl_bytes,
    make_wire_federation,
    probe,
    quote,
    wire_marc_object,
)
from objrepo.api import NAMING_OPS, REPOSITORY_OPS
from objrepo.errors import (
    BY_CODE,
    AccessDenied,
    AlreadyRegistered,
    DigestMismatch,
    NamingUnavailable,
    NoSuchObject,
    NotRegistered,
    TargetUnreachable,
    UnresolvableType,
    http_status,
)
from objrepo.naming import NamingConfig, NamingService
from objrepo.wire import (
    NAMING_ROUTES,
    NamingClient,
    RepositoryClient,
    WireServer,
    _Handler,
    serve_naming,
)


def test_walkthrough_over_the_wire(wire_federation):
    fed = wire_federation
    client = fed.clients[0]
    name = wire_marc_object(fed)

    assert client.list_types(name) == [fed.types["type-dc"]]
    methods = client.list_methods(name, fed.types["type-dc"])
    assert [m["name"] for m in methods] == ["getDCField", "getDCRecord"]
    mime, data = client.get_dissemination(
        name, fed.types["type-dc"], "getDCField", {"field": "Creator"}, principal="alice"
    )
    assert (mime, data) == ("text/plain", EXPECTED_ELEMENTS["Creator"])
    with pytest.raises(AccessDenied):
        client.get_dissemination(
            name, fed.types["type-dc"], "getDCField", {"field": "Creator"}, principal="mallory"
        )


def test_method_listing_alias_route(wire_federation):
    fed = wire_federation
    name = wire_marc_object(fed)
    canonical = fed.clients[0].list_methods(name, fed.types["type-dc"])
    query = urllib.parse.urlencode({"type": fed.types["type-dc"]})
    status, alias = probe(
        fed.servers[0].endpoint, "GET", f"/objects/{quote(name)}/get-disseminator-methods?{query}"
    )
    assert (status, alias) == (200, {"methods": canonical})


def test_missing_principal_header_means_anonymous(wire_federation):
    fed = wire_federation
    open_acl = acl_bytes(
        entries=[{"principal": "anonymous", "methods": ["*"], "effect": "allow", "transforms": []}]
    )
    name = wire_marc_object(fed, acl=open_acl)
    query = urllib.parse.urlencode({"type": fed.types["type-dc"], "method": "getDCRecord"})
    path = f"/objects/{quote(name)}/dissemination?{query}"
    assert probe(fed.servers[0].endpoint, "GET", path)[0] == 200
    status, doc = probe(fed.servers[0].endpoint, "GET", path, headers={"X-Principal": "mallory"})
    assert status == 403
    assert doc["error"] == "ACCESS_DENIED"


def test_datastream_raw_round_trip(wire_federation):
    fed = wire_federation
    client = fed.clients[0]
    payload = bytes(range(256)) * 17
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/octet-stream", payload)
    name = client.deposit(handle)
    mime, data = client.get_datastream_content(name, ds)
    assert (mime, data) == ("application/octet-stream", payload)
    listing = client.get_datastreams(name)
    assert listing == [{"id": ds, "mime": "application/octet-stream", "length": len(payload)}]


def test_dissemination_bytes_match_in_process(wire_federation):
    fed = wire_federation
    name = wire_marc_object(fed)
    wire_out = fed.clients[0].get_dissemination(
        name, fed.types["type-dc"], "getDCRecord", {}, principal="alice"
    )
    local_out = fed.repos[0].access(name).get_dissemination(
        fed.types["type-dc"], "getDCRecord", {}, "alice"
    )
    assert wire_out == local_out


def test_disseminator_descriptors_over_wire(wire_federation):
    fed = wire_federation
    name = wire_marc_object(fed)
    descriptors = fed.clients[0].get_disseminators(name)
    assert descriptors == [
        {
            "id": "DISS1",
            "kind": "CONTENT",
            "content_type": fed.types["type-dc"],
            "servlet": fed.types["mech-marc2dc"],
            "bindings": {"marc": ["DS1"]},
            "has_access_manager": True,
        }
    ]


def test_access_manager_routes(wire_federation):
    fed = wire_federation
    client = fed.clients[0]
    name = wire_marc_object(fed, acl=None)
    assert client.get_access_manager(name, "DISS1") is None
    # Bindings must point at streams inside the object.
    status, doc = probe(
        fed.servers[0].endpoint,
        "POST",
        f"/objects/{quote(name)}/access-managers",
        json.dumps(
            {"target": "DISS1", "scheme": fed.types["acl-v1"], "bindings": {"acl": ["DS9"]}}
        ).encode(),
    )
    assert status == 400
    assert doc["error"] == "ATTACHMENT_VIOLATION"


def test_set_access_manager_post_deposit(wire_federation):
    fed = wire_federation
    client = fed.clients[0]
    # Build an object that carries its ACL stream from the start but attach
    # the manager only after deposit.
    handle = client.create_object()
    ds_marc = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", ACL_ALICE_ALL)
    diss = client.add_disseminator(
        handle, fed.types["type-dc"], fed.types["mech-marc2dc"], {"marc": [ds_marc]}
    )
    name = client.deposit(handle)
    am_id = client.set_access_manager(name, diss, fed.types["acl-v1"], {"acl": [ds_acl]})
    descriptor = client.get_access_manager(name, diss)
    assert descriptor["id"] == am_id and descriptor["scheme"] == fed.types["acl-v1"]
    with pytest.raises(AccessDenied):
        client.get_dissemination(name, fed.types["type-dc"], "getDCRecord", {}, principal="mallory")


def test_replicate_and_move_over_wire(wire_federation):
    fed = wire_federation
    client0, client1 = fed.clients
    name = wire_marc_object(fed)
    client0.replicate(name, fed.servers[1].endpoint)
    assert fed.naming_client.resolve(name) == [fed.servers[0].endpoint, fed.servers[1].endpoint]
    a = client0.get_dissemination(name, fed.types["type-dc"], "getDCRecord", {}, principal="alice")
    b = client1.get_dissemination(name, fed.types["type-dc"], "getDCRecord", {}, principal="alice")
    assert a == b

    client0.delete(name)
    assert fed.naming_client.resolve(name) == [fed.servers[1].endpoint]
    client1.move(name, fed.servers[0].endpoint)
    assert fed.naming_client.resolve(name) == [fed.servers[0].endpoint]
    with pytest.raises(NoSuchObject):
        client1.get_datastreams(name)


def test_receive_manifest_rejects_bad_digest(wire_federation):
    fed = wire_federation
    name = wire_marc_object(fed)
    manifest = bytearray(fed.repos[0].store.read_bytes(name))
    at = manifest.index(b'"content_b64":"') + len(b'"content_b64":"')
    manifest[at] = ord("B") if manifest[at : at + 1] == b"A" else ord("A")
    with pytest.raises(DigestMismatch):
        fed.clients[1].receive_manifest(bytes(manifest))
    assert not fed.repos[1].contains(name)  # nothing persisted


def test_naming_wire_operations(wire_federation):
    fed = wire_federation
    nc = fed.naming_client
    nc.register("urn:test:wire-name", "a.local:81")
    with pytest.raises(AlreadyRegistered):
        nc.register("urn:test:wire-name", "a.local:81")
    nc.add_location("urn:test:wire-name", "b.local:82")
    assert nc.resolve("urn:test:wire-name") == ["a.local:81", "b.local:82"]
    nc.remove_location("urn:test:wire-name", "a.local:81")
    nc.remove_location("urn:test:wire-name", "b.local:82")
    with pytest.raises(NotRegistered):
        nc.resolve("urn:test:wire-name")


def test_status_mapping(wire_federation):
    fed = wire_federation
    endpoint = fed.servers[0].endpoint
    name = wire_marc_object(fed)
    quoted = quote(name)

    cases = [
        ("GET", "/objects/urn%3Atest%3Anope/types", None, 404, "NO_SUCH_OBJECT"),
        ("GET", f"/objects/{quoted}/datastreams/DS99", None, 404, "NO_SUCH_DATASTREAM"),
        ("GET", f"/objects/{quoted}/methods?type=urn%3Atest%3Aother", None, 404,
         "NO_SUCH_TYPE_ON_OBJECT"),
        ("GET", f"/objects/{quoted}/dissemination?type={quoted}", None, 400, "BAD_ARGUMENTS"),
        ("GET", "/nowhere", None, 404, "NOT_FOUND"),
        ("POST", f"/objects/{quoted}/replicate", {"target": "off.local:9"}, 502,
         "TARGET_UNREACHABLE"),
        ("POST", f"/objects/{quoted}/replicate", {"target": fed.servers[0].endpoint}, 409,
         "ALREADY_PRESENT"),
    ]
    for method, path, body, status, code in cases:
        got = probe(endpoint, method, path, json.dumps(body).encode() if body is not None else None)
        assert (got[0], got[1]["error"]) == (status, code), path

    # Content-Type is mandatory for stream uploads.
    handle = fed.clients[0].create_object()
    status, doc = probe(
        endpoint, "POST", f"/staging/{handle}/datastreams", b"x", headers={"Content-Type": ""}
    )
    assert (status, doc["error"]) == (400, "MALFORMED_MIME")


def test_unresolvable_type_maps_502(wire_federation):
    fed = wire_federation
    client = fed.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    with pytest.raises(UnresolvableType):
        client.add_disseminator(handle, "urn:test:ghost-type", "urn:test:ghost-mech", {"marc": [ds]})
    status, _ = probe(
        fed.servers[0].endpoint,
        "POST",
        f"/staging/{handle}/disseminators",
        json.dumps(
            {"content_type": "urn:test:ghost", "servlet": "urn:test:ghost", "bindings": {}}
        ).encode(),
    )
    assert status == 502


def test_malformed_request_bodies(wire_federation):
    fed = wire_federation
    handle = fed.clients[0].create_object()
    status, doc = probe(
        fed.servers[0].endpoint, "POST", f"/staging/{handle}/disseminators", b"{not json"
    )
    assert (status, doc["error"]) == (400, "BAD_ARGUMENTS")


#: request bodies that ``json.loads`` recurses on or cannot convert
PARSER_ESCAPES = {
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": b'{"target": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("escape", sorted(PARSER_ESCAPES))
def test_parser_escapes_in_request_bodies_get_400(wire_federation, escape):
    fed = wire_federation
    name = wire_marc_object(fed, acl=None)
    for endpoint, method, path in [
        (fed.naming_server.endpoint, "PUT", "/names/urn%3Atest%3Aescape"),
        (fed.servers[0].endpoint, "POST", f"/objects/{quote(name)}/replicate"),
    ]:
        status, doc = probe(endpoint, method, path, PARSER_ESCAPES[escape])
        assert (status, doc["error"]) == (400, "BAD_ARGUMENTS"), path
    with pytest.raises(NotRegistered):
        fed.naming_client.resolve("urn:test:escape")


def test_request_body_with_an_unknown_field_gets_400(wire_federation):
    fed = wire_federation
    body = json.dumps({"location": "a.local:81", "locaton": "b.local:82"}).encode()
    status, doc = probe(fed.naming_server.endpoint, "PUT", "/names/urn%3Atest%3Atypo", body)
    assert (status, doc["error"]) == (400, "BAD_ARGUMENTS")
    with pytest.raises(NotRegistered):
        fed.naming_client.resolve("urn:test:typo")


def test_deeply_nested_acl_gets_malformed_acl(wire_federation):
    fed = wire_federation
    name = wire_marc_object(fed, acl=PARSER_ESCAPES["deep-nesting"])
    query = urllib.parse.urlencode({"type": fed.types["type-dc"], "method": "getDCRecord"})
    status, doc = probe(
        fed.servers[0].endpoint, "GET", f"/objects/{quote(name)}/dissemination?{query}",
        headers={"X-Principal": "alice"},
    )
    assert (status, doc["error"]) == (400, "MALFORMED_ACL")


def _raw_exchange(endpoint: str, request: bytes) -> bytes:
    """Send raw bytes on a connection of their own; everything the server
    sends until it closes."""
    host, port = endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def _envelope_of(reply: bytes) -> tuple[bytes, dict]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, json.loads(body)


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_gets_envelope_and_close(wire_federation, length):
    request = (
        f"POST /staging HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
    )
    head, doc = _envelope_of(_raw_exchange(wire_federation.servers[0].endpoint, request))
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert doc["error"] == "BAD_ARGUMENTS"


def test_protocol_doc_routes_match_operation_table():
    """Every route in docs/protocol.md is a row of the table, and back."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    documented = {
        (verb, re.sub(r"\{(h|urn|id|location)\}", "{}", path))
        for verb, path in re.findall(r"^\| `(GET|POST|PUT|DELETE) ([^`?]+)[^`]*` \|", doc, re.M)
    }
    table = {
        (op.verb, re.sub(r"\{\w+\}", "{}", path))
        for op in REPOSITORY_OPS + NAMING_OPS
        for path in op.paths
    }
    assert len(documented) == 22
    assert documented == table


def test_protocol_doc_error_statuses_match_errors():
    """The error-envelope table lists every code once, with its status."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    section = doc.split("## Error envelope", 1)[1].split("\n## ", 1)[0]
    documented = [
        (code, int(status))
        for status, codes in re.findall(r"^\| ([0-9]{3}) \| (.*) \|$", section, re.M)
        for code in re.findall(r"`([A-Z_]+)`", codes)
    ]
    assert len(documented) == len(dict(documented))
    assert set(dict(documented)) == set(BY_CODE) | {"INTERNAL"}
    assert documented == [(code, http_status(code)) for code, _ in documented]


def test_content_disseminator_without_servlet_gets_400(wire_federation):
    fed = wire_federation
    client = fed.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    body = json.dumps({"content_type": fed.types["type-dc"], "bindings": {"marc": [ds]}}).encode()
    status, reply = probe(
        fed.servers[0].endpoint, "POST", f"/staging/{handle}/disseminators", body,
        {"Content-Type": "application/json"},
    )
    assert (status, reply["error"]) == (400, "BAD_ARGUMENTS")


def test_concurrent_wire_reads(wire_federation):
    fed = wire_federation
    name = wire_marc_object(fed)
    client = fed.clients[0]

    def fetch(_):
        return client.get_dissemination(
            name, fed.types["type-dc"], "getDCRecord", {}, principal="alice"
        )

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(fetch, range(24)))
    assert len(set(results)) == 1


# ---------------------------------------------------------------------------
# connections


@pytest.fixture
def naming_server(tmp_path):
    server, service = serve_naming(
        NamingConfig(listen_endpoint="127.0.0.1:0", journal_path=str(tmp_path / "naming.jsonl"))
    )
    yield server, service
    server.stop()


def test_transfer_encoding_is_refused_before_the_body(naming_server):
    server, service = naming_server
    smuggled = json.dumps({"location": "evil.local:1"}).encode()
    inner = (
        b"PUT /names/urn%3Ax%3Asmuggled HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(smuggled)}\r\n\r\n".encode()
        + smuggled
    )
    request = (
        b"GET /names/urn%3Ax%3Aother HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n" + inner
    )
    head, doc = _envelope_of(_raw_exchange(server.endpoint, request))
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert doc["error"] == "BAD_ARGUMENTS"
    with pytest.raises(NotRegistered):
        service.resolve("urn:x:smuggled")


def test_stalled_body_gets_envelope_and_close(naming_server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    request = b"PUT /names/urn%3Ax%3Aslow HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n{"
    head, doc = _envelope_of(_raw_exchange(naming_server[0].endpoint, request))
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert doc["error"] == "BAD_ARGUMENTS"


@pytest.mark.parametrize(
    "request_bytes, status, code",
    [
        (b"PATCH /names/urn%3Ax%3Ay HTTP/1.1\r\nHost: x\r\n\r\n", 404, "NOT_FOUND"),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\nHost: x\r\n\r\n", 400, "BAD_ARGUMENTS"),
        (b"GARBAGE\r\n\r\n", 400, "BAD_ARGUMENTS"),
        (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 400, "BAD_ARGUMENTS"),
        (b"GET /names/urn%3Ax%3Ay\r\n\r\n", 404, "NOT_REGISTERED"),  # HTTP/0.9 request line
    ],
    ids=["unsupported-verb", "uri-too-long", "no-version", "too-many-headers", "http-0.9"],
)
def test_requests_the_parser_refuses_get_the_envelope(naming_server, request_bytes, status, code):
    head, doc = _envelope_of(_raw_exchange(naming_server[0].endpoint, request_bytes))
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"Connection: close" in head
    assert doc["error"] == code
    if code == "NOT_FOUND":
        assert doc["detail"] == "no route PATCH /names/urn%3Ax%3Ay"


class _CountingServer(WireServer):
    def __init__(self, *args):
        super().__init__(*args)
        self.accepted = 0

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)


def test_fresh_clients_on_one_thread_share_one_connection():
    server = _CountingServer("127.0.0.1", 0, NAMING_ROUTES, NamingService(), 4).start()
    try:
        server.context.register("urn:x:pooled", "a.local:1")
        for _ in range(20):
            assert NamingClient(server.endpoint).resolve("urn:x:pooled") == ["a.local:1"]
        NamingClient(server.endpoint).add_location("urn:x:pooled", "b.local:2")
        assert server.accepted == 1
    finally:
        server.stop()


def test_server_restarted_on_the_same_port(tmp_path):
    config = NamingConfig(listen_endpoint="127.0.0.1:0", journal_path=str(tmp_path / "n.jsonl"))
    server, _ = serve_naming(config)
    client = NamingClient(server.endpoint)
    client.register("urn:x:restart", "a.local:1")
    server.stop()
    server, _ = serve_naming(replace(config, listen_endpoint=server.endpoint))
    try:
        assert client.resolve("urn:x:restart") == ["a.local:1"]  # GET
        server.stop()
        server, _ = serve_naming(replace(config, listen_endpoint=server.endpoint))
        client.add_location("urn:x:restart", "b.local:2")  # POST
        assert client.resolve("urn:x:restart") == ["a.local:1", "b.local:2"]
    finally:
        server.stop()


def _drop_first(monkeypatch, verb: str) -> list[str]:
    """Make the server drop the connection, unanswered, on the first request
    with this verb it has read; returns the requests it read with that verb."""
    seen = []
    send = _Handler._send

    def dropping_send(self, *reply):
        if self.command != verb:
            return send(self, *reply)
        seen.append(self.path)
        if len(seen) > 1:
            return send(self, *reply)
        self.close_connection = True
        self.connection.shutdown(socket.SHUT_RDWR)

    monkeypatch.setattr(_Handler, "_send", dropping_send)
    return seen


def test_dropped_post_is_not_sent_again(wire_federation, monkeypatch):
    client = RepositoryClient(wire_federation.servers[0].endpoint)
    with pytest.raises(NoSuchObject):  # leaves a pooled connection behind
        client.list_types("urn:test:nothing")
    seen = _drop_first(monkeypatch, "POST")
    with pytest.raises(TargetUnreachable):
        client.create_object()
    assert seen == ["/staging"]


def test_dropped_get_on_a_reused_connection_is_retried_once(wire_federation, monkeypatch):
    client = RepositoryClient(wire_federation.servers[0].endpoint)
    handle = client.create_object()  # leaves a pooled connection behind
    name = client.deposit(handle)
    seen = _drop_first(monkeypatch, "GET")
    assert client.list_types(name) == []
    assert len(seen) == 2


def test_stopped_server_answers_no_pooled_client(tmp_path):
    fed = make_wire_federation(tmp_path, n_repos=1, with_types=False)
    fed.naming_service.register("urn:x:stop", "a.local:1")
    assert fed.naming_client.resolve("urn:x:stop") == ["a.local:1"]
    assert fed.clients[0].get_datastreams(fed.repos[0].deposit(fed.repos[0].create_object())) == []
    fed.stop()
    with pytest.raises(NamingUnavailable):
        fed.naming_client.resolve("urn:x:stop")
    with pytest.raises(TargetUnreachable):
        fed.clients[0].create_object()


def test_stop_returns_once_a_call_in_progress_has_finished(naming_server, monkeypatch):
    server, service = naming_server
    started, finished = threading.Event(), threading.Event()
    register = service.register

    def slow_register(name, location):
        started.set()
        time.sleep(0.5)
        register(name, location)
        finished.set()

    monkeypatch.setattr(service, "register", slow_register)

    def call():
        try:
            NamingClient(server.endpoint).register("urn:x:slow", "a.local:1")
        except NamingUnavailable:  # stop() closes the connection before the reply
            pass

    caller = threading.Thread(target=call)
    caller.start()
    assert started.wait(5)
    server.stop()
    assert finished.is_set()
    caller.join(5)
    assert not caller.is_alive()


def test_a_burst_of_connects_is_not_held_back(naming_server):
    host, port = naming_server[0].endpoint.rsplit(":", 1)
    socks = []
    try:
        for _ in range(40):
            started = time.monotonic()
            socks.append(socket.create_connection((host, int(port)), timeout=10))
            assert time.monotonic() - started < 0.5  # a resent SYN waits a second
    finally:
        for sock in socks:
            sock.close()


def test_idle_connections_are_closed_by_the_server(naming_server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    host, port = naming_server[0].endpoint.rsplit(":", 1)
    before = threading.active_count()
    socks = []
    try:
        for _ in range(12):
            socks.append(socket.create_connection((host, int(port)), timeout=10))
            socks[-1].sendall(b"GET /names/urn%3Ax%3Aidle HTTP/1.1\r\nHost: x\r\n\r\n")
        for sock in socks:
            reply = b""
            while chunk := sock.recv(4096):  # the reply, then the server's close
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 404 ")
        deadline = time.monotonic() + 10
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert threading.active_count() <= before
    finally:
        for sock in socks:
            sock.close()
