"""Wire protocol: routes, status mapping, raw-body fidelity, headers."""

from __future__ import annotations

import concurrent.futures
import contextlib
import importlib
import itertools
import json
import logging
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from conftest import (
    ACL_ALICE_ALL,
    EXPECTED_ELEMENTS,
    MARC_FIXTURE,
    acl_bytes,
    make_federation,
    make_wire_federation,
    probe,
    quote,
    wire_marc_object,
)
from objrepo.api import NAMING_OPS, REPOSITORY_OPS
from objrepo.canonical import canonical_bytes
from objrepo.errors import (
    BY_CODE,
    AccessDenied,
    AlreadyPresent,
    AlreadyRegistered,
    BadArguments,
    BodyTooLarge,
    DigestMismatch,
    NamingUnavailable,
    NoSuchHandle,
    NoSuchObject,
    NotRegistered,
    ObjectRepositoryError,
    TargetUnreachable,
    UnresolvableType,
    http_status,
)
from objrepo.kernel import PRIMITIVE_TARGET
from objrepo import wire
from objrepo.naming import NamingConfig, NamingService
from objrepo.wire import (
    MAX_BODY_BYTES,
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
    local_out = fed.repos[0].run(
        name, "get_dissemination", fed.types["type-dc"], "getDCRecord", {}, principal="alice"
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


def test_a_move_to_an_alias_of_its_own_endpoint_is_refused_at_once(wire_federation):
    """Its own server is asked to receive an object that the move holds
    locked: it answers ALREADY_PRESENT at once, as for a replicate, instead
    of waiting on that lock until the client gives up."""
    fed = wire_federation
    name = wire_marc_object(fed)
    alias = "localhost:" + fed.servers[0].endpoint.rsplit(":", 1)[1]
    client = RepositoryClient(fed.servers[0].endpoint, timeout=3.0)
    for call in (client.replicate, client.move):
        with pytest.raises(AlreadyPresent):
            call(name, alias)
    assert fed.naming_client.resolve(name) == [fed.servers[0].endpoint]
    assert fed.repos[0].contains(name)


@contextlib.contextmanager
def _fake_peer(reply: bytes):
    """A loopback listener that reads each request and answers it with the
    raw ``reply`` bytes; yields its endpoint."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # shut down
                return
            with conn, conn.makefile("rb") as rfile:
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                rfile.read(length)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        thread.join(5)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "body",
    [b'{"error": ["x"]}', b'{"error": {"code": "NOT_FOUND"}}', b'{"error": null}', b"[" * 10000],
    ids=["list", "object", "null", "deeply-nested"],
)
def test_a_peer_error_reply_that_is_no_envelope_is_internal(wire_federation, body):
    """A replicate target is any endpoint a client names. An error reply
    whose code is no string is INTERNAL with the body as its detail, at the
    client and through the source of a replicate, which logs nothing."""
    fed = wire_federation
    name = wire_marc_object(fed)
    reply = (
        b"HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
    ) + body
    with _fake_peer(reply) as peer:
        with pytest.raises(ObjectRepositoryError) as at_client:
            RepositoryClient(peer).receive_manifest(b"{}")
        with pytest.raises(ObjectRepositoryError) as through_replicate:
            fed.clients[0].replicate(name, peer)
    assert (at_client.value.code, str(at_client.value)) == ("INTERNAL", body.decode())
    assert (through_replicate.value.code, str(through_replicate.value)) == ("INTERNAL", body.decode())
    assert fed.naming_client.resolve(name) == [fed.servers[0].endpoint]


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


def _read_reply(rfile) -> tuple[int, dict, bytes]:
    """One reply from a connection's reader: status, headers by lower-cased
    name, and the body its Content-Length frames."""
    status = int(rfile.readline().split()[1])
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, rfile.read(int(headers["content-length"]))


def _get(path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    return "\r\n".join([f"GET {path} {version}", "Host: x", *headers, "", ""]).encode()


@pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0"])
def test_malformed_content_length_gets_envelope_and_close(wire_federation, length):
    request = (
        f"POST /staging HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
    )
    head, doc = _envelope_of(_raw_exchange(wire_federation.servers[0].endpoint, request))
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert doc["error"] == "BAD_ARGUMENTS"


@pytest.mark.parametrize("args, kwargs, problem", [
    (("h",), {}, "missing"),
    (("h", "text/plain", b"x"), {"colour": "red"}, "unexpected keyword argument 'colour'"),
    (("h", "text/plain", b"x"), {"mime": "text/plain"}, "multiple values for argument 'mime'"),
    (("h", "text/plain", b"x", "alice", "extra"), {}, "positional arguments"),
])
def test_a_client_call_is_bound_like_a_method_call(args, kwargs, problem):
    """A row's client method takes its arguments as a plain method would,
    and a call it refuses sends nothing."""

    class Unsent(RepositoryClient):
        def _call(self, op, values):
            raise AssertionError(f"sent {op.name}{values}")

    with pytest.raises(TypeError, match=problem):
        Unsent("127.0.0.1:1").add_datastream(*args, **kwargs)


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


def test_builtin_disseminator_naming_another_servlet_gets_400(wire_federation, tmp_path):
    """A built-in kind's servlet is its reserved URN: naming another one is
    refused in process and over the wire, and nothing is created."""
    signature = "urn:fedora-builtin:signature"
    doc = canonical_bytes({"type_name": "T", "methods": []})
    local = make_federation(tmp_path / "local", with_types=False)
    for client, over_wire in ((local.client(), False), (wire_federation.clients[0], True)):
        handle = client.create_object()
        ds = client.add_datastream(handle, "application/x-fedora-signature+json", doc)
        body = {"content_type": signature, "servlet": "urn:x:other",
                "bindings": {"signature": [ds]}}
        if over_wire:
            status, reply = probe(
                wire_federation.servers[0].endpoint, "POST", f"/staging/{handle}/disseminators",
                json.dumps(body).encode(), {"Content-Type": "application/json"},
            )
            assert (status, reply["error"]) == (400, "BAD_ARGUMENTS")
        else:
            with pytest.raises(BadArguments):
                client.add_disseminator(handle, **body)
        assert client.get_disseminators(client.deposit(handle)) == []


def test_add_disseminator_checks_its_kind_after_the_handle_and_the_access_check(
        wire_federation, tmp_path):
    """An unknown kind is refused where the row's other arguments are: after
    the handle is found and the staged object's primitive manager allows
    the caller, in process and over the wire alike."""
    local = make_federation(tmp_path / "local")
    for client, types in ((local.client(), local.types),
                          (wire_federation.clients[0], wire_federation.types)):
        with pytest.raises(NoSuchHandle):
            client.add_disseminator("0" * 32, types["type-dc"], kind="BOGUS")
        handle = client.create_object()
        acl = client.add_datastream(handle, "application/x-fedora-acl+json", ACL_ALICE_ALL)
        client.set_access_manager_staged(handle, PRIMITIVE_TARGET, types["acl-v1"], {"acl": [acl]})
        with pytest.raises(AccessDenied):
            client.add_disseminator(handle, types["type-dc"], kind="BOGUS", principal="mallory")
        with pytest.raises(BadArguments):
            client.add_disseminator(handle, types["type-dc"], kind="BOGUS", principal="alice")


#: the first argument's value and the code it gets, for each row whose first
#: argument is a handle or a name in the path
LOOKUPS = {
    "handle": {"unknown handle": ("0" * 32, "NO_SUCH_HANDLE")},
    "name": {"malformed name": ("not a urn", "BAD_ARGUMENTS"),
             "unknown name": ("urn:test:nope", "NO_SUCH_OBJECT")},
}


def lookup_codes(client, other_endpoint: str) -> dict:
    """The code each :data:`LOOKUPS` case gets from each row, or "ok"; the
    other arguments are well formed."""
    values = {"mime": "text/plain", "content": b"x", "content_type": "urn:test:type",
              "servlet": "urn:test:mech", "scheme": "urn:test:scheme", "ds_id": "DS1",
              "type_urn": "urn:test:type", "method": "m", "args": {}}
    codes = {}
    for op in REPOSITORY_OPS:
        first = op.args[0] if op.args else None
        if first is None or first.where != "path" or first.name not in LOOKUPS:
            continue
        given = {a.name: values.get(a.name) for a in op.args[1:] if a.where != "x-principal"}
        if "target" in given:
            given["target"] = other_endpoint if op.name in ("replicate", "move") else "PRIMITIVE"
        for case, (key, _) in LOOKUPS[first.name].items():
            try:
                getattr(client, op.name)(key, **given)
                codes[op.name, case] = "ok"
            except ObjectRepositoryError as exc:
                codes[op.name, case] = exc.code
    return codes


def test_lookup_errors_agree_in_process_and_over_the_wire(wire_federation, tmp_path):
    local = make_federation(tmp_path / "local", n_repos=2, with_types=False)
    in_process = lookup_codes(local.client(0), local.repos[1].endpoint)
    over_wire = lookup_codes(wire_federation.clients[0], wire_federation.servers[1].endpoint)
    assert in_process == over_wire
    expected = {case: code for cases in LOOKUPS.values() for case, (_, code) in cases.items()}
    assert {key: expected[key[1]] for key in in_process} == in_process
    assert len(in_process) == 4 + 11 * 2  # four handle rows, eleven name rows


def test_no_stdlib_http_server_is_imported():
    """The services serve HTTP themselves: importing the CLI, which starts
    them, loads neither ``http.server`` nor ``socketserver``."""
    code = "import sys, objrepo.cli; print(sorted({'http.server', 'socketserver'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_benchmark_trace_boundaries_resolve():
    """Every function the benchmark's tracer wraps (``perfbench/spans.py``)
    exists, so renaming one fails here instead of being traced as absent."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spans = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)  # read-only: no bytecode cache
    boundaries = [*(b for layer in spans["BOUNDARIES"].values() for b in layer),
                  spans["CLIENT_INGEST"]]
    missing = []
    for module, owner, attr, *_ in boundaries:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{module}:{owner or ''}.{attr}")
    assert len(boundaries) > 20
    assert missing == []


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


def _held(call, barrier: threading.Barrier):
    """``call``, with its first ``barrier.parties`` calls held until all of
    them have arrived (or the barrier times out)."""
    tickets = itertools.count()

    def held(*args):
        if next(tickets) < barrier.parties:
            barrier.wait()
        return call(*args)

    return held


def _concurrently(calls) -> tuple[list, float]:
    """Run each call on a thread of its own; (results or errors, seconds)."""

    def attempt(call):
        try:
            return call()
        except ObjectRepositoryError as exc:
            return exc

    started = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(calls)) as pool:
        results = list(pool.map(attempt, calls))
    return results, time.monotonic() - started


def test_cold_cache_disseminations_resolving_types_from_their_own_server(
    wire_federation, monkeypatch
):
    """Each dissemination fetches its types over HTTP from the server that is
    serving it. Eight, held at their first type lookup until all have
    arrived, must not wait on each other."""
    fed = wire_federation
    name = wire_marc_object(fed, acl=None)
    endpoint = fed.servers[0].endpoint
    expected = fed.clients[0].get_dissemination(name, fed.types["type-dc"], "getDCRecord", {})
    resolver = fed.repos[0].resolver
    resolver.flush_cache()
    # held on entry to the resolver: the lookups then share one fetch per document
    held = _held(resolver._resolve, threading.Barrier(8, timeout=5))
    monkeypatch.setattr(resolver, "_resolve", held)

    def disseminate():
        client = RepositoryClient(endpoint, timeout=3.0)
        return client.get_dissemination(name, fed.types["type-dc"], "getDCRecord", {})

    results, seconds = _concurrently([disseminate] * 8)
    assert results == [expected] * 8
    assert seconds < 2


def test_repositories_replicating_to_each_other_all_complete(wire_federation, monkeypatch):
    """Eight replicates each way, each held just before its push to the peer
    until all sixteen have arrived: every one completes, and every name
    then resolves to both repositories."""
    fed = wire_federation
    endpoints = [server.endpoint for server in fed.servers]
    calls, expected = [], {}
    for source, target in ((0, 1), (1, 0)):
        for i in range(8):
            handle = fed.clients[source].create_object()
            fed.clients[source].add_datastream(handle, "text/plain", f"{source}-{i}".encode())
            name = fed.clients[source].deposit(handle)
            client = RepositoryClient(endpoints[source], timeout=3.0)
            calls.append(partial(client.replicate, name, endpoints[target]))
            expected[name] = [endpoints[source], endpoints[target]]
    held = _held(RepositoryClient.receive_manifest, threading.Barrier(16, timeout=5))
    monkeypatch.setattr(RepositoryClient, "receive_manifest", held)

    results, seconds = _concurrently(calls)
    assert results == [None] * 16
    assert seconds < 2
    assert {name: fed.naming_client.resolve(name) for name in expected} == expected


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


@pytest.mark.parametrize("length", [str(MAX_BODY_BYTES + 1), "1099511627776", "9" * 5000])
def test_an_oversized_body_is_refused_unread_with_413_and_close(naming_server, length):
    server, service = naming_server
    request = (f"PUT /names/urn%3Ax%3Abig HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {length}\r\n\r\n").encode()
    head, doc = _envelope_of(_raw_exchange(server.endpoint, request))
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in head
    assert doc["error"] == "BODY_TOO_LARGE"
    with pytest.raises(NotRegistered):
        service.resolve("urn:x:big")


def test_a_client_that_sends_an_oversized_body_whole_reads_the_413(naming_server, monkeypatch):
    """The server lingers: it reads and drops the body it refused, so the
    connection is not reset while the client is still sending."""
    monkeypatch.setattr(wire, "MAX_BODY_BYTES", 1000)
    server, service = naming_server
    body = b"x" * (4 * 1024 * 1024)
    request = (f"PUT /names/urn%3Ax%3Abig HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    head, doc = _envelope_of(_raw_exchange(server.endpoint, request))
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in head
    assert doc["error"] == "BODY_TOO_LARGE"
    with pytest.raises(NotRegistered):
        service.resolve("urn:x:big")


def test_a_client_refuses_an_oversized_body_before_sending_it(wire_federation, monkeypatch):
    monkeypatch.setattr(wire, "MAX_BODY_BYTES", 200)
    fed = wire_federation
    client = fed.clients[0]
    handle = client.create_object()
    with pytest.raises(BodyTooLarge):
        client.add_datastream(handle, "text/plain", b"x" * 201)
    client.add_datastream(handle, "text/plain", b"x" * 200)
    name = client.deposit(handle)
    with pytest.raises(BodyTooLarge):  # the manifest the source would send is larger
        client.replicate(name, fed.servers[1].endpoint)
    assert fed.naming_client.resolve(name) == [fed.servers[0].endpoint]
    assert not fed.repos[1].contains(name)


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


def test_pipelined_requests_are_answered_in_order(naming_server):
    server, service = naming_server
    service.register("urn:x:first", "a.local:1")
    service.register("urn:x:second", "b.local:2")
    host, port = server.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(_get("/names/urn%3Ax%3Afirst") + _get("/names/urn%3Ax%3Asecond"))
        with sock.makefile("rb") as rfile:
            replies = [_read_reply(rfile) for _ in range(2)]
    assert [(status, json.loads(body)["locations"]) for status, _, body in replies] == [
        (200, ["a.local:1"]), (200, ["b.local:2"])
    ]
    assert all(h["server"] == "objrepo" and h["date"].endswith(" GMT") for _, h, _ in replies)


def test_header_names_are_matched_in_any_case(wire_federation):
    fed = wire_federation
    body = json.dumps({"location": "a.local:1"}).encode()
    request = (
        b"PUT /names/urn%3Ax%3Acase HTTP/1.1\r\nhost: x\r\n"
        + f"content-length: {len(body)}\r\nconnection: CLOSE\r\n\r\n".encode() + body
    )
    assert _raw_exchange(fed.naming_server.endpoint, request).startswith(b"HTTP/1.1 200 ")
    assert fed.naming_client.resolve("urn:x:case") == ["a.local:1"]
    name = wire_marc_object(fed)  # readable by alice only
    query = urllib.parse.urlencode({"type": fed.types["type-dc"], "method": "getDCRecord"})
    path = f"/objects/{quote(name)}/dissemination?{query}"
    for principal, status in (("alice", 200), ("mallory", 403)):
        reply = _raw_exchange(
            fed.servers[0].endpoint, _get(path, f"x-principal: {principal}", "Connection: close")
        )
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), principal


def test_http_1_0_closes_after_its_reply_unless_kept_alive(naming_server):
    server, service = naming_server
    service.register("urn:x:old", "a.local:1")
    reply = _raw_exchange(server.endpoint, _get("/names/urn%3Ax%3Aold", version="HTTP/1.0"))
    assert reply.startswith(b"HTTP/1.1 200 ") and b"Connection: close" in reply
    host, port = server.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        with sock.makefile("rb") as rfile:
            for _ in range(2):
                sock.sendall(
                    _get("/names/urn%3Ax%3Aold", "Connection: keep-alive", version="HTTP/1.0")
                )
                status, headers, _ = _read_reply(rfile)
                assert status == 200 and "connection" not in headers


def test_connection_close_is_honoured(naming_server):
    reply = _raw_exchange(naming_server[0].endpoint, _get("/names/urn%3Ax%3Ay", "Connection: close"))
    head, doc = _envelope_of(reply)  # read to the server's close
    assert head.startswith(b"HTTP/1.1 404 ") and b"Connection: close" in head
    assert doc["error"] == "NOT_REGISTERED"


def test_a_header_line_without_a_colon_gets_the_envelope_and_close(naming_server):
    reply = _raw_exchange(naming_server[0].endpoint, _get("/names/urn%3Ax%3Ay", "No colon here"))
    head, doc = _envelope_of(reply)
    assert head.startswith(b"HTTP/1.1 400 ") and b"Connection: close" in head
    assert doc["error"] == "BAD_ARGUMENTS"


def test_a_request_sent_one_byte_at_a_time_is_answered(naming_server):
    server, service = naming_server
    body = json.dumps({"location": "a.local:1"}).encode()
    request = (
        b"PUT /names/urn%3Ax%3Atrickle HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    host, port = server.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(request)):
            sock.send(request[i : i + 1])
        with sock.makefile("rb") as rfile:
            assert _read_reply(rfile)[0] == 200
    assert service.resolve("urn:x:trickle") == ["a.local:1"]


@pytest.mark.parametrize(
    "sent, reply_starts",
    [
        (b"DELETE /names/urn%3Ax%3Acut/locations/a.local%3A1", b""),
        (b"POST /names/urn%3Ax%3Acut/locations HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n"
         b'{"location": "b.local:2"}', b"HTTP/1.1 400 "),
    ],
    ids=["inside-request-line", "inside-body"],
)
def test_a_request_cut_off_by_the_clients_close_is_not_run(naming_server, sent, reply_starts):
    server, service = naming_server
    service.register("urn:x:cut", "a.local:1")
    host, port = server.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(sent)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as rfile:
            assert rfile.read().startswith(reply_starts)
    assert service.resolve("urn:x:cut") == ["a.local:1"]


def test_16_mib_stream_round_trip_on_one_connection(wire_federation):
    payload = bytes(range(256)) * (16 * 4096)
    host, port = wire_federation.servers[0].endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        with sock.makefile("rb") as rfile:

            def call(method, path, body=b"", *headers):
                head = [f"{method} {path} HTTP/1.1", "Host: x", *headers,
                        f"Content-Length: {len(body)}", "", ""]
                sock.sendall("\r\n".join(head).encode() + body)
                status, reply_headers, reply = _read_reply(rfile)
                assert status == 200 and "connection" not in reply_headers, reply[:200]
                return reply

            handle = json.loads(call("POST", "/staging"))["handle"]
            ds = json.loads(call("POST", f"/staging/{handle}/datastreams", payload,
                                 "Content-Type: application/octet-stream"))["id"]
            name = json.loads(call("POST", f"/staging/{handle}/deposit"))["name"]
            assert call("GET", f"/objects/{quote(name)}/datastreams/{ds}") == payload


class _CountingServer(WireServer):
    def __init__(self, *args):
        super().__init__(*args)
        self.accepted = 0

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)


def test_fresh_clients_on_one_thread_share_one_connection():
    server = _CountingServer("127.0.0.1", 0, NAMING_ROUTES, NamingService()).start()
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
    returned = []

    def call():
        returned.append(NamingClient(server.endpoint).register("urn:x:slow", "a.local:1"))

    caller = threading.Thread(target=call)
    caller.start()
    assert started.wait(5)
    server.stop()
    assert finished.is_set()
    caller.join(5)
    assert not caller.is_alive()
    assert returned == [None]  # the reply was sent before the connection closed


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



@pytest.mark.parametrize(
    "sent",
    [
        b"GET /names/urn%3Ax%3Areset HTTP/1.1\r\nHost: x\r\n",
        b"PUT /names/urn%3Ax%3Areset HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n{",
    ],
    ids=["mid-headers", "mid-body"],
)
def test_a_client_reset_is_a_closed_connection(naming_server, capfd, caplog, sent):
    """A client that resets (SO_LINGER 0) while the server waits for the rest
    of its request has closed its connection: the server logs and prints
    nothing, and answers the next one."""
    server = naming_server[0]
    host, port = server.endpoint.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.sendall(sent)
    time.sleep(0.2)
    sock.close()
    deadline = time.monotonic() + 5
    while server._open and time.monotonic() < deadline:  # until its handler has ended
        time.sleep(0.02)
    assert not server._open
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert probe(server.endpoint, "GET", "/names/urn%3Ax%3Areset")[0] == 404
