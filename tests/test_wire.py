"""Wire protocol: routes, status mapping, raw-body fidelity, headers."""

from __future__ import annotations

import concurrent.futures
import json
import re
import socket
import urllib.parse
from pathlib import Path

import pytest

from conftest import (
    ACL_ALICE_ALL,
    EXPECTED_ELEMENTS,
    MARC_FIXTURE,
    acl_bytes,
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
    NoSuchObject,
    NotRegistered,
    UnresolvableType,
    http_status,
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


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_gets_envelope_and_close(wire_federation, length):
    request = (
        f"POST /staging HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
    )
    host, port = wire_federation.servers[0].endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):  # the server closes the connection
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert json.loads(body)["error"] == "BAD_ARGUMENTS"


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
