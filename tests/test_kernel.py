"""Structural kernel: streams, disseminators, managers, canonical manifests."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import ACL_ALICE_ALL, MARC_FIXTURE, PAGES, STUB_URNS, fixture_documents
from objrepo.canonical import canonical_bytes, sha256_hex
from objrepo.errors import (
    AccessDenied,
    AttachmentViolation,
    BadArguments,
    DigestMismatch,
    DuplicateBuiltin,
    MalformedManifest,
    MalformedMime,
    MalformedServlet,
    NoSuchDataStream,
    NoSuchDisseminator,
    NoSuchMethod,
    NoSuchTypeOnObject,
    SignatureMismatch,
    UndepositedObject,
    UnresolvableType,
)
from objrepo.kernel import (
    PRIMITIVE_TARGET,
    DigitalObjectKernel,
    DisseminatorKind,
    deserialize_object,
)

BOOK = STUB_URNS["type-book"]
DC = STUB_URNS["type-dc"]
BOOK_GIF = STUB_URNS["mech-book-gif"]
MARC2DC = STUB_URNS["mech-marc2dc"]
ACL_SCHEME = STUB_URNS["acl-v1"]


def three_stream_object() -> DigitalObjectKernel:
    """Three opaque packages: a PostScript stream, a MARC record, an ACL."""
    obj = DigitalObjectKernel()
    obj.create_datastream("application/postscript", b"%!PS-Adobe-3.0\n" + b"x" * 297)
    obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    return obj


def book_object(resolver, pages=PAGES) -> DigitalObjectKernel:
    obj = DigitalObjectKernel()
    ds = [obj.create_datastream("image/gif", p) for p in pages]
    obj.create_disseminator(DisseminatorKind.CONTENT, BOOK, BOOK_GIF, {"pages": ds}, resolver)
    return obj


def marc_object(resolver, acl: bytes | None = ACL_ALICE_ALL) -> DigitalObjectKernel:
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    diss = obj.create_disseminator(
        DisseminatorKind.CONTENT, DC, MARC2DC, {"marc": [ds]}, resolver
    )
    if acl is not None:
        ds_acl = obj.create_datastream("application/x-fedora-acl+json", acl)
        obj.set_access_manager(diss, ACL_SCHEME, {"acl": [ds_acl]}, resolver)
    return obj


# -- createDataStream / getDataStreams / content ------------------------------


def test_create_datastream_assigns_sequential_ids():
    obj = DigitalObjectKernel()
    assert obj.create_datastream("application/x-marc-lines", b"z" * 312) == "DS1"
    assert len(obj.datastreams) == 1
    assert obj.create_datastream("text/plain", b"") == "DS2"  # empty payload is legal
    assert obj.get_datastream_content("DS2") == ("text/plain", b"")


def test_create_datastream_rejects_bad_mime():
    obj = DigitalObjectKernel()
    with pytest.raises(MalformedMime):
        obj.create_datastream("not a mime", b"x")
    with pytest.raises(MalformedMime):
        obj.create_datastream("text", b"x")
    with pytest.raises(MalformedMime):
        obj.create_datastream("text/", b"x")


def test_mime_parameters_are_stored_verbatim():
    obj = DigitalObjectKernel()
    obj.create_datastream("text/plain; charset=utf-8", b"hey")
    assert obj.get_datastreams()[0]["mime"] == "text/plain; charset=utf-8"


def test_get_datastreams_metadata_only():
    obj = three_stream_object()
    infos = obj.get_datastreams()
    assert [(i["id"], i["mime"]) for i in infos] == [
        ("DS1", "application/postscript"),
        ("DS2", "application/x-marc-lines"),
        ("DS3", "application/x-fedora-acl+json"),
    ]
    assert infos[1]["length"] == len(MARC_FIXTURE)
    # Opacity: nothing but id, MIME and length is exposed.
    assert set(infos[0]) == {"id", "mime", "length"}


def test_get_datastreams_empty_and_replay():
    assert DigitalObjectKernel().get_datastreams() == []
    obj = DigitalObjectKernel()
    created = [obj.create_datastream("text/plain", bytes([i])) for i in range(3)]
    assert [i["id"] for i in obj.get_datastreams()] == created


def test_get_datastream_content_round_trip_and_errors():
    obj = three_stream_object()
    mime, content = obj.get_datastream_content("DS2")
    assert (mime, content) == ("application/x-marc-lines", MARC_FIXTURE)
    with pytest.raises(NoSuchDataStream):
        obj.get_datastream_content("DS99")


def test_large_random_payload_round_trips_by_digest():
    payload = random.Random(7).randbytes(1 << 20)
    before = hashlib.sha256(payload).hexdigest()
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/octet-stream", payload)
    _, out = obj.get_datastream_content(ds)
    assert hashlib.sha256(out).hexdigest() == before


# -- createDisseminator --------------------------------------------------------


def test_create_content_disseminator(stub_resolver):
    obj = book_object(stub_resolver)
    assert obj.disseminators[0].id == "DISS1"
    assert obj.disseminators[0].bindings == {"pages": ["DS1", "DS2", "DS3"]}


def test_attachment_cardinality_violation_names_structure(stub_resolver):
    obj = DigitalObjectKernel()
    ds1 = obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    ds2 = obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    with pytest.raises(AttachmentViolation) as err:
        obj.create_disseminator(
            DisseminatorKind.CONTENT, DC, MARC2DC, {"marc": [ds1, ds2]}, stub_resolver
        )
    assert "marc" in str(err.value)


def test_signature_mismatch_when_mechanism_implements_other_type(stub_resolver):
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    with pytest.raises(SignatureMismatch):
        obj.create_disseminator(
            DisseminatorKind.CONTENT, DC, BOOK_GIF, {"marc": [ds]}, stub_resolver
        )


def test_unresolvable_servlet_and_type(stub_resolver):
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    with pytest.raises(UnresolvableType):
        obj.create_disseminator(
            DisseminatorKind.CONTENT, DC, "urn:test:nowhere", {"marc": [ds]}, stub_resolver
        )
    with pytest.raises(UnresolvableType):
        obj.create_disseminator(
            DisseminatorKind.CONTENT, "urn:test:nowhere", MARC2DC, {"marc": [ds]}, stub_resolver
        )


#: built-in kind -> (reserved type URN, structure id, document MIME, fixture document)
BUILTINS = {
    DisseminatorKind.SIGNATURE: (
        "urn:fedora-builtin:signature", "signature", "application/x-fedora-signature+json",
        "type-book",
    ),
    DisseminatorKind.SERVLET: (
        "urn:fedora-builtin:servlet", "servlet", "application/x-fedora-servlet+json",
        "mech-book-gif",
    ),
    DisseminatorKind.ACCESS_MANAGER_SERVLET: (
        "urn:fedora-builtin:access-servlet", "servlet", "application/x-fedora-servlet+json",
        "acl-v1",
    ),
}


def builtin_document_stream(obj: DigitalObjectKernel, kind: DisseminatorKind) -> str:
    _, _, mime, label = BUILTINS[kind]
    return obj.create_datastream(mime, canonical_bytes(fixture_documents()[label]))


@pytest.mark.parametrize("kind", list(BUILTINS), ids=lambda kind: kind.value)
def test_duplicate_builtin_rejected(stub_resolver, kind):
    urn, sid, _, _ = BUILTINS[kind]
    obj = DigitalObjectKernel()
    first = builtin_document_stream(obj, kind)
    second = builtin_document_stream(obj, kind)
    obj.create_disseminator(kind, urn, urn, {sid: [first]}, stub_resolver)
    with pytest.raises(DuplicateBuiltin):
        obj.create_disseminator(kind, urn, urn, {sid: [second]}, stub_resolver)
    assert [d.id for d in obj.disseminators] == ["DISS1"]


@pytest.mark.parametrize("kind", list(BUILTINS), ids=lambda kind: kind.value)
def test_builtin_binding_violations(stub_resolver, kind):
    """A built-in kind binds exactly one stream of its document MIME under
    its structure id; anything else adds no disseminator."""
    urn, sid, _, _ = BUILTINS[kind]
    obj = DigitalObjectKernel()
    ds = builtin_document_stream(obj, kind)
    other = builtin_document_stream(obj, kind)
    text = obj.create_datastream("text/plain", b"not a type document")
    for bindings in ({}, {"other": [ds]}, {sid: [ds, other]}, {sid: ["DS9"]}, {sid: [text]}):
        with pytest.raises(AttachmentViolation):
            obj.create_disseminator(kind, urn, urn, bindings, stub_resolver)
    assert obj.disseminators == []


def test_builtin_kind_requires_reserved_urn_and_document_mime(stub_resolver):
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("text/plain", b"not a signature")
    with pytest.raises(BadArguments):
        obj.create_disseminator(
            DisseminatorKind.SIGNATURE, DC, DC, {"signature": [ds]}, stub_resolver
        )
    with pytest.raises(AttachmentViolation):
        obj.create_disseminator(
            DisseminatorKind.SIGNATURE, "urn:fedora-builtin:signature",
            "urn:fedora-builtin:signature", {"signature": [ds]}, stub_resolver,
        )


def test_content_disseminator_may_not_use_reserved_urn(stub_resolver):
    obj = DigitalObjectKernel()
    with pytest.raises(BadArguments):
        obj.create_disseminator(
            DisseminatorKind.CONTENT, "urn:fedora-builtin:signature", MARC2DC, {}, stub_resolver
        )


# -- descriptor listings --------------------------------------------------------


def test_get_disseminators_multi_type_object(stub_resolver):
    """One object, three content types: book, MARC passthrough-ish, element set."""
    obj = DigitalObjectKernel()
    pages = [obj.create_datastream("image/gif", p) for p in PAGES]
    marc = obj.create_datastream("application/x-marc-lines", MARC_FIXTURE)
    dc = obj.create_datastream("application/x-dc-lines", b"Title: t\n")
    obj.create_disseminator(DisseminatorKind.CONTENT, BOOK, BOOK_GIF, {"pages": pages}, stub_resolver)
    obj.create_disseminator(DisseminatorKind.CONTENT, DC, MARC2DC, {"marc": [marc]}, stub_resolver)
    obj.create_disseminator(
        DisseminatorKind.CONTENT, DC, STUB_URNS["mech-dc-pass"], {"dc": [dc]}, stub_resolver
    )
    infos = obj.get_disseminators()
    assert [i["kind"] for i in infos] == ["CONTENT"] * 3
    assert [i["id"] for i in infos] == ["DISS1", "DISS2", "DISS3"]
    assert all(not i["has_access_manager"] for i in infos)
    assert obj.list_disseminator_types() == [BOOK, DC]  # deduplicated, insertion order


def test_get_disseminators_empty():
    assert DigitalObjectKernel().get_disseminators() == []
    assert DigitalObjectKernel().list_disseminator_types() == []


def test_list_disseminator_methods(stub_resolver):
    obj = book_object(stub_resolver)
    specs = obj.list_disseminator_methods(BOOK, stub_resolver)
    # Oracle: the deposited signature document itself.
    from conftest import fixture_documents

    doc = fixture_documents()["type-book"]
    assert specs == doc["methods"]
    with pytest.raises(NoSuchTypeOnObject):
        obj.list_disseminator_methods(DC, stub_resolver)


def test_list_methods_dc_signature(stub_resolver):
    obj = marc_object(stub_resolver, acl=None)
    specs = obj.list_disseminator_methods(DC, stub_resolver)
    assert [(s["name"], [p["name"] for p in s["params"]], s["returns_mime"]) for s in specs] == [
        ("getDCField", ["field"], "text/plain"),
        ("getDCRecord", [], "application/x-dc-lines"),
    ]


# -- getDissemination ------------------------------------------------------------


def test_get_dissemination_static_page_is_verbatim(stub_resolver):
    obj = book_object(stub_resolver)
    mime, data = obj.get_dissemination(BOOK, "getPage", {"n": "2"}, "anonymous", stub_resolver)
    assert (mime, data) == ("image/gif", PAGES[1])
    assert obj.get_dissemination(BOOK, "getPageCount", {}, "anonymous", stub_resolver)[1] == b"3"


def test_get_dissemination_crosswalk_field(stub_resolver):
    obj = marc_object(stub_resolver, acl=None)
    mime, data = obj.get_dissemination(
        DC, "getDCField", {"field": "Creator"}, "anonymous", stub_resolver
    )
    # Hand-applied crosswalk on the fixture record: 100$a -> Creator.
    assert (mime, data) == ("text/plain", b"Melville, Herman")


def test_get_dissemination_acl_gate(stub_resolver):
    obj = marc_object(stub_resolver)
    mime, data = obj.get_dissemination(DC, "getDCField", {"field": "Creator"}, "alice", stub_resolver)
    assert data == b"Melville, Herman"
    with pytest.raises(AccessDenied) as err:
        obj.get_dissemination(DC, "getDCField", {"field": "Creator"}, "mallory", stub_resolver)
    assert str(err.value) == "default"


def test_payment_style_denial_carries_reason(stub_resolver):
    obj = book_object(stub_resolver)
    acl = json.dumps(
        {
            "default": "allow",
            "entries": [
                {
                    "principal": "*",
                    "methods": ["getPage"],
                    "effect": "deny",
                    "transforms": [],
                    "reason": "payment-required",
                }
            ],
        }
    ).encode()
    ds_acl = obj.create_datastream("application/x-fedora-acl+json", acl)
    obj.set_access_manager("DISS1", ACL_SCHEME, {"acl": [ds_acl]}, stub_resolver)
    with pytest.raises(AccessDenied) as err:
        obj.get_dissemination(BOOK, "getPage", {"n": "1"}, "reader", stub_resolver)
    assert str(err.value) == "payment-required"
    # other methods of the same disseminator stay open
    assert obj.get_dissemination(BOOK, "getPageCount", {}, "reader", stub_resolver)[1] == b"3"


def test_get_dissemination_errors(stub_resolver):
    obj = book_object(stub_resolver)
    with pytest.raises(NoSuchTypeOnObject):
        obj.get_dissemination(DC, "getDCRecord", {}, "anonymous", stub_resolver)
    with pytest.raises(NoSuchMethod):
        obj.get_dissemination(BOOK, "nextPage", {}, "anonymous", stub_resolver)
    with pytest.raises(BadArguments):
        obj.get_dissemination(BOOK, "getPage", {}, "anonymous", stub_resolver)
    with pytest.raises(BadArguments):
        obj.get_dissemination(BOOK, "getPage", {"n": "2", "x": "1"}, "anonymous", stub_resolver)
    with pytest.raises(BadArguments):
        obj.get_dissemination(BOOK, "getPage", {"n": "-1"}, "anonymous", stub_resolver)


def test_same_type_dispatches_to_first_disseminator(stub_resolver):
    obj = DigitalObjectKernel()
    dc_a = obj.create_datastream("application/x-dc-lines", b"Title: first\n")
    dc_b = obj.create_datastream("application/x-dc-lines", b"Title: second\n")
    pass_urn = STUB_URNS["mech-dc-pass"]
    obj.create_disseminator(DisseminatorKind.CONTENT, DC, pass_urn, {"dc": [dc_a]}, stub_resolver)
    obj.create_disseminator(DisseminatorKind.CONTENT, DC, pass_urn, {"dc": [dc_b]}, stub_resolver)
    assert obj.list_disseminator_types() == [DC]
    _, data = obj.get_dissemination(DC, "getDCRecord", {}, "anonymous", stub_resolver)
    assert data == b"Title: first\n"


def test_dissemination_pure_function_of_bound_streams(stub_resolver):
    obj = book_object(stub_resolver)
    before = obj.get_dissemination(BOOK, "getPage", {"n": "1"}, "anonymous", stub_resolver)
    obj.create_datastream("text/plain", b"unrelated late addition")
    after = obj.get_dissemination(BOOK, "getPage", {"n": "1"}, "anonymous", stub_resolver)
    assert before == after


def test_builtin_dissemination_serves_document(stub_resolver):
    obj = DigitalObjectKernel()
    doc = canonical_bytes(
        {"type_name": "T", "methods": [{"name": "m", "params": [], "returns_mime": "text/plain"}]}
    )
    ds = obj.create_datastream("application/x-fedora-signature+json", doc)
    obj.create_disseminator(
        DisseminatorKind.SIGNATURE, "urn:fedora-builtin:signature",
        "urn:fedora-builtin:signature", {"signature": [ds]}, stub_resolver,
    )
    mime, data = obj.get_dissemination(
        "urn:fedora-builtin:signature", "getSignature", {}, "anonymous", stub_resolver
    )
    assert (mime, data) == ("application/x-fedora-signature+json", doc)
    with pytest.raises(NoSuchMethod):
        obj.get_dissemination(
            "urn:fedora-builtin:signature", "getServlet", {}, "anonymous", stub_resolver
        )
    # Built-in types stay out of the content-type listing.
    assert obj.list_disseminator_types() == []


def test_builtin_attachment_spec_dissemination(stub_resolver):
    from conftest import fixture_documents

    obj = DigitalObjectKernel()
    doc = canonical_bytes(fixture_documents()["mech-book-gif"])
    ds = obj.create_datastream("application/x-fedora-servlet+json", doc)
    obj.create_disseminator(
        DisseminatorKind.SERVLET, "urn:fedora-builtin:servlet", "urn:fedora-builtin:servlet",
        {"servlet": [ds]}, stub_resolver,
    )
    mime, data = obj.get_dissemination(
        "urn:fedora-builtin:servlet", "getAttachmentSpec", {}, "anonymous", stub_resolver
    )
    assert mime == "application/json"
    assert json.loads(data) == [{"id": "pages", "mime": "image/gif", "ordinality": "1:N"}]


def test_servlet_document_without_a_utf8_form_is_malformed(stub_resolver):
    """A lone surrogate parses as JSON but has no canonical encoding, so the
    attachment spec could never be answered."""
    obj = DigitalObjectKernel()
    doc = (
        b'{"implements":"urn:test:t","builtin":"acl-v1",'
        b'"attachment_spec":[{"id":"\\ud800","mime":"*","ordinality":"1:1"}]}'
    )
    ds = obj.create_datastream("application/x-fedora-servlet+json", doc)
    obj.create_disseminator(
        DisseminatorKind.SERVLET, "urn:fedora-builtin:servlet", "urn:fedora-builtin:servlet",
        {"servlet": [ds]}, stub_resolver,
    )
    with pytest.raises(MalformedServlet):
        obj.get_dissemination(
            "urn:fedora-builtin:servlet", "getAttachmentSpec", {}, "anonymous", stub_resolver
        )


def test_object_may_carry_both_builtin_kinds(stub_resolver):
    from conftest import fixture_documents

    obj = DigitalObjectKernel()
    sig = obj.create_datastream(
        "application/x-fedora-signature+json", canonical_bytes(fixture_documents()["type-book"])
    )
    srv = obj.create_datastream(
        "application/x-fedora-servlet+json", canonical_bytes(fixture_documents()["mech-book-gif"])
    )
    obj.create_disseminator(
        DisseminatorKind.SIGNATURE, "urn:fedora-builtin:signature",
        "urn:fedora-builtin:signature", {"signature": [sig]}, stub_resolver,
    )
    obj.create_disseminator(
        DisseminatorKind.SERVLET, "urn:fedora-builtin:servlet", "urn:fedora-builtin:servlet",
        {"servlet": [srv]}, stub_resolver,
    )
    assert obj.get_dissemination(
        "urn:fedora-builtin:signature", "getSignature", {}, "anonymous", stub_resolver
    )[1].startswith(b"{")


# -- access managers ---------------------------------------------------------------


def test_set_and_get_access_manager(stub_resolver):
    obj = marc_object(stub_resolver, acl=None)
    ds_acl = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    am_id = obj.set_access_manager("DISS1", ACL_SCHEME, {"acl": [ds_acl]}, stub_resolver)
    assert am_id == "AM1"
    info = obj.get_access_manager("DISS1")
    assert info["scheme"] == ACL_SCHEME
    assert info["bindings"] == {"acl": [ds_acl]}
    assert obj.get_disseminators()[0]["has_access_manager"]


def test_primitive_access_manager(stub_resolver):
    obj = DigitalObjectKernel()
    ds_acl = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    obj.set_access_manager(PRIMITIVE_TARGET, ACL_SCHEME, {"acl": [ds_acl]}, stub_resolver)
    assert obj.get_access_manager(PRIMITIVE_TARGET)["scheme"] == ACL_SCHEME


def test_access_manager_replacement(stub_resolver):
    obj = marc_object(stub_resolver, acl=None)
    a1 = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    a2 = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    obj.set_access_manager("DISS1", ACL_SCHEME, {"acl": [a1]}, stub_resolver)
    new_id = obj.set_access_manager("DISS1", ACL_SCHEME, {"acl": [a2]}, stub_resolver)
    info = obj.get_access_manager("DISS1")
    assert info["id"] == new_id and info["bindings"] == {"acl": [a2]}


def test_access_manager_errors(stub_resolver):
    obj = marc_object(stub_resolver, acl=None)
    with pytest.raises(AttachmentViolation):
        obj.set_access_manager("DISS1", ACL_SCHEME, {"acl": ["DS9"]}, stub_resolver)
    with pytest.raises(NoSuchDisseminator):
        obj.set_access_manager("DISS9", ACL_SCHEME, {"acl": ["DS1"]}, stub_resolver)
    with pytest.raises(NoSuchDisseminator):
        obj.get_access_manager("DISS9")
    assert obj.get_access_manager("DISS1") is None
    with pytest.raises(UnresolvableType):
        obj.set_access_manager("DISS1", "urn:test:nowhere", {"acl": ["DS1"]}, stub_resolver)


# -- canonical serialization ----------------------------------------------------------


def named(obj: DigitalObjectKernel, name="urn:test:fixture-1") -> DigitalObjectKernel:
    obj.name = name
    return obj


def test_serialize_requires_name():
    with pytest.raises(UndepositedObject):
        three_stream_object().serialize()


def test_serialize_round_trip_and_determinism(stub_resolver):
    obj = named(marc_object(stub_resolver))
    blob = obj.serialize()
    assert blob == obj.serialize()  # deterministic
    twin = deserialize_object(blob)
    assert twin == obj
    assert twin.serialize() == blob


def test_manifest_matches_pinned_schema(stub_resolver):
    obj = named(marc_object(stub_resolver))
    doc = json.loads(obj.serialize())
    assert list(doc) == sorted(doc)
    assert set(doc) == {
        "access_managers", "datastreams", "digest", "disseminators", "name", "seq", "version",
    }
    assert doc["version"] == "objrepo-manifest-1"
    assert doc["seq"] == {"diss": 2, "ds": 3}
    assert doc["access_managers"] == [
        {"bindings": {"acl": ["DS2"]}, "scheme": ACL_SCHEME, "target": "DISS1"}
    ]
    # Digest covers the canonical form with an empty digest slot.
    assert doc["digest"] == sha256_hex(canonical_bytes(dict(doc, digest="")))


def test_flipped_content_byte_is_digest_mismatch(stub_resolver):
    blob = named(marc_object(stub_resolver)).serialize()
    marker = b'"content_b64":"'
    at = blob.index(marker) + len(marker)
    flipped = blob[:at] + (b"B" if blob[at : at + 1] == b"A" else b"A") + blob[at + 1 :]
    with pytest.raises(DigestMismatch):
        deserialize_object(flipped)


def test_malformed_manifests_rejected(stub_resolver):
    obj = named(marc_object(stub_resolver))
    doc = json.loads(obj.serialize())

    def corrupt(mutate):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        bad["digest"] = sha256_hex(canonical_bytes(dict(bad, digest="")))
        return canonical_bytes(bad)

    for not_canonical in (
        b"not json at all",
        b'{"digest":"","name":"\\ud800"}',  # a lone surrogate has no UTF-8 form
        b'{"digest":"","n":' + b"7" * 5000 + b"}",  # beyond int()'s digit limit
        b"[" * 100_000,  # deeper than the parser recurses
    ):
        with pytest.raises(MalformedManifest):
            deserialize_object(not_canonical)
    with pytest.raises(MalformedManifest):
        deserialize_object(corrupt(lambda d: d.update(version="objrepo-manifest-9")))
    with pytest.raises(MalformedManifest):
        deserialize_object(corrupt(lambda d: d.update(extra=1)))
    with pytest.raises(MalformedManifest):
        deserialize_object(corrupt(lambda d: d["datastreams"][0].update(id="DS7")))
    with pytest.raises(MalformedManifest):
        deserialize_object(
            corrupt(lambda d: d["disseminators"][0]["bindings"].update(marc=["DS9"]))
        )
    with pytest.raises(MalformedManifest):
        deserialize_object(corrupt(lambda d: d["access_managers"][0].update(target="DISS9")))


@pytest.mark.parametrize("key, prefix", [("datastreams", "DS"), ("disseminators", "DISS")])
def test_ids_longer_than_int_converts_are_malformed(stub_resolver, key, prefix):
    doc = json.loads(named(marc_object(stub_resolver)).serialize())
    doc[key][0]["id"] = prefix + "7" * 5000
    doc["digest"] = sha256_hex(canonical_bytes(dict(doc, digest="")))
    with pytest.raises(MalformedManifest):
        deserialize_object(canonical_bytes(doc))


def test_id_monotonicity_preserved_across_round_trip(stub_resolver):
    obj = named(marc_object(stub_resolver))
    twin = deserialize_object(obj.serialize())
    assert twin.create_datastream("text/plain", b"later") == "DS3"
    assert twin.next_ds_seq == 4


def random_object(rng: random.Random) -> DigitalObjectKernel:
    obj = DigitalObjectKernel()
    for _ in range(rng.randint(0, 6)):
        mime = rng.choice(["text/plain", "image/gif", "application/octet-stream"])
        obj.create_datastream(mime, rng.randbytes(rng.randint(0, 512)))
    obj.name = f"urn:test:rand-{rng.randint(0, 10**9)}"
    return obj


def test_round_trip_property_random_objects():
    rng = random.Random(20260809)
    for _ in range(50):
        obj = random_object(rng)
        blob = obj.serialize()
        assert blob == obj.serialize()
        twin = deserialize_object(blob)
        assert twin == obj and twin.serialize() == blob
