"""Canonical manifests: byte identity with the documented form, a pinned
digest, and hostile input against the digest check."""

from __future__ import annotations

import base64
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_wire_federation, probe
from objrepo.canonical import canonical_bytes, sha256_hex
from objrepo.errors import DigestMismatch, MalformedManifest
from objrepo.kernel import (
    AccessManager,
    DigitalObjectKernel,
    Disseminator,
    DisseminatorKind,
    deserialize_object,
)
from objrepo.repository import Repository, RepositoryConfig
from objrepo.typesys import BUILTIN_TYPES

# An object spec is plain data: the name, the (mime, content) of each stream
# (ids DS1, DS2, ... in order), the (kind, content type, servlet, bindings,
# manager) of each disseminator (ids DISS1, ...), the PRIMITIVE manager and
# how far each id counter runs past the last id. A manager is
# (scheme, bindings) or None.

FIXED_SPEC = {
    "name": "urn:test:golden-1",
    "streams": [
        ("application/x-marc-lines", b"245 $a Moby-Dick\n100 $a Melville, Herman\n"),
        ('text/plain; charset="utf-8"; title="Łódź \\"q\\""', b""),
        ("application/x-fedora-acl+json", b'{"default":"allow","entries":[]}'),
    ],
    "disseminators": [
        ("CONTENT", "urn:test:type-dc", "urn:test:mech-marc2dc", {"marc": ["DS1"]},
         ("urn:test:acl-v1", {"acl": ["DS3"]})),
        ("SERVLET", "urn:fedora-builtin:servlet", "urn:fedora-builtin:servlet",
         {"servlet": ["DS2"]}, None),
    ],
    "primitive": ("urn:test:acl-v1", {"acl": ["DS3"], 'x"content_b64': []}),
    "gaps": (2, 0),
}

#: SHA-256 of FIXED_SPEC's manifest, as serialized before manifests were
#: built from spliced parts.
FIXED_MANIFEST_SHA256 = "7e29c7eaddc9e67a323d0130128c877a45118c3bb6e55bb729dca82cbc9dd3f8"


def build(spec: dict) -> DigitalObjectKernel:
    obj = DigitalObjectKernel()
    for mime, content in spec["streams"]:
        obj.create_datastream(mime, content)
    for i, (kind, content_type, servlet, bindings, am) in enumerate(spec["disseminators"], 1):
        manager = None if am is None else AccessManager(f"AM{i + 1}", am[0], am[1])
        obj.disseminators.append(Disseminator(
            f"DISS{i}", DisseminatorKind(kind), content_type, servlet, bindings, manager
        ))
    if spec["primitive"] is not None:
        obj.primitive_access_manager = AccessManager("AM1", *spec["primitive"])
    obj.next_ds_seq += spec["gaps"][0]
    obj.next_diss_seq = len(spec["disseminators"]) + 1 + spec["gaps"][1]
    obj.name = spec["name"]
    return obj


def documented_manifest(spec: dict) -> bytes:
    """The manifest as docs/protocol.md describes it, from the spec alone."""
    managers = []
    if spec["primitive"] is not None:
        scheme, bindings = spec["primitive"]
        managers.append({"bindings": bindings, "scheme": scheme, "target": "PRIMITIVE"})
    for i, (_, _, _, _, am) in enumerate(spec["disseminators"], 1):
        if am is not None:
            managers.append({"bindings": am[1], "scheme": am[0], "target": f"DISS{i}"})
    doc = {
        "access_managers": managers,
        "datastreams": [
            {"content_b64": base64.b64encode(content).decode("ascii"), "id": f"DS{i}", "mime": mime}
            for i, (mime, content) in enumerate(spec["streams"], 1)
        ],
        "digest": "",
        "disseminators": [
            {"bindings": bindings, "content_type": content_type, "id": f"DISS{i}",
             "kind": kind, "servlet": servlet}
            for i, (kind, content_type, servlet, bindings, _) in enumerate(spec["disseminators"], 1)
        ],
        "name": spec["name"],
        "seq": {
            "diss": len(spec["disseminators"]) + 1 + spec["gaps"][1],
            "ds": len(spec["streams"]) + 1 + spec["gaps"][0],
        },
        "version": "objrepo-manifest-1",
    }
    doc["digest"] = sha256_hex(canonical_bytes(doc))
    return canonical_bytes(doc)


# -- generated objects ---------------------------------------------------------

_TEXT = st.characters(blacklist_categories=("Cs",))
_URNS = st.from_regex(r"urn:[a-z0-9.-]{1,6}:[A-Za-z0-9._-]{1,10}", fullmatch=True)
_MIMES = st.builds(
    str.__add__,
    st.sampled_from(["text/plain", "image/gif", "application/octet-stream"]),
    st.one_of(
        st.just(""),
        st.sampled_from(['; charset="utf-8"', '; name="Łódź \\"q\\""',
                         "; title=日本", '; x="a\\\\b"']),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                min_size=1, max_size=10).map(lambda t: ";" + t),
    ),
)
# Structure ids that look like manifest keys must stay plain keys.
_SIDS = st.one_of(
    st.sampled_from(["content_b64", 'x"content_b64', "digest", "pages"]),
    st.text(_TEXT, min_size=1, max_size=8),
)


def _builtin_kinds_once(disseminators) -> bool:
    kinds = [d[0] for d in disseminators if d[0] != DisseminatorKind.CONTENT.value]
    return len(kinds) == len(set(kinds))


@st.composite
def object_specs(draw) -> dict:
    streams = draw(st.lists(st.tuples(_MIMES, st.binary(max_size=48)), max_size=4))
    ds_ids = st.sampled_from([f"DS{i}" for i in range(1, len(streams) + 1)] or ["DS1"])
    bindings = st.dictionaries(
        _SIDS, st.lists(ds_ids, max_size=3) if streams else st.just([]), max_size=3
    )
    manager = st.none() | st.tuples(_URNS, bindings)
    # records a request could create: CONTENT under a plain URN, or a built-in
    # kind under its own reserved URN, each built-in kind at most once
    builtin = st.sampled_from(sorted(BUILTIN_TYPES)).flatmap(
        lambda urn: st.tuples(st.just(BUILTIN_TYPES[urn].kind), st.just(urn), st.just(urn),
                              bindings, manager)
    )
    disseminators = draw(st.lists(
        st.tuples(st.just(DisseminatorKind.CONTENT.value), _URNS, _URNS, bindings, manager)
        | builtin,
        max_size=3,
    ).filter(_builtin_kinds_once))
    return {
        "name": draw(_URNS),
        "streams": streams,
        "disseminators": disseminators,
        "primitive": draw(manager),
        "gaps": (draw(st.integers(0, 12)), draw(st.integers(0, 12))),
    }


def test_fixed_manifest_digest_is_pinned():
    blob = build(FIXED_SPEC).serialize()
    assert blob == documented_manifest(FIXED_SPEC)
    assert sha256_hex(blob) == FIXED_MANIFEST_SHA256


@given(object_specs())
def test_serialize_is_the_documented_form(spec):
    obj = build(spec)
    blob = obj.serialize()
    assert blob == documented_manifest(spec)
    twin = deserialize_object(blob)
    assert twin == obj and twin.serialize() == blob


# -- hostile manifests ------------------------------------------------------------

BASES = [
    build(FIXED_SPEC).serialize(),
    build(dict(FIXED_SPEC, streams=FIXED_SPEC["streams"][:1], disseminators=[], primitive=None))
    .serialize(),
    build(dict(FIXED_SPEC, streams=[], disseminators=[], primitive=None)).serialize(),
]

_ODD_VALUES = st.sampled_from([None, True, False, 0, 1, -1, 1.5, "", "x", [], {}, [""], {"": ""}])
_B64_INTRUDERS = st.sampled_from(
    ['"', "\\", "\u00e9", "\u00a0", "\U0001d11e", "\x00", "\x1f", "\x7f", "=", "==", " "]
)


def _slots(node) -> list:
    """Every (container, key) in a parsed JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    return [(node, key) for key, _ in items] + [s for _, value in items for s in _slots(value)]


def _bindings_dicts(doc: dict) -> list:
    entries = doc.get("disseminators", []) + doc.get("access_managers", [])
    return [e["bindings"] for e in entries
            if isinstance(e, dict) and isinstance(e.get("bindings"), dict)]


@st.composite
def mutate_json(draw, doc: dict) -> None:
    what = draw(st.sampled_from(["retype", "b64", "b64", "b64", "slot", "extra"]))
    streams = [e for e in doc.get("datastreams", []) if isinstance(e, dict)]
    if what == "b64" and streams:
        entry = draw(st.sampled_from(streams))
        if draw(st.booleans()):
            entry["content_b64"] = draw(_ODD_VALUES.filter(lambda v: not isinstance(v, str)))
        else:
            text = entry["content_b64"]
            at = draw(st.integers(0, len(text)))
            entry["content_b64"] = text[:at] + draw(_B64_INTRUDERS) + text[at:]
    elif what == "slot" and _bindings_dicts(doc):
        bindings = draw(st.sampled_from(_bindings_dicts(doc)))
        if draw(st.booleans()):
            bindings[draw(_SIDS)] = {"content_b64": ""}
        else:
            bindings["content_b64"] = ""
    elif what == "extra":
        containers = [doc] + streams + [doc["seq"]]
        draw(st.sampled_from(containers))[draw(st.text(_TEXT, max_size=12))] = draw(_ODD_VALUES)
    else:
        container, key = draw(st.sampled_from(_slots(doc)))
        container[key] = draw(_ODD_VALUES)


@st.composite
def hostile_manifests(draw) -> bytes:
    base = draw(st.sampled_from(BASES))
    level = draw(st.sampled_from(["flip", "truncate", "insert", "json", "json", "json"]))
    at = draw(st.integers(0, len(base) - 1))
    if level == "flip":
        return base[:at] + bytes([base[at] ^ draw(st.integers(1, 255))]) + base[at + 1:]
    if level == "truncate":
        return base[:at]
    if level == "insert":
        chunk = draw(st.sampled_from([b'"', b"\\", b"=", b"\\ud800", b"\x7f", b"\xc3", b"\x00"])
                     | st.binary(min_size=1, max_size=4))
        return base[:at] + chunk + base[at:]
    doc = json.loads(base)
    draw(mutate_json(doc))
    if draw(st.booleans()):  # re-seal, so the shape checks are reached
        doc["digest"] = sha256_hex(canonical_bytes(dict(doc, digest="")))
    return canonical_bytes(doc)


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@settings(max_examples=200)
@given(hostile_manifests())
def test_hostile_manifest_verdicts(data):
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError:
        doc = None
    expected = None
    if isinstance(doc, dict) and isinstance(doc.get("digest"), str):
        try:
            expected = sha256_hex(canonical_bytes(dict(doc, digest="")))
        except UnicodeEncodeError:  # a lone surrogate: no canonical form
            pass

    try:
        deserialize_object(data)
        raised = None
    except (MalformedManifest, DigestMismatch) as exc:
        raised = type(exc)
    if expected is None:
        assert raised is MalformedManifest
    else:
        assert (raised is DigestMismatch) == (expected != doc["digest"])

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        repo = Repository(
            RepositoryConfig("urn:test:repo-h", str(root), "h.local:80", "naming.local:80", "test"),
            naming=None,
            client_factory=None,
        )
        before = _tree(root)
        try:
            repo.receive_manifest(data)
        except (MalformedManifest, DigestMismatch):
            assert _tree(root) == before



# -- built-in disseminator records ----------------------------------------------

SIG, SERVLET, AM = (f"urn:fedora-builtin:{k}" for k in ("signature", "servlet", "access-servlet"))


def _diss(kind, content_type, servlet) -> tuple:
    return (kind, content_type, servlet, {"doc": ["DS1"]}, None)


# Records create_disseminator refuses, and where the manifest check points.
RULE_BREAKS = {
    "second ACCESS_MANAGER_SERVLET": (
        [_diss("ACCESS_MANAGER_SERVLET", AM, AM), _diss("ACCESS_MANAGER_SERVLET", AM, AM)],
        "disseminators[1]: object already has a ACCESS_MANAGER_SERVLET disseminator",
    ),
    "SIGNATURE under the access-servlet URN": (
        [_diss("SIGNATURE", AM, AM)],
        f"disseminators[0]: SIGNATURE disseminators must use content_type {SIG}",
    ),
    "SERVLET under a plain URN": (
        [_diss("SERVLET", "urn:test:type", "urn:test:type")],
        f"disseminators[0]: SERVLET disseminators must use content_type {SERVLET}",
    ),
    "CONTENT under a reserved URN": (
        [_diss("CONTENT", SIG, "urn:test:mech")],
        f"disseminators[0]: {SIG} is reserved for built-in disseminators",
    ),
    "built-in servlet other than its URN": (
        [_diss("SERVLET", SERVLET, "urn:test:mech")],
        f"disseminators[0].servlet: must be {SERVLET}",
    ),
}


def rule_break_manifest(case: str) -> bytes:
    disseminators, _ = RULE_BREAKS[case]
    return build(dict(FIXED_SPEC, name="urn:test:rule-break", streams=FIXED_SPEC["streams"][:1],
                      disseminators=disseminators, primitive=None)).serialize()


@pytest.mark.parametrize("case", RULE_BREAKS)
def test_manifest_refuses_builtin_records_requests_cannot_create(case, tmp_path):
    manifest = rule_break_manifest(case)
    with pytest.raises(MalformedManifest) as err:
        deserialize_object(manifest)
    assert str(err.value) == f"manifest: {RULE_BREAKS[case][1]}"

    repo = Repository(
        RepositoryConfig("urn:test:repo-b", str(tmp_path), "b.local:80", "naming.local:80", "test"),
        naming=None,
        client_factory=None,
    )
    before = _tree(tmp_path)
    with pytest.raises(MalformedManifest):
        repo.receive_manifest(manifest)
    assert _tree(tmp_path) == before

    # a stored file holding such a record is quarantined at load
    path = repo.store.path_for("urn:test:rule-break")
    path.write_bytes(manifest)
    reborn = Repository(repo.config, naming=None, client_factory=None)
    assert not reborn.contains("urn:test:rule-break") and not path.exists()
    assert [q.read_bytes() for q in reborn.store.quarantine_dir.iterdir()] == [manifest]


def test_receive_manifest_route_refuses_builtin_rule_break(tmp_path):
    fed = make_wire_federation(tmp_path, with_types=False)
    try:
        endpoint = fed.servers[0].endpoint
        for case in RULE_BREAKS:
            status, doc = probe(endpoint, "POST", "/internal/receive-manifest",
                                rule_break_manifest(case))
            assert (status, doc["error"]) == (400, "MALFORMED_MANIFEST"), case
            assert RULE_BREAKS[case][1] in doc["detail"]
        assert not fed.repos[0].contains("urn:test:rule-break")
        assert list(fed.repos[0].store.objects_dir.iterdir()) == []
    finally:
        fed.stop()
