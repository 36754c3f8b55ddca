"""Odd documents raise their format's own error, never a Python one.

Every field of each fixture document is replaced by each of a dozen odd
values (or dropped), and the result is parsed. A parser may accept what it
gets or raise its format's error; a ``TypeError``, ``KeyError``,
``ValueError`` or ``RecursionError`` escaping instead would reach a client as
a 500. The parser escapes (deep nesting, an integer past the digit limit, a
lone surrogate) are checked apart, in place of each top-level field and as
the whole document.
"""

from __future__ import annotations

import json

import pytest

from conftest import fixture_documents
from objrepo import access
from objrepo.canonical import canonical_bytes, sha256_hex
from objrepo.errors import (
    MalformedAcl,
    MalformedManifest,
    MalformedServlet,
    MalformedSignature,
    UnknownStep,
)
from objrepo.kernel import (
    AccessManager,
    DigitalObjectKernel,
    Disseminator,
    DisseminatorKind,
    deserialize_object,
)
from objrepo.typesys import parse_servlet_program, parse_signature

ODD_VALUES = [None, True, 0, -1, 2.5, 10**40, "", "x", "\ud800", [], [[[]]], {}, {"": None}]
_DROP = object()

#: raw JSON text that ``json.loads`` refuses or recurses on
ESCAPES = {
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "long-integer": "7" * 5000,
    "lone-surrogate": '"\\ud800"',
}

ACL = {
    "default": "deny",
    "entries": [
        {"principal": "alice", "methods": ["*"], "effect": "allow",
         "transforms": [{"op": "stamp", "text": "licensed"}], "reason": "staff"},
        {"principal": "*", "methods": ["getDCRecord", "getDCField"], "effect": "deny"},
    ],
}


def _manifest() -> dict:
    obj = DigitalObjectKernel(name="urn:test:probe-1")
    obj.create_datastream("text/plain", b"one")
    obj.create_datastream("application/x-fedora-acl+json", json.dumps(ACL).encode())
    obj.disseminators.append(Disseminator(
        "DISS1", DisseminatorKind.CONTENT, "urn:test:type-dc", "urn:test:mech-dc-pass",
        {"dc": ["DS1"]},
    ))
    obj.next_diss_seq = 2
    for target in ("PRIMITIVE", "DISS1"):
        obj.access_managers[target] = AccessManager("urn:test:acl-1", {"acl": ["DS2"]})
    return json.loads(obj.serialize())


def _sealed(doc) -> bytes:
    """A manifest whose digest verifies, so that its shape is what is checked."""
    if isinstance(doc, dict):
        try:
            doc = dict(doc, digest=sha256_hex(canonical_bytes(dict(doc, digest=""))))
        except UnicodeEncodeError:  # no canonical form; the digest check refuses it
            pass
    return json.dumps(doc).encode()


def _formats() -> dict:
    """format -> (parse, its errors, documents, document -> bytes)."""
    docs = fixture_documents()
    plain = lambda doc: json.dumps(doc).encode()  # noqa: E731
    servlets = [doc for label, doc in docs.items() if label.startswith("mech-")]
    return {
        "signature": (parse_signature, (MalformedSignature,),
                      [doc for label, doc in docs.items() if label.startswith("type-")], plain),
        "servlet": (parse_servlet_program, (MalformedServlet, UnknownStep), servlets, plain),
        "builtin-servlet": (parse_servlet_program, (MalformedServlet,), [docs["acl-v1"]], plain),
        "acl": (access.parse_acl, (MalformedAcl,), [ACL], plain),
        "manifest": (deserialize_object, (MalformedManifest,), [_manifest()], _sealed),
    }


FORMATS = _formats()


def _paths(node, path=()):
    """The path of every field below ``node``, as key and index tuples."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``, or
    dropped when ``value`` is ``_DROP``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is not _DROP:
        parent[path[-1]] = value
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    return doc


def _misfits(parse, errors, data: bytes, label: str) -> list[str]:
    try:
        parse(data)
    except errors:
        pass
    except Exception as exc:  # noqa: BLE001 - the failure being looked for
        return [f"{label}: {type(exc).__name__}: {str(exc)[:80]}"]
    return []


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mutated_documents_raise_their_own_error(fmt):
    parse, errors, docs, encode = FORMATS[fmt]
    misfits = []
    checked = 0
    for n, doc in enumerate(docs):
        for path in _paths(doc):
            for value in [*ODD_VALUES, _DROP]:
                if fmt == "manifest" and path == ("digest",):
                    continue  # a broken digest is DIGEST_MISMATCH, by design
                data = encode(_replaced(doc, path, value))
                misfits += _misfits(parse, errors, data, f"doc {n} {path} = {value!r}")
                checked += 1
    assert checked > 50
    assert misfits == []


@pytest.mark.parametrize("escape", sorted(ESCAPES))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_parser_escapes_raise_their_own_error(fmt, escape):
    parse, errors, docs, encode = FORMATS[fmt]
    raw = ESCAPES[escape]
    marker = "__ESCAPE__"
    misfits = _misfits(parse, errors, raw.encode(), "whole document")
    doc = docs[0]
    for key in doc:
        text = encode(_replaced(doc, (key,), marker)).decode()
        data = text.replace(json.dumps(marker), raw, 1).encode()
        misfits += _misfits(parse, errors, data, f"{key} = {escape}")
    assert misfits == []
