"""The digital-object structural kernel.

A :class:`DigitalObjectKernel` aggregates MIME-typed opaque byte packages
(datastreams), bindings onto externally named content types (disseminators),
and optional access managers guarding each disseminator or the structural
request set itself. The kernel never interprets datastream bytes; meaning is
added by servlet programs resolved through a :class:`~objrepo.typesys.ContentTypeResolver`.

Objects serialize to a canonical, digest-carrying JSON manifest so replicas
can be compared byte-for-byte across repositories. Reading one back checks
the digest first, then the :mod:`objrepo.shape` schema of the manifest and
the bindings it shares with requests.
"""

from __future__ import annotations

import base64
import hashlib
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import NamedTuple

from . import access, shape, typesys
from .canonical import canonical_bytes, sha256_hex
from .errors import (
    AttachmentViolation,
    BadArguments,
    DigestMismatch,
    DuplicateBuiltin,
    MalformedManifest,
    MalformedMime,
    NoSuchDataStream,
    NoSuchDisseminator,
    NoSuchMethod,
    NoSuchTypeOnObject,
    SignatureMismatch,
    UndepositedObject,
)

MANIFEST_VERSION = "objrepo-manifest-1"

PRIMITIVE_TARGET = "PRIMITIVE"


class Primitive(NamedTuple):
    """One structural or gateway request every object answers."""

    request: str  # its name in an ACL on the PRIMITIVE target
    method: str  # the DigitalObjectKernel method that serves it
    writes: bool = False
    transforms: bool = False  # output transforms apply to its (mime, bytes) result
    resolver: bool = False  # the method takes the content-type resolver


PRIMITIVES = (
    Primitive("CreateDataStream", "create_datastream", writes=True),
    Primitive("GetDataStreams", "get_datastreams"),
    Primitive("GetDataStreamContent", "get_datastream_content", transforms=True),
    Primitive("CreateDisseminator", "create_disseminator", writes=True, resolver=True),
    Primitive("GetDisseminators", "get_disseminators"),
    Primitive("ListDisseminatorTypes", "list_disseminator_types"),
    Primitive("ListDisseminatorMethods", "list_disseminator_methods", resolver=True),
    Primitive("GetDissemination", "get_dissemination", transforms=True, resolver=True),
    Primitive("SetAccessManager", "set_access_manager", writes=True, resolver=True),
    Primitive("GetAccessManager", "get_access_manager"),
)


class DisseminatorKind(str, Enum):
    CONTENT = "CONTENT"
    SIGNATURE = "SIGNATURE"
    SERVLET = "SERVLET"
    ACCESS_MANAGER_SERVLET = "ACCESS_MANAGER_SERVLET"


KINDS = shape.one_of(*(kind.value for kind in DisseminatorKind))


@dataclass
class DataStream:
    id: str
    mime: str
    content: bytes


@dataclass
class AccessManager:
    """Rights-scheme binding: scheme object URN plus argument streams."""

    id: str
    scheme: str
    bindings: dict[str, list[str]]


@dataclass
class Disseminator:
    id: str
    kind: DisseminatorKind
    content_type: str
    servlet: str
    bindings: dict[str, list[str]]
    access_manager: AccessManager | None = None


DS_ID_RE = re.compile(r"^DS([1-9][0-9]*)$")
DISS_ID_RE = re.compile(r"^DISS([1-9][0-9]*)$")
_DS_ID = shape.matches(DS_ID_RE, "must be a datastream id")
#: structure id -> datastream ids, as requests and manifests carry bindings
BINDINGS = shape.map_of(shape.NON_EMPTY, shape.list_of(_DS_ID))


def _builtin_servlet(kind: DisseminatorKind, content_type: str, others) -> str | None:
    """The reserved URN a ``kind`` disseminator under ``content_type`` names
    as its servlet, or None for CONTENT. A built-in kind takes only its own
    reserved URN, at most once among ``others``; CONTENT never takes one.
    Both the request path and the manifest loader hold records to this."""
    if kind is DisseminatorKind.CONTENT:
        if content_type in typesys.BUILTIN_TYPES:
            raise BadArguments(f"{content_type} is reserved for built-in disseminators")
        return None
    servlet = typesys.TYPE_URNS[kind.value]
    if content_type != servlet:
        raise BadArguments(f"{kind.value} disseminators must use content_type {servlet}")
    if any(d.kind is kind for d in others):
        raise DuplicateBuiltin(f"object already has a {kind.value} disseminator")
    return servlet


def _request_bindings(bindings) -> dict[str, list[str]]:
    if bindings is None:
        return {}
    return shape.check(BINDINGS, bindings, BadArguments, "bindings")


@dataclass(eq=False)
class DigitalObjectKernel:
    """A sealed container of datastreams and disseminators.

    ``name`` is absent until the owning repository deposits the object;
    undeposited objects are reachable only through their staging handle.
    Id counters never run backwards, so stream and disseminator ids are
    unique across the whole life of the object.
    """

    name: str | None = None
    datastreams: list[DataStream] = field(default_factory=list)
    disseminators: list[Disseminator] = field(default_factory=list)
    primitive_access_manager: AccessManager | None = None
    next_ds_seq: int = 1
    next_diss_seq: int = 1
    # Access-manager ids are session-local: the manifest stores managers by
    # target, so ids are reassigned on load and excluded from equality.
    next_am_seq: int = 1

    def copy(self) -> DigitalObjectKernel:
        """A copy for one write to change: new lists and disseminator records,
        shared stream records and bytes, which no write changes."""
        return replace(
            self,
            datastreams=list(self.datastreams),
            disseminators=[replace(d) for d in self.disseminators],
        )

    # -- lookup helpers -------------------------------------------------

    def find_datastream(self, ds_id: str) -> DataStream | None:
        for ds in self.datastreams:
            if ds.id == ds_id:
                return ds
        return None

    def find_disseminator(self, diss_id: str) -> Disseminator | None:
        for d in self.disseminators:
            if d.id == diss_id:
                return d
        return None

    # -- structural requests --------------------------------------------

    def create_datastream(self, mime: str, content: bytes) -> str:
        shape.check(shape.MIME, mime, MalformedMime, "mime")
        if not isinstance(content, (bytes, bytearray)):
            raise BadArguments("datastream content must be bytes")
        ds_id = f"DS{self.next_ds_seq}"
        self.next_ds_seq += 1
        self.datastreams.append(DataStream(ds_id, mime, bytes(content)))
        return ds_id

    def get_datastreams(self) -> list[dict]:
        """Opaque stream metadata: id, MIME and length only, no semantic role."""
        return [
            {"id": ds.id, "mime": ds.mime, "length": len(ds.content)} for ds in self.datastreams
        ]

    def get_datastream_content(self, ds_id: str) -> tuple[str, bytes]:
        ds = self.find_datastream(ds_id)
        if ds is None:
            raise NoSuchDataStream(f"no datastream {ds_id!r}")
        return ds.mime, ds.content

    # -- gateway requests ------------------------------------------------

    def create_disseminator(
        self,
        kind: DisseminatorKind,
        content_type: str,
        servlet: str,
        bindings,
        resolver,
    ) -> str:
        kind = DisseminatorKind(kind)
        shape.check(shape.URN, content_type, BadArguments, "content_type")
        bindings = _request_bindings(bindings)

        if kind is DisseminatorKind.CONTENT:
            shape.check(shape.URN, servlet, BadArguments, "servlet")
            _builtin_servlet(kind, content_type, self.disseminators)
            program = resolver.resolve_servlet(servlet)
            signature = resolver.resolve_content_type(content_type)
            if program.implements != content_type:
                raise SignatureMismatch(
                    f"mechanism implements {program.implements}, not {content_type}"
                )
            typesys.check_program_against_signature(program, signature)
            spec = program.attachment_spec
        else:
            servlet = _builtin_servlet(kind, content_type, self.disseminators)
            spec = typesys.AttachmentSpecification([typesys.BUILTIN_TYPES[servlet].structure])
        self._check_bindings(spec, bindings)

        diss_id = f"DISS{self.next_diss_seq}"
        self.next_diss_seq += 1
        self.disseminators.append(Disseminator(diss_id, kind, content_type, servlet, bindings))
        return diss_id

    def _check_bindings(self, spec: typesys.AttachmentSpecification, bindings: dict) -> None:
        violations = typesys.validate_attachments(spec, bindings, self)
        if violations:
            raise AttachmentViolation(typesys.describe_violations(violations))

    def get_disseminators(self) -> list[dict]:
        return [
            {
                "id": d.id,
                "kind": d.kind.value,
                "content_type": d.content_type,
                "servlet": d.servlet,
                "bindings": {sid: list(ids) for sid, ids in d.bindings.items()},
                "has_access_manager": d.access_manager is not None,
            }
            for d in self.disseminators
        ]

    def list_disseminator_types(self) -> list[str]:
        """Content-type URNs in first-appearance order; built-ins excluded."""
        seen: list[str] = []
        for d in self.disseminators:
            if d.kind is DisseminatorKind.CONTENT and d.content_type not in seen:
                seen.append(d.content_type)
        return seen

    def list_disseminator_methods(self, content_type: str, resolver) -> list[dict]:
        if content_type not in self.list_disseminator_types():
            raise NoSuchTypeOnObject(f"object has no content type {content_type}")
        signature = resolver.resolve_content_type(content_type)
        return [spec.to_dict() for spec in signature.methods]

    def _content_disseminator(self, content_type: str) -> Disseminator:
        for d in self.disseminators:
            if d.kind is DisseminatorKind.CONTENT and d.content_type == content_type:
                return d
        raise NoSuchTypeOnObject(f"object has no content type {content_type}")

    def get_dissemination(
        self,
        content_type: str,
        method: str,
        args: dict[str, str],
        principal: str,
        resolver,
    ) -> tuple[str, bytes]:
        """Run one content-type service request and return (mime, bytes).

        Requests against the reserved built-in type URNs are answered
        natively from the bound document stream, which is what lets type
        resolution bottom out. When several disseminators carry the same
        content type, the first in insertion order serves the request.
        """
        row = typesys.BUILTIN_TYPES.get(content_type)
        if row is None:
            diss = self._content_disseminator(content_type)
            signature = resolver.resolve_content_type(content_type)
            spec = signature.find_method(method)
            if spec is None:
                raise NoSuchMethod(f"{content_type} has no method {method!r}")
            typesys.check_args(spec, args)
            program = resolver.resolve_servlet(diss.servlet)
            invoke = partial(
                typesys.execute_servlet, program, signature, diss.bindings, self, method, args
            )
        else:
            diss = next((d for d in self.disseminators if d.kind == row.kind), None)
            if diss is None:
                raise NoSuchTypeOnObject(f"object has no {row.kind} disseminator")
            if method not in row.methods:
                raise NoSuchMethod(f"{row.kind} disseminators do not serve {method!r}")
            if args:
                raise BadArguments(f"{method} takes no arguments")
            invoke = partial(self._builtin_document, diss, row, method)
        return access.enforce(diss.access_manager, resolver, self, method, principal, invoke)

    def _builtin_document(self, diss, row: typesys.BuiltinType, method) -> tuple[str, bytes]:
        """The bound document, or for ``getAttachmentSpec`` its servlet's
        attachment specification."""
        ds_ids = diss.bindings.get(row.structure.id, [])
        ds = self.find_datastream(ds_ids[0]) if ds_ids else None
        if ds is None:
            raise NoSuchDataStream(f"{row.kind} document stream is missing")
        if method == row.methods[0]:
            return ds.mime, ds.content
        structures = row.parse(ds.content).attachment_spec.structures
        doc = [{"id": s.id, "mime": s.mime, "ordinality": s.ordinality} for s in structures]
        return "application/json", canonical_bytes(doc)

    # -- access managers --------------------------------------------------

    def set_access_manager(self, target: str, scheme: str, bindings, resolver) -> str:
        """Attach a rights scheme to PRIMITIVE or a disseminator, replacing
        any manager already there."""
        shape.check(shape.URN, scheme, BadArguments, "scheme")
        diss = None
        if target != PRIMITIVE_TARGET:
            diss = self.find_disseminator(target)
            if diss is None:
                raise NoSuchDisseminator(f"no disseminator {target!r}")
        bindings = _request_bindings(bindings)
        self._check_bindings(resolver.resolve_access_scheme(scheme).attachment_spec, bindings)

        am = AccessManager(f"AM{self.next_am_seq}", scheme, bindings)
        self.next_am_seq += 1
        if diss is None:
            self.primitive_access_manager = am
        else:
            diss.access_manager = am
        return am.id

    def get_access_manager(self, target: str) -> dict | None:
        if target == PRIMITIVE_TARGET:
            am = self.primitive_access_manager
        else:
            diss = self.find_disseminator(target)
            if diss is None:
                raise NoSuchDisseminator(f"no disseminator {target!r}")
            am = diss.access_manager
        if am is None:
            return None
        bindings = {sid: list(ids) for sid, ids in am.bindings.items()}
        return {"id": am.id, "scheme": am.scheme, "bindings": bindings}

    # -- canonical serialization ------------------------------------------

    def _access_manager_entries(self) -> list[dict]:
        entries = []
        if self.primitive_access_manager is not None:
            am = self.primitive_access_manager
            entries.append({"bindings": am.bindings, "scheme": am.scheme, "target": PRIMITIVE_TARGET})
        for d in self.disseminators:
            if d.access_manager is not None:
                am = d.access_manager
                entries.append({"bindings": am.bindings, "scheme": am.scheme, "target": d.id})
        return entries

    def _manifest_dict(self) -> dict:
        """The manifest document with empty ``digest`` and ``content_b64``
        slots; :func:`_canonical_parts` splices the stream bodies in."""
        return {
            "access_managers": self._access_manager_entries(),
            "datastreams": [
                {"content_b64": "", "id": ds.id, "mime": ds.mime} for ds in self.datastreams
            ],
            "digest": "",
            "disseminators": [
                {
                    "bindings": d.bindings,
                    "content_type": d.content_type,
                    "id": d.id,
                    "kind": d.kind.value,
                    "servlet": d.servlet,
                }
                for d in self.disseminators
            ],
            "name": self.name,
            "seq": {"diss": self.next_diss_seq, "ds": self.next_ds_seq},
            "version": MANIFEST_VERSION,
        }

    def serialize(self) -> bytes:
        """Canonical manifest bytes; deterministic for a given object state."""
        if self.name is None:
            raise UndepositedObject("object has no name yet; deposit it first")
        # Never None here: every other string value in a manifest sits
        # under a fixed key, so the skeleton has exactly one slot per stream.
        parts = _canonical_parts(
            self._manifest_dict(), [base64.b64encode(ds.content) for ds in self.datastreams]
        )
        # "digest" sorts after "datastreams", so its slot is in the last part.
        parts[-1] = parts[-1].replace(
            _DIGEST_SLOT, b'"digest":"%s"' % _sha256_hex(parts).encode("ascii"), 1
        )
        return b"".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitalObjectKernel):
            return NotImplemented
        return self._manifest_dict() == other._manifest_dict() and all(
            a.content == b.content for a, b in zip(self.datastreams, other.datastreams)
        )


_B64_SLOT = b'"content_b64":""'
_DIGEST_SLOT = b'"digest":""'
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="


def _canonical_parts(skeleton: dict, b64s: list[bytes]) -> list[bytes] | None:
    """``canonical_bytes`` of ``skeleton`` with the i-th ``content_b64`` slot
    holding ``b64s[i]``, as parts whose concatenation is that encoding.

    Only the few hundred bytes of the skeleton go through ``json.dumps``;
    base64 needs no JSON escaping, so each body is spliced in verbatim.
    Returns None when the encoded skeleton does not hold exactly one empty
    ``content_b64`` slot per body.
    """
    pieces = canonical_bytes(skeleton).split(_B64_SLOT)
    if len(pieces) != len(b64s) + 1:
        return None
    parts = [pieces[0]]
    for b64, piece in zip(b64s, pieces[1:]):
        parts += (b'"content_b64":"', b64, b'"' + piece)
    return parts


def _sha256_hex(parts: list[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _expected_digest(doc: dict) -> str:
    """``sha256_hex(canonical_bytes(dict(doc, digest="")))``, without
    re-encoding stream bodies that are ASCII base64 text."""
    streams = doc.get("datastreams")
    if isinstance(streams, list) and all(
        isinstance(e, dict) and isinstance(e.get("content_b64"), str) and e["content_b64"].isascii()
        for e in streams
    ):
        b64s = [e["content_b64"].encode("ascii") for e in streams]
        if not any(b.translate(None, _B64_ALPHABET) for b in b64s):
            skeleton = dict(doc, digest="", datastreams=[dict(e, content_b64="") for e in streams])
            parts = _canonical_parts(skeleton, b64s)
            if parts is not None:
                return _sha256_hex(parts)
    return sha256_hex(canonical_bytes(dict(doc, digest="")))


def _base64(value) -> bytes:
    if isinstance(value, str):
        try:
            return base64.b64decode(value, validate=True)
        except ValueError:  # binascii.Error, or text that is not ASCII
            pass
    raise shape.Invalid("must be base64 text")


def _check_ids(key: str, entries: list, pattern, counter: int) -> None:
    """Ids rise and stay below their ``seq`` counter."""
    last, width = 0, len(str(counter))
    for i, entry in enumerate(entries):
        digits = pattern.match(entry.id).group(1)
        # an id longer than the counter is beyond it, and may be longer than int() converts
        n = int(digits) if len(digits) <= width else counter
        if not last < n < counter:
            raise shape.Invalid("out of order or beyond its seq counter", [key, i, "id"])
        last = n


def _check_streams(obj: DigitalObjectKernel, bindings: dict, path: list) -> None:
    for sid, ds_ids in bindings.items():
        for j, ds_id in enumerate(ds_ids):
            if obj.find_datastream(ds_id) is None:
                raise shape.Invalid(f"references missing stream {ds_id}", [*path, sid, j])


def _manifest_object(name, seq, datastreams, disseminators, access_managers, **_):
    """The object a manifest of the right shape describes, once its ids,
    bindings and access-manager targets agree with each other."""
    _check_ids("datastreams", datastreams, DS_ID_RE, seq["ds"])
    _check_ids("disseminators", disseminators, DISS_ID_RE, seq["diss"])
    obj = DigitalObjectKernel(
        name, datastreams, disseminators, next_ds_seq=seq["ds"], next_diss_seq=seq["diss"]
    )
    for i, diss in enumerate(disseminators):
        try:
            servlet = _builtin_servlet(diss.kind, diss.content_type, disseminators[:i])
        except (BadArguments, DuplicateBuiltin) as exc:
            raise shape.Invalid(str(exc), ["disseminators", i]) from None
        if servlet not in (None, diss.servlet):
            raise shape.Invalid(f"must be {servlet}", ["disseminators", i, "servlet"])
        _check_streams(obj, diss.bindings, ["disseminators", i, "bindings"])
    # each target takes one manager at most
    targets = {PRIMITIVE_TARGET: obj, **{diss.id: diss for diss in disseminators}}
    for i, entry in enumerate(access_managers):
        _check_streams(obj, entry["bindings"], ["access_managers", i, "bindings"])
        target = targets.pop(entry["target"], None)
        if target is None:
            raise shape.Invalid("unknown or second target", ["access_managers", i, "target"])
        am = AccessManager(f"AM{obj.next_am_seq}", entry["scheme"], entry["bindings"])
        obj.next_am_seq += 1
        if target is obj:
            obj.primitive_access_manager = am
        else:
            target.access_manager = am
    return obj


_MANIFEST = shape.record(
    _manifest_object,
    version=shape.one_of(MANIFEST_VERSION),
    name=shape.URN,
    seq=shape.record(dict, diss=shape.integer(1), ds=shape.integer(1)),
    datastreams=shape.list_of(shape.record(
        lambda id, mime, content_b64: DataStream(id, mime, content_b64),
        id=_DS_ID,
        mime=shape.MIME,
        content_b64=_base64,
    )),
    disseminators=shape.list_of(shape.record(
        lambda id, kind, **fields: Disseminator(id, DisseminatorKind(kind), **fields),
        id=shape.matches(DISS_ID_RE, "must be a disseminator id"),
        kind=KINDS,
        content_type=shape.URN,
        servlet=shape.URN,
        bindings=BINDINGS,
    )),
    access_managers=shape.list_of(
        shape.record(dict, target=shape.STRING, scheme=shape.URN, bindings=BINDINGS)
    ),
    digest=shape.STRING,
)


def deserialize_object(data: bytes) -> DigitalObjectKernel:
    """Parse and verify a canonical manifest.

    The digest is checked before the shape so that corruption is always
    reported as DIGEST_MISMATCH when the document still parses as JSON.
    """
    doc = shape.load(data, MalformedManifest, "manifest")
    digest = doc.get("digest") if isinstance(doc, dict) else None
    if not isinstance(digest, str):
        raise MalformedManifest("manifest: missing digest")
    try:
        expected = _expected_digest(doc)
    except (UnicodeEncodeError, RecursionError):
        # No canonical form: a lone surrogate has no UTF-8 encoding, and a
        # document may nest deeper than json.dumps recurses.
        raise MalformedManifest("manifest has no canonical encoding") from None
    if expected != digest:
        raise DigestMismatch("manifest digest does not verify")
    return shape.check(_MANIFEST, doc, MalformedManifest, "manifest")
