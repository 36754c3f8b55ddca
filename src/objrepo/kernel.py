"""The digital-object structural kernel.

A :class:`DigitalObjectKernel` aggregates MIME-typed opaque byte packages
(datastreams), bindings onto externally named content types (disseminators),
and optional access managers guarding each disseminator or the structural
request set itself. The kernel never interprets datastream bytes; meaning is
added by servlet programs resolved through a :class:`~objrepo.typesys.ContentTypeResolver`.

Objects serialize to a canonical, digest-carrying JSON manifest so replicas
can be compared byte-for-byte across repositories. A repository stores an
object as a storage record: the same document with the SHA-256 of each large
stream in place of its body, whose bytes are kept apart under that hash.
Both are read back by one rule: the :mod:`objrepo.shape` schema of the
document builds an object, checking the bindings it shares with requests,
and the document is accepted only if that object re-encodes to its very
bytes. The digest is checked only for a document so refused.
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
RECORD_VERSION = "objrepo-record-1"
#: A stream body of at least this many bytes is stored apart from its
#: object's storage record, as a blob named by its SHA-256; a smaller one
#: stays in the record as base64. Each body stored apart costs a file
#: creation when first stored, and each body kept in the record costs its
#: re-encoding and rewrite at every write of the object; at about this size
#: the two cost the same.
BLOB_MIN_BYTES = 64 * 1024

PRIMITIVE_TARGET = "PRIMITIVE"


class Primitive(NamedTuple):
    """One structural or gateway request every object answers."""

    request: str  # its name in an ACL on the PRIMITIVE target
    method: str  # the DigitalObjectKernel method that serves it
    writes: bool = False
    transforms: bool = False  # output transforms apply to its (mime, bytes) result
    resolver: bool = False  # the method takes the content-type resolver
    principal: bool = False  # the method takes the caller's principal


PRIMITIVES = (
    Primitive("CreateDataStream", "create_datastream", writes=True),
    Primitive("GetDataStreams", "get_datastreams"),
    Primitive("GetDataStreamContent", "get_datastream_content", transforms=True),
    Primitive("CreateDisseminator", "create_disseminator", writes=True, resolver=True),
    Primitive("GetDisseminators", "get_disseminators"),
    Primitive("ListDisseminatorTypes", "list_disseminator_types"),
    Primitive("ListDisseminatorMethods", "list_disseminator_methods", resolver=True),
    Primitive("GetDissemination", "get_dissemination", transforms=True, resolver=True,
              principal=True),
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
    """An opaque byte package, never changed once created. ``sha256`` is the
    hash of ``content``, computed once unless the caller already knows it."""

    id: str
    mime: str
    content: bytes
    sha256: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        if not self.sha256:
            self.sha256 = hashlib.sha256(self.content).hexdigest()


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


def _builtin_servlet(kind: DisseminatorKind, content_type: str, servlet, others) -> str | None:
    """The reserved URN a ``kind`` disseminator under ``content_type`` names
    as its servlet, or None for CONTENT. A built-in kind takes only its own
    reserved URN, as content type and as ``servlet`` if one is given, at
    most once among ``others``; CONTENT never takes one. Both the request
    path and the manifest loader hold records to this."""
    if kind is DisseminatorKind.CONTENT:
        if content_type in typesys.BUILTIN_TYPES:
            raise BadArguments(f"{content_type} is reserved for built-in disseminators")
        return None
    reserved = typesys.TYPE_URNS[kind.value]
    if content_type != reserved:
        raise BadArguments(f"{kind.value} disseminators must use content_type {reserved}")
    if servlet not in (None, reserved):
        raise BadArguments(f"{kind.value} disseminators must use servlet {reserved}")
    if any(d.kind is kind for d in others):
        raise DuplicateBuiltin(f"object already has a {kind.value} disseminator")
    return reserved


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
            _builtin_servlet(kind, content_type, servlet, self.disseminators)
            program = resolver.resolve_servlet(servlet)
            signature = resolver.resolve_content_type(content_type)
            if program.implements != content_type:
                raise SignatureMismatch(
                    f"mechanism implements {program.implements}, not {content_type}"
                )
            typesys.check_program_against_signature(program, signature)
            spec = program.attachment_spec
        else:
            servlet = _builtin_servlet(kind, content_type, servlet, self.disseminators)
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
            invoke = partial(typesys.execute_servlet, program, spec, diss.bindings, self, args)
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
        slots; :meth:`_encode` splices the stream bodies in."""
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
        return self._encode(MANIFEST_VERSION, ())

    def blobs(self) -> dict[str, bytes]:
        """{SHA-256: body} of the streams a storage record names by hash."""
        return {ds.sha256: ds.content for ds in self.datastreams
                if len(ds.content) >= BLOB_MIN_BYTES}

    def storage_record(self) -> bytes:
        """The manifest document with the SHA-256 of each of :meth:`blobs`
        in place of its body, sealed the same way with a digest of its own."""
        return self._encode(RECORD_VERSION, self.blobs())

    def _encode(self, version: str, apart) -> bytes:
        """The canonical ``version`` document of this object, each stream
        whose SHA-256 is in ``apart`` named by that hash, with the empty
        ``digest`` slot holding the SHA-256 of the whole.

        Only the few hundred bytes of the skeleton go through ``json.dumps``;
        base64 needs no JSON escaping, so each body is spliced into its empty
        ``content_b64`` slot verbatim. Every other string value sits under a
        fixed key, so the skeleton has exactly one slot per inline body.
        "digest" sorts after "access_managers" and "datastreams", whose
        values hold no ``"digest":""``, so the first such slot in the last
        part is the document's own.
        """
        if self.name is None:
            raise UndepositedObject("object has no name yet; deposit it first")
        doc = dict(self._manifest_dict(), version=version)
        inline = []
        for entry, ds in zip(doc["datastreams"], self.datastreams):
            if ds.sha256 in apart:
                del entry["content_b64"]
                entry["sha256"] = ds.sha256
            else:
                inline.append(base64.b64encode(ds.content))
        pieces = canonical_bytes(doc).split(b'"content_b64":""')
        parts = [pieces[0]]
        for b64, piece in zip(inline, pieces[1:]):
            parts += (b'"content_b64":"', b64, b'"' + piece)
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        parts[-1] = parts[-1].replace(
            b'"digest":""', b'"digest":"%s"' % digest.hexdigest().encode("ascii"), 1
        )
        return b"".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitalObjectKernel):
            return NotImplemented
        return self._manifest_dict() == other._manifest_dict() and all(
            a.content == b.content for a, b in zip(self.datastreams, other.datastreams)
        )


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
            _builtin_servlet(diss.kind, diss.content_type, diss.servlet, disseminators[:i])
        except (BadArguments, DuplicateBuiltin) as exc:
            raise shape.Invalid(str(exc), ["disseminators", i]) from None
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


def _document(version: str, stream: shape.Check) -> shape.Check:
    """The schema of a manifest (``version`` MANIFEST_VERSION) or of a
    storage record; they differ only in how a ``stream`` entry holds its body."""
    return shape.record(
        _manifest_object,
        version=shape.one_of(version),
        name=shape.URN,
        seq=shape.record(dict, diss=shape.integer(1), ds=shape.integer(1)),
        datastreams=shape.list_of(stream),
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


_MANIFEST = _document(MANIFEST_VERSION, shape.record(
    lambda id, mime, content_b64: DataStream(id, mime, content_b64),
    id=_DS_ID,
    mime=shape.MIME,
    content_b64=_base64,
))
_SHA256 = shape.matches(re.compile(r"[0-9a-f]{64}\Z"), "must be a SHA-256 in hex")


def _check_digest(doc, what: str) -> None:
    """``doc`` carries its digest: that of its canonical form with an empty
    digest. :func:`_decode` checks it only for a document it refuses, and
    before the refusal is raised, so that corruption is always reported as
    DIGEST_MISMATCH when the document still parses as JSON."""
    digest = doc.get("digest") if isinstance(doc, dict) else None
    if not isinstance(digest, str):
        raise MalformedManifest(f"{what}: missing digest")
    try:
        expected = sha256_hex(canonical_bytes(dict(doc, digest="")))
    except (UnicodeEncodeError, RecursionError):
        # No canonical form: a lone surrogate has no UTF-8 encoding, and a
        # document may nest deeper than json.dumps recurses.
        raise MalformedManifest(f"{what} has no canonical encoding") from None
    if expected != digest:
        raise DigestMismatch(f"{what} digest does not verify")


def _decode(data: bytes, schema: shape.Check, what: str, encode) -> DigitalObjectKernel:
    """The object ``schema`` builds from the document ``data``, accepted
    only if ``encode`` turns it back into ``data`` byte for byte, which
    proves its digest as well. A document refused for its shape, for a
    stream body it names, or for not being that encoding is refused for its
    digest instead when that does not verify."""
    doc = shape.load(data, MalformedManifest, what)
    try:
        obj = shape.check(schema, doc, MalformedManifest, what)
        if encode(obj) != data:
            raise MalformedManifest(f"{what} is not in canonical form")
    except (MalformedManifest, DigestMismatch, UnicodeEncodeError):
        _check_digest(doc, what)
        raise
    return obj


def deserialize_object(data: bytes) -> DigitalObjectKernel:
    """The object a canonical manifest describes: one that serializes to it."""
    return _decode(data, _MANIFEST, "manifest", DigitalObjectKernel.serialize)


def load_record(data: bytes, blob) -> DigitalObjectKernel:
    """The object a :meth:`~DigitalObjectKernel.storage_record` describes,
    the body of each stream named by hash read by ``blob(sha256)``; like a
    manifest, a record is taken only if it is that object's own record."""

    def stream(id, mime, content_b64=None, sha256=None):
        if (content_b64 is None) == (sha256 is None):
            raise shape.Invalid("must hold one of content_b64 and sha256")
        if sha256 is None:
            return DataStream(id, mime, content_b64)
        return DataStream(id, mime, blob(sha256), sha256)

    streams = shape.record(
        stream,
        id=_DS_ID,
        mime=shape.MIME,
        content_b64=shape.optional(_base64),
        sha256=shape.optional(_SHA256),
    )
    schema = _document(RECORD_VERSION, streams)
    return _decode(data, schema, "record", DigitalObjectKernel.storage_record)
