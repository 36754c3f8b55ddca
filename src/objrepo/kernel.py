"""The digital-object structural kernel.

A :class:`DigitalObjectKernel` aggregates MIME-typed opaque byte packages
(datastreams), bindings onto externally named content types (disseminators),
and optional access managers guarding each disseminator or the structural
request set itself. The kernel never interprets datastream bytes; meaning is
added by servlet programs resolved through a :class:`~objrepo.typesys.ContentTypeResolver`.

Objects serialize to a canonical, digest-carrying JSON manifest so replicas
can be compared byte-for-byte across repositories. A repository stores an
object as a storage record: a header, the same document with each stream
named by its length and SHA-256 in place of its body, one newline, then the
bodies under :data:`BLOB_MIN_BYTES` raw in stream order; larger bodies are
kept apart under their hash. Both are read back by one rule: the
:mod:`objrepo.shape` schema of the document builds an object, checking the
bindings it shares with requests, and the document is accepted only if
that object re-encodes to its very bytes. The digest is checked only for a
document so refused.
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
RECORD_VERSION = "objrepo-record-2"
#: the storage record before bodies were kept raw: read, and converted at
#: start, never written
_RECORD_1 = "objrepo-record-1"
#: A stream body of at least this many bytes is stored apart from its
#: object's storage record, as a blob named by its SHA-256; a smaller one
#: stays raw in the record, after its header. Each body stored apart costs
#: a file creation when first stored, and each body kept in the record is
#: rewritten (not re-encoded) at every write of the object; at about this
#: size the two cost the same.
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


@dataclass(frozen=True)
class AccessManager:
    """Rights-scheme binding: scheme object URN plus argument streams."""

    scheme: str
    bindings: dict[str, list[str]]


@dataclass(frozen=True)
class Disseminator:
    id: str
    kind: DisseminatorKind
    content_type: str
    servlet: str
    bindings: dict[str, list[str]]


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
    unique across the whole life of the object. ``access_managers`` maps a
    target, :data:`PRIMITIVE_TARGET` or a disseminator id, to its manager.
    """

    name: str | None = None
    datastreams: list[DataStream] = field(default_factory=list)
    disseminators: list[Disseminator] = field(default_factory=list)
    access_managers: dict[str, AccessManager] = field(default_factory=dict)
    next_ds_seq: int = 1
    next_diss_seq: int = 1

    def copy(self) -> DigitalObjectKernel:
        """A copy for one write to change: new containers that share every
        record, none of which a write changes."""
        return replace(
            self,
            datastreams=list(self.datastreams),
            disseminators=list(self.disseminators),
            access_managers=dict(self.access_managers),
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

    def create_disseminator(self, content_type: str, servlet, bindings, kind, resolver) -> str:
        """Bind a content type to a servlet, or to a built-in ``kind``. An
        omitted ``kind`` is the one a reserved type URN implies, else CONTENT."""
        shape.check(shape.URN, content_type, BadArguments, "content_type")
        if kind is None:
            row = typesys.BUILTIN_TYPES.get(content_type)
            kind = DisseminatorKind.CONTENT if row is None else row.kind
        kind = DisseminatorKind(shape.check(KINDS, kind, BadArguments, "kind"))
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
                "has_access_manager": d.id in self.access_managers,
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
        content type, the first in insertion order serves the request. A
        built-in kind sits only under its own reserved URN, so one lookup by
        content type finds either.
        """
        diss = next((d for d in self.disseminators if d.content_type == content_type), None)
        if diss is None:
            raise NoSuchTypeOnObject(f"object has no content type {content_type}")
        row = typesys.BUILTIN_TYPES.get(content_type)
        if row is None:
            signature = resolver.resolve_content_type(content_type)
            spec = signature.find_method(method)
            if spec is None:
                raise NoSuchMethod(f"{content_type} has no method {method!r}")
            typesys.check_args(spec, args)
            program = resolver.resolve_servlet(diss.servlet)
            invoke = partial(typesys.execute_servlet, program, spec, diss.bindings, self, args)
        else:
            if method not in row.methods:
                raise NoSuchMethod(f"{row.kind} disseminators do not serve {method!r}")
            if args:
                raise BadArguments(f"{method} takes no arguments")
            invoke = partial(self._builtin_document, diss, row, method)
        am = self.access_managers.get(diss.id)
        return access.enforce(am, resolver, self, method, principal, invoke)

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
        self._check_target(target)
        bindings = _request_bindings(bindings)
        self._check_bindings(resolver.resolve_access_scheme(scheme).attachment_spec, bindings)
        self.access_managers[target] = AccessManager(scheme, bindings)
        return self.get_access_manager(target)["id"]

    def get_access_manager(self, target: str) -> dict | None:
        """The target's manager, if any. Its ``AMn`` id is its 1-based place
        in the manifest's list, so one version of the object reports the
        same id wherever it is loaded."""
        self._check_target(target)
        am = self.access_managers.get(target)
        if am is None:
            return None
        bindings = {sid: list(ids) for sid, ids in am.bindings.items()}
        am_id = f"AM{self._managed_targets().index(target) + 1}"
        return {"id": am_id, "scheme": am.scheme, "bindings": bindings}

    def _check_target(self, target: str) -> None:
        if target != PRIMITIVE_TARGET and self.find_disseminator(target) is None:
            raise NoSuchDisseminator(f"no disseminator {target!r}")

    def _managed_targets(self) -> list[str]:
        """The targets that have a manager, in manifest order: PRIMITIVE,
        then the disseminators in order."""
        targets = (PRIMITIVE_TARGET, *(d.id for d in self.disseminators))
        return [t for t in targets if t in self.access_managers]

    # -- canonical serialization ------------------------------------------

    def _manifest_dict(self, stream) -> dict:
        """The manifest document with an empty ``digest`` slot, each stream
        entry made by ``stream(ds)``."""
        managers = self.access_managers
        return {
            "access_managers": [
                {"bindings": managers[t].bindings, "scheme": managers[t].scheme, "target": t}
                for t in self._managed_targets()
            ],
            "datastreams": [stream(ds) for ds in self.datastreams],
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
        return self._encode(MANIFEST_VERSION, _inline)

    def blobs(self) -> dict[str, bytes]:
        """{SHA-256: body} of the streams a storage record keeps apart."""
        return {ds.sha256: ds.content for ds in self.datastreams
                if len(ds.content) >= BLOB_MIN_BYTES}

    def storage_record(self) -> bytes:
        """The record header, the manifest document with each stream named
        by its length and SHA-256, sealed the same way with a digest of its
        own; one newline; then each body not in :meth:`blobs`, raw, in
        stream order. Canonical JSON holds no newline, so the first one ends
        the header. No body is encoded or hashed."""
        header = self._encode(RECORD_VERSION, _named)
        small = (ds.content for ds in self.datastreams if len(ds.content) < BLOB_MIN_BYTES)
        return b"".join((header, b"\n", *small))

    def _encode(self, version: str, stream) -> bytes:
        """The canonical ``version`` document of this object, each stream
        entry made by ``stream(ds)``, with the empty ``digest`` slot holding
        the SHA-256 of the whole.

        Only the few hundred bytes of the skeleton go through ``json.dumps``;
        base64 needs no JSON escaping, so the body of each entry with an
        empty ``content_b64`` slot is spliced into it verbatim. Every other
        string value sits under a fixed key, so the skeleton has exactly one
        slot per such entry. "digest" sorts after "access_managers" and
        "datastreams", whose values hold no ``"digest":""``, so the first
        such slot in the last part is the document's own.
        """
        if self.name is None:
            raise UndepositedObject("object has no name yet; deposit it first")
        doc = dict(self._manifest_dict(stream), version=version)
        inline = [base64.b64encode(ds.content)
                  for entry, ds in zip(doc["datastreams"], self.datastreams)
                  if "content_b64" in entry]
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
        return self._manifest_dict(_inline) == other._manifest_dict(_inline) and all(
            a.content == b.content for a, b in zip(self.datastreams, other.datastreams)
        )


def _inline(ds: DataStream) -> dict:
    """A manifest's stream entry, its body to be spliced in as base64."""
    return {"content_b64": "", "id": ds.id, "mime": ds.mime}


def _named(ds: DataStream) -> dict:
    """A record header's stream entry: the body named by length and hash."""
    return {"id": ds.id, "length": len(ds.content), "mime": ds.mime, "sha256": ds.sha256}


def _named_if_blob(ds: DataStream) -> dict:
    """A record-1 stream entry: a body kept apart named by hash, else inline."""
    if len(ds.content) >= BLOB_MIN_BYTES:
        return {"id": ds.id, "mime": ds.mime, "sha256": ds.sha256}
    return _inline(ds)


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
    targets = {PRIMITIVE_TARGET, *(diss.id for diss in disseminators)}
    for i, (target, am) in enumerate(access_managers):
        _check_streams(obj, am.bindings, ["access_managers", i, "bindings"])
        if target not in targets or target in obj.access_managers:
            raise shape.Invalid("unknown or second target", ["access_managers", i, "target"])
        obj.access_managers[target] = am
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
        access_managers=shape.list_of(shape.record(
            lambda target, scheme, bindings: (target, AccessManager(scheme, bindings)),
            target=shape.STRING, scheme=shape.URN, bindings=BINDINGS,
        )),
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


def _decode(doc, data: bytes, schema: shape.Check, what: str, encode) -> DigitalObjectKernel:
    """The object ``schema`` builds from ``doc``, the JSON document parsed
    from ``data`` (from its header, for a record), accepted only if
    ``encode`` turns it back into ``data`` byte for byte, which proves its
    digest as well. A document refused for its shape, for a stream body it
    names, or for not being that encoding is refused for its digest instead
    when that does not verify."""
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
    doc = shape.load(data, MalformedManifest, "manifest")
    return _decode(doc, data, _MANIFEST, "manifest", DigitalObjectKernel.serialize)


def load_record(data: bytes, blob) -> tuple[DigitalObjectKernel, str]:
    """The object a :meth:`~DigitalObjectKernel.storage_record` describes,
    and the version of the format it was stored in. Each body kept apart is
    read by ``blob(sha256)``; each inline one must match its length and
    hash. Like a manifest, a record is taken only if it is that object's own
    record. The header's ``version`` picks the format: a manifest or an
    ``objrepo-record-1`` record that an older objrepo stored is read by the
    rule it was written by; a body's bytes are never looked at for that."""
    head, _, tail = data.partition(b"\n")
    doc = shape.load(head, MalformedManifest, "record")
    version = doc.get("version") if isinstance(doc, dict) else None
    if version == MANIFEST_VERSION:
        return deserialize_object(data), version
    if version == _RECORD_1:
        encode = partial(DigitalObjectKernel._encode, version=_RECORD_1, stream=_named_if_blob)
        return _decode(doc, data, _record_1(blob), "record", encode), version
    at = 0

    def stream(id, mime, length, sha256):
        nonlocal at
        if length >= BLOB_MIN_BYTES:
            return DataStream(id, mime, blob(sha256), sha256)
        content, at = tail[at:at + length], at + length
        if len(content) < length or sha256_hex(content) != sha256:
            raise shape.Invalid("body does not match its length and sha256")
        return DataStream(id, mime, content, sha256)

    schema = _document(RECORD_VERSION, shape.record(
        stream, id=_DS_ID, mime=shape.MIME, length=shape.integer(0), sha256=_SHA256,
    ))
    obj = _decode(doc, data, schema, "record", DigitalObjectKernel.storage_record)
    return obj, RECORD_VERSION


def split_records(data: bytes) -> list[bytes]:
    """The whole records in ``data``, a store file of ``objrepo-record-2``
    records one after another, oldest first. Bytes after the last are
    dropped only as a torn append, a proper prefix of a record: a header cut
    before its newline, or a sealed header declaring more body bytes than
    follow; others are refused. A file with no whole record (one in an older
    format has no newline) is one record, to be refused for its own faults."""
    records, at = [], 0
    while (end := _record_end(data, at)) is not None and end <= len(data):
        records.append(data[at:end])
        at = end
    rest = data[at:]
    if records and rest and end is None and (b"\n" in rest or not rest.startswith(b"{")):
        raise MalformedManifest("bytes after its last record are not a torn append")
    return records or [data]


def _record_end(data: bytes, at: int) -> int | None:
    """Where the record that starts at ``at`` ends, by the inline body
    lengths its header declares; None if no header sealed by its own
    digest is there."""
    try:
        newline = data.index(b"\n", at)
        doc = shape.load(data[at:newline], MalformedManifest, "record")
        _check_digest(doc, "record")
        lengths = [entry["length"] for entry in doc["datastreams"]]
    except (ValueError, MalformedManifest, DigestMismatch, TypeError, KeyError):
        return None
    if not all(type(n) is int and n >= 0 for n in lengths):
        return None
    return newline + 1 + sum(n for n in lengths if n < BLOB_MIN_BYTES)


def _record_1(blob) -> shape.Check:
    """The schema of an ``objrepo-record-1`` record: a manifest whose large
    stream bodies are named by hash, as ``blob(sha256)`` reads them."""

    def stream(id, mime, content_b64=None, sha256=None):
        if (content_b64 is None) == (sha256 is None):
            raise shape.Invalid("must hold one of content_b64 and sha256")
        if sha256 is None:
            return DataStream(id, mime, content_b64)
        return DataStream(id, mime, blob(sha256), sha256)

    return _document(_RECORD_1, shape.record(
        stream,
        id=_DS_ID,
        mime=shape.MIME,
        content_b64=shape.optional(_base64),
        sha256=shape.optional(_SHA256),
    ))
