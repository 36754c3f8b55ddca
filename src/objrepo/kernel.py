"""The digital-object structural kernel.

A :class:`DigitalObjectKernel` aggregates MIME-typed opaque byte packages
(datastreams), bindings onto externally named content types (disseminators),
and optional access managers guarding each disseminator or the structural
request set itself. The kernel never interprets datastream bytes; meaning is
added by servlet programs resolved through a :class:`~objrepo.typesys.ContentTypeResolver`.

Objects serialize to a canonical, digest-carrying JSON manifest so replicas
can be compared byte-for-byte across repositories.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from . import access, typesys
from .canonical import canonical_bytes, sha256_hex
from .errors import (
    AttachmentViolation,
    BadArguments,
    DigestMismatch,
    DuplicateBuiltin,
    MalformedManifest,
    NoSuchDataStream,
    NoSuchDisseminator,
    NoSuchMethod,
    NoSuchTypeOnObject,
    SignatureMismatch,
    UndepositedObject,
)
from .typesys import (
    ACCESS_SERVLET_TYPE_URN,
    SERVLET_MIME,
    SERVLET_TYPE_URN,
    SIGNATURE_MIME,
    SIGNATURE_TYPE_URN,
)
from .validate import (
    DISS_ID_RE,
    DS_ID_RE,
    is_mime,
    is_urn,
    mime_base,
    require_mime,
    require_urn,
)

MANIFEST_VERSION = "objrepo-manifest-1"

PRIMITIVE_TARGET = "PRIMITIVE"

#: Structural request names an ACL on the primitive target may reference.
PRIMITIVE_METHODS = (
    "CreateDataStream",
    "GetDataStreams",
    "GetDataStreamContent",
    "CreateDisseminator",
    "GetDisseminators",
    "ListDisseminatorTypes",
    "ListDisseminatorMethods",
    "GetDissemination",
    "SetAccessManager",
    "GetAccessManager",
)


class DisseminatorKind(str, Enum):
    CONTENT = "CONTENT"
    SIGNATURE = "SIGNATURE"
    SERVLET = "SERVLET"
    ACCESS_MANAGER_SERVLET = "ACCESS_MANAGER_SERVLET"


#: kind -> (reserved type URN, binding structure id, required document MIME)
BUILTIN_KINDS = {
    DisseminatorKind.SIGNATURE: (SIGNATURE_TYPE_URN, "signature", SIGNATURE_MIME),
    DisseminatorKind.SERVLET: (SERVLET_TYPE_URN, "servlet", SERVLET_MIME),
    DisseminatorKind.ACCESS_MANAGER_SERVLET: (ACCESS_SERVLET_TYPE_URN, "servlet", SERVLET_MIME),
}

_URN_TO_BUILTIN_KIND = {urn: kind for kind, (urn, _, _) in BUILTIN_KINDS.items()}

#: Native method names served by each built-in kind.
BUILTIN_METHODS = {
    DisseminatorKind.SIGNATURE: ("getSignature",),
    DisseminatorKind.SERVLET: ("getServlet", "getAttachmentSpec"),
    DisseminatorKind.ACCESS_MANAGER_SERVLET: ("getServlet", "getAttachmentSpec"),
}


def builtin_kind_for_urn(urn: str) -> DisseminatorKind | None:
    return _URN_TO_BUILTIN_KIND.get(urn)


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


def _normalize_bindings(bindings) -> dict[str, list[str]]:
    if bindings is None:
        return {}
    if not isinstance(bindings, dict):
        raise BadArguments("bindings must map structure ids to datastream id lists")
    out: dict[str, list[str]] = {}
    for sid, ds_ids in bindings.items():
        if not isinstance(sid, str) or not sid:
            raise BadArguments(f"invalid structure id {sid!r}")
        if isinstance(ds_ids, str) or not isinstance(ds_ids, (list, tuple)):
            raise BadArguments(f"binding for {sid!r} must be a list of datastream ids")
        ids = []
        for d in ds_ids:
            if not isinstance(d, str) or DS_ID_RE.match(d) is None:
                raise BadArguments(f"invalid datastream id {d!r} bound to {sid!r}")
            ids.append(d)
        out[sid] = ids
    return out


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
        require_mime(mime)
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
        require_urn(content_type, "content_type")
        bindings = _normalize_bindings(bindings)

        if kind is not DisseminatorKind.CONTENT:
            reserved, structure_id, doc_mime = BUILTIN_KINDS[kind]
            if content_type != reserved:
                raise BadArguments(
                    f"{kind.value} disseminators must use content_type {reserved}"
                )
            if kind in (DisseminatorKind.SIGNATURE, DisseminatorKind.SERVLET) and any(
                d.kind is kind for d in self.disseminators
            ):
                raise DuplicateBuiltin(f"object already has a {kind.value} disseminator")
            self._check_builtin_binding(kind, structure_id, doc_mime, bindings)
            servlet = reserved
        else:
            require_urn(servlet, "servlet")
            if builtin_kind_for_urn(content_type) is not None:
                raise BadArguments(f"{content_type} is reserved for built-in disseminators")
            program = resolver.resolve_servlet(servlet)
            signature = resolver.resolve_content_type(content_type)
            if program.implements != content_type:
                raise SignatureMismatch(
                    f"mechanism implements {program.implements}, not {content_type}"
                )
            typesys.check_program_against_signature(program, signature)
            violations = typesys.validate_attachments(program.attachment_spec, bindings, self)
            if violations:
                raise AttachmentViolation(typesys.describe_violations(violations))

        diss_id = f"DISS{self.next_diss_seq}"
        self.next_diss_seq += 1
        self.disseminators.append(Disseminator(diss_id, kind, content_type, servlet, bindings))
        return diss_id

    def _check_builtin_binding(self, kind, structure_id, doc_mime, bindings) -> None:
        if set(bindings) != {structure_id}:
            raise AttachmentViolation(
                f"{kind.value} disseminator requires exactly the {structure_id!r} binding"
            )
        ds_ids = bindings[structure_id]
        if len(ds_ids) != 1:
            raise AttachmentViolation(f"{structure_id}: exactly one datastream required")
        ds = self.find_datastream(ds_ids[0])
        if ds is None:
            raise AttachmentViolation(f"{structure_id}: no datastream {ds_ids[0]!r}")
        if mime_base(ds.mime) != doc_mime:
            raise AttachmentViolation(
                f"{structure_id}: expected {doc_mime}, stream {ds.id} is {ds.mime}"
            )

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
        builtin = builtin_kind_for_urn(content_type)
        if builtin is not None:
            return self._builtin_dissemination(builtin, method, args, principal, resolver)

        diss = self._content_disseminator(content_type)
        signature = resolver.resolve_content_type(content_type)
        spec = signature.find_method(method)
        if spec is None:
            raise NoSuchMethod(f"{content_type} has no method {method!r}")
        typesys.check_args(spec, args)
        program = resolver.resolve_servlet(diss.servlet)

        def invoke() -> tuple[str, bytes]:
            return typesys.execute_servlet(program, signature, diss.bindings, self, method, args)

        return access.enforce(diss.access_manager, resolver, self, method, principal, invoke)

    def _builtin_dissemination(self, kind, method, args, principal, resolver) -> tuple[str, bytes]:
        diss = next((d for d in self.disseminators if d.kind is kind), None)
        if diss is None:
            raise NoSuchTypeOnObject(f"object has no {kind.value} disseminator")
        if method not in BUILTIN_METHODS[kind]:
            raise NoSuchMethod(f"{kind.value} disseminators do not serve {method!r}")
        if args:
            raise BadArguments(f"{method} takes no arguments")

        structure_id = BUILTIN_KINDS[kind][1]

        def invoke() -> tuple[str, bytes]:
            ds_ids = diss.bindings.get(structure_id, [])
            ds = self.find_datastream(ds_ids[0]) if ds_ids else None
            if ds is None:
                raise NoSuchDataStream(f"{kind.value} document stream is missing")
            if method == "getAttachmentSpec":
                program = typesys.parse_servlet_program(ds.content)
                doc = [
                    {"id": s.id, "mime": s.mime, "ordinality": s.ordinality}
                    for s in program.attachment_spec.structures
                ]
                return "application/json", canonical_bytes(doc)
            return ds.mime, ds.content

        return access.enforce(diss.access_manager, resolver, self, method, principal, invoke)

    # -- access managers --------------------------------------------------

    def set_access_manager(self, target: str, scheme: str, bindings, resolver) -> str:
        """Attach a rights scheme to PRIMITIVE or a disseminator, replacing
        any manager already there."""
        require_urn(scheme, "scheme")
        diss = None
        if target != PRIMITIVE_TARGET:
            diss = self.find_disseminator(target)
            if diss is None:
                raise NoSuchDisseminator(f"no disseminator {target!r}")
        bindings = _normalize_bindings(bindings)
        program = resolver.resolve_access_scheme(scheme)
        violations = typesys.validate_attachments(program.attachment_spec, bindings, self)
        if violations:
            raise AttachmentViolation(typesys.describe_violations(violations))

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


def _manifest_field(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise MalformedManifest(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise MalformedManifest(f"field {key!r} has wrong type")
    return value


_MANIFEST_KEYS = {
    "access_managers", "datastreams", "digest", "disseminators", "name", "seq", "version",
}


def deserialize_object(data: bytes) -> DigitalObjectKernel:
    """Parse and verify a canonical manifest.

    The digest is checked before the shape so that corruption is always
    reported as DIGEST_MISMATCH when the document still parses as JSON.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers.
        raise MalformedManifest(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedManifest("manifest must be a JSON object")

    digest = doc.get("digest")
    if not isinstance(digest, str):
        raise MalformedManifest("missing digest")
    try:
        expected = _expected_digest(doc)
    except (UnicodeEncodeError, RecursionError):
        # No canonical form: a lone surrogate has no UTF-8 encoding, and a
        # document may nest deeper than json.dumps recurses.
        raise MalformedManifest("manifest has no canonical encoding") from None
    if expected != digest:
        raise DigestMismatch("manifest digest does not verify")

    extra = set(doc) - _MANIFEST_KEYS
    if extra:
        raise MalformedManifest(f"unknown fields: {sorted(extra)}")
    if doc.get("version") != MANIFEST_VERSION:
        raise MalformedManifest(f"unsupported version {doc.get('version')!r}")

    name = _manifest_field(doc, "name", str)
    if not is_urn(name):
        raise MalformedManifest(f"invalid object name {name!r}")
    seq = _manifest_field(doc, "seq", dict)
    if set(seq) != {"diss", "ds"} or not all(type(v) is int and v >= 1 for v in seq.values()):
        raise MalformedManifest("invalid seq counters")

    obj = DigitalObjectKernel(name=name, next_ds_seq=seq["ds"], next_diss_seq=seq["diss"])

    last_ds = 0
    for entry in _manifest_field(doc, "datastreams", list):
        if not isinstance(entry, dict) or set(entry) != {"content_b64", "id", "mime"}:
            raise MalformedManifest("invalid datastream entry")
        ds_id, mime, b64 = entry["id"], entry["mime"], entry["content_b64"]
        m = DS_ID_RE.match(ds_id) if isinstance(ds_id, str) else None
        if m is None:
            raise MalformedManifest(f"invalid datastream id {ds_id!r}")
        n = int(m.group(1))
        if n <= last_ds or n >= seq["ds"]:
            raise MalformedManifest(f"datastream id {ds_id} out of order or beyond counter")
        last_ds = n
        if not is_mime(mime):
            raise MalformedManifest(f"invalid mime {mime!r} on {ds_id}")
        try:
            content = base64.b64decode(b64, validate=True)
        except (binascii.Error, TypeError, ValueError):
            raise MalformedManifest(f"invalid base64 content on {ds_id}") from None
        obj.datastreams.append(DataStream(ds_id, mime, content))

    last_diss = 0
    for entry in _manifest_field(doc, "disseminators", list):
        if not isinstance(entry, dict) or set(entry) != {
            "bindings", "content_type", "id", "kind", "servlet",
        }:
            raise MalformedManifest("invalid disseminator entry")
        diss_id = entry["id"]
        m = DISS_ID_RE.match(diss_id) if isinstance(diss_id, str) else None
        if m is None:
            raise MalformedManifest(f"invalid disseminator id {diss_id!r}")
        n = int(m.group(1))
        if n <= last_diss or n >= seq["diss"]:
            raise MalformedManifest(f"disseminator id {diss_id} out of order or beyond counter")
        last_diss = n
        try:
            kind = DisseminatorKind(entry["kind"])
        except ValueError:
            raise MalformedManifest(f"unknown disseminator kind {entry['kind']!r}") from None
        if not is_urn(entry["content_type"]) or not is_urn(entry["servlet"]):
            raise MalformedManifest(f"invalid urn on disseminator {diss_id}")
        bindings = _decode_bindings(entry["bindings"], obj, f"disseminator {diss_id}")
        obj.disseminators.append(
            Disseminator(diss_id, kind, entry["content_type"], entry["servlet"], bindings)
        )

    for entry in _manifest_field(doc, "access_managers", list):
        if not isinstance(entry, dict) or set(entry) != {"bindings", "scheme", "target"}:
            raise MalformedManifest("invalid access manager entry")
        if not is_urn(entry["scheme"]):
            raise MalformedManifest(f"invalid scheme urn {entry['scheme']!r}")
        target = entry["target"]
        bindings = _decode_bindings(entry["bindings"], obj, f"access manager on {target}")
        am = AccessManager(f"AM{obj.next_am_seq}", entry["scheme"], bindings)
        obj.next_am_seq += 1
        if target == PRIMITIVE_TARGET:
            if obj.primitive_access_manager is not None:
                raise MalformedManifest("duplicate PRIMITIVE access manager")
            obj.primitive_access_manager = am
        else:
            diss = obj.find_disseminator(target) if isinstance(target, str) else None
            if diss is None:
                raise MalformedManifest(f"access manager targets unknown {target!r}")
            if diss.access_manager is not None:
                raise MalformedManifest(f"duplicate access manager on {target}")
            diss.access_manager = am

    return obj


def _decode_bindings(raw, obj: DigitalObjectKernel, where: str) -> dict[str, list[str]]:
    if not isinstance(raw, dict):
        raise MalformedManifest(f"{where}: bindings must be an object")
    out: dict[str, list[str]] = {}
    for sid, ds_ids in raw.items():
        if not isinstance(sid, str) or not sid or not isinstance(ds_ids, list):
            raise MalformedManifest(f"{where}: invalid binding {sid!r}")
        for d in ds_ids:
            if not isinstance(d, str) or obj.find_datastream(d) is None:
                raise MalformedManifest(f"{where}: binding {sid!r} references missing stream {d!r}")
        out[sid] = list(ds_ids)
    return out
