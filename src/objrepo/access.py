"""Rights enforcement around disseminations.

An :class:`~objrepo.kernel.AccessManager` names a rights scheme by the URN of
the object that disseminates it and binds argument streams (for the shipped
``acl-v1`` scheme, one access-control list). Enforcement happens at two
points: the decision gates the mechanism invocation, and the decision's
output transforms rewrite the result before it leaves for the client. A
denied request never runs a single pipeline step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import AccessDenied, MalformedAcl, SchemeError

ALLOW = "allow"
DENY = "deny"

STAMP = "stamp"

ACL_SCHEME_BUILTIN = "acl-v1"


@dataclass(frozen=True)
class OutputTransform:
    op: str  # STAMP is the only transform
    text: str


@dataclass(frozen=True)
class AccessDecision:
    effect: str  # ALLOW | DENY
    reason: str
    transforms: tuple[OutputTransform, ...] = ()


@dataclass(frozen=True)
class AclEntry:
    principal: str  # exact name or "*"
    methods: tuple[str, ...]  # method names, "*" matches all
    effect: str
    transforms: tuple[OutputTransform, ...] = ()
    reason: str | None = None


@dataclass
class AclDocument:
    default: str
    entries: list[AclEntry] = field(default_factory=list)


def _parse_transforms(raw, loc: str) -> tuple[OutputTransform, ...]:
    if not isinstance(raw, list):
        raise MalformedAcl(f"{loc}: transforms must be a list")
    out = []
    for j, t in enumerate(raw):
        tloc = f"{loc}[{j}]"
        if not isinstance(t, dict) or set(t) != {"op", "text"}:
            raise MalformedAcl(f"{tloc}: expected keys op/text")
        if t["op"] != STAMP:
            raise MalformedAcl(f"{tloc}.op: unknown transform {t['op']!r}")
        if not isinstance(t["text"], str) or not t["text"]:
            raise MalformedAcl(f"{tloc}.text: must be a non-empty string")
        out.append(OutputTransform(STAMP, t["text"]))
    return tuple(out)


def parse_acl(data: bytes) -> AclDocument:
    """Parse an access-control list document.

    Entries are ordered; evaluation is first match wins, falling back to the
    document default. Deny entries may not carry transforms, so decisions
    built from a parsed document are well-formed by construction.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedAcl(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"default", "entries"}:
        raise MalformedAcl("expected keys default/entries")
    if doc["default"] not in (ALLOW, DENY):
        raise MalformedAcl(f"default: must be {ALLOW!r} or {DENY!r}")
    if not isinstance(doc["entries"], list):
        raise MalformedAcl("entries: must be a list")

    entries: list[AclEntry] = []
    for i, e in enumerate(doc["entries"]):
        loc = f"entries[{i}]"
        if not isinstance(e, dict):
            raise MalformedAcl(f"{loc}: must be an object")
        extra = set(e) - {"principal", "methods", "effect", "transforms", "reason"}
        if extra or not {"principal", "methods", "effect"} <= set(e):
            raise MalformedAcl(f"{loc}: expected principal/methods/effect (+transforms, reason)")
        principal = e["principal"]
        if not isinstance(principal, str) or not principal:
            raise MalformedAcl(f"{loc}.principal: must be a non-empty string")
        methods = e["methods"]
        if (
            not isinstance(methods, list)
            or not methods
            or not all(isinstance(m, str) and m for m in methods)
        ):
            raise MalformedAcl(f"{loc}.methods: must be a non-empty list of method names")
        if e["effect"] not in (ALLOW, DENY):
            raise MalformedAcl(f"{loc}.effect: must be {ALLOW!r} or {DENY!r}")
        transforms = _parse_transforms(e.get("transforms", []), f"{loc}.transforms")
        if e["effect"] == DENY and transforms:
            raise MalformedAcl(f"{loc}: deny entries cannot carry transforms")
        reason = e.get("reason")
        if reason is not None and (not isinstance(reason, str) or not reason):
            raise MalformedAcl(f"{loc}.reason: must be a non-empty string")
        entries.append(AclEntry(principal, tuple(methods), e["effect"], transforms, reason))
    return AclDocument(doc["default"], entries)


def evaluate_acl(acl: AclDocument, method: str, principal: str) -> AccessDecision:
    """First entry matching both principal and method decides; otherwise the
    document default applies with reason "default"."""
    for i, entry in enumerate(acl.entries, start=1):
        if entry.principal not in (principal, "*"):
            continue
        if method not in entry.methods and "*" not in entry.methods:
            continue
        reason = entry.reason or f"entry-{i}"
        return AccessDecision(entry.effect, reason, entry.transforms)
    return AccessDecision(acl.default, "default")


def evaluate(am, resolver, obj, method: str, principal: str) -> AccessDecision:
    """Run the manager's scheme for one request.

    The scheme URN resolves to a mechanism document exactly like a content
    type does; the shipped scheme is the builtin ``acl-v1``, which reads the
    list bound under the ``acl`` structure id.
    """
    program = resolver.resolve_access_scheme(am.scheme)
    if program.builtin is None:
        raise SchemeError(f"{am.scheme} is not a builtin access scheme")
    if program.builtin != ACL_SCHEME_BUILTIN:
        raise SchemeError(f"unknown access scheme builtin {program.builtin!r}")
    ds_ids = am.bindings.get("acl", [])
    ds = obj.find_datastream(ds_ids[0]) if ds_ids else None
    if ds is None:
        raise SchemeError("acl binding does not name a stream in this object")
    acl = parse_acl(ds.content)
    return evaluate_acl(acl, method, principal)


def apply_transforms(decision: AccessDecision, mime: str, data: bytes) -> tuple[str, bytes]:
    """Apply the decision's output transforms in order; the MIME is never
    changed. A stamp appends LF + ``--stamp:<text>``."""
    for t in decision.transforms:
        if t.op == STAMP:
            data = data + b"\n--stamp:" + t.text.encode("utf-8")
    return mime, data


def enforce(am, resolver, obj, method: str, principal: str, invoke) -> tuple[str, bytes]:
    """Mediate one request: no manager means open access; a deny raises
    before ``invoke`` runs; an allow pipes the result through the decision's
    transforms."""
    if am is None:
        return invoke()
    decision = evaluate(am, resolver, obj, method, principal)
    if decision.effect == DENY:
        raise AccessDenied(decision.reason)
    mime, data = invoke()
    return apply_transforms(decision, mime, data)
