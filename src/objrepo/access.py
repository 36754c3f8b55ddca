"""Rights enforcement around disseminations.

An :class:`~objrepo.kernel.AccessManager` names a rights scheme by the URN of
the object that disseminates it and binds argument streams (for the shipped
``acl-v1`` scheme, one access-control list). Enforcement happens at two
points: the decision gates the mechanism invocation, and the decision's
output transforms rewrite the result before it leaves for the client. A
denied request never runs a single pipeline step. The ACL format is an
:mod:`objrepo.shape` schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import shape
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


def _entry(principal, methods, effect, transforms=(), reason=None) -> AclEntry:
    if effect == DENY and transforms:
        raise shape.Invalid("deny entries cannot carry transforms")
    return AclEntry(principal, tuple(methods), effect, tuple(transforms), reason)


_EFFECT = shape.one_of(ALLOW, DENY)
_ACL = shape.record(
    AclDocument,
    default=_EFFECT,
    entries=shape.list_of(shape.record(
        _entry,
        principal=shape.NON_EMPTY,
        methods=shape.list_of(shape.NON_EMPTY, non_empty=True),
        effect=_EFFECT,
        transforms=shape.optional(shape.list_of(shape.record(
            OutputTransform, op=shape.one_of(STAMP), text=shape.NON_EMPTY
        ))),
        reason=shape.optional(shape.holds(
            lambda v: v is None or isinstance(v, str) and v != "",
            "must be a non-empty string or null",
        )),
    )),
)


def parse_acl(data: bytes) -> AclDocument:
    """Parse an access-control list document.

    Entries are ordered; evaluation is first match wins, falling back to the
    document default. Deny entries may not carry transforms, so decisions
    built from a parsed document are well-formed by construction.
    """
    return shape.parse(data, _ACL, MalformedAcl, "acl")


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
