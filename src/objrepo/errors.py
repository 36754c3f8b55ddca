"""Error taxonomy shared by every layer.

Each error carries a stable machine-readable ``code``. The wire layer maps
codes to HTTP statuses and back, so an in-process caller and a remote client
observe the same failure for the same cause.
"""

from __future__ import annotations


class ObjectRepositoryError(Exception):
    """Base class; ``code`` identifies the failure independent of transport."""

    code = "INTERNAL"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail


class MalformedMime(ObjectRepositoryError):
    code = "MALFORMED_MIME"


class NoSuchDataStream(ObjectRepositoryError):
    code = "NO_SUCH_DATASTREAM"


class NoSuchDisseminator(ObjectRepositoryError):
    code = "NO_SUCH_DISSEMINATOR"


class NoSuchTypeOnObject(ObjectRepositoryError):
    code = "NO_SUCH_TYPE_ON_OBJECT"


class NoSuchMethod(ObjectRepositoryError):
    code = "NO_SUCH_METHOD"


class BadArguments(ObjectRepositoryError):
    code = "BAD_ARGUMENTS"


class UnresolvableType(ObjectRepositoryError):
    code = "UNRESOLVABLE_TYPE"


class SignatureMismatch(ObjectRepositoryError):
    code = "SIGNATURE_MISMATCH"


class AttachmentViolation(ObjectRepositoryError):
    code = "ATTACHMENT_VIOLATION"


class DuplicateBuiltin(ObjectRepositoryError):
    code = "DUPLICATE_BUILTIN"


class AccessDenied(ObjectRepositoryError):
    code = "ACCESS_DENIED"


class ServletError(ObjectRepositoryError):
    code = "SERVLET_ERROR"

    def __init__(self, detail: str = "", step_index: int | None = None):
        if step_index is not None:
            detail = f"step {step_index}: {detail}"
        super().__init__(detail)
        self.step_index = step_index


class UndepositedObject(ObjectRepositoryError):
    code = "UNDEPOSITED_OBJECT"


class DigestMismatch(ObjectRepositoryError):
    code = "DIGEST_MISMATCH"


class MalformedManifest(ObjectRepositoryError):
    code = "MALFORMED_MANIFEST"


class MalformedSignature(ObjectRepositoryError):
    code = "MALFORMED_SIGNATURE"


class MalformedServlet(ObjectRepositoryError):
    code = "MALFORMED_SERVLET"


class UnknownStep(ObjectRepositoryError):
    code = "UNKNOWN_STEP"


class MalformedAcl(ObjectRepositoryError):
    code = "MALFORMED_ACL"


class SchemeError(ObjectRepositoryError):
    code = "SCHEME_ERROR"


class NoSuchHandle(ObjectRepositoryError):
    code = "NO_SUCH_HANDLE"


class NoSuchObject(ObjectRepositoryError):
    code = "NO_SUCH_OBJECT"


class NamingUnavailable(ObjectRepositoryError):
    code = "NAMING_UNAVAILABLE"


class TargetUnreachable(ObjectRepositoryError):
    code = "TARGET_UNREACHABLE"


class AlreadyPresent(ObjectRepositoryError):
    code = "ALREADY_PRESENT"


class AlreadyRegistered(ObjectRepositoryError):
    code = "ALREADY_REGISTERED"


class NotRegistered(ObjectRepositoryError):
    code = "NOT_REGISTERED"


class NoSuchLocation(ObjectRepositoryError):
    code = "NO_SUCH_LOCATION"


class BodyTooLarge(ObjectRepositoryError):
    """A request body above the server's limit, refused unread."""

    code = "BODY_TOO_LARGE"


class NotFound(ObjectRepositoryError):
    """Unknown wire route."""

    code = "NOT_FOUND"


#: code -> exception class, used by wire clients to re-raise remote failures.
BY_CODE: dict[str, type[ObjectRepositoryError]] = {
    cls.code: cls
    for cls in list(globals().values())
    if isinstance(cls, type)
    and issubclass(cls, ObjectRepositoryError)
    and cls is not ObjectRepositoryError
}

_NOT_FOUND = {
    "NO_SUCH_DATASTREAM", "NO_SUCH_DISSEMINATOR", "NO_SUCH_TYPE_ON_OBJECT",
    "NO_SUCH_METHOD", "NO_SUCH_HANDLE", "NO_SUCH_OBJECT", "NOT_REGISTERED",
    "NO_SUCH_LOCATION", "NOT_FOUND",
}
_CONFLICT = {"DUPLICATE_BUILTIN", "ALREADY_PRESENT", "ALREADY_REGISTERED"}
_UPSTREAM = {"UNRESOLVABLE_TYPE", "TARGET_UNREACHABLE", "NAMING_UNAVAILABLE"}


def http_status(code: str) -> int:
    """HTTP status for an error code (one status per code)."""
    if code in _NOT_FOUND:
        return 404
    if code == "ACCESS_DENIED":
        return 403
    if code == "BODY_TOO_LARGE":
        return 413
    if code in _CONFLICT:
        return 409
    if code in _UPSTREAM:
        return 502
    if code in ("SERVLET_ERROR", "INTERNAL"):
        return 500
    return 400


def from_code(code: str, detail: str = "") -> ObjectRepositoryError:
    cls = BY_CODE.get(code, ObjectRepositoryError)
    if cls is ObjectRepositoryError:
        err = ObjectRepositoryError(detail)
        err.code = code  # preserve unknown remote codes verbatim
        return err
    return cls(detail)
