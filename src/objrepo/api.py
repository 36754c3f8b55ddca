"""The client-facing operation table: each repository and naming operation, once.

A row (:class:`Op`) gives the client method name, the HTTP verb, the path
template and any alias paths, where each argument travels, the call into
the service object, and how the result is encoded. The wire server's
router, the wire and in-process clients and the CLI's ``--json`` replies
are all derived from these rows, so they cannot drift apart.

An argument is written ``name:where``, with ``=key`` when its wire key
differs from its name, and a trailing ``?`` when a caller may omit it:

- ``path``: the ``{name}`` segment of the path, URL-encoded;
- ``body``: a field of the JSON request body, which holds no other field;
  a required one must be a non-empty string;
- ``query``: a query parameter, given exactly once;
- ``args``: every ``arg.<k>`` query parameter, as a dict;
- ``raw``: the whole request body;
- ``content-type``: the raw body's MIME, in the ``Content-Type`` header;
- ``x-principal``: the caller, in the ``X-Principal`` header (absent means
  the client's own principal, and "anonymous" on the server).

``call`` names the service method that takes the arguments in row order;
``"session.method"`` first opens the session (``Repository.access`` or
``staged``) on the object the first argument names. A function is given
where the arguments need shaping first.

``reply`` names the JSON key that carries the result, which the service
returns as plain JSON data; :data:`OK` replies ``{"ok": true}``, and
:data:`RAW` sends the ``(mime, bytes)`` result as the response body under
its MIME.
"""

from __future__ import annotations

import inspect
from typing import Callable, NamedTuple

from . import shape
from .errors import BadArguments
from .kernel import KINDS, DisseminatorKind
from .typesys import BUILTIN_TYPES

DEFAULT_PRINCIPAL = "anonymous"
OK = "ok"
RAW = "raw"


class Arg(NamedTuple):
    name: str
    where: str
    key: str
    optional: bool


def _arg(token: str) -> Arg:
    name, _, where = token.rstrip("?").partition(":")
    where, _, key = where.partition("=")
    return Arg(name, where, key or name, token.endswith("?"))


def _method_call(spec: str) -> Callable:
    session, _, method = spec.rpartition(".")
    if not session:
        return lambda service, *values: getattr(service, method)(*values)

    def call(service, first, *values):
        return getattr(getattr(service, session)(first), method)(*values)

    return call


class Op:
    """One operation row; the module docstring gives the notation."""

    def __init__(self, name: str, verb: str, path: str, args: str, call: str | Callable,
                 reply: str, aliases: tuple[str, ...] = (), echo: tuple[str, ...] = ()):
        self.name = name
        self.verb = verb
        self.paths = (path, *aliases)
        self.args = [_arg(token) for token in args.split()]
        body = {a.key: shape.optional(shape.anything) if a.optional else shape.NON_EMPTY
                for a in self.args if a.where == "body"}
        #: the JSON request body's shape, or None for an operation without one
        self.body_shape = shape.record(dict, **body) if body else None
        #: ``call(service, *arguments)`` runs the operation
        self.call = _method_call(call) if isinstance(call, str) else call
        self.reply = reply
        #: arguments repeated beside the result in the JSON reply
        self.echo = echo
        self.signature = inspect.Signature(
            inspect.Parameter(
                a.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=None if a.optional else inspect.Parameter.empty,
            )
            for a in self.args
        )

    def bind(self, args, kwargs) -> dict:
        """A client call's arguments by name in row order, checked like a
        plain method's."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def invoke(self, service, values: dict):
        """Run the call and return its encoded result."""
        return self.encode(values, self.call(service, *values.values()))

    def encode(self, values: dict, result):
        """A result as the wire carries it: a JSON document, or (mime, bytes)."""
        if self.reply == RAW:
            return result
        doc = {key: values[key] for key in self.echo}
        doc[self.reply] = True if self.reply == OK else result
        return doc

    def unwrap(self, encoded):
        """What a client returns for an encoded result."""
        if self.reply == RAW:
            return encoded
        return None if self.reply == OK else encoded[self.reply]


def derive(ops):
    """Class decorator adding one method per row; each passes the row and
    its arguments by name to ``self._call``."""

    def method_for(op: Op):
        def method(self, *args, **kwargs):
            return self._call(op, op.bind(args, kwargs))

        method.__name__ = method.__qualname__ = op.name
        return method

    def decorate(cls):
        for op in ops:
            setattr(cls, op.name, method_for(op))
        return cls

    return decorate


def _add_disseminator(repo, handle, content_type, servlet, bindings, kind, principal) -> str:
    """An omitted kind is the one a reserved type URN implies, else CONTENT."""
    if kind is None:
        row = BUILTIN_TYPES.get(content_type)
        kind = DisseminatorKind.CONTENT if row is None else row.kind
    kind = DisseminatorKind(shape.check(KINDS, kind, BadArguments, "kind"))
    return repo.staged(handle).create_disseminator(kind, content_type, servlet, bindings, principal)


REPOSITORY_OPS = (
    # authoring (staged objects)
    Op("create_object", "POST", "/staging", "", "create_object", "handle"),
    Op("add_datastream", "POST", "/staging/{handle}/datastreams",
       "handle:path mime:content-type content:raw principal:x-principal?",
       "staged.create_datastream", "id"),
    Op("add_disseminator", "POST", "/staging/{handle}/disseminators",
       "handle:path content_type:body servlet:body? bindings:body? kind:body?"
       " principal:x-principal?",
       _add_disseminator, "id"),
    Op("set_access_manager_staged", "POST", "/staging/{handle}/access-managers",
       "handle:path target:body scheme:body bindings:body? principal:x-principal?",
       "staged.set_access_manager", "id"),
    Op("deposit", "POST", "/staging/{handle}/deposit", "handle:path", "deposit", "name"),
    # access (deposited objects)
    Op("get_datastreams", "GET", "/objects/{name}/datastreams",
       "name:path principal:x-principal?", "access.get_datastreams", "datastreams"),
    Op("get_datastream_content", "GET", "/objects/{name}/datastreams/{ds_id}",
       "name:path ds_id:path principal:x-principal?", "access.get_datastream_content", RAW),
    Op("get_disseminators", "GET", "/objects/{name}/disseminators",
       "name:path principal:x-principal?", "access.get_disseminators", "disseminators"),
    Op("list_types", "GET", "/objects/{name}/types",
       "name:path principal:x-principal?", "access.list_disseminator_types", "types"),
    Op("list_methods", "GET", "/objects/{name}/methods",
       "name:path type_urn:query=type principal:x-principal?",
       "access.list_disseminator_methods", "methods",
       aliases=("/objects/{name}/get-disseminator-methods",)),
    Op("get_dissemination", "GET", "/objects/{name}/dissemination",
       "name:path content_type:query=type method:query args:args principal:x-principal?",
       "access.get_dissemination", RAW),
    Op("set_access_manager", "POST", "/objects/{name}/access-managers",
       "name:path target:body scheme:body bindings:body? principal:x-principal?",
       "access.set_access_manager", "id"),
    Op("get_access_manager", "GET", "/objects/{name}/access-managers",
       "name:path target:query principal:x-principal?",
       "access.get_access_manager", "access_manager"),
    # management
    Op("delete", "DELETE", "/objects/{name}", "name:path", "delete", OK),
    Op("replicate", "POST", "/objects/{name}/replicate", "name:path target:body", "replicate", OK),
    Op("move", "POST", "/objects/{name}/move", "name:path target:body", "move", OK),
    Op("receive_manifest", "POST", "/internal/receive-manifest", "manifest:raw",
       "receive_manifest", "name"),
)

NAMING_OPS = (
    Op("register", "PUT", "/names/{name}", "name:path location:body", "register", OK),
    Op("resolve", "GET", "/names/{name}", "name:path", "resolve", "locations", echo=("name",)),
    Op("add_location", "POST", "/names/{name}/locations", "name:path location:body",
       "add_location", OK),
    Op("remove_location", "DELETE", "/names/{name}/locations/{location}",
       "name:path location:path", "remove_location", OK),
)
