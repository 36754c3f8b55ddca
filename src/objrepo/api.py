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
``"access.method"`` and ``"staged.method"`` name a kernel method that
``Repository.run`` runs on the deposited object the first argument names,
or on the staged object whose handle it is, for the principal the last
argument gives.

``reply`` names the JSON key that carries the result, which the service
returns as plain JSON data; :data:`OK` replies ``{"ok": true}``, and
:data:`RAW` sends the ``(mime, bytes)`` result as the response body under
its MIME.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import shape

DEFAULT_PRINCIPAL = "anonymous"
OK = "ok"
RAW = "raw"
_REQUIRED = object()  # the default of an argument a caller must give


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
    on, _, method = spec.rpartition(".")
    if not on:
        return lambda service, *values: getattr(service, method)(*values)

    def call(service, key, *values):
        *args, principal = values
        return service.run(key, method, *args, principal=principal, staged=on == "staged")

    return call


class Op:
    """One operation row; the module docstring gives the notation."""

    def __init__(self, name: str, verb: str, path: str, args: str, call: str,
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
        self.call = _method_call(call)
        self.reply = reply
        #: arguments repeated beside the result in the JSON reply
        self.echo = echo
        #: each argument's name, and whether a caller must give it
        self.defaults = {a.name: None if a.optional else _REQUIRED for a in self.args}

    def bind(self, args, kwargs) -> dict:
        """A client call's arguments by name in row order, checked like a
        plain method's: an omitted optional argument is None."""
        names = self.defaults
        if len(args) > len(names):
            raise TypeError(f"{self.name}() takes {len(names)} positional arguments"
                            f" but {len(args)} were given")
        values = dict(zip(names, args))
        if len(values) == len(names) and not kwargs:
            return values
        for key in kwargs:
            if key not in names:
                raise TypeError(f"{self.name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{self.name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [name for name, default in names.items()
                   if default is _REQUIRED and name not in values]
        if missing:
            raise TypeError(f"{self.name}() missing required arguments: {', '.join(missing)}")
        return {name: values.get(name) for name in names}

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


REPOSITORY_OPS = (
    # authoring (staged objects)
    Op("create_object", "POST", "/staging", "", "create_object", "handle"),
    Op("add_datastream", "POST", "/staging/{handle}/datastreams",
       "handle:path mime:content-type content:raw principal:x-principal?",
       "staged.create_datastream", "id"),
    Op("add_disseminator", "POST", "/staging/{handle}/disseminators",
       "handle:path content_type:body servlet:body? bindings:body? kind:body?"
       " principal:x-principal?",
       "staged.create_disseminator", "id"),
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
