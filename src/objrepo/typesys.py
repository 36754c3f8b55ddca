"""Content-type machinery: signatures, servlet programs, and the pipeline engine.

A content type is named by the URN of the digital object that disseminates
its *signature* (the formal method list). A mechanism implementing the type
is named by the URN of the object disseminating its *servlet program*: a
small declarative pipeline per method, plus an attachment specification
describing the datastreams the program needs. Because both documents live
in ordinary named objects, the type registry is just the repository
federation itself; :class:`ContentTypeResolver` walks name resolution and
the built-in document disseminations, which :data:`BUILTIN_TYPES` defines,
to fetch them. Both formats are :mod:`objrepo.shape` schemas, and a step's
arguments are checked by the step table's own argument checks.

The pipeline step vocabulary is deliberately closed: new behavior comes
from composing steps into new servlet programs deposited at runtime, never
from executing foreign code.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, NoReturn

from . import shape
from .errors import (
    BadArguments,
    MalformedServlet,
    MalformedSignature,
    NamingUnavailable,
    NotRegistered,
    ObjectRepositoryError,
    ServletError,
    SignatureMismatch,
    UnknownStep,
    UnresolvableType,
)

ORD_ONE = "1:1"
ORD_MANY = "1:N"

PARAM_TYPES = ("string", "integer")

#: MARC field/subfield -> metadata element emitted by the marc_to_dc step.
#: Input order of mapped fields is preserved; unmapped fields are dropped.
CROSSWALK = {
    ("100", "a"): "Creator",
    ("245", "a"): "Title",
    ("260", "b"): "Publisher",
    ("260", "c"): "Date",
    ("520", "a"): "Description",
    ("650", "a"): "Subject",
}

_MARC_LINE_RE = re.compile(r"^([0-9]{3}) \$(.) (.*)$")
_DC_LINE_RE = re.compile(r"^(Title|Creator|Publisher|Date|Description|Subject): (.*)$")
_DECIMAL_RE = re.compile(r"[0-9]+")

MAX_TYPE_DOC_BYTES = 1 << 20  # resolver refuses larger signature/servlet documents


# ---------------------------------------------------------------------------
# documents


@dataclass(frozen=True)
class MethodParam:
    name: str
    type: str  # "string" | "integer"


@dataclass(frozen=True)
class MethodSpec:
    name: str
    params: tuple[MethodParam, ...]
    returns_mime: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": [{"name": p.name, "type": p.type} for p in self.params],
            "returns_mime": self.returns_mime,
        }


@dataclass
class ContentTypeSignature:
    type_name: str
    methods: list[MethodSpec]

    def find_method(self, name: str) -> MethodSpec | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass(frozen=True)
class AttachmentStructure:
    id: str
    mime: str  # type/subtype or "*"
    ordinality: str  # ORD_ONE | ORD_MANY


@dataclass
class AttachmentSpecification:
    structures: list[AttachmentStructure]


@dataclass
class Step:
    op: str
    args: dict[str, object]  # argument name -> value as written, in STEPS order

    def arg(self, name: str):
        return self.args[name]


@dataclass
class Pipeline:
    steps: list[Step]


@dataclass
class ServletProgram:
    implements: str
    attachment_spec: AttachmentSpecification
    methods: dict[str, Pipeline] = field(default_factory=dict)
    builtin: str | None = None


class BuiltinType(NamedTuple):
    """A disseminator kind the kernel serves itself, from one bound document."""

    kind: str  # its DisseminatorKind value
    structure: AttachmentStructure  # the document stream it binds
    methods: tuple[str, ...]  # the first returns the document
    parse: Callable[[bytes], object]  # the document's parser


_SERVLET_DOC = AttachmentStructure("servlet", "application/x-fedora-servlet+json", ORD_ONE)

#: Reserved type URN -> its built-in kind: the one place each is defined.
#: Objects whose disseminators carry these types answer the kind's methods
#: natively, which is what ends type resolution. The parsers are defined
#: below and looked up when called.
BUILTIN_TYPES = {
    "urn:fedora-builtin:signature": BuiltinType(
        "SIGNATURE",
        AttachmentStructure("signature", "application/x-fedora-signature+json", ORD_ONE),
        ("getSignature",),
        lambda data: parse_signature(data),
    ),
    "urn:fedora-builtin:servlet": BuiltinType(
        "SERVLET", _SERVLET_DOC, ("getServlet", "getAttachmentSpec"),
        lambda data: parse_servlet_program(data),
    ),
    "urn:fedora-builtin:access-servlet": BuiltinType(
        "ACCESS_MANAGER_SERVLET", _SERVLET_DOC, ("getServlet", "getAttachmentSpec"),
        lambda data: parse_servlet_program(data),
    ),
}

#: built-in kind -> its reserved type URN
TYPE_URNS = {row.kind: urn for urn, row in BUILTIN_TYPES.items()}


@dataclass(frozen=True)
class Violation:
    structure_id: str
    reason: str  # "undeclared" | "cardinality" | "mime" | "missing"
    detail: str = ""


def describe_violations(violations: list[Violation]) -> str:
    return "; ".join(
        f"{v.structure_id}: {v.reason}" + (f" ({v.detail})" if v.detail else "")
        for v in violations
    )


# ---------------------------------------------------------------------------
# validation against objects and signatures


def validate_attachments(spec: AttachmentSpecification, bindings: dict, obj) -> list[Violation]:
    """Check bindings against an attachment specification.

    Returns the violation list (empty means ok) and never raises: every
    declared structure must be bound with the right cardinality, every bound
    stream must exist and match the declared type/subtype (or wildcard), and
    no undeclared structure ids may appear.
    """
    violations: list[Violation] = []
    declared = {s.id for s in spec.structures}
    for sid in bindings:
        if sid not in declared:
            violations.append(Violation(sid, "undeclared"))
    for s in spec.structures:
        ds_ids = bindings.get(s.id, [])
        n = len(ds_ids)
        if (s.ordinality == ORD_ONE and n != 1) or (s.ordinality == ORD_MANY and n < 1):
            violations.append(Violation(s.id, "cardinality", f"{s.ordinality} but {n} bound"))
            continue
        for ds_id in ds_ids:
            ds = obj.find_datastream(ds_id)
            if ds is None:
                violations.append(Violation(s.id, "missing", f"no datastream {ds_id}"))
            elif s.mime != "*" and shape.mime_base(ds.mime) != shape.mime_base(s.mime):
                violations.append(Violation(s.id, "mime", f"{ds_id} is {ds.mime}, want {s.mime}"))
    return violations


def _dollar_refs(pipeline: Pipeline):
    for step in pipeline.steps:
        for name, value in step.args.items():
            ref = _param_ref(name, value)
            if ref is not None:
                yield step.op, name, ref


def check_program_against_signature(program: ServletProgram, signature: ContentTypeSignature) -> None:
    """Cross-checks deferred until both documents are resolved: every
    signature method needs a pipeline whose emit MIME matches the declared
    result, and $ references must name declared parameters."""
    if program.builtin is not None:
        raise SignatureMismatch("a builtin mechanism cannot back a content disseminator")
    for spec in signature.methods:
        pipeline = program.methods.get(spec.name)
        if pipeline is None:
            raise SignatureMismatch(f"mechanism has no pipeline for method {spec.name!r}")
        emit_mime = pipeline.steps[-1].arg("mime")
        if emit_mime != spec.returns_mime:
            raise SignatureMismatch(
                f"{spec.name}: pipeline emits {emit_mime}, signature declares {spec.returns_mime}"
            )
        declared = {p.name for p in spec.params}
        for op, key, ref in _dollar_refs(pipeline):
            if ref not in declared:
                raise SignatureMismatch(f"{spec.name}: step {op}.{key} references unknown ${ref}")


def check_args(spec: MethodSpec, args: dict) -> None:
    """Argument names must match the parameter list exactly; integers are
    non-negative decimals."""
    if not isinstance(args, dict):
        raise BadArguments("arguments must be a map of parameter name to value")
    expected = {p.name for p in spec.params}
    missing = expected - set(args)
    extra = set(args) - expected
    if missing:
        raise BadArguments(f"{spec.name}: missing arguments {sorted(missing)}")
    if extra:
        raise BadArguments(f"{spec.name}: unexpected arguments {sorted(extra)}")
    for p in spec.params:
        value = args[p.name]
        if not isinstance(value, str):
            raise BadArguments(f"{spec.name}: argument {p.name!r} must be a string")
        if p.type == "integer" and not _is_decimal(value):
            raise BadArguments(f"{spec.name}: argument {p.name!r} must be a non-negative decimal")


def _is_decimal(value: str) -> bool:
    """A non-negative ASCII decimal: not " 2", "+2", "２", "2_0" or "2\\n"."""
    return _DECIMAL_RE.fullmatch(value) is not None


# ---------------------------------------------------------------------------
# document formats used by pipeline steps


def _lines(data: bytes) -> list[str]:
    """UTF-8 text split at newlines; a final newline ends the last line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _match_lines(data: bytes, pattern: re.Pattern, what: str) -> list[tuple[str, ...]]:
    """The groups of ``pattern`` matched against every line."""
    matches = []
    for n, line in enumerate(_lines(data), start=1):
        m = pattern.match(line)
        if m is None:
            raise ValueError(f"line {n}: not {what}")
        matches.append(m.groups())
    return matches


def parse_marc_lines(data: bytes) -> list[tuple[str, str, str]]:
    """``TAG $SUB value`` per line -> (tag, subfield, value) triples."""
    return _match_lines(data, _MARC_LINE_RE, "a MARC field line")


def parse_dc_lines(data: bytes) -> list[tuple[str, str]]:
    """``Element: value`` per line -> (element, value) pairs."""
    return _match_lines(data, _DC_LINE_RE, "an element line")


def marc_to_dc_bytes(data: bytes) -> bytes:
    out = []
    for tag, sub, value in parse_marc_lines(data):
        element = CROSSWALK.get((tag, sub))
        if element is not None:
            out.append(f"{element}: {value}\n")
    return "".join(out).encode("utf-8")


def parse_structure_rows(data: bytes) -> list[list[str]]:
    """Rows of whitespace-separated datastream ids; blank lines ignored."""
    return [line.split() for line in _lines(data) if line.strip()]


# ---------------------------------------------------------------------------
# the pipeline step vocabulary
#
# An argument name means the same thing in every op that takes it, so its
# value check is written once.


#: argument name -> its value check
ARG_CHECKS = {
    "id": shape.STRING,  # a declared structure id, checked across the program
    "index": shape.holds(
        lambda v: v.startswith("$") if isinstance(v, str) else type(v) is int and v >= 1,
        "must be a positive integer or a $parameter",
    ),
    "column_in": shape.integer(0),
    "column_out": shape.integer(1),
    "field": shape.STRING,
    "key": shape.STRING,
    "separator": shape.STRING,
    "text": shape.STRING,
    "mime": shape.MIME,
}

#: Arguments whose ``$name`` value is the method argument ``name``; every
#: other argument is literal, ``$`` included.
SUBSTITUTABLE = frozenset({"index", "field", "key"})


def _param_ref(name: str, value) -> str | None:
    """The method parameter a step argument refers to, or None when the
    argument is literal."""
    if name in SUBSTITUTABLE and isinstance(value, str) and value.startswith("$"):
        return value[1:]
    return None


@dataclass
class _Frame:
    """One pipeline run: the value stack, the running step (1-based
    ``index``) and the bound streams and method arguments it draws on. The
    op methods are the step runners named in STEPS."""

    bindings: dict
    obj: object
    args: dict
    stack: list = field(default_factory=list)
    index: int = 0
    step: Step | None = None

    def fail(self, detail: str) -> NoReturn:
        raise ServletError(detail, step_index=self.index) from None

    def arg(self, name: str):
        """The running step's argument, with a ``$param`` substituted."""
        value = self.step.arg(name)
        ref = _param_ref(name, value)
        if ref is None:
            return value
        if ref not in self.args:
            self.fail(f"unbound parameter ${ref}")
        return self.args[ref]

    def pop(self, kind: type):
        """The top value of the stack, which must be a ``kind``."""
        if not self.stack:
            self.fail("value stack is empty")
        value = self.stack.pop()
        if not isinstance(value, kind):
            what = "a byte value" if kind is bytes else "a stream list"
            self.fail(f"expected {what} on the stack")
        return value

    def pop_parsed(self, parse, what: str):
        """``parse`` applied to the bytes on top of the stack."""
        try:
            return parse(self.pop(bytes))
        except ValueError as exc:
            self.fail(f"malformed {what}: {exc}")

    def bound_streams(self) -> list:
        sid = self.arg("id")
        ds_ids = self.bindings.get(sid)
        if ds_ids is None:
            self.fail(f"structure {sid!r} is not bound")
        streams = []
        for ds_id in ds_ids:
            ds = self.obj.find_datastream(ds_id)
            if ds is None:
                self.fail(f"bound stream {ds_id} is missing")
            streams.append(ds)
        return streams

    def whole(self, name: str) -> int:
        """The running step's argument ``name`` as an int: a literal int, or
        a substituted string that is a non-negative decimal."""
        value = self.arg(name)
        if isinstance(value, int):
            return value
        if isinstance(value, str) and _is_decimal(value):
            try:
                return int(value)
            except ValueError:  # more digits than int() converts
                pass
        self.fail(f"{self.step.op} {name} {value!r} is not an integer")

    def select(self) -> None:
        streams = self.bound_streams()
        index = self.whole("index")
        if not 1 <= index <= len(streams):
            self.fail(f"select index {index} out of range 1..{len(streams)}")
        self.stack.append(streams[index - 1].content)

    def select_all(self) -> None:
        self.stack.append(self.bound_streams())

    def count(self) -> None:
        self.stack.append(str(len(self.pop(list))).encode("utf-8"))

    def join(self) -> None:
        streams = self.pop(list)
        sep = self.arg("separator").encode("utf-8")
        self.stack.append(sep.join(ds.content for ds in streams))

    def const(self) -> None:
        self.stack.append(self.arg("text").encode("utf-8"))

    def marc_to_dc(self) -> None:
        self.stack.append(self.pop_parsed(marc_to_dc_bytes, "MARC input"))

    def dc_field(self) -> None:
        field_name = self.arg("field")
        for element, value in self.pop_parsed(parse_dc_lines, "element lines"):
            if element == field_name:
                self.stack.append(value.encode("utf-8"))
                return
        self.fail(f"no element {field_name!r} in record")

    def structure_lookup(self) -> None:
        key = self.arg("key")
        col_in = self.arg("column_in")
        col_out = self.arg("column_out")
        rows = self.pop_parsed(parse_structure_rows, "structure document")
        row = None
        if col_in == 0:
            # column 0 is the implicit row ordinal (1-based), so integer
            # parameters can address rows positionally.
            n = self.whole("key")
            if 1 <= n <= len(rows):
                row = rows[n - 1]
        else:
            for candidate in rows:
                if len(candidate) >= col_in and candidate[col_in - 1] == key:
                    row = candidate
                    break
        if row is None:
            self.fail(f"no row matches key {key!r}")
        if len(row) < col_out:
            self.fail(f"matched row has no column {col_out}")
        ds_id = row[col_out - 1]
        ds = self.obj.find_datastream(ds_id)
        if ds is None:
            self.fail(f"structure row names missing stream {ds_id!r}")
        self.stack.append(ds.content)

    def emit(self) -> tuple[str, bytes]:
        return self.arg("mime"), self.pop(bytes)


class StepDef(NamedTuple):
    args: tuple[str, ...]  # exactly the arguments the op takes
    run: Callable[[_Frame], tuple[str, bytes] | None]  # a result ends the pipeline


#: The closed step vocabulary: the one place an op is defined.
STEPS = {
    "select": StepDef(("id", "index"), _Frame.select),
    "select_all": StepDef(("id",), _Frame.select_all),
    "count": StepDef((), _Frame.count),
    "join": StepDef(("separator",), _Frame.join),
    "const": StepDef(("text",), _Frame.const),
    "marc_to_dc": StepDef((), _Frame.marc_to_dc),
    "dc_field": StepDef(("field",), _Frame.dc_field),
    "structure_lookup": StepDef(("column_in", "column_out", "key"), _Frame.structure_lookup),
    "emit": StepDef(("mime",), _Frame.emit),
}


# ---------------------------------------------------------------------------
# parsing
#
# Each document format is a schema of shape checks. Its ``make`` functions
# build the parsed objects and hold the checks across fields.

_PARAM = shape.record(MethodParam, name=shape.NON_EMPTY, type=shape.one_of(*PARAM_TYPES))
_SIGNATURE = shape.record(
    ContentTypeSignature,
    type_name=shape.NON_EMPTY,
    methods=shape.list_of(shape.record(
        lambda name, params, returns_mime: MethodSpec(name, tuple(params), returns_mime),
        name=shape.NON_EMPTY,
        params=shape.list_of(_PARAM, unique="name"),
        returns_mime=shape.MIME,
    ), non_empty=True, unique="name"),
)


def parse_signature(data: bytes) -> ContentTypeSignature:
    """Parse a content-type signature document.

    Raises MALFORMED_SIGNATURE with the offending location on any violation:
    duplicate method or parameter names, unknown parameter types, an empty
    method list, or an invalid result MIME.
    """
    return shape.parse(data, _SIGNATURE, MalformedSignature, "signature")


#: op -> the shape of its step: the op and exactly the arguments STEPS gives it
_STEP_SHAPES = {
    op: shape.record(lambda op, **args: Step(op, args), op=shape.STRING,
                     **{name: ARG_CHECKS[name] for name in row.args})
    for op, row in STEPS.items()
}


def _step(raw) -> Step:
    op = raw.get("op") if isinstance(raw, dict) else None
    if not isinstance(op, str):
        raise shape.Invalid("each step must be an object with an 'op'")
    if op not in _STEP_SHAPES:
        raise shape.Invalid(f"unknown step {op!r}", error=UnknownStep)
    return _STEP_SHAPES[op](raw)


def _pipeline(pipeline: list[Step]) -> Pipeline:
    if [step.op for step in pipeline].count("emit") != 1 or pipeline[-1].op != "emit":
        raise shape.Invalid("exactly one emit, as the last step", ["pipeline"])
    return Pipeline(pipeline)


def _program(implements, attachment_spec, methods=None, builtin=None) -> ServletProgram:
    """Pipelines or a builtin, and every step's ``id`` a declared structure."""
    if (methods is None) == (builtin is None):
        raise shape.Invalid("needs exactly one of the keys methods/builtin")
    declared = {s.id for s in attachment_spec}
    for name, pipeline in (methods or {}).items():
        for i, step in enumerate(pipeline.steps):
            if "id" in step.args and step.args["id"] not in declared:
                where = ["methods", name, "pipeline", i, "id"]
                raise shape.Invalid(f"undeclared structure id {step.args['id']!r}", where)
    spec = AttachmentSpecification(attachment_spec)
    return ServletProgram(implements, spec, methods or {}, builtin)


_STRUCTURE = shape.record(
    AttachmentStructure,
    id=shape.NON_EMPTY,
    mime=shape.holds(
        lambda v: v == "*" or isinstance(v, str) and bool(shape.MIME_RE.match(v)),
        "must be a MIME type or '*'",
    ),
    ordinality=shape.one_of(ORD_ONE, ORD_MANY),
)
_PIPELINE = shape.record(_pipeline, pipeline=shape.list_of(_step, non_empty=True))
_SERVLET = shape.record(
    _program,
    implements=shape.URN,
    attachment_spec=shape.list_of(_STRUCTURE, non_empty=True, unique="id"),
    methods=shape.optional(shape.map_of(shape.STRING, _PIPELINE, non_empty=True)),
    builtin=shape.optional(shape.NON_EMPTY),
)


def parse_servlet_program(data: bytes) -> ServletProgram:
    """Parse a servlet program: either per-method pipelines or a named
    builtin, never both."""
    return shape.parse(data, _SERVLET, MalformedServlet, "servlet")


# ---------------------------------------------------------------------------
# execution

_exec_lock = threading.Lock()
_executions = 0


def execution_count() -> int:
    """Total pipelines started in this process; lets tests assert that a
    denied request never reached the mechanism."""
    with _exec_lock:
        return _executions


def _note_execution() -> None:
    global _executions
    with _exec_lock:
        _executions += 1


def execute_servlet(
    program: ServletProgram, spec: MethodSpec, bindings: dict, obj, args: dict
) -> tuple[str, bytes]:
    """Evaluate the pipeline of method ``spec`` over a value stack seeded
    empty, on ``args`` that :func:`check_args` has passed for ``spec``.

    Referentially transparent: the result depends only on the program, the
    bound stream contents, the method and its arguments. Failures carry the
    1-based index of the offending step.
    """
    if program.builtin is not None:
        raise ServletError(f"builtin mechanism {program.builtin!r} has no pipelines")
    pipeline = program.methods.get(spec.name)
    if pipeline is None:
        raise ServletError(f"mechanism has no pipeline for {spec.name!r}")

    _note_execution()
    frame = _Frame(bindings, obj, args)
    for frame.index, frame.step in enumerate(pipeline.steps, start=1):
        result = STEPS[frame.step.op].run(frame)
        if result is not None:
            return result
    raise ServletError("pipeline ended without emit")  # unreachable for parsed programs


# ---------------------------------------------------------------------------
# resolution


class ContentTypeResolver:
    """Resolves type and mechanism URNs to parsed documents.

    Resolution uses only the public surface: name resolution to locations,
    then the built-in document dissemination at each location in order.
    Parsed documents are cached until :meth:`flush_cache`, so a federation
    can keep serving disseminations while a type object's home repository
    is down.
    """

    def __init__(self, naming, client_factory):
        self._naming = naming
        self._client_factory = client_factory
        self._cache: dict[tuple[str, str], object] = {}
        self._flights: dict[tuple[str, str], Future] = {}  # lookups under way
        self._lock = threading.Lock()
        self.fetch_count = 0  # network attempts; exposed for tests

    def resolve_content_type(self, urn: str) -> ContentTypeSignature:
        return self._resolve(TYPE_URNS["SIGNATURE"], urn)

    def resolve_servlet(self, urn: str) -> ServletProgram:
        return self._resolve(TYPE_URNS["SERVLET"], urn)

    def resolve_access_scheme(self, urn: str) -> ServletProgram:
        return self._resolve(TYPE_URNS["ACCESS_MANAGER_SERVLET"], urn)

    def flush_cache(self) -> int:
        with self._lock:
            n = len(self._cache)
            self._cache.clear()
            return n

    def _resolve(self, type_urn: str, urn: str):
        """The document object ``urn`` serves as a ``type_urn`` built-in,
        parsed. Concurrent cold lookups of one document share one fetch, and
        its failure, which is not cached."""
        key = (type_urn, urn)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = Future()
        if not leader:
            return flight.result()
        try:
            row = BUILTIN_TYPES[type_urn]
            doc = row.parse(self._fetch(urn, type_urn, row.methods[0]))
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            self._cache[key] = doc
            del self._flights[key]
        flight.set_result(doc)
        return doc

    def _fetch(self, urn: str, type_urn: str, method: str) -> bytes:
        shape.check(shape.URN, urn, UnresolvableType, repr(urn))
        try:
            locations = self._naming.resolve(urn)
        except (NotRegistered, NamingUnavailable) as exc:
            raise UnresolvableType(f"{urn}: {exc.code.lower().replace('_', ' ')}") from None
        failures = []
        for location in locations:
            try:
                client = self._client_factory(location)
                with self._lock:
                    self.fetch_count += 1
                _, data = client.get_dissemination(urn, type_urn, method, {})
            except ObjectRepositoryError as exc:
                failures.append(f"{location}: {exc.code}")
                continue
            if len(data) > MAX_TYPE_DOC_BYTES:
                raise UnresolvableType(f"{urn}: document exceeds {MAX_TYPE_DOC_BYTES} bytes")
            return data
        raise UnresolvableType(f"{urn}: no location served the document ({'; '.join(failures)})")
