"""Content-type machinery: signatures, servlet programs, and the pipeline engine.

A content type is named by the URN of the digital object that disseminates
its *signature* (the formal method list). A mechanism implementing the type
is named by the URN of the object disseminating its *servlet program*: a
small declarative pipeline per method, plus an attachment specification
describing the datastreams the program needs. Because both documents live
in ordinary named objects, the type registry is just the repository
federation itself; :class:`ContentTypeResolver` walks name resolution and
the built-in document disseminations to fetch them.

The pipeline step vocabulary is deliberately closed: new behavior comes
from composing steps into new servlet programs deposited at runtime, never
from executing foreign code.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field

from .errors import (
    BadArguments,
    MalformedServlet,
    MalformedSignature,
    NamingUnavailable,
    NoSuchMethod,
    NotRegistered,
    ObjectRepositoryError,
    ServletError,
    SignatureMismatch,
    UnknownStep,
    UnresolvableType,
)
from .validate import is_mime, is_urn, mime_base

#: Reserved type URNs naming the built-in disseminator kinds. Objects whose
#: disseminators carry these types answer getSignature/getServlet natively,
#: which is what terminates the resolution recursion.
SIGNATURE_TYPE_URN = "urn:fedora-builtin:signature"
SERVLET_TYPE_URN = "urn:fedora-builtin:servlet"
ACCESS_SERVLET_TYPE_URN = "urn:fedora-builtin:access-servlet"

SIGNATURE_MIME = "application/x-fedora-signature+json"
SERVLET_MIME = "application/x-fedora-servlet+json"

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

DC_ELEMENTS = ("Title", "Creator", "Publisher", "Date", "Description", "Subject")

_MARC_LINE_RE = re.compile(r"^([0-9]{3}) \$(.) (.*)$")
_DC_LINE_RE = re.compile(r"^(Title|Creator|Publisher|Date|Description|Subject): (.*)$")
_INT_RE = re.compile(r"^[0-9]+$")

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


@dataclass(frozen=True)
class Step:
    op: str
    args: tuple[tuple[str, object], ...]

    def arg(self, name: str):
        return dict(self.args)[name]


@dataclass
class Pipeline:
    steps: list[Step]


@dataclass
class ServletProgram:
    implements: str
    attachment_spec: AttachmentSpecification
    methods: dict[str, Pipeline] = field(default_factory=dict)
    builtin: str | None = None


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
# parsing


def _load_json(data: bytes, exc_type, what: str) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise exc_type(f"{what}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise exc_type(f"{what}: top level must be a JSON object")
    return doc


def parse_signature(data: bytes) -> ContentTypeSignature:
    """Parse a content-type signature document.

    Raises MALFORMED_SIGNATURE with the offending location on any violation:
    duplicate method or parameter names, unknown parameter types, an empty
    method list, or an invalid result MIME.
    """
    doc = _load_json(data, MalformedSignature, "signature")
    if set(doc) != {"methods", "type_name"}:
        raise MalformedSignature(f"signature: expected keys methods/type_name, got {sorted(doc)}")
    type_name = doc["type_name"]
    if not isinstance(type_name, str) or not type_name:
        raise MalformedSignature("type_name: must be a non-empty string")
    raw_methods = doc["methods"]
    if not isinstance(raw_methods, list) or not raw_methods:
        raise MalformedSignature("methods: at least one method is required")

    methods: list[MethodSpec] = []
    seen_names: set[str] = set()
    for i, m in enumerate(raw_methods):
        loc = f"methods[{i}]"
        if not isinstance(m, dict) or set(m) != {"name", "params", "returns_mime"}:
            raise MalformedSignature(f"{loc}: expected keys name/params/returns_mime")
        name = m["name"]
        if not isinstance(name, str) or not name:
            raise MalformedSignature(f"{loc}.name: must be a non-empty string")
        if name in seen_names:
            raise MalformedSignature(f"{loc}.name: duplicate method {name!r}")
        seen_names.add(name)
        if not isinstance(m["params"], list):
            raise MalformedSignature(f"{loc}.params: must be a list")
        params: list[MethodParam] = []
        seen_params: set[str] = set()
        for j, p in enumerate(m["params"]):
            ploc = f"{loc}.params[{j}]"
            if not isinstance(p, dict) or set(p) != {"name", "type"}:
                raise MalformedSignature(f"{ploc}: expected keys name/type")
            pname, ptype = p["name"], p["type"]
            if not isinstance(pname, str) or not pname:
                raise MalformedSignature(f"{ploc}.name: must be a non-empty string")
            if pname in seen_params:
                raise MalformedSignature(f"{ploc}.name: duplicate parameter {pname!r}")
            seen_params.add(pname)
            if ptype not in PARAM_TYPES:
                raise MalformedSignature(f"{ploc}.type: must be one of {PARAM_TYPES}")
            params.append(MethodParam(pname, ptype))
        if not is_mime(m["returns_mime"]):
            raise MalformedSignature(f"{loc}.returns_mime: invalid MIME type")
        methods.append(MethodSpec(name, tuple(params), m["returns_mime"]))
    return ContentTypeSignature(type_name, methods)


#: op -> required argument names; values are checked by _parse_step.
_STEP_ARGS = {
    "select": ("id", "index"),
    "select_all": ("id",),
    "count": (),
    "marc_to_dc": (),
    "dc_field": ("field",),
    "structure_lookup": ("column_in", "column_out", "key"),
    "join": ("separator",),
    "const": ("text",),
    "emit": ("mime",),
}


def _parse_step(raw: dict, loc: str, structure_ids: set[str]) -> Step:
    if not isinstance(raw, dict) or not isinstance(raw.get("op"), str):
        raise MalformedServlet(f"{loc}: each step must be an object with an 'op'")
    op = raw["op"]
    if op not in _STEP_ARGS:
        raise UnknownStep(f"{loc}: unknown step {op!r}")
    expected = _STEP_ARGS[op]
    if set(raw) != {"op", *expected}:
        raise MalformedServlet(f"{loc}: {op} takes exactly {expected}")

    def _str(key: str) -> str:
        v = raw[key]
        if not isinstance(v, str):
            raise MalformedServlet(f"{loc}.{key}: must be a string")
        return v

    if op in ("select", "select_all"):
        if _str("id") not in structure_ids:
            raise MalformedServlet(f"{loc}.id: undeclared structure id {raw['id']!r}")
    if op == "select":
        idx = raw["index"]
        if isinstance(idx, str):
            if not idx.startswith("$"):
                raise MalformedServlet(f"{loc}.index: must be an integer or a $parameter")
        elif not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
            raise MalformedServlet(f"{loc}.index: must be a positive integer or a $parameter")
    if op == "dc_field":
        _str("field")
    if op == "structure_lookup":
        for key in ("column_in", "column_out"):
            v = raw[key]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0 or (key == "column_out" and v < 1):
                raise MalformedServlet(f"{loc}.{key}: must be a non-negative column index")
        _str("key")
    if op == "join":
        _str("separator")
    if op == "const":
        _str("text")
    if op == "emit" and not is_mime(raw["mime"]):
        raise MalformedServlet(f"{loc}.mime: invalid MIME type")

    return Step(op, tuple(sorted((k, v) for k, v in raw.items() if k != "op")))


def _parse_attachment_spec(raw, loc: str) -> AttachmentSpecification:
    if not isinstance(raw, list) or not raw:
        raise MalformedServlet(f"{loc}: must be a non-empty list")
    structures: list[AttachmentStructure] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        eloc = f"{loc}[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"id", "mime", "ordinality"}:
            raise MalformedServlet(f"{eloc}: expected keys id/mime/ordinality")
        sid = entry["id"]
        if not isinstance(sid, str) or not sid:
            raise MalformedServlet(f"{eloc}.id: must be a non-empty string")
        if sid in seen:
            raise MalformedServlet(f"{eloc}.id: duplicate structure id {sid!r}")
        seen.add(sid)
        if entry["mime"] != "*" and not is_mime(entry["mime"]):
            raise MalformedServlet(f"{eloc}.mime: must be a MIME type or '*'")
        if entry["ordinality"] not in (ORD_ONE, ORD_MANY):
            raise MalformedServlet(f"{eloc}.ordinality: must be {ORD_ONE!r} or {ORD_MANY!r}")
        structures.append(AttachmentStructure(sid, entry["mime"], entry["ordinality"]))
    return AttachmentSpecification(structures)


def parse_servlet_program(data: bytes) -> ServletProgram:
    """Parse a servlet program: either per-method pipelines or a named
    builtin, never both."""
    doc = _load_json(data, MalformedServlet, "servlet")
    keys = set(doc)
    if keys == {"attachment_spec", "implements", "methods"}:
        builtin = None
    elif keys == {"attachment_spec", "builtin", "implements"}:
        builtin = doc["builtin"]
        if not isinstance(builtin, str) or not builtin:
            raise MalformedServlet("builtin: must be a non-empty string")
    else:
        raise MalformedServlet(f"servlet: unexpected keys {sorted(keys)}")

    implements = doc["implements"]
    if not is_urn(implements):
        raise MalformedServlet(f"implements: invalid urn {implements!r}")
    spec = _parse_attachment_spec(doc["attachment_spec"], "attachment_spec")

    methods: dict[str, Pipeline] = {}
    if builtin is None:
        raw_methods = doc["methods"]
        if not isinstance(raw_methods, dict) or not raw_methods:
            raise MalformedServlet("methods: must be a non-empty object")
        structure_ids = {s.id for s in spec.structures}
        for name, body in raw_methods.items():
            loc = f"methods.{name}"
            if not isinstance(body, dict) or set(body) != {"pipeline"}:
                raise MalformedServlet(f"{loc}: expected a single 'pipeline' key")
            raw_steps = body["pipeline"]
            if not isinstance(raw_steps, list) or not raw_steps:
                raise MalformedServlet(f"{loc}.pipeline: must be a non-empty list")
            steps = [
                _parse_step(s, f"{loc}.pipeline[{i}]", structure_ids)
                for i, s in enumerate(raw_steps)
            ]
            emits = [i for i, s in enumerate(steps) if s.op == "emit"]
            if emits != [len(steps) - 1]:
                raise MalformedServlet(f"{loc}.pipeline: exactly one emit, as the last step")
            methods[name] = Pipeline(steps)

    return ServletProgram(implements, spec, methods, builtin)


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
            elif s.mime != "*" and mime_base(ds.mime) != mime_base(s.mime):
                violations.append(Violation(s.id, "mime", f"{ds_id} is {ds.mime}, want {s.mime}"))
    return violations


def _dollar_refs(pipeline: Pipeline):
    for step in pipeline.steps:
        for key, value in step.args:
            if isinstance(value, str) and value.startswith("$"):
                yield step.op, key, value[1:]


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
        if p.type == "integer" and _INT_RE.match(value) is None:
            raise BadArguments(f"{spec.name}: argument {p.name!r} must be a non-negative decimal")


# ---------------------------------------------------------------------------
# document formats used by pipeline steps


def parse_marc_lines(data: bytes) -> list[tuple[str, str, str]]:
    """``TAG $SUB value`` per line -> (tag, subfield, value) triples."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from None
    fields = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for n, line in enumerate(lines, start=1):
        m = _MARC_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {n}: not a MARC field line")
        fields.append((m.group(1), m.group(2), m.group(3)))
    return fields


def parse_dc_lines(data: bytes) -> list[tuple[str, str]]:
    """``Element: value`` per line -> (element, value) pairs."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from None
    pairs = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for n, line in enumerate(lines, start=1):
        m = _DC_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {n}: not an element line")
        pairs.append((m.group(1), m.group(2)))
    return pairs


def marc_to_dc_bytes(data: bytes) -> bytes:
    out = []
    for tag, sub, value in parse_marc_lines(data):
        element = CROSSWALK.get((tag, sub))
        if element is not None:
            out.append(f"{element}: {value}\n")
    return "".join(out).encode("utf-8")


def parse_structure_rows(data: bytes) -> list[list[str]]:
    """Rows of whitespace-separated datastream ids; blank lines ignored."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from None
    return [line.split() for line in text.split("\n") if line.strip()]


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


def _pop(stack: list, kind: type, i: int):
    """Pop the top value of the pipeline stack, which must be a ``kind``."""
    if not stack:
        raise ServletError("value stack is empty", step_index=i)
    v = stack.pop()
    if not isinstance(v, kind):
        what = "a byte value" if kind is bytes else "a stream list"
        raise ServletError(f"expected {what} on the stack", step_index=i)
    return v


def _resolve_param(value, args: dict):
    if isinstance(value, str) and value.startswith("$"):
        name = value[1:]
        if name not in args:
            raise KeyError(name)
        return args[name]
    return value


def execute_servlet(
    program: ServletProgram,
    signature: ContentTypeSignature,
    bindings: dict,
    obj,
    method: str,
    args: dict,
) -> tuple[str, bytes]:
    """Evaluate one method pipeline over a value stack seeded empty.

    Referentially transparent: the result depends only on the program, the
    bound stream contents, the method and its arguments. Failures carry the
    1-based index of the offending step.
    """
    spec = signature.find_method(method)
    if spec is None:
        raise NoSuchMethod(f"signature has no method {method!r}")
    check_args(spec, args)
    if program.builtin is not None:
        raise ServletError(f"builtin mechanism {program.builtin!r} has no pipelines")
    pipeline = program.methods.get(method)
    if pipeline is None:
        raise ServletError(f"mechanism has no pipeline for {method!r}")

    _note_execution()
    stack: list = []
    for i, step in enumerate(pipeline.steps, start=1):
        try:
            result = _run_step(step, i, stack, bindings, obj, args)
        except KeyError as exc:
            raise ServletError(f"unbound parameter ${exc.args[0]}", step_index=i) from None
        if result is not None:
            return result
    raise ServletError("pipeline ended without emit")  # unreachable for parsed programs


def _bound_streams(step: Step, i: int, bindings: dict, obj) -> list:
    sid = step.arg("id")
    ds_ids = bindings.get(sid)
    if ds_ids is None:
        raise ServletError(f"structure {sid!r} is not bound", step_index=i)
    streams = []
    for ds_id in ds_ids:
        ds = obj.find_datastream(ds_id)
        if ds is None:
            raise ServletError(f"bound stream {ds_id} is missing", step_index=i)
        streams.append(ds)
    return streams


def _run_step(step: Step, i: int, stack: list, bindings: dict, obj, args: dict):
    op = step.op

    if op == "select":
        streams = _bound_streams(step, i, bindings, obj)
        raw = _resolve_param(step.arg("index"), args)
        try:
            index = int(raw)
        except (TypeError, ValueError):
            raise ServletError(f"select index {raw!r} is not an integer", step_index=i) from None
        if not 1 <= index <= len(streams):
            raise ServletError(
                f"select index {index} out of range 1..{len(streams)}", step_index=i
            )
        stack.append(streams[index - 1].content)

    elif op == "select_all":
        stack.append(_bound_streams(step, i, bindings, obj))

    elif op == "count":
        stack.append(str(len(_pop(stack, list, i))).encode("utf-8"))

    elif op == "join":
        streams = _pop(stack, list, i)
        sep = step.arg("separator").encode("utf-8")
        stack.append(sep.join(ds.content for ds in streams))

    elif op == "const":
        stack.append(step.arg("text").encode("utf-8"))

    elif op == "marc_to_dc":
        data = _pop(stack, bytes, i)
        try:
            stack.append(marc_to_dc_bytes(data))
        except ValueError as exc:
            raise ServletError(f"malformed MARC input: {exc}", step_index=i) from None

    elif op == "dc_field":
        field_name = _resolve_param(step.arg("field"), args)
        data = _pop(stack, bytes, i)
        try:
            pairs = parse_dc_lines(data)
        except ValueError as exc:
            raise ServletError(f"malformed element lines: {exc}", step_index=i) from None
        for element, value in pairs:
            if element == field_name:
                stack.append(value.encode("utf-8"))
                break
        else:
            raise ServletError(f"no element {field_name!r} in record", step_index=i)

    elif op == "structure_lookup":
        key = _resolve_param(step.arg("key"), args)
        col_in = step.arg("column_in")
        col_out = step.arg("column_out")
        data = _pop(stack, bytes, i)
        try:
            rows = parse_structure_rows(data)
        except ValueError as exc:
            raise ServletError(f"malformed structure document: {exc}", step_index=i) from None
        row = None
        if col_in == 0:
            # column 0 is the implicit row ordinal (1-based), so integer
            # parameters can address rows positionally.
            if _INT_RE.match(str(key)) is None:
                raise ServletError(f"ordinal key {key!r} is not an integer", step_index=i)
            n = int(key)
            if 1 <= n <= len(rows):
                row = rows[n - 1]
        else:
            for candidate in rows:
                if len(candidate) >= col_in and candidate[col_in - 1] == key:
                    row = candidate
                    break
        if row is None:
            raise ServletError(f"no row matches key {key!r}", step_index=i)
        if len(row) < col_out:
            raise ServletError(f"matched row has no column {col_out}", step_index=i)
        ds_id = row[col_out - 1]
        ds = obj.find_datastream(ds_id)
        if ds is None:
            raise ServletError(f"structure row names missing stream {ds_id!r}", step_index=i)
        stack.append(ds.content)

    elif op == "emit":
        value = _pop(stack, bytes, i)
        return step.arg("mime"), value

    else:  # pragma: no cover - parser rejects unknown ops
        raise ServletError(f"unknown op {op!r}", step_index=i)

    return None


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

    def __init__(self, naming, client_factory, max_doc_bytes: int = MAX_TYPE_DOC_BYTES):
        self._naming = naming
        self._client_factory = client_factory
        self._max_doc_bytes = max_doc_bytes
        self._cache: dict[tuple[str, str], object] = {}
        self._lock = threading.Lock()
        self.fetch_count = 0  # network attempts; exposed for tests

    def resolve_content_type(self, urn: str) -> ContentTypeSignature:
        return self._resolve("signature", urn, SIGNATURE_TYPE_URN, "getSignature", parse_signature)

    def resolve_servlet(self, urn: str) -> ServletProgram:
        return self._resolve("servlet", urn, SERVLET_TYPE_URN, "getServlet", parse_servlet_program)

    def resolve_access_scheme(self, urn: str) -> ServletProgram:
        return self._resolve(
            "access", urn, ACCESS_SERVLET_TYPE_URN, "getServlet", parse_servlet_program
        )

    def flush_cache(self) -> int:
        with self._lock:
            n = len(self._cache)
            self._cache.clear()
            return n

    def _resolve(self, role: str, urn: str, type_urn: str, method: str, parse):
        key = (role, urn)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        data = self._fetch(urn, type_urn, method)
        doc = parse(data)
        with self._lock:
            self._cache[key] = doc
        return doc

    def _fetch(self, urn: str, type_urn: str, method: str) -> bytes:
        if not is_urn(urn):
            raise UnresolvableType(f"not a valid urn: {urn!r}")
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
            if len(data) > self._max_doc_bytes:
                raise UnresolvableType(f"{urn}: document exceeds {self._max_doc_bytes} bytes")
            return data
        raise UnresolvableType(f"{urn}: no location served the document ({'; '.join(failures)})")
