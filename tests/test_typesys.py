"""Signatures, servlet programs, attachment validation, pipelines, resolution."""

from __future__ import annotations

import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import (
    MARC_FIXTURE,
    STUB_URNS,
    fixture_documents,
    make_federation,
)
from objrepo import typesys
from objrepo.canonical import canonical_bytes
from objrepo.errors import (
    BadArguments,
    MalformedServlet,
    MalformedSignature,
    NoSuchMethod,
    ServletError,
    SignatureMismatch,
    UnknownStep,
    UnresolvableType,
)
from objrepo.kernel import DigitalObjectKernel, DisseminatorKind
from objrepo.typesys import (
    ContentTypeResolver,
    check_args,
    check_program_against_signature,
    execute_servlet,
    marc_to_dc_bytes,
    parse_servlet_program,
    parse_signature,
    validate_attachments,
)


def sig_doc(**overrides) -> dict:
    doc = {
        "type_name": "Demo",
        "methods": [{"name": "get", "params": [], "returns_mime": "text/plain"}],
    }
    doc.update(overrides)
    return doc


# -- parseSignature -----------------------------------------------------------


def test_parse_signature_fixtures():
    docs = fixture_documents()
    dc = parse_signature(canonical_bytes(docs["type-dc"]))
    assert [(m.name, [(p.name, p.type) for p in m.params], m.returns_mime) for m in dc.methods] == [
        ("getDCField", [("field", "string")], "text/plain"),
        ("getDCRecord", [], "application/x-dc-lines"),
    ]
    book = parse_signature(canonical_bytes(docs["type-book"]))
    assert [m.name for m in book.methods] == ["getTableOfContents", "getPage", "getPageCount"]
    assert book.find_method("getPage").params[0].type == "integer"


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda d: d.update(methods=[]), "methods"),
        (lambda d: d.update(methods=d["methods"] * 2), "methods[1].name"),
        (lambda d: d["methods"][0].update(returns_mime="nope"), "returns_mime"),
        (lambda d: d["methods"][0].update(params=[{"name": "a", "type": "float"}]), "params[0].type"),
        (
            lambda d: d["methods"][0].update(
                params=[{"name": "a", "type": "string"}, {"name": "a", "type": "string"}]
            ),
            "params[1].name",
        ),
        (lambda d: d.update(type_name=""), "type_name"),
        (lambda d: d.update(surprise=1), "keys"),
    ],
)
def test_parse_signature_rejections_carry_location(mutate, location):
    doc = sig_doc()
    mutate(doc)
    with pytest.raises(MalformedSignature) as err:
        parse_signature(canonical_bytes(doc))
    assert location in str(err.value)


def test_parse_signature_not_json():
    with pytest.raises(MalformedSignature):
        parse_signature(b"\xff\xfe")


# -- parseServletProgram ---------------------------------------------------------


def test_parse_marc2dc_fixture_pipeline_shape():
    program = parse_servlet_program(canonical_bytes(fixture_documents()["mech-marc2dc"]))
    assert program.builtin is None
    assert [(s.id, s.mime, s.ordinality) for s in program.attachment_spec.structures] == [
        ("marc", "application/x-marc-lines", "1:1")
    ]
    steps = program.methods["getDCField"].steps
    assert [s.op for s in steps] == ["select", "marc_to_dc", "dc_field", "emit"]
    assert steps[0].arg("id") == "marc" and steps[0].arg("index") == 1
    assert steps[2].arg("field") == "$field"
    assert steps[3].arg("mime") == "text/plain"


def test_parse_builtin_program():
    program = parse_servlet_program(canonical_bytes(fixture_documents()["acl-v1"]))
    assert program.builtin == "acl-v1"
    assert program.methods == {}
    assert program.attachment_spec.structures[0].id == "acl"


def servlet_doc(pipeline, attachment=None) -> bytes:
    return canonical_bytes(
        {
            "implements": "urn:test:type-x",
            "attachment_spec": attachment
            or [{"id": "src", "mime": "*", "ordinality": "1:1"}],
            "methods": {"get": {"pipeline": pipeline}},
        }
    )


def test_unknown_step_rejected():
    with pytest.raises(UnknownStep):
        parse_servlet_program(servlet_doc([{"op": "frobnicate"}, {"op": "emit", "mime": "text/plain"}]))


@pytest.mark.parametrize(
    "pipeline",
    [
        [{"op": "select", "id": "src", "index": 1}],  # no emit
        [{"op": "emit", "mime": "text/plain"}, {"op": "count"}],  # step after emit
        [{"op": "emit", "mime": "text/plain"}, {"op": "emit", "mime": "text/plain"}],
        [{"op": "select", "id": "other", "index": 1}, {"op": "emit", "mime": "text/plain"}],
        [{"op": "select", "id": "src", "index": 0}, {"op": "emit", "mime": "text/plain"}],
        [{"op": "select", "id": "src", "index": "n"}, {"op": "emit", "mime": "text/plain"}],
        [{"op": "emit", "mime": "nope"}],
        [{"op": "const", "text": "x", "bonus": 1}, {"op": "emit", "mime": "text/plain"}],
        [],
    ],
)
def test_malformed_pipelines_rejected(pipeline):
    with pytest.raises(MalformedServlet):
        parse_servlet_program(servlet_doc(pipeline))


def test_builtin_and_methods_are_mutually_exclusive():
    doc = {
        "implements": "urn:test:type-x",
        "attachment_spec": [{"id": "a", "mime": "*", "ordinality": "1:1"}],
        "builtin": "acl-v1",
        "methods": {},
    }
    with pytest.raises(MalformedServlet):
        parse_servlet_program(canonical_bytes(doc))


# -- validateAttachments -----------------------------------------------------------


def photoalbum_spec():
    program = parse_servlet_program(canonical_bytes(fixture_documents()["mech-photoalbum"]))
    return program.attachment_spec


def album_object() -> DigitalObjectKernel:
    obj = DigitalObjectKernel()
    obj.create_datastream("application/x-structure-cornell-1", b"DS2 DS4\nDS3 DS5\n")  # DS1
    obj.create_datastream("image/gif", b"thumb-one")  # DS2
    obj.create_datastream("image/gif", b"thumb-two")  # DS3
    obj.create_datastream("image/gif", b"image-one")  # DS4
    obj.create_datastream("image/gif", b"image-two")  # DS5
    return obj


ALBUM_BINDINGS = {"structure": ["DS1"], "thumbs": ["DS2", "DS3"], "images": ["DS4", "DS5"]}


def test_validate_attachments_album_ok():
    assert validate_attachments(photoalbum_spec(), ALBUM_BINDINGS, album_object()) == []


def test_validate_attachments_cardinality():
    bindings = dict(ALBUM_BINDINGS, thumbs=[])
    violations = validate_attachments(photoalbum_spec(), bindings, album_object())
    assert [(v.structure_id, v.reason) for v in violations] == [("thumbs", "cardinality")]


def test_validate_attachments_mime():
    bindings = dict(ALBUM_BINDINGS, structure=["DS2"])  # a gif where the table belongs
    violations = validate_attachments(photoalbum_spec(), bindings, album_object())
    assert [(v.structure_id, v.reason) for v in violations] == [("structure", "mime")]


def test_validate_attachments_undeclared_and_missing():
    bindings = dict(ALBUM_BINDINGS, rogue=["DS2"])
    violations = validate_attachments(photoalbum_spec(), bindings, album_object())
    assert ("rogue", "undeclared") in [(v.structure_id, v.reason) for v in violations]
    bindings = dict(ALBUM_BINDINGS, images=["DS4", "DS9"])
    violations = validate_attachments(photoalbum_spec(), bindings, album_object())
    assert [(v.structure_id, v.reason) for v in violations] == [("images", "missing")]


def test_validate_attachments_wildcard_and_parameters():
    spec = typesys.AttachmentSpecification(
        [typesys.AttachmentStructure("any", "*", typesys.ORD_MANY)]
    )
    obj = DigitalObjectKernel()
    obj.create_datastream("text/plain; charset=utf-8", b"x")
    obj.create_datastream("image/gif", b"y")
    assert validate_attachments(spec, {"any": ["DS1", "DS2"]}, obj) == []
    spec = typesys.AttachmentSpecification(
        [typesys.AttachmentStructure("t", "text/plain", typesys.ORD_ONE)]
    )
    # parameters ignored, type/subtype compared case-insensitively
    assert validate_attachments(spec, {"t": ["DS1"]}, obj) == []


# -- program/signature cross checks ---------------------------------------------------


def test_check_program_against_signature_mismatches():
    docs = fixture_documents()
    book_sig = parse_signature(canonical_bytes(docs["type-book"]))
    marc2dc = parse_servlet_program(canonical_bytes(docs["mech-marc2dc"]))
    with pytest.raises(SignatureMismatch):
        check_program_against_signature(marc2dc, book_sig)  # lacks book methods

    wrong_mime = {
        "implements": "urn:test:type-x",
        "attachment_spec": [{"id": "pages", "mime": "image/gif", "ordinality": "1:N"}],
        "methods": {
            "getTableOfContents": {"pipeline": [{"op": "const", "text": "t"}, {"op": "emit", "mime": "text/html"}]},
            "getPage": {"pipeline": [{"op": "select", "id": "pages", "index": "$n"}, {"op": "emit", "mime": "image/gif"}]},
            "getPageCount": {"pipeline": [{"op": "select_all", "id": "pages"}, {"op": "count"}, {"op": "emit", "mime": "text/plain"}]},
        },
    }
    with pytest.raises(SignatureMismatch) as err:
        check_program_against_signature(
            parse_servlet_program(canonical_bytes(wrong_mime)), book_sig
        )
    assert "text/html" in str(err.value)

    rogue_param = dict(wrong_mime)
    rogue_param["methods"] = dict(wrong_mime["methods"])
    rogue_param["methods"]["getTableOfContents"] = {
        "pipeline": [{"op": "const", "text": "t"}, {"op": "emit", "mime": "text/plain"}]
    }
    rogue_param["methods"]["getPage"] = {
        "pipeline": [{"op": "select", "id": "pages", "index": "$missing"}, {"op": "emit", "mime": "image/gif"}]
    }
    with pytest.raises(SignatureMismatch) as err:
        check_program_against_signature(
            parse_servlet_program(canonical_bytes(rogue_param)), book_sig
        )
    assert "$missing" in str(err.value)


@pytest.mark.parametrize(
    "steps, expected",
    [
        ([{"op": "const", "text": "$5"}], b"$5"),
        ([{"op": "select_all", "id": "src"}, {"op": "join", "separator": "$sep"}], b"a$sepb"),
    ],
)
def test_dollar_is_literal_outside_substitutable_arguments(steps, expected):
    """Only index, field and key take a $param: const text and a join
    separator are literal in the signature check and in execution alike."""
    pipeline = steps + [{"op": "emit", "mime": "text/plain"}]
    attachment = [{"id": "src", "mime": "*", "ordinality": "1:N"}]
    program = parse_servlet_program(servlet_doc(pipeline, attachment))
    signature = parse_signature(canonical_bytes(sig_doc()))
    check_program_against_signature(program, signature)
    obj = DigitalObjectKernel()
    bindings = {"src": [obj.create_datastream("text/plain", part) for part in (b"a", b"b")]}
    get = signature.find_method("get")
    assert execute_servlet(program, get, bindings, obj, {}) == ("text/plain", expected)


def test_protocol_doc_step_table_matches_steps():
    """The step vocabulary table in docs/protocol.md names exactly the ops,
    argument names (in order) and $-substitutable arguments of the code."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    section = doc.split("## Pipeline step vocabulary", 1)[1].split("\n## ", 1)[0]
    documented, substitutable = {}, set()
    for op, cell in re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M):
        names = []
        for part in cell.split(", "):
            if part.strip() == "-":
                continue
            m = re.match(r"`(\w+)`(.*)", part)
            names.append(m.group(1))
            if "$" in m.group(2):
                substitutable.add(m.group(1))
        documented[op] = tuple(names)
    assert documented == {op: row.args for op, row in typesys.STEPS.items()}
    assert substitutable == typesys.SUBSTITUTABLE
    assert set(typesys.ARG_CHECKS) == {name for row in typesys.STEPS.values() for name in row.args}


def test_protocol_doc_builtin_table_matches_builtin_types():
    """The built-in kinds table in docs/protocol.md gives exactly each row of
    BUILTIN_TYPES: kind, reserved URN, structure id, document MIME and
    methods in order."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    rows = re.findall(
        r"^\| `(\w+)` \| `(urn:[^`]+)` \| `(\w+)` \| `([^`]+)` \| (.*) \| at most one \|$",
        doc, re.M,
    )
    documented = {
        urn: (kind, sid, mime, tuple(re.findall(r"`(\w+)`", methods)))
        for kind, urn, sid, mime, methods in rows
    }
    assert len(documented) == len(rows) == 3
    assert documented == {
        urn: (row.kind, row.structure.id, row.structure.mime, row.methods)
        for urn, row in typesys.BUILTIN_TYPES.items()
    }
    assert {row.structure.ordinality for row in typesys.BUILTIN_TYPES.values()} == {typesys.ORD_ONE}


def test_check_args():
    sig = parse_signature(canonical_bytes(fixture_documents()["type-book"]))
    spec = sig.find_method("getPage")
    check_args(spec, {"n": "2"})
    check_args(spec, {"n": "0"})  # non-negative decimals parse; range is the servlet's concern
    for bad in ({}, {"n": "2", "q": "1"}, {"n": "-1"}, {"n": "two"}, {"n": "1.5"}, {"n": "2\n"}):
        with pytest.raises(BadArguments):
            check_args(spec, bad)


# -- executeServlet ---------------------------------------------------------------------


def run_fixture(label, method, args, obj, bindings):
    docs = fixture_documents()
    program = parse_servlet_program(canonical_bytes(docs[label]))
    sig_label = {"mech-marc2dc": "type-dc", "mech-dc-pass": "type-dc",
                 "mech-book-gif": "type-book", "mech-book-gif2": "type-book",
                 "mech-photoalbum": "type-photoalbum"}[label]
    signature = parse_signature(canonical_bytes(docs[sig_label]))
    return execute_servlet(program, signature.find_method(method), bindings, obj, args)


def album_dissemination(resolver, method: str, args: dict):
    """``method`` of the photo album type on :func:`album_object`, through
    the kernel, which finds the method and checks its arguments."""
    obj = album_object()
    album = STUB_URNS["type-photoalbum"]
    obj.create_disseminator(
        album, STUB_URNS["mech-photoalbum"], ALBUM_BINDINGS, DisseminatorKind.CONTENT, resolver
    )
    return obj.get_dissemination(album, method, args, "anonymous", resolver)


def test_execute_marc2dc_field():
    obj = DigitalObjectKernel()
    ds = obj.create_datastream(
        "application/x-marc-lines",
        b"100 $a Dickinson, Emily\n245 $a The Single Hound\n",
    )
    mime, data = run_fixture("mech-marc2dc", "getDCField", {"field": "Creator"}, obj, {"marc": [ds]})
    # Crosswalk applied by hand: 100$a -> Creator.
    assert (mime, data) == ("text/plain", b"Dickinson, Emily")
    mime, data = run_fixture("mech-marc2dc", "getDCRecord", {}, obj, {"marc": [ds]})
    assert data == b"Creator: Dickinson, Emily\nTitle: The Single Hound\n"


def test_execute_passthrough_is_identity():
    obj = DigitalObjectKernel()
    record = b"Title: Anything\nCreator: Anyone\n"
    ds = obj.create_datastream("application/x-dc-lines", record)
    mime, data = run_fixture("mech-dc-pass", "getDCRecord", {}, obj, {"dc": [ds]})
    assert (mime, data) == ("application/x-dc-lines", record)


def test_execute_photoalbum_ordinal_lookup():
    obj = album_object()
    mime, data = run_fixture("mech-photoalbum", "getImageForThumbnail", {"n": "2"}, obj, ALBUM_BINDINGS)
    # Structure table read by hand: row 2 is "DS3 DS5", column 2 names DS5.
    assert (mime, data) == ("image/gif", b"image-two")


def test_execute_photoalbum_id_lookup():
    obj = album_object()
    mime, data = run_fixture(
        "mech-photoalbum", "getImageForThumbnailId", {"thumb": "DS3"}, obj, ALBUM_BINDINGS
    )
    assert data == b"image-two"
    _, data = run_fixture(
        "mech-photoalbum", "getImageForThumbnailId", {"thumb": "DS2"}, obj, ALBUM_BINDINGS
    )
    assert data == b"image-one"


def test_execute_photoalbum_counts_and_thumbs():
    obj = album_object()
    assert run_fixture("mech-photoalbum", "getThumbnailCount", {}, obj, ALBUM_BINDINGS)[1] == b"2"
    assert run_fixture("mech-photoalbum", "getThumbnail", {"n": "1"}, obj, ALBUM_BINDINGS)[1] == b"thumb-one"


def test_execute_is_deterministic():
    obj = album_object()
    first = run_fixture("mech-photoalbum", "getImageForThumbnail", {"n": "1"}, obj, ALBUM_BINDINGS)
    second = run_fixture("mech-photoalbum", "getImageForThumbnail", {"n": "1"}, obj, ALBUM_BINDINGS)
    assert first == second


def test_execute_errors_carry_step_index():
    obj = album_object()
    with pytest.raises(ServletError) as err:
        run_fixture("mech-photoalbum", "getThumbnail", {"n": "7"}, obj, ALBUM_BINDINGS)
    assert "step 1" in str(err.value)
    with pytest.raises(ServletError) as err:
        run_fixture("mech-photoalbum", "getImageForThumbnail", {"n": "9"}, obj, ALBUM_BINDINGS)
    assert "step 2" in str(err.value)
    with pytest.raises(ServletError):
        run_fixture("mech-photoalbum", "getImageForThumbnailId", {"thumb": "DS7"}, obj, ALBUM_BINDINGS)


def test_execute_structure_lookup_missing_stream_is_data_error():
    obj = album_object()
    bad = dict(ALBUM_BINDINGS)
    obj.datastreams[0].content = b"DS2 DS9\n"  # row names a stream the object lacks
    with pytest.raises(ServletError) as err:
        run_fixture("mech-photoalbum", "getImageForThumbnail", {"n": "1"}, obj, bad)
    assert "DS9" in str(err.value)


def test_execute_malformed_marc_is_servlet_error():
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-marc-lines", b"totally wrong\n")
    with pytest.raises(ServletError) as err:
        run_fixture("mech-marc2dc", "getDCRecord", {}, obj, {"marc": [ds]})
    assert "step 2" in str(err.value)


def test_execute_missing_element_is_servlet_error():
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-marc-lines", b"245 $a Some Title\n")
    with pytest.raises(ServletError):
        run_fixture("mech-marc2dc", "getDCField", {"field": "Creator"}, obj, {"marc": [ds]})


def test_execute_rejects_unknown_method_and_args(stub_resolver):
    with pytest.raises(NoSuchMethod):
        album_dissemination(stub_resolver, "nextImage", {})
    with pytest.raises(BadArguments):
        album_dissemination(stub_resolver, "getThumbnail", {"n": "one"})


def test_a_dissemination_checks_its_arguments_once(stub_resolver, monkeypatch):
    checked = []
    check_args = typesys.check_args

    def counted(spec, args):
        checked.append(spec.name)
        check_args(spec, args)

    monkeypatch.setattr(typesys, "check_args", counted)
    thumb = album_dissemination(stub_resolver, "getThumbnail", {"n": "2"})
    assert thumb == ("image/gif", b"thumb-two")
    assert checked == ["getThumbnail"]


def index_program():
    """``pick`` selects the ``$n``-th of the bound streams; ``row`` looks up
    the ``$n``-th row of the first stream's structure document. ``n`` is a
    string parameter, so only the steps judge whether it is an integer."""
    sig = parse_signature(canonical_bytes({"type_name": "Pick", "methods": [
        {"name": m, "params": [{"name": "n", "type": "string"}], "returns_mime": "text/plain"}
        for m in ("pick", "row")
    ]}))
    program = parse_servlet_program(canonical_bytes({
        "implements": "urn:test:type-pick",
        "attachment_spec": [{"id": "parts", "mime": "text/plain", "ordinality": "1:N"}],
        "methods": {
            "pick": {"pipeline": [
                {"op": "select", "id": "parts", "index": "$n"},
                {"op": "emit", "mime": "text/plain"},
            ]},
            "row": {"pipeline": [
                {"op": "select", "id": "parts", "index": 1},
                {"op": "structure_lookup", "column_in": 0, "column_out": 1, "key": "$n"},
                {"op": "emit", "mime": "text/plain"},
            ]},
        },
    }))
    obj = DigitalObjectKernel()
    rows = "".join(f"DS{i}\n" for i in range(1, 22)).encode()
    ids = [obj.create_datastream("text/plain", rows)]
    ids += [obj.create_datastream("text/plain", b"s%d" % i) for i in range(2, 22)]
    return program, sig, {"parts": ids}, obj


@pytest.mark.parametrize("method", ["pick", "row"])
def test_substituted_index_must_be_an_ascii_decimal(method):
    program, sig, bindings, obj = index_program()
    spec = sig.find_method(method)
    assert execute_servlet(program, spec, bindings, obj, {"n": "3"}) == ("text/plain", b"s3")
    for bad in (" 3", "+3", "\uff13", "2_0", "3\n", "3" * 5000):
        with pytest.raises(ServletError) as err:
            execute_servlet(program, spec, bindings, obj, {"n": bad})
        assert err.value.code == "SERVLET_ERROR" and "not an integer" in str(err.value)


def test_join_concatenates_and_emit_requires_bytes():
    sig = parse_signature(canonical_bytes({"type_name": "Concat", "methods": [
        {"name": "joined", "params": [], "returns_mime": "text/plain"},
        {"name": "unjoined", "params": [], "returns_mime": "text/plain"},
    ]}))
    program = parse_servlet_program(canonical_bytes({
        "implements": "urn:test:type-concat",
        "attachment_spec": [{"id": "parts", "mime": "text/plain", "ordinality": "1:N"}],
        "methods": {
            "joined": {"pipeline": [
                {"op": "select_all", "id": "parts"},
                {"op": "join", "separator": ", "},
                {"op": "emit", "mime": "text/plain"},
            ]},
            "unjoined": {"pipeline": [
                {"op": "select_all", "id": "parts"},
                {"op": "emit", "mime": "text/plain"},
            ]},
        },
    }))
    obj = DigitalObjectKernel()
    ids = [obj.create_datastream("text/plain", t) for t in (b"alpha", b"beta", b"gamma")]
    result = execute_servlet(program, sig.find_method("joined"), {"parts": ids}, obj, {})
    assert result == ("text/plain", b"alpha, beta, gamma")
    with pytest.raises(ServletError) as err:  # a stream list is not emittable
        execute_servlet(program, sig.find_method("unjoined"), {"parts": ids}, obj, {})
    assert "byte value" in str(err.value)


def test_validation_soundness_no_select_failures_on_valid_bindings():
    obj = album_object()
    spec = photoalbum_spec()
    assert validate_attachments(spec, ALBUM_BINDINGS, obj) == []
    # Every fixed-index select in the program works once validation passed.
    run_fixture("mech-photoalbum", "getThumbnailCount", {}, obj, ALBUM_BINDINGS)
    run_fixture("mech-photoalbum", "getImageForThumbnail", {"n": "1"}, obj, ALBUM_BINDINGS)


# -- crosswalk properties ------------------------------------------------------------------


NAIVE_CROSSWALK = {
    "100 $a": "Creator",
    "245 $a": "Title",
    "260 $b": "Publisher",
    "260 $c": "Date",
    "520 $a": "Description",
    "650 $a": "Subject",
}


def naive_marc_to_dc(text: str) -> str:
    """Independent reference: literal prefix table, no shared code."""
    out = []
    for line in text.splitlines():
        for prefix, element in NAIVE_CROSSWALK.items():
            if line.startswith(prefix + " ") or line == prefix + " ":
                out.append(f"{element}: {line[len(prefix) + 1:]}")
                break
    return "".join(o + "\n" for o in out)


def test_crosswalk_matches_naive_oracle_on_fixture():
    assert marc_to_dc_bytes(MARC_FIXTURE).decode() == naive_marc_to_dc(MARC_FIXTURE.decode())


def test_crosswalk_totality_random_documents():
    rng = random.Random(99)
    tags = ["100", "245", "260", "520", "650", "700", "856", "020"]
    subs = ["a", "b", "c", "z"]
    for _ in range(200):
        lines = []
        for _ in range(rng.randint(0, 12)):
            value = "".join(rng.choice("abc XYZ-") for _ in range(rng.randint(0, 10)))
            lines.append(f"{rng.choice(tags)} ${rng.choice(subs)} {value}")
        text = "".join(line + "\n" for line in lines)
        got = marc_to_dc_bytes(text.encode()).decode()
        assert got == naive_marc_to_dc(text)
        for line in got.splitlines():
            assert re.match(r"^(Title|Creator|Publisher|Date|Description|Subject): ", line)


# -- resolver -------------------------------------------------------------------------------


def test_resolver_caches_and_survives_repository_death(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    resolver = ContentTypeResolver(fed.naming, fed.registry.client)
    sig = resolver.resolve_content_type(fed.types["type-dc"])
    assert sig.type_name == "DublinCore"
    fetches = resolver.fetch_count
    fed.registry.kill(fed.repos[0].endpoint)
    again = resolver.resolve_content_type(fed.types["type-dc"])
    assert again is sig and resolver.fetch_count == fetches  # served from cache
    assert resolver.flush_cache() == 1
    with pytest.raises(UnresolvableType):
        resolver.resolve_content_type(fed.types["type-dc"])


def test_resolver_flush_semantics(tmp_path):
    fed = make_federation(tmp_path)
    resolver = ContentTypeResolver(fed.naming, fed.registry.client)
    assert resolver.flush_cache() == 0
    resolver.resolve_servlet(fed.types["mech-marc2dc"])
    assert resolver.fetch_count == 1
    assert resolver.flush_cache() == 1
    resolver.resolve_servlet(fed.types["mech-marc2dc"])
    assert resolver.fetch_count == 2  # resolve-flush-resolve refetches
    assert resolver.flush_cache() == 1
    assert resolver.flush_cache() == 0


class SlowClient:
    """A repository client whose document fetch takes long enough for every
    concurrent lookup to arrive while it is under way."""

    def __init__(self, inner):
        self.inner = inner

    def get_dissemination(self, *args):
        time.sleep(0.2)
        return self.inner.get_dissemination(*args)


def concurrent_cold_lookups(resolver, fed) -> list:
    """8 lookups released at once, alternating between two documents; each
    result is the document or the exception raised."""
    gate = threading.Barrier(8)
    lookups = [(resolver.resolve_content_type, fed.types["type-dc"]),
               (resolver.resolve_servlet, fed.types["mech-marc2dc"])]

    def lookup(i):
        resolve, urn = lookups[i % 2]
        gate.wait(5)
        try:
            return resolve(urn)
        except UnresolvableType as exc:
            return exc

    with ThreadPoolExecutor(8) as pool:
        return list(pool.map(lookup, range(8), timeout=10))


def test_concurrent_cold_lookups_share_one_fetch_per_document(tmp_path):
    fed = make_federation(tmp_path)
    resolver = ContentTypeResolver(fed.naming, lambda at: SlowClient(fed.registry.client(at)))
    docs = concurrent_cold_lookups(resolver, fed)
    assert resolver.fetch_count == 2
    assert docs[0].type_name == "DublinCore"
    assert all(doc is docs[i % 2] for i, doc in enumerate(docs))


def test_a_failed_shared_fetch_reaches_every_waiter_and_is_not_cached(tmp_path):
    fed = make_federation(tmp_path)
    resolver = ContentTypeResolver(fed.naming, lambda at: SlowClient(fed.registry.client(at)))
    fed.registry.kill(fed.repos[0].endpoint)
    failures = concurrent_cold_lookups(resolver, fed)
    assert all(isinstance(f, UnresolvableType) for f in failures)
    assert resolver.fetch_count == 2  # one attempt per document, at its one location
    fed.registry.revive(fed.repos[0].endpoint)
    assert resolver.resolve_content_type(fed.types["type-dc"]).type_name == "DublinCore"
    assert resolver.fetch_count == 3


def test_resolver_unregistered_urn(tmp_path):
    fed = make_federation(tmp_path, with_types=False)
    resolver = ContentTypeResolver(fed.naming, fed.registry.client)
    with pytest.raises(UnresolvableType):
        resolver.resolve_content_type("urn:test:never-registered")


def test_resolver_propagates_parse_errors(tmp_path):
    fed = make_federation(tmp_path, with_types=False)
    client = fed.client()
    handle = client.create_object()
    bad = canonical_bytes({"type_name": "X", "methods": []})
    ds = client.add_datastream(handle, "application/x-fedora-signature+json", bad)
    client.add_disseminator(
        handle, "urn:fedora-builtin:signature", "urn:fedora-builtin:signature",
        {"signature": [ds]}, DisseminatorKind.SIGNATURE.value,
    )
    name = client.deposit(handle)
    resolver = ContentTypeResolver(fed.naming, fed.registry.client)
    with pytest.raises(MalformedSignature):
        resolver.resolve_content_type(name)


def test_resolver_rejects_object_without_builtin(tmp_path):
    fed = make_federation(tmp_path, with_types=False)
    client = fed.client()
    handle = client.create_object()
    client.add_datastream(handle, "text/plain", b"no disseminators here")
    name = client.deposit(handle)
    resolver = ContentTypeResolver(fed.naming, fed.registry.client)
    with pytest.raises(UnresolvableType):
        resolver.resolve_content_type(name)


def test_resolver_size_cap(tmp_path, monkeypatch):
    fed = make_federation(tmp_path)
    monkeypatch.setattr(typesys, "MAX_TYPE_DOC_BYTES", 32)
    resolver = ContentTypeResolver(fed.naming, fed.registry.client)
    with pytest.raises(UnresolvableType) as err:
        resolver.resolve_content_type(fed.types["type-dc"])
    assert "exceeds" in str(err.value)


# -- one signature, many mechanisms -----------------------------------------------------------


def test_one_to_many_mechanisms_agree_on_pages(tmp_path):
    from conftest import PAGES, build_book_object

    fed = make_federation(tmp_path)
    a = build_book_object(fed, "mech-book-gif", "pages")
    b = build_book_object(fed, "mech-book-gif2", "leaves")
    client = fed.client()
    for n in range(1, len(PAGES) + 1):
        out_a = client.get_dissemination(a, fed.types["type-book"], "getPage", {"n": str(n)})
        out_b = client.get_dissemination(b, fed.types["type-book"], "getPage", {"n": str(n)})
        assert out_a == out_b == ("image/gif", PAGES[n - 1])
