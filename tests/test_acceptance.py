"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import random
import urllib.parse

import pytest

from conftest import (
    ACL_ALICE_ALL,
    EXPECTED_DC,
    EXPECTED_ELEMENTS,
    MARC_FIXTURE,
    STUB_URNS,
    acl_bytes,
    build_book_object,
    build_dc_object,
    build_marc_object,
    make_federation,
    make_wire_federation,
    probe,
    quote,
    wire_marc_object,
)
from objrepo import access, typesys
from objrepo.canonical import canonical_bytes
from objrepo.errors import (
    AccessDenied,
    AlreadyPresent,
    NoSuchObject,
    ObjectRepositoryError,
)
from objrepo.kernel import DigitalObjectKernel, DisseminatorKind, deserialize_object
from objrepo.typesys import validate_attachments


def passed(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE C{criterion} PASS - {text}")


# -- criterion 1: end-to-end client request sequence over the wire ------------------


def test_c1_client_request_sequence(tmp_path):
    fed = make_wire_federation(tmp_path, n_repos=1)
    try:
        client = fed.clients[0]
        name = wire_marc_object(fed)

        # Access by name resolves only the deposited object.
        with pytest.raises(NoSuchObject):
            client.list_types("urn:test:not-deposited")

        types = client.list_types(name)
        assert types == [fed.types["type-dc"]], "exactly the element-set content type"

        methods = client.list_methods(name, fed.types["type-dc"])
        assert [m["name"] for m in methods] == ["getDCField", "getDCRecord"]
        assert methods[0]["params"] == [{"name": "field", "type": "string"}]

        mime, data = client.get_dissemination(
            name, fed.types["type-dc"], "getDCField", {"field": "Creator"}, principal="alice"
        )
        assert (mime, data) == ("text/plain", EXPECTED_ELEMENTS["Creator"])

        with pytest.raises(AccessDenied):
            client.get_dissemination(
                name, fed.types["type-dc"], "getDCField", {"field": "Creator"},
                principal="mallory",
            )
    finally:
        fed.stop()
    passed(1, "typed discovery and guarded dissemination sequence over a live wire pair")


# -- criterion 2: content-type equivalence --------------------------------------------


def test_c2_content_type_equivalence(tmp_path):
    fed = make_federation(tmp_path)
    stored = build_dc_object(fed, dc=EXPECTED_DC)
    derived = build_marc_object(fed, acl=None, marc=MARC_FIXTURE)
    dc_type = fed.types["type-dc"]
    repo = fed.repos[0]

    record_a = repo.access(stored).get_dissemination(dc_type, "getDCRecord", {})
    record_b = repo.access(derived).get_dissemination(dc_type, "getDCRecord", {})
    assert record_a == record_b == ("application/x-dc-lines", EXPECTED_DC)

    for element, value in EXPECTED_ELEMENTS.items():
        out_a = repo.access(stored).get_dissemination(dc_type, "getDCField", {"field": element})
        out_b = repo.access(derived).get_dissemination(dc_type, "getDCField", {"field": element})
        assert out_a == out_b == ("text/plain", value), element
    passed(2, "stored element lines and crosswalked MARC are byte-identical for all methods")


# -- criterion 3: one signature, many mechanisms ----------------------------------------


def test_c3_one_to_many_mechanisms(tmp_path):
    fed = make_federation(tmp_path)
    pages = [b"GIF89a leaf-A", b"GIF89a leaf-B", b"GIF89a leaf-C", b"GIF89a leaf-D"]
    first = build_book_object(fed, "mech-book-gif", "pages", pages)
    second = build_book_object(fed, "mech-book-gif2", "leaves", pages)
    repo = fed.repos[0]
    book = fed.types["type-book"]
    for n in range(1, len(pages) + 1):
        out_a = repo.access(first).get_dissemination(book, "getPage", {"n": str(n)})
        out_b = repo.access(second).get_dissemination(book, "getPage", {"n": str(n)})
        assert out_a == out_b == ("image/gif", pages[n - 1])
    assert (
        repo.access(first).get_dissemination(book, "getPageCount", {})
        == repo.access(second).get_dissemination(book, "getPageCount", {})
        == ("text/plain", b"4")
    )
    passed(3, "two mechanisms behind one signature disseminate identical page bytes")


# -- criterion 4: attachment specification enforcement ------------------------------------


DECLARED = {
    "structure": ("application/x-structure-cornell-1", "1:1"),
    "thumbs": ("image/gif", "1:N"),
    "images": ("image/gif", "1:N"),
}


def oracle_accepts(bindings: dict[str, list[str]], stream_mimes: dict[str, str]) -> bool:
    """Independent restatement of the template rules: declared ids only,
    1:1 means exactly one, 1:N means at least one, every bound stream exists
    and carries the declared type/subtype."""
    if any(sid not in DECLARED for sid in bindings):
        return False
    for sid, (want, ordinality) in DECLARED.items():
        ids = bindings.get(sid, [])
        if ordinality == "1:1" and len(ids) != 1:
            return False
        if ordinality == "1:N" and len(ids) == 0:
            return False
        for ds_id in ids:
            mime = stream_mimes.get(ds_id)
            if mime is None or mime.split(";")[0].strip().lower() != want:
                return False
    return True


def test_c4_attachment_matrix(stub_resolver):
    obj = DigitalObjectKernel()
    pools = {
        ("structure", True): [], ("structure", False): [],
        ("thumbs", True): [], ("thumbs", False): [],
        ("images", True): [], ("images", False): [],
    }
    mimes = {"structure": "application/x-structure-cornell-1", "thumbs": "image/gif",
             "images": "image/gif"}
    wrong = {"structure": "image/gif", "thumbs": "text/plain", "images": "application/pdf"}
    for sid in ("structure", "thumbs", "images"):
        for match in (True, False):
            for _ in range(2):
                mime = mimes[sid] if match else wrong[sid]
                pools[(sid, match)].append(obj.create_datastream(mime, b"payload"))
    rogue = [obj.create_datastream("image/gif", b"rogue-1"), obj.create_datastream("image/gif", b"rogue-2")]
    stream_mimes = {ds.id: ds.mime for ds in obj.datastreams}

    spec = stub_resolver.resolve_servlet(STUB_URNS["mech-photoalbum"]).attachment_spec

    options = []  # (cardinality, matching) per structure; mismatch needs >=1 stream
    for card in (0, 1, 2):
        options.append((card, True))
        if card:
            options.append((card, False))

    cases = agreements = 0
    for s_opt in options:
        for t_opt in options:
            for i_opt in options:
                for undeclared in (False, True):
                    bindings = {}
                    for sid, (card, match) in zip(("structure", "thumbs", "images"),
                                                  (s_opt, t_opt, i_opt)):
                        bindings[sid] = pools[(sid, match)][:card]
                    if undeclared:
                        bindings["rogue"] = rogue[:1]
                    want = oracle_accepts(bindings, stream_mimes)
                    got = validate_attachments(spec, bindings, obj) == []
                    cases += 1
                    agreements += want == got
    assert cases == 250 and agreements == cases  # 100% agreement with the oracle table
    # missing key behaves like cardinality zero
    assert validate_attachments(spec, {"thumbs": pools[("thumbs", True)][:1],
                                       "images": pools[("images", True)][:1]}, obj) != []
    passed(4, f"{cases}-case binding matrix matches the hand-computed template oracle exactly")


# -- criterion 5: federation invariants under a randomized workload -------------------------


def unique_marc(k: int) -> bytes:
    return MARC_FIXTURE + f"650 $a Catalog entry {k}\n".encode()


def quiescent_checks(fed) -> None:
    repo_by_endpoint = {r.endpoint: r for r in fed.repos}
    dc = fed.types["type-dc"]
    for name in fed.naming.names():
        locations = fed.naming.resolve(name)
        digests = set()
        outputs = set()
        for location in locations:
            repo = repo_by_endpoint[location]
            assert repo.contains(name), f"{location} listed but does not serve {name}"
            digests.add(json.loads(repo.store.read_bytes(name))["digest"])
            if dc in repo.access(name).list_disseminator_types():
                outputs.add(repo.access(name).get_dissemination(dc, "getDCRecord", {}))
        assert len(digests) == 1, f"replica digests diverge for {name}"
        assert len(outputs) <= 1, f"location-dependent dissemination for {name}"
    for repo in fed.repos:
        for name in repo.names():
            assert repo.endpoint in fed.naming.resolve(name), (
                f"{repo.endpoint} serves unregistered {name}"
            )


class InjectedFault(Exception):
    pass


def test_c5_federation_invariants(tmp_path):
    fed = make_federation(tmp_path, n_repos=3)
    endpoints = [r.endpoint for r in fed.repos]
    repo_by_endpoint = {r.endpoint: r for r in fed.repos}
    rng = random.Random(20260809)
    live: list[str] = []
    applied = 0
    attempts = 0

    while applied < 200 or attempts < 240:
        attempts += 1
        op = rng.choice(["deposit", "replicate", "replicate", "move", "move", "delete"])
        if op == "deposit" or not live:
            name = build_marc_object(
                fed, repo_index=rng.randrange(3), acl=None, marc=unique_marc(attempts)
            )
            live.append(name)
            applied += 1
            continue
        name = rng.choice(live)
        locations = fed.naming.resolve(name)
        source = repo_by_endpoint[rng.choice(locations)]
        try:
            if op == "replicate":
                source.replicate(name, rng.choice([e for e in endpoints if e != source.endpoint]))
                applied += 1
            elif op == "move":
                source.move(name, rng.choice([e for e in endpoints if e != source.endpoint]))
                applied += 1
            else:
                source.delete(name)
                applied += 1
                try:
                    fed.naming.resolve(name)
                except ObjectRepositoryError:
                    live.remove(name)
        except AlreadyPresent:
            pass  # legal outcome when the target already holds a replica

    assert applied >= 200
    quiescent_checks(fed)

    # Single fault injection at every phase boundary of move: never lost.
    points = ["move:before-copy", "move:after-copy", "move:after-naming-add",
              "move:after-naming-remove"]
    for i, point in enumerate(points):
        name = build_marc_object(fed, repo_index=0, acl=None, marc=unique_marc(1000 + i))
        source, target = fed.repos[0], fed.repos[1]

        def crash(p, fail_at=point):
            if p == fail_at:
                raise InjectedFault(p)

        source.fault_hook = crash
        with pytest.raises(InjectedFault):
            source.move(name, target.endpoint)
        source.fault_hook = None
        locations = fed.naming.resolve(name)
        assert locations, f"{name} unresolvable after fault at {point}"
        servers = [repo_by_endpoint[e] for e in locations if repo_by_endpoint[e].contains(name)]
        assert servers, f"no listed location serves {name} after fault at {point}"
        mime, data = servers[0].access(name).get_dissemination(
            fed.types["type-dc"], "getDCRecord", {}
        )
        assert data.endswith(f"Subject: Catalog entry {1000 + i}\n".encode())

    passed(5, f"{applied} randomized lifecycle operations kept containment, replica and "
              "transparency invariants; move faults never lost an object")


# -- criterion 6: serialization round trip ---------------------------------------------------


def test_c6_round_trip_determinism(stub_resolver):
    rng = random.Random(424242)
    mimes = ["text/plain", "image/gif", "application/octet-stream", "application/x-dc-lines"]
    for k in range(100):
        obj = DigitalObjectKernel()
        gif_ids = []
        for _ in range(rng.randint(0, 8)):
            mime = rng.choice(mimes)
            ds = obj.create_datastream(mime, rng.randbytes(rng.randint(0, 2048)))
            if mime == "image/gif":
                gif_ids.append(ds)
        if gif_ids and rng.random() < 0.6:
            diss = obj.create_disseminator(
                DisseminatorKind.CONTENT, STUB_URNS["type-book"], STUB_URNS["mech-book-gif"],
                {"pages": gif_ids}, stub_resolver,
            )
            if rng.random() < 0.5:
                ds_acl = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
                obj.set_access_manager(diss, STUB_URNS["acl-v1"], {"acl": [ds_acl]}, stub_resolver)
        if rng.random() < 0.3:
            ds_acl = obj.create_datastream("application/x-fedora-acl+json", acl_bytes(default="allow"))
            obj.set_access_manager("PRIMITIVE", STUB_URNS["acl-v1"], {"acl": [ds_acl]}, stub_resolver)
        obj.name = f"urn:test:gen-{k}"

        blob = obj.serialize()
        assert blob == obj.serialize(), "double serialization must be byte-identical"
        twin = deserialize_object(blob)
        assert twin == obj, "structural identity after round trip"
        assert twin.serialize() == blob
    passed(6, "100 generated objects: serialize/deserialize identity, deterministic bytes")


# -- criterion 7: first-match semantics against a reference scan ------------------------------


def reference_decision(doc: dict, method: str, principal: str) -> tuple[str, str]:
    for i, e in enumerate(doc["entries"], start=1):
        if e["principal"] in (principal, "*") and (method in e["methods"] or "*" in e["methods"]):
            return e["effect"], e.get("reason") or f"entry-{i}"
    return doc["default"], "default"


def test_c7_acl_model_agreement(tmp_path):
    rng = random.Random(7777)
    principals = ["alice", "bob", "carol", "mallory"]
    methods = ["getDCField", "getDCRecord", "getPage", "getPageCount"]
    trials = 0
    for _ in range(1100):
        doc = {
            "default": rng.choice(["allow", "deny"]),
            "entries": [
                {
                    "principal": rng.choice(principals + ["*"]),
                    "methods": rng.sample(methods + ["*"], rng.randint(1, 3)),
                    "effect": rng.choice(["allow", "deny"]),
                    "transforms": [],
                }
                for _ in range(rng.randint(0, 6))
            ],
        }
        acl = access.parse_acl(json.dumps(doc).encode())
        method = rng.choice(methods)
        principal = rng.choice(principals)
        got = access.evaluate_acl(acl, method, principal)
        assert (got.effect, got.reason) == reference_decision(doc, method, principal)
        trials += 1
    assert trials >= 1000

    # Deny paths run zero pipeline steps.
    fed = make_federation(tmp_path)
    name = build_marc_object(fed, acl=acl_bytes())  # default deny, no entries
    before = typesys.execution_count()
    for _ in range(5):
        with pytest.raises(AccessDenied):
            fed.repos[0].access(name).get_dissemination(
                fed.types["type-dc"], "getDCRecord", {}, "mallory"
            )
    assert typesys.execution_count() == before
    passed(7, f"{trials} generated decisions match the sequential-scan oracle; denials "
              "executed zero pipeline steps")


# -- criterion 8: wire faithfulness differential harness ---------------------------------------


class Env:
    def __init__(self, kind, types, naming, repos, clients, endpoints):
        self.kind = kind
        self.types = types
        self.naming = naming
        self.repos = repos
        self.clients = clients
        self.endpoints = endpoints

    def normalize(self, value):
        if isinstance(value, str):
            for i, endpoint in enumerate(self.endpoints):
                value = value.replace(endpoint, f"R{i}")
            for label, urn in self.types.items():
                value = value.replace(urn, f"@{label}")
            return value
        if isinstance(value, dict):
            return {self.normalize(k): self.normalize(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [self.normalize(v) for v in value]
        return value


def in_process_env(tmp_path) -> Env:
    fed = make_federation(tmp_path, n_repos=2)
    clients = [fed.client(0), fed.client(1)]
    return Env("in-process", fed.types, fed.naming, fed.repos, clients,
               [r.endpoint for r in fed.repos])


def wire_env(tmp_path):
    fed = make_wire_federation(tmp_path, n_repos=2)
    env = Env("wire", fed.types, fed.naming_client, fed.repos, fed.clients,
              [s.endpoint for s in fed.servers])
    return env, fed


def marc_name(env: Env, acl=ACL_ALICE_ALL) -> str:
    client = env.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    diss = client.add_disseminator(
        handle, env.types["type-dc"], env.types["mech-marc2dc"], {"marc": [ds]}
    )
    if acl is not None:
        ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", acl)
        client.set_access_manager_staged(handle, diss, env.types["acl-v1"], {"acl": [ds_acl]})
    return client.deposit(handle)


def s_empty_object(env):
    client = env.clients[0]
    name = client.deposit(client.create_object())
    return client.get_datastreams(name), client.get_disseminators(name), client.list_types(name)


def s_stream_round_trip(env):
    client = env.clients[0]
    handle = client.create_object()
    payload = bytes(range(256))
    ds = client.add_datastream(handle, "application/octet-stream", payload)
    name = client.deposit(handle)
    return client.get_datastreams(name), client.get_datastream_content(name, ds)


def s_bad_mime(env):
    client = env.clients[0]
    client.add_datastream(client.create_object(), "not a mime", b"x")


def s_missing_stream(env):
    client = env.clients[0]
    client.get_datastream_content(client.deposit(client.create_object()), "DS4")


def s_disseminators_and_methods(env):
    client = env.clients[0]
    name = marc_name(env, acl=None)
    return (
        client.get_disseminators(name),
        client.list_types(name),
        client.list_methods(name, env.types["type-dc"]),
        alias_methods(env, name, env.types["type-dc"]),
    )


def alias_methods(env, name: str, type_urn: str):
    """The parsed body of GET /get-disseminator-methods; the in-process
    side, which has no routes, answers with what /methods carries."""
    if env.kind == "in-process":
        return {"methods": env.clients[0].list_methods(name, type_urn)}
    query = urllib.parse.urlencode({"type": type_urn})
    return probe(env.endpoints[0], "GET",
                 f"/objects/{quote(name)}/get-disseminator-methods?{query}")[1]


def s_attachment_violation(env):
    client = env.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "text/plain", b"wrong mime for marc slot")
    client.add_disseminator(handle, env.types["type-dc"], env.types["mech-marc2dc"],
                            {"marc": [ds]})


def s_signature_mismatch(env):
    client = env.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    client.add_disseminator(handle, env.types["type-dc"], env.types["mech-book-gif"],
                            {"marc": [ds]})


def s_unresolvable(env):
    client = env.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    client.add_disseminator(handle, "urn:test:ghost", "urn:test:ghost-mech", {"marc": [ds]})


def s_duplicate_builtin(env):
    client = env.clients[0]
    handle = client.create_object()
    doc = canonical_bytes({"type_name": "T", "methods": [
        {"name": "m", "params": [], "returns_mime": "text/plain"}]})
    ds = client.add_datastream(handle, "application/x-fedora-signature+json", doc)
    client.add_disseminator(handle, "urn:fedora-builtin:signature", bindings={"signature": [ds]})
    client.add_disseminator(handle, "urn:fedora-builtin:signature", bindings={"signature": [ds]})


def s_no_such_handle(env):
    env.clients[0].deposit("0123456789abcdef")


def s_dissemination_paths(env):
    client = env.clients[0]
    name = marc_name(env)
    ok = client.get_dissemination(name, env.types["type-dc"], "getDCField",
                                  {"field": "Creator"}, principal="alice")
    record = client.get_dissemination(name, env.types["type-dc"], "getDCRecord", {},
                                      principal="alice")
    return ok, record


def s_access_denied(env):
    name = marc_name(env)
    env.clients[0].get_dissemination(name, env.types["type-dc"], "getDCRecord", {},
                                     principal="mallory")


def s_no_such_type(env):
    name = marc_name(env, acl=None)
    env.clients[0].get_dissemination(name, env.types["type-book"], "getPage", {"n": "1"})


def s_no_such_method(env):
    name = marc_name(env, acl=None)
    env.clients[0].get_dissemination(name, env.types["type-dc"], "nextRecord", {})


def s_bad_arguments(env):
    name = marc_name(env, acl=None)
    env.clients[0].get_dissemination(name, env.types["type-dc"], "getDCField", {})


def s_servlet_error(env):
    name = marc_name(env, acl=None)
    env.clients[0].get_dissemination(name, env.types["type-dc"], "getDCField",
                                     {"field": "Rights"})


def s_access_manager_lifecycle(env):
    client = env.clients[0]
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", ACL_ALICE_ALL)
    diss = client.add_disseminator(handle, env.types["type-dc"], env.types["mech-marc2dc"],
                                   {"marc": [ds]})
    name = client.deposit(handle)
    empty = client.get_access_manager(name, diss)
    am = client.set_access_manager(name, diss, env.types["acl-v1"], {"acl": [ds_acl]})
    return empty, am, client.get_access_manager(name, diss)


def s_am_violation(env):
    client = env.clients[0]
    handle = client.create_object()
    client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    client.set_access_manager_staged(handle, "PRIMITIVE", env.types["acl-v1"], {"acl": ["DS9"]})


def s_delete_lifecycle(env):
    client = env.clients[0]
    name = marc_name(env, acl=None)
    client.delete(name)
    try:
        client.get_datastreams(name)
    except ObjectRepositoryError as exc:
        first = exc.code
    try:
        env.naming.resolve(name)
    except ObjectRepositoryError as exc:
        return first, exc.code
    return first, "resolved"


def s_delete_unknown(env):
    env.clients[0].delete("urn:test:never-was")


def s_replicate_and_move(env):
    client0, client1 = env.clients
    name = marc_name(env, acl=None)
    client0.replicate(name, env.endpoints[1])
    locations_after_replicate = env.naming.resolve(name)
    both = (
        client0.get_dissemination(name, env.types["type-dc"], "getDCRecord", {}),
        client1.get_dissemination(name, env.types["type-dc"], "getDCRecord", {}),
    )
    client0.delete(name)
    client1.move(name, env.endpoints[0])
    locations_after_move = env.naming.resolve(name)
    try:
        client1.get_datastreams(name)
    except ObjectRepositoryError as exc:
        gone = exc.code
    return locations_after_replicate, both, locations_after_move, gone


def s_replicate_to_self(env):
    name = marc_name(env, acl=None)
    env.clients[0].replicate(name, env.endpoints[0])


def s_replicate_unreachable(env):
    name = marc_name(env, acl=None)
    env.clients[0].replicate(name, "127.0.0.1:9")


def s_receive_manifest(env):
    name = marc_name(env, acl=None)
    manifest = env.repos[0].store.read_bytes(name)
    env.clients[0].delete(name)
    received = env.clients[1].receive_manifest(manifest)
    return received == name, env.clients[1].get_datastreams(name)


def s_receive_manifest_bad_digest(env):
    name = marc_name(env, acl=None)
    manifest = bytearray(env.repos[0].store.read_bytes(name))
    at = manifest.index(b'"content_b64":"') + len(b'"content_b64":"')
    manifest[at] = ord("B") if manifest[at:at + 1] == b"A" else ord("A")
    env.clients[1].receive_manifest(bytes(manifest))


def s_receive_manifest_duplicate(env):
    name = marc_name(env, acl=None)
    manifest = env.repos[0].store.read_bytes(name)
    env.clients[0].receive_manifest(manifest)


def s_naming_lifecycle(env):
    env.naming.register("urn:test:diff-name", "a.local:81")
    env.naming.add_location("urn:test:diff-name", "b.local:82")
    env.naming.add_location("urn:test:diff-name", "b.local:82")
    first = env.naming.resolve("urn:test:diff-name")
    env.naming.remove_location("urn:test:diff-name", "a.local:81")
    second = env.naming.resolve("urn:test:diff-name")
    env.naming.remove_location("urn:test:diff-name", "b.local:82")
    try:
        env.naming.resolve("urn:test:diff-name")
    except ObjectRepositoryError as exc:
        return first, second, exc.code
    return first, second, "resolved"


def s_naming_conflicts(env):
    env.naming.register("urn:test:diff-dup", "a.local:81")
    try:
        env.naming.register("urn:test:diff-dup", "a.local:81")
    except ObjectRepositoryError as exc:
        first = exc.code
    try:
        env.naming.remove_location("urn:test:diff-dup", "c.local:83")
    except ObjectRepositoryError as exc:
        return first, exc.code
    return first, "removed"


def s_naming_not_registered(env):
    env.naming.resolve("urn:test:diff-void")


SCENARIOS = [
    ("empty object listings", s_empty_object),
    ("datastream round trip", s_stream_round_trip),
    ("malformed mime", s_bad_mime),
    ("missing datastream", s_missing_stream),
    ("descriptors and method listing", s_disseminators_and_methods),
    ("attachment violation", s_attachment_violation),
    ("signature mismatch", s_signature_mismatch),
    ("unresolvable type", s_unresolvable),
    ("duplicate builtin", s_duplicate_builtin),
    ("no such handle", s_no_such_handle),
    ("dissemination results", s_dissemination_paths),
    ("access denied", s_access_denied),
    ("no such type on object", s_no_such_type),
    ("no such method", s_no_such_method),
    ("bad arguments", s_bad_arguments),
    ("servlet error", s_servlet_error),
    ("access manager lifecycle", s_access_manager_lifecycle),
    ("access manager violation", s_am_violation),
    ("delete lifecycle", s_delete_lifecycle),
    ("delete unknown", s_delete_unknown),
    ("replicate and move", s_replicate_and_move),
    ("replicate to self", s_replicate_to_self),
    ("replicate unreachable", s_replicate_unreachable),
    ("receive manifest", s_receive_manifest),
    ("receive manifest bad digest", s_receive_manifest_bad_digest),
    ("receive manifest duplicate", s_receive_manifest_duplicate),
    ("naming lifecycle", s_naming_lifecycle),
    ("naming conflicts", s_naming_conflicts),
    ("naming not registered", s_naming_not_registered),
]


def run_scenario(fn, env: Env):
    try:
        return ("ok", env.normalize(fn(env)))
    except ObjectRepositoryError as exc:
        return ("error", exc.code)


def test_c8_wire_faithfulness(tmp_path):
    local = in_process_env(tmp_path / "local")
    remote, wire_fed = wire_env(tmp_path / "wire")
    try:
        mismatches = []
        for name, fn in SCENARIOS:
            local_outcome = run_scenario(fn, local)
            wire_outcome = run_scenario(fn, remote)
            if local_outcome != wire_outcome:
                mismatches.append((name, local_outcome, wire_outcome))
        assert not mismatches, f"differential disagreements: {mismatches}"
    finally:
        wire_fed.stop()
    passed(8, f"{len(SCENARIOS)} differential scenarios agree byte-for-byte and code-for-code")
