"""ACL parsing, first-match evaluation, transforms, and enforcement."""

from __future__ import annotations

import json
import random

import pytest

from conftest import ACL_ALICE_ALL, STUB_URNS, acl_bytes
from objrepo import access, typesys
from objrepo.errors import AccessDenied, MalformedAcl, SchemeError, UnresolvableType
from objrepo.kernel import AccessManager, DigitalObjectKernel


def entry(principal="alice", methods=("*",), effect="allow", transforms=(), reason=None):
    e = {"principal": principal, "methods": list(methods), "effect": effect,
         "transforms": list(transforms)}
    if reason:
        e["reason"] = reason
    return e


# -- parseAcl ------------------------------------------------------------------


def test_parse_acl_basic():
    acl = access.parse_acl(ACL_ALICE_ALL)
    assert acl.default == "deny"
    assert acl.entries[0].principal == "alice"
    assert acl.entries[0].methods == ("*",)


def test_parse_acl_open_policy():
    acl = access.parse_acl(acl_bytes(default="allow"))
    assert acl.default == "allow" and acl.entries == []


@pytest.mark.parametrize(
    "doc",
    [
        {"default": "deny", "entries": [entry(methods=())]},
        {"default": "deny", "entries": [entry(principal="")]},
        {"default": "sometimes", "entries": []},
        {"default": "deny", "entries": [entry(effect="deny", transforms=[{"op": "stamp", "text": "x"}])]},
        {"default": "deny", "entries": [entry(transforms=[{"op": "blur", "text": "x"}])]},
        {"default": "deny", "entries": [entry(transforms=[{"op": "stamp", "text": ""}])]},
        {"default": "deny"},
        {"default": "deny", "entries": [dict(entry(), surprise=1)]},
    ],
)
def test_parse_acl_rejections(doc):
    with pytest.raises(MalformedAcl):
        access.parse_acl(json.dumps(doc).encode())


def test_parse_acl_not_json():
    with pytest.raises(MalformedAcl):
        access.parse_acl(b"{nope")


# -- first-match evaluation -------------------------------------------------------


def test_first_match_allow():
    acl = access.parse_acl(acl_bytes(entries=[entry(methods=["getDCField"])]))
    decision = access.evaluate_acl(acl, "getDCField", "alice")
    assert decision.effect == "allow"


def test_default_deny_reason():
    acl = access.parse_acl(acl_bytes(entries=[entry(methods=["getDCField"])]))
    decision = access.evaluate_acl(acl, "getDCField", "mallory")
    assert (decision.effect, decision.reason) == ("deny", "default")


def test_first_match_wins_over_later_entries():
    acl = access.parse_acl(
        acl_bytes(entries=[entry(effect="deny"), entry(effect="allow")])
    )
    assert access.evaluate_acl(acl, "anything", "alice").effect == "deny"


def test_method_list_and_wildcards():
    acl = access.parse_acl(
        acl_bytes(
            entries=[
                entry(principal="*", methods=["getPage"], effect="deny", reason="payment-required"),
                entry(principal="*", methods=["*"], effect="allow"),
            ]
        )
    )
    denied = access.evaluate_acl(acl, "getPage", "whoever")
    assert (denied.effect, denied.reason) == ("deny", "payment-required")
    assert access.evaluate_acl(acl, "getTableOfContents", "whoever").effect == "allow"


def test_decision_is_pure_function_of_inputs():
    rng = random.Random(5)
    entries = [
        entry(principal=rng.choice(["a", "b", "*"]), methods=[rng.choice(["m1", "m2", "*"])],
              effect=rng.choice(["allow", "deny"]))
        for _ in range(6)
    ]
    acl = access.parse_acl(acl_bytes(entries=entries))
    first = access.evaluate_acl(acl, "m1", "a")
    # Permuting entries after the first match never changes the outcome.
    matched = next(
        i for i, e in enumerate(acl.entries)
        if e.principal in ("a", "*") and ("m1" in e.methods or "*" in e.methods)
    )
    tail = entries[matched + 1:]
    rng.shuffle(tail)
    permuted = access.parse_acl(acl_bytes(entries=entries[: matched + 1] + tail))
    assert access.evaluate_acl(permuted, "m1", "a") == first


# -- transforms ----------------------------------------------------------------------


def stamp(text):
    return access.OutputTransform(access.STAMP, text)


def test_apply_transforms_stamp():
    decision = access.AccessDecision("allow", "entry-1", (stamp("archive"),))
    mime, data = access.apply_transforms(decision, "text/plain", b"Dickinson, Emily")
    assert (mime, data) == ("text/plain", b"Dickinson, Emily\n--stamp:archive")


def test_apply_transforms_identity_and_order():
    decision = access.AccessDecision("allow", "entry-1", ())
    assert access.apply_transforms(decision, "image/gif", b"\x00\x01") == ("image/gif", b"\x00\x01")
    decision = access.AccessDecision("allow", "entry-1", (stamp("a"), stamp("b")))
    assert access.apply_transforms(decision, "text/plain", b"x")[1] == b"x\n--stamp:a\n--stamp:b"


# -- enforce ---------------------------------------------------------------------------


def am_for(obj, acl_doc: bytes) -> AccessManager:
    ds = obj.create_datastream("application/x-fedora-acl+json", acl_doc)
    return AccessManager(STUB_URNS["acl-v1"], {"acl": [ds]})


def test_enforce_without_manager_is_identity(stub_resolver):
    calls = []

    def invoke():
        calls.append(1)
        return "text/plain", b"raw"

    assert access.enforce(None, stub_resolver, None, "m", "anyone", invoke) == ("text/plain", b"raw")
    assert calls == [1]


def test_enforce_deny_never_invokes(stub_resolver):
    obj = DigitalObjectKernel()
    am = am_for(obj, acl_bytes())  # default deny, no entries
    before = typesys.execution_count()
    calls = []
    with pytest.raises(AccessDenied):
        access.enforce(am, stub_resolver, obj, "m", "mallory", lambda: calls.append(1))
    assert calls == [] and typesys.execution_count() == before


def test_enforce_allow_with_stamp(stub_resolver):
    obj = DigitalObjectKernel()
    am = am_for(
        obj,
        acl_bytes(entries=[entry(transforms=[{"op": "stamp", "text": "library"}])]),
    )
    mime, data = access.enforce(
        am, stub_resolver, obj, "m", "alice", lambda: ("text/plain", b"payload")
    )
    assert data == b"payload\n--stamp:library"


def test_enforce_propagates_scheme_failures(stub_resolver):
    obj = DigitalObjectKernel()
    am = am_for(obj, ACL_ALICE_ALL)
    unknown = AccessManager("urn:test:nowhere", am.bindings)
    with pytest.raises(UnresolvableType):
        access.enforce(unknown, stub_resolver, obj, "m", "alice", lambda: ("t/p", b""))


def test_unknown_builtin_scheme(stub_resolver):
    doc = {
        "builtin": "acl-v2",
        "implements": "urn:fedora-builtin:access-servlet",
        "attachment_spec": [{"id": "acl", "mime": "*", "ordinality": "1:1"}],
    }
    stub_resolver.schemes["urn:test:acl-2"] = typesys.parse_servlet_program(
        json.dumps(doc).encode()
    )
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    am = AccessManager("urn:test:acl-2", {"acl": [ds]})
    with pytest.raises(SchemeError):
        access.evaluate(am, stub_resolver, obj, "m", "alice")


def test_pipeline_program_is_not_a_scheme(stub_resolver):
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-fedora-acl+json", ACL_ALICE_ALL)
    stub_resolver.schemes["urn:test:fake-scheme"] = stub_resolver.servlets[
        STUB_URNS["mech-dc-pass"]
    ]
    am = AccessManager("urn:test:fake-scheme", {"acl": [ds]})
    with pytest.raises(SchemeError):
        access.evaluate(am, stub_resolver, obj, "m", "alice")


def test_malformed_acl_surfaces(stub_resolver):
    obj = DigitalObjectKernel()
    ds = obj.create_datastream("application/x-fedora-acl+json", b"{broken")
    am = AccessManager(STUB_URNS["acl-v1"], {"acl": [ds]})
    with pytest.raises(MalformedAcl):
        access.evaluate(am, stub_resolver, obj, "m", "alice")


# -- model check against a reference scan (small; the acceptance suite runs 1000+) --


def reference_decision(doc: dict, method: str, principal: str) -> tuple[str, str]:
    """Sequential scan written against the raw JSON, independent of access.py."""
    for i, e in enumerate(doc["entries"], start=1):
        if e["principal"] in (principal, "*") and (
            method in e["methods"] or "*" in e["methods"]
        ):
            return e["effect"], e.get("reason") or f"entry-{i}"
    return doc["default"], "default"


def test_evaluate_matches_reference_model():
    rng = random.Random(41)
    principals = ["alice", "bob", "mallory", "*"]
    methods = ["getDCField", "getDCRecord", "getPage", "*"]
    for _ in range(150):
        doc = {
            "default": rng.choice(["allow", "deny"]),
            "entries": [
                entry(
                    principal=rng.choice(principals),
                    methods=rng.sample(methods, rng.randint(1, 3)),
                    effect=rng.choice(["allow", "deny"]),
                )
                for _ in range(rng.randint(0, 5))
            ],
        }
        acl = access.parse_acl(json.dumps(doc).encode())
        method = rng.choice(methods[:-1])
        principal = rng.choice(principals[:-1])
        got = access.evaluate_acl(acl, method, principal)
        assert (got.effect, got.reason) == reference_decision(doc, method, principal)
