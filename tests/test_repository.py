"""Repository lifecycle, replication/migration, persistence, enforcement."""

from __future__ import annotations

import errno
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import (
    ACL_ALICE_ALL,
    MARC_FIXTURE,
    acl_bytes,
    build_book_object,
    build_marc_object,
    make_federation,
)
from objrepo.canonical import canonical_bytes, sha256_hex
from objrepo.errors import (
    AccessDenied,
    AlreadyPresent,
    BadArguments,
    MalformedManifest,
    NamingUnavailable,
    NoSuchHandle,
    NoSuchObject,
    NotRegistered,
    TargetUnreachable,
)
from objrepo.kernel import BLOB_MIN_BYTES, PRIMITIVE_TARGET, DigitalObjectKernel, deserialize_object
from objrepo.naming import NamingService, load_naming_config
from objrepo.repository import Repository, RepositoryConfig, load_repository_config


class InjectedFault(Exception):
    """Stands in for a crash at a phase boundary; repositories never catch it."""


def manifest_digest(repo: Repository, name: str) -> str:
    return json.loads(repo.store.read_bytes(name))["digest"]


# -- create / deposit / access ---------------------------------------------------


def test_create_yields_empty_wrapper(federation):
    repo = federation.repos[0]
    handle = repo.create_object()
    assert repo.run(handle, "get_datastreams", staged=True) == []
    other = repo.create_object()
    assert handle != other


def test_content_disseminator_without_servlet_is_bad_arguments(federation):
    client = federation.client()
    handle = client.create_object()
    ds = client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    with pytest.raises(BadArguments):
        client.add_disseminator(handle, federation.types["type-dc"], bindings={"marc": [ds]})


def test_staged_objects_are_not_accessible_by_name(federation):
    repo = federation.repos[0]
    names = repo.names()
    handle = repo.create_object()
    assert repo.names() == names
    with pytest.raises(BadArguments):
        federation.client().get_datastreams(handle)  # a handle is no name
    for name in federation.naming.names():
        if repo.contains(name):
            assert federation.client().get_datastreams(name)  # only deposited objects resolve


def test_deposit_registers_sole_location(federation):
    name = build_marc_object(federation)
    assert name.startswith("urn:test:")
    assert federation.naming.resolve(name) == [federation.repos[0].endpoint]
    assert federation.client().get_datastreams(name)


def test_deposit_consumes_handle(federation):
    repo = federation.repos[0]
    handle = repo.create_object()
    repo.deposit(handle)
    with pytest.raises(NoSuchHandle):
        repo.deposit(handle)
    with pytest.raises(NoSuchHandle):
        repo.run(handle, "get_datastreams", staged=True)


def test_deposit_aborts_atomically_when_naming_down(federation):
    repo = federation.repos[0]
    handle = repo.create_object()
    federation.client().add_datastream(handle, "text/plain", b"payload")
    names = repo.names()
    federation.naming.down = True
    with pytest.raises(NamingUnavailable):
        repo.deposit(handle)
    assert repo.run(handle, "get_datastreams", staged=True)  # still staged ...
    assert repo.names() == names  # ... and unnamed
    federation.naming.down = False
    name = repo.deposit(handle)
    assert federation.naming.resolve(name) == [repo.endpoint]


def test_deposit_rolls_back_registration_when_persist_fails(federation, monkeypatch):
    repo = federation.repos[0]
    handle = repo.create_object()

    def explode(obj):
        raise OSError("disk full")

    monkeypatch.setattr(repo.store, "save", explode)
    with pytest.raises(OSError):
        repo.deposit(handle)
    monkeypatch.undo()
    name = repo.deposit(handle)  # still staged; the retry mints a fresh name
    assert federation.naming.resolve(name) == [repo.endpoint]
    # no dangling registration from the failed attempt
    for registered in federation.naming.names():
        assert repo.contains(registered) or registered in federation.types.values()


def test_access_errors(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed, repo_index=0)
    with pytest.raises(NoSuchObject):
        fed.client(1).get_datastreams(name)  # wrong repository
    fed.repos[0].delete(name)
    with pytest.raises(NoSuchObject):
        fed.client(0).get_datastreams(name)


# -- delete -----------------------------------------------------------------------


def test_delete_sole_copy_unregisters(federation):
    name = build_marc_object(federation)
    federation.repos[0].delete(name)
    with pytest.raises(NotRegistered):
        federation.naming.resolve(name)


def test_delete_one_replica_keeps_survivor(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    fed.repos[0].replicate(name, fed.repos[1].endpoint)
    fed.repos[0].delete(name)
    assert fed.naming.resolve(name) == [fed.repos[1].endpoint]
    assert fed.client(1).get_datastreams(name)


def test_delete_unknown_and_naming_down(federation):
    repo = federation.repos[0]
    with pytest.raises(NoSuchObject):
        repo.delete("urn:test:who")
    name = build_marc_object(federation)
    federation.naming.down = True
    with pytest.raises(NamingUnavailable):
        repo.delete(name)
    federation.naming.down = False
    assert federation.client().get_datastreams(name)  # intact


# -- replicate ----------------------------------------------------------------------


def test_replicate_equal_digests_and_locations(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    fed.repos[0].replicate(name, fed.repos[1].endpoint)
    assert manifest_digest(fed.repos[0], name) == manifest_digest(fed.repos[1], name)
    assert fed.naming.resolve(name) == [fed.repos[0].endpoint, fed.repos[1].endpoint]


def test_replicate_to_self_is_already_present(federation):
    name = build_marc_object(federation)
    with pytest.raises(AlreadyPresent):
        federation.repos[0].replicate(name, federation.repos[0].endpoint)


def test_replicate_twice_is_already_present(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    fed.repos[0].replicate(name, fed.repos[1].endpoint)
    with pytest.raises(AlreadyPresent):
        fed.repos[0].replicate(name, fed.repos[1].endpoint)


def test_replicate_unreachable_target(federation):
    name = build_marc_object(federation)
    with pytest.raises(TargetUnreachable):
        federation.repos[0].replicate(name, "nobody.local:81")


def test_replicate_keeps_replica_when_naming_fails(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)

    def drop_naming(point):
        if point == "replicate:after-transfer":
            fed.naming.down = True

    fed.repos[0].fault_hook = drop_naming
    with pytest.raises(NamingUnavailable):
        fed.repos[0].replicate(name, fed.repos[1].endpoint)
    fed.naming.down = False
    fed.repos[0].fault_hook = None
    assert fed.repos[1].contains(name)  # replica kept for the caller to retry naming
    fed.naming.add_location(name, fed.repos[1].endpoint)
    assert fed.naming.resolve(name) == [fed.repos[0].endpoint, fed.repos[1].endpoint]


def test_replicated_dissemination_is_byte_identical(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    fed.repos[0].replicate(name, fed.repos[1].endpoint)
    args = {"field": "Creator"}
    got0 = fed.client(0).get_dissemination(name, fed.types["type-dc"], "getDCField", args, "alice")
    got1 = fed.client(1).get_dissemination(name, fed.types["type-dc"], "getDCField", args, "alice")
    assert got0 == got1


# -- move -------------------------------------------------------------------------------


def test_move_happy_path(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    fed.repos[0].move(name, fed.repos[1].endpoint)
    assert fed.naming.resolve(name) == [fed.repos[1].endpoint]
    with pytest.raises(NoSuchObject):
        fed.client(0).get_datastreams(name)
    assert fed.client(1).get_datastreams(name)


def test_move_unknown_name(federation):
    with pytest.raises(NoSuchObject):
        federation.repos[0].move("urn:test:who", "other.local:80")


@pytest.mark.parametrize(
    "point",
    ["move:before-copy", "move:after-copy", "move:after-naming-add", "move:after-naming-remove"],
)
def test_move_fault_injection_never_loses_the_object(tmp_path, point):
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    source, target = fed.repos

    def crash(p):
        if p == point:
            raise InjectedFault(p)

    source.fault_hook = crash
    with pytest.raises(InjectedFault):
        source.move(name, target.endpoint)
    source.fault_hook = None

    locations = fed.naming.resolve(name)  # still resolvable ...
    assert locations
    serving = [i for i, r in enumerate(fed.repos) if r.endpoint in locations and r.contains(name)]
    assert serving, f"no listed location serves {name} after fault at {point}"
    # ... and a listed copy still disseminates.
    mime, data = fed.client(serving[0]).get_dissemination(
        name, fed.types["type-dc"], "getDCField", {"field": "Creator"}, "alice"
    )
    assert data == b"Melville, Herman"


# -- persistence / loadStore --------------------------------------------------------------


def restart_repo(fed, index: int) -> Repository:
    old = fed.repos[index]
    reborn = Repository(old.config, fed.naming, fed.registry.client)
    fed.repos[index] = reborn
    fed.registry.register(reborn)
    return reborn


def test_restart_preserves_objects(tmp_path):
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    restart_repo(fed, 0)
    mime, data = fed.client(0).get_dissemination(
        name, fed.types["type-dc"], "getDCField", {"field": "Title"}, "alice"
    )
    assert data == b"Moby-Dick; or, The Whale"


def large(text: bytes) -> bytes:
    """A stream body stored apart from its object's record, as a blob."""
    return text.ljust(BLOB_MIN_BYTES, b".")


def flip_byte(path: Path, at: int = 0) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def blob_of(repo: Repository, name: str, ds_id: str) -> Path:
    sha256 = next(ds.sha256 for ds in repo._version(name).datastreams if ds.id == ds_id)
    return repo.store.blob_path(sha256)


def quarantined(repo: Repository) -> list[str]:
    """What the quarantine holds, each file by the name it was filed under."""
    return sorted(q.name.rsplit(".", 1)[0] for q in repo.store.quarantine_dir.iterdir())


def test_corrupt_manifest_is_quarantined_others_served(tmp_path):
    fed = make_federation(tmp_path)
    good = build_marc_object(fed)
    bad = build_marc_object(fed)
    repo = fed.repos[0]
    ds = repo.run(bad, "create_datastream", "text/plain", large(b"only the bad object holds this"))
    blob = blob_of(repo, bad, ds)
    flip_byte(blob)

    reborn = restart_repo(fed, 0)
    assert reborn.contains(good)
    assert not reborn.contains(bad)
    assert quarantined(reborn) == sorted([repo.store.path_for(bad).name, blob.name])
    assert reborn.run(good, "get_datastream_content", "DS1")[1] == MARC_FIXTURE


def test_renamed_manifest_file_is_quarantined(tmp_path):
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    repo = fed.repos[0]
    repo.store.path_for(name).rename(repo.store.objects_dir / "urn%3Atest%3Aimposter.json")
    reborn = restart_repo(fed, 0)
    assert not reborn.contains(name)
    assert len(list(reborn.store.quarantine_dir.iterdir())) == 1


def test_a_flipped_byte_in_a_shared_blob_quarantines_every_object_naming_it(tmp_path):
    fed = make_federation(tmp_path)
    repo = fed.repos[0]
    sharing = [build_marc_object(fed) for _ in range(2)]
    for name in sharing:
        repo.run(name, "create_datastream", "text/plain", large(b"held by two objects"))
        repo.run(name, "create_datastream", "text/plain", large(name.encode()))
    other = build_marc_object(fed)
    repo.run(other, "create_datastream", "text/plain", large(b"held by another"))
    blob = blob_of(repo, sharing[0], "DS3")
    assert blob == blob_of(repo, sharing[1], "DS3")  # stored once
    flip_byte(blob, at=5)

    reborn = restart_repo(fed, 0)
    assert not any(reborn.contains(name) for name in sharing)
    # the corrupt blob, with the records and the other blobs only those records name
    assert quarantined(reborn) == sorted([blob.name] + [
        f(n).name for n in sharing for f in (repo.store.path_for, lambda n: blob_of(repo, n, "DS4"))
    ])
    mime, data = fed.client(0).get_dissemination(
        other, fed.types["type-dc"], "getDCField", {"field": "Title"}, "alice"
    )
    assert data == b"Moby-Dick; or, The Whale"


def test_a_corrupt_record_is_quarantined(tmp_path):
    fed = make_federation(tmp_path)
    good, bad = build_marc_object(fed), build_marc_object(fed)
    repo = fed.repos[0]
    path = repo.store.path_for(bad)
    flip_byte(path, at=path.read_bytes().index(b"x-marc-lines"))
    reborn = restart_repo(fed, 0)
    assert reborn.contains(good) and not reborn.contains(bad)
    assert quarantined(reborn) == [path.name]
    assert reborn.store.read_bytes(good) == repo.store.read_bytes(good)


def test_a_record_that_is_not_its_objects_encoding_is_quarantined_with_its_blob(tmp_path):
    fed = make_federation(tmp_path)
    good, bad = build_marc_object(fed), build_marc_object(fed)
    repo = fed.repos[0]
    ds = repo.run(bad, "create_datastream", "text/plain", large(b"only the bad record names this"))
    blob = blob_of(repo, bad, ds)
    path = repo.store.path_for(bad)
    # the same document, so its digest still verifies, in other bytes
    path.write_bytes(json.dumps(json.loads(path.read_bytes()), indent=1).encode())
    reborn = restart_repo(fed, 0)
    assert reborn.contains(good) and not reborn.contains(bad)
    assert quarantined(reborn) == sorted([path.name, blob.name])
    assert reborn.run(good, "get_datastream_content", "DS1")[1] == MARC_FIXTURE


def stored_blobs(repo: Repository) -> set[str]:
    return {p.name for p in repo.store.blobs_dir.iterdir()}


def test_blobs_no_record_names_are_removed_while_serving(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)
    src, dst = fed.repos
    kept = build_marc_object(fed)
    name = build_marc_object(fed)
    for obj in (kept, name):
        src.run(obj, "create_datastream", "text/plain", large(b"held by both"))
    ds = src.run(name, "create_datastream", "text/plain", large(b"this object's own bytes"))
    own = blob_of(src, name, ds).name
    shared = stored_blobs(src) - {own}

    src.replicate(name, dst.endpoint)
    src.delete(name)
    assert stored_blobs(src) == shared  # the blob shared with `kept` stays
    assert own in stored_blobs(dst)
    dst.move(name, src.endpoint)
    assert own in stored_blobs(src)
    assert stored_blobs(dst) == set()
    assert src.store.read_bytes(kept) and src.store.read_bytes(name)


def test_a_blob_that_cannot_be_removed_does_not_fail_the_write(tmp_path, monkeypatch):
    fed = make_federation(tmp_path)
    repo = fed.repos[0]
    name = build_marc_object(fed)
    ds = repo.run(name, "create_datastream", "text/plain", large(b"stuck"))
    blob = blob_of(repo, name, ds)
    unlink = Path.unlink

    def refuse_blobs(path, missing_ok=False):
        if path.parent == repo.store.blobs_dir:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", refuse_blobs)
    repo.delete(name)
    assert not repo.contains(name) and blob.exists()
    monkeypatch.undo()
    reborn = restart_repo(fed, 0)
    assert not blob.exists() and quarantined(reborn) == []


def test_orphan_blobs_and_temp_files_are_swept_at_load(tmp_path):
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    store = fed.repos[0].store
    held = stored_blobs(fed.repos[0])
    crash_leftovers = [
        store.blob_path(sha256_hex(b"orphan")),
        store.blobs_dir / f"{sha256_hex(b'half')}.0123abcd.tmp",
        store.objects_dir / "urn%3Atest%3Ahalf.json.0123abcd.tmp",
    ]
    for path in crash_leftovers:
        path.write_bytes(b"orphan")
    reborn = restart_repo(fed, 0)
    assert not any(path.exists() for path in crash_leftovers)
    assert stored_blobs(reborn) == held
    assert quarantined(reborn) == []
    assert reborn.contains(name)


def test_concurrent_delete_and_deposit_of_the_same_bytes_keep_every_blob(federation):
    """A delete that drops the last record naming some bytes races a deposit
    of the same bytes; the deposited record never names a missing blob."""
    repo = federation.repos[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(150):
            payload = large(f"payload {i}".encode())
            doomed = repo.create_object()
            repo.run(doomed, "create_datastream", "text/plain", payload, staged=True)
            doomed = repo.deposit(doomed)
            handle = repo.create_object()
            repo.run(handle, "create_datastream", "text/plain", payload, staged=True)
            gate = threading.Barrier(2)
            deposited = []

            def delete():
                gate.wait(5)
                repo.delete(doomed)

            def deposit():
                gate.wait(5)
                deposited.append(repo.deposit(handle))

            threads = [threading.Thread(target=delete), threading.Thread(target=deposit)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5)
            assert not any(t.is_alive() for t in threads)
            assert repo.store.blob_path(sha256_hex(payload)).exists(), i
            assert deserialize_object(repo.store.read_bytes(deposited[0]))
    finally:
        sys.setswitchinterval(interval)
    reborn = restart_repo(federation, 0)
    assert quarantined(reborn) == []
    assert len(reborn.names()) == len(repo.names())


def test_an_old_format_root_loads_serves_the_same_manifests_and_is_converted(tmp_path):
    fed = make_federation(tmp_path)
    names = [build_marc_object(fed), build_book_object(fed)]
    repo = fed.repos[0]
    repo.run(names[1], "create_datastream", "image/gif", large(b"GIF89a"))
    manifests = {name: repo.store.read_bytes(name) for name in repo.names()}
    # the layout before blobs: one manifest file per object, nothing else
    for blob in repo.store.blobs_dir.iterdir():
        blob.unlink()
    for name, manifest in manifests.items():
        repo.store.path_for(name).write_bytes(manifest)

    reborn = restart_repo(fed, 0)
    assert quarantined(reborn) == []
    assert {name: reborn.store.read_bytes(name) for name in reborn.names()} == manifests
    for name in manifests:
        assert reborn.store.path_for(name).read_bytes().endswith(b'"version":"objrepo-record-1"}')
    assert stored_blobs(reborn) == {blob_of(reborn, names[1], "DS4").name}
    mime, data = fed.client(0).get_dissemination(
        names[0], fed.types["type-dc"], "getDCField", {"field": "Title"}, "alice"
    )
    assert data == b"Moby-Dick; or, The Whale"
    # converted once: a second start finds records only, and serves the same
    again = restart_repo(fed, 0)
    assert {name: again.store.read_bytes(name) for name in again.names()} == manifests


def test_set_access_manager_writes_only_the_objects_record(federation, monkeypatch):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    repo.run(name, "create_datastream", "image/gif", large(b"GIF89a"))
    before = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
              for p in repo.store.blobs_dir.iterdir()}
    written = []
    save_bytes = repo.store.save_bytes

    def spy(path, data):
        written.append(path)
        save_bytes(path, data)

    monkeypatch.setattr(repo.store, "save_bytes", spy)
    diss = repo.run(name, "get_disseminators")[0]["id"]
    repo.run(name, "set_access_manager", diss, federation.types["acl-v1"], {"acl": ["DS2"]})
    assert written == [repo.store.path_for(name)]
    assert {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in repo.store.blobs_dir.iterdir()} == before


def test_empty_root_is_empty_store(tmp_path):
    fed = make_federation(tmp_path, with_types=False)
    assert fed.repos[0].names() == []


def test_boolean_seq_counters_are_refused_and_nothing_is_stored(federation):
    # `true` parses to True, which is an int; taken as a counter it would
    # mint the stream id "DSTrue".
    doc = json.loads(DigitalObjectKernel(name="urn:test:bool-seq").serialize())
    doc["seq"] = {"diss": True, "ds": True}
    doc["digest"] = sha256_hex(canonical_bytes(dict(doc, digest="")))
    manifest = canonical_bytes(doc)
    with pytest.raises(MalformedManifest):
        deserialize_object(manifest)
    repo = federation.repos[0]
    stored = sorted(repo.store.objects_dir.iterdir())
    with pytest.raises(MalformedManifest) as err:
        repo.receive_manifest(manifest)
    assert err.value.code == "MALFORMED_MANIFEST"
    assert not repo.contains("urn:test:bool-seq")
    assert sorted(repo.store.objects_dir.iterdir()) == stored


def test_mutations_on_deposited_objects_persist(federation):
    name = build_marc_object(federation)
    repo = federation.repos[0]
    repo.run(name, "create_datastream", "text/plain", b"appended later")
    manifest = deserialize_object(repo.store.read_bytes(name))
    assert manifest.get_datastreams()[-1]["mime"] == "text/plain"


# -- primitive access manager ---------------------------------------------------------------


def author_acl() -> bytes:
    """Composition reserved for the author; gateway and reads open."""
    return acl_bytes(
        entries=[
            {"principal": "author", "methods": ["*"], "effect": "allow", "transforms": []},
            {
                "principal": "*",
                "methods": ["CreateDataStream", "CreateDisseminator", "SetAccessManager"],
                "effect": "deny",
                "reason": "authors-only",
            },
            {"principal": "*", "methods": ["*"], "effect": "allow", "transforms": []},
        ]
    )


def test_primitive_manager_reserves_composition_requests(federation):
    repo, client = federation.repos[0], federation.client()
    handle = client.create_object()
    client.add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
    ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", author_acl())
    client.set_access_manager_staged(
        handle, PRIMITIVE_TARGET, federation.types["acl-v1"], {"acl": [ds_acl]}
    )
    name = client.deposit(handle)

    assert client.get_datastreams(name, principal="reader")  # gateway requests stay open
    with pytest.raises(AccessDenied) as err:
        repo.run(name, "create_datastream", "text/plain", b"sneaky", principal="reader")
    assert str(err.value) == "authors-only"
    assert repo.run(name, "create_datastream", "text/plain", b"legit", principal="author") == "DS3"


def test_primitive_manager_denies_structural_reads_when_closed(federation):
    client = federation.client()
    handle = client.create_object()
    ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", ACL_ALICE_ALL)
    client.set_access_manager_staged(
        handle, PRIMITIVE_TARGET, federation.types["acl-v1"], {"acl": [ds_acl]}
    )
    name = client.deposit(handle)
    with pytest.raises(AccessDenied):
        client.get_datastreams(name, principal="mallory")
    assert client.get_datastreams(name, principal="alice")


def test_primitive_manager_stamps_byte_results(federation):
    client = federation.client()
    handle = client.create_object()
    ds = client.add_datastream(handle, "text/plain", b"the bytes")
    stamped = acl_bytes(
        entries=[
            {
                "principal": "*",
                "methods": ["*"],
                "effect": "allow",
                "transforms": [{"op": "stamp", "text": "via-primitive"}],
            }
        ]
    )
    ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", stamped)
    client.set_access_manager_staged(
        handle, PRIMITIVE_TARGET, federation.types["acl-v1"], {"acl": [ds_acl]}
    )
    name = client.deposit(handle)
    mime, data = client.get_datastream_content(name, ds, principal="anyone")
    assert data == b"the bytes\n--stamp:via-primitive"


# -- opacity and resolver caching -------------------------------------------------------------


def test_repository_serves_opaque_random_bytes(tmp_path):
    import random

    fed = make_federation(tmp_path, n_repos=2, with_types=False)
    rng = random.Random(11)
    client = fed.client(0)
    handle = client.create_object()
    payloads = [rng.randbytes(rng.randint(1, 4096)) for _ in range(3)]
    ids = [client.add_datastream(handle, "application/octet-stream", p) for p in payloads]
    name = client.deposit(handle)
    client.replicate(name, fed.repos[1].endpoint)
    for ds, payload in zip(ids, payloads):
        assert fed.client(1).get_datastream_content(name, ds) == (
            "application/octet-stream", payload,
        )
    assert manifest_digest(fed.repos[0], name) == manifest_digest(fed.repos[1], name)


def test_method_listing_unresolvable_after_type_object_vanishes(tmp_path):
    from objrepo.errors import UnresolvableType

    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed, repo_index=1, acl=None)
    fed.repos[0].delete(fed.types["type-dc"])  # the signature object goes away
    fed.repos[1].resolver.flush_cache()
    with pytest.raises(UnresolvableType):
        fed.client(1).list_methods(name, fed.types["type-dc"])


def test_dissemination_survives_type_home_outage_post_warmup(tmp_path):
    fed = make_federation(tmp_path, n_repos=2)  # type objects live on repo 0
    name = build_marc_object(fed, repo_index=1, acl=None)
    client = fed.client(1)
    warm = client.get_dissemination(name, fed.types["type-dc"], "getDCRecord", {})
    fed.registry.kill(fed.repos[0].endpoint)
    assert client.get_dissemination(name, fed.types["type-dc"], "getDCRecord", {}) == warm
    fed.registry.revive(fed.repos[0].endpoint)


# -- config & concurrency ---------------------------------------------------------------------


def test_load_repository_config(tmp_path):
    path = tmp_path / "repo.json"
    path.write_text(
        json.dumps(
            {
                "repo_name": "urn:test:repo-r1",
                "storage_root": str(tmp_path / "root"),
                "listen_endpoint": "127.0.0.1:0",
                "naming_endpoint": "127.0.0.1:9000",
                "urn_namespace": "test",
            }
        )
    )
    assert load_repository_config(path) == RepositoryConfig(
        "urn:test:repo-r1", str(tmp_path / "root"), "127.0.0.1:0", "127.0.0.1:9000", "test"
    )


REPO_CONFIG = {
    "repo_name": "urn:test:repo-r1",
    "storage_root": "var/r1",
    "listen_endpoint": "127.0.0.1:0",
    "naming_endpoint": "127.0.0.1:9000",
    "urn_namespace": "test",
}
NAMING_CONFIG = {"listen_endpoint": "127.0.0.1:0", "journal_path": "var/naming.jsonl"}
CONFIG_LOADERS = {
    "repo": (load_repository_config, REPO_CONFIG),
    "naming": (load_naming_config, NAMING_CONFIG),
}


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("repo", "worker_limt", 8),
        ("repo", "storage_root", 5),
        ("repo", "storage_root", None),
        ("repo", "storage_root", ["x"]),
        # the retired key is unknown, so it is refused whatever its value
        *[("repo", "worker_limit", v) for v in (True, 8, 8.9, 0, -3)],
        ("repo", "urn_namespace", "Demo Space"),
        ("repo", "urn_namespace", 5),
        ("naming", "worker_limt", 8),
        *[("naming", "journal_path", v) for v in (5, None, ["x"])],
        *[("naming", "worker_limit", v) for v in (True, 8, 8.9, 0, -3)],
    ],
)
def test_configs_refuse_what_they_cannot_use(tmp_path, kind, key, value):
    load, good = CONFIG_LOADERS[kind]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(good))
    load(path)
    path.write_text(json.dumps(dict(good, **{key: value})))
    with pytest.raises(BadArguments):
        load(path)


def test_failed_registration_leaves_the_object_unnamed(tmp_path):
    """A namespace that forms no URN, as an in-process config may give."""
    config = RepositoryConfig("urn:test:r", str(tmp_path), "r.local:80", "n.local:80", "Demo Space")
    repo = Repository(config, NamingService(), None)
    handle = repo.create_object()
    with pytest.raises(BadArguments):
        repo.deposit(handle)
    assert repo.run(handle, "get_datastreams", staged=True) == []  # still staged ...
    assert repo.names() == []  # ... and unnamed


def test_shipped_configs_load():
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert load_naming_config(configs / "naming.json").listen_endpoint == "127.0.0.1:7800"
    for path in sorted(configs.glob("repo-*.json")):
        assert load_repository_config(path).urn_namespace == "demo"


def test_concurrent_writers_on_distinct_objects(federation):
    repo = federation.repos[0]
    names = [build_marc_object(federation) for _ in range(4)]
    errors: list[Exception] = []

    def hammer(name):
        try:
            for i in range(20):
                repo.run(name, "create_datastream", "text/plain", f"blob-{i}".encode())
                repo.run(name, "get_datastreams")
        except Exception as exc:  # pragma: no cover - fails the test below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for name in names:
        infos = repo.run(name, "get_datastreams")
        assert len(infos) == 2 + 20  # marc + acl + twenty appends
        assert [i["id"] for i in infos] == [f"DS{k}" for k in range(1, 23)]


def disk_full(obj):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_persist_leaves_the_old_version_served_and_stored(federation, monkeypatch):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    before = repo.run(name, "get_datastreams")
    stored = repo.store.read_bytes(name)
    monkeypatch.setattr(repo.store, "save", disk_full)
    with pytest.raises(OSError):
        repo.run(name, "create_datastream", "text/plain", b"never stored")
    assert repo.run(name, "get_datastreams") == before
    monkeypatch.undo()
    assert repo.store.read_bytes(name) == stored
    assert restart_repo(federation, 0).run(name, "get_datastreams") == before


def test_a_read_does_not_wait_for_a_write_of_its_object(federation, monkeypatch):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    saving, release = threading.Event(), threading.Event()
    save = repo.store.save

    def slow_save(obj):
        saving.set()
        release.wait(2)  # the writer holds its object this long
        save(obj)

    monkeypatch.setattr(repo.store, "save", slow_save)
    writer = threading.Thread(
        target=repo.run, args=(name, "create_datastream", "text/plain", b"slow")
    )
    writer.start()
    try:
        assert saving.wait(5)
        started = time.monotonic()
        overlapping = repo.run(name, "get_datastreams")
        elapsed = time.monotonic() - started
    finally:
        release.set()
        writer.join(5)
    assert not writer.is_alive()
    assert elapsed < 1.0
    assert [i["id"] for i in overlapping] == ["DS1", "DS2"]  # the version before the write
    assert [i["id"] for i in repo.run(name, "get_datastreams")] == ["DS1", "DS2", "DS3"]


def test_readers_see_only_whole_persisted_versions(federation, monkeypatch):
    """Writers append to four objects, every third append failing to
    persist, while a reader lists the first object: each listing is a
    gap-free DS1..DSn, n never falls, and no failed append is ever served."""
    repo = federation.repos[0]
    names = [build_marc_object(federation) for _ in range(4)]
    save = repo.store.save

    def flaky_save(obj):
        if obj.datastreams[-1].content == b"fails":
            disk_full(obj)
        save(obj)

    monkeypatch.setattr(repo.store, "save", flaky_save)
    errors: list[Exception] = []
    listings: list[list[str]] = []
    writing = threading.Event()
    writing.set()

    def append(name):
        try:
            for i in range(21):
                payload = b"fails" if i % 3 == 2 else f"blob-{i}".encode()
                try:
                    repo.run(name, "create_datastream", "text/plain", payload)
                except OSError:
                    assert payload == b"fails"
        except Exception as exc:  # pragma: no cover - fails the test below
            errors.append(exc)

    def read():
        while writing.is_set():
            listings.append([i["id"] for i in repo.run(names[0], "get_datastreams")])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=read)
        reader.start()
        writers = [threading.Thread(target=append, args=(n,)) for n in names]
        for t in writers:
            t.start()
        for t in writers:
            t.join(30)
        writing.clear()
        reader.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and not any(t.is_alive() for t in writers)
    assert errors == []
    assert listings
    for earlier, later in zip(listings, listings[1:]):
        assert len(earlier) <= len(later)
    for ids in listings:
        assert ids == [f"DS{k}" for k in range(1, len(ids) + 1)]
    for name in names:
        infos = repo.run(name, "get_datastreams")
        assert [i["id"] for i in infos] == [f"DS{k}" for k in range(1, 17)]  # 2 + 14 appends


def test_a_write_during_a_move_is_not_answered_and_then_lost(federation3):
    fed = federation3
    source, target = fed.repos[0], fed.repos[1]
    name = build_marc_object(fed)
    outcome: list = []

    def write():
        try:
            outcome.append(source.run(name, "create_datastream", "text/plain", b"mid-move"))
        except NoSuchObject as exc:
            outcome.append(exc)

    writer = threading.Thread(target=write)

    def start_writer(point):
        if point == "move:after-copy":
            writer.start()
            writer.join(0.5)  # long enough for a write that does not wait to finish

    source.fault_hook = start_writer
    source.move(name, target.endpoint)
    writer.join(5)
    assert not writer.is_alive()
    served = [i["id"] for i in target.run(name, "get_datastreams")]
    assert isinstance(outcome[0], NoSuchObject) or outcome[0] in served


def test_object_locks_live_only_while_held(federation):
    """Per-object locks are dropped once no block holds them, so
    create/deposit/delete cycles leave the lock map as small as before."""
    repo = federation.repos[0]

    def cycle():
        handle = repo.create_object()
        federation.client().add_datastream(handle, "text/plain", b"x")
        repo.delete(repo.deposit(handle))

    cycle()
    before = len(repo._locks)
    for _ in range(200):
        cycle()
    assert len(repo._locks) <= before
    name = build_marc_object(federation)
    lock = repo._lock_for(name)
    with lock:  # a held lock stays the one every newcomer gets
        assert repo._lock_for(name) is lock
