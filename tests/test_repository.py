"""Repository lifecycle, replication/migration, persistence, enforcement."""

from __future__ import annotations

import base64
import errno
import io
import json
import os
import shutil
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
from objrepo.kernel import (
    BLOB_MIN_BYTES,
    PRIMITIVE_TARGET,
    RECORD_VERSION,
    DigitalObjectKernel,
    deserialize_object,
    split_records,
)
from objrepo.naming import NamingService, load_naming_config
from objrepo.repository import (
    COMPACT_MIN_BYTES,
    ObjectStore,
    Repository,
    RepositoryConfig,
    load_repository_config,
)


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
    records = sorted(repo.store.objects_dir.iterdir())
    federation.naming.down = True
    with pytest.raises(NamingUnavailable):
        repo.deposit(handle)
    assert repo.run(handle, "get_datastreams", staged=True)  # still staged ...
    assert repo.names() == names  # ... and unnamed
    assert sorted(repo.store.objects_dir.iterdir()) == records  # the stored record is dropped
    federation.naming.down = False
    name = repo.deposit(handle)
    assert federation.naming.resolve(name) == [repo.endpoint]


def test_deposit_stores_the_record_before_it_registers_the_name(federation, monkeypatch):
    """A crash between the two then leaves an unnamed record, never a name
    with nothing stored."""
    repo = federation.repos[0]
    save = repo.store.save
    registered_at_save = []

    def save_and_look(obj):
        try:
            registered_at_save.append(federation.naming.resolve(obj.name))
        except NotRegistered:
            registered_at_save.append(None)
        save(obj)

    monkeypatch.setattr(repo.store, "save", save_and_look)
    name = repo.deposit(repo.create_object())
    assert registered_at_save == [None]
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


# A move is a replicate, then a delete: each id names a boundary of the move,
# each value the label that fires there.
@pytest.mark.parametrize(
    "point",
    [
        pytest.param("replicate:before-transfer", id="move:before-copy"),
        pytest.param("replicate:after-transfer", id="move:after-copy"),
        pytest.param("delete:before-unregister", id="move:after-naming-add"),
        pytest.param("delete:after-unregister", id="move:after-naming-remove"),
    ],
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


def test_a_move_completes_when_the_source_location_is_already_gone(tmp_path, monkeypatch):
    """As a delete does, a move tolerates a source location that someone
    else removed while it ran: the name ends at the target only."""
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)
    source, target = fed.repos
    add_location = fed.naming.add_location

    def add_then_someone_removes_the_source(added, location):
        add_location(added, location)
        fed.naming.remove_location(added, source.endpoint)

    monkeypatch.setattr(fed.naming, "add_location", add_then_someone_removes_the_source)
    source.move(name, target.endpoint)
    assert fed.naming.resolve(name) == [target.endpoint]
    assert not source.contains(name)
    assert target.contains(name)


# -- every phase boundary of the lifecycle ---------------------------------------------


def _lifecycle_call(fed, op: str):
    """A call of lifecycle operation ``op`` on a fresh two-repository
    federation, on an object that only the first repository holds."""
    source, target = fed.repos
    if op == "deposit":
        handle = source.create_object()
        fed.client().add_datastream(handle, "application/x-marc-lines", MARC_FIXTURE)
        return lambda: source.deposit(handle)
    name = build_marc_object(fed)
    if op == "delete":
        return lambda: source.delete(name)
    if op == "receive_manifest":
        manifest = source.store.read_bytes(name)
        return lambda: target.receive_manifest(manifest)
    return lambda: getattr(source, op)(name, target.endpoint)


def _crash_view(fed, root: Path) -> tuple[dict, dict]:
    """What a crash now would leave of the federation made under ``root``:
    the objects of each storage root, copied and loaded as a restart loads
    them, by endpoint, and the naming state replayed from a copy of the
    journal."""
    where = root / "crash"
    held = {}
    for i, repo in enumerate(fed.repos):
        shutil.copytree(repo.config.storage_root, where / f"root{i}")
        held[repo.endpoint] = ObjectStore(where / f"root{i}").load_all()
    shutil.copy(root / "naming.jsonl", where / "naming.jsonl")
    naming = NamingService(where / "naming.jsonl")
    locations = {name: naming.resolve(name) for name in naming.names()}
    naming.close()
    return held, locations


@pytest.mark.parametrize("op", ["deposit", "receive_manifest", "replicate", "move", "delete"])
def test_a_crash_at_any_phase_boundary_keeps_the_federation_invariants(tmp_path, op):
    """Records the labels ``op`` fires, then stops it at each in turn and
    checks what a crash there leaves: every registered name resolves to a
    location whose root holds the object, and every held copy of a name
    serializes to the same bytes."""
    fired = []
    fed = make_federation(tmp_path / "labels", n_repos=2)
    call = _lifecycle_call(fed, op)
    for repo in fed.repos:
        repo.fault_hook = fired.append
    call()
    assert fired, f"{op} fires no fault point"

    for label in fired:
        fed = make_federation(tmp_path / label, n_repos=2)
        call = _lifecycle_call(fed, op)
        views = []

        def crash(point, fed=fed, label=label, views=views):
            if point == label:
                views.append(_crash_view(fed, tmp_path / label))
                raise InjectedFault(point)

        for repo in fed.repos:
            repo.fault_hook = crash
        with pytest.raises(InjectedFault):
            call()
        held, locations = views[0]
        for name, listed in locations.items():
            assert any(name in held.get(at, {}) for at in listed), f"{name} lost at {label}"
        copies: dict[str, set[bytes]] = {}
        for objects in held.values():
            for name, obj in objects.items():
                copies.setdefault(name, set()).add(obj.serialize())
        assert all(len(manifests) == 1 for manifests in copies.values()), label


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


def test_access_manager_ids_survive_a_restart_and_a_replica(tmp_path):
    """An AMn id is the manager's place in the manifest, PRIMITIVE first,
    not the order the managers were set in."""
    fed = make_federation(tmp_path, n_repos=2)
    name = build_marc_object(fed)  # guards DISS1 with the ACL in DS2 while staged
    fed.repos[0].run(name, "set_access_manager", PRIMITIVE_TARGET, fed.types["acl-v1"],
                     {"acl": ["DS2"]})

    def ids(repo: Repository) -> dict:
        return {target: repo.run(name, "get_access_manager", target, principal="alice")["id"]
                for target in (PRIMITIVE_TARGET, "DISS1")}

    before = ids(fed.repos[0])
    assert before == {PRIMITIVE_TARGET: "AM1", "DISS1": "AM2"}
    assert ids(restart_repo(fed, 0)) == before
    fed.repos[0].replicate(name, fed.repos[1].endpoint)
    assert ids(fed.repos[1]) == before


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


def record_version(path: Path) -> str:
    """The version its header gives a stored record."""
    return json.loads(path.read_bytes().partition(b"\n")[0])["version"]


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
    repo = restart_repo(fed, 0)  # each file holds one record, as at its first write
    path = repo.store.path_for(bad)
    # the same header, so its digest still verifies, in other bytes
    header, newline, bodies = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(json.loads(header)).encode() + newline + bodies)
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
        assert record_version(reborn.store.path_for(name)) == RECORD_VERSION
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

    def spy(path, data, **how):
        written.append(path)
        save_bytes(path, data, **how)

    monkeypatch.setattr(repo.store, "save_bytes", spy)
    diss = repo.run(name, "get_disseminators")[0]["id"]
    repo.run(name, "set_access_manager", diss, federation.types["acl-v1"], {"acl": ["DS2"]})
    assert written == [repo.store.path_for(name)]
    assert {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in repo.store.blobs_dir.iterdir()} == before


def test_a_write_of_a_deposited_object_base64_encodes_no_body(federation, monkeypatch):
    repo = federation.repos[0]
    handle = repo.create_object()
    repo.run(handle, "create_datastream", "application/x-marc-lines", MARC_FIXTURE, staged=True)
    encoded = []
    b64encode = base64.b64encode
    monkeypatch.setattr(base64, "b64encode", lambda data: encoded.append(data) or b64encode(data))
    name = repo.deposit(handle)
    repo.run(name, "create_datastream", "text/plain", b"a small body, kept in the record")
    repo.run(name, "create_datastream", "image/gif", large(b"GIF89a"))
    assert encoded == []
    assert record_version(repo.store.path_for(name)) == RECORD_VERSION
    assert repo.store.path_for(name).read_bytes().endswith(b"a small body, kept in the record")


DAMAGE = {
    "a flipped byte in a body": lambda data: flip(data, data.index(b"\n") + 5),
    "a truncated tail": lambda data: data[:-1],
    "extra trailing bytes": lambda data: data + b"\n",
    "a flipped byte in the header": lambda data: flip(data, data.index(b"x-marc-lines")),
}


def flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


#: damage to a file of appended records that quarantines it, given the file
#: and where its last record starts; a header that does not verify hides the
#: records after it
APPENDED_DAMAGE = {
    "appended, a flipped byte in the first header": lambda data, last: flip(
        data, data.index(b"x-marc-lines")),
    "appended, a flipped byte in the header before the last": lambda data, last: flip(
        data, data.rindex(b"x-marc-lines", 0, last)),
    "appended, extra trailing bytes": lambda data, last: data + b"\n",
}


@pytest.mark.parametrize("damage", [*DAMAGE, *APPENDED_DAMAGE])
def test_a_damaged_record_is_quarantined_with_the_blobs_only_it_names(tmp_path, damage):
    fed = make_federation(tmp_path)
    good, bad = build_marc_object(fed), build_marc_object(fed)
    repo = fed.repos[0]
    for name in (good, bad):
        repo.run(name, "create_datastream", "text/plain", large(b"held by both"))
    ds = repo.run(bad, "create_datastream", "text/plain", large(b"only the bad record names this"))
    own, shared = blob_of(repo, bad, ds), blob_of(repo, bad, "DS3")
    path = repo.store.path_for(bad)
    if damage in DAMAGE:
        repo = restart_repo(fed, 0)  # each file holds one record, as at its first write
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
    else:  # of the file's records, only the last names `own`
        data, records = path.read_bytes(), records_in(path)
        assert len(records) > 2 and own.name.encode() not in b"".join(records[:-1])
        path.write_bytes(APPENDED_DAMAGE[damage](data, len(data) - len(records[-1])))
    reborn = restart_repo(fed, 0)
    assert reborn.contains(good) and not reborn.contains(bad)
    assert quarantined(reborn) == sorted([path.name, own.name])
    assert shared.exists() and reborn.store.read_bytes(good) == repo.store.read_bytes(good)


def records_in(path: Path) -> list[bytes]:
    """The whole records a store file holds, oldest first."""
    return split_records(path.read_bytes())


def test_a_write_of_a_deposited_object_appends_its_record(federation, monkeypatch):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    path = repo.store.path_for(name)
    before, inode = path.read_bytes(), path.stat().st_ino
    renamed, opened = [], []
    replace, io_open = os.replace, io.open
    monkeypatch.setattr(os, "replace", lambda *a: renamed.append(a) or replace(*a))
    monkeypatch.setattr(io, "open", lambda f, *a, **k: opened.append(f) or io_open(f, *a, **k))
    repo.run(name, "set_access_manager", PRIMITIVE_TARGET, federation.types["acl-v1"],
             {"acl": ["DS2"]})
    monkeypatch.undo()
    assert renamed == [] and not any(str(f).endswith(".tmp") for f in opened)
    assert path.stat().st_ino == inode
    data = path.read_bytes()
    assert data.startswith(before) and records_in(path) == [before, data[len(before):]]
    assert repo.store.read_bytes(name) == repo._version(name).serialize()


def test_a_restart_leaves_one_record_per_file_and_a_second_rewrites_nothing(tmp_path):
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    fed.repos[0].run(name, "create_datastream", "text/plain", b"a second version")
    fed.repos[0].run(name, "set_access_manager", PRIMITIVE_TARGET, fed.types["acl-v1"],
                     {"acl": ["DS2"]})
    path = fed.repos[0].store.path_for(name)
    digest = manifest_digest(fed.repos[0], name)
    assert len(records_in(path)) == 3
    reborn = restart_repo(fed, 0)
    assert quarantined(reborn) == [] and manifest_digest(reborn, name) == digest
    assert records_in(path) == [path.read_bytes()]
    after = files_of(reborn.store.root)
    again = restart_repo(fed, 0)
    assert files_of(again.store.root) == after
    assert manifest_digest(again, name) == digest


#: where an append is cut short: inside the header, or inside a body
TORN = {
    "in its header": lambda record: record[:record.index(b"\n") // 2],
    "in a body": lambda record: record[:-3],
}


@pytest.mark.parametrize("torn", TORN)
def test_a_torn_append_serves_the_previous_version_and_is_dropped_at_load(tmp_path, torn):
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    repo = fed.repos[0]
    path = repo.store.path_for(name)
    stored, manifest = path.read_bytes(), repo.store.read_bytes(name)
    repo.run(name, "create_datastream", "text/plain", b"the body of a write cut short")
    appended = path.read_bytes()[len(stored):]
    path.write_bytes(stored + TORN[torn](appended))
    reborn = restart_repo(fed, 0)
    assert quarantined(reborn) == []
    assert reborn.store.read_bytes(name) == manifest
    assert path.read_bytes() == stored


def test_the_write_after_a_failed_append_rewrites_the_file(tmp_path, monkeypatch):
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    repo = fed.repos[0]
    save_bytes = repo.store.save_bytes

    def cut_short(path, data, append=False):
        save_bytes(path, data[:len(data) // 2], append=append)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(repo.store, "save_bytes", cut_short)
    with pytest.raises(OSError):
        repo.run(name, "create_datastream", "text/plain", b"never stored")
    monkeypatch.undo()
    repo.run(name, "create_datastream", "text/plain", b"stored")
    path = repo.store.path_for(name)
    assert records_in(path) == [path.read_bytes()]
    reborn = restart_repo(fed, 0)
    assert quarantined(reborn) == []
    assert reborn.run(name, "get_datastream_content", "DS3") == ("text/plain", b"stored")


#: damage to the last of two records, given the file and where that record starts
LAST_RECORD_DAMAGE = {
    "a flipped byte in its header": lambda data, at: flip(data, data.index(b"text/plain", at)),
    "a flipped byte in its body": lambda data, at: flip(data, len(data) - 5),
    # cut short, but not a torn append: its header does not verify
    "a flipped byte in its header, and cut short": lambda data, at: flip(
        data, data.index(b"text/plain", at))[:-3],
}


@pytest.mark.parametrize("damage", LAST_RECORD_DAMAGE)
def test_a_damaged_last_record_quarantines_the_object(tmp_path, damage):
    """An older record is never served in place of a last one that does not verify."""
    fed = make_federation(tmp_path)
    name = build_marc_object(fed)
    repo = fed.repos[0]
    repo.run(name, "create_datastream", "text/plain", b"the last version's own body")
    path = repo.store.path_for(name)
    data = path.read_bytes()
    path.write_bytes(LAST_RECORD_DAMAGE[damage](data, len(data) - len(records_in(path)[-1])))
    reborn = restart_repo(fed, 0)
    assert not reborn.contains(name) and quarantined(reborn) == [path.name]


def test_a_file_whose_dead_bytes_would_exceed_the_threshold_is_rewritten(federation):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    path = repo.store.path_for(name)
    appends = rewrites = 0
    while rewrites < 2:
        before, inode = path.read_bytes(), path.stat().st_ino
        repo.run(name, "set_access_manager", "DISS1", federation.types["acl-v1"],
                 {"acl": ["DS2"]})
        record = records_in(path)[-1]
        if len(before) > max(len(record), COMPACT_MIN_BYTES):
            assert path.read_bytes() == record and path.stat().st_ino != inode
            rewrites += 1
        else:
            assert path.read_bytes() == before + record and path.stat().st_ino == inode
            appends += 1
    assert appends > COMPACT_MIN_BYTES // len(record)
    assert repo.store.read_bytes(name) == repo._version(name).serialize()


def test_the_bytes_of_a_body_do_not_change_how_its_record_loads(federation):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    orphan = repo.store.blob_path(sha256_hex(b"no record names this"))
    bodies = [
        b'{"sha256":"%s"}' % orphan.name.encode(),
        b'{"version":"objrepo-manifest-1"}',  # how a manifest ends, last in the file
    ]
    for body in bodies:
        repo.run(name, "create_datastream", "application/json", body)
    assert repo.store.path_for(name).read_bytes().endswith(bodies[-1])
    manifest = repo.store.read_bytes(name)
    orphan.write_bytes(b"no record names this")
    reborn = restart_repo(federation, 0)
    assert quarantined(reborn) == [] and reborn.store.read_bytes(name) == manifest
    assert not orphan.exists()  # swept as unnamed: a body pins no blob
    assert record_version(reborn.store.path_for(name)) == RECORD_VERSION


FIXTURE_ROOTS = Path(__file__).parent / "fixtures" / "roots"


def files_of(root: Path) -> dict:
    """path -> (bytes, mtime) of every file under ``root``."""
    return {p.relative_to(root): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


APPENDED = f"{RECORD_VERSION}-appended"


@pytest.mark.parametrize("version", ["objrepo-manifest-1", "objrepo-record-1", RECORD_VERSION,
                                     APPENDED])
def test_a_pinned_root_of_each_format_loads_and_is_converted_once(tmp_path, version):
    """The roots under tests/fixtures/roots were written by the objrepo of
    each store format (scripts/make_fixture_roots.py); each is loaded from a
    copy, so the committed files never change. In the appended root every
    object's file holds more than one record, and one ends in a torn append."""
    root = shutil.copytree(FIXTURE_ROOTS / version, tmp_path / version)
    pinned = json.loads((root / "digests.json").read_bytes())
    before = files_of(root)
    if version == APPENDED:
        files = [(path.read_bytes(), records_in(path)) for path in (root / "objects").iterdir()]
        assert all(len(records) > 1 for _, records in files)
        assert sum(len(data) > len(b"".join(records)) for data, records in files) == 1  # torn
    store = ObjectStore(root)
    objects = store.load_all()
    assert list(store.quarantine_dir.iterdir()) == []
    after = files_of(root)
    assert before.keys() <= after.keys()  # nothing removed
    assert {name: json.loads(obj.serialize())["digest"] for name, obj in objects.items()} == pinned
    assert {record_version(path) for path in store.objects_dir.iterdir()} == {RECORD_VERSION}
    assert all(records_in(path) == [path.read_bytes()] for path in store.objects_dir.iterdir())
    if version == RECORD_VERSION:
        assert after == before
    ObjectStore(root).load_all()
    assert files_of(root) == after


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


#: a write of the walkthrough object with a third stream, an ACL, as DS3:
#: the request and the arguments after the object's name
WRITES = {
    "create_datastream": lambda types: ("create_datastream", "text/plain", b"never stored"),
    "create_disseminator": lambda types: (
        "create_disseminator", types["type-dc"], types["mech-marc2dc"], {"marc": ["DS1"]}, None
    ),
    "set_access_manager-PRIMITIVE": lambda types: (
        "set_access_manager", PRIMITIVE_TARGET, types["acl-v1"], {"acl": ["DS3"]}
    ),
    "set_access_manager-DISS1": lambda types: (
        "set_access_manager", "DISS1", types["acl-v1"], {"acl": ["DS3"]}
    ),
}


def served_state(repo: Repository, name: str) -> tuple:
    return (
        repo.run(name, "get_datastreams"),
        repo.run(name, "get_disseminators"),
        repo.run(name, "get_access_manager", PRIMITIVE_TARGET),
        repo.run(name, "get_access_manager", "DISS1"),
    )


@pytest.mark.parametrize("write", WRITES)
def test_failed_persist_leaves_the_old_version_served_and_stored(federation, monkeypatch, write):
    repo = federation.repos[0]
    name = build_marc_object(federation)
    repo.run(name, "create_datastream", "application/x-fedora-acl+json", ACL_ALICE_ALL)
    before = served_state(repo, name)
    stored = repo.store.read_bytes(name)
    monkeypatch.setattr(repo.store, "save", disk_full)
    with pytest.raises(OSError):
        repo.run(name, *WRITES[write](federation.types))
    assert served_state(repo, name) == before
    monkeypatch.undo()
    assert repo.store.read_bytes(name) == stored
    assert served_state(restart_repo(federation, 0), name) == before


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
        if point == "replicate:after-transfer":
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
