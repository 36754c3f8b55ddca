"""Naming service: registration, resolution, journal persistence, model checks."""

from __future__ import annotations

import json
import os
import random
import stat

import pytest

from objrepo.errors import AlreadyRegistered, BadArguments, NoSuchLocation, NotRegistered
from objrepo.naming import NamingService

U1 = "urn:test:one"
U2 = "urn:test:two"
R1, R2, R3 = "repo-r1.local:80", "repo-r2.local:80", "repo-r3.local:80"


def test_register_and_resolve(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    naming.register(U1, R1)
    assert naming.resolve(U1) == [R1]
    with pytest.raises(AlreadyRegistered):
        naming.register(U1, R2)


def test_resolve_unknown(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    with pytest.raises(NotRegistered):
        naming.resolve(U1)


def test_locations_keep_insertion_order(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    naming.register(U1, R1)
    naming.add_location(U1, R2)
    naming.add_location(U1, R3)
    assert naming.resolve(U1) == [R1, R2, R3]


def test_add_is_idempotent(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    naming.register(U1, R1)
    seq = naming.record(U1).updated_seq
    naming.add_location(U1, R1)
    assert naming.resolve(U1) == [R1]
    assert naming.record(U1).updated_seq == seq  # duplicate add is not an applied update


def test_remove_last_location_deletes_record(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    naming.register(U1, R1)
    naming.remove_location(U1, R1)
    with pytest.raises(NotRegistered):
        naming.resolve(U1)
    naming.register(U1, R2)  # the name can be registered again afterwards
    assert naming.resolve(U1) == [R2]


def test_remove_errors(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    with pytest.raises(NotRegistered):
        naming.remove_location(U1, R1)
    naming.register(U1, R1)
    with pytest.raises(NoSuchLocation):
        naming.remove_location(U1, R2)


def test_input_validation(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    with pytest.raises(BadArguments):
        naming.register("not-a-urn", R1)
    with pytest.raises(BadArguments):
        naming.register(U1, "no-port")


def test_updated_seq_strictly_increases(tmp_path):
    naming = NamingService(tmp_path / "j.jsonl")
    naming.register(U1, R1)
    seqs = [naming.record(U1).updated_seq]
    naming.add_location(U1, R2)
    seqs.append(naming.record(U1).updated_seq)
    naming.remove_location(U1, R1)
    seqs.append(naming.record(U1).updated_seq)
    assert seqs == sorted(set(seqs)) == [1, 2, 3]


def test_restart_replays_exact_state(tmp_path):
    path = tmp_path / "j.jsonl"
    naming = NamingService(path)
    naming.register(U1, R1)
    naming.add_location(U1, R2)
    naming.register(U2, R3)
    naming.remove_location(U1, R1)
    snapshot = {n: (naming.record(n).locations, naming.record(n).updated_seq) for n in naming.names()}
    naming.close()

    reborn = NamingService(path)
    assert {n: (reborn.record(n).locations, reborn.record(n).updated_seq) for n in reborn.names()} == snapshot


def test_compaction_preserves_state_and_shrinks_journal(tmp_path):
    path = tmp_path / "j.jsonl"
    naming = NamingService(path)
    naming.register(U1, R1)
    for _ in range(20):
        naming.add_location(U1, R2)
        naming.remove_location(U1, R2)
    before = {n: (naming.record(n).locations, naming.record(n).updated_seq) for n in naming.names()}
    lines_before = path.read_text().count("\n")
    naming.compact()
    lines_after = path.read_text().count("\n")
    assert lines_after < lines_before
    naming.close()
    reborn = NamingService(path)
    assert {n: (reborn.record(n).locations, reborn.record(n).updated_seq) for n in reborn.names()} == before


def test_compaction_syncs_the_directory_after_the_replace(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    naming = NamingService(path)
    naming.register(U1, R1)
    events = []
    replace, fsync = os.replace, os.fsync

    def spy_replace(src, dst):
        events.append("replace")
        replace(src, dst)

    def spy_fsync(fd):
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        fsync(fd)

    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(os, "fsync", spy_fsync)
    naming.compact()
    assert events == ["file", "replace", "dir"]
    naming.close()


def test_truncated_final_journal_line_is_tolerated(tmp_path):
    path = tmp_path / "j.jsonl"
    naming = NamingService(path)
    naming.register(U1, R1)
    naming.register(U2, R2)
    naming.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op":"add","name":"urn:test:one","loc')  # crash mid-write
    reborn = NamingService(path)
    assert reborn.resolve(U1) == [R1] and reborn.resolve(U2) == [R2]


def test_journal_line_format(tmp_path):
    path = tmp_path / "j.jsonl"
    naming = NamingService(path)
    naming.register(U1, R1)
    naming.add_location(U1, R2)
    naming.remove_location(U1, R1)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records == [
        {"op": "register", "name": U1, "location": R1, "seq": 1},
        {"op": "add", "name": U1, "location": R2, "seq": 2},
        {"op": "remove", "name": U1, "location": R1, "seq": 3},
    ]


def test_concurrent_updates_serialize_per_name(tmp_path):
    import threading

    naming = NamingService(tmp_path / "j.jsonl")
    names = [f"urn:test:c{i}" for i in range(4)]
    for name in names:
        naming.register(name, R1)
    errors: list[Exception] = []

    def churn(name):
        try:
            for _ in range(25):
                naming.add_location(name, R2)
                naming.remove_location(name, R2)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(n,)) for n in names for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Two workers per name race add/remove of the same location; races can
    # surface as NoSuchLocation (already removed), never as corruption.
    assert all(isinstance(e, NoSuchLocation) for e in errors)
    for name in names:
        record = naming.record(name)
        assert record.locations[0] == R1
        assert set(record.locations) <= {R1, R2}
        assert record.updated_seq >= 1
    naming.close()
    reborn = NamingService(tmp_path / "j.jsonl")  # journal replays cleanly
    assert set(reborn.names()) == set(names)


def test_model_equivalence_random_sequences(tmp_path):
    """Replay random operation sequences against a dict-based reference."""
    rng = random.Random(2026)
    names = [f"urn:test:n{i}" for i in range(6)]
    locations = [R1, R2, R3]
    naming = NamingService(tmp_path / "j.jsonl")
    model: dict[str, list[str]] = {}

    for _ in range(1500):
        op = rng.choice(["register", "add", "remove", "resolve"])
        name = rng.choice(names)
        location = rng.choice(locations)
        if op == "register":
            if name in model:
                with pytest.raises(AlreadyRegistered):
                    naming.register(name, location)
            else:
                naming.register(name, location)
                model[name] = [location]
        elif op == "add":
            if name not in model:
                with pytest.raises(NotRegistered):
                    naming.add_location(name, location)
            else:
                naming.add_location(name, location)
                if location not in model[name]:
                    model[name].append(location)
        elif op == "remove":
            if name not in model:
                with pytest.raises(NotRegistered):
                    naming.remove_location(name, location)
            elif location not in model[name]:
                with pytest.raises(NoSuchLocation):
                    naming.remove_location(name, location)
            else:
                naming.remove_location(name, location)
                model[name].remove(location)
                if not model[name]:
                    del model[name]
        else:
            if name not in model:
                with pytest.raises(NotRegistered):
                    naming.resolve(name)
            else:
                assert naming.resolve(name) == model[name]

    assert naming.names() == sorted(model)
    live = sum(len(locations) for locations in model.values())
    assert naming._live_locations == live
    # The surviving journal replays to the same state.
    naming.close()
    reborn = NamingService(tmp_path / "j.jsonl")
    assert {n: reborn.record(n).locations for n in reborn.names()} == model
    assert reborn._live_locations == live
    reborn.compact()
    assert reborn._live_locations == live
    reborn.close()
    assert NamingService(tmp_path / "j.jsonl")._live_locations == live
