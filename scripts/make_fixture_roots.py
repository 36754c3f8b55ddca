#!/usr/bin/env python3
"""Write one small storage root per store format, for the format tests.

    python3 scripts/make_fixture_roots.py [--out DIR]

Builds an in-process federation of two repositories (namespaces
``fixture`` and ``elsewhere``), deposits the shipped types and a few
objects into the first, then writes its state under ``DIR`` (default:
``tests/fixtures/roots``) three times:

- ``DIR/<record version>/``: the storage root as this tree's
  ``ObjectStore`` writes it (records, and blobs for large bodies);
- ``DIR/objrepo-manifest-1/``: the one-file layout objrepo stored before
  blobs, one canonical manifest per object;
- ``DIR/<record version>-appended/``: the storage root after writes of the
  stored objects, each appended to its object's file, so that every file
  holds more than one record; one file ends in a torn append, the first
  part of a record whose write was cut short.

Each root holds a blob shared by two records, an object named in the other
repository's namespace, an object with access managers on ``PRIMITIVE`` and
on a disseminator, a body of ``BLOB_MIN_BYTES - 1`` bytes, and
``digests.json``: every object's name and the ``digest`` of its canonical
manifest. A root that exists already is left as it is, so a root written by
an older tree stays as that tree wrote it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from objrepo.bootstrap import bootstrap_types  # noqa: E402
from objrepo.kernel import BLOB_MIN_BYTES, MANIFEST_VERSION, PRIMITIVE_TARGET  # noqa: E402
from objrepo.kernel import RECORD_VERSION  # noqa: E402
from objrepo.naming import NamingService  # noqa: E402
from objrepo.repository import LocalEndpointRegistry, Repository, RepositoryConfig  # noqa: E402

MARC = b"100 $a Melville, Herman\n245 $a Moby-Dick; or, The Whale\n260 $c 1851\n"
ACL = json.dumps({"default": "deny", "entries": [
    {"principal": "alice", "methods": ["*"], "effect": "allow", "transforms": []}
]}).encode()
SHARED = bytes(range(256)) * (BLOB_MIN_BYTES // 256)  # stored apart, as one blob
LARGEST_INLINE = (b"the largest body kept in its record. " * 2000)[:BLOB_MIN_BYTES - 1]


def build(tmp: Path) -> Repository:
    """The federation's first repository, holding every fixture object."""
    registry = LocalEndpointRegistry()
    naming = NamingService(None)
    repos = []
    for i, namespace in enumerate(("fixture", "elsewhere"), 1):
        config = RepositoryConfig(f"urn:fixture:repo-{i}", str(tmp / f"repo-{i}"),
                                  f"repo-{i}.local:80", "naming.local:80", namespace)
        repos.append(Repository(config, naming, registry.client))
        registry.register(repos[-1])
    home, other = (registry.client(repo.endpoint) for repo in repos)
    types = bootstrap_types(home)

    def marc_object(client) -> tuple[str, str]:
        handle = client.create_object()
        ds = client.add_datastream(handle, "application/x-marc-lines", MARC)
        diss = client.add_disseminator(handle, types["type-dc"], types["mech-marc2dc"],
                                       {"marc": [ds]})
        return handle, diss

    # managers on a disseminator and on PRIMITIVE, and the largest inline body
    handle, diss = marc_object(home)
    acl = home.add_datastream(handle, "application/x-fedora-acl+json", ACL)
    home.add_datastream(handle, "application/octet-stream", LARGEST_INLINE)
    home.set_access_manager_staged(handle, diss, types["acl-v1"], {"acl": [acl]})
    home.set_access_manager_staged(handle, PRIMITIVE_TARGET, types["acl-v1"], {"acl": [acl]})
    home.deposit(handle)
    # two records naming one blob
    for _ in range(2):
        handle, _ = marc_object(home)
        home.add_datastream(handle, "application/octet-stream", SHARED)
        home.deposit(handle)
    # a replica of an object named in the other repository's namespace
    handle, _ = marc_object(other)
    other.replicate(other.deposit(handle), repos[0].endpoint)
    naming.close()
    return repos[0]


def stored_files(store) -> dict[str, bytes]:
    """path under the root -> bytes, of every record and blob file."""
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for directory in (store.objects_dir, store.blobs_dir)
        for path in sorted(directory.iterdir())
    }


def append_writes(repo: Repository) -> dict[str, bytes]:
    """The stored files after a write of each object, two of the first, and
    a third write of it cut short inside its last body."""
    names = repo.names()
    for name in [*names, names[0]]:
        repo.run(name, "create_datastream", "text/plain", f"appended to {name}".encode(),
                 principal="alice")
    repo.run(names[0], "create_datastream", "text/plain", b"a write cut short", principal="alice")
    path = repo.store.path_for(names[0])
    path.write_bytes(path.read_bytes()[:-7])
    return stored_files(repo.store)


def write_root(target: Path, repo: Repository, files: dict[str, bytes]) -> None:
    """``files`` (path under the root -> bytes) and ``digests.json``."""
    digests = {name: json.loads(repo.store.read_bytes(name))["digest"] for name in repo.names()}
    files = dict(files, **{"digests.json": (json.dumps(digests, indent=1) + "\n").encode()})
    for relative, data in files.items():
        (target / relative).parent.mkdir(parents=True, exist_ok=True)
        (target / relative).write_bytes(data)
    print(f"wrote {target}: {len(digests)} objects")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=ROOT / "tests" / "fixtures" / "roots")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        repo = build(Path(tmp))
        store = repo.store
        # each made only if its root is missing, and in this order: the
        # appended root's writes come after the other roots are written
        layouts = {
            RECORD_VERSION: lambda: stored_files(store),
            MANIFEST_VERSION: lambda: {
                str(store.path_for(name).relative_to(store.root)): store.read_bytes(name)
                for name in repo.names()
            },
            f"{RECORD_VERSION}-appended": lambda: append_writes(repo),
        }
        for version, files in layouts.items():
            target = args.out / version
            if target.exists():
                print(f"kept {target}")
                continue
            write_root(target, repo, files())
    return 0


if __name__ == "__main__":
    sys.exit(main())
