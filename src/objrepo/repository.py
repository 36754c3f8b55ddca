"""The management layer: persistent object store and lifecycle operations.

A repository stages empty objects, seals them with a minted URN at deposit,
registers the name with the naming service, and thereafter serves structural
and gateway requests against the stored object. Replication and migration
ship the canonical manifest to a peer repository and adjust the name's
location set; migration is deliberately multi-phase and never leaves a name
without at least one serving location, though a crash between phases can
briefly leave it at two.

Every structural and gateway request, one row of ``kernel.PRIMITIVES``,
runs through :meth:`Repository.run`. Each object is served as a published
version that nothing changes. A read runs on the version it finds, without
a lock. The writes of one object run one at a time, each on a copy that is
persisted, if the object is deposited, before one assignment publishes it.
So each request takes effect at one instant between its arrival and its
reply (it is linearizable), and a failed write changes nothing served or stored.
"""

from __future__ import annotations

import logging
import re
import threading
import time
import urllib.parse
import uuid
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

from . import access, shape
from .api import DEFAULT_PRINCIPAL, REPOSITORY_OPS, derive
from .errors import (
    AlreadyPresent,
    BadArguments,
    DigestMismatch,
    MalformedManifest,
    NamingUnavailable,
    NoSuchHandle,
    NoSuchLocation,
    NoSuchObject,
    NotRegistered,
    TargetUnreachable,
)
from .canonical import sha256_hex
from .kernel import (
    MANIFEST_VERSION,
    PRIMITIVES,
    DigitalObjectKernel,
    deserialize_object,
    load_record,
)
from .typesys import ContentTypeResolver

log = logging.getLogger(__name__)

_PRIMITIVES = {row.method: row for row in PRIMITIVES}


@dataclass
class RepositoryConfig:
    repo_name: str
    storage_root: str
    listen_endpoint: str
    naming_endpoint: str
    urn_namespace: str


_REPOSITORY_CONFIG = shape.record(
    RepositoryConfig,
    repo_name=shape.URN,
    storage_root=shape.NON_EMPTY,
    listen_endpoint=shape.ENDPOINT,
    naming_endpoint=shape.ENDPOINT,
    # minted names are urn:<urn_namespace>:<uuid>
    urn_namespace=shape.holds(
        lambda v: isinstance(v, str) and shape.URN_RE.match(f"urn:{v}:0") is not None,
        "must be a urn namespace",
    ),
)


def load_repository_config(path: str | Path) -> RepositoryConfig:
    return shape.parse_file(path, _REPOSITORY_CONFIG, BadArguments, "repository config")


def encode_name(name: str) -> str:
    """URL-safe filename component for an object URN."""
    return urllib.parse.quote(name, safe="")


class ObjectStore:
    """One storage record per deposited object, as ``objects/<encoded
    name>.json``, and each distinct large stream body once, as
    ``blobs/<sha256>`` (:data:`~objrepo.kernel.BLOB_MIN_BYTES`).

    Every file is written to a temp file and renamed into place, the blobs an
    object adds before its record. A blob is kept while a record names it:
    each save pins the blobs it names before it looks for them on disk, and a
    blob is removed only when its last pin goes, so a concurrent delete never
    takes a blob from under a record being written."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.blobs_dir = self.root / "blobs"
        self.quarantine_dir = self.root / "quarantine"
        for directory in (self.objects_dir, self.blobs_dir, self.quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._pins: Counter[str] = Counter()  # blob -> records that name it, and saves under way
        self._named: dict[str, frozenset[str]] = {}  # object name -> blobs its record names

    def path_for(self, name: str) -> Path:
        return self.objects_dir / (encode_name(name) + ".json")

    def blob_path(self, sha256: str) -> Path:
        return self.blobs_dir / sha256

    def save_bytes(self, path: Path, data: bytes) -> None:
        """Write one file of the store: a temp file beside ``path``, renamed over it."""
        tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_bytes(data)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def save(self, obj: DigitalObjectKernel) -> None:
        """Write the blobs of ``obj`` not stored yet, then its record; blobs
        that no record names any more are removed."""
        bodies = obj.blobs()
        named = frozenset(bodies)
        self._pin(named)
        try:
            for sha256, content in bodies.items():
                path = self.blob_path(sha256)
                if not path.exists():  # a pinned blob on disk stays there
                    self.save_bytes(path, content)
            self.save_bytes(self.path_for(obj.name), obj.storage_record())
        except BaseException:
            self._unpin(named)
            raise
        with self._lock:
            before = self._named.get(obj.name, frozenset())
            self._named[obj.name] = named
        self._unpin(before)

    def read_bytes(self, name: str) -> bytes:
        """The canonical manifest of the stored object, rebuilt from its record and blobs."""
        return load_record(self.path_for(name).read_bytes(), self._read_blob).serialize()

    def delete(self, name: str) -> None:
        self.path_for(name).unlink(missing_ok=True)
        with self._lock:
            named = self._named.pop(name, frozenset())
        self._unpin(named)

    def quarantine(self, path: Path, why) -> None:
        target = self.quarantine_dir / f"{path.name}.{time.time_ns()}"
        path.replace(target)
        log.warning("quarantined %s: %s", path.name, why)

    def _pin(self, blobs) -> None:
        with self._lock:
            self._pins.update(blobs)

    def _unpin(self, blobs) -> None:
        with self._lock:
            self._pins.subtract(blobs)
            for sha256 in blobs:
                if self._pins[sha256] <= 0:
                    del self._pins[sha256]
                    try:
                        self.blob_path(sha256).unlink(missing_ok=True)
                    except OSError as exc:  # the write it follows is done; the next start sweeps it
                        log.warning("could not remove blob %s: %s", sha256, exc)

    def _read_blob(self, sha256: str) -> bytes:
        try:
            data = self.blob_path(sha256).read_bytes()
        except FileNotFoundError:
            raise DigestMismatch(f"blob {sha256} is missing") from None
        if sha256_hex(data) != sha256:
            raise DigestMismatch(f"blob {sha256} does not match its hash")
        return data

    def load_all(self) -> dict[str, DigitalObjectKernel]:
        """Verify and load every record, each blob read and hashed once.

        A record that does not verify, is filed under another name, or names
        a blob that is missing or does not match its hash is quarantined,
        never served; so is every blob that only quarantined records name.
        Other blobs no record names, and temp files a crash left, are removed.
        A manifest of the one-file layout objrepo stored before blobs is
        converted in place: its blobs are written, then its record is renamed
        over it."""
        blob = cache(self._read_blob)  # a blob that does not verify is not cached
        objects: dict[str, DigitalObjectKernel] = {}
        suspect: set[str] = set()
        for path in sorted(self.objects_dir.glob("*.json")):
            data = path.read_bytes()
            old = data.endswith(_MANIFEST_END)
            named = frozenset(ref.decode("ascii") for ref in _BLOB_REF.findall(data))
            try:
                obj = deserialize_object(data) if old else load_record(data, blob)
                if encode_name(obj.name) + ".json" != path.name:
                    raise MalformedManifest(f"object {obj.name} is not filed under its name")
            except (MalformedManifest, DigestMismatch) as exc:
                suspect |= named
                self.quarantine(path, exc)
                continue
            if old:
                self.save(obj)
            else:
                self._named[obj.name] = named
                self._pin(named)
            objects[obj.name] = obj
        for path in [*self.objects_dir.glob("*.tmp"), *self.blobs_dir.iterdir()]:
            if path.name in self._pins:
                continue
            if path.name in suspect:
                self.quarantine(path, "named only by quarantined records")
            else:
                path.unlink()
        return objects


#: how every manifest ``serialize`` writes ends: "version" is its last key
_MANIFEST_END = b'"version":"%s"}' % MANIFEST_VERSION.encode("ascii")
_BLOB_REF = re.compile(rb'"sha256"\s*:\s*"([0-9a-f]{64})"')


class Repository:
    """Service layer over a logical group of digital objects.

    ``naming`` is anything with the naming operation surface (the in-process
    :class:`~objrepo.naming.NamingService` or a wire client), and
    ``client_factory(endpoint)`` yields a peer-repository client used for
    type resolution and manifest transfer.
    """

    def __init__(self, config: RepositoryConfig, naming, client_factory):
        self.config = config
        self.endpoint = config.listen_endpoint
        self.naming = naming
        self.client_factory = client_factory
        self.resolver = ContentTypeResolver(naming, client_factory)
        self.store = ObjectStore(config.storage_root)
        self._objects = self.store.load_all()
        self._staged: dict[str, DigitalObjectKernel] = {}
        # key -> RLock, kept only while a `with` block holds it, so a waiter
        # and a newcomer always share the same lock.
        self._locks = weakref.WeakValueDictionary()
        self._guard = threading.Lock()
        #: test seam: called with a phase-boundary label during replicate/move
        self.fault_hook = None

    # -- internals --------------------------------------------------------

    def _lock_for(self, key: str) -> threading.RLock:
        """The lock that serializes the writes of one object."""
        with self._guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.RLock()
            return lock

    def _version(self, key: str, staged: bool = False) -> DigitalObjectKernel:
        """The published version of a staged object by handle, or of a
        deposited one by name."""
        with self._guard:
            obj = (self._staged if staged else self._objects).get(key)
        if obj is None and staged:
            raise NoSuchHandle(f"no staged object {key!r}")
        if obj is None:
            raise NoSuchObject(f"{key} is not contained in this repository")
        return obj

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    # -- lifecycle ----------------------------------------------------------

    def create_object(self) -> str:
        """Stage a fresh empty object; returns an opaque staging handle."""
        handle = uuid.uuid4().hex
        with self._guard:
            self._staged[handle] = DigitalObjectKernel()
        return handle

    def deposit(self, handle: str) -> str:
        """Seal a staged object with a minted URN, persist it, and register
        the name. A naming failure aborts atomically: the object stays
        staged and unnamed."""
        with self._lock_for(handle):
            name = f"urn:{self.config.urn_namespace}:{uuid.uuid4()}"
            obj = replace(self._version(handle, staged=True), name=name)
            self.naming.register(name, self.endpoint)
            try:
                self.store.save(obj)
            except Exception:
                # undo the registration so the aborted deposit leaves no trace
                try:
                    self.naming.remove_location(name, self.endpoint)
                except (NamingUnavailable, NotRegistered, NoSuchLocation):
                    log.warning("could not undo naming registration for %s", name)
                raise
            with self._guard:
                self._objects[name] = obj
                del self._staged[handle]
            return name

    def run(self, key: str, method: str, *args, principal: str = DEFAULT_PRINCIPAL,
            staged: bool = False):
        """Kernel ``method``, a :data:`~objrepo.kernel.PRIMITIVES` row, on the
        published version of the object named ``key``, or of the staged one
        whose handle ``key`` is, once the primitive access manager, if any,
        allows ``principal``. A write runs on a copy, persisted if the object
        is deposited, then published."""
        if not staged:
            shape.check(shape.URN, key, BadArguments, "name")
        row = _PRIMITIVES[method]
        given = {"principal": principal} if row.principal else {}
        if row.resolver:
            given["resolver"] = self.resolver

        def serve(version: DigitalObjectKernel):
            work = partial(getattr(version, method), *args, **given)
            pam = version.primitive_access_manager
            return access.enforce(
                pam, self.resolver, version, row.request, principal, work, row.transforms
            )

        if not row.writes:
            return serve(self._version(key, staged))
        with self._lock_for(key):
            version = self._version(key, staged).copy()
            result = serve(version)
            if not staged:
                self.store.save(version)
            with self._guard:
                (self._staged if staged else self._objects)[key] = version
        return result

    def contains(self, name: str) -> bool:
        with self._guard:
            return name in self._objects

    def names(self) -> list[str]:
        with self._guard:
            return sorted(self._objects)

    def delete(self, name: str) -> None:
        """Remove the object and its naming registration. Fails closed: if
        the naming service is unavailable nothing is deleted."""
        shape.check(shape.URN, name, BadArguments, "name")
        with self._lock_for(name):
            self._version(name)
            try:
                self.naming.remove_location(name, self.endpoint)
            except (NotRegistered, NoSuchLocation):
                pass  # stale registration; still remove the local copy
            self.store.delete(name)
            with self._guard:
                del self._objects[name]

    def replicate(self, name: str, target: str) -> None:
        """Copy the manifest to a peer and add it as a resolve location.

        If naming is unavailable after the transfer, the replica is kept and
        the error surfaces for the caller to retry the naming update; a
        registered-but-duplicated copy is harmless, a half-deposit is not.
        """
        shape.check(shape.URN, name, BadArguments, "name")
        shape.check(shape.ENDPOINT, target, BadArguments, "target")
        if target == self.endpoint:
            raise AlreadyPresent(f"{name} is already at {target}")
        manifest = self._version(name).serialize()
        self._fault("replicate:before-transfer")
        self.client_factory(target).receive_manifest(manifest)
        self._fault("replicate:after-transfer")
        self.naming.add_location(name, target)

    def move(self, name: str, target: str) -> None:
        """Migrate to a peer: copy manifest, add target location, drop the
        source location, then delete locally. A fault between phases leaves
        the name resolvable at one location or two, never at none. Writes of
        the object wait until the move ends, so none is answered and then
        left behind."""
        shape.check(shape.URN, name, BadArguments, "name")
        shape.check(shape.ENDPOINT, target, BadArguments, "target")
        if target == self.endpoint:
            raise AlreadyPresent(f"{name} is already at {target}")
        with self._lock_for(name):
            manifest = self._version(name).serialize()
            self._fault("move:before-copy")
            self.client_factory(target).receive_manifest(manifest)
            self._fault("move:after-copy")
            self.naming.add_location(name, target)
            self._fault("move:after-naming-add")
            self.naming.remove_location(name, self.endpoint)
            self._fault("move:after-naming-remove")
            self.store.delete(name)
            with self._guard:
                self._objects.pop(name, None)

    def receive_manifest(self, manifest: bytes) -> str:
        """Inter-repository transfer target: verify, then persist. Only a
        canonical manifest is taken, so the replica serializes to the very
        bytes it was sent and replica digests stay byte-identical."""
        obj = deserialize_object(manifest)
        name = obj.name
        with self._lock_for(name):
            if self.contains(name):
                raise AlreadyPresent(f"{name} is already at {self.endpoint}")
            self.store.save(obj)
            with self._guard:
                self._objects[name] = obj
        return name


# ---------------------------------------------------------------------------
# in-process federation plumbing


@derive(REPOSITORY_OPS)
class LocalRepositoryClient:
    """The wire repository client's methods, derived from the same operation
    rows and backed by a direct object reference: each returns exactly what
    the wire server would encode. Lets resolvers, transfers and bootstrap
    run without sockets."""

    def __init__(self, registry: "LocalEndpointRegistry", endpoint: str,
                 principal: str = DEFAULT_PRINCIPAL):
        self._registry = registry
        self._endpoint = endpoint
        self.principal = principal

    def _call(self, op, values: dict):
        if "principal" in values:
            values["principal"] = values["principal"] or self.principal
        return op.unwrap(op.invoke(self._registry.lookup(self._endpoint), values))


class LocalEndpointRegistry:
    """endpoint -> Repository map with a kill switch, standing in for the
    network in in-process federations."""

    def __init__(self):
        self._repos: dict[str, Repository] = {}
        self._down: set[str] = set()

    def register(self, repo: Repository) -> None:
        self._repos[repo.endpoint] = repo

    def kill(self, endpoint: str) -> None:
        self._down.add(endpoint)

    def revive(self, endpoint: str) -> None:
        self._down.discard(endpoint)

    def lookup(self, endpoint: str) -> Repository:
        if endpoint in self._down or endpoint not in self._repos:
            raise TargetUnreachable(f"no repository is listening at {endpoint}")
        return self._repos[endpoint]

    def client(self, endpoint: str) -> LocalRepositoryClient:
        return LocalRepositoryClient(self, endpoint)
