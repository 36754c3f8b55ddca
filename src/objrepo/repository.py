"""The management layer: persistent object store and lifecycle operations.

A repository stages empty objects, seals them with a minted URN at deposit,
registers the name with the naming service, and thereafter serves structural
and gateway requests against the stored object. Replication and migration
ship the canonical manifest to a peer repository and adjust the name's
location set; migration is deliberately multi-phase and never leaves a name
without at least one serving location, though a crash between phases can
briefly leave it at two.

Each object is served as a published version that nothing changes. A read
runs on the version it finds, without a lock. The writes of one object run
one at a time, each on a copy that is persisted, if the object is deposited,
before one assignment publishes it. So a read that overlaps a write returns
the version before it, a read issued after a write's reply sees that write,
and a failed write changes nothing that is served or stored.
"""

from __future__ import annotations

import inspect
import logging
import threading
import time
import urllib.parse
import uuid
import weakref
from dataclasses import dataclass, replace
from functools import partial
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
from .kernel import PRIMITIVES, DigitalObjectKernel, Primitive, deserialize_object
from .typesys import ContentTypeResolver

log = logging.getLogger(__name__)


@dataclass
class RepositoryConfig:
    repo_name: str
    storage_root: str
    listen_endpoint: str
    naming_endpoint: str
    urn_namespace: str
    worker_limit: int = 8


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
    worker_limit=shape.optional(shape.integer(1)),
)


def load_repository_config(path: str | Path) -> RepositoryConfig:
    return shape.parse_file(path, _REPOSITORY_CONFIG, BadArguments, "repository config")


def encode_name(name: str) -> str:
    """URL-safe filename component for an object URN."""
    return urllib.parse.quote(name, safe="")


class ObjectStore:
    """One canonical manifest file per deposited object, written with a
    temp-then-rename discipline; unreadable manifests are quarantined."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str) -> Path:
        return self.objects_dir / (encode_name(name) + ".json")

    def save_bytes(self, name: str, manifest: bytes) -> None:
        path = self.path_for(name)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_bytes(manifest)
        tmp.replace(path)

    def save(self, obj: DigitalObjectKernel) -> None:
        self.save_bytes(obj.name, obj.serialize())

    def read_bytes(self, name: str) -> bytes:
        return self.path_for(name).read_bytes()

    def delete(self, name: str) -> None:
        self.path_for(name).unlink(missing_ok=True)

    def quarantine(self, path: Path, why: Exception) -> None:
        target = self.quarantine_dir / f"{path.name}.{time.time_ns()}"
        path.replace(target)
        log.warning("quarantined %s: %s", path.name, why)

    def load_all(self) -> dict[str, DigitalObjectKernel]:
        """Parse and digest-verify every manifest; corrupt ones are moved
        aside and never served."""
        objects: dict[str, DigitalObjectKernel] = {}
        for path in sorted(self.objects_dir.glob("*.json")):
            try:
                obj = deserialize_object(path.read_bytes())
                if encode_name(obj.name) + ".json" != path.name:
                    raise MalformedManifest(f"manifest name {obj.name} does not match filename")
            except (MalformedManifest, DigestMismatch) as exc:
                self.quarantine(path, exc)
                continue
            objects[obj.name] = obj
        return objects


class Repository:
    """Service layer over a logical group of digital objects.

    ``naming`` is anything with the naming operation surface (the in-process
    :class:`~objrepo.naming.NamingService` or a wire client), and
    ``client_factory(endpoint)`` yields a peer-repository client used for
    type resolution and manifest transfer.
    """

    def __init__(self, config: RepositoryConfig, naming, client_factory, resolver=None):
        self.config = config
        self.endpoint = config.listen_endpoint
        self.naming = naming
        self.client_factory = client_factory
        self.resolver = resolver or ContentTypeResolver(naming, client_factory)
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

    def staged(self, handle: str) -> "ObjectSession":
        return ObjectSession(self, handle, staged=True)

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

    def access(self, name: str) -> "ObjectSession":
        shape.check(shape.URN, name, BadArguments, "name")
        return ObjectSession(self, name)

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
        """Inter-repository transfer target: verify then persist verbatim,
        so replica digests stay byte-identical to the source."""
        obj = deserialize_object(manifest)
        name = obj.name
        with self._lock_for(name):
            if self.contains(name):
                raise AlreadyPresent(f"{name} is already at {self.endpoint}")
            self.store.save_bytes(name, manifest)
            with self._guard:
                self._objects[name] = obj
        return name


class ObjectSession:
    """One method per :data:`~objrepo.kernel.PRIMITIVES` row on a staged or
    deposited object. Opening it and each call look the object up, so once
    it is deposited, moved or deleted the session fails as the lookup does."""

    def __init__(self, repo: Repository, key: str, staged: bool = False):
        repo._version(key, staged)
        self._repo = repo
        self._key = key
        self._staged = staged
        self.object_name = None if staged else key

    def _run(self, row: Primitive, principal: str, args, kwargs: dict):
        """``row``'s kernel method on the published version, once the
        primitive access manager, if any, allows it; a write runs on a copy,
        persisted if the object is deposited, then published."""
        repo = self._repo

        def serve(version: DigitalObjectKernel):
            work = partial(getattr(version, row.method), *args, **kwargs)
            pam = version.primitive_access_manager
            return access.enforce(
                pam, repo.resolver, version, row.request, principal, work, row.transforms
            )

        if not row.writes:
            return serve(repo._version(self._key, self._staged))
        with repo._lock_for(self._key):
            version = repo._version(self._key, self._staged).copy()
            result = serve(version)
            if not self._staged:
                repo.store.save(version)
            with repo._guard:
                (repo._staged if self._staged else repo._objects)[self._key] = version
        return result


def _session_method(row: Primitive):
    """The session method for ``row``: the kernel method's arguments, then
    the caller's ``principal``, which the kernel method also gets if it
    takes one; the resolver is filled in."""
    params = inspect.signature(getattr(DigitalObjectKernel, row.method)).parameters
    arity = len([n for n in params if n not in ("self", "principal", "resolver")])

    def method(self, *args, principal: str = DEFAULT_PRINCIPAL, **kwargs):
        if len(args) == arity + 1:  # the principal given by position
            *args, principal = args
        if "principal" in params:
            kwargs["principal"] = principal
        if row.resolver:
            kwargs["resolver"] = self._repo.resolver
        return self._run(row, principal, args, kwargs)

    method.__name__ = method.__qualname__ = row.method
    return method


for _row in PRIMITIVES:
    setattr(ObjectSession, _row.method, _session_method(_row))


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
