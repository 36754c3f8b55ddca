"""The management layer: persistent object store and lifecycle operations.

A repository stages empty objects, seals them with a minted URN at deposit,
registers the name with the naming service, and thereafter serves structural
and gateway requests against the stored object. Replication and migration
ship the canonical manifest to a peer repository and adjust the name's
location set; migration is deliberately multi-phase and never leaves a name
without at least one serving location, though a crash between phases can
briefly leave it at two.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.parse
import uuid
import weakref
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import access
from .api import REPOSITORY_OPS, derive
from .errors import (
    AccessDenied,
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
from .kernel import PRIMITIVE_METHODS, DigitalObjectKernel, deserialize_object
from .typesys import ContentTypeResolver
from .validate import require_endpoint, require_urn

log = logging.getLogger(__name__)


@dataclass
class RepositoryConfig:
    repo_name: str
    storage_root: str
    listen_endpoint: str
    naming_endpoint: str
    urn_namespace: str
    worker_limit: int = 8


def load_repository_config(path: str | Path) -> RepositoryConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BadArguments(f"cannot read repository config {path}: {exc}") from None
    try:
        config = RepositoryConfig(
            repo_name=doc["repo_name"],
            storage_root=doc["storage_root"],
            listen_endpoint=doc["listen_endpoint"],
            naming_endpoint=doc["naming_endpoint"],
            urn_namespace=doc["urn_namespace"],
            worker_limit=int(doc.get("worker_limit", 8)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadArguments(f"invalid repository config {path}: {exc}") from None
    require_urn(config.repo_name, "repo_name")
    require_endpoint(config.listen_endpoint, "listen_endpoint")
    require_endpoint(config.naming_endpoint, "naming_endpoint")
    return config


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
        # key -> RLock, kept only while a `with` block or an ObjectSession
        # holds it, so a waiter and a newcomer always share the same lock.
        self._locks = weakref.WeakValueDictionary()
        self._guard = threading.Lock()
        #: test seam: called with a phase-boundary label during replicate/move
        self.fault_hook = None

    # -- internals --------------------------------------------------------

    def _lock_for(self, key: str) -> threading.RLock:
        with self._guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.RLock()
            return lock

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
        with self._guard:
            obj = self._staged.get(handle)
        if obj is None:
            raise NoSuchHandle(f"no staged object {handle!r}")
        return ObjectSession(self, obj, key=handle, staged_handle=handle)

    def deposit(self, handle: str) -> str:
        """Seal a staged object with a minted URN, persist it, and register
        the name. A naming failure aborts atomically: the object stays
        staged and unnamed."""
        with self._lock_for(handle):
            with self._guard:
                obj = self._staged.get(handle)
            if obj is None:
                raise NoSuchHandle(f"no staged object {handle!r}")
            name = f"urn:{self.config.urn_namespace}:{uuid.uuid4()}"
            obj.name = name
            try:
                self.naming.register(name, self.endpoint)
            except NamingUnavailable:
                obj.name = None
                raise
            try:
                self.store.save(obj)
            except Exception:
                # undo the registration so the aborted deposit leaves no trace
                try:
                    self.naming.remove_location(name, self.endpoint)
                except (NamingUnavailable, NotRegistered, NoSuchLocation):
                    log.warning("could not undo naming registration for %s", name)
                obj.name = None
                raise
            with self._guard:
                self._objects[name] = obj
                del self._staged[handle]
            return name

    def access(self, name: str) -> "ObjectSession":
        require_urn(name)
        with self._guard:
            obj = self._objects.get(name)
        if obj is None:
            raise NoSuchObject(f"{name} is not contained in this repository")
        return ObjectSession(self, obj, key=name)

    def contains(self, name: str) -> bool:
        with self._guard:
            return name in self._objects

    def names(self) -> list[str]:
        with self._guard:
            return sorted(self._objects)

    def delete(self, name: str) -> None:
        """Remove the object and its naming registration. Fails closed: if
        the naming service is unavailable nothing is deleted."""
        require_urn(name)
        with self._lock_for(name):
            if not self.contains(name):
                raise NoSuchObject(f"{name} is not contained in this repository")
            try:
                self.naming.remove_location(name, self.endpoint)
            except (NotRegistered, NoSuchLocation):
                pass  # stale registration; still remove the local copy
            self.store.delete(name)
            with self._guard:
                del self._objects[name]

    def _manifest_snapshot(self, name: str) -> bytes:
        with self._lock_for(name):
            with self._guard:
                obj = self._objects.get(name)
            if obj is None:
                raise NoSuchObject(f"{name} is not contained in this repository")
            return obj.serialize()

    def replicate(self, name: str, target: str) -> None:
        """Copy the manifest to a peer and add it as a resolve location.

        If naming is unavailable after the transfer, the replica is kept and
        the error surfaces for the caller to retry the naming update; a
        registered-but-duplicated copy is harmless, a half-deposit is not.
        """
        require_urn(name)
        require_endpoint(target, "target")
        if target == self.endpoint:
            raise AlreadyPresent(f"{name} is already at {target}")
        manifest = self._manifest_snapshot(name)
        self._fault("replicate:before-transfer")
        self.client_factory(target).receive_manifest(manifest)
        self._fault("replicate:after-transfer")
        self.naming.add_location(name, target)

    def move(self, name: str, target: str) -> None:
        """Migrate to a peer: copy manifest, add target location, drop the
        source location, then delete locally. A fault between phases leaves
        the name resolvable at one location or two, never at none."""
        require_urn(name)
        require_endpoint(target, "target")
        if target == self.endpoint:
            raise AlreadyPresent(f"{name} is already at {target}")
        manifest = self._manifest_snapshot(name)
        self._fault("move:before-copy")
        self.client_factory(target).receive_manifest(manifest)
        self._fault("move:after-copy")
        self.naming.add_location(name, target)
        self._fault("move:after-naming-add")
        self.naming.remove_location(name, self.endpoint)
        self._fault("move:after-naming-remove")
        with self._lock_for(name):
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
    """Kernel operations on one object, mediated by the primitive access
    manager and persisted through the owning repository when the object has
    been deposited."""

    def __init__(self, repo: Repository, obj: DigitalObjectKernel, key: str, staged_handle=None):
        self._repo = repo
        self._obj = obj
        self._lock = repo._lock_for(key)
        self._staged_handle = staged_handle

    @property
    def object_name(self) -> str | None:
        return self._obj.name

    def _check_live(self) -> None:
        # Sessions go stale when the object is deposited, moved or deleted.
        if self._staged_handle is not None:
            with self._repo._guard:
                if self._repo._staged.get(self._staged_handle) is not self._obj:
                    raise NoSuchHandle(f"no staged object {self._staged_handle!r}")
        else:
            with self._repo._guard:
                if self._repo._objects.get(self._obj.name) is not self._obj:
                    raise NoSuchObject(f"{self._obj.name} is not contained in this repository")

    def _run(self, request: str, principal: str, work, persist=False, transform=False):
        """``work()`` under the object lock, once the session is live and the
        primitive access manager, if any, allows ``request``. ``persist``
        stores a deposited object afterwards; ``transform`` applies the
        decision's output transforms to a (mime, bytes) result."""
        assert request in PRIMITIVE_METHODS, request
        with self._lock:
            self._check_live()
            decision = None
            pam = self._obj.primitive_access_manager
            if pam is not None:
                decision = access.evaluate(pam, self._repo.resolver, self._obj, request, principal)
                if decision.effect == access.DENY:
                    raise AccessDenied(decision.reason)
            result = work()
            if persist and self._staged_handle is None:
                self._repo.store.save(self._obj)
            if transform and decision is not None:
                result = access.apply_transforms(decision, *result)
            return result

    # -- structural -------------------------------------------------------

    def create_datastream(self, mime: str, content: bytes, principal: str = "anonymous") -> str:
        work = partial(self._obj.create_datastream, mime, content)
        return self._run("CreateDataStream", principal, work, persist=True)

    def get_datastreams(self, principal: str = "anonymous"):
        return self._run("GetDataStreams", principal, self._obj.get_datastreams)

    def get_datastream_content(self, ds_id: str, principal: str = "anonymous"):
        work = partial(self._obj.get_datastream_content, ds_id)
        return self._run("GetDataStreamContent", principal, work, transform=True)

    # -- gateway ------------------------------------------------------------

    def create_disseminator(
        self, kind, content_type: str, servlet: str, bindings, principal: str = "anonymous"
    ) -> str:
        work = partial(
            self._obj.create_disseminator, kind, content_type, servlet, bindings, self._repo.resolver
        )
        return self._run("CreateDisseminator", principal, work, persist=True)

    def get_disseminators(self, principal: str = "anonymous"):
        return self._run("GetDisseminators", principal, self._obj.get_disseminators)

    def list_disseminator_types(self, principal: str = "anonymous") -> list[str]:
        return self._run("ListDisseminatorTypes", principal, self._obj.list_disseminator_types)

    def list_disseminator_methods(self, content_type: str, principal: str = "anonymous"):
        work = partial(self._obj.list_disseminator_methods, content_type, self._repo.resolver)
        return self._run("ListDisseminatorMethods", principal, work)

    def get_dissemination(
        self, content_type: str, method: str, args: dict, principal: str = "anonymous"
    ):
        work = partial(
            self._obj.get_dissemination, content_type, method, args, principal, self._repo.resolver
        )
        return self._run("GetDissemination", principal, work, transform=True)

    # -- access managers ------------------------------------------------------

    def set_access_manager(self, target: str, scheme: str, bindings, principal: str = "anonymous") -> str:
        work = partial(self._obj.set_access_manager, target, scheme, bindings, self._repo.resolver)
        return self._run("SetAccessManager", principal, work, persist=True)

    def get_access_manager(self, target: str, principal: str = "anonymous"):
        work = partial(self._obj.get_access_manager, target)
        return self._run("GetAccessManager", principal, work)


# ---------------------------------------------------------------------------
# in-process federation plumbing


@derive(REPOSITORY_OPS)
class LocalRepositoryClient:
    """The wire repository client's methods, derived from the same operation
    rows and backed by a direct object reference: each returns exactly what
    the wire server would encode. Lets resolvers, transfers and bootstrap
    run without sockets."""

    def __init__(self, registry: "LocalEndpointRegistry", endpoint: str, principal: str = "anonymous"):
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
