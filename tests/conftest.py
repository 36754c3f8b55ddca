"""Shared fixtures: catalog payloads, stub resolvers, and federations."""

from __future__ import annotations

import http.client
import json
import urllib.parse
from dataclasses import dataclass, field

import pytest
from hypothesis import settings

from objrepo.bootstrap import bootstrap_types, load_recipes
from objrepo.canonical import canonical_bytes
from objrepo.errors import NamingUnavailable, UnresolvableType
from objrepo.naming import NamingService
from objrepo.repository import LocalEndpointRegistry, Repository, RepositoryConfig
from objrepo.typesys import parse_servlet_program, parse_signature

# Property tests replay the same few examples on every run and keep no
# example database, so the suite stays deterministic and quick.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=50, deadline=None)
settings.load_profile("tier1")

# A small library catalog record, one MARC field per line. Expected element
# lines below are derived by hand from the crosswalk table (100$a Creator,
# 245$a Title, 260$b Publisher, 260$c Date, 520$a Description, 650$a Subject)
# and frozen here as the independent oracle.
MARC_FIXTURE = (
    b"100 $a Melville, Herman\n"
    b"245 $a Moby-Dick; or, The Whale\n"
    b"260 $b Harper & Brothers\n"
    b"260 $c 1851\n"
    b"520 $a The narrative of Captain Ahab's obsessive quest for the white whale.\n"
    b"650 $a Whaling--Fiction\n"
)

EXPECTED_DC = (
    b"Creator: Melville, Herman\n"
    b"Title: Moby-Dick; or, The Whale\n"
    b"Publisher: Harper & Brothers\n"
    b"Date: 1851\n"
    b"Description: The narrative of Captain Ahab's obsessive quest for the white whale.\n"
    b"Subject: Whaling--Fiction\n"
)

EXPECTED_ELEMENTS = {
    "Creator": b"Melville, Herman",
    "Title": b"Moby-Dick; or, The Whale",
    "Publisher": b"Harper & Brothers",
    "Date": b"1851",
    "Description": b"The narrative of Captain Ahab's obsessive quest for the white whale.",
    "Subject": b"Whaling--Fiction",
}

PAGES = [b"GIF89a page-one", b"GIF89a page-two", b"GIF89a page-three"]


def acl_bytes(default="deny", entries=None) -> bytes:
    return json.dumps({"default": default, "entries": entries or []}).encode("utf-8")


ACL_ALICE_ALL = acl_bytes(
    entries=[{"principal": "alice", "methods": ["*"], "effect": "allow", "transforms": []}]
)


# ---------------------------------------------------------------------------
# stub resolver for kernel/typesys unit tests


class StubResolver:
    """Maps URNs straight to parsed documents, no repositories involved."""

    def __init__(self):
        self.signatures = {}
        self.servlets = {}
        self.schemes = {}

    def resolve_content_type(self, urn):
        if urn not in self.signatures:
            raise UnresolvableType(f"{urn}: not registered")
        return self.signatures[urn]

    def resolve_servlet(self, urn):
        if urn not in self.servlets:
            raise UnresolvableType(f"{urn}: not registered")
        return self.servlets[urn]

    def resolve_access_scheme(self, urn):
        if urn not in self.schemes:
            raise UnresolvableType(f"{urn}: not registered")
        return self.schemes[urn]


#: stable URNs for the shipped documents when used through StubResolver
STUB_URNS = {
    "type-dc": "urn:test:type-dc",
    "type-book": "urn:test:type-book",
    "type-photoalbum": "urn:test:type-photoalbum",
    "mech-marc2dc": "urn:test:mech-marc2dc",
    "mech-dc-pass": "urn:test:mech-dc-pass",
    "mech-book-gif": "urn:test:mech-book-gif",
    "mech-book-gif2": "urn:test:mech-book-gif2",
    "mech-photoalbum": "urn:test:mech-photoalbum",
    "acl-v1": "urn:test:acl-1",
}


def fixture_documents() -> dict[str, dict]:
    """label -> finished document, implements labels resolved to STUB_URNS."""
    docs = {}
    for recipe in load_recipes():
        doc = dict(recipe["document"])
        if recipe["kind"] != "SIGNATURE":
            implements = recipe["implements"]
            if implements.startswith("@"):
                implements = STUB_URNS[implements[1:]]
            doc["implements"] = implements
        docs[recipe["label"]] = doc
    return docs


@pytest.fixture
def stub_resolver() -> StubResolver:
    resolver = StubResolver()
    docs = fixture_documents()
    for label, urn in STUB_URNS.items():
        doc = canonical_bytes(docs[label])
        if label.startswith("type-"):
            resolver.signatures[urn] = parse_signature(doc)
        elif label == "acl-v1":
            resolver.schemes[urn] = parse_servlet_program(doc)
        else:
            resolver.servlets[urn] = parse_servlet_program(doc)
    return resolver


# ---------------------------------------------------------------------------
# in-process federation


class FlakyNaming:
    """Naming proxy with a kill switch for NAMING_UNAVAILABLE paths."""

    def __init__(self, inner: NamingService):
        self.inner = inner
        self.down = False

    def _guarded(self, method, *args):
        if self.down:
            raise NamingUnavailable("naming service is down")
        return getattr(self.inner, method)(*args)

    def register(self, name, location):
        return self._guarded("register", name, location)

    def resolve(self, name):
        return self._guarded("resolve", name)

    def add_location(self, name, location):
        return self._guarded("add_location", name, location)

    def remove_location(self, name, location):
        return self._guarded("remove_location", name, location)

    def record(self, name):
        return self._guarded("record", name)

    def names(self):
        return self._guarded("names")


@dataclass
class Federation:
    naming: FlakyNaming
    registry: LocalEndpointRegistry
    repos: list[Repository]
    types: dict[str, str] = field(default_factory=dict)

    def client(self, index: int = 0, principal: str = "anonymous"):
        from objrepo.repository import LocalRepositoryClient

        return LocalRepositoryClient(self.registry, self.repos[index].endpoint, principal)


def make_federation(tmp_path, n_repos: int = 1, with_types: bool = True, journal: bool = True) -> Federation:
    naming = FlakyNaming(NamingService(tmp_path / "naming.jsonl" if journal else None))
    registry = LocalEndpointRegistry()
    repos = []
    for i in range(1, n_repos + 1):
        config = RepositoryConfig(
            repo_name=f"urn:test:repo-r{i}",
            storage_root=str(tmp_path / f"repo-r{i}"),
            listen_endpoint=f"repo-r{i}.local:80",
            naming_endpoint="naming.local:80",
            urn_namespace="test",
        )
        repo = Repository(config, naming, registry.client)
        registry.register(repo)
        repos.append(repo)
    fed = Federation(naming, registry, repos)
    if with_types:
        fed.types = bootstrap_types(fed.client(0))
    return fed


@pytest.fixture
def federation(tmp_path) -> Federation:
    return make_federation(tmp_path, n_repos=1)


@pytest.fixture
def federation3(tmp_path) -> Federation:
    return make_federation(tmp_path, n_repos=3)


# ---------------------------------------------------------------------------
# object builders


def build_marc_object(fed: Federation, repo_index: int = 0, acl: bytes | None = ACL_ALICE_ALL,
                      marc: bytes = MARC_FIXTURE) -> str:
    """The walkthrough object: MARC stream, DC disseminator via the
    crosswalk mechanism, optionally ACL-guarded."""
    repo = fed.repos[repo_index]
    handle = repo.create_object()
    session = repo.staged(handle)
    ds_marc = session.create_datastream("application/x-marc-lines", marc)
    diss = session.create_disseminator(
        "CONTENT", fed.types["type-dc"], fed.types["mech-marc2dc"], {"marc": [ds_marc]}
    )
    if acl is not None:
        ds_acl = session.create_datastream("application/x-fedora-acl+json", acl)
        session.set_access_manager(diss, fed.types["acl-v1"], {"acl": [ds_acl]})
    return repo.deposit(handle)


def build_dc_object(fed: Federation, repo_index: int = 0, dc: bytes = EXPECTED_DC) -> str:
    """Structural twin of the MARC object: stored element lines plus the
    passthrough mechanism, same content type."""
    repo = fed.repos[repo_index]
    handle = repo.create_object()
    session = repo.staged(handle)
    ds = session.create_datastream("application/x-dc-lines", dc)
    session.create_disseminator(
        "CONTENT", fed.types["type-dc"], fed.types["mech-dc-pass"], {"dc": [ds]}
    )
    return repo.deposit(handle)


def build_book_object(fed: Federation, servlet_label: str = "mech-book-gif",
                      structure_id: str = "pages", pages=None, repo_index: int = 0) -> str:
    repo = fed.repos[repo_index]
    handle = repo.create_object()
    session = repo.staged(handle)
    ds_ids = [session.create_datastream("image/gif", p) for p in (pages or PAGES)]
    session.create_disseminator(
        "CONTENT", fed.types["type-book"], fed.types[servlet_label], {structure_id: ds_ids}
    )
    return repo.deposit(handle)


# ---------------------------------------------------------------------------
# wire federation (real HTTP servers on loopback)


@dataclass
class WireFederation:
    naming_server: object
    naming_service: object
    naming_client: object
    servers: list
    repos: list[Repository]
    clients: list
    types: dict[str, str] = field(default_factory=dict)

    def stop(self) -> None:
        for server in self.servers:
            server.stop()
        self.naming_server.stop()


def make_wire_federation(tmp_path, n_repos: int = 1, with_types: bool = True) -> WireFederation:
    from objrepo.naming import NamingConfig
    from objrepo.wire import NamingClient, RepositoryClient, serve_naming, serve_repository

    naming_server, naming_service = serve_naming(
        NamingConfig(listen_endpoint="127.0.0.1:0", journal_path=str(tmp_path / "naming.jsonl"))
    )
    naming_client = NamingClient(naming_server.endpoint)
    servers, repos, clients = [], [], []
    for i in range(1, n_repos + 1):
        config = RepositoryConfig(
            repo_name=f"urn:test:repo-r{i}",
            storage_root=str(tmp_path / f"repo-r{i}"),
            listen_endpoint="127.0.0.1:0",
            naming_endpoint=naming_server.endpoint,
            urn_namespace="test",
        )
        server, repo = serve_repository(config)
        servers.append(server)
        repos.append(repo)
        clients.append(RepositoryClient(server.endpoint))
    fed = WireFederation(naming_server, naming_service, naming_client, servers, repos, clients)
    if with_types:
        fed.types = bootstrap_types(fed.clients[0])
    return fed


@pytest.fixture
def wire_federation(tmp_path):
    fed = make_wire_federation(tmp_path, n_repos=2)
    yield fed
    fed.stop()


def quote(name: str) -> str:
    return urllib.parse.quote(name, safe="")


def probe(endpoint: str, method: str, path: str, body: bytes | None = None,
          headers: dict | None = None) -> tuple[int, object]:
    """One raw HTTP request outside the clients; returns the status and the
    body, parsed when it is JSON."""
    conn = http.client.HTTPConnection(endpoint, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        if resp.getheader("Content-Type") == "application/json":
            data = json.loads(data)
        return resp.status, data
    finally:
        conn.close()


def wire_marc_object(fed: WireFederation, client_index: int = 0,
                     acl: bytes | None = ACL_ALICE_ALL, marc: bytes = MARC_FIXTURE) -> str:
    client = fed.clients[client_index]
    handle = client.create_object()
    ds_marc = client.add_datastream(handle, "application/x-marc-lines", marc)
    diss = client.add_disseminator(
        handle, fed.types["type-dc"], fed.types["mech-marc2dc"], {"marc": [ds_marc]}
    )
    if acl is not None:
        ds_acl = client.add_datastream(handle, "application/x-fedora-acl+json", acl)
        client.set_access_manager_staged(handle, diss, fed.types["acl-v1"], {"acl": [ds_acl]})
    return client.deposit(handle)
