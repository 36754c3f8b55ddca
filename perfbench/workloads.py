"""The three workloads: corpus, warm-up, request mix and post-run checks.

Every request goes through objrepo's public wire clients and is checked
against the expectation :mod:`oracle` derived. Objects touched by one client
thread belong to that thread alone, so the expected state (locations,
bytes) is exact even with two clients running at once.
"""

from __future__ import annotations

import bisect
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from objrepo.errors import AccessDenied, ObjectRepositoryError
from objrepo.naming import NamingService
from objrepo.wire import NamingClient, RepositoryClient

import oracle
from oracle import INTRUDER, READER, Recipe

FILLER_LOCATIONS = [f"ext{i}.invalid:80" for i in range(4)]


READ_OBJECTS = 400
INGEST_OBJECTS = 200
INGEST_LARGE = 4
LARGE_BYTES = 16 << 20
LARGE_EVERY_S = 0.75  # window seconds between ingest's 16 MB access-manager changes
FED_OBJECTS = 240
FED_FILLERS = 20000


class Recorder:
    """Times and checks requests of one client thread."""

    def __init__(self):
        self.records: list[tuple[str, float, float, bool]] = []  # kind, start, seconds, ok
        self.errors: list[str] = []

    def call(self, kind: str, check, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out, err = fn(*args, **kwargs), None
        except ObjectRepositoryError as exc:
            out, err = None, exc
        dt = time.perf_counter() - t0
        ok = bool(check(out, err))
        self.records.append((kind, t0, dt, ok))
        if not ok and len(self.errors) < 20:
            self.errors.append(f"{kind}: {type(err).__name__ if err else 'wrong output'} {err or ''}".strip())
        return ok, out

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r[3])


def returns(expected):
    return lambda out, err: err is None and out == expected


def returns_ok(predicate):
    return lambda out, err: err is None and predicate(out)


def denied(out, err):
    return isinstance(err, AccessDenied)


class Zipf:
    """Rank-skewed choice (exponent 1) over a fixed list."""

    def __init__(self, items: list, rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        self.cum, total = [], 0.0
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / rank
            self.cum.append(total)

    def pick(self, rng: random.Random):
        return self.items[min(bisect.bisect(self.cum, rng.random() * self.cum[-1]), len(self.items) - 1)]


@dataclass
class Federation:
    """Endpoints and type URNs of the running cluster, plus the expected
    state of every object the generator deposited."""

    naming: str
    repos: list[str]
    types: dict[str, str] = field(default_factory=dict)
    objects: list[Recipe] = field(default_factory=list)
    warm: list[Recipe] = field(default_factory=list)  # warm-up objects of the running lifecycle
    fillers: list[str] = field(default_factory=list)
    type_bytes: int = 0

    def client(self, index: int) -> RepositoryClient:
        return RepositoryClient(self.repos[index], principal=READER)

    def locations(self, recipe: Recipe) -> list[str]:
        return [self.repos[i] for i in recipe.locations]


# ---------------------------------------------------------------------------
# authoring and checks shared by the workloads


def author(fed: Federation, rec: Recorder, recipe: Recipe, repo: int) -> bool:
    """The C1 authoring sequence: create, add streams, add the disseminator,
    guard it, deposit. Records ``recipe.name`` and its home on success."""
    client = fed.client(repo)
    ok, handle = rec.call("create", returns_ok(lambda h: isinstance(h, str) and h), client.create_object)
    if not ok:
        return False
    streams = recipe.all_streams()
    for ds_id, mime, data in streams:
        if not rec.call("add_stream", returns(ds_id), client.add_datastream, handle, mime, data)[0]:
            return False
    if not rec.call("add_disseminator", returns("DISS1"), client.add_disseminator, handle,
                    fed.types[recipe.type_label], fed.types[recipe.mech_label], recipe.bindings)[0]:
        return False
    if recipe.acl is not None:
        acl_ds = streams[-1][0]
        if not rec.call("set_access_manager", returns_ok(lambda a: a.startswith("AM")),
                        client.set_access_manager_staged, handle, "DISS1",
                        fed.types["acl-v1"], {"acl": [acl_ds]})[0]:
            return False
    prefix = f"urn:bench-r{repo + 1}:"
    ok, name = rec.call("deposit", returns_ok(lambda n: n.startswith(prefix)), client.deposit, handle)
    if ok:
        recipe.name, recipe.locations = name, [repo]
    return ok


def disseminate(fed: Federation, rec: Recorder, recipe: Recipe, call, repo: int,
                principal: str = READER, kind: str = "diss") -> bool:
    expected = recipe.expect(call, principal)
    check = denied if expected is None else returns((call.mime, expected))
    return rec.call(kind, check, fed.client(repo).get_dissemination, recipe.name,
                    fed.types[recipe.type_label], call.method, call.args, principal)[0]


def build_corpus(fed: Federation, recipes: list[Recipe], homes: list[int]) -> None:
    """Deposit the corpus with two clients; any failure aborts the run."""
    def work(part):
        rec = Recorder()
        for recipe, home in part:
            if not author(fed, rec, recipe, home):
                raise RuntimeError(f"corpus deposit failed: {rec.errors}")

    pairs = list(zip(recipes, homes))
    with ThreadPoolExecutor(2) as pool:
        for f in [pool.submit(work, pairs[i::2]) for i in range(2)]:
            f.result()
    fed.objects.extend(recipes)


def measure_type_bytes(fed: Federation) -> None:
    client = fed.client(0)
    fed.type_bytes = sum(ds["length"] for urn in fed.types.values()
                         for ds in client.get_datastreams(urn))


def warm_up(fed: Federation, rng: random.Random, rec: Recorder) -> list[Recipe]:
    """Author one object on every repository, then run one dissemination per
    mechanism present there, so each fresh process has fetched and cached
    every type document before timing starts."""
    fresh = []
    for repo in range(len(fed.repos)):
        recipe = oracle.marc_recipe(rng)
        recipe.acl = 0
        if author(fed, rec, recipe, repo):
            fresh.append(recipe)
            disseminate(fed, rec, recipe, recipe.calls[0], repo)
        seen = set()
        for obj in fed.objects:
            if obj.locations and obj.locations[0] == repo and obj.mech_label not in seen:
                seen.add(obj.mech_label)
                disseminate(fed, rec, obj, obj.calls[0], repo)
                rec.call("list", returns_ok(lambda m: isinstance(m, list)), fed.client(repo).list_methods,
                         obj.name, fed.types[obj.type_label])
    return fresh


def check_invariants(fed: Federation, objects: list[Recipe], compare_bytes: bool) -> Recorder:
    """After a restart: every acknowledged name resolves, in the expected
    order, to locations that each serve the object's streams; with
    ``compare_bytes`` every replica's bytes are compared too."""
    def work(part):
        rec = Recorder()
        naming = NamingClient(fed.naming)
        for recipe in part:
            expected = fed.locations(recipe)
            ok, _ = rec.call("check.resolve", returns_ok(lambda locs: locs and locs == expected),
                             naming.resolve, recipe.name)
            streams = recipe.all_streams()
            meta = [{"id": i, "mime": m, "length": len(d)} for i, m, d in streams]
            for repo in recipe.locations:
                client = fed.client(repo)
                rec.call("check.serves", returns(meta), client.get_datastreams, recipe.name)
                if compare_bytes:
                    for ds_id, mime, data in streams:
                        rec.call("check.replica_bytes", returns((mime, data)),
                                 client.get_datastream_content, recipe.name, ds_id)
        return rec

    with ThreadPoolExecutor(2) as pool:
        parts = [pool.submit(work, objects[i::2]) for i in range(2)]
        recs = [f.result() for f in parts]
    merged = Recorder()
    for r in recs:
        merged.records += r.records
        merged.errors += r.errors
    return merged


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: ``build`` makes the corpus in a fresh federation,
    ``client_loop`` is one closed-loop client, ``solo`` is a request run with
    every client held, once per ``solo_every`` seconds of the window, and
    ``check`` runs after the restart. ``key`` and ``key2`` name the request
    kinds behind ``key_p50_ms`` and ``key2_p50_ms``."""

    n_repos = 1
    solo_every: float | None = None
    key: tuple[str, ...] = ()
    key2: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def register_names(self, fed: Federation, journal: Path) -> None:
        """Names to hold in the naming journal before any service starts."""

    def build(self, fed: Federation, rng: random.Random) -> None:
        raise NotImplementedError

    def client_loop(self, fed: Federation, tid: int, rec: Recorder, window) -> None:
        """Runs steps while ``window.next(tid)`` allows."""
        raise NotImplementedError

    def solo(self, fed: Federation, rec: Recorder, i: int) -> None:
        raise NotImplementedError

    def check(self, fed: Federation) -> Recorder:
        return Recorder()


class ReadMix(Workload):
    key = ("ds_read",)
    key2 = ("denied",)

    def build(self, fed, rng):
        recipes = [oracle.mixed_recipe(rng, 0.5) for _ in range(READ_OBJECTS)]
        build_corpus(fed, recipes, [0] * len(recipes))

    def client_loop(self, fed, tid, rec, window):
        rng = random.Random(self.seed * 1000 + tid)
        objects = Zipf(fed.objects, rng)
        readable = Zipf([o for o in fed.objects if o.readable_streams()], rng)
        guarded = Zipf([o for o in fed.objects if o.acl is not None], rng)
        client = fed.client(0)
        while window.next(tid):
            r = rng.random()
            if r < 0.6:
                obj = objects.pick(rng)
                disseminate(fed, rec, obj, rng.choice(obj.calls), 0)
            elif r < 0.8:
                obj = readable.pick(rng)
                ds_id, mime, data = rng.choice(obj.readable_streams())
                rec.call("ds_read", returns((mime, data)), client.get_datastream_content, obj.name, ds_id)
            elif r < 0.9:
                obj = objects.pick(rng)
                type_urn = fed.types[obj.type_label]
                if rng.random() < 0.5:
                    rec.call("list", returns([type_urn]), client.list_types, obj.name)
                else:
                    names = oracle.SIGNATURE_METHODS[obj.type_label]
                    rec.call("list", returns_ok(lambda ms: [m["name"] for m in ms] == names),
                             client.list_methods, obj.name, type_urn)
            else:
                obj = guarded.pick(rng)
                disseminate(fed, rec, obj, rng.choice(obj.calls), 0, INTRUDER, "denied")


class Ingest(Workload):
    key = ("deposit",)
    key2 = ("mutate_large",)
    solo_every = LARGE_EVERY_S

    def build(self, fed, rng):
        self.small = [oracle.mixed_recipe(rng, 1.0) for _ in range(INGEST_OBJECTS)]
        self.large = [oracle.large_recipe(rng, LARGE_BYTES) for _ in range(INGEST_LARGE)]
        for big in self.large:
            big.acl = 0
        recipes = self.small + self.large
        build_corpus(fed, recipes, [0] * len(recipes))

    def client_loop(self, fed, tid, rec, window):
        rng = random.Random(self.seed * 1000 + tid)
        mine = self.small[tid::2]
        client = fed.client(0)
        step = 0
        while window.next(tid):
            step += 1
            if step % 10 == 5:
                target = rng.choice(mine)
                rec.call("mutate_small", returns_ok(lambda a: a.startswith("AM")),
                         client.set_access_manager, target.name, "DISS1", fed.types["acl-v1"],
                         {"acl": [target.all_streams()[-1][0]]})
                continue
            recipe = oracle.mixed_recipe(rng, 0.0)
            recipe.acl = rng.randrange(len(oracle.ACLS))
            if author(fed, rec, recipe, 0):
                fed.objects.append(recipe)
                disseminate(fed, rec, recipe, rng.choice(recipe.calls), 0)

    def solo(self, fed, rec, i):
        # The manifest-rewrite cliff: each call reserializes a 16 MB object.
        # Run with the clients held, so its time is not the other client's;
        # spread over the window, so its median follows the host over the
        # whole window, as the window's own metrics do.
        target = self.large[i % len(self.large)]
        rec.call("mutate_large", returns_ok(lambda a: a.startswith("AM")),
                 fed.client(0).set_access_manager, target.name, "DISS1", fed.types["acl-v1"],
                 {"acl": [target.all_streams()[-1][0]]})

    def check(self, fed):
        return check_invariants(fed, fed.objects + fed.warm, compare_bytes=False)


class FederationMix(Workload):
    n_repos = 3
    key = ("replicate", "move")
    key2 = ("resolve",)

    def register_names(self, fed, journal):
        # Names of objects held outside this federation, registered through
        # the naming service's public operation before it starts serving.
        service = NamingService(journal)
        for i in range(FED_FILLERS):
            name = f"urn:bench-ext:f{self.seed}-{i}"
            service.register(name, FILLER_LOCATIONS[i % len(FILLER_LOCATIONS)])
            fed.fillers.append(name)
        service.close()

    def build(self, fed, rng):
        kinds = ("marc", "dc")
        recipes = [oracle.mixed_recipe(rng, 0.5, kinds) for _ in range(FED_OBJECTS)]
        build_corpus(fed, recipes, [i % 3 for i in range(len(recipes))])

    def client_loop(self, fed, tid, rec, window):
        rng = random.Random(self.seed * 1000 + tid)
        mine = fed.objects[tid::2]
        naming = NamingClient(fed.naming)
        everywhere = set(range(len(fed.repos)))
        while window.next(tid):
            obj = rng.choice(mine)
            r = rng.random()
            if r < 0.37:
                op = "replicate" if r < 0.18 else "move" if r < 0.27 else "delete"
                if op != "delete" and len(obj.locations) == len(fed.repos):
                    op = "delete"  # no repository left to copy to
                if op == "delete" and len(obj.locations) == 1:
                    op = "replicate"  # never delete the last copy
                if op == "delete":
                    loc = rng.choice(obj.locations)
                    ok, _ = rec.call("delete", returns(None), fed.client(loc).delete, obj.name)
                    if ok:
                        obj.locations.remove(loc)
                    continue
                source = rng.choice(obj.locations)
                target = rng.choice(sorted(everywhere - set(obj.locations)))
                client = fed.client(source)
                ok, _ = rec.call(op, returns(None), getattr(client, op), obj.name, fed.repos[target])
                if ok:
                    obj.locations.append(target)
                    if op == "move":
                        obj.locations.remove(source)
            elif r < 0.82:
                if rng.random() < 0.5:
                    name = rng.choice(fed.fillers)
                    expected = [FILLER_LOCATIONS[int(name.rsplit("-", 1)[1]) % len(FILLER_LOCATIONS)]]
                else:
                    name, expected = obj.name, fed.locations(obj)
                rec.call("resolve", returns(expected), naming.resolve, name)
            else:
                ok, _ = rec.call("resolve", returns(fed.locations(obj)), naming.resolve, obj.name)
                if ok:
                    disseminate(fed, rec, obj, rng.choice(obj.calls), obj.locations[0])

    def check(self, fed):
        return check_invariants(fed, fed.objects + fed.warm, compare_bytes=True)


WORKLOADS = {"read_mix": ReadMix, "ingest": Ingest, "federation": FederationMix}
