"""Span recording around objrepo's module entry points, from outside.

A :class:`Tracer` replaces each boundary function or method named in
:data:`BOUNDARIES` with a wrapper that records one span per call: name, id,
parent span id, start and end (``time.monotonic_ns``, shared by every
process on the host), self time (duration minus the time of child spans on
the same thread) and one optional attribute such as a byte size. Spans stay
in memory and are written out once, when the process ends.

A boundary the program no longer has is recorded as absent; the metrics
built on it are then left out of the report and named, never shown as 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def route_of(method: str, path: str) -> str:
    """Route template of a request path: ids replaced by ``{}``."""
    parts = path.split("?", 1)[0].split("/")
    if len(parts) > 2 and parts[1] in ("staging", "objects", "names"):
        parts[2] = "{}"
    if len(parts) > 4 and parts[3] in ("datastreams", "locations"):
        parts[4] = "{}"
    return f"{method} {'/'.join(parts)}"


def _client_route(args, kwargs, result):
    return route_of(args[1], args[2])


def _server_route(args, kwargs, result):
    return route_of(args[1], args[0].path)


def _result_len(args, kwargs, result):
    return len(result)


def _arg_len(index):
    return lambda args, kwargs, result: len(args[index])


def _effect(args, kwargs, result):
    return result.effect


# (module, class or None for a module function, attribute, span name, attribute extractor)
_LIFECYCLE = [("objrepo.repository", "Repository", op, "repository.lifecycle", None)
              for op in ("deposit", "replicate", "move", "receive_manifest", "delete")]
BOUNDARIES = {
    "wire": [
        ("objrepo.wire", "_BaseClient", "_request", "wire.client", _client_route),
        ("objrepo.wire", "_Handler", "_dispatch", "wire.dispatch", _server_route),
        ("objrepo.wire", "WireServer", "process_request", "wire.accept", None),
    ],
    "naming": [
        ("objrepo.naming", "NamingService", "register", "naming.update", None),
        ("objrepo.naming", "NamingService", "add_location", "naming.update", None),
        ("objrepo.naming", "NamingService", "remove_location", "naming.update", None),
        ("objrepo.naming", "NamingService", "resolve", "naming.resolve", None),
        ("objrepo.naming", "NamingService", "compact", "naming.compact", None),
    ],
    "typesys": [
        ("objrepo.typesys", "ContentTypeResolver", "_resolve", "typesys.resolve", None),
        ("objrepo.typesys", "ContentTypeResolver", "_fetch", "typesys.fetch", None),
        ("objrepo.typesys", None, "execute_servlet", "typesys.execute", None),
        ("objrepo.typesys", None, "check_args", "typesys.check_args", None),
        ("objrepo.typesys", None, "parse_signature", "typesys.parse", None),
        ("objrepo.typesys", None, "parse_servlet_program", "typesys.parse", None),
    ],
    "access": [
        ("objrepo.access", None, "enforce", "access.enforce", None),
        ("objrepo.access", None, "evaluate", "access.evaluate", _effect),
        ("objrepo.access", None, "parse_acl", "access.parse_acl", None),
        ("objrepo.access", None, "evaluate_acl", "access.evaluate_acl", None),
    ],
    "kernel": [
        ("objrepo.kernel", "DigitalObjectKernel", "serialize", "kernel.serialize", _result_len),
        ("objrepo.kernel", "DigitalObjectKernel", "get_dissemination", "kernel.dissemination", None),
        # repository imports deserialize_object by name, so both bindings are wrapped
        ("objrepo.kernel", None, "deserialize_object", "kernel.deserialize", _arg_len(0)),
        ("objrepo.repository", None, "deserialize_object", "kernel.deserialize", _arg_len(0)),
    ],
    "repository": [
        ("objrepo.repository", "ObjectStore", "save_bytes", "repository.store_write", _arg_len(2)),
        ("objrepo.repository", "ObjectStore", "read_bytes", "repository.store_read", None),
        ("objrepo.repository", "ObjectStore", "delete", "repository.store_delete", None),
        ("objrepo.repository", "ObjectStore", "load_all", "repository.load_all", None),
        ("objrepo.repository", "ObjectStore", "quarantine", "repository.quarantine", None),
        *_LIFECYCLE,
    ],
}
# Only in the naming process: every journal fsync.
NAMING_FSYNC = ("os", None, "fsync", "naming.fsync", None)
# Only in the load generator: datastream bytes the clients ingest.
CLIENT_INGEST = ("objrepo.wire", "RepositoryClient", "add_datastream", "user.ingest", _arg_len(3))


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self, boundaries) -> None:
        for module_name, owner_name, attr, span, extract in boundaries:
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{owner_name or ''}.{attr}")
                continue
            if not getattr(fn, "_perfbench_span", None):
                setattr(owner, attr, self._wrap(fn, span, extract))

    def _wrap(self, fn, span: str, extract):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            result = None
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                attr = None
                if extract is not None:
                    try:
                        attr = extract(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - an attribute never fails the call
                        attr = None
                tracer.spans.append((span, sid, parent, t0, t1, t1 - t0 - frame[1], attr))

        wrapper._perfbench_span = span
        return wrapper

    def dump(self, path: Path, **extra) -> None:
        self.enabled = False
        spans = list(self.spans)  # handler threads may still be finishing
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"absent": self.absent, "spans": spans, **extra}))
        tmp.replace(path)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of every traced process

# metric -> boundary span names it needs (units are in BENCHMARK.json)
PER_LAYER = {
    "wire.requests": ["wire.dispatch"],
    "wire.connections": ["wire.accept"],
    "wire.requests_per_conn": ["wire.dispatch", "wire.accept"],
    "wire.client_ms": ["wire.client"],
    "wire.server_ms": ["wire.dispatch"],
    "wire.transport_ms": ["wire.client", "wire.dispatch"],
    "wire.handler_self_ms": ["wire.dispatch"],
    "naming.updates": ["naming.update"],
    "naming.update_ms": ["naming.update"],
    "naming.resolve_ms": ["naming.resolve"],
    "naming.fsyncs": ["naming.fsync"],
    "naming.fsync_ms": ["naming.fsync"],
    "naming.compactions": ["naming.compact"],
    "naming.live_names": [],
    "typesys.resolver_lookups": ["typesys.resolve"],
    "typesys.resolver_hit_ratio": ["typesys.resolve", "typesys.fetch"],
    "typesys.fetch_ms": ["typesys.fetch"],
    "typesys.executions": ["typesys.execute"],
    "typesys.execute_self_ms": ["typesys.execute"],
    "typesys.check_args_per_diss": ["typesys.check_args", "kernel.dissemination"],
    "typesys.parse_ms": ["typesys.parse"],
    "access.decisions": ["access.evaluate"],
    "access.denies": ["access.evaluate"],
    "access.evaluate_self_ms": ["access.evaluate"],
    "access.acl_parses_per_decision": ["access.parse_acl", "access.evaluate"],
    "kernel.serialize_count": ["kernel.serialize"],
    "kernel.serialize_ms": ["kernel.serialize"],
    "kernel.serialize_bytes": ["kernel.serialize"],
    "kernel.deserialize_count": ["kernel.deserialize"],
    "kernel.deserialize_ms": ["kernel.deserialize"],
    "kernel.deserialize_bytes": ["kernel.deserialize"],
    "kernel.dissemination_self_ms": ["kernel.dissemination"],
    "repository.store_writes": ["repository.store_write"],
    "repository.store_write_bytes": ["repository.store_write"],
    "repository.store_write_ms": ["repository.store_write"],
    "repository.write_amp": ["repository.store_write", "user.ingest"],
    "repository.load_all_ms": ["repository.load_all"],
    "repository.quarantined": ["repository.quarantine"],
    "repository.lifecycle_self_ms": ["repository.lifecycle"],
    "trace.overhead_p50_ms": [],
    "trace.overhead_ops_frac": [],
}


def _mean_ms(spans) -> float:
    return sum(s[4] - s[3] for s in spans) / len(spans) / 1e6 if spans else 0.0


def _mean_self_ms(spans) -> float:
    return sum(s[5] for s in spans) / len(spans) / 1e6 if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(dumps: list[dict], client_spans: list[tuple], client_absent: list[str]):
    """Per-layer metrics from server dumps plus the generator's own spans;
    returns (metric -> value, absent boundaries, per-route wire times)."""
    by = defaultdict(list)
    absent = set(client_absent)
    live_names = None
    for dump in dumps:
        absent.update(dump["absent"])
        for s in dump["spans"]:
            by[s[0]].append(s)
        if dump.get("live_names") is not None:
            live_names = dump["live_names"]
    for s in client_spans:
        by[s[0]].append(s)

    absent_spans = set()
    for module_name, owner, attr, span, _ in [b for group in BOUNDARIES.values() for b in group] + [NAMING_FSYNC, CLIENT_INGEST]:
        if f"{module_name}:{owner or ''}.{attr}" in absent:
            absent_spans.add(span)

    dispatch, client = by["wire.dispatch"], by["wire.client"]
    routes = {}  # route -> (client calls, mean client ms, mean server ms)
    for route in sorted({s[6] for s in client}):
        cs = [s for s in client if s[6] == route]
        ss = [s for s in dispatch if s[6] == route]
        if ss:
            routes[route] = (len(cs), _mean_ms(cs), _mean_ms(ss))
    matched = sum(n for n, _, _ in routes.values())
    transport = sum(n * (c - sv) for n, c, sv in routes.values())
    updates, resolves = by["naming.update"], by["typesys.resolve"]
    evaluations = by["access.evaluate"]
    writes = by["repository.store_write"]
    values = {
        "wire.requests": len(dispatch),
        "wire.connections": len(by["wire.accept"]),
        "wire.requests_per_conn": _ratio(len(dispatch), len(by["wire.accept"])),
        "wire.client_ms": _mean_ms(client),
        "wire.server_ms": _mean_ms(dispatch),
        "wire.transport_ms": _ratio(transport, matched),
        "wire.handler_self_ms": _mean_self_ms(dispatch),
        "naming.updates": len(updates),
        "naming.update_ms": _mean_ms(updates),
        "naming.resolve_ms": _mean_ms(by["naming.resolve"]),
        "naming.fsyncs": len(by["naming.fsync"]),
        "naming.fsync_ms": _mean_ms(by["naming.fsync"]),
        "naming.compactions": len(by["naming.compact"]),
        "typesys.resolver_lookups": len(resolves),
        "typesys.resolver_hit_ratio": 1.0 - _ratio(len(by["typesys.fetch"]), len(resolves)),
        "typesys.fetch_ms": _mean_ms(by["typesys.fetch"]),
        "typesys.executions": len(by["typesys.execute"]),
        "typesys.execute_self_ms": _mean_self_ms(by["typesys.execute"]),
        "typesys.check_args_per_diss": _ratio(len(by["typesys.check_args"]), len(by["kernel.dissemination"])),
        "typesys.parse_ms": _mean_ms(by["typesys.parse"]),
        "access.decisions": len(evaluations),
        "access.denies": sum(1 for s in evaluations if s[6] == "deny"),
        "access.evaluate_self_ms": _mean_self_ms(evaluations),
        "access.acl_parses_per_decision": _ratio(len(by["access.parse_acl"]), len(evaluations)),
        "kernel.serialize_count": len(by["kernel.serialize"]),
        "kernel.serialize_ms": _mean_ms(by["kernel.serialize"]),
        "kernel.serialize_bytes": _ratio(sum(s[6] or 0 for s in by["kernel.serialize"]), len(by["kernel.serialize"])),
        "kernel.deserialize_count": len(by["kernel.deserialize"]),
        "kernel.deserialize_ms": _mean_ms(by["kernel.deserialize"]),
        "kernel.deserialize_bytes": _ratio(sum(s[6] or 0 for s in by["kernel.deserialize"]), len(by["kernel.deserialize"])),
        "kernel.dissemination_self_ms": _mean_self_ms(by["kernel.dissemination"]),
        "repository.store_writes": len(writes),
        "repository.store_write_bytes": sum(s[6] or 0 for s in writes),
        "repository.store_write_ms": _mean_ms(writes),
        "repository.write_amp": _ratio(sum(s[6] or 0 for s in writes), sum(s[6] or 0 for s in by["user.ingest"])),
        "repository.load_all_ms": _mean_ms(by["repository.load_all"]),
        "repository.quarantined": len(by["repository.quarantine"]),
        "repository.lifecycle_self_ms": _mean_self_ms(by["repository.lifecycle"]),
    }
    if live_names is not None:
        values["naming.live_names"] = live_names
    out = {}
    for name, value in values.items():
        if not set(PER_LAYER[name]) & absent_spans:
            out[name] = value
    return out, sorted(absent), routes
