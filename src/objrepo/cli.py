"""Operator command line: authoring, access, and federation management.

Every command talks to a repository or naming service over the wire; the
default endpoints come from --repo/--naming flags or the OBJREPO_REPO /
OBJREPO_NAMING environment variables (flags win). Failures exit nonzero
with the machine-readable error code on stderr; --json emits the wire
response body for scripting.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import signal
import sys
import time

from . import shape
from .api import NAMING_OPS, REPOSITORY_OPS
from .bootstrap import bootstrap_types
from .errors import BadArguments, ObjectRepositoryError
from .kernel import PRIMITIVE_TARGET
from .naming import load_naming_config
from .repository import load_repository_config
from .wire import NamingClient, RepositoryClient, serve_naming, serve_repository


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", default=os.environ.get("OBJREPO_REPO"),
                        help="repository endpoint host:port (env OBJREPO_REPO)")
    parser.add_argument("--naming", default=os.environ.get("OBJREPO_NAMING"),
                        help="naming endpoint host:port (env OBJREPO_NAMING)")
    parser.add_argument("--principal", default=os.environ.get("OBJREPO_PRINCIPAL", "anonymous"),
                        help="principal sent with each request (env OBJREPO_PRINCIPAL)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _repo_client(args) -> RepositoryClient:
    if not args.repo:
        raise BadArguments("no repository endpoint; pass --repo or set OBJREPO_REPO")
    return RepositoryClient(
        shape.check(shape.ENDPOINT, args.repo, BadArguments, "--repo"), principal=args.principal
    )


def _naming_client(args) -> NamingClient:
    if not args.naming:
        raise BadArguments("no naming endpoint; pass --naming or set OBJREPO_NAMING")
    return NamingClient(shape.check(shape.ENDPOINT, args.naming, BadArguments, "--naming"))


def _parse_bindings(pairs) -> dict[str, list[str]]:
    bindings: dict[str, list[str]] = {}
    for pair in pairs or []:
        sid, eq, ids = pair.partition("=")
        if not eq or not sid:
            raise BadArguments(f"--bind expects sid=DS1,DS2,... got {pair!r}")
        bindings[sid] = [d for d in ids.split(",") if d]
    return bindings


def _parse_args_option(pairs) -> dict[str, str]:
    args: dict[str, str] = {}
    for pair in pairs or []:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise BadArguments(f"--arg expects key=value, got {pair!r}")
        args[key] = value
    return args


def _emit(args, human: str | None, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    elif human:
        print(human)


_OPERATIONS = {op.name: op for op in REPOSITORY_OPS + NAMING_OPS}


def _run(args, client, name: str, *values, human=str) -> int:
    """Run one operation; --json prints the reply document the wire carries
    for it, otherwise ``human(result)`` is printed."""
    op = _OPERATIONS[name]
    result = getattr(client, name)(*values)
    _emit(args, None if result is None else human(result), op.encode(op.bind(values, {}), result))
    return 0


# -- obj subcommands ---------------------------------------------------------


def _cmd_obj_create(args) -> int:
    return _run(args, _repo_client(args), "create_object")


def _cmd_obj_add_stream(args) -> int:
    if args.file == "-":
        content = sys.stdin.buffer.read()
    else:
        with open(args.file, "rb") as fh:
            content = fh.read()
    return _run(args, _repo_client(args), "add_datastream", args.handle, args.mime, content)


def _cmd_obj_add_disseminator(args) -> int:
    bindings = _parse_bindings(args.bind)
    return _run(
        args, _repo_client(args), "add_disseminator", args.handle, args.type, args.servlet, bindings
    )


def _cmd_obj_set_access(args) -> int:
    target = PRIMITIVE_TARGET if args.target.lower() == "primitive" else args.target
    op = "set_access_manager" if args.object.startswith("urn:") else "set_access_manager_staged"
    bindings = _parse_bindings(args.bind)
    return _run(args, _repo_client(args), op, args.object, target, args.scheme, bindings)


def _cmd_obj_deposit(args) -> int:
    return _run(args, _repo_client(args), "deposit", args.handle)


def _cmd_obj_types(args) -> int:
    return _run(args, _repo_client(args), "list_types", args.urn, human="\n".join)


def _methods_text(methods: list[dict]) -> str:
    return "\n".join(
        "{}({}) -> {}".format(
            m["name"],
            ", ".join(f"{p['name']}: {p['type']}" for p in m["params"]),
            m["returns_mime"],
        )
        for m in methods
    )


def _cmd_obj_methods(args) -> int:
    return _run(args, _repo_client(args), "list_methods", args.urn, args.type, human=_methods_text)


def _streams_text(streams: list[dict]) -> str:
    return "\n".join("{id}\t{mime}\t{length}".format(**s) for s in streams)


def _cmd_obj_streams(args) -> int:
    return _run(args, _repo_client(args), "get_datastreams", args.urn, human=_streams_text)


def _cmd_obj_get(args) -> int:
    mime, data = _repo_client(args).get_dissemination(
        args.urn, args.type, args.method, _parse_args_option(args.arg)
    )
    if args.json:
        print(json.dumps({"mime": mime, "content_b64": base64.b64encode(data).decode("ascii")}))
        return 0
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    print(mime, file=sys.stderr)
    return 0


def _cmd_obj_replicate(args) -> int:
    return _run(args, _repo_client(args), "replicate", args.urn, args.to)


def _cmd_obj_move(args) -> int:
    return _run(args, _repo_client(args), "move", args.urn, args.to)


def _cmd_obj_delete(args) -> int:
    return _run(args, _repo_client(args), "delete", args.urn)


def _cmd_name_resolve(args) -> int:
    return _run(args, _naming_client(args), "resolve", args.urn, human="\n".join)


def _cmd_bootstrap_types(args) -> int:
    minted = bootstrap_types(_repo_client(args))
    lines = [f"{label} {urn}" for label, urn in minted.items()]
    _emit(args, "\n".join(lines), {"types": minted})
    return 0


_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _serve(what: str, start, config):
    """Run ``start(config)``'s server until SIGINT or SIGTERM, stop it and
    return its service. The server's threads start with both signals
    blocked, so the signals reach the main thread and end its sleep."""
    signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        server, service = start(config)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    print(f"{what} serving on {server.endpoint}", file=sys.stderr)
    for signum in _STOP_SIGNALS:  # SIGINT too, which a shell's `cmd &` ignores
        signal.signal(signum, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return service


def _cmd_serve_repo(args) -> int:
    config = load_repository_config(args.config)
    _serve(f"repository {config.repo_name}", serve_repository, config)
    return 0


def _cmd_serve_naming(args) -> int:
    _serve("naming service", serve_naming, load_naming_config(args.config)).close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="objrepo", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    obj = top.add_parser("obj", help="author and access digital objects")
    obj_sub = obj.add_subparsers(dest="subcommand", required=True)

    def obj_cmd(name, fn, help=None):
        p = obj_sub.add_parser(name, help=help)
        _common_options(p)
        p.set_defaults(fn=fn)
        return p

    obj_cmd("create", _cmd_obj_create, "stage a new empty object")

    p = obj_cmd("add-stream", _cmd_obj_add_stream, "add a datastream to a staged object")
    p.add_argument("handle")
    p.add_argument("--mime", required=True)
    p.add_argument("--file", required=True, help="payload path, or - for stdin")

    p = obj_cmd("add-disseminator", _cmd_obj_add_disseminator)
    p.add_argument("handle")
    p.add_argument("--type", required=True, help="content-type URN")
    p.add_argument("--servlet", help="mechanism URN (omitted for built-in kinds)")
    p.add_argument("--bind", action="append", metavar="SID=DS1,DS2")

    p = obj_cmd("set-access", _cmd_obj_set_access)
    p.add_argument("object", help="staging handle or deposited URN")
    p.add_argument("--target", required=True, help="primitive or DISSn")
    p.add_argument("--scheme", required=True, help="access scheme URN")
    p.add_argument("--bind", action="append", metavar="SID=DS1")

    p = obj_cmd("deposit", _cmd_obj_deposit)
    p.add_argument("handle")

    for name, fn in (("types", _cmd_obj_types), ("streams", _cmd_obj_streams)):
        p = obj_cmd(name, fn)
        p.add_argument("urn")

    p = obj_cmd("methods", _cmd_obj_methods)
    p.add_argument("urn")
    p.add_argument("--type", required=True)

    p = obj_cmd("get", _cmd_obj_get, "run a dissemination and write its bytes")
    p.add_argument("urn")
    p.add_argument("--type", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--arg", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", help="write bytes to this file instead of stdout")

    for name, fn in (("replicate", _cmd_obj_replicate), ("move", _cmd_obj_move)):
        p = obj_cmd(name, fn)
        p.add_argument("urn")
        p.add_argument("--to", required=True, help="target repository endpoint")

    p = obj_cmd("delete", _cmd_obj_delete)
    p.add_argument("urn")

    name_parser = top.add_parser("name", help="naming service queries")
    name_sub = name_parser.add_subparsers(dest="subcommand", required=True)
    p = name_sub.add_parser("resolve")
    _common_options(p)
    p.add_argument("urn")
    p.set_defaults(fn=_cmd_name_resolve)

    p = top.add_parser("bootstrap-types", help="deposit the shipped type objects")
    _common_options(p)
    p.set_defaults(fn=_cmd_bootstrap_types)

    serve = top.add_parser("serve", help="run a service from a config file")
    serve_sub = serve.add_subparsers(dest="subcommand", required=True)
    p = serve_sub.add_parser("repo")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_serve_repo, json=False)
    p = serve_sub.add_parser("naming")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_serve_naming, json=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ObjectRepositoryError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
