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
from .api import DEFAULT_PRINCIPAL, NAMING_OPS, REPOSITORY_OPS
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
    parser.add_argument("--principal", default=os.environ.get("OBJREPO_PRINCIPAL", DEFAULT_PRINCIPAL),
                        help="principal sent with each request (env OBJREPO_PRINCIPAL)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _client(args, naming: bool = False) -> RepositoryClient | NamingClient:
    option, what = ("naming", "naming") if naming else ("repo", "repository")
    endpoint = getattr(args, option)
    if not endpoint:
        raise BadArguments(f"no {what} endpoint; pass --{option} or set OBJREPO_{option.upper()}")
    endpoint = shape.check(shape.ENDPOINT, endpoint, BadArguments, f"--{option}")
    return NamingClient(endpoint) if naming else RepositoryClient(endpoint, principal=args.principal)


def _pairs(pairs, expects: str) -> dict[str, str]:
    """Repeated ``key=value`` options as a dict; ``expects`` opens the error
    for a malformed pair."""
    result = {}
    for pair in pairs or []:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise BadArguments(f"{expects} got {pair!r}")
        result[key] = value
    return result


def _bindings(pairs) -> dict[str, list[str]]:
    ids = _pairs(pairs, "--bind expects sid=DS1,DS2,...")
    return {sid: [d for d in text.split(",") if d] for sid, text in ids.items()}


def _payload(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


#: the value a row argument takes, from the option text stored under its name
_CONVERSIONS = {"content": _payload, "bindings": _bindings}


def _emit(args, human: str | None, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    elif human:
        print(human)


_OPERATIONS = {op.name: op for op in REPOSITORY_OPS + NAMING_OPS}


def _run(args) -> int:
    """Run the row named ``args.op`` on the arguments argparse stored under
    the row's argument names; --json prints the reply document the wire
    carries for it, otherwise ``args.human(result)`` is printed."""
    op = _OPERATIONS[args.op]
    values = {}
    for a in op.args:
        if a.where != "x-principal":  # the client sends --principal
            # an optional argument no option sets (kind) is left to the service
            value = getattr(args, a.name, None)
            values[a.name] = _CONVERSIONS[a.name](value) if a.name in _CONVERSIONS else value
    result = getattr(_client(args, op in NAMING_OPS), op.name)(**values)
    _emit(args, None if result is None else args.human(result), op.encode(values, result))
    return 0


def _set_access(args) -> int:
    """A URN names a deposited object, anything else a staging handle."""
    if args.target.lower() == "primitive":
        args.target = PRIMITIVE_TARGET
    args.name = args.handle
    args.op = "set_access_manager" if args.handle.startswith("urn:") else "set_access_manager_staged"
    return _run(args)


def _methods_text(methods: list[dict]) -> str:
    return "\n".join(
        "{}({}) -> {}".format(
            m["name"],
            ", ".join(f"{p['name']}: {p['type']}" for p in m["params"]),
            m["returns_mime"],
        )
        for m in methods
    )


def _streams_text(streams: list[dict]) -> str:
    return "\n".join("{id}\t{mime}\t{length}".format(**s) for s in streams)


def _get(args) -> int:
    mime, data = _client(args).get_dissemination(
        args.urn, args.type, args.method, _pairs(args.arg, "--arg expects key=value,")
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


def _bootstrap_types(args) -> int:
    minted = bootstrap_types(_client(args))
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


def _serve_repo(args) -> int:
    config = load_repository_config(args.config)
    _serve(f"repository {config.repo_name}", serve_repository, config)
    return 0


def _serve_naming(args) -> int:
    _serve("naming service", serve_naming, load_naming_config(args.config)).close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Each command that runs one operation row stores its positionals and
    options under the row's argument names (``dest``, with ``metavar``
    keeping the help text) and names the row for :func:`_run`."""
    parser = argparse.ArgumentParser(prog="objrepo", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    def command(sub, name, op=None, help=None, fn=_run, human=str):
        p = sub.add_parser(name, help=help)
        _common_options(p)
        p.set_defaults(fn=fn, op=op, human=human)
        return p

    obj = top.add_parser("obj", help="author and access digital objects")
    obj_sub = obj.add_subparsers(dest="subcommand", required=True)

    command(obj_sub, "create", "create_object", "stage a new empty object")

    p = command(obj_sub, "add-stream", "add_datastream", "add a datastream to a staged object")
    p.add_argument("handle")
    p.add_argument("--mime", required=True)
    p.add_argument("--file", dest="content", metavar="FILE", required=True,
                   help="payload path, or - for stdin")

    p = command(obj_sub, "add-disseminator", "add_disseminator")
    p.add_argument("handle")
    p.add_argument("--type", dest="content_type", metavar="TYPE", required=True,
                   help="content-type URN")
    p.add_argument("--servlet", help="mechanism URN (omitted for built-in kinds)")
    p.add_argument("--bind", dest="bindings", action="append", metavar="SID=DS1,DS2")

    p = command(obj_sub, "set-access", fn=_set_access)
    p.add_argument("handle", metavar="object", help="staging handle or deposited URN")
    p.add_argument("--target", required=True, help="primitive or DISSn")
    p.add_argument("--scheme", required=True, help="access scheme URN")
    p.add_argument("--bind", dest="bindings", action="append", metavar="SID=DS1")

    command(obj_sub, "deposit", "deposit").add_argument("handle")

    for name, op, human in (("types", "list_types", "\n".join),
                            ("streams", "get_datastreams", _streams_text)):
        command(obj_sub, name, op, human=human).add_argument("name", metavar="urn")

    p = command(obj_sub, "methods", "list_methods", human=_methods_text)
    p.add_argument("name", metavar="urn")
    p.add_argument("--type", dest="type_urn", metavar="TYPE", required=True)

    p = command(obj_sub, "get", help="run a dissemination and write its bytes", fn=_get)
    p.add_argument("urn")
    p.add_argument("--type", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--arg", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", help="write bytes to this file instead of stdout")

    for name in ("replicate", "move"):
        p = command(obj_sub, name, name)
        p.add_argument("name", metavar="urn")
        p.add_argument("--to", dest="target", metavar="TO", required=True,
                       help="target repository endpoint")

    command(obj_sub, "delete", "delete").add_argument("name", metavar="urn")

    name_parser = top.add_parser("name", help="naming service queries")
    name_sub = name_parser.add_subparsers(dest="subcommand", required=True)
    p = name_sub.add_parser("resolve")  # unlisted in `name --help`, unlike the obj commands
    _common_options(p)
    p.add_argument("name", metavar="urn")
    p.set_defaults(fn=_run, op="resolve", human="\n".join)

    command(top, "bootstrap-types", help="deposit the shipped type objects", fn=_bootstrap_types)

    serve = top.add_parser("serve", help="run a service from a config file")
    serve_sub = serve.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("repo", _serve_repo), ("naming", _serve_naming)):
        p = serve_sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.set_defaults(fn=fn, json=False)

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
