"""Run an objrepo service with span recording around its module boundaries.

    python3 perfbench/launch.py SPANS_OUT serve naming|repo --config CONFIG

The arguments after SPANS_OUT are passed to ``objrepo.cli.main`` unchanged.
Spans are recorded from the start and written to SPANS_OUT when the service
exits (SIGINT stops it cleanly).
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

from spans import BOUNDARIES, NAMING_FSYNC, Tracer


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    role = cli_args[1] if len(cli_args) > 1 else ""
    tracer = Tracer()
    for group in BOUNDARIES.values():
        tracer.install(group)
    if role == "naming":
        tracer.install([NAMING_FSYNC])

    import objrepo.cli as cli

    services = []
    serve_naming, serve_repository = cli.serve_naming, cli.serve_repository

    def serving(start):
        # The server threads start with SIGINT blocked, so the kernel delivers
        # it to the main thread, whose sleep it must interrupt to stop the service.
        def wrapped(*args, **kwargs):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                return start(*args, **kwargs)
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        return wrapped

    def capture_naming(config):
        server, service = serve_naming(config)
        services.append(service)
        return server, service

    cli.serve_naming = serving(capture_naming)
    cli.serve_repository = serving(serve_repository)
    try:
        return cli.main(cli_args)
    finally:
        live = len(services[0].names()) if services else None
        tracer.dump(out, pid=os.getpid(), role=role, live_names=live)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
