#!/usr/bin/env python3
"""CPU per keep-alive name resolve, on the server and on the client.

    python3 scripts/wire_probe.py [--requests N] [--src DIR]

Serves ``objrepo serve naming`` from ``DIR`` (default: this checkout's
``src``) on a free loopback port with a journal in a temporary directory,
registers one name, warms up with 1,000 resolves, then sends N
``NamingClient.resolve`` calls for it from one thread, all on one
kept-alive connection. Prints one JSON line with, per request:

- ``server_cpu_us``: the server process's ``utime + stime`` from
  ``/proc/<pid>/stat`` (clock ticks, so keep N large enough that the
  total is many ticks);
- ``client_cpu_us``: this process's ``time.process_time()``;
- ``wall_us``: elapsed time.

Linux only (``/proc``). Stdlib only. To compare two trees, run the probe
once per tree with ``--src``, alternating, on an otherwise idle host.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP = 1000


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, in seconds."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()  # fields 3.. of proc(5)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_until_listening(port: int, proc: subprocess.Popen, seconds: float = 15.0) -> None:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit(f"wire_probe: the naming server exited with {proc.returncode}")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            time.sleep(0.05)
    sys.exit(f"wire_probe: nothing listening on port {port} after {seconds} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--requests", type=int, default=20000)
    p.add_argument("--src", type=Path, default=ROOT / "src")
    args = p.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from objrepo.wire import NamingClient

    with tempfile.TemporaryDirectory(prefix="wire_probe-") as tmp:
        port = free_port()
        config = Path(tmp) / "naming.json"
        config.write_text(json.dumps({"listen_endpoint": f"127.0.0.1:{port}",
                                      "journal_path": str(Path(tmp) / "journal.jsonl")}))
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "objrepo.cli", "serve", "naming", "--config", str(config)],
            env=env, stderr=subprocess.DEVNULL,
        )
        try:
            wait_until_listening(port, proc)
            client = NamingClient(f"127.0.0.1:{port}")
            client.register("urn:probe:one", "probe.local:1")
            for _ in range(WARMUP):
                client.resolve("urn:probe:one")
            server0, client0, wall0 = cpu_seconds(proc.pid), time.process_time(), time.perf_counter()
            for _ in range(args.requests):
                client.resolve("urn:probe:one")
            wall = time.perf_counter() - wall0
            client_cpu = time.process_time() - client0
            server_cpu = cpu_seconds(proc.pid) - server0
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    per = 1e6 / args.requests
    print(json.dumps({"src": str(src), "requests": args.requests,
                      "server_cpu_us": round(server_cpu * per, 1),
                      "client_cpu_us": round(client_cpu * per, 1),
                      "wall_us": round(wall * per, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
