"""Server processes: configs, start, readiness, teardown and reaping.

Each service runs as ``objrepo serve naming|repo`` (or through the tracing
launcher) in its own process group. Teardown sends SIGINT, which the serve
loop answers with a clean shutdown, then SIGKILL after a grace period, and
always reaps the child with ``wait4`` so its peak resident memory is known.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from objrepo.errors import NamingUnavailable, NoSuchObject, NotRegistered, TargetUnreachable
from objrepo.wire import NamingClient, RepositoryClient

PERFBENCH = Path(__file__).resolve().parent
PROBE_URN = "urn:bench-probe:ready"
STOP_GRACE_S = 10.0
READY_TIMEOUT_S = 60.0


def free_ports(n: int) -> list[int]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


@dataclass
class Service:
    role: str  # "naming" | "repo"
    endpoint: str
    proc: subprocess.Popen
    trace_out: Path | None
    returncode: int | None = None
    maxrss_kb: int = 0


class Cluster:
    """One naming service plus ``n_repos`` repositories on fixed loopback
    ports, so names registered in one lifecycle resolve in the next."""

    def __init__(self, src: Path, work: Path, n_repos: int):
        self.src = src
        self.work = work
        ports = free_ports(n_repos + 1)
        self.naming_endpoint = f"127.0.0.1:{ports[0]}"
        self.repo_endpoints = [f"127.0.0.1:{p}" for p in ports[1:]]
        self.live: list[Service] = []
        self.reaped: list[Service] = []
        self._spawned = 0

    def write_configs(self, state: Path) -> list[tuple[str, Path, str]]:
        """Configs for a state directory: (role, config path, endpoint)."""
        state.mkdir(parents=True, exist_ok=True)
        out = []
        naming_cfg = state / "naming.json"
        naming_cfg.write_text(json.dumps({
            "listen_endpoint": self.naming_endpoint,
            "journal_path": str(self.journal(state)),
        }))
        out.append(("naming", naming_cfg, self.naming_endpoint))
        for i, endpoint in enumerate(self.repo_endpoints, start=1):
            cfg = state / f"repo-r{i}.json"
            cfg.write_text(json.dumps({
                "repo_name": f"urn:bench:repo-r{i}",
                "storage_root": str(state / f"r{i}"),
                "listen_endpoint": endpoint,
                "naming_endpoint": self.naming_endpoint,
                "urn_namespace": f"bench-r{i}",
            }))
            out.append(("repo", cfg, endpoint))
        return out

    @staticmethod
    def journal(state: Path) -> Path:
        return state / "naming" / "journal.jsonl"

    def storage_roots(self, state: Path) -> list[Path]:
        return [state / f"r{i}" for i in range(1, len(self.repo_endpoints) + 1)]

    def start(self, state: Path, traced: bool = False) -> None:
        """Start every service over ``state`` and wait until all answer."""
        if self.live:
            raise RuntimeError("cluster already running")
        env = dict(os.environ, PYTHONPATH=str(self.src))
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        for role, cfg, endpoint in self.write_configs(state):
            self._spawned += 1
            tag = f"{self._spawned:03d}-{role}-{endpoint.rsplit(':', 1)[1]}"
            trace_out = self.work / "spans" / f"{tag}.json" if traced else None
            if trace_out is not None:
                trace_out.parent.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, str(PERFBENCH / "launch.py"), str(trace_out)]
            else:
                cmd = [sys.executable, "-m", "objrepo.cli"]
            cmd += ["serve", role, "--config", str(cfg)]
            with open(logs / f"{tag}.log", "wb") as log:
                proc = subprocess.Popen(cmd, env=env, cwd=self.work, stdin=subprocess.DEVNULL,
                                        stdout=log, stderr=subprocess.STDOUT,
                                        start_new_session=True)
            self.live.append(Service(role, endpoint, proc, trace_out))
        self._wait_ready()

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for svc in self.live:
            while True:
                if self._reap(svc, block=False):
                    raise RuntimeError(f"{svc.role} at {svc.endpoint} exited with {svc.returncode}")
                if _answers(svc):
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{svc.role} at {svc.endpoint} did not answer")
                time.sleep(0.005)

    def stop(self) -> None:
        """SIGINT every live service, SIGKILL what outlives the grace
        period, and reap all of them. Safe to call at any time."""
        for svc in self.live:
            _killpg(svc, signal.SIGINT)
        deadline = time.monotonic() + STOP_GRACE_S
        pending = list(self.live)
        while pending and time.monotonic() < deadline:
            pending = [s for s in pending if not self._reap(s, block=False)]
            if pending:
                time.sleep(0.005)
        for svc in pending:
            _killpg(svc, signal.SIGKILL)
            self._reap(svc, block=True)
        self.reaped.extend(self.live)
        self.live = []

    @staticmethod
    def _reap(svc: Service, block: bool) -> bool:
        if svc.returncode is not None:
            return True
        try:
            pid, status, usage = os.wait4(svc.proc.pid, 0 if block else os.WNOHANG)
        except ChildProcessError:
            svc.returncode = svc.proc.returncode if svc.proc.returncode is not None else -1
            return True
        if pid == 0:
            return False
        svc.returncode = os.waitstatus_to_exitcode(status)
        svc.proc.returncode = svc.returncode  # keep Popen from waiting again
        svc.maxrss_kb = usage.ru_maxrss
        return True


def _killpg(svc: Service, signum: int) -> None:
    if svc.returncode is None:
        try:
            os.killpg(svc.proc.pid, signum)
        except ProcessLookupError:
            pass


def _answers(svc: Service) -> bool:
    """True once the service returns a protocol answer (the error envelope
    for an unknown name counts). A plain connect comes first, so polling a
    service that is still starting costs next to nothing."""
    host, port = svc.endpoint.rsplit(":", 1)
    try:
        socket.create_connection((host, int(port)), timeout=1.0).close()
    except OSError:
        return False
    try:
        if svc.role == "naming":
            NamingClient(svc.endpoint, timeout=2.0).resolve(PROBE_URN)
        else:
            RepositoryClient(svc.endpoint, timeout=2.0).list_types(PROBE_URN)
    except (NotRegistered, NoSuchObject):
        return True
    except (NamingUnavailable, TargetUnreachable):
        return False
    return True
