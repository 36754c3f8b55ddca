"""objrepo benchmark: closed-loop wire load against real server processes.

    python3 perfbench/run.py --workload read_mix|ingest|federation \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run:

1. builds a fresh federation (``objrepo serve`` processes over loopback,
   types deposited with ``objrepo bootstrap-types``, a seeded corpus
   deposited through ``RepositoryClient``) and stops it;
2. sets up three times from a copy of that state (start, wait until every
   service answers, warm up); the third set-up stays up;
3. runs two closed-loop clients for ``--seconds``, checking every reply;
   a workload with requests of its own to time alone runs them during the
   window, each while both clients are held, and the held time is left out
   of the window;
4. restarts every service over the same state, then checks the
   federation invariants against the restarted services.

With ``--trace 1`` the window is split: its first half runs on the third
set-up, untraced, then the state is reset and a fourth set-up starts the
servers under ``launch.py`` for the traced second half. The last line of
standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
README.md next to this file records the choices.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import procs
    import spans
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import objrepo from {SRC} ({exc}); run from a source checkout")

N_CLIENTS = 2
SETUPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["read_mix", "ingest", "federation"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--wrong-expectation", action="store_true",
                   help="expect wrong bytes from each object's first method, for the smoke test")
    return p.parse_args(argv)


def quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def median(values):
    return quantile(sorted(values), 0.5)


def chunked_p99_ms(records) -> float:
    """Median, over consecutive chunks of at least 1,100 requests in
    completion order, of each chunk's 99th percentile (so each has at least
    ten samples beyond it). A host stall that hits one chunk moves this less
    than the p99 of the whole window; a slower tail everywhere moves it fully."""
    done = sorted(records, key=lambda r: r[1] + r[2])
    chunks = max(1, len(done) // 1100)
    size = len(done) // chunks
    p99s = [quantile(sorted(r[2] * 1000 for r in done[i * size:(i + 1) * size if i < chunks - 1 else None]), 0.99)
            for i in range(chunks)]
    return median(p99s)


class Window:
    """The closed loop's clock. Each client calls ``next(tid)`` before a
    step; ``solo(fn)`` holds every client between steps, runs ``fn`` with no
    other load and leaves that time out of the window's seconds."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.cond = threading.Condition()
        self.busy: set[int] = set()  # clients inside a step
        self.held = False
        self.stopped = False
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self, now: float | None = None) -> float:
        return (time.perf_counter() if now is None else now) - self.start - self.paused

    def next(self, tid: int) -> bool:
        with self.cond:
            self.leave(tid)
            self.cond.wait_for(lambda: not self.held)
            if self.stopped or self.elapsed() >= self.seconds:
                return False
            self.busy.add(tid)
            return True

    def leave(self, tid: int) -> None:
        with self.cond:
            self.busy.discard(tid)
            self.cond.notify_all()

    def solo(self, fn) -> None:
        with self.cond:
            self.held = True
            self.cond.wait_for(lambda: not self.busy)
            t0 = time.perf_counter()
        try:
            fn()
        finally:
            with self.cond:
                self.paused += time.perf_counter() - t0
                self.held = False
                self.cond.notify_all()

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self.cond.notify_all()


def disk_bytes(roots) -> int:
    return sum(f.stat().st_size for root in roots for f in root.rglob("*") if f.is_file())


class Run:
    def __init__(self, args, work: Path, units: dict[str, str]):
        self.args = args
        self.work = work
        self.units = units
        self.workload = workloads.WORKLOADS[args.workload](args.seed)
        self.cluster = procs.Cluster(SRC, work, self.workload.n_repos)
        self.fed = workloads.Federation(self.cluster.naming_endpoint, self.cluster.repo_endpoints)
        self.rng = random.Random(args.seed)
        self.log = []

    def note(self, text: str) -> None:
        print(f"perfbench: {text}", flush=True)

    # -- phases -------------------------------------------------------------

    def build(self, pristine: Path) -> float:
        """Fresh federation with the seeded corpus, stopped at the end."""
        t0 = time.perf_counter()
        self.workload.register_names(self.fed, self.cluster.journal(pristine))
        self.cluster.start(pristine)
        out = subprocess.run(
            [sys.executable, "-m", "objrepo.cli", "bootstrap-types", "--json",
             "--repo", self.fed.repos[0]],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, check=True, timeout=120)
        self.fed.types = json.loads(out.stdout)["types"]
        workloads.measure_type_bytes(self.fed)
        self.workload.build(self.fed, self.rng)
        self.cluster.stop()
        return time.perf_counter() - t0

    def setup(self, pristine: Path, state: Path, traced: bool, warm_rec) -> float:
        t0 = time.perf_counter()
        if state.exists():
            shutil.rmtree(state)
        shutil.copytree(pristine, state)
        self.cluster.start(state, traced=traced)
        self.fed.warm = workloads.warm_up(self.fed, self.rng, warm_rec)
        return time.perf_counter() - t0

    def measure(self, seconds: float, solo) -> tuple[list, float]:
        """The closed loop with N_CLIENTS threads, with the workload's solo
        requests (recorded in ``solo``) at even points of the window; returns
        (records, window seconds from the start of the loop to its last
        completion, held time left out)."""
        # The generator's own long-lived objects (corpus, expectations) are
        # moved out of the collector's reach, so its pauses stay out of the timings.
        gc.collect()
        gc.freeze()
        every = self.workload.solo_every
        n_solo = max(1, round(seconds / every)) if every else 0
        recs = [workloads.Recorder() for _ in range(N_CLIENTS)]
        window = Window(seconds)
        threads = [threading.Thread(target=self._client, args=(i, recs[i], window), daemon=True)
                   for i in range(N_CLIENTS)]
        for t in threads:
            t.start()
        try:
            for i in range(n_solo):
                due = (i + 0.5) * seconds / n_solo
                while window.elapsed() < due:
                    time.sleep(max(0.0, due - window.elapsed()))
                window.solo(lambda: self.workload.solo(self.fed, solo, i))
            for t in threads:
                t.join()
        finally:
            window.stop()
        records = [r for rec in recs for r in rec.records]
        for rec in recs:
            self.log += rec.errors
        return records, window.elapsed(max([window.start] + [r[1] + r[2] for r in records]))

    def _client(self, tid, rec, window):
        try:
            self.workload.client_loop(self.fed, tid, rec, window)
        except Exception as exc:  # noqa: BLE001 - a crashed client is a failed request
            rec.records.append(("client-crash", time.perf_counter(), 0.0, False))
            rec.errors.append(f"client {tid}: {exc!r}")
        finally:
            window.leave(tid)

    # -- the whole run ------------------------------------------------------

    def execute(self) -> dict:
        traced = self.args.trace == 1
        pristine, state = self.work / "pristine", self.work / "state"
        build_s = self.build(pristine)
        self.note(f"build {build_s:.3f} s")
        if self.args.wrong_expectation:
            for obj in self.fed.objects:
                obj.calls[0].expected += b"?"
        corpus = copy.deepcopy(self.fed.objects) if traced else None
        setups = []
        warm = workloads.Recorder()
        for i in range(SETUPS):
            if i:
                self.cluster.stop()
            setups.append(self.setup(pristine, state, False, warm))
        self.note("setups " + " ".join(f"{s:.3f}" for s in setups) + " s")

        seconds = self.args.seconds / 2 if traced else self.args.seconds
        solo = workloads.Recorder()
        window, elapsed = self.measure(seconds, solo)
        if traced:
            # Same state, same seed, same request sequence: the untraced half
            # above against the traced half below gives the tracing overhead.
            untraced = (window, elapsed)
            self.cluster.stop()
            self.fed.objects = corpus
            tracer = spans.Tracer()
            tracer.install(spans.BOUNDARIES["wire"] + [spans.CLIENT_INGEST])
            self.setup(pristine, state, True, warm)
            window, elapsed = self.measure(seconds, solo)
        measured = list(self.cluster.live)
        self.log += solo.errors
        if traced:
            tracer.enabled = False

        t0 = time.perf_counter()
        self.cluster.stop()
        self.cluster.start(state, traced=traced)
        restarted = list(self.cluster.live)
        # Printed, not a gated metric: on the machine this was tuned on its
        # run-to-run spread (0.1-0.3) exceeded any regression bound allowed.
        self.note(f"restart {time.perf_counter() - t0:.3f} s (restart_s)")
        checks = self.workload.check(self.fed)
        self.log += checks.errors
        quarantined = sum(len(list((root / "quarantine").iterdir()))
                          for root in self.cluster.storage_roots(state))
        self.cluster.stop()

        live = self.fed.objects + self.fed.warm
        user = self.fed.type_bytes + sum(o.user_bytes() * len(o.locations) for o in live if o.name)
        stored = disk_bytes(self.cluster.storage_roots(state))

        timed = window + solo.records + (untraced[0] if traced else [])
        attempted = len(timed) + len(warm.records) + len(checks.records) + 1
        failed = (sum(1 for r in timed if not r[3]) + warm.failed + checks.failed
                  + (1 if quarantined else 0))
        self.log += warm.errors
        self.report_requests(window, solo.records, elapsed)
        self.note(f"checks {len(checks.records)} requests, {checks.failed} violations; "
                  f"quarantined files {quarantined}")

        if traced:
            overhead = (untraced, (window, elapsed))
            return self.per_layer_result(tracer, measured, restarted, overhead, attempted, failed)

        lat = sorted(r[2] * 1000 for r in window)
        values = {
            "setup_s": build_s + median(setups),
            "ops_per_s": sum(1 for r in window if r[3]) / elapsed,
            "p50_ms": quantile(lat, 0.5),
            "p99_ms": chunked_p99_ms(window),
            "diss_p50_ms": median([r[2] * 1000 for r in window if r[0] == "diss"]),
            "key_p50_ms": median([r[2] * 1000 for r in timed if r[0] in self.workload.key]),
            "key2_p50_ms": median([r[2] * 1000 for r in timed if r[0] in self.workload.key2]),
            "store_bytes_per_user_byte": stored / user,
            # the servers of the measured window and of the restart, not the build's
            "server_rss_mb": max(s.maxrss_kb for s in measured + restarted) / 1024.0,
        }
        return self.result(attempted, failed, {name: {"value": values[name], "unit": unit}
                                               for name, unit in self.units.items()})

    def report_requests(self, window, solo, elapsed) -> None:
        self.note(f"window {elapsed:.3f} s, {len(window)} requests, "
                  f"{sum(1 for r in window if not r[3])} failed; {len(solo)} requests timed alone in it")
        for kind in sorted({r[0] for r in window + solo}):
            lat = sorted(r[2] * 1000 for r in window + solo if r[0] == kind)
            self.note(f"  {kind:<20} n={len(lat):<6} p50={quantile(lat, 0.5):.3f} ms "
                      f"p99={quantile(lat, 0.99):.3f} ms")
        if len(window) < 1000:
            self.note(f"warning: {len(window)} requests give fewer than 10 samples beyond p99")
        for line in self.log[:20]:
            self.note(f"error: {line}")

    def per_layer_result(self, tracer, measured, restarted, overhead, attempted, failed) -> dict:
        dumps = []
        for svc in measured + restarted:
            if not svc.trace_out.exists():  # killed before it could write its spans
                self.note(f"error: no spans from {svc.role} at {svc.endpoint}")
                failed += 1
                continue
            dump = json.loads(svc.trace_out.read_text())
            if svc in restarted:  # the restart contributes its start-up work only
                dump["spans"] = [s for s in dump["spans"] if s[0] in RESTART_SPANS]
            dumps.append(dump)
        values, absent, routes = spans.per_layer(dumps, tracer.spans, tracer.absent)
        p50 = [quantile(sorted(r[2] * 1000 for r in recs), 0.5) for recs, _ in overhead]
        ops = [sum(1 for r in recs if r[3]) / elapsed for recs, elapsed in overhead]
        values["trace.overhead_p50_ms"] = p50[1] - p50[0]
        values["trace.overhead_ops_frac"] = 1.0 - ops[1] / ops[0]
        self.note(f"untraced half: p50 {p50[0]:.3f} ms, {ops[0]:.1f} ops/s; "
                  f"traced half: p50 {p50[1]:.3f} ms, {ops[1]:.1f} ops/s")
        for name in absent:
            self.note(f"absent boundary: {name}")
        for route, (n, client_ms, server_ms) in routes.items():
            self.note(f"  route {route:<44} n={n:<6} client={client_ms:.3f} ms server={server_ms:.3f} ms "
                      f"transport={client_ms - server_ms:.3f} ms")
        for name, value in values.items():
            self.note(f"  {name:<34} {value}")
        return self.result(attempted, failed, {name: {"value": value, "unit": self.units[name]}
                                               for name, value in values.items()})

    def result(self, attempted, failed, metrics) -> dict:
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


RESTART_SPANS = {"repository.load_all", "repository.quarantine", "kernel.deserialize"}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "objrepo" / "__init__.py").is_file():
        print(f"perfbench: no objrepo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work, units)
    run.note(f"naming {run.cluster.naming_endpoint} repos {' '.join(run.cluster.repo_endpoints)}")
    try:
        result = run.execute()
    except KeyboardInterrupt:
        print("perfbench: interrupted; every server stopped", file=sys.stderr)
        return 130
    finally:
        run.cluster.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
