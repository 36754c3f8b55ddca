"""Smoke test of the benchmark itself, on short windows (about three minutes).

    python3 perfbench/smoke.py

Checks that every workload runs clean and prints every metric
BENCHMARK.json names, that a deliberately wrong expectation is counted as a
failure, that an interrupted run exits without a result, that a directory
without the sources is refused, and that no run leaves a listener behind.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, "perfbench/run.py"]


def listening(stdout: str) -> list[str]:
    """Endpoints the run announced that still accept connections."""
    m = re.search(r"perfbench: naming (\S+) repos (.*)", stdout)
    assert m, "run did not announce its endpoints"
    left = []
    for endpoint in [m.group(1), *m.group(2).split()]:
        host, port = endpoint.rsplit(":", 1)
        with socket.socket() as s:
            s.settimeout(0.5)
            if s.connect_ex((host, int(port))) == 0:
                left.append(endpoint)
    return left


def run(*args: str, timeout: float = 180) -> tuple[subprocess.CompletedProcess, dict | None]:
    out = subprocess.run(RUN + ["--seconds", "2", *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=timeout)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    assert not listening(out.stdout), f"listener left behind by {args}"
    return out, result


def check_metrics(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    missing = {spec["name"] for spec in SPEC[kind]} - set(result["metrics"])
    assert not missing, f"missing {sorted(missing)}"


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        out, result = run("--workload", workload, "--seed", "1", "--trace", "0")
        assert out.returncode == 0 and result, out.stderr[-2000:]
        assert result["correct"] and result["failed"] == 0, out.stdout[-3000:]
        check_metrics(result, "end_to_end")
        print(f"ok   {workload}: {result['attempted']} requests checked, 0 failed")

    out, result = run("--workload", "federation", "--seed", "2", "--trace", "1")
    assert out.returncode == 0 and result and result["correct"], out.stdout[-3000:]
    check_metrics(result, "per_layer")
    print("ok   traced run reports every per-layer metric")

    out, result = run("--workload", "read_mix", "--seed", "3", "--trace", "0", "--wrong-expectation")
    assert out.returncode == 0 and result, out.stderr[-2000:]
    assert not result["correct"] and result["failed"] > 0, result
    print(f"ok   wrong expectation counted: {result['failed']} of {result['attempted']} failed")

    proc = subprocess.Popen(RUN + ["--seconds", "30", "--workload", "read_mix", "--seed", "4",
                                   "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    seen = []
    for line in proc.stdout:
        seen.append(line)
        if line.startswith("perfbench: setups"):
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            break
    rest, _ = proc.communicate(timeout=60)
    stdout = "".join(seen) + rest
    assert proc.returncode != 0, "interrupted run exited 0"
    assert '"metrics"' not in stdout, "interrupted run printed a result"
    assert not listening(stdout), "listener left behind by an interrupted run"
    print("ok   interrupted run stopped every server and printed no result")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "read_mix", "--seed", "1",
                          "--seconds", "2", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                         timeout=180)
    shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print("ok   a directory without the sources is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
