"""Operator CLI walkthrough and per-command behavior over a live wire pair."""

from __future__ import annotations

import base64
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ACL_ALICE_ALL, EXPECTED_DC, EXPECTED_ELEMENTS, MARC_FIXTURE, make_wire_federation
from objrepo import cli
from objrepo.wire import NamingClient, RepositoryClient


@pytest.fixture(scope="module")
def fed(tmp_path_factory):
    federation = make_wire_federation(tmp_path_factory.mktemp("cli"), n_repos=2, with_types=False)
    yield federation
    federation.stop()


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_full_authoring_walkthrough(fed, capsys, tmp_path):
    repo = ["--repo", fed.servers[0].endpoint]

    types = run_json(capsys, "bootstrap-types", *repo)["types"]
    assert set(types) >= {"type-dc", "mech-marc2dc", "acl-v1"}

    handle = run_json(capsys, "obj", "create", *repo)["handle"]

    marc_file = tmp_path / "record.marc"
    marc_file.write_bytes(MARC_FIXTURE)
    ds_marc = run_json(
        capsys, "obj", "add-stream", handle, "--mime", "application/x-marc-lines",
        "--file", str(marc_file), *repo,
    )["id"]

    acl_file = tmp_path / "policy.json"
    acl_file.write_bytes(ACL_ALICE_ALL)
    ds_acl = run_json(
        capsys, "obj", "add-stream", handle, "--mime", "application/x-fedora-acl+json",
        "--file", str(acl_file), *repo,
    )["id"]

    diss = run_json(
        capsys, "obj", "add-disseminator", handle, "--type", types["type-dc"],
        "--servlet", types["mech-marc2dc"], "--bind", f"marc={ds_marc}", *repo,
    )["id"]

    run_json(
        capsys, "obj", "set-access", handle, "--target", diss, "--scheme", types["acl-v1"],
        "--bind", f"acl={ds_acl}", *repo,
    )

    name = run_json(capsys, "obj", "deposit", handle, *repo)["name"]

    code, out, _ = run(capsys, "obj", "types", name, *repo)
    assert code == 0 and out.strip() == types["type-dc"]

    code, out, _ = run(capsys, "obj", "methods", name, "--type", types["type-dc"], *repo)
    assert code == 0
    assert out.splitlines() == [
        "getDCField(field: string) -> text/plain",
        "getDCRecord() -> application/x-dc-lines",
    ]

    code, out, err = run(
        capsys, "obj", "get", name, "--type", types["type-dc"], "--method", "getDCField",
        "--arg", "field=Creator", "--principal", "alice", *repo,
    )
    assert code == 0
    assert out == EXPECTED_ELEMENTS["Creator"].decode()
    assert err.strip() == "text/plain"

    code, out, err = run(
        capsys, "obj", "get", name, "--type", types["type-dc"], "--method", "getDCField",
        "--arg", "field=Creator", "--principal", "mallory", *repo,
    )
    assert code == 1 and out == ""
    assert err.startswith("ACCESS_DENIED")

    # keep shared state for the remaining module tests
    fed.types = types
    fed.walkthrough_name = name


def test_get_writes_out_file(fed, capsys, tmp_path):
    out_path = tmp_path / "record.dc"
    code, out, err = run(
        capsys, "obj", "get", fed.walkthrough_name, "--type", fed.types["type-dc"],
        "--method", "getDCRecord", "--principal", "alice", "--out", str(out_path),
        "--repo", fed.servers[0].endpoint,
    )
    assert code == 0 and out == ""
    assert err.strip() == "application/x-dc-lines"
    assert out_path.read_bytes() == EXPECTED_DC


def test_get_json_carries_mime_and_base64_bytes(fed, capsys):
    doc = run_json(
        capsys, "obj", "get", fed.walkthrough_name, "--type", fed.types["type-dc"],
        "--method", "getDCRecord", "--principal", "alice", "--repo", fed.servers[0].endpoint,
    )
    assert doc == {"mime": "application/x-dc-lines",
                   "content_b64": base64.b64encode(EXPECTED_DC).decode("ascii")}


def test_streams_listing(fed, capsys):
    doc = run_json(capsys, "obj", "streams", fed.walkthrough_name,
                   "--repo", fed.servers[0].endpoint)
    assert [d["id"] for d in doc["datastreams"]] == ["DS1", "DS2"]
    code, out, _ = run(capsys, "obj", "streams", fed.walkthrough_name,
                       "--repo", fed.servers[0].endpoint)
    assert code == 0 and out.splitlines()[0].startswith("DS1\tapplication/x-marc-lines\t")


def test_name_resolve_and_federation_commands(fed, capsys):
    repo0 = ["--repo", fed.servers[0].endpoint]
    naming = ["--naming", fed.naming_server.endpoint]
    name = fed.walkthrough_name

    doc = run_json(capsys, "name", "resolve", name, *naming)
    assert doc["locations"] == [fed.servers[0].endpoint]

    code, _, _ = run(capsys, "obj", "replicate", name, "--to", fed.servers[1].endpoint, *repo0)
    assert code == 0
    doc = run_json(capsys, "name", "resolve", name, *naming)
    assert doc["locations"] == [fed.servers[0].endpoint, fed.servers[1].endpoint]

    code, out, err = run(
        capsys, "obj", "get", name, "--type", fed.types["type-dc"], "--method", "getDCField",
        "--arg", "field=Date", "--principal", "alice", "--repo", fed.servers[1].endpoint,
    )
    assert code == 0 and out == "1851"

    code, _, _ = run(capsys, "obj", "delete", name, "--repo", fed.servers[1].endpoint)
    assert code == 0
    doc = run_json(capsys, "name", "resolve", name, *naming)
    assert doc["locations"] == [fed.servers[0].endpoint]

    code, _, _ = run(capsys, "obj", "move", name, "--to", fed.servers[1].endpoint, *repo0)
    assert code == 0
    doc = run_json(capsys, "name", "resolve", name, *naming)
    assert doc["locations"] == [fed.servers[1].endpoint]
    fed.walkthrough_home = 1


def test_types_on_plain_object_is_empty_and_ok(fed, capsys):
    handle = run_json(capsys, "obj", "create", "--repo", fed.servers[0].endpoint)["handle"]
    doc = run_json(capsys, "obj", "deposit", handle, "--repo", fed.servers[0].endpoint)
    code, out, err = run(capsys, "obj", "types", doc["name"], "--repo", fed.servers[0].endpoint)
    assert (code, out) == (0, "")
    assert run_json(capsys, "obj", "types", doc["name"],
                    "--repo", fed.servers[0].endpoint) == {"types": []}


def test_endpoints_from_environment(fed, capsys, monkeypatch):
    monkeypatch.setenv("OBJREPO_REPO", fed.servers[1].endpoint)
    monkeypatch.setenv("OBJREPO_PRINCIPAL", "alice")
    code, out, _ = run(capsys, "obj", "types", fed.walkthrough_name)
    assert code == 0 and out.strip() == fed.types["type-dc"]


def test_error_reports_module_code_on_stderr(fed, capsys, tmp_path):
    code, out, err = run(capsys, "obj", "types", "urn:test:missing",
                         "--repo", fed.servers[0].endpoint)
    assert code == 1 and out == ""
    assert err.startswith("NO_SUCH_OBJECT:")

    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x")
    code, _, err = run(capsys, "obj", "add-stream", "nohandle", "--mime", "text/plain",
                       "--file", str(payload), "--repo", "127.0.0.1:1")
    assert code == 1 and err.startswith("TARGET_UNREACHABLE:")


@pytest.mark.parametrize("argv", [
    ["obj", "add-disseminator", "h", "--type", "urn:test:t", "--bind", "x"],
    ["obj", "set-access", "h", "--target", "DISS1", "--scheme", "urn:test:s", "--bind", "x"],
    ["obj", "get", "urn:test:x", "--type", "urn:test:t", "--method", "m", "--arg", "x"],
], ids=["add-disseminator--bind", "set-access--bind", "get--arg"])
def test_malformed_pair_option_is_bad_arguments(fed, capsys, argv):
    code, out, err = run(capsys, *argv, "--repo", fed.servers[0].endpoint)
    assert (code, out) == (1, "")
    assert err.startswith("BAD_ARGUMENTS:") and "'x'" in err


def test_add_stream_reads_stdin_for_dash(fed, capsys, monkeypatch):
    repo = ["--repo", fed.servers[0].endpoint]
    handle = run_json(capsys, "obj", "create", *repo)["handle"]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"from stdin")))
    ds = run_json(capsys, "obj", "add-stream", handle, "--mime", "text/plain", "--file", "-",
                  *repo)["id"]
    name = run_json(capsys, "obj", "deposit", handle, *repo)["name"]
    assert RepositoryClient(fed.servers[0].endpoint).get_datastream_content(name, ds) == (
        "text/plain", b"from stdin"
    )


def test_add_stream_missing_file_is_io_error(fed, capsys, tmp_path):
    code, out, err = run(capsys, "obj", "add-stream", "h", "--mime", "text/plain",
                         "--file", str(tmp_path / "absent"), "--repo", fed.servers[0].endpoint)
    assert (code, out) == (1, "")
    assert err.startswith("IO_ERROR:") and "absent" in err


def test_set_access_primitive_on_deposited_object(fed, capsys, tmp_path):
    repo = ["--repo", fed.servers[0].endpoint]
    handle = run_json(capsys, "obj", "create", *repo)["handle"]
    acl_file = tmp_path / "policy.json"
    acl_file.write_bytes(ACL_ALICE_ALL)
    ds_acl = run_json(capsys, "obj", "add-stream", handle, "--mime",
                      "application/x-fedora-acl+json", "--file", str(acl_file), *repo)["id"]
    name = run_json(capsys, "obj", "deposit", handle, *repo)["name"]
    code, out, err = run(capsys, "obj", "set-access", name, "--target", "primitive",
                         "--scheme", fed.types["acl-v1"], "--bind", f"acl={ds_acl}", *repo)
    assert code == 0 and out.strip().startswith("AM"), err
    manager = RepositoryClient(fed.servers[0].endpoint, principal="alice").get_access_manager(
        name, "PRIMITIVE"
    )
    assert manager["scheme"] == fed.types["acl-v1"] and manager["bindings"] == {"acl": [ds_acl]}
    code, _, err = run(capsys, "obj", "streams", name, *repo, "--principal", "mallory")
    assert code == 1 and err.startswith("ACCESS_DENIED")


def test_missing_endpoint_configuration(fed, capsys, monkeypatch):
    monkeypatch.delenv("OBJREPO_REPO", raising=False)
    code, _, err = run(capsys, "obj", "create")
    assert code == 1 and err.startswith("BAD_ARGUMENTS:")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_serve_stops_cleanly_on_sigterm_and_sigint(tmp_path, signum):
    """`serve naming` drains and exits 0 on either signal, SIGINT included
    when it starts ignored, as a non-interactive shell's `cmd &` leaves it."""
    config = tmp_path / "naming.json"
    journal = tmp_path / "journal.jsonl"
    config.write_text(json.dumps({"listen_endpoint": "127.0.0.1:0", "journal_path": str(journal)}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        ["sh", "-c", 'trap "" INT; exec "$@"', "sh",
         sys.executable, "-m", "objrepo.cli", "serve", "naming", "--config", str(config)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        endpoint = proc.stderr.readline().decode().split()[-1]  # the banner ends with it
        NamingClient(endpoint).register("urn:test:served", "127.0.0.1:1")
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert "urn:test:served" in journal.read_text()
