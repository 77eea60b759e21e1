import importlib.util
import json
import re
import shlex
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from spircr.cli import main
from spircr.net import load_database_state, serve_database
from spircr.region import corner_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_examples():
    """(argv, output lines) of every README block that runs one spircr
    command and shows what it prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", readme, re.S | re.M):
        command, *output = block.splitlines()
        if command.startswith("$ spircr ") and not any(ln.startswith("$") for ln in output):
            examples.append((shlex.split(command)[2:], output))
    return examples


README_EXAMPLES = _readme_examples()


def test_the_readme_shows_four_examples():
    assert [argv[0] for argv, _ in README_EXAMPLES] == ["table", "retrieve", "audit", "region"]


@pytest.mark.parametrize("argv,want", README_EXAMPLES, ids=[a[0] for a, _ in README_EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    got = out.splitlines()
    if want[-1] == "...":  # the README shows a prefix
        want = want[:-1]
        got = got[: len(want)]
    assert got == want


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--n", "1", "--k", "3")
    assert code == 0
    assert "W1+S1" in out
    assert out.count("desired") >= 3


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["N"] == 2 and doc["params"]["K"] == 2
    assert len(doc["cells"]) == 6  # 3 seeds x 2 variants


def test_table_large_instance_samples(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--k", "3", "--desired", "2")
    assert code == 0
    assert "family too large to print in full" in out
    assert "W2" in out


def test_table_large_instance_json_is_usage_error(capsys):
    # the sampled fallback prints text only; json output would not be json
    code, out, err = run(capsys, "table", "--n", "2", "--k", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_retrieve_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "retrieve", "--n", "2", "--k", "2", "--desired", "1",
                        "--seed", "alpha")
    assert code == 0
    doc = json.loads(out1)
    assert doc["desired"] == 1
    assert len(doc["decoded"]) == 4  # run_retrieval verifies decoded == stored
    code, out2, _ = run(capsys, "retrieve", "--n", "2", "--k", "2", "--desired", "1",
                        "--seed", "alpha")
    assert out2 == out1


def test_retrieve_text(capsys):
    code, out, _ = run(capsys, "retrieve", "--n", "1", "--k", "2", "--desired", "2",
                       "--format", "text")
    assert code == 0
    assert "desired W2 =" in out
    assert "rates:" in out


def test_retrieve_injected_fault_fails(capsys):
    code, _, err = run(capsys, "retrieve", "--n", "2", "--k", "2", "--desired", "1",
                       "--inject", "bare-companion")
    assert code == 1
    assert "retrieval failed" in err


def test_retrieve_endpoint_down(capsys, tmp_path):
    code, out, _ = run(capsys, "provision", "--n", "2", "--k", "2",
                       "--out", str(tmp_path))
    assert code == 0
    user_path = out.splitlines()[1].split(":", 1)[1].strip()
    code, _, err = run(capsys, "retrieve", "--n", "2", "--k", "2", "--desired", "1",
                       "--endpoints", "127.0.0.1:1,127.0.0.1:1", "--user", user_path)
    assert code == 1
    assert "retrieval failed" in err


@pytest.mark.parametrize("flags", [
    ["--n", "2", "--k", "2", "--inject", "unmask-one"],  # the fault would be dropped
    ["--n", "3", "--k", "3"],  # the user file's (2,2) instance would win
    ["--n", "2", "--k", "2", "--q", "5"],
])
def test_retrieve_endpoints_refuse_ignored_flags(capsys, tmp_path, flags):
    code, out, _ = run(capsys, "provision", "--n", "2", "--k", "2", "--out", str(tmp_path))
    user_path = out.splitlines()[1].split(":", 1)[1].strip()
    code, out, err = run(capsys, "retrieve", "--desired", "1", *flags, "--user", user_path,
                         "--endpoints", "127.0.0.1:1,127.0.0.1:1")
    assert code == 2  # a usage error, raised before any connection is tried
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("endpoints,reason", [
    ("127.0.0.1:x,127.0.0.1:1", "port 'x' of '127.0.0.1:x' is not in 1..65535"),
    ("foo,127.0.0.1:1", "'foo' is not host:port"),
    ("127.0.0.1:70000,127.0.0.1:1", "port '70000' of '127.0.0.1:70000' is not in 1..65535"),
    ("127.0.0.1:0,127.0.0.1:1", "port '0' of '127.0.0.1:0' is not in 1..65535"),
    ("127.0.0.1:1", "need 2 database addresses, got 1"),
], ids=["non-numeric-port", "no-port", "port-above-65535", "port-zero", "one-address"])
def test_retrieve_malformed_endpoints_are_usage_errors(capsys, tmp_path, endpoints, reason):
    code, out, _ = run(capsys, "provision", "--n", "2", "--k", "2", "--out", str(tmp_path))
    user_path = out.splitlines()[1].split(":", 1)[1].strip()
    code, out, err = run(capsys, "retrieve", "--n", "2", "--k", "2", "--desired", "1",
                         "--user", user_path, "--endpoints", endpoints)
    assert code == 2  # refused before any connection is tried
    assert out == ""
    assert err == f"--endpoints: {reason}\n"


def test_retrieve_endpoints_need_user(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", "--n", "2", "--k", "2", "--desired", "1",
              "--endpoints", "127.0.0.1:9"])
    assert exc.value.code == 2


def test_audit_passes(capsys):
    code, out, _ = run(capsys, "audit", "--n", "1", "--k", "2", "--q", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 4
    assert any("database-privacy" in l and "0 (exact" in l for l in lines)


def test_audit_injected_fault_exits_one(capsys):
    code, out, _ = run(capsys, "audit", "--n", "1", "--k", "3", "--q", "2",
                       "--inject", "seed-reuse")
    assert code == 1
    assert any(l.startswith("FAIL user-privacy") for l in out.splitlines())


@pytest.mark.parametrize("argv", [
    ["audit", "--n", "1", "--k", "2", "--q", "2"],
    ["retrieve", "--n", "1", "--k", "2", "--desired", "1"],
])
def test_inapplicable_fault_exits_two(capsys, argv):
    # a single database has no larger sum whose companion could go bare
    code, out, err = run(capsys, *argv, "--inject", "bare-companion")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "cannot inject bare-companion" in err


@pytest.mark.parametrize("n,k,q", [(2, 3, 2), (3, 2, 2), (3, 3, 2), (3, 4, 257)])
def test_audit_exact_past_the_enumerable_shapes(capsys, n, k, q):
    # one representative table per desired index: no coin enumeration, so
    # shapes with 10^12 and more coin outcomes are exact too
    code, out, err = run(capsys, "audit", "--n", str(n), "--k", str(k), "--q", str(q))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [l.split(":")[0] for l in lines] == [
        "PASS reliability", "PASS user-privacy", "PASS database-privacy", "PASS cr-difference"
    ]
    assert all("I = 0 (exact factorization)" in l for l in lines[2:])


def test_region_text_inside(capsys):
    code, out, _ = run(capsys, "region", "--n", "2", "--k", "2",
                       "--target", "7/4,7/8,1/8")
    assert code == 0
    assert "inside" in out
    assert "time share" in out


def test_region_text_outside(capsys):
    code, out, _ = run(capsys, "region", "--n", "2", "--k", "2",
                       "--target", "1,1,1")
    assert code == 1
    assert "outside" in out


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--n", "3", "--k", "2", "--format", "json",
                       "--target", "3/2,1/2,1/9")
    assert code == 0
    doc = json.loads(out)
    assert doc["corner"]["d"] == "4/3"
    assert doc["target"]["inside"] is True
    assert doc["time_share"] is not None


def test_region_csv(capsys):
    code, out, _ = run(capsys, "region", "--n", "2", "--k", "2", "--format", "csv",
                       "--steps", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho_u,d_min,rho_s_min"
    assert len(lines) == 6  # header + steps+1 samples


@pytest.mark.parametrize("n,k", [(2, 32), (10, 20)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_region_past_the_wire_format_limit(capsys, n, k, fmt):
    # L = N^K no longer fits the wire format's 32 bits, but rates need no params
    code, out, err = run(capsys, "region", "--n", str(n), "--k", str(k), "--format", fmt)
    assert (code, err) == (0, "")
    corner = corner_point(n, k)
    if fmt == "json":
        doc = json.loads(out)
        assert doc["scheme"] == doc["corner"] == corner.as_strings()
    else:
        line = f"scheme as built     d={corner.d}  rho_s={corner.rho_s}  rho_u={corner.rho_u}"
        assert line in out.splitlines()


def test_region_single_db(capsys):
    code, out, _ = run(capsys, "region", "--n", "1", "--k", "4")
    assert code == 0
    assert "d=4" in out


def test_provision_writes_files(capsys, tmp_path):
    code, out, _ = run(capsys, "provision", "--n", "1", "--k", "3",
                       "--out", str(tmp_path), "--seed", "prov")
    assert code == 0
    assert (tmp_path / "database_state.bin").exists()
    assert (tmp_path / "user.json").exists()
    assert "database state:" in out


@pytest.mark.parametrize("argv", [
    ("retrieve", "--n", "2", "--k", "2", "--desired", "1", "--format", "text"),
    ("table", "--n", "2", "--k", "3"),
    ("provision", "--n", "1", "--k", "3"),
])
def test_a_seed_that_is_not_utf8_is_taken_as_its_octets(capsys, tmp_path, argv):
    # how Python hands over a --seed argument holding the octet 0xff
    if argv[0] == "provision":
        argv += ("--out", str(tmp_path))
    code, out, err = run(capsys, *argv, "--seed", "\udcff")
    assert code == 0
    assert err == ""


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["table", "--n", "1", "--k", "3", "--q", "6"],       # composite field size
        ["retrieve", "--n", "1", "--k", "1", "--desired", "1"],  # too few messages
        ["retrieve", "--n", "1", "--k", "2", "--desired", "5"],  # desired out of range
        ["region", "--n", "0", "--k", "2"],
        ["region", "--n", "2", "--k", "2", "--target", "1,2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_package_import_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import spircr, sys; print('numpy' in sys.modules)"],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_package_import_does_not_load_openssl():
    # every client and server imports spircr.cli's modules; OpenSSL adds ~3.5 MB
    if importlib.util.find_spec("_sha256") is None and importlib.util.find_spec("_sha2") is None:
        pytest.skip("this interpreter has no built-in sha256")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import spircr.cli, sys; print('_hashlib' in sys.modules)"],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_region_csv_zero_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", "--n", "2", "--k", "2", "--format", "csv", "--steps", "0"])
    assert exc.value.code == 2


def _one_line_failure(capsys, argv, prefix):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(prefix)


def test_serve_rejects_malformed_state(capsys, tmp_path):
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\x00\x01 not a state file")
    _one_line_failure(capsys, ["serve", "--state", str(garbage), "--db-index", "1"],
                      "cannot load state")
    no_params = tmp_path / "no_params.bin"
    no_params.write_bytes(b'{"kind": "database-state", "symbol_count": 0}\n')
    _one_line_failure(capsys, ["serve", "--state", str(no_params), "--db-index", "1"],
                      "cannot load state")


def _provisioned_state(capsys, tmp_path):
    code, out, _ = run(capsys, "provision", "--n", "2", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    return out.splitlines()[0].split(":", 1)[1].strip()


def test_serve_on_a_port_in_use_fails_in_one_line(capsys, tmp_path):
    state_path = _provisioned_state(capsys, tmp_path)
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = str(held.getsockname()[1])
        _one_line_failure(capsys, ["serve", "--state", state_path, "--db-index", "1",
                                   "--port", port], f"cannot serve on 127.0.0.1:{port}: ")


def test_serve_port_out_of_range_is_usage_error(capsys, tmp_path):
    state_path = _provisioned_state(capsys, tmp_path)
    code, out, err = run(capsys, "serve", "--state", state_path, "--db-index", "1",
                         "--port", "70000")
    assert code == 2
    assert out == ""
    assert err == "--port 70000 is not in 0..65535\n"


def test_provision_under_a_file_fails_in_one_line(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    _one_line_failure(capsys, ["provision", "--n", "2", "--k", "2",
                               "--out", str(blocker / "depot")], f"cannot write to {blocker}")


def test_retrieve_rejects_user_file_without_index(capsys, tmp_path):
    code, out, _ = run(capsys, "provision", "--n", "2", "--k", "2", "--out", str(tmp_path))
    user_path = Path(out.splitlines()[1].split(":", 1)[1].strip())
    doc = json.loads(user_path.read_text())
    del doc["index"]
    user_path.write_text(json.dumps(doc))
    _one_line_failure(capsys, ["retrieve", "--n", "2", "--k", "2", "--desired", "1",
                               "--endpoints", "127.0.0.1:1,127.0.0.1:1", "--user", str(user_path)],
                      "retrieval failed")


def test_retrieve_rejects_user_value_out_of_range(capsys, tmp_path):
    # live servers, so only the user file's pool value of -1 can fail it
    code, out, _ = run(capsys, "provision", "--n", "2", "--k", "2", "--q", "257",
                       "--out", str(tmp_path))
    assert code == 0
    state_path, user_path = (Path(ln.split(":", 1)[1].strip()) for ln in out.splitlines())
    state = load_database_state(state_path)
    servers = [serve_database(state, i) for i in (1, 2)]
    try:
        endpoints = ",".join(f"{h}:{p}" for h, p in (s.address for s in servers))
        argv = ["retrieve", "--n", "2", "--k", "2", "--q", "257", "--desired", "1",
                "--endpoints", endpoints, "--user", str(user_path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(user_path.read_text())
        doc["value"] = -1
        user_path.write_text(json.dumps(doc))
        _one_line_failure(capsys, argv, "retrieval failed: field 'value' = -1 outside [0, 257)")
    finally:
        for s in servers:
            s.stop()
