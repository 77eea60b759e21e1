"""Byte-identity guard: sha256 of every artifact a user or peer can see.

The hashes pin retrieval transcripts, `spircr table` and `spircr region`
output and the files `provision` writes, so a refactor of the query, answer
or audit layers that changes a single output byte fails here.
"""
import contextlib
import hashlib
import io

import pytest

from spircr.cli import main
from spircr.fields import Seed
from spircr.net import provision
from spircr.plan import SchemeParams
from spircr.sim import RetrievalSeeds, run_retrieval

TRANSCRIPT_SEEDS = ("guard-a", "guard-b", "guard-c")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def transcripts_digest(n: int, k: int) -> str:
    """Every desired index under every fixed seed, one JSON line each."""
    params = SchemeParams.create(n, k, 257)
    lines = [
        run_retrieval(params, desired, RetrievalSeeds.from_master(Seed.from_text(label))).to_json()
        for label in TRANSCRIPT_SEEDS
        for desired in range(1, k + 1)
    ]
    return sha("\n".join(lines).encode("utf-8"))


def cli_digest(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return sha(out.getvalue().encode("utf-8"))


def provision_digests(out_dir) -> dict[str, str]:
    master = Seed.from_text("guard")
    paths = provision(
        SchemeParams.create(2, 2, 257),
        master.derive("messages"),
        master.derive("pool"),
        master.derive("user"),
        out_dir,
    )
    return {path.name: sha(path.read_bytes()) for path in paths}


TRANSCRIPTS = {
    (1, 2): "cca1a9ed89b1dadeb0bf16d379a7505242cfb253ff3a77ff9bfc94368ca6bdd0",
    (1, 3): "d36da6dfe3617185cc3c2242c320f38f61f1405127cf4ffd89921fef7b9f0714",
    (2, 2): "8472c759d9b7eef785f87b185dbc6502aadf594d7bc40254a81c07a3706cd8b9",
    (2, 3): "6f6a04ea0570920cb9de28cc7af1b0ec0a2f1cc5a63da605e06d560e4078d43f",
    (3, 2): "3baa66874dd847557e450fcedc9d192f14472d73f8ab1ad3234b498a0ae7de18",
    (3, 3): "07f0e87554cbdd94916d73fa0df2ff3a7fbf8e614fe82c7422be59ad8054dfb7",
}

CLI_OUTPUTS = {
    ('table', '--n', '1', '--k', '2', '--format', 'text'):
        "613280dc776c62364e859573d94516f31cbec02e19ac79c51ad90bb7b61dcca6",
    ('table', '--n', '1', '--k', '2', '--format', 'json'):
        "2fc981e337e55e7565f9f0169449fe56e2e51ab48a350885523a7f54f553f99b",
    ('table', '--n', '1', '--k', '3', '--format', 'text'):
        "a954d98f81afff9f64397669928464a12422b58ab5c7ffaf58f7f317afc1de2e",
    ('table', '--n', '1', '--k', '3', '--format', 'json'):
        "d4d93e283ef5dfd490aa96e42b801449ee0fa147c71d6b9e468191fc77fdc3f8",
    ('table', '--n', '2', '--k', '2', '--format', 'text'):
        "7bb6e07bcd9c0dc05b7e6a82fc5a2e981502f6a09afeaffc4d1213bc9e23250b",
    ('table', '--n', '2', '--k', '2', '--format', 'json'):
        "485d73c862e7f2d05bb89f42102e818146b90ceee9f5f4a4a733cd98fc2eb05a",
    ('table', '--n', '2', '--k', '3', '--desired', '2'):
        "55f717980df39cbfbd17c37a2c6b4523943c020b1681d12e2e8dc533da7deb77",
    ('region', '--n', '1', '--k', '4'):
        "a5fde0ec20f6d036ecad19aa29b274e6ead4c914ebcb39cd5817668582ab5d0d",
    ('region', '--n', '2', '--k', '2', '--target', '7/4,7/8,1/8'):
        "6502635755c8aac190039baf5f8f249a9fdb83194fed0d00e3bdd6b28739a18e",
    ('region', '--n', '2', '--k', '2', '--target', '1,1,1'):
        "a2ba4e61e65f7def502b4b496c0832bc21ecf6777476e3073ed300b695c2587f",
    ('region', '--n', '3', '--k', '2', '--target', '3/2,1/2,1/9'):
        "7b4f7c7af038426f68e62034afd807f0d326c8a63e5f09e55db74a5f24c12ce5",
    ('region', '--n', '3', '--k', '2', '--format', 'json', '--target', '3/2,1/2,1/9'):
        "d9bf263f853b4daa79f25f177e9e15c95b2c2327a015da25f0ad67d29e71582d",
    ('region', '--n', '2', '--k', '3', '--format', 'csv', '--steps', '4'):
        "c94fa486dafbc6e9aec61f4ad96d8d13750d8590f9f574767c0fd7b8e04b9e83",
}

PROVISIONED = {
    "database_state.bin": "acd3bb750be078617ee7ba12fc4d9380758a211a9af4ef0cea18a2488eb4452b",
    "user.json": "bb62c6d0659b179b58e3f607452a827c22c9341686d09cec3ac50687481794b6",
}


@pytest.mark.parametrize("n,k", sorted(TRANSCRIPTS))
def test_transcript_bytes(n, k):
    assert transcripts_digest(n, k) == TRANSCRIPTS[(n, k)]


@pytest.mark.parametrize("argv", sorted(CLI_OUTPUTS), ids=" ".join)
def test_cli_output_bytes(argv):
    assert cli_digest(*argv) == CLI_OUTPUTS[argv]


def test_provisioned_file_bytes(tmp_path):
    assert provision_digests(tmp_path) == PROVISIONED
